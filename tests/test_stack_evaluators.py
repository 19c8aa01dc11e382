"""Stacked evaluation: every exact evaluator on a (B, m, n) stack equals its single-tuple calls bit for bit."""

import dataclasses
import math

import numpy as np
import pytest

import multinorm as mn
from multinorm import summing
from multinorm.errors import BudgetError
from multinorm.multinorms import exact_evaluator, is_exact_path, point_value
from multinorm.optim import lp_norm

S = mn.MultiNormSpec
CFG = mn.OptimConfig(seed=5, restarts=2)
INF = math.inf


def _specs(sp, rng):
    m = sp.dim
    labels = rng.integers(0, 3, size=m)
    blocks = [[int(k) for k in np.where(labels == b)[0]] for b in range(3)]
    blocks = [b for b in blocks if b]
    ops = [np.eye(m), rng.standard_normal((m, m)), np.diag(rng.choice([-1.0, 1.0], m))]
    specs = [
        S.min_spec(),
        S.lattice(),
        S.dual_lattice(),
        S.lp_sum(1),
        S.lp_sum(2.5),
        S.partition(blocks),
        S.partition([list(range(m))]),
        S.weak_summing(INF),
        S.extended(S.lattice(), ops),
        S.extended(S.partition(blocks), ops),
        # numerical duals through the duality table: lp_sum(1), dual_lattice, lattice, lp_sum(2.5') and real mu_1
        S.numerical_dual(S.min_spec()),
        S.numerical_dual(S.lattice()),
        S.numerical_dual(S.dual_lattice()),
        S.numerical_dual(S.lp_sum(2.5)),
    ]
    if sp.p == INF:
        specs.append(S.weak_summing(1.5))
    if sp.p == 2:
        specs.append(S.weak_summing(2))
    if sp.p != INF:
        specs += [S.standard_q(sp.p), S.standard_q(sp.p + 1)]
    if sp.p == 1:
        specs.append(S.max_spec())
    if not sp.is_complex:
        specs += [S.weak_summing(1), S.numerical_dual(S.max_spec())]
    if sp.p == 1 and not sp.is_complex:
        specs.append(S.weak_summing(1.5))
    if m <= 3:
        specs.append(S.generated(mn.band_family(sp)))
    return specs


def _draw(rng, shape, is_complex):
    X = rng.standard_normal(shape)
    if is_complex:
        X = X + 1j * rng.standard_normal(shape)
    return X


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, INF])
@pytest.mark.parametrize("weighted", [False, True])
def test_stacked_exact_evaluators_match_single_calls(field, r, weighted):
    rng = np.random.default_rng([int(min(r, 9) * 10), weighted, field == "complex"])
    for m, n in ((1, 1), (2, 3), (3, 2), (4, 4), (8, 3)):
        sp = mn.SpaceSpec(r, m, tuple(rng.uniform(0.5, 2.0, m)) if weighted else (), field)
        for spec in _specs(sp, rng):
            if spec.variant == "generated" and n > 3:
                continue
            fn = exact_evaluator(spec, sp, n, CFG)
            assert fn is not None, spec.variant
            for B in (1, 5):
                stack = _draw(rng, (B, m, n), sp.is_complex)
                stack[0, :, 0] = 0.0  # a zero column
                got = fn(stack)
                assert isinstance(got, np.ndarray) and got.shape == (B,)
                for b in range(B):
                    one = fn(stack[b])
                    assert isinstance(one, float)
                    assert got[b] == one, (spec.variant, m, n, B, b)
            deep = _draw(rng, (2, 3, m, n), sp.is_complex)
            assert np.array_equal(point_value(spec, sp, deep, CFG), fn(deep.reshape(6, m, n)).reshape(2, 3))


def test_point_value_stacks_search_backed_specs():
    sp = mn.SpaceSpec(2.0, 3, (1.0, 2.0, 0.5))
    spec = S.pq_spec(1, 2)
    cfg = mn.OptimConfig(seed=1, restarts=1)
    stack = _draw(np.random.default_rng(4), (2, 3, 2), False)
    got = point_value(spec, sp, stack, cfg)
    assert got.shape == (2,)
    assert [float(v) for v in got] == [point_value(spec, sp, X, cfg) for X in stack]


def test_lp_norm_rows_match_vectors():
    rng = np.random.default_rng(2)
    for r in (1.0, 1.5, 2.0, 3.0, INF):
        for k in (1, 3, 8, 17):
            A = _draw(rng, (4, k), True)
            rows = lp_norm(A, r)
            assert [lp_norm(a, r) for a in A] == rows.tolist()


def test_mu1_exact_path_respects_the_callers_budget():
    sp = mn.SpaceSpec(2.0, 3)
    X = _draw(np.random.default_rng(6), (3, 4), False)
    t = mn.VectorTuple(X, sp)
    spec = S.weak_summing(1)
    default = mn.evaluate(spec, t, mn.OptimConfig())
    # n = 4 real tuples visit 2^3 = 8 pinned sign rows
    small, fits = mn.OptimConfig(max_enum=4), mn.OptimConfig(max_enum=8)
    assert not is_exact_path(spec, sp, 4, small) and is_exact_path(spec, sp, 4, fits)
    # over budget, evaluate gives mu_weak's answer, as mu_weak(1, .) itself does
    over, direct = mn.evaluate(spec, t, small), summing.mu_weak(1, t, small)
    assert (over.kind, over.lower, over.upper) == (direct.kind, direct.lower, direct.upper)
    assert over.lower <= default.lower <= over.upper
    assert mn.evaluate(S.extended(spec, [np.eye(3)]), t, small).kind == over.kind
    assert mn.evaluate(spec, t, fits).lower == default.lower
    # over l^inf the closed form needs no grid
    assert is_exact_path(spec, mn.SpaceSpec(INF, 3), 4, small)


def test_generated_has_no_exact_path_past_its_assignment_budget():
    sp = mn.SpaceSpec(2.0, 3)
    spec = S.generated(mn.band_family(sp))
    t = mn.VectorTuple(_draw(np.random.default_rng(8), (3, 4), False), sp)
    # band_family(l^2_3) has members of lengths 1, 2 and 3; a 4-tuple needs 4^3 = 64 assignments of the longest
    assert is_exact_path(spec, sp, 4, mn.OptimConfig(max_enum=64))
    assert not is_exact_path(spec, sp, 4, mn.OptimConfig(max_enum=63))
    small = mn.OptimConfig(max_enum=8)
    assert not is_exact_path(spec, sp, 4, small)
    with pytest.raises(BudgetError, match="assignment enumeration needs 16 > budget 8"):
        mn.evaluate(spec, t, small)


def test_point_value_takes_the_search_path_over_the_sign_grid_budget():
    sp = mn.SpaceSpec(2.0, 3)
    spec = S.weak_summing(1)
    small = mn.OptimConfig(seed=5, restarts=2, max_enum=8)
    rng = np.random.default_rng(12)
    # 5 slots visit 2^4 = 16 > 8 pinned sign rows: evaluate's bracket, lower side
    X = _draw(rng, (2, 3, 5), False)
    want = [mn.evaluate(spec, mn.VectorTuple(x, sp), small) for x in X]
    assert all(w.kind == "bracket" for w in want)
    assert point_value(spec, sp, X, small).tolist() == [w.lower for w in want]
    assert point_value(spec, sp, X[1], small) == want[1].lower
    # 4 slots fit the budget and keep the exact evaluator
    Y = X[..., :4]
    assert point_value(spec, sp, Y, small).tolist() == exact_evaluator(spec, sp, 4, small)(Y).tolist()


def test_budgeted_weak_summing_1_audits_and_sources_do_not_raise():
    sp = mn.SpaceSpec(2.0, 3)
    spec = S.weak_summing(1)
    report = mn.check_axioms(spec, sp, n_max=5, trials=6, cfg=mn.OptimConfig(seed=5, restarts=2, max_enum=8))
    assert report.mode == "heuristic" and report.trials == 6
    tiny = mn.OptimConfig(seed=5, restarts=2, max_enum=2)
    T = np.diag([1.0, 0.5, 2.0])
    # levels n = 1, 2 fit 2^(n-1) <= 2 sign rows; n = 3 does not
    res = mn.mb_norm(T, sp, spec, sp, S.lattice(), 3, tiny)
    assert len(res.p_seq) == 3 and all(math.isfinite(v) for v in res.p_seq)
    L = _draw(np.random.default_rng(3), (3, 3), False)
    dual = mn.evaluate(S.numerical_dual(spec), mn.VectorTuple(L, sp), tiny)
    # past the budget mu_1's bracket still gives a certified upper bound, so the climb keeps certified membership
    assert dual.kind == "bracket" and dual.method == "numerical_dual_ascent"
    fits = mn.evaluate(S.numerical_dual(spec), mn.VectorTuple(L[:, :2], sp), tiny)
    assert fits.method == "numerical_dual_ascent"


def test_space_weights_array_built_once():
    sp = mn.SpaceSpec(1.5, 3, (1.0, 2.0, 0.5))
    assert sp.w is sp.w
    assert sp.w.dtype == float and sp.w.tolist() == [1.0, 2.0, 0.5]
    with pytest.raises(ValueError):
        sp.w[0] = 3.0
    same = mn.SpaceSpec(1.5, 3, (1.0, 2.0, 0.5))
    assert sp == same and hash(sp) == hash(same)
    assert sp != mn.SpaceSpec(1.5, 3, (1.0, 2.0, 0.25))
    assert sp.to_json() == {"p": 1.5, "dim": 3, "weights": [1.0, 2.0, 0.5], "field": "real"}
    assert "w=" not in repr(sp)
    assert mn.SpaceSpec(2.0, 2).w.tolist() == [1.0, 1.0]
    assert dataclasses.replace(sp, weights=(3.0, 1.0, 1.0)).w.tolist() == [3.0, 1.0, 1.0]


def _agreement_specs(sp):
    specs = [
        S.min_spec(),
        S.max_spec(),
        S.lattice(),
        S.dual_lattice(),
        S.lp_sum(1),
        S.lp_sum(2.5),
        S.partition([[0], [1, 2]]),
        S.weak_summing(1),
        S.weak_summing(1.5),
        S.weak_summing(2),
        S.weak_summing(INF),
        S.extended(S.weak_summing(1), [np.eye(3), np.diag([1.0, -1.0, 0.5])]),
        S.extended(S.lattice(), [np.eye(3), np.ones((3, 3)) / 3]),
    ]
    if sp.p != INF:
        specs += [S.standard_q(sp.p), S.standard_q(sp.p + 1), S.extended(S.standard_q(sp.p + 1), [np.eye(3)])]
    return specs


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, INF])
def test_exact_paths_agree_with_evaluate(field, r):
    # max_enum 8 bites: n^3 standard_q assignments fit for n <= 2, 2^(n-1) real mu_1 sign rows for n <= 4
    small = mn.OptimConfig(seed=5, restarts=2, max_enum=8)
    rng = np.random.default_rng([int(min(r, 9) * 10), field == "complex"])
    sp = mn.SpaceSpec(r, 3, (1.0, 2.0, 0.5), field)
    seen = 0
    for spec in _agreement_specs(sp):
        for n in range(1, 6):
            if not is_exact_path(spec, sp, n, small):
                continue
            seen += 1
            X = _draw(rng, (3, n), sp.is_complex)
            res = mn.evaluate(spec, mn.VectorTuple(X, sp), small)
            assert res.kind == "exact", (spec.variant, spec.p, n)
            assert point_value(spec, sp, X, small) == res.lower, (spec.variant, spec.p, n)
            stack = np.stack([X, 2 * X, X[:, ::-1]])
            assert point_value(spec, sp, stack, small)[0] == res.lower
    assert seen >= 40


def test_real_l1_weak_summing_is_exact_for_every_index():
    # on real l^1 the (p' -> 1) sign enumeration over the 2^(dim-1) output signs covers every p
    sp = mn.SpaceSpec(1.0, 3, (1.0, 2.0, 0.5))
    tiny = mn.OptimConfig(seed=5, restarts=2, max_enum=4)
    X = _draw(np.random.default_rng(8), (3, 5), False)
    for p in (1, 1.5, 2, 3, INF):
        spec = S.weak_summing(p)
        assert is_exact_path(spec, sp, 5, tiny)
        res, direct = mn.evaluate(spec, mn.VectorTuple(X, sp), tiny), summing.mu_weak(p, mn.VectorTuple(X, sp), tiny)
        assert res.kind == direct.kind == "exact" and res.lower == direct.lower
    rep = mn.check_axioms(S.weak_summing(1.5), sp, 4, 40, tiny)
    assert rep.mode == "exact" and rep.tol == 1e-8
    assert {v.axiom for v in rep.violations} <= {"A4"}
