"""Seed-first certified exit of the search-backed evaluators.

_pq_value, _max_value (through the (1,1) value) and _numerical_dual_value
hand their certified upper bounds to seeded_ascent as its ceiling: a
projected seed that meets the bound ends the search, and the result is
exact at the bound.  A ceiling no seed meets changes nothing, so every
other result is the one the ascent gives without a ceiling.
"""

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MultiNormSpec as S, OptimConfig, SpaceSpec, VectorTuple
from multinorm import multinorms, optim
from multinorm.multinorms import _dominates_min, exact_evaluator
from multinorm.optim import field_normal
from multinorm.spaces import lp_norm

CFG = OptimConfig(seed=11, restarts=2, grid_points=32)
RS = (1.0, 1.5, 2.0, 3.0)
FIELDS = ("real", "complex")
WEIGHTS = ((), (0.5, 2.0, 1.25))


def _delta(space, rng, n):
    """Unit vectors on distinct coordinates times random unimodular scalars."""
    X = np.zeros((space.dim, n), dtype=complex if space.is_complex else float)
    phases = np.exp(2j * np.pi * rng.random(n)) if space.is_complex else rng.choice([-1.0, 1.0], n)
    for j, k in enumerate(rng.permutation(space.dim)[:n]):
        X[k, j] = phases[j] / space.w[k] ** (1.0 / space.p)
    return X


def _cases():
    """(space, spec, tuple) triples over the search-backed variants, some of which meet their bounds at a seed."""
    rng = np.random.default_rng(17)
    for field in FIELDS:
        for weights in WEIGHTS:
            for r in RS:
                sp = SpaceSpec(r, 3, weights, field)
                for p, q in ((1, 2), (2, 2), (2, 3), (1.5, 3)):
                    yield sp, S.pq_spec(p, q), _delta(sp, rng, 2 + (p == 2))
                    yield sp, S.pq_spec(p, q), field_normal(rng, (3, 2), sp.is_complex)
                if r != 1:  # max on l^1 has an exact path
                    yield sp, S.max_spec(), _delta(sp, rng, 3)
                yield sp, S.numerical_dual(S.min_spec()), field_normal(rng, (3, 3), sp.is_complex)
                yield sp, S.numerical_dual(S.lattice()), field_normal(rng, (3, 2), sp.is_complex)
            sp = SpaceSpec(2.0, 3, weights, field)
            yield sp, S.hilbert(), field_normal(rng, (3, 3), sp.is_complex) * np.eye(3)[:, [2, 0, 1]]
            yield sp, S.hilbert(), field_normal(rng, (3, 2), sp.is_complex)


def _without_exit(monkeypatch):
    """No bound is ever met: the evaluators climb and report as they did before the exit."""
    never = lambda value, bound: False  # noqa: E731
    monkeypatch.setattr(optim, "meets", never)
    monkeypatch.setattr(multinorms, "meets", never)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("weights", WEIGHTS)
def test_delta_tuples_are_exact_at_the_q_sum(field, weights):
    # for p >= r a delta tuple attains n^(1/q); the ascent's own seed does, so nothing climbs
    rng = np.random.default_rng(3)
    for r, p, q in ((1.0, 1, 2), (1.0, 2, 3), (1.5, 2, 2), (1.5, 1.5, 3), (2.0, 2, 2), (2.0, 2, 3), (3.0, 3, 4)):
        sp = SpaceSpec(r, 3, weights, field)
        for n in (2, 3):
            res = mn.evaluate(S.pq_spec(p, q), VectorTuple(_delta(sp, rng, n), sp), CFG)
            method = "l1_pair_arc_bisection" if r == 1 and n == 2 else "pq_spectral_polish" if p == 2 and r == 2 else "pq_ball_ascent"
            assert (res.kind, res.method) == ("exact", method), (r, p, q, n)
            assert res.lower == res.upper == pytest.approx(n ** (1.0 / q), rel=1e-12)
    # the maximum multi-norm of a delta tuple is n^(1/r): the (1,1) ascent meets the root averages
    for r in (1.5, 2.0):
        sp = SpaceSpec(r, 3, weights, field)
        res = mn.evaluate(S.max_spec(), VectorTuple(_delta(sp, rng, 3), sp), CFG)
        assert (res.kind, res.method) == ("exact", "pq11_ascent_roots_upper")
        assert res.lower == pytest.approx(3 ** (1.0 / r), rel=1e-12)


def test_met_ceiling_runs_no_ascent(monkeypatch):
    # a seed that meets the ceiling costs one value call: the starts' own
    calls = []
    real_ascent = optim.seeded_ascent

    def counted(project, value, *args, **kwargs):
        seen = []
        got = real_ascent(project, lambda P: seen.append(len(P)) or value(P), *args, **kwargs)
        calls.append(len(seen))
        return got

    monkeypatch.setattr(optim, "seeded_ascent", counted)
    monkeypatch.setattr(multinorms, "seeded_ascent", counted)
    sp = SpaceSpec(1.5, 3, (0.5, 2.0, 1.25), "complex")
    rng = np.random.default_rng(4)
    for spec, X in ((S.pq_spec(1.5, 3), _delta(sp, rng, 3)), (S.numerical_dual(S.min_spec()), field_normal(rng, (3, 3), True))):
        calls.clear()
        assert mn.evaluate(spec, VectorTuple(X, sp), CFG).kind == "exact"
        assert calls == [1]
    calls.clear()
    assert mn.evaluate(S.pq_spec(1.5, 3), VectorTuple(field_normal(rng, (3, 3), True), sp), CFG).kind == "bracket"
    assert calls[0] > 1


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("weights", WEIGHTS)
def test_numerical_dual_of_min_is_exact_at_the_sum_of_norms(field, weights):
    # the numerical dual of the minimum multi-norm is sum_j ||lambda_j||, which the slot-norming seed attains
    rng = np.random.default_rng([5, field == "complex", len(weights)])
    for r in RS:
        sp = SpaceSpec(r, 3, weights, field)
        for n in (1, 2, 3, 4):
            L = field_normal(rng, (3, n), sp.is_complex)
            res = mn.evaluate(S.numerical_dual(S.min_spec()), VectorTuple(L, sp), CFG)
            assert (res.kind, res.method) == ("exact", "numerical_dual_ascent")
            assert res.lower == res.upper == lp_norm(sp.norm_cols(L), 1)
            assert res.lower == pytest.approx(sum(sp.norm(L[:, j]) for j in range(n)), rel=1e-14)


def test_heuristic_membership_is_never_exact():
    # past max_enum weak_summing(1) is a search, whose lower bounds certify no seed: no ceiling, kind lower
    sp = SpaceSpec(2.0, 3)
    tiny = OptimConfig(seed=5, restarts=2, max_enum=2)
    rng = np.random.default_rng(3)
    one_slot = np.zeros((3, 3))
    one_slot[:, 0] = rng.standard_normal(3)
    for L in (rng.standard_normal((3, 3)), one_slot):
        res = mn.evaluate(S.numerical_dual(S.weak_summing(1)), VectorTuple(L, sp), tiny)
        assert (res.kind, res.method) == ("lower", "numerical_dual_ascent_heuristic_membership")
    # with an exact membership the one-slot tuple meets ||lambda_1||, its numerical dual
    res = mn.evaluate(S.numerical_dual(S.weak_summing(1)), VectorTuple(one_slot, sp), CFG)
    assert (res.kind, res.lower) == ("exact", sp.norm(one_slot[:, 0]))


def test_a_tiny_tuple_keeps_its_kind_and_method():
    # every bound is 1-homogeneous and met relative to its size, so 1e-10 X is no nearer its bounds than X.  Only the
    # seeded_ascent searches: the spectral polish and the Hilbert alternation stop on an absolute gain of 1e-14
    c = 1e-10
    seen = set()
    for sp, spec, X in _cases():
        if spec.variant == "hilbert" or (spec.variant == "pq" and spec.p == 2 and sp.p == 2):
            continue
        big, small = (mn.evaluate(spec, VectorTuple(Y, sp), CFG) for Y in (X, c * X))
        assert (small.kind, small.method) == (big.kind, big.method), (spec.to_json(), sp.to_json())
        assert small.upper == big.upper == INF or small.upper == pytest.approx(c * big.upper, rel=1e-12)
        # an exact value is its bound; below one, the ascent's absolute 1e-15 acceptance term stalls a tiny climb early
        if big.kind == "exact":
            assert small.lower == pytest.approx(c * big.lower, rel=1e-12)
        else:
            assert c * big.lower * (1 - 1e-3) <= small.lower <= small.upper
        seen.add(big.kind)
    assert seen == {"exact", "bracket", "lower"}


@pytest.mark.parametrize("is_complex", [False, True])
def test_ball_linear_max_with_an_unmet_ceiling_is_bit_identical(is_complex):
    # over the l^2 lattice ball, sup |sum_jk x_jk c_jk| is the l^2 norm of C's row sums of moduli, far below 10 * ||C||_1
    rng = np.random.default_rng(8)
    shape = (3, 2)
    C = field_normal(rng, shape, is_complex)
    membership = lambda P: lp_norm(np.abs(P).max(axis=-1), 2.0)  # noqa: E731
    objective = lambda P: (P * C).sum(axis=(-2, -1))  # noqa: E731
    # the maximizer: row k of x is t_k times the conjugate phases of row k of C, t the l^2 direction of C's row sums
    s = np.abs(C).sum(axis=-1)
    best = lp_norm(s, 2.0)
    argmax = (s / best)[:, None] * np.conj(C) / np.abs(C)
    seeds = [np.ones(shape), np.conj(C) / np.abs(C)]
    cfg = OptimConfig(seed=9, restarts=3)
    want = mn.ball_linear_max(membership, objective, shape, cfg, seeds, is_complex)
    got = mn.ball_linear_max(membership, objective, shape, cfg, seeds, is_complex, ceiling=10 * np.abs(C).sum())
    assert (got.kind, got.lower, got.upper, got.method) == (want.kind, want.lower, want.upper, want.method) == ("lower", want.lower, INF, "ball_ascent")
    assert got.witness.dtype == want.witness.dtype and np.array_equal(got.witness, want.witness)
    assert want.lower < best * (1 - 1e-9)  # no seed met 10 * ||c||_1, so both climbed
    # a met ceiling returns the first seed that meets it, still as a lower bound
    met = mn.ball_linear_max(membership, objective, shape, cfg, [*seeds, argmax], is_complex, ceiling=best)
    assert met.kind == "lower" and met.lower == pytest.approx(best, rel=1e-12)
    assert np.allclose(met.witness, argmax, rtol=1e-12)


def _dominating_specs(sp):
    fam = mn.band_family(sp)
    specs = [
        S.min_spec(),
        S.lattice(),
        S.dual_lattice(),
        S.lp_sum(1),
        S.lp_sum(2.5),
        S.partition([[0], [1, 2]]),
        S.weak_summing(1),
        S.weak_summing(1.5),
        S.weak_summing(2),
        S.weak_summing(INF),
        S.generated(fam),
        S.extended(S.lattice(), [np.eye(3), np.ones((3, 3)) / 3]),
        S.extended(S.weak_summing(1), [np.eye(3), np.diag([1.0, -1.0, 0.5])]),
    ]
    if sp.p == 1:
        specs.append(S.max_spec())
    if sp.p != INF:
        specs += [S.standard_q(sp.p), S.standard_q(sp.p + 1)]
    return specs


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, INF])
def test_bases_with_a_ceiling_dominate_the_minimum_multinorm(field, r):
    # sum_j ||lambda_j|| bounds the numerical dual only where N(x) >= max_j ||x_j||
    sp = SpaceSpec(r, 3, (1.0, 2.0, 0.5), field)
    rng = np.random.default_rng([int(min(r, 9) * 10), field == "complex"])
    seen = 0
    for spec in _dominating_specs(sp):
        assert _dominates_min(spec), spec.variant
        for n in (1, 2, 3):
            fn = exact_evaluator(spec, sp, n, CFG)
            if fn is None:
                continue
            seen += 1
            X = field_normal(rng, (16, 3, n), sp.is_complex) * rng.uniform(0.01, 10.0, (16, 1, n))
            assert np.all(fn(X) >= sp.norm_cols(X).max(axis=-1) * (1 - 1e-14)), (spec.variant, n)
    assert seen >= 30
    # bases off the list, which have no exact path anyway, get no ceiling
    for spec in (S.pq_spec(1, 2), S.hilbert(), S.numerical_dual(S.min_spec()), S.extended(S.pq_spec(1, 2), [np.eye(3)])):
        assert not _dominates_min(spec)


def _same_witness(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_witness(a[k], b[k]) for k in a)
    return (a is None and b is None) or np.array_equal(a, b)


def test_no_lower_bound_falls(monkeypatch):
    # each result against the same call with the exit switched off: the lower bound never falls (an exact value is
    # the proven bound, which a climb passes by rounding only), the upper never rises, and a kind changes only to exact
    cases = list(_cases())
    new = [mn.evaluate(spec, VectorTuple(X, sp), CFG) for sp, spec, X in cases]
    _without_exit(monkeypatch)
    old = [mn.evaluate(spec, VectorTuple(X, sp), CFG) for sp, spec, X in cases]
    exact = 0
    for (sp, spec, X), a, b in zip(cases, old, new):
        assert a.kind != "exact"
        assert b.upper <= a.upper
        assert b.method == a.method
        if b.kind == "exact":
            exact += 1
            assert b.lower >= a.lower or a.lower <= b.upper * (1 + 4 * np.finfo(float).eps), (spec.to_json(), a, b)
        else:
            assert (b.kind, b.lower, b.upper) == (a.kind, a.lower, a.upper)
            assert _same_witness(b.witness, a.witness)
    assert 0 < exact < len(cases)

