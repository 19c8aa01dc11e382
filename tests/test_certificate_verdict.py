"""One certificate verdict: NormValue.certified turns a search's witness value and proven bound into a result.

Every search-backed entry point reports through it, so across all of them
no bracket has a lower side that meets its upper one (optim.meets), the
lower side never passes the upper one, and kind lower appears exactly
where the upper bound is infinite.  Rank-one operators, whose power
ascent meets the Holder bound, are exact.  Two fixes ride along: the
summing constant of the identity is at least 1 through a padded unit
vector, and c_2 of real l^1(w) is exact at 1 through the pair-sum tuple.
"""

import math

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MatrixOp, MultiNormSpec as S, OptimConfig, SpaceSpec, VectorTuple
from multinorm.optim import NormValue, field_normal, meets

FIELDS = ("real", "complex")
SEEDS = (1, 7919)
PAIR_SUMS = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])


def _cfg(seed, **kw):
    return OptimConfig(**{"seed": seed, "restarts": 2, "grid_points": 16, **kw})


def _rank_one(rng, m, n, is_complex):
    return np.outer(field_normal(rng, m, is_complex), rng.standard_normal(n))


def _assert_verdict(res: NormValue, where):
    assert res.lower <= res.upper, where
    assert (res.kind == "lower") == (res.upper == INF), where
    assert res.kind != "bracket" or not meets(res.lower, res.upper), where


def test_certified_states_the_rule():
    assert NormValue.certified(-INF, 2.0) == NormValue.bracket(0.0, 2.0)
    assert NormValue.certified(-INF, INF, None, "m") == NormValue.lower_bound(0.0, None, "m")
    assert NormValue.certified(1.5, INF, "w", "m") == NormValue.lower_bound(1.5, "w", "m")
    assert NormValue.certified(2.0 * (1 - 1e-10), 2.0, "w", "m") == NormValue.exact(2.0, "w", "m")
    assert NormValue.certified(0.0, 0.0).kind == "exact"
    assert NormValue.certified(1.0, 2.0, "w", "m") == NormValue.bracket(1.0, 2.0, "w", "m")
    # a witness value a rounding above the bound is clipped under it
    assert NormValue.certified(2.5, 2.0) == NormValue.exact(2.0)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("p, q", [(1.5, 3), (3, 1.5), (1.5, 1.5), (3, 3)])
def test_rank_one_op_norm_is_exact(field, p, q):
    # the power ascent meets the Holder bound on a rank-one matrix; a bracket closed to the last bit was reported
    rng = np.random.default_rng([5, field == "complex", int(10 * p), int(10 * q)])
    for m, n in ((3, 3), (2, 4)):
        res = mn.op_norm_pq(MatrixOp(_rank_one(rng, m, n, field == "complex"), p, q), _cfg(1))
        assert (res.kind, res.method) == ("exact", "power_ascent")
        assert res.lower == res.upper


@pytest.mark.parametrize("field", FIELDS)
def test_rank_one_mu_weak_is_exact(field):
    rng = np.random.default_rng([6, field == "complex"])
    space = SpaceSpec(3, 3, (), field)
    for n in (2, 3):
        res = mn.mu_weak(1.5, VectorTuple(_rank_one(rng, 3, n, space.is_complex), space), _cfg(1))
        assert (res.kind, res.method) == ("exact", "op_norm_power_ascent")


def _evaluate_cases(seed):
    rng = np.random.default_rng([11, seed])
    cfg, small = _cfg(seed), _cfg(seed, max_enum=4)  # small: below standard_q's and complex mu_1's budgets
    for field in FIELDS:
        for r in (1.0, 1.5, 2.0, 3.0):
            sp = SpaceSpec(r, 3, (0.5, 2.0, 1.25) if r == 1.5 else (), field)
            for X in (field_normal(rng, (3, 3), sp.is_complex), _rank_one(rng, 3, 2, sp.is_complex)):
                yield S.pq_spec(1, 2), sp, X, cfg
                yield S.pq_spec(1.5, 3), sp, X, cfg
                yield S.pq_spec(2, 2), sp, X, cfg
                yield S.max_spec(), sp, X, cfg
                yield S.standard_q(3), sp, X, small
                yield S.weak_summing(1), sp, X, small
                yield S.weak_summing(1.5), sp, X, cfg
                yield S.extended(S.pq_spec(1, 2), [np.eye(3), PAIR_SUMS]), sp, X, cfg
                if r == 2.0:
                    yield S.hilbert(), sp, X, cfg
            L = field_normal(rng, (3, 2), sp.is_complex)
            yield S.numerical_dual(S.max_spec()), sp, L, small
            for base in (S.pq_spec(1, 2), S.extended(S.lattice(), [np.eye(3), PAIR_SUMS])):
                yield S.numerical_dual(base), sp, L, small


def _operator_cases(seed):
    rng = np.random.default_rng([12, seed])
    for field in FIELDS:
        for p, q in ((1.5, 3), (3, 1.5), (2, 3), (INF, 2)):
            yield MatrixOp(field_normal(rng, (3, 3), field == "complex"), p, q)
            yield MatrixOp(_rank_one(rng, 3, 3, field == "complex"), p, q)


def _battery(entry, seed):
    """(label, NormValue) of one entry point's seeded cases."""
    cfg = _cfg(seed)
    rng = np.random.default_rng([13, seed])
    if entry == "evaluate":
        for spec, sp, X, c in _evaluate_cases(seed):
            yield (spec.to_json(), sp.to_json()), mn.evaluate(spec, VectorTuple(X, sp), c)
    elif entry == "op_norm_pq":
        for a in _operator_cases(seed):
            yield (a.in_index, a.out_index), mn.op_norm_pq(a, cfg)
    elif entry == "mu_weak":
        for field in FIELDS:
            for r in (1.5, 3.0):
                sp = SpaceSpec(r, 3, (), field)
                for X in (field_normal(rng, (3, 3), sp.is_complex), _rank_one(rng, 3, 3, sp.is_complex)):
                    for p in (1, 1.5, 3):
                        yield (field, r, p), mn.mu_weak(p, VectorTuple(X, sp), _cfg(seed, max_enum=4))
    elif entry == "pi_summing":
        for field in FIELDS:
            for r in (1.5, 2.0, INF):
                sp = SpaceSpec(r, 3, (), field)
                T = field_normal(rng, (3, 3), sp.is_complex)
                for q, p in ((1, 1), (2, 1), (2, 1.5), (3, 2)):
                    yield (field, r, q, p), mn.pi_summing(q, p, sp, 3, cfg)
                    yield (field, r, q, p, "T"), mn.pi_summing(q, p, sp, 2, cfg, operator=T)
    elif entry == "c_n":
        for field in FIELDS:
            for r in (1.0, 1.5, 2.0, 3.0):
                for n in (2, 3):
                    yield (field, r, n), mn.c_n(SpaceSpec(r, 3, (), field), n, cfg)
    elif entry in ("mb_norm", "mb_tuple_norm"):
        pairs = [(S.min_spec(), S.lattice()), (S.lattice(), S.lattice()), (S.min_spec(), S.min_spec()), (S.lattice(), S.dual_lattice())]
        for field in FIELDS:
            for r in (1.5, 2.0):
                sp = SpaceSpec(r, 3, (), field)
                Ts = [field_normal(rng, (3, 3), sp.is_complex), _rank_one(rng, 3, 3, sp.is_complex)]
                for src, tgt in pairs:
                    if entry == "mb_norm":
                        for T in Ts:
                            yield (field, r, src.variant, tgt.variant), mn.mb_norm(T, sp, src, sp, tgt, 2, cfg).sup_estimate
                    else:
                        yield (field, r, src.variant, tgt.variant), mn.mb_tuple_norm(Ts, sp, src, sp, tgt, 2, cfg)
    elif entry == "rate_of_growth":
        # the row-partition exit, its certified tail, and the climb with no bound (the (p,q) climbs take seconds)
        specs = [S.lattice(), S.extended(S.lattice(), [np.eye(3), PAIR_SUMS]), S.partition([[0, 1], [2]])]
        for field in FIELDS:
            for r in (1.5, 3.0):
                sp = SpaceSpec(r, 3, (), field)
                for spec in specs:
                    yield (field, r, spec.variant), mn.rate_of_growth(spec, sp, 2, _cfg(seed, grid_points=8))


ENTRIES = ("evaluate", "op_norm_pq", "mu_weak", "pi_summing", "c_n", "mb_norm", "mb_tuple_norm", "rate_of_growth")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_search_backed_result_obeys_the_verdict(entry, seed):
    kinds = set()
    for where, res in _battery(entry, seed):
        _assert_verdict(res, (entry, where))
        kinds.add(res.kind)
    assert "exact" in kinds or entry == "rate_of_growth"


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("space_p, n", [(2, 4), (1.5, 3)])
def test_summing_constant_of_the_identity_is_at_least_one(field, space_p, n):
    # a unit vector padded with zeros has mu_p = 1 and value 1; the two-restart climb alone read 0.998
    # (real l^2_3, n = 4, pi_{2,1.5}) and 0.940 (complex l^1.5_3, n = 3, pi_{2,1})
    space = SpaceSpec(space_p, 3, (), field)
    for q, p in ((2, 1.5), (2, 1)):
        res = mn.pi_summing(q, p, space, n, OptimConfig(seed=3, restarts=2))
        assert res.lower >= 1.0
        X = res.witness["tuple"]
        assert mn.mu_weak(p, VectorTuple(X, space), OptimConfig()).upper <= 1.0 + 1e-12


@pytest.mark.parametrize("weights", [(), (0.5, 1.0, 2.0)])
def test_c_2_of_real_l1_is_exact_at_one(weights):
    # ((u1 + u2)/2, (u1 - u2)/2), u_k = e_k / w_k, has unit columns and mu_1 = 1; the descent stopped at [1, 1.000074]
    space = SpaceSpec(1, 3, weights)
    res = mn.c_n(space, 2, OptimConfig(seed=3))
    assert (res.kind, res.lower, res.method) == ("exact", 1.0, "pair_sum_tuple_meets_lower_bound")
    X = res.witness["tuple"]
    assert np.allclose(space.norm_cols(X), 1.0, rtol=1e-15)
    assert mn.mu_weak(1, VectorTuple(X, space), OptimConfig()).lower == pytest.approx(1.0, rel=1e-15)


def test_c_2_of_complex_l1_keeps_the_descent():
    # over C the pair-sum tuple has mu_1 = sqrt(2), so it proves nothing
    res = mn.c_n(SpaceSpec(1, 3, (), "complex"), 2, OptimConfig(seed=3))
    assert res.method == "unit_tuple_descent" and res.lower == 1.0
    X = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]]) / 2
    assert mn.mu_weak(1, VectorTuple(X.astype(complex), SpaceSpec(1, 3, (), "complex")), OptimConfig()).upper >= math.sqrt(2) * (1 - 1e-9)
