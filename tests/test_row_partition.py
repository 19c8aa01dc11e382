"""The row-partition closed form of p_n from the minimum multi-norm into a lattice one.

summing._row_partition_levels gives each level n a certified upper bound,
the max over partitions of the rows into at most n groups of
sum_G N(G)^r, and a witness tuple that attains the same maximum taken
over the groups' lower sides.  It is checked against dense ascents over
the tuples themselves, and through the three callers: mb_norm's levels,
mb_tuple_norm and rate_of_growth.
"""

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MultiNormSpec as S, OptimConfig, SpaceSpec
from multinorm import operators, summing
from multinorm.multinorms import point_evaluator
from multinorm.optim import field_normal, meets, seeded_ascent, unconstrained
from multinorm.summing import _row_partition_levels, _scaled_score

CFG = OptimConfig(seed=7, restarts=2)
DENSE = OptimConfig(seed=7, restarts=64)
WEIGHTS = ((), (0.5, 2.0, 1.25))
EXACT_RS = (1.0, 2.0, INF)  # every slice has an exact (r -> r) rule: closed forms and real sign enumerations


def _score(Ts, sp):
    """The level objective of mb_tuple_norm (mb_norm's for one operator): the lattice norm of (T_i x_j) over max_j ||x_j||."""
    return _scaled_score(
        point_evaluator(S.min_spec(), sp, CFG),
        lambda C, s: np.concatenate([T @ C / s for T in Ts], axis=-1),
        point_evaluator(S.lattice(), sp, CFG),
    )


@pytest.mark.parametrize("r", (1.0, 1.5, 2.0, 3.0, INF))
@pytest.mark.parametrize("field", ("real", "complex"))
def test_no_dense_search_passes_the_upper_bound(r, field):
    # dense searches over the tuples (64 restarts, the witness among the seeds) stay under every level's bound, and
    # the witness, valued as the callers value it, lies between the search's reach and the bound; where every slice
    # has an exact rule the witness meets the bound, which is then the level's value
    rng = np.random.default_rng([int(r) if r < INF else 9, field == "complex"])
    for weights in WEIGHTS:
        sp = SpaceSpec(r, 3, weights, field)
        for ops in (1, 2, 3):
            Ts = [field_normal(rng, (3, 3), sp.is_complex) for _ in range(ops)]
            score = _score(Ts, sp)
            for n, (W, upper) in enumerate(_row_partition_levels(Ts, sp, sp, 3, CFG), start=1):
                assert W.shape == (3, n) and sp.norm_cols(W).max() <= 1 + 1e-12
                found = float(score(W[None])[0])
                assert found <= upper * (1 + 1e-12)
                if r in EXACT_RS or n == 3:  # three singleton rows are exact at every r
                    assert meets(found, upper), (r, field, weights, ops, n)
                if ops == 3 and n == 1:
                    continue  # the same bound as n = 1 with one and two operators, at three times the cost
                searched, _ = seeded_ascent(unconstrained, score, [W], (3, n), DENSE, sp.is_complex)
                assert searched <= upper * (1 + 1e-12), (r, field, weights, ops, n, searched, upper)


@pytest.mark.parametrize("r", (1.0, 1.5, 2.0, 3.0, INF))
@pytest.mark.parametrize("field", ("real", "complex"))
def test_identity_and_permutations_give_min_n_m(r, field):
    # a coordinate permutation is an isometry only without weights
    for weights, ops in zip(WEIGHTS, ([np.eye(3), np.eye(3)[[2, 0, 1]]], [np.eye(3)])):
        sp = SpaceSpec(r, 3, weights, field)
        for T in ops:
            levels = _row_partition_levels([T], sp, sp, 5, CFG)
            score = _score([T], sp)
            for n, (W, upper) in enumerate(levels, start=1):
                want = 1.0 if r == INF else min(n, 3) ** (1.0 / r)
                assert upper == pytest.approx(want, rel=1e-15)
                assert meets(float(score(W[None])[0]), upper)


@pytest.mark.parametrize("r", (1.0, 1.5, 2.0, 3.0))
@pytest.mark.parametrize("field", ("real", "complex"))
def test_levels_do_not_depend_on_the_block_size(r, field, monkeypatch):
    # the slices go through _op_norm_exact GRID_BLOCK at a time; each stacked slice gets what it gets alone, so any
    # blocking gives the same bounds and witnesses bit for bit
    sp = SpaceSpec(r, 3, (0.5, 2.0, 1.25), field)
    Ts = [field_normal(np.random.default_rng(int(2 * r)), (3, 3), sp.is_complex) for _ in range(2)]
    whole = _row_partition_levels(Ts, sp, sp, 3, CFG)
    monkeypatch.setattr(summing, "GRID_BLOCK", 5)
    for (W, upper), (V, bound) in zip(whole, _row_partition_levels(Ts, sp, sp, 3, CFG)):
        assert upper == bound and np.array_equal(W, V)


def test_past_the_budget_the_helper_returns_nothing():
    sp = SpaceSpec(2.0, 3)
    T = np.random.default_rng(2).standard_normal((3, 3))
    # one operator on three rows: 2^3 - 1 = 7 slices and (3^3 - 1)/2 = 13 splits; two operators: 3^3 - 1 = 26 slices
    assert _row_partition_levels([T], sp, sp, 2, OptimConfig(max_enum=13)) is not None
    assert _row_partition_levels([T], sp, sp, 2, OptimConfig(max_enum=12)) is None
    assert _row_partition_levels([T, T], sp, sp, 2, OptimConfig(max_enum=25)) is None
    # a genuinely complex operator on a real source: the kernel's norms are not its real-input norms
    assert _row_partition_levels([T + 1j * np.eye(3)], sp, SpaceSpec(2.0, 3, (), "complex"), 2, CFG) is None
    # and the callers climb as before
    small = OptimConfig(seed=7, restarts=2, max_enum=12)
    assert mn.mb_tuple_norm([T], sp, S.min_spec(), sp, S.lattice(), 2, small).kind == "lower"
    assert mn.rate_of_growth(S.lattice(), sp, 2, small).method == "unit_tuple_ascent"


@pytest.mark.parametrize("r", (1.0, 1.5, 2.0, 3.0))
def test_identity_sup_stays_lower_past_the_dimension(r):
    # p_n(I) = min(n, 3)^(1/r) on l^r_3: each level meets its row-partition cap and runs no ascent, but the sup keeps
    # its kind rule (exact only when every level met n ||T|| or a uniform bound), so at n_max = 4 it stays a lower bound
    sp = SpaceSpec(r, 3)
    res = mn.mb_norm(np.eye(3), sp, S.min_spec(), sp, S.lattice(), 4, CFG)
    assert (res.sup_estimate.kind, res.sup_estimate.method) == ("lower", "truncated_at_n=4")
    assert res.p_seq == pytest.approx([min(n, 3) ** (1.0 / r) for n in range(1, 5)], rel=1e-15)
    assert res.sup_estimate.lower == pytest.approx(3 ** (1.0 / r), rel=1e-15)


def test_closed_levels_run_no_ascent(monkeypatch):
    ran = []
    real = operators.seeded_ascent
    monkeypatch.setattr(operators, "seeded_ascent", lambda *a, **k: ran.append(a[3]) or real(*a, **k))
    rng = np.random.default_rng(5)
    for r in (1.0, 2.0):
        sp = SpaceSpec(r, 3, (0.5, 2.0, 1.25))
        T = rng.standard_normal((3, 3))
        res = mn.mb_norm(T, sp, S.min_spec(), sp, S.lattice(), 3, CFG)
        bounds = [upper for _, upper in _row_partition_levels([T], sp, sp, 3, CFG)]
        assert res.p_seq == [min(b, n * res.p_seq[0]) for n, b in enumerate(bounds, start=1)]
        Ts = [rng.standard_normal((3, 3)) for _ in range(2)]
        tup = mn.mb_tuple_norm(Ts, sp, S.min_spec(), sp, S.lattice(), 2, CFG)
        assert (tup.kind, tup.method, tup.lower) == ("exact", "row_partition", _row_partition_levels(Ts, sp, sp, 2, CFG)[-1][1])
    assert ran == []
    # at r = 3 the Holder bound of a dense slice is not met: the tuple norm is a bracket at the row-partition bound,
    # and still nothing climbs (the slices' lower sides come from the power iteration)
    sp = SpaceSpec(3.0, 3)
    tup = mn.mb_tuple_norm(Ts, sp, S.min_spec(), sp, S.lattice(), 2, CFG)
    assert tup.kind == "bracket" and tup.upper == _row_partition_levels(Ts, sp, sp, 2, CFG)[-1][1]
    assert ran == []


@pytest.mark.parametrize("field", ("real", "complex"))
def test_rate_of_growth_of_lattice_and_extended(field):
    for r in (1.0, 1.5, 2.0, 3.0, INF):
        sp = SpaceSpec(r, 3, (0.5, 2.0, 1.25), field)
        for n in (2, 3, 5):  # above the dimension too
            res = mn.rate_of_growth(S.lattice(), sp, n, CFG)
            assert (res.kind, res.method) == ("exact", "row_partition")
            assert res.lower == pytest.approx(1.0 if r == INF else min(n, 3) ** (1.0 / r), rel=1e-15)
        # coordinate permutations and signs are isometries without weights, so phi_n is the lattice's
        flat = SpaceSpec(r, 3, (), field)
        ops = [np.eye(3), np.eye(3)[[1, 2, 0]], np.diag([1.0, -1.0, 1.0])]
        res = mn.rate_of_growth(S.extended(S.lattice(), ops), flat, 2, CFG)
        assert (res.kind, res.method) == ("exact", "row_partition")
        assert res.lower == pytest.approx(1.0 if r == INF else 2 ** (1.0 / r), rel=1e-15)
