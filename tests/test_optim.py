import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MatrixOp, OptimConfig, SpaceSpec
from multinorm.optim import _power_ascent, field_normal, lp_norm
from multinorm.partitions import GRID_BLOCK, set_partitions, unit_grid
from multinorm.spaces import delta_tuple, roots_tuple


CFG = OptimConfig(seed=99)


def test_sign_supremum_examples():
    res = mn.sign_supremum(lambda E: np.abs(E[:, 0] + E[:, 1]), 2, CFG)
    assert res.kind == "exact" and res.lower == pytest.approx(2.0)
    assert np.array_equal(res.witness, [1, 1]) or np.array_equal(res.witness, [-1, -1])

    s = SpaceSpec(2, 2)
    res = mn.sign_supremum(lambda E: s.norm_cols(np.outer([1, 0], E[:, 0]) + np.outer([0, 1], E[:, 1])), 2, CFG)
    assert res.lower == pytest.approx(math.sqrt(2))

    res = mn.sign_supremum(lambda E: np.abs(E[:, 0] - E[:, 1]), 2, CFG)
    assert res.lower == pytest.approx(2.0)
    assert res.witness[0] * res.witness[1] == -1


def test_sign_supremum_budget():
    with pytest.raises(mn.BudgetError):
        mn.sign_supremum(lambda E: np.zeros(len(E)), 25, OptimConfig(max_enum=2**20))


def test_torus_supremum_examples():
    res = mn.torus_supremum(lambda Z: np.abs(Z[:, 0] + Z[:, 1]), 2, CFG)
    assert res.lower == pytest.approx(2.0, abs=1e-9)
    res = mn.torus_supremum(lambda Z: np.maximum(np.abs(Z[:, 0]), np.abs(Z[:, 1])), 2, CFG)
    assert res.lower == pytest.approx(1.0, abs=1e-9)
    res = mn.torus_supremum(lambda Z: np.abs(Z[:, 0] + 1j * Z[:, 1]), 2, CFG)
    assert res.lower == pytest.approx(2.0, abs=1e-9)
    res = mn.torus_supremum(lambda Z: np.abs(Z[:, 0]), 1, CFG)
    assert res.kind == "exact"


def test_torus_supremum_budget():
    # 2^(n-1) signs over R, grid_points^(n-1) phases over C, against max_enum = 64
    small = OptimConfig(max_enum=64, grid_points=8)
    f = lambda Z: np.abs(Z.sum(axis=1))
    assert mn.torus_supremum(f, 7, small, field="real").kind == "exact"
    assert mn.torus_supremum(f, 3, small).lower == pytest.approx(3.0)
    for n, field in ((8, "real"), (4, "complex")):
        with pytest.raises(mn.BudgetError):
            mn.torus_supremum(f, n, small, field=field)


def test_torus_matches_signs_on_real_field():
    rng = np.random.default_rng(17)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        space = SpaceSpec(p, m)
        X = rng.standard_normal((m, n))
        f = lambda Z: space.norm_cols(X @ np.real(Z).T)
        sign = mn.sign_supremum(f, n, CFG, symmetric=True)
        torus = mn.torus_supremum(f, n, CFG, field="real")
        assert torus.lower == pytest.approx(sign.lower, abs=1e-9)


def test_ball_linear_max_examples():
    res = mn.ball_linear_max(lambda P: np.linalg.norm(P, axis=-1), lambda P: P[:, 0], (2,), CFG)
    assert res.lower == pytest.approx(1.0, abs=1e-6)
    res = mn.ball_linear_max(lambda P: np.abs(P).sum(axis=-1), lambda P: P[:, 0] + P[:, 1], (2,), CFG)
    assert res.lower == pytest.approx(1.0, abs=1e-6)
    res = mn.ball_linear_max(lambda P: np.abs(P).max(axis=-1), lambda P: P[:, 0] + P[:, 1], (2,), CFG)
    assert res.lower == pytest.approx(2.0, abs=1e-6)


def test_op_norm_examples():
    res = mn.op_norm_pq(MatrixOp([[1, 1], [1, -1]], 2, 2), CFG)
    assert res.kind == "exact" and res.lower == pytest.approx(math.sqrt(2))
    res = mn.op_norm_pq(MatrixOp([[1, 1], [0, 0]], INF, INF), CFG)
    assert res.lower == pytest.approx(2.0)
    res = mn.op_norm_pq(MatrixOp(np.eye(2), 1, 2), CFG)
    assert res.kind == "exact" and res.lower == pytest.approx(1.0)


def test_op_norm_bracket_roles():
    rng = np.random.default_rng(23)
    for _ in range(20):
        A = rng.standard_normal((3, 3))
        res = mn.op_norm_pq(MatrixOp(A, 1.5, 2.5), CFG)
        assert res.kind == "bracket"
        assert res.lower <= res.upper + 1e-12
        x = res.witness
        attained = lp_norm(A @ x, 2.5) / lp_norm(x, 1.5)
        assert attained == pytest.approx(res.lower, rel=1e-9)


def test_op_norm_sign_enumerations_at_budget_edge():
    # a 3x3 real matrix visits 2^(3-1) = 4 pinned sign vectors, exactly max_enum
    cfg = OptimConfig(max_enum=4)
    A = np.random.default_rng(0).standard_normal((3, 3))
    res = mn.op_norm_pq(MatrixOp(A, INF, 2), cfg)
    assert res.kind == "exact" and res.method == "sign_enum_inputs"
    assert res.lower == pytest.approx(max(lp_norm(A @ np.array(e), 2) for e in itertools.product((1, -1), repeat=3)))
    res = mn.op_norm_pq(MatrixOp(A, 2, 1), cfg)
    assert res.kind == "exact" and res.method == "sign_enum_outputs"
    assert res.lower == pytest.approx(max(lp_norm(A.T @ np.array(s), 2) for s in itertools.product((1, -1), repeat=3)))
    assert mn.op_norm_pq(MatrixOp(A, INF, 2), OptimConfig(max_enum=3)).kind == "bracket"


def test_power_ascent_matches_svd():
    rng = np.random.default_rng(31)
    cfg = OptimConfig(seed=1, restarts=8)
    for _ in range(30):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A = rng.standard_normal((m, n))
        exact = float(np.linalg.svd(A, compute_uv=False)[0])
        lower, _ = _power_ascent(A, 2.0, 2.0, cfg, complex_field=False)
        assert lower <= exact + 1e-12
        assert exact - lower < 1e-6


def test_diagonal_like_exact_against_search():
    rng = np.random.default_rng(41)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        rows = rng.permutation(5)[:k]
        cols = rng.permutation(5)[:k]
        A = np.zeros((5, 5))
        d = rng.standard_normal(k)
        A[rows, cols] = d
        p, q = float(rng.choice([1.5, 2.0, 3.0, INF])), float(rng.choice([1.5, 2.0, 3.0]))
        res = mn.op_norm_pq(MatrixOp(A, p, q), CFG)
        assert res.kind == "exact"
        assert res.method in ("diagonal_like", "svd", "max_column_norm", "max_row_dual_norm")
        lower, _ = _power_ascent(A, p, q, OptimConfig(seed=5, restarts=8), complex_field=False)
        assert lower <= res.lower + 1e-9
        assert res.lower - lower < 1e-6
        if res.lower > 0:
            x = res.witness
            assert lp_norm(A @ x, q) / lp_norm(x, p) == pytest.approx(res.lower, rel=1e-9)


def test_determinism_same_seed():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 4))
    a = MatrixOp(A, 1.7, 2.3)
    r1 = mn.op_norm_pq(a, OptimConfig(seed=123))
    r2 = mn.op_norm_pq(a, OptimConfig(seed=123))
    assert r1.lower == r2.lower and r1.upper == r2.upper
    assert np.array_equal(r1.witness, r2.witness)
    res1 = mn.ball_linear_max(lambda P: np.linalg.norm(P, axis=-1), lambda P: P.sum(axis=-1), (3,), OptimConfig(seed=7))
    res2 = mn.ball_linear_max(lambda P: np.linalg.norm(P, axis=-1), lambda P: P.sum(axis=-1), (3,), OptimConfig(seed=7))
    assert res1.lower == res2.lower
    assert np.array_equal(res1.witness, res2.witness)


def test_degenerate_membership():
    with pytest.raises(mn.DegenerateNormError):
        mn.ball_linear_max(lambda P: np.zeros(len(P)), lambda P: np.ones(len(P)), (2,), CFG)


def test_torus_certified_upper():
    from multinorm.optim import torus_certified_upper

    space = SpaceSpec(1, 2, field="complex")
    X = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    g = lambda Z: space.norm_cols(X @ Z.T)
    up = torus_certified_upper(g, [space.norm(X[:, 1])], 2, CFG)
    target = 2 * math.sqrt(2)  # phase i aligns both coordinates
    assert up >= target - 1e-9
    assert up <= target + 0.1


def test_block_torus_upper_matches_scalar_loop():
    from multinorm.optim import torus_certified_upper

    rng = np.random.default_rng(17)
    cfg = OptimConfig(seed=3, restarts=2, grid_points=16)
    for r in (1.0, 1.5, 2.0, 3.0, INF):
        for n in (1, 2, 3, 4):
            weights = tuple(rng.uniform(0.5, 2.0, 3)) if n % 2 else ()
            space = SpaceSpec(r, 3, weights, "complex")
            X = field_normal(rng, (3, n), True)
            lip = space.norm_cols(X)[1:]
            # max_enum 2^14: n = 4 takes 25^3 points, four grid blocks
            small = replace(cfg, max_enum=2**14)
            block = torus_certified_upper(lambda Z: space.norm_cols(X @ Z.T), lip, n, small)
            scalar = torus_certified_upper(lambda Z: np.array([space.norm(X @ z) for z in Z]), lip, n, small)
            assert abs(block - scalar) <= 1e-12 * scalar
            found = mn.torus_supremum(lambda Z: space.norm_cols(X @ Z.T), n, cfg)
            # at n = 1 both sides are the one column's norm, from two summation orders
            assert block >= found.lower * (1 - 4 * np.finfo(float).eps)


def test_col_norms_match_lp_norm_reference():
    from multinorm.optim import _holder_upper
    from multinorm.spaces import conjugate_index

    rng = np.random.default_rng(29)
    for _ in range(60):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        A = field_normal(rng, (m, n), bool(rng.integers(2)))
        for r in (1.0, 1.5, 2.0, 3.0, INF):
            assert lp_norm(A, r, axis=-2).tolist() == [lp_norm(A[:, j], r) for j in range(n)]
            assert lp_norm(A.T, r, axis=-2).tolist() == [lp_norm(A[i, :], r) for i in range(m)]
        for p, q in ((1.5, 2.5), (3.0, 1.5), (2.0, 3.0)):
            pp = conjugate_index(p)
            col = np.array([lp_norm(A[:, j], q) for j in range(n)])
            row = np.array([lp_norm(A[i, :], pp) for i in range(m)])
            assert _holder_upper(A, p, q) == min(lp_norm(col, pp), lp_norm(row, q))
        for q in (1.0, 1.5, 2.0, 3.0, INF):
            assert mn.op_norm_pq(MatrixOp(A, 1, q), CFG).lower == max(lp_norm(A[:, j], q) for j in range(n))
        for p in (1.5, 2.0, 3.0, INF):
            pp = conjugate_index(p)
            assert mn.op_norm_pq(MatrixOp(A, p, INF), CFG).lower == max(lp_norm(A[i, :], pp) for i in range(m))


def test_norm_value_validation():
    with pytest.raises(ValueError):
        mn.NormValue("bracket", 2.0, 1.0, None, "bad")
    nv = mn.NormValue.lower_bound(1.0, np.array([1.0, 2.0]), "m")
    doc = nv.to_json()
    assert doc["upper"] is None and doc["witness"] == [1.0, 2.0]
    # a NaN bound and an exact infinity are no certificates
    for kind, lower, upper in (("exact", math.nan, math.nan), ("bracket", math.nan, 1.0), ("lower", 1.0, math.nan), ("exact", INF, INF), ("exact", -INF, -INF)):
        with pytest.raises(mn.DegenerateNormError):
            mn.NormValue(kind, lower, upper, None, "m")
    assert mn.NormValue("bracket", 1.0, INF, None, "m").upper == INF


def test_overflowing_norms_raise_instead_of_certifying():
    # ||(1e308, 1e308)|| = 1.41e308 is finite, but the norms below overflow on the way: max's closed form gave an exact
    # NaN and the others an exact inf; each now raises the error the command line maps to exit 2
    t = mn.VectorTuple(np.array([[1e308], [1e308]]), SpaceSpec(2.0, 2))
    S = mn.MultiNormSpec
    for spec in (S.max_spec(), S.min_spec(), S.lattice(), S.pq_spec(2, 2), S.weak_summing(1)):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(mn.DegenerateNormError):
            mn.evaluate(spec, t, CFG)


# ---------------------------------------------------------------------------
# shared grid kernel and seed builders


@pytest.mark.parametrize("levels", [2, 3, 8, 16])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unit_grid_is_pinned_product(levels, n):
    blocks = list(unit_grid(n, levels, 10**6))
    assert len(blocks) == 1 and not blocks[0].flags.writeable
    roots = np.exp(2j * np.pi * np.arange(levels) / levels) if levels > 2 else np.array([1.0, -1.0])
    expected = np.array([(1.0,) + z for z in itertools.product(roots, repeat=n - 1)])
    assert blocks[0].dtype == (float if levels == 2 else complex)
    assert np.array_equal(blocks[0], expected)  # same rows in the same order, last coordinate fastest


def test_unit_grid_budget():
    with pytest.raises(mn.BudgetError):
        unit_grid(4, 8, 8**3 - 1)
    assert sum(len(b) for b in unit_grid(4, 8, 8**3)) == 8**3


def test_unit_grid_blocks_join_to_product():
    blocks = list(unit_grid(4, 20, 10**6))  # 8000 rows: more than one block
    assert len(blocks) == 2 and all(len(b) <= GRID_BLOCK for b in blocks)
    roots = np.exp(2j * np.pi * np.arange(20) / 20)
    expected = np.array([(1.0,) + z for z in itertools.product(roots, repeat=3)])
    assert np.array_equal(np.concatenate(blocks), expected)


def _frozen_set_partitions(k):
    """The restricted-growth-string loop set_partitions replaced."""
    a = [0] * k
    b = [1] * k  # b[i] = 1 + max(a[:i])

    def emit():
        blocks = [[] for _ in range(max(a) + 1)]
        for i, bi in enumerate(a):
            blocks[bi].append(i)
        return blocks

    if k == 0:
        yield []
        return
    pos = k - 1
    yield emit()
    while True:
        while pos > 0 and a[pos] >= b[pos]:
            a[pos] = 0
            pos -= 1
        if pos == 0:
            return
        a[pos] += 1
        for i in range(pos + 1, k):
            a[i] = 0
            b[i] = max(b[pos], a[pos] + 1)
        pos = k - 1
        yield emit()


@pytest.mark.parametrize("k", range(10))
def test_set_partitions_match_the_frozen_loop(k):
    got = list(set_partitions(k))
    assert got == list(_frozen_set_partitions(k))
    assert len(got) == [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147][k]  # the Bell numbers
    # every partition is its own lists: changing one leaves the rest alone
    if k:
        got[0][0].append(-1)
        assert all(-1 not in b for p in got[1:] for b in p)


def test_set_partitions_budget_is_checked_on_first_use():
    parts = set_partitions(13)  # a generator: nothing runs yet
    with pytest.raises(mn.BudgetError, match="capped at 12"):
        next(parts)


def test_sign_supremum_visits_every_sign_vector():
    def recorder(seen):
        return lambda E: seen.extend(map(tuple, E)) or np.zeros(len(E))

    for n in range(1, 6):
        seen = []
        mn.sign_supremum(recorder(seen), n, CFG)
        assert sorted(seen) == sorted(itertools.product([1.0, -1.0], repeat=n))
        seen.clear()
        mn.sign_supremum(recorder(seen), n, CFG, symmetric=True)
        assert sorted(seen) == sorted((1.0,) + s for s in itertools.product([1.0, -1.0], repeat=n - 1))


def test_sign_supremum_calls_f_once_per_grid_block():
    calls = []
    res = mn.sign_supremum(lambda E: calls.append(E.shape) or np.abs(E.sum(axis=1)), 5, CFG)
    assert calls == [(32, 5)]
    assert res.lower == 5.0 and np.array_equal(res.witness, np.ones(5))


def test_real_weak_summing_1_is_sign_supremum():
    rng = np.random.default_rng(3)
    spec = mn.MultiNormSpec.weak_summing(1)
    for _ in range(50):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        space = SpaceSpec(float(rng.choice([1.0, 1.5, 2.0, 3.0])), m, tuple(rng.uniform(0.5, 2.0, m)))
        X = rng.standard_normal((m, n))
        res = mn.evaluate(spec, mn.VectorTuple(X, space), CFG)
        ref = mn.sign_supremum(lambda E: space.norm_cols(X @ E.T), n, CFG)
        assert res.kind == "exact"
        assert res.lower == pytest.approx(ref.lower, rel=1e-12)


def test_seed_builders():
    d = delta_tuple(3, 5, False)
    assert d.shape == (3, 5) and d.dtype == float
    assert np.array_equal(d, np.eye(3)[:, [0, 1, 2, 0, 1]])
    assert delta_tuple(2, 3, True).dtype == complex
    r = roots_tuple(4, 3, True)
    assert r.shape == (4, 3) and r.dtype == complex
    assert np.allclose(r[1, 2], np.exp(2j * np.pi * 6 / 3))
    assert np.allclose(np.abs(r), 1.0)
    rr = roots_tuple(4, 3, False)
    assert rr.dtype == float and np.array_equal(rr, r.real)


def test_field_normal_draw_order():
    a = field_normal(np.random.default_rng(8), (2, 3), True)
    rng = np.random.default_rng(8)
    re = rng.standard_normal((2, 3))
    assert np.array_equal(a, re + 1j * rng.standard_normal((2, 3)))
    assert np.array_equal(field_normal(np.random.default_rng(8), 4, False), np.random.default_rng(8).standard_normal(4))
