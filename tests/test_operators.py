import math

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MultiNormSpec as Spec, OptimConfig, SpaceSpec, VectorTuple, operators
from multinorm.cli import main
from multinorm.optim import meets, seeded_ascent, unconstrained
from multinorm.summing import op_norm_between

CFG = OptimConfig(seed=77)


def test_amplify():
    s = SpaceSpec(2, 2)
    t = VectorTuple.of(s, [1, 0], [0, 1])
    out = mn.amplify(np.eye(2), t, s)
    assert np.allclose(out.columns, t.columns)
    out = mn.amplify(np.zeros((2, 2)), t, s)
    assert np.abs(out.columns).max() == 0
    out = mn.amplify(np.diag([2.0, 1.0]), t, s)
    assert np.allclose(out.columns, [[2, 0], [0, 1]])
    with pytest.raises(mn.DimensionError):
        mn.amplify(np.eye(3), t, s)


def test_multi_bound():
    s = SpaceSpec(2, 2)
    t = VectorTuple.of(s, [1, 0], [0, 1])
    assert mn.multi_bound(Spec.min_spec(), t, CFG).lower == pytest.approx(1.0)
    s1 = SpaceSpec(1, 2)
    t1 = VectorTuple.of(s1, [1, 0], [0, 1])
    assert mn.multi_bound(Spec.lattice(), t1, CFG).lower == pytest.approx(2.0)
    single = VectorTuple.of(s, [3, 4])
    assert mn.multi_bound(Spec.lattice(), single, CFG).lower == pytest.approx(5.0)


def test_mb_norm_asymmetry():
    s = SpaceSpec(1, 4)
    I = np.eye(4)
    res = mn.mb_norm(I, s, Spec.lattice(), s, Spec.min_spec(), 4, CFG)
    assert res.sup_estimate.kind == "exact"
    assert res.p_seq == pytest.approx([1.0] * 4, abs=1e-10)

    res = mn.mb_norm(I, s, Spec.min_spec(), s, Spec.lattice(), 4, CFG)
    assert res.p_seq == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-9)
    assert res.monotone
    assert res.sup_estimate.lower == pytest.approx(4.0)


def test_mb_norm_single_level_is_operator_norm():
    rng = np.random.default_rng(3)
    s = SpaceSpec(2, 3)
    T = rng.standard_normal((3, 3))
    opn = mn.op_norm_pq(mn.MatrixOp(T, 2, 2), CFG).lower
    res = mn.mb_norm(T, s, Spec.lattice(), s, Spec.lattice(), 1, CFG)
    assert res.p_seq[0] == pytest.approx(opn, rel=2e-2)
    assert res.p_seq[0] <= opn + 1e-9


def test_mb_norm_rank_one():
    s = SpaceSpec(2, 3)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(3)
    lam = rng.standard_normal(3)
    T = np.outer(y, s.w * lam)  # x -> <x, lam> y
    target = s.norm(y) * s.dual().norm(lam)
    res = mn.mb_norm(T, s, Spec.lattice(), s, Spec.lattice(), 3, CFG)
    assert res.sup_estimate.lower <= target + 1e-9
    assert res.sup_estimate.lower >= target - 2e-2 * target
    # mb norm dominates the operator norm
    assert res.sup_estimate.lower >= mn.op_norm_pq(mn.MatrixOp(T, 2, 2), CFG).lower - 1e-9


def test_mb_tuple_norm():
    s = SpaceSpec(2, 3)
    rng = np.random.default_rng(9)
    T = rng.standard_normal((3, 3))
    single = mn.mb_tuple_norm([T], s, Spec.lattice(), s, Spec.lattice(), 2, CFG)
    full = mn.mb_norm(T, s, Spec.lattice(), s, Spec.lattice(), 2, CFG)
    assert single.lower == pytest.approx(full.sup_estimate.lower, rel=2e-2)

    # rank-one operators with minimum target collapse to max ||T_i||
    ys = [rng.standard_normal(3) for _ in range(3)]
    lam = rng.standard_normal(3)
    Ts = [np.outer(y, s.w * lam) for y in ys]
    res = mn.mb_tuple_norm(Ts, s, Spec.lattice(), s, Spec.min_spec(), 2, CFG)
    target = max(s.norm(y) for y in ys) * s.dual().norm(lam)
    assert res.kind == "exact"
    assert res.lower == pytest.approx(target, rel=1e-9)

    res = mn.mb_tuple_norm([np.zeros((3, 3))] * 2, s, Spec.lattice(), s, Spec.lattice(), 2, CFG)
    assert res.lower == pytest.approx(0.0, abs=1e-12)


def test_mb_tuple_norm_into_min_keeps_the_operator_norm_bracket():
    # with a minimum target the tuple norm is max_i ||T_i||; where that norm is a bracket (complex l^1.5 -> l^3 has no
    # exact rule), the result is the bracket [max lower, max upper], not a lower bound with upper inf
    T = np.random.default_rng(1).standard_normal((3, 3)) + 1j * np.random.default_rng(2).standard_normal((3, 3))
    source, target = SpaceSpec(1.5, 3, (), "complex"), SpaceSpec(3, 3, (), "complex")
    res = mn.mb_tuple_norm([T, T / 2], source, Spec.lattice(), target, Spec.min_spec(), 2, CFG)
    opn = op_norm_between(T, source, target, CFG)
    assert (res.kind, res.method, res.lower, res.upper) == ("bracket", "target_min_collapse", opn.lower, opn.upper)
    assert (round(res.lower, 5), round(res.upper, 5)) == (3.17995, 3.22715)


def test_partition_permutation_bound_examples():
    blocks = [[0], [1]]
    m_sigma, bound = mn.partition_permutation_bound(blocks, [0, 1], 1)
    assert (m_sigma, bound) == (1, 1.0)

    m_sigma, bound = mn.partition_permutation_bound(blocks, [1, 0], 1)
    assert (m_sigma, bound) == (1, 1.0)

    # blocks {0,1},{2},{3}; sigma maps 2->0, 3->1, {0,1}->{2,3}
    blocks = [[0, 1], [2], [3]]
    sigma = [2, 3, 0, 1]
    m_sigma, bound = mn.partition_permutation_bound(blocks, sigma, 1)
    assert m_sigma == 2 and bound == pytest.approx(2.0)


def test_partition_bound_matches_mb_norm():
    rng = np.random.default_rng(13)
    for p in (1, 2):
        for trial in range(4):
            m = 6 if trial < 2 else 8
            s = SpaceSpec(p, m)
            # random partition of 0..m-1
            labels = rng.integers(0, 3, size=m)
            blocks = [list(np.where(labels == b)[0]) for b in range(3) if np.any(labels == b)]
            sigma = list(rng.permutation(m))
            m_sigma, bound = mn.partition_permutation_bound(blocks, sigma, p)
            T = np.zeros((m, m))
            for k in range(m):
                T[k, sigma[k]] = 1.0  # (T f)(k) = f(sigma(k))
            spec = Spec.partition(blocks)
            res = mn.mb_norm(T, s, spec, s, spec, m_sigma + 1, CFG)
            assert res.sup_estimate.lower <= bound + 1e-9
            assert res.sup_estimate.lower >= bound - 2e-2 * bound


def test_monotone_p_seq():
    rng = np.random.default_rng(21)
    s = SpaceSpec(2, 3)
    for _ in range(3):
        T = rng.standard_normal((3, 3))
        res = mn.mb_norm(T, s, Spec.min_spec(), s, Spec.lattice(), 3, CFG)
        assert res.monotone


# ---------------------------------------------------------------------------
# uniform bounds on every level, and the seed-first exit


def _weighted(rng, r, m, field):
    return SpaceSpec(r, m, tuple(float(w) for w in rng.uniform(0.5, 2.0, m)), field)


def _ratio(src_norm, tgt_norm):
    """Stack objective tgt_norm(X) / src_norm(X) of the (B, m, n) tuples X, 0 where the source norm vanishes."""

    def value(X):
        s = src_norm(X)
        return np.where(s > 0, tgt_norm(X) / np.where(s > 0, s, 1.0), 0.0)

    return value


def _lattice_norm(sp):
    # || max_j |x_j| ||_{r,w}, in plain numpy
    return lambda X: (sp.w * np.abs(X).max(axis=-1) ** sp.p).sum(axis=-1) ** (1.0 / sp.p)


def _partition_norm(sp, blocks):
    # (sum over blocks b of max_j sum_{k in b} w_k |x_jk|^p)^(1/p), in plain numpy
    def norm(X):
        contrib = sp.w[:, None] * np.abs(X) ** sp.p
        return sum(contrib[..., list(b), :].sum(axis=-2).max(axis=-1) for b in blocks) ** (1.0 / sp.p)

    return norm


def _dense_levels(value, m, n_max, is_complex, seed):
    """Best values of a 64-restart ascent plus 4000 random tuples at every level n <= n_max."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, n_max + 1):
        val, _ = seeded_ascent(unconstrained, value, [], (m, n), OptimConfig(seed=seed + n, restarts=64), is_complex)
        X = rng.standard_normal((4000, m, n))
        if is_complex:
            X = X + 1j * rng.standard_normal((4000, m, n))
        out.append(max(val, float(value(X).max())))
    return out


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("r", [1.0, 1.5, 3.0])
def test_regular_norm_bounds_every_lattice_level(field, r):
    # |T x_j| <= |T| max_k |x_k| entrywise, so p_n(T) <= || |T| || for every n, on weighted and complex spaces
    rng = np.random.default_rng(int(10 * r) + (field == "complex"))
    sp = _weighted(rng, r, 3, field)
    T = rng.standard_normal((3, 3))
    if field == "complex":
        T = T + 1j * rng.standard_normal((3, 3))
    U = op_norm_between(np.abs(T), sp, sp, CFG).upper
    lattice = _lattice_norm(sp)
    dense = _dense_levels(_ratio(lattice, lambda X: lattice(T @ X)), 3, 3, field == "complex", 101)
    assert max(dense) <= U * (1 + 1e-12)
    assert dense[0] >= 0.99 * op_norm_between(T, sp, sp, CFG).lower  # the search is not idle

    res = mn.mb_norm(T, sp, Spec.lattice(), sp, Spec.lattice(), 3, CFG)
    assert max(res.p_seq) <= U * (1 + 1e-12)
    sup = res.sup_estimate
    assert sup.upper == U and sup.kind in ("bracket", "exact")
    if sup.kind == "bracket":
        assert sup.method == "truncated_at_n=3" and sup.lower == max(res.p_seq)
    else:
        assert sup.method.startswith("meets_uniform_bound_at_n=")


def _cyclic_permutation(rng, m):
    """A random sigma, the 0/1 matrix T with T[k, sigma[k]] = 1, and weights constant on sigma's cycles."""
    sigma = [int(k) for k in rng.permutation(m)]
    w, seen = np.zeros(m), set()
    for k in range(m):
        if k not in seen:
            c = float(rng.uniform(0.5, 2.0))
            while k not in seen:
                seen.add(k)
                w[k] = c
                k = sigma[k]
    return sigma, np.eye(m)[sigma], tuple(float(x) for x in w)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_permutation_bound_holds_with_invariant_weights(p):
    rng = np.random.default_rng(int(p) + 40)
    for _ in range(3):
        m = 5
        sigma, T, w = _cyclic_permutation(rng, m)
        assert all(w[sigma[k]] == w[k] for k in range(m))
        sp = SpaceSpec(p, m, w)
        labels = rng.integers(0, 3, size=m)
        blocks = [[int(k) for k in np.flatnonzero(labels == b)] for b in range(3) if np.any(labels == b)]
        m_sigma, bound = mn.partition_permutation_bound(blocks, sigma, p)
        part = _partition_norm(sp, blocks)
        dense = _dense_levels(_ratio(part, lambda X: part(T @ X)), m, m_sigma + 1, False, 7)
        assert max(dense) <= bound * (1 + 1e-12)

        spec = Spec.partition(blocks)
        res = mn.mb_norm(T, sp, spec, sp, spec, m_sigma + 1, CFG)
        assert max(res.p_seq) <= bound
        assert res.sup_estimate.upper == bound


def test_permutation_bound_needs_invariant_weights():
    # swapping two singleton blocks with weights 1 and 100 stretches by 100^(1/p): m_sigma = 1 is no bound
    sp = SpaceSpec(2.0, 2, (1.0, 100.0))
    T = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = Spec.partition([[0], [1]])
    _, bound = mn.partition_permutation_bound(spec.blocks, [1, 0], 2.0)
    res = mn.mb_norm(T, sp, spec, sp, spec, 2, CFG)
    assert res.p_seq[0] == pytest.approx(10.0, rel=1e-12) and bound == 1.0
    assert res.sup_estimate.kind == "lower" and res.sup_estimate.method == "truncated_at_n=2"


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("m", [3, 4])
def test_permutation_lattice_levels_are_exactly_one(r, m):
    # the seeds reach || |P| || = 1 within the last bits; every level reports 1.0 itself, never 1.0000000000000002
    sp = SpaceSpec(r, m)
    n_max = 4 if m == 3 else 3
    for seed in range(6):
        T = np.eye(m)[np.random.default_rng(seed).permutation(m)]
        res = mn.mb_norm(T, sp, Spec.lattice(), sp, Spec.lattice(), n_max, OptimConfig(seed=seed, restarts=2))
        assert res.p_seq == [1.0] * n_max
        sup = res.sup_estimate
        assert (sup.kind, sup.lower, sup.upper, sup.method) == ("exact", 1.0, 1.0, "meets_uniform_bound_at_n=1")


def test_partition_permutation_sup_names_the_level_that_met_the_bound():
    sp = SpaceSpec(1.0, 4)
    blocks = [[0, 1], [2], [3]]
    sigma = [2, 3, 0, 1]
    T = np.eye(4)[sigma]
    spec = Spec.partition(blocks)
    res = mn.mb_norm(T, sp, spec, sp, spec, 3, CFG)
    assert res.p_seq == [1.0, 2.0, 2.0]
    sup = res.sup_estimate
    assert (sup.kind, sup.lower, sup.upper, sup.method) == ("exact", 2.0, 2.0, "meets_uniform_bound_at_n=2")
    # without a uniform bound the supremum stays a truncation
    res = mn.mb_norm(np.ones((4, 4)), sp, spec, sp, spec, 2, CFG)
    assert res.sup_estimate.method == "truncated_at_n=2"


def test_unmet_level_caps_change_no_level(monkeypatch):
    # every level either climbs exactly as without a cap, or its seed met the cap
    outcomes = []

    def checked(project, value, seeds, shape, cfg, complex_field=False, ceiling=INF):
        got = seeded_ascent(project, value, seeds, shape, cfg, complex_field, ceiling=ceiling)
        want = seeded_ascent(project, value, seeds, shape, cfg, complex_field)
        if meets(got[0], ceiling):
            assert want[0] >= got[0]
            outcomes.append("met")
        else:
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
            outcomes.append("unmet")
        return got

    monkeypatch.setattr(operators, "seeded_ascent", checked)
    rng = np.random.default_rng(8)
    sp = _weighted(rng, 1.5, 3, "real")
    mn.mb_norm(rng.standard_normal((3, 3)), sp, Spec.lattice(), sp, Spec.lattice(), 3, CFG)
    mn.mb_norm(np.eye(3), sp, Spec.min_spec(), sp, Spec.dual_lattice(), 3, CFG)
    assert "unmet" in outcomes and "met" in outcomes


def test_a_tiny_operator_scales_its_levels_and_keeps_their_kinds():
    # p_n(cT) = c p_n(T): a cap is met relative to its size, so a tiny T is no nearer its bounds than T
    rng = np.random.default_rng(5)
    sp = SpaceSpec(1.5, 3)
    G = rng.standard_normal((3, 3))
    c = 1e-10
    big = mn.mb_norm(G, sp, Spec.lattice(), sp, Spec.lattice(), 3, CFG)
    small = mn.mb_norm(c * G, sp, Spec.lattice(), sp, Spec.lattice(), 3, CFG)
    assert big.sup_estimate.kind == "bracket"  # || |G| || is a Holder bound here, above every level
    assert small.p_seq == pytest.approx([c * v for v in big.p_seq], rel=1e-6)
    a, b = big.sup_estimate, small.sup_estimate
    assert (b.kind, b.method) == (a.kind, a.method)
    assert b.lower == pytest.approx(c * a.lower, rel=1e-6) and b.upper == pytest.approx(c * a.upper, rel=1e-12)
    # pi_summing's ceiling and its exact test use the same relative match
    for q, p in ((2, 1), (2, 2), (3, 1.5)):
        a, b = (mn.pi_summing(q, p, sp, 3, CFG, operator=T) for T in (G, c * G))
        assert a.kind == "bracket" and (b.kind, b.method) == (a.kind, a.method)
        assert b.lower == pytest.approx(c * a.lower, rel=1e-6) and b.upper == pytest.approx(c * a.upper, rel=1e-12)
    # the ascent accepts a move by a margin relative to its value only, so over many operators no tiny climb stalls
    # early: an absolute term in the margin would stop the levels of 1e-10 G short of 1e-10 times those of G
    cfg = OptimConfig(seed=7, restarts=4, grid_points=32)
    for seed in range(8):
        G = np.random.default_rng(seed).standard_normal((3, 3))
        big, small = (mn.mb_norm(T, sp, Spec.lattice(), sp, Spec.lattice(), 3, cfg) for T in (G, c * G))
        assert small.p_seq == pytest.approx([c * v for v in big.p_seq], rel=1e-5), seed
        for q, p in ((2, 1), (2, 2), (3, 1.5)):
            a, b = (mn.pi_summing(q, p, sp, 3, cfg, operator=T) for T in (G, c * G))
            assert b.lower == pytest.approx(c * a.lower, rel=1e-5), (seed, q, p)


def test_complex_operator_on_a_real_field_raises():
    # over real x, |x_1 + i x_2| = ||x||_2 <= ||x||_1.5, so the real-input norm is 1, not the complex 2^(1/3)
    A = np.array([[1, 1j], [0, 0]])
    with pytest.raises(mn.FieldError):
        mn.op_norm_pq(mn.MatrixOp(A, 1.5, 3), OptimConfig(restarts=2), field="real")
    # a complex dtype with zero imaginary part is a real matrix
    res = mn.op_norm_pq(mn.MatrixOp(np.array([[1, 0j], [0, 0]]), 1.5, 3), CFG, field="real")
    assert (res.kind, res.lower) == ("exact", 1.0) and not np.iscomplexobj(res.witness)
    real, cplx = SpaceSpec(2, 2), SpaceSpec(2, 2, (), "complex")
    with pytest.raises(mn.FieldError):
        op_norm_between(A, real, real, CFG)
    for source, target in ((real, real), (real, cplx), (cplx, real)):
        with pytest.raises(mn.FieldError):
            mn.pi_summing(2, 1, source, 2, CFG, operator=A, target=target)
    # mb_norm needs ||T|| over the real source, which op_norm_pq does not search for a complex T
    for source, target in ((real, real), (real, cplx), (cplx, real)):
        with pytest.raises(mn.FieldError):
            mn.mb_norm(A, source, Spec.lattice(), target, Spec.lattice(), 2, CFG)
    # a real target cannot hold T x
    for source in (real, cplx):
        with pytest.raises(mn.FieldError):
            mn.mb_tuple_norm([A], source, Spec.lattice(), real, Spec.lattice(), 2, CFG)
        with pytest.raises(mn.FieldError):
            mn.amplify(A, VectorTuple.of(source, [1, 0]), real)
    # real tuples into a complex target need neither: |x_1 + i x_2| <= max_j ||x_j||_2, met by the deltas
    assert mn.amplify(A, VectorTuple.of(real, [0, 1]), cplx).columns.tolist() == [[1j], [0]]
    assert mn.mb_tuple_norm([A], real, Spec.lattice(), cplx, Spec.lattice(), 2, CFG).lower == pytest.approx(1.0, rel=1e-12)
    # on complex spaces the operator is fine
    assert mn.mb_norm(A, cplx, Spec.lattice(), cplx, Spec.lattice(), 1, CFG).p_seq[0] == pytest.approx(math.sqrt(2), rel=1e-12)


def test_cli_complex_operator_on_a_real_space_exits_2(capsys):
    doc = (
        '{"source": {"p": 2, "dim": 2}, "target": {"p": 2, "dim": 2}, "spec_source": {"variant": "lattice"},'
        ' "spec_target": {"variant": "lattice"}, "matrix": [[1, [0, 1]], [0, 0]], "n_max": 2}'
    )
    code = main(["mbnorm", doc])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "FieldError" in captured.err and "Traceback" not in captured.err


def test_operator_of_the_wrong_shape_raises_dimension_error(capsys):
    s2, s3 = SpaceSpec(2, 2), SpaceSpec(2, 3)
    T = np.ones((2, 3))
    with pytest.raises(mn.DimensionError):
        mn.mb_norm(T, s2, Spec.lattice(), s2, Spec.lattice(), 2, CFG)
    with pytest.raises(mn.DimensionError):
        mn.mb_tuple_norm([np.eye(2), T], s2, Spec.lattice(), s2, Spec.lattice(), 2, CFG)
    assert mn.mb_norm(T, s3, Spec.lattice(), s2, Spec.lattice(), 1, CFG).p_seq[0] > 0
    doc = (
        '{"source": {"p": 2, "dim": 2}, "target": {"p": 2, "dim": 2}, "spec_source": {"variant": "lattice"},'
        ' "spec_target": {"variant": "lattice"}, "matrix": [[1, 0, 0], [0, 1, 0]], "n_max": 2}'
    )
    code = main(["mbnorm", doc])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "DimensionError" in captured.err and "Traceback" not in captured.err


def test_sizes_below_one_raise():
    # n_max = 0 failed in max() of an empty sequence; k_max = 0 returned lower 0.0 with no witness
    s = SpaceSpec(2, 2)
    for size in (0, -1):
        for target in (Spec.min_spec(), Spec.lattice()):
            with pytest.raises(mn.SpecError, match="n must be >= 1"):
                mn.mb_norm(np.eye(2), s, Spec.lattice(), s, target, size, CFG)
            with pytest.raises(mn.SpecError, match="n must be >= 1"):
                mn.mb_tuple_norm([np.eye(2)], s, Spec.lattice(), s, target, size, CFG)
