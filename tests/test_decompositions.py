import math

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MultiNormSpec as Spec, OptimConfig, SpaceSpec, VectorTuple
from multinorm.optim import NORMALS, UNIFORMS, field_normal_block
from multinorm.spaces import lp_norm

CFG = OptimConfig(seed=2025)


def oblique_l1_decomposition():
    # E1 = {(z, z)}, E2 = {(z, -z)}
    P1 = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    P2 = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return mn.Decomposition((P1, P2))


def test_decomposition_validation():
    with pytest.raises(mn.SpecError):
        mn.Decomposition((np.eye(2) * 0.5, np.eye(2) * 0.5))  # not idempotent
    with pytest.raises(mn.SpecError):
        mn.Decomposition((np.eye(2), np.eye(2)))  # does not sum to identity
    with pytest.raises(mn.SpecError):
        mn.Decomposition((np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])))  # NaN passes every tolerance check
    d = mn.coordinate_decomposition(SpaceSpec(2, 3), [[0, 1], [2]])
    assert d.length == 2 and d.dim == 3


def test_hermitian_examples():
    for p in (1, 2, 3, INF):
        s = SpaceSpec(p, 2, field="complex")
        d = mn.coordinate_decomposition(s, [[0], [1]])
        rep = mn.is_hermitian(d, s, trials=16, cfg=CFG)
        assert rep.verdict, p

    s1 = SpaceSpec(1, 2, field="complex")
    rep = mn.is_hermitian(oblique_l1_decomposition(), s1, trials=16, cfg=CFG)
    assert not rep.verdict
    w = rep.witness
    x = np.asarray(w["x"])
    zeta = np.asarray(w["zeta"])
    Ps = oblique_l1_decomposition().projections
    lhs = s1.norm(sum(z * (P @ x) for z, P in zip(zeta, Ps)))
    assert lhs == pytest.approx(w["lhs"], abs=1e-9)
    assert lhs > s1.norm(x) + 1e-9

    d = mn.Decomposition((np.eye(3),))
    rep = mn.is_hermitian(d, SpaceSpec(2, 3, field="complex"), trials=8, cfg=CFG)
    assert rep.verdict


def _sampled_only_hermitian_gap(d, space, trials, cfg):
    # frozen copy of is_hermitian past its one-block phase grid: each trial's 8 sampled interior points alone
    k, Ps = d.length, d.projections
    worst_gap, witness = 0.0, None
    normals, uniforms = cfg.stream("hermitian", NORMALS), cfg.stream("hermitian", UNIFORMS)
    xs = field_normal_block(normals, trials, (space.dim,), True)
    U = uniforms.random((trials, 8, 2, k))
    for x, Z in zip(xs, U[:, :, 0] * np.exp(2j * np.pi * U[:, :, 1])):
        nx = space.norm(x)
        vals = lp_norm(sum(Z[:, i, None] * (P @ x) for i, P in enumerate(Ps)), space.p, w=space.w)
        b = int(np.argmax(vals - nx))
        if vals[b] - nx > worst_gap:
            worst_gap, witness = float(vals[b] - nx), {"x": x, "zeta": Z[b], "lhs": float(vals[b]), "rhs": nx}
    return worst_gap, witness


def test_hermitian_past_the_phase_grid_uses_the_sampled_points_alone():
    # 5 complex blocks at the default cfg: 16^4 grid rows pass one 4096-row block
    s = SpaceSpec(1, 5, (1.0, 2.0, 0.5, 1.5, 1.0), field="complex")
    S = np.eye(5) + 0.3 * np.random.default_rng(8).standard_normal((5, 5))
    Si = np.linalg.inv(S)
    d = mn.Decomposition(tuple(S[:, [i]] @ Si[[i], :] for i in range(5)))
    cfg = OptimConfig()
    rep = mn.is_hermitian(d, s, trials=40, cfg=cfg)
    gap, witness = _sampled_only_hermitian_gap(d, s, 40, cfg)
    assert not rep.verdict and rep.gap == gap
    assert rep.witness["lhs"] == witness["lhs"] and rep.witness["rhs"] == witness["rhs"]
    assert np.array_equal(rep.witness["x"], witness["x"]) and np.array_equal(rep.witness["zeta"], witness["zeta"])


def test_oblique_real_l2_rotation_not_hermitian_for_p_not_2():
    # rotated coordinate splits of l^p_2 fail hermitian when p != 2
    rng = np.random.default_rng(99)
    for angle in (0.7, *rng.uniform(0.2, 1.3, size=3)):
        c, t = math.cos(angle), math.sin(angle)
        u = np.array([c, t])
        v = np.array([-t, c])
        d = mn.Decomposition((np.outer(u, u), np.outer(v, v)))
        for p in (1, 3):
            s = SpaceSpec(p, 2)
            rep = mn.is_hermitian(d, s, trials=64, cfg=CFG)
            assert not rep.verdict, (p, angle)
        s2 = SpaceSpec(2, 2)
        rep = mn.is_hermitian(d, s2, trials=64, cfg=CFG)
        assert rep.verdict  # orthogonal projections in the Hilbert case


def test_small_examples():
    for p in (1, 2, 3):
        s = SpaceSpec(p, 4)
        d = mn.coordinate_decomposition(s, [[0, 1], [2], [3]])
        rep = mn.is_small(d, Spec.lattice(), s, trials=100, cfg=CFG)
        assert rep.verdict, p

    s1 = SpaceSpec(1, 2)
    d = mn.coordinate_decomposition(s1, [[0], [1]])
    rep = mn.is_small(d, Spec.min_spec(), s1, trials=50, cfg=CFG)
    assert not rep.verdict
    assert rep.gap >= 1.0 - 1e-9  # witness (d1, d2): 2 > 1

    d = mn.Decomposition((np.eye(2),))
    rep = mn.is_small(d, Spec.min_spec(), s1, trials=20, cfg=CFG)
    assert rep.verdict


def test_orthogonal_examples():
    s = SpaceSpec(2, 4)
    d = mn.coordinate_decomposition(s, [[0, 1], [2, 3]])
    rep = mn.is_orthogonal(d, Spec.lattice(), s, trials=30, cfg=CFG)
    assert rep.verdict

    s1 = SpaceSpec(1, 2)
    d1 = mn.coordinate_decomposition(s1, [[0], [1]])
    rep = mn.is_orthogonal(d1, Spec.min_spec(), s1, trials=30, cfg=CFG)
    assert not rep.verdict

    d = mn.Decomposition((np.eye(3),))
    rep = mn.is_orthogonal(d, Spec.min_spec(), SpaceSpec(2, 3), trials=10, cfg=CFG)
    assert rep.verdict


def test_orthogonal_set_triple():
    s = SpaceSpec(INF, 4)
    t = VectorTuple.of(s, [1, 0, 0, 0.5], [0, 1, 0, 0.5], [0, 0, 1, 0.5])
    rep = mn.orthogonal_set(Spec.min_spec(), t, trials=10, cfg=CFG)
    assert not rep.verdict
    assert rep.witness["lhs"] == pytest.approx(1.5, abs=1e-12)
    assert rep.witness["rhs"] == pytest.approx(1.0, abs=1e-12)

    for pair in ([0, 1], [0, 2], [1, 2]):
        t2 = VectorTuple(t.columns[:, pair], s)
        rep2 = mn.orthogonal_set(Spec.min_spec(), t2, trials=40, cfg=CFG)
        assert rep2.verdict, pair


def test_implication_chain_small_orthogonal_hermitian():
    rng = np.random.default_rng(50)
    s = SpaceSpec(2, 3)
    candidates = [
        mn.coordinate_decomposition(s, [[0], [1, 2]]),
        mn.coordinate_decomposition(s, [[0], [1], [2]]),
    ]
    # random oblique decomposition built from a Haar-ish rotation
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    Ps = tuple(np.outer(Q[:, i], Q[:, i]) for i in range(3))
    candidates.append(mn.Decomposition(Ps))
    for spec in (Spec.min_spec(), Spec.lattice()):
        for d in candidates:
            small = mn.is_small(d, spec, s, trials=40, cfg=CFG).verdict
            orth = mn.is_orthogonal(d, spec, s, trials=20, cfg=CFG).verdict
            herm = mn.is_hermitian(d, s, trials=20, cfg=CFG).verdict
            assert (not small) or orth
            assert (not orth) or herm


def test_two_hermitian_decompositions_projection_bound():
    # || Q_1 x_1 + ... + Q_k x_k || <= || x_1 + ... + x_k || for x_i in E_i
    rng = np.random.default_rng(51)
    s = SpaceSpec(2, 4, field="complex")
    d1 = mn.coordinate_decomposition(s, [[0, 1], [2, 3]])
    d2 = mn.coordinate_decomposition(s, [[0, 2], [1, 3]])
    for _ in range(100):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        xs = [P @ z for P in d1.projections]
        lhs = s.norm(sum(Q @ x for Q, x in zip(d2.projections, xs)))
        rhs = s.norm(sum(xs))
        assert lhs <= rhs + 1e-8


def test_small_implies_norm_identity_on_blocks():
    s = SpaceSpec(2, 4)
    d = mn.coordinate_decomposition(s, [[0, 1], [2], [3]])
    rng = np.random.default_rng(52)
    for _ in range(50):
        xs = np.stack([P @ rng.standard_normal(4) for P in d.projections], axis=1)
        t = VectorTuple(xs, s)
        tuple_norm = mn.evaluate(Spec.lattice(), t, CFG).lower
        assert tuple_norm == pytest.approx(s.norm(xs.sum(axis=1)), abs=1e-8)


def test_dual_family_hermitian():
    for p in (1, 2, 3):
        s = SpaceSpec(p, 3, (1.0, 2.0, 0.5), field="complex")
        d = mn.coordinate_decomposition(s, [[0], [1, 2]])
        fam = mn.FamilyOfDecompositions((d,))
        dual_fam = mn.dual_family(fam, s)
        rep = mn.is_hermitian(dual_fam.members[0], s.dual(), trials=16, cfg=CFG)
        assert rep.verdict, p


def test_close_family():
    s = SpaceSpec(1, 2)
    seed = mn.FamilyOfDecompositions((mn.coordinate_decomposition(s, [[0], [1]]),))
    closed = mn.close_family(seed)
    keys = {d.key() for d in closed.members}
    swap = mn.Decomposition((np.diag([0.0, 1.0]), np.diag([1.0, 0.0])))
    assert swap.key() in keys
    trivial = mn.Decomposition((np.eye(2),))
    assert trivial.key() in keys
    again = mn.close_family(closed)
    assert {d.key() for d in again.members} == keys

    empty = mn.close_family(mn.FamilyOfDecompositions(()), max_len=2, dim=2)
    assert all(d.length <= 2 for d in empty.members)
    assert len(empty.members) == 3  # [I], [I,0], [0,I]


def test_generated_multinorm_values():
    for p in (1, 2, 3):
        s = SpaceSpec(p, 4)
        fam = mn.band_family(s)
        gen = mn.generated_multinorm(fam, s, CFG, verify_hermitian=False)
        rng = np.random.default_rng(53)
        for _ in range(5):
            X = rng.standard_normal((4, 3))
            t = VectorTuple(X, s)
            gv = mn.evaluate(gen, t, CFG).lower
            sv = mn.evaluate(Spec.standard_q(p), t, CFG).lower
            assert gv == pytest.approx(sv, abs=1e-9)

    s = SpaceSpec(2, 3)
    gen = mn.generated_multinorm(mn.trivial_family(s), s, CFG, verify_hermitian=False)
    rng = np.random.default_rng(54)
    for _ in range(5):
        X = rng.standard_normal((3, 2))
        t = VectorTuple(X, s)
        assert mn.evaluate(gen, t, CFG).lower == pytest.approx(mn.evaluate(Spec.min_spec(), t, CFG).lower, abs=1e-12)


def test_generated_orthogonal_families_bound_hilbert():
    s = SpaceSpec(2, 3)
    rng = np.random.default_rng(55)
    members = []
    for _ in range(4):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        members.append(mn.Decomposition(tuple(np.outer(Q[:, i], Q[:, i]) for i in range(3))))
    fam = mn.FamilyOfDecompositions(tuple(members))
    gen = mn.generated_multinorm(fam, s, CFG, verify_hermitian=True, trials=8)
    for _ in range(5):
        X = rng.standard_normal((3, 3))
        t = VectorTuple(X, s)
        gv = mn.evaluate(gen, t, CFG).lower
        assert gv <= float(np.linalg.norm(s.norm_cols(X))) + 1e-9
        hv = mn.evaluate(Spec.hilbert(), t, CFG).lower
        assert gv <= hv + 2e-2 * max(1.0, hv)


def test_generated_rejects_non_hermitian():
    s = SpaceSpec(1, 2, field="complex")
    fam = mn.FamilyOfDecompositions((oblique_l1_decomposition(),))
    with pytest.raises(mn.HermitianError):
        mn.generated_multinorm(fam, s, CFG, verify_hermitian=True, trials=16)


def test_multi_dual_maps_standard_p_to_conjugate():
    for p in (2, 3):
        s = SpaceSpec(p, 3)
        fam = mn.band_family(s)
        dspec, dspace = mn.multi_dual(fam, s, CFG, verify_hermitian=False)
        rng = np.random.default_rng(56)
        for _ in range(5):
            L = rng.standard_normal((3, 2))
            t = VectorTuple(L, dspace)
            dv = mn.evaluate(dspec, t, CFG).lower
            sv = mn.evaluate(Spec.standard_q(dspace.p), t, CFG).lower
            assert dv == pytest.approx(sv, abs=2e-2)

    # trivial family dualizes to the minimum multi-norm
    s = SpaceSpec(2, 3)
    dspec, dspace = mn.multi_dual(mn.trivial_family(s), s, CFG, verify_hermitian=False)
    rng = np.random.default_rng(57)
    L = rng.standard_normal((3, 2))
    t = VectorTuple(L, dspace)
    assert mn.evaluate(dspec, t, CFG).lower == pytest.approx(mn.evaluate(Spec.min_spec(), t, CFG).lower, abs=1e-12)


def test_hilbert_multi_dual_selfdual():
    s = SpaceSpec(2, 3)
    rng = np.random.default_rng(58)
    members = []
    for _ in range(3):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        members.append(mn.Decomposition(tuple(np.outer(Q[:, i], Q[:, i]) for i in range(3))))
    fam = mn.FamilyOfDecompositions(tuple(members))
    dspec, dspace = mn.multi_dual(fam, s, CFG, verify_hermitian=False)
    gen = mn.generated_multinorm(fam, s, CFG, verify_hermitian=False)
    for _ in range(5):
        X = rng.standard_normal((3, 2))
        primal_val = mn.evaluate(gen, VectorTuple(X, s), CFG).lower
        dual_val = mn.evaluate(dspec, VectorTuple(X, dspace), CFG).lower
        assert dual_val == pytest.approx(primal_val, abs=1e-9)


def test_is_orthogonal_multinorm():
    s = SpaceSpec(2, 3)
    rep = mn.is_orthogonal_multinorm(Spec.lattice(), mn.band_family(s), s, trials=60, cfg=CFG)
    assert rep.verdict and rep.gap <= 1e-8

    s1 = SpaceSpec(1, 2)
    rep = mn.is_orthogonal_multinorm(Spec.lattice(), mn.trivial_family(s1), s1, trials=60, cfg=CFG)
    assert not rep.verdict
    assert rep.gap >= 1.0 - 1e-9  # delta tuple: lattice 2 vs generated 1

    rep = mn.is_orthogonal_multinorm(Spec.min_spec(), mn.trivial_family(s), s, trials=30, cfg=CFG)
    assert rep.verdict


def test_decomposition_json_round_trip():
    d = oblique_l1_decomposition()
    back = mn.Decomposition.from_json(d.to_json())
    assert back.key() == d.key()
    fam = mn.FamilyOfDecompositions((d,))
    back_fam = mn.FamilyOfDecompositions.from_json(fam.to_json())
    assert back_fam.members[0].key() == d.key()


def test_detectors_reject_a_decomposition_of_another_dimension():
    # a 2 x 2 decomposition on a 3-dimensional space ended in a numpy matmul or broadcast ValueError
    d, space = mn.coordinate_decomposition(SpaceSpec(2, 2), [[0], [1]]), SpaceSpec(2, 3)
    fam = mn.FamilyOfDecompositions((d,))
    for detect in (lambda: mn.is_hermitian(d, space, trials=2, cfg=CFG), lambda: mn.is_small(d, Spec.lattice(), space, trials=2, cfg=CFG),
                   lambda: mn.is_orthogonal(d, Spec.lattice(), space, trials=2, cfg=CFG),
                   lambda: mn.is_orthogonal_multinorm(Spec.lattice(), fam, space, trials=2, cfg=CFG), lambda: mn.multi_dual(fam, space, CFG)):
        with pytest.raises(mn.DimensionError, match="decomposition of dimension 2 on a space of dimension 3"):
            detect()
