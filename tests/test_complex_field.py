"""Complex-scalar coverage: exact evaluators, certified brackets, detectors."""

import math

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MultiNormSpec as Spec, OptimConfig, SpaceSpec, VectorTuple

CFG = OptimConfig(seed=314)


def random_complex_tuple(space, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((space.dim, n)) + 1j * rng.standard_normal((space.dim, n))
    return VectorTuple(X, space)


def test_exact_variants_on_complex_tuples():
    s = SpaceSpec(2, 3, field="complex")
    t = random_complex_tuple(s, 3, 1)
    X = t.columns
    a = np.abs(X)
    assert mn.evaluate(Spec.min_spec(), t, CFG).lower == pytest.approx(float(s.norm_cols(X).max()))
    assert mn.evaluate(Spec.lattice(), t, CFG).lower == pytest.approx(float(np.sqrt((a.max(axis=1) ** 2).sum())))
    assert mn.evaluate(Spec.dual_lattice(), t, CFG).lower == pytest.approx(float(np.sqrt((a.sum(axis=1) ** 2).sum())))


def test_phase_invariance_of_evaluators():
    s = SpaceSpec(1, 3, field="complex")
    t = random_complex_tuple(s, 2, 2)
    phases = np.exp(1j * np.array([0.3, -1.2]))
    rotated = VectorTuple(t.columns * phases[None, :], s)
    for spec in (Spec.min_spec(), Spec.lattice(), Spec.standard_q(1), Spec.weak_summing(1)):
        v1 = mn.evaluate(spec, t, CFG).lower
        v2 = mn.evaluate(spec, rotated, CFG).lower
        assert v1 == pytest.approx(v2, abs=1e-9)


def test_complex_mu_bracket_contains_torus_value():
    s = SpaceSpec(1, 2, field="complex")
    t = VectorTuple.of(s, [1, 1], [1, -1])
    res = mn.mu_weak(1, t, CFG)
    # phase i aligns the two columns: mu = 2*sqrt(2), strictly above the sign value 2
    assert res.kind == "bracket"
    assert res.lower >= 2 * math.sqrt(2) - 1e-6
    assert res.upper >= res.lower - 1e-12
    assert res.upper <= 2 * math.sqrt(2) + 0.1


def test_complex_pq_is_bracket_with_sound_sides():
    s = SpaceSpec(2, 2, field="complex")
    t = random_complex_tuple(s, 2, 3)
    res = mn.evaluate(Spec.pq_spec(2, 2), t, CFG)
    assert res.kind == "bracket"
    assert res.lower <= res.upper + 1e-12
    h = mn.evaluate(Spec.hilbert(), t, CFG)
    assert abs(h.lower - res.lower) <= 2e-2 * max(1.0, h.lower)


def test_complex_hilbert_diagonal():
    s = SpaceSpec(2, 3, field="complex")
    beta = np.array([1 + 1j, 2.0, -1j])
    t = VectorTuple(np.diag(beta), s)
    res = mn.evaluate(Spec.hilbert(), t, CFG)
    assert res.lower == pytest.approx(float(np.linalg.norm(beta)), abs=1e-6)


def test_complex_axiom_audits():
    s = SpaceSpec(2, 3, field="complex")
    for spec in (Spec.min_spec(), Spec.lattice(), Spec.standard_q(2)):
        rep = mn.check_axioms(spec, s, n_max=3, trials=200, cfg=CFG)
        assert rep.ok and rep.mode == "exact"
    rep = mn.check_axioms(Spec.lp_sum(2), s, n_max=3, trials=60, cfg=CFG)
    assert any(v.axiom == "A4" for v in rep.violations)


def test_complex_matrix_law():
    s = SpaceSpec(2, 3, field="complex")
    rep = mn.check_multinorm_matrix_law(Spec.lattice(), s, INF, trials=500, cfg=CFG, tol=1e-8)
    assert rep.ok


def test_complex_op_norm_phases():
    A = np.array([[1.0, 1.0], [1j, -1j]])
    res = mn.op_norm_pq(mn.MatrixOp(A, INF, 1), CFG)
    # x = (1, -i) gives |1 - i| + |i - i*(-i)| ... brute check by grid
    rng = np.random.default_rng(4)
    best = 0.0
    for _ in range(2000):
        x = np.exp(2j * np.pi * rng.random(2))
        best = max(best, float(np.abs(A @ x).sum()))
    assert res.lower >= best - 5e-3
    assert res.upper >= best - 1e-9


def test_complex_mb_norm():
    s = SpaceSpec(1, 3, field="complex")
    I = np.eye(3)
    res = mn.mb_norm(I, s, Spec.min_spec(), s, Spec.lattice(), 3, CFG)
    assert res.p_seq == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)


def test_complex_generated_band_family():
    s = SpaceSpec(2, 3, field="complex")
    fam = mn.band_family(s)
    gen = mn.generated_multinorm(fam, s, CFG, verify_hermitian=False)
    t = random_complex_tuple(s, 2, 6)
    gv = mn.evaluate(gen, t, CFG).lower
    sv = mn.evaluate(Spec.standard_q(2), t, CFG).lower
    assert gv == pytest.approx(sv, abs=1e-9)


def test_complex_spectral_polish_climbs():
    # on complex l^2 the (2,q) polish steps to U @ Vh, the maximizer of Re<M, B> over the spectral ball
    space = SpaceSpec(2, 4, field="complex")
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    res = mn.evaluate(Spec.pq_spec(2, 2.5), VectorTuple(X, space), OptimConfig(seed=5))
    assert res.lower <= res.upper
    assert res.lower >= 2.45  # the conjugated step stalled at 2.372
