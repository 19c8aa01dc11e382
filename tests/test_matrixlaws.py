import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MultiNormSpec as Spec, OptimConfig, SpaceSpec
from multinorm.matrixlaws import is_column_special, is_row_special

CFG = OptimConfig(seed=7)


def test_row_special_golden_trace():
    dec = mn.row_special_decompose(np.array([[2.0, 1.0], [0.0, 3.0]]))
    assert len(dec.parts) == 2
    assert np.allclose(dec.parts[0], [[0, 1], [0, 1]])
    assert np.allclose(dec.parts[1], [[2, 0], [0, 2]])
    assert dec.norms == (1.0, 2.0)
    assert dec.total == pytest.approx(3.0)


def test_row_special_trivial_cases():
    dec = mn.row_special_decompose(np.zeros((2, 2)))
    assert dec.parts == () and dec.total == 0.0

    A = np.array([[5.0, 0.0], [0.0, 0.0]])
    dec = mn.row_special_decompose(A)
    assert len(dec.parts) == 1
    assert np.allclose(dec.parts[0], A)
    assert dec.norms == (5.0,)


def test_column_special_examples():
    A = np.array([[2.0, 0.0], [1.0, 3.0]])
    dec = mn.column_special_decompose(A)
    assert sum(dec.norms) == pytest.approx(3.0)  # max column sum of A
    assert np.allclose(sum(dec.parts), A)
    for B in dec.parts:
        assert is_column_special(B)
    # transpose of the traced row-special decomposition of [[2,1],[0,3]]
    ref = mn.row_special_decompose(A.T)
    assert all(np.allclose(B, C.T) for B, C in zip(dec.parts, ref.parts))

    dec = mn.column_special_decompose(np.eye(2))
    assert len(dec.parts) == 1 and dec.norms == (1.0,)

    dec = mn.column_special_decompose(np.zeros((2, 3)))
    assert dec.parts == ()


def test_row_special_random_battery():
    rng = np.random.default_rng(123)
    for trial in range(1000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        A = rng.uniform(-1, 1, size=(m, n))
        if trial % 2:
            A = A + 1j * rng.uniform(-1, 1, size=(m, n))
        dec = mn.row_special_decompose(A)
        assert len(dec.parts) <= m * n
        if dec.parts:
            assert np.abs(sum(dec.parts) - A).max() < 1e-12
        else:
            assert np.abs(A).max() == 0
        row_norm = np.abs(A).sum(axis=1).max() if A.size else 0.0
        assert dec.total == pytest.approx(row_norm, abs=1e-9)
        for B in dec.parts:
            assert is_row_special(B)


def test_matrix_law_multinorms_pass():
    s = SpaceSpec(2, 3)
    for spec in (Spec.min_spec(), Spec.lattice(), Spec.standard_q(2), Spec.partition([[0, 1], [2]])):
        rep = mn.check_multinorm_matrix_law(spec, s, INF, trials=10_000, cfg=CFG, tol=1e-8)
        assert rep.ok, spec.variant


def test_matrix_law_dual_multinorms_pass():
    s = SpaceSpec(2, 3)
    for spec in (Spec.dual_lattice(), Spec.weak_summing(1), Spec.lp_sum(1)):
        rep = mn.check_multinorm_matrix_law(spec, s, 1, trials=300, cfg=CFG, tol=1e-8)
        assert rep.ok, spec.variant


def test_weak_summing_type_p_law():
    s = SpaceSpec(2, 3)
    for p in (1, 2):
        rep = mn.check_multinorm_matrix_law(Spec.weak_summing(p), s, p, trials=300, cfg=CFG, tol=1e-8)
        assert rep.ok


def test_multinorm_fails_type_2_law():
    s = SpaceSpec(2, 2)
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    rep = mn.check_multinorm_matrix_law(Spec.min_spec(), s, 2, trials=40, cfg=CFG, fixed_matrices=[A] * 40)
    assert not rep.ok
    v = rep.violations[0]
    assert v.lhs > v.bound + 0.1


def test_complex_fixed_matrices_keep_their_field():
    # [[1, i], [0, 0]] has (2 -> 2) norm sqrt(2); its real part alone has norm 1 and never violates the law
    A = np.array([[1.0, 1j], [0.0, 0.0]])
    rep = mn.check_multinorm_matrix_law(Spec.min_spec(), SpaceSpec(2, 2, field="complex"), 2, trials=40, cfg=CFG, fixed_matrices=[A] * 40)
    assert not rep.ok
    assert all(np.array_equal(v.matrix, A) for v in rep.violations)
    with pytest.raises(mn.FieldError):
        mn.check_multinorm_matrix_law(Spec.min_spec(), SpaceSpec(2, 2), 2, trials=1, cfg=CFG, fixed_matrices=[A])
    real = mn.check_multinorm_matrix_law(Spec.min_spec(), SpaceSpec(2, 2), 2, trials=2, cfg=CFG, fixed_matrices=[A.real + 0j] * 2)
    assert real.ok


def test_coagulation_contraction_dual_lattice():
    for p in (1, 2, INF):
        s = SpaceSpec(p, 3)
        rep = mn.check_coagulation_contraction(Spec.dual_lattice(), s, trials=200, cfg=CFG, tol=1e-9)
        assert rep.ok


def test_role_guard():
    with pytest.raises(mn.SpecError):
        mn.row_special_decompose(mn.MatrixOp(np.eye(2), 1, 1))
    with pytest.raises(mn.SpecError):
        mn.column_special_decompose(mn.MatrixOp(np.eye(2), INF, INF))


def test_fixed_matrices_are_validated_up_front():
    s = SpaceSpec(2, 2)
    with pytest.raises(mn.DimensionError):
        mn.check_multinorm_matrix_law(Spec.min_spec(), s, INF, trials=3, cfg=CFG, fixed_matrices=[np.ones(3)])
    with pytest.raises(ValueError, match="finite"):
        mn.check_multinorm_matrix_law(Spec.min_spec(), s, INF, trials=3, cfg=CFG, fixed_matrices=[np.array([[1.0, np.nan]])])
    with pytest.raises(ValueError, match="roles"):
        mn.check_multinorm_matrix_law(Spec.min_spec(), s, 0.5, trials=3, cfg=CFG)
    with pytest.raises(ValueError, match="roles"):
        mn.check_multinorm_matrix_law(Spec.min_spec(), s, 0.5, trials=3, cfg=CFG, fixed_matrices=[np.eye(2)])


def test_audits_reject_bad_sizes():
    s = SpaceSpec(2, 3)
    d = mn.coordinate_decomposition(s, [[0], [1, 2]])
    t = mn.VectorTuple(np.eye(3), s)
    with pytest.raises(mn.SpecError):
        mn.check_axioms(Spec.lattice(), s, n_max=1, trials=5, cfg=CFG)
    for audit in (
        lambda: mn.check_axioms(Spec.lattice(), s, trials=-1, cfg=CFG),
        lambda: mn.check_multinorm_matrix_law(Spec.lattice(), s, INF, trials=-1, cfg=CFG),
        lambda: mn.check_coagulation_contraction(Spec.dual_lattice(), s, trials=-1, cfg=CFG),
        lambda: mn.is_hermitian(d, s, trials=-1, cfg=CFG),
        lambda: mn.is_small(d, Spec.lattice(), s, trials=-1, cfg=CFG),
        lambda: mn.is_orthogonal(d, Spec.lattice(), s, trials=-1, cfg=CFG),
        lambda: mn.orthogonal_set(Spec.lattice(), t, trials=-1, cfg=CFG),
        lambda: mn.is_orthogonal_multinorm(Spec.lattice(), mn.band_family(s), s, trials=-1, cfg=CFG),
    ):
        with pytest.raises(mn.SpecError, match="trials"):
            audit()
    assert mn.check_axioms(Spec.lattice(), s, trials=0, cfg=CFG).ok


def test_special_decompositions_check_raw_arrays():
    # a raw array gets a MatrixOp's checks: a NaN was dropped (norms (1.0,)), an inf emptied the decomposition
    for decompose, norm in ((mn.row_special_decompose, 3.0), (mn.column_special_decompose, 4.0)):
        for A in (np.array([[np.nan, 1.0]]), np.array([[np.inf, 1.0]]), np.array([[1.0, 2.0], [1j * np.inf, 0.0]])):
            with pytest.raises(ValueError, match="finite"):
                decompose(A)
        for A in (np.ones(3), np.ones((1, 2, 2)), np.float64(1.0)):
            with pytest.raises(mn.DimensionError):
                decompose(A)
        for shape in ((0, 3), (3, 0)):
            dec = decompose(np.zeros(shape))
            assert dec.parts == () and dec.total == 0.0
        assert decompose([[2.0, 1.0], [0.0, 3.0]]).total == norm  # a nested list is still taken


def test_special_decompositions_refuse_an_overflowing_norm():
    # the row sums overflow to inf, so the 1e-14 * inf threshold snapped every entry to 0 (total 0.0) behind a RuntimeWarning
    # a finite complex entry whose modulus overflows passes MatrixOp (np.abs of it warned) and overflows the norm
    for A in (np.array([[1e308, 1e308]]), np.array([[1e308 + 1e308j, -1e308]]), np.array([[1.5e308 + 1.5e308j]])):
        with pytest.raises(mn.DegenerateNormError, match="overflows"):
            mn.row_special_decompose(A)
        with pytest.raises(mn.DegenerateNormError, match="overflows"):
            mn.column_special_decompose(A.T)
    dec = mn.row_special_decompose(np.array([[1e308, -5e307]]))
    assert dec.total == 1.5e308
    for bad in ([[np.inf + 0j]], [[1 + np.nan * 1j]]):
        with pytest.raises(ValueError, match="finite"):
            mn.row_special_decompose(np.array(bad))


def test_fixed_matrices_must_have_entries():
    # a 0 x n or m x 0 fixed matrix died in numpy's zero-size maximum
    s = SpaceSpec(2, 3)
    for shape in ((0, 2), (2, 0), (0, 0)):
        for role in (INF, 2, 1.5):
            with pytest.raises(mn.DimensionError, match="no entries"):
                mn.check_multinorm_matrix_law(Spec.lattice(), s, role, 3, CFG, fixed_matrices=[np.zeros(shape)])
