import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MatrixOp, OptimConfig, SpaceSpec


def test_norm_examples():
    assert SpaceSpec(2, 3).norm([3, 4, 0]) == pytest.approx(5.0, abs=1e-15)
    assert SpaceSpec(1, 2, (2.0, 1.0)).norm([1, 1]) == pytest.approx(3.0, abs=1e-15)
    assert SpaceSpec(INF, 2).norm([1, -2]) == pytest.approx(2.0, abs=1e-15)


def test_pairing_examples():
    assert SpaceSpec(2, 2).pairing([1, 2], [3, -1]) == pytest.approx(1.0)
    assert SpaceSpec(2, 2, (2.0, 1.0)).pairing([1, 0], [1, 5]) == pytest.approx(2.0)
    assert SpaceSpec(1, 3, (0.5, 2.0, 7.0)).pairing([1, 0, 0], [0, 1, 0]) == 0.0


def test_dual_space():
    assert SpaceSpec(2, 3).dual().p == 2
    assert SpaceSpec(1, 3).dual().p == INF
    assert SpaceSpec(3, 3).dual().p == pytest.approx(1.5)
    s = SpaceSpec(3, 4, (1.0, 2.0, 3.0, 4.0), "complex")
    assert s.dual().dual() == s
    assert SpaceSpec(1, 2).dual().dual() == SpaceSpec(1, 2)


def test_matrix_op_norm_examples():
    assert mn.op_norm_pq(MatrixOp([[1, 2], [3, -4]], INF, INF), OptimConfig()).lower == pytest.approx(7.0)
    assert mn.op_norm_pq(MatrixOp([[1, 2], [3, -4]], 1, 1), OptimConfig()).lower == pytest.approx(6.0)
    res = mn.op_norm_pq(MatrixOp(np.eye(3), 2, 2), OptimConfig())
    assert res.kind == "exact" and res.lower == pytest.approx(1.0)


def test_matrix_norm_transpose_identity():
    rng = np.random.default_rng(7)
    roles = [(1, 1), (1, 2), (1, INF), (2, 2), (2, INF), (INF, INF), (1.5, INF)]
    for _ in range(50):
        A = rng.standard_normal((rng.integers(1, 5), rng.integers(1, 5)))
        for p, q in roles:
            a = MatrixOp(A, p, q)
            direct = mn.op_norm_pq(a, OptimConfig())
            flipped = mn.op_norm_pq(a.transpose(), OptimConfig())
            if direct.kind == "exact" and flipped.kind == "exact":
                assert direct.lower == pytest.approx(flipped.lower, abs=1e-10)


def test_norm_axioms_random():
    rng = np.random.default_rng(3)
    spaces = [
        SpaceSpec(1, 4),
        SpaceSpec(2, 4, (0.5, 1.0, 2.0, 3.0)),
        SpaceSpec(3, 3),
        SpaceSpec(INF, 4),
        SpaceSpec(2, 3, field="complex"),
    ]
    for space in spaces:
        for _ in range(1000):
            x = rng.standard_normal(space.dim)
            y = rng.standard_normal(space.dim)
            if space.is_complex:
                x = x + 1j * rng.standard_normal(space.dim)
                y = y + 1j * rng.standard_normal(space.dim)
            c = rng.standard_normal()
            scale = max(1.0, space.norm(x), space.norm(y))
            assert space.norm(c * x) == pytest.approx(abs(c) * space.norm(x), abs=1e-12 * scale * max(1, abs(c)))
            assert space.norm(x + y) <= space.norm(x) + space.norm(y) + 1e-12 * scale


def test_holder_inequality():
    rng = np.random.default_rng(5)
    for p in (1, 1.5, 2, 3, INF):
        space = SpaceSpec(p, 4, (1.0, 0.5, 2.0, 1.0))
        dual = space.dual()
        for _ in range(300):
            x = rng.standard_normal(4)
            lam = rng.standard_normal(4)
            lhs = abs(space.pairing(x, lam))
            rhs = space.norm(x) * dual.norm(lam)
            assert lhs <= rhs + 1e-12 * max(1.0, rhs)


def test_lattice_operations():
    s = SpaceSpec(2, 2, field="complex")
    assert np.allclose(mn.lattice_abs(s, [-1, 2j]), [1, 2])
    r = SpaceSpec(2, 2)
    assert np.allclose(mn.lattice_sup(r, [1, 0], [0, 2]), [1, 2])
    assert np.allclose(mn.pos_part(r, [-3, 4]), [0, 4])
    assert np.allclose(mn.neg_part(r, [-3, 4]), [3, 0])
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal(5)
        sp = SpaceSpec(1, 5)
        plus, minus = mn.pos_part(sp, x), mn.neg_part(sp, x)
        assert np.all(mn.lattice_inf(sp, plus, minus) == 0)
        assert np.array_equal(plus - minus, x)
        assert np.array_equal(plus + minus, np.abs(x))
        assert np.array_equal(mn.lattice_sup(sp, x, -x), np.abs(x))


def test_hahn_split():
    s = SpaceSpec(1, 3)
    assert mn.hahn_split(s, [1, -2, 0]) == ([0, 2], [1])
    s2 = SpaceSpec(1, 2)
    assert mn.hahn_split(s2, [-1, -1]) == ([], [0, 1])
    s1 = SpaceSpec(1, 1)
    assert mn.hahn_split(s1, [5]) == ([0], [])


def test_field_and_dimension_errors():
    s = SpaceSpec(2, 2)
    with pytest.raises(mn.FieldError):
        s.check_vector([1 + 1j, 0])
    with pytest.raises(mn.DimensionError):
        s.norm([1, 2, 3])
    with pytest.raises(mn.FieldError):
        mn.lattice_sup(SpaceSpec(2, 2, field="complex"), [1j, 0], [0, 1])
    with pytest.raises(ValueError):
        SpaceSpec(0.5, 2)
    with pytest.raises(ValueError):
        SpaceSpec(2, 2, (1.0, -1.0))


def test_vector_and_tuple_types():
    s = SpaceSpec(2, 3)
    v = mn.Vector([3, 4, 0], s)
    assert v.norm() == pytest.approx(5.0)
    with pytest.raises(mn.DimensionError):
        mn.Vector([1, 2], s)
    t = mn.VectorTuple.of(s, [1, 0, 0], [0, 1, 0])
    assert t.n == 2 and np.array_equal(t.vector(1), [0, 1, 0])
    with pytest.raises(mn.DimensionError):
        mn.VectorTuple(np.zeros((3, 0)), s)
    with pytest.raises(mn.FieldError):
        mn.VectorTuple(np.array([[1j], [0], [0]]), s)


def test_space_json_round_trip():
    s = SpaceSpec(INF, 3, (1.0, 2.0, 3.0), "complex")
    assert SpaceSpec.from_json(s.to_json()) == s
    x = np.array([1 + 2j, 0, -1j])
    doc = mn.spaces.vector_to_json(x)
    back = mn.spaces.vector_from_json(doc, s)
    assert np.allclose(back, x)


def test_phase_of_subnormal_entries_does_not_overflow():
    # 1 / |v| overflows below the smallest normal float; such entries get the phase of a zero entry
    # (the suite turns RuntimeWarning into an error)
    from multinorm.spaces import phase

    v = np.array([2.2e-311 + 1e-311j, 1e-311j, 0j, 3 - 4j, -2.5 + 1e-300j])
    ph = phase(v)
    assert ph[:3].tolist() == [1, 1, 1]
    assert np.array_equal(ph[3:], v[3:] / np.abs(v[3:]))
    for p in (1, INF):
        lam = SpaceSpec(p, 2, field="complex").unit_ball_norming(v[:2])
        assert np.all(np.isfinite(lam))
    L = np.array([[2.2e-311 + 1e-311j, 1e-311j], [2.2e-311, 2.2e-311j]])
    sp = SpaceSpec(2, 2, field="complex")
    res = mn.evaluate(mn.MultiNormSpec.numerical_dual(mn.MultiNormSpec.lattice()), mn.VectorTuple(L, sp), OptimConfig(seed=3, restarts=1))
    assert 0 <= res.lower <= res.upper
