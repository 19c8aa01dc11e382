import math

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, OptimConfig, SpaceSpec, VectorTuple, lp_norm

CFG = OptimConfig(seed=42)


def test_mu_weak_examples():
    s = SpaceSpec(2, 2)
    t = VectorTuple.of(s, [1, 0], [0, 1])
    res = mn.mu_weak(1, t, CFG)
    assert res.kind == "exact" and res.lower == pytest.approx(math.sqrt(2))

    si = SpaceSpec(INF, 2)
    res = mn.mu_weak(1, VectorTuple.of(si, [1, 0], [0, 1]), CFG)
    assert res.kind == "exact" and res.lower == pytest.approx(1.0)

    res = mn.mu_weak(2, VectorTuple.of(s, [1, 0], [1, 0]), CFG)
    # spectral norm of [[1,1],[0,0]]
    assert res.kind == "exact" and res.lower == pytest.approx(math.sqrt(2))


def test_mu_weak_sup_space_closed_form():
    rng = np.random.default_rng(8)
    si = SpaceSpec(INF, 4)
    for p in (1, 2):
        for _ in range(50):
            X = rng.standard_normal((4, 3))
            res = mn.mu_weak(p, VectorTuple(X, si), CFG)
            closed = float(((np.abs(X) ** p).sum(axis=1) ** (1 / p)).max())
            assert res.kind == "exact"
            assert res.lower == pytest.approx(closed, abs=1e-9)


def test_mu_weak_dual_examples():
    # a tuple in a dual space: the weak summing norm of the functionals
    s1 = SpaceSpec(1, 2)
    td = VectorTuple.of(s1.dual(), [1, 0], [0, 1])
    res = mn.mu_weak(1, td, CFG)
    assert res.lower == pytest.approx(1.0, abs=1e-9)

    sinf = SpaceSpec(INF, 2)
    td = VectorTuple.of(sinf.dual(), [1, 0], [0, 1])
    res = mn.mu_weak(1, td, CFG)
    assert res.lower == pytest.approx(2.0, abs=1e-9)

    s2 = SpaceSpec(2, 2)
    td = VectorTuple.of(s2.dual(), [1, 0], [1, 0])
    res = mn.mu_weak(2, td, CFG)
    assert res.lower == pytest.approx(math.sqrt(2), abs=1e-9)


def test_monotone_in_p():
    rng = np.random.default_rng(29)
    si = SpaceSpec(INF, 4)
    s2 = SpaceSpec(2, 3)
    count = 0
    for _ in range(200):
        X = rng.standard_normal((4, 3))
        v1 = mn.mu_weak(1, VectorTuple(X, si), CFG).lower
        v2 = mn.mu_weak(2, VectorTuple(X, si), CFG).lower
        v3 = mn.mu_weak(3, VectorTuple(X, si), CFG).lower
        assert v1 >= v2 - 1e-8 and v2 >= v3 - 1e-8
        count += 1
        Y = rng.standard_normal((3, 3))
        a = mn.mu_weak(1, VectorTuple(Y, s2), CFG)
        b = mn.mu_weak(2, VectorTuple(Y, s2), CFG)
        assert a.lower >= b.lower - 1e-8  # both exact on these paths
    assert count == 200


def test_monotone_bracket_ordering_on_inexact_roles():
    # on spaces without closed-form roles the ordering holds between the
    # certified sides: lower(mu_q) <= upper(mu_p) for p <= q
    rng = np.random.default_rng(30)
    s = SpaceSpec(3, 3)
    for _ in range(50):
        X = rng.standard_normal((3, 3))
        t = VectorTuple(X, s)
        vals = [mn.mu_weak(p, t, CFG) for p in (1, 2, 3)]
        for a, b in zip(vals, vals[1:]):
            assert b.lower <= a.upper + 1e-8


def test_sandwich():
    rng = np.random.default_rng(31)
    for p_space in (1, 2, INF):
        space = SpaceSpec(p_space, 3)
        for p in (1, 2, 3):
            for _ in range(30):
                X = rng.standard_normal((3, 3))
                t = VectorTuple(X, space)
                res = mn.mu_weak(p, t, CFG)
                norms = space.norm_cols(X)
                lo = float(norms.max())
                hi = float((norms**p).sum() ** (1 / p))
                assert res.lower >= lo - 1e-9
                assert res.upper <= hi + 1e-9 or res.lower <= hi + 1e-9


def test_contraction_under_operator():
    rng = np.random.default_rng(37)
    si = SpaceSpec(INF, 4)
    for _ in range(100):
        X = rng.standard_normal((4, 3))
        T = rng.standard_normal((4, 4))
        tn = mn.op_norm_pq(mn.MatrixOp(T, INF, INF), CFG).lower
        before = mn.mu_weak(1, VectorTuple(X, si), CFG).lower
        after = mn.mu_weak(1, VectorTuple(T @ X, si), CFG).lower
        assert after <= tn * before + 1e-8 * max(1.0, tn * before)


def test_pi_summing_examples():
    res = mn.pi_summing(1, 1, SpaceSpec(INF, 3), 3, CFG)
    assert res.kind == "exact" and res.lower == pytest.approx(3.0, abs=1e-12)

    res = mn.pi_summing(1, 1, SpaceSpec(2, 3), 1, CFG)
    assert res.lower == pytest.approx(1.0, abs=1e-9)

    res = mn.pi_summing(2, 2, SpaceSpec(2, 2), 2, CFG)
    assert res.lower == pytest.approx(math.sqrt(2), abs=1e-9)
    assert res.upper == pytest.approx(math.sqrt(2), abs=1e-9)


def test_pi_summing_with_operator():
    T = np.diag([2.0, 1.0])
    s = SpaceSpec(INF, 2)
    res = mn.pi_summing(1, 1, s, 2, CFG, operator=T)
    assert res.lower <= 2 * 2.0 + 1e-9
    assert res.lower >= 2.0 - 1e-9


@pytest.mark.parametrize("weights", [(), (0.5, 1.0, 2.0)])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_pi_summing_lower_reaches_the_operator_norm(seed, weights):
    # a norming vector padded with zeros has mu_{1,n} = 1, so pi_{2,1}^(n)(T) >= ||T||; the two-restart
    # ascent alone stopped short of it (seed 1, unweighted: 1.836 < 1.888)
    T = np.random.default_rng(seed).standard_normal((3, 3))
    space = SpaceSpec(2, 3, weights)
    res = mn.pi_summing(2, 1, space, 3, OptimConfig(seed=1, restarts=2), operator=T)
    norm = mn.summing.op_norm_between(T, space, space, CFG)
    assert norm.kind == "exact"
    assert res.lower >= norm.lower * (1 - 1e-12)
    # the witness is a mu-unit tuple that attains the lower bound
    X = res.witness["tuple"]
    assert mn.mu_weak(1, VectorTuple(X, space), CFG).lower == pytest.approx(1.0, abs=1e-12)
    assert math.sqrt((space.norm_cols(T @ X) ** 2).sum()) == pytest.approx(res.lower, rel=1e-12)


def test_c_n_values():
    res = mn.c_n(SpaceSpec(2, 2), 1, CFG)
    assert res.kind == "exact" and res.lower == pytest.approx(1.0)

    # the Rademacher identity puts c_n >= sqrt(n) on a Hilbert space, and an orthonormal pair meets it
    res = mn.c_n(SpaceSpec(2, 2), 2, CFG)
    assert res.upper == pytest.approx(math.sqrt(2), abs=1e-9)
    assert res.kind == "exact" and res.lower == math.sqrt(2)

    res = mn.c_n(SpaceSpec(1, 2, field="complex"), 2, CFG)
    assert res.upper <= math.sqrt(2) + 0.05


def test_pi_bar_times_c_identity():
    # the witness of c_n yields a lower bound n / c_n for the equal-norm constant
    s = SpaceSpec(2, 3)
    n = 3
    res = mn.c_n(s, n, CFG)
    cols = np.asarray(res.witness["tuple"])
    mu = mn.mu_weak(1, VectorTuple(cols, s), CFG)
    assert mu.kind == "exact"
    norms = s.norm_cols(cols)
    assert np.allclose(norms, 1.0, atol=1e-9)
    pi_bar_lower = norms.sum() / mu.lower
    assert pi_bar_lower == pytest.approx(n / res.upper, rel=1e-6)


def test_roots_of_unity_square_sums():
    for k in (2, 3, 5, 8):
        zeta = np.exp(2j * np.pi / k)
        rng = np.random.default_rng(k)
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        coeff /= np.linalg.norm(coeff)
        z = np.array([sum(coeff[j] * zeta ** ((i + 1) * (j + 1)) for j in range(k)) for i in range(k)])
        assert (np.abs(z) ** 2).sum() == pytest.approx(k, abs=1e-9)
        unimodular = np.exp(2j * np.pi * rng.random(k))
        z = np.array([sum(unimodular[j] * zeta ** ((i + 1) * (j + 1)) for j in range(k)) for i in range(k)])
        assert (np.abs(z) ** 2).sum() == pytest.approx(k**2, abs=1e-9 * k**2)


def test_mu_scale_matches_mu_weak():
    from multinorm.optim import field_normal
    from multinorm.summing import mu_scale

    rng = np.random.default_rng(1234)
    cfg = OptimConfig(seed=8, restarts=2, grid_points=16)
    cases = 0
    for field in ("real", "complex"):
        for r in (1.0, 1.5, 2.0, 3.0, INF):
            for weighted in (False, True):
                for p in (1.0, 1.5, 2.0):
                    for _ in range(3):
                        m, n = int(rng.integers(2, 5)), int(rng.integers(1, 5))
                        weights = tuple(rng.uniform(0.5, 2.0, m)) if weighted else ()
                        space = SpaceSpec(r, m, weights, field)
                        X = field_normal(rng, (m, n), space.is_complex)
                        value, exact = mu_scale(p, X, space, cfg)
                        res = mn.mu_weak(p, VectorTuple(X, space), cfg)
                        # mu_weak is exact where mu_scale is, and elsewhere only where its power ascent met the bound
                        assert res.kind == "exact" if exact else res.kind == "bracket" or res.method == "op_norm_power_ascent"
                        if exact:
                            assert value == res.lower
                        elif p == 1:
                            assert value >= res.upper
                        else:
                            # the Holder bound that is mu_weak's upper side
                            assert value == res.upper
                        assert value >= res.lower
                        cases += 1
    assert cases == 180


def test_real_mu1_point_value_is_mu_weak_bit_for_bit():
    # point_value, evaluate and mu_weak(1) all take the p->q kernel, alone and stacked
    from multinorm.multinorms import point_value

    rng = np.random.default_rng(4800)
    cfg = OptimConfig(seed=8, restarts=2, grid_points=16)
    spec = mn.MultiNormSpec.weak_summing(1)
    cases = 0
    for r in (1.0, 1.5, 2.0, 3.0):
        for weighted in (False, True):
            for m in range(2, 6):
                for n in range(1, 6):
                    space = SpaceSpec(r, m, tuple(rng.uniform(0.5, 2.0, m)) if weighted else ())
                    stack = rng.standard_normal((3, m, n))
                    values = point_value(spec, space, stack, cfg)
                    for X, stacked in zip(stack, values.tolist()):
                        t = VectorTuple(X, space)
                        res = mn.mu_weak(1, t, cfg)
                        ev = mn.evaluate(spec, t, cfg)
                        assert res.kind == ev.kind == "exact"
                        assert point_value(spec, space, X, cfg) == stacked == ev.lower == res.lower, (r, weighted, m, n)
                        cases += 1
    assert cases == 480


def test_weak_summing_2_point_value_equals_mu_weak():
    # exact_evaluator and mu_weak give one exact value for weak_summing(2), alone and stacked
    from multinorm.multinorms import point_value
    from multinorm.optim import field_normal

    rng = np.random.default_rng(77)
    cfg = OptimConfig(seed=8, restarts=2, grid_points=16)
    spec = mn.MultiNormSpec.weak_summing(2)
    for field in ("real", "complex"):
        for weighted in (False, True):
            m = 3
            space = SpaceSpec(2, m, tuple(rng.uniform(0.5, 2.0, m)) if weighted else (), field)
            stack = field_normal(rng, (40, m, 3), space.is_complex)
            values = point_value(spec, space, stack, cfg)
            for X, stacked in zip(stack, values.tolist()):
                want = mn.mu_weak(2, VectorTuple(X, space), cfg)
                assert want.kind == "exact"
                assert point_value(spec, space, X, cfg) == want.lower == stacked


def test_one_column_brackets_keep_lower_below_upper():
    # the power ascent's basis start, the column norm, can round one ulp above the Holder upper side;
    # it meets that side, so the result is exact at it
    X = np.array([[-1.0845999438342624], [-1.4339955619182034]])
    res = mn.mu_weak(1.5, VectorTuple(X, SpaceSpec(1.5, 2)), OptimConfig())
    assert res.kind == "exact" and res.lower == res.upper
    X = np.array([[0.42113113746240616], [-1.054840662577835], [-1.2720782100976422]])
    res = mn.mu_weak(3, VectorTuple(X, SpaceSpec(1.5, 3).dual()), OptimConfig())
    assert res.kind == "exact" and res.lower == res.upper


@pytest.mark.parametrize("field", ["real", "complex"])
def test_mu_weak_brackets_lie_in_the_column_bounds(field):
    # max_j ||x_j|| <= mu_{p,n} <= (sum_j ||x_j||^p)^(1/p): the power ascent starts from every basis
    # vector, and the Holder bound's first term is the column sum, so both hold within rounding
    from multinorm.optim import field_normal

    rng = np.random.default_rng(5150)
    cfg = OptimConfig(seed=5, restarts=2, grid_points=16)
    ulps = 4 * np.finfo(float).eps
    kinds = set()
    for n in range(1, 11):
        for r in (1.0, 1.5, 2.0, 3.0, INF):
            for weighted in (False, True):
                m = int(rng.integers(2, 5))
                space = SpaceSpec(r, m, tuple(rng.uniform(0.5, 2.0, m)) if weighted else (), field)
                X = field_normal(rng, (m, n), space.is_complex)
                norms = space.norm_cols(X)
                for p in (1.0, 1.5, 2.0, 3.0):
                    res = mn.mu_weak(p, VectorTuple(X, space), cfg)
                    kinds.add(res.kind)
                    assert res.lower >= norms.max() * (1 - ulps), (n, r, weighted, p)
                    assert res.upper <= lp_norm(norms, p) * (1 + ulps), (n, r, weighted, p)
                    assert res.lower <= res.upper
    assert kinds == {"exact", "bracket"}


def test_mu_weak_sign_enumeration_at_budget_edge():
    # n = 3 visits 2^(n-1) = 4 pinned sign vectors, exactly max_enum
    from multinorm.summing import mu_scale

    cfg = OptimConfig(max_enum=4)
    space = SpaceSpec(2, 3)
    X = np.random.default_rng(0).standard_normal((3, 3))
    res = mn.mu_weak(1, VectorTuple(X, space), cfg)
    assert res.kind == "exact" and res.method == "op_norm_sign_enum_inputs"
    assert mu_scale(1, X, space, cfg) == (res.lower, True)


def test_pi_summing_below_one_raises():
    # n = 0 failed a reshape
    for n in (0, -1):
        with pytest.raises(mn.SpecError, match="n must be >= 1"):
            mn.pi_summing(1, 1, SpaceSpec(2, 2), n, CFG)
        with pytest.raises(mn.SpecError, match="n must be >= 1"):
            mn.pi_summing(2, 1, SpaceSpec(2, 2), n, CFG, operator=np.eye(2))
