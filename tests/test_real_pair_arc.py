"""The (1,q)-multi-norm of a real 2-tuple by arc bisection.

Over R, l^inf_2 is isometric to l^1_2, so the projective norm of c o x on
l^inf_2 (x) E is F(c) = (||c1 x1 + c2 x2|| + ||c1 x1 - c2 x2||) / 2, and
||x||_(1,q) is the maximum of F over the quarter arc {c >= 0, ||c||_{q'} = 1}.
F is convex and nondecreasing in each c_j, so _arc_max certifies the
maximum.  Each result is checked against a dense sample of F, its
witness's mu_1 and pairings, and the seeded_ascent climb it replaced.
"""

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MultiNormSpec as S, OptimConfig, SpaceSpec, VectorTuple
from multinorm import multinorms
from multinorm.spaces import conjugate_index, lp_norm

from test_pq_holder import _frozen_ascent, _value

CFG = OptimConfig(seed=11, restarts=2, grid_points=32)
RS = (1.5, 2.0, 3.0, INF)
WEIGHTS = ((), (0.5, 2.0, 1.25))
QS = (1.2, 2.0, 3.0, 6.0)
EPS = np.finfo(float).eps


def _arc_sample(space, X, q, points=200_000):
    """F at `points` points of the l^{q'} quarter arc, evaluated directly from the norm's definition."""
    theta = np.linspace(0.0, np.pi / 2, points)
    C = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    C = C / lp_norm(C, conjugate_index(q))[:, None]
    u, v = C[:, :1] * X[:, 0], C[:, 1:] * X[:, 1]

    def norm(Y):
        a = np.abs(Y)
        return a.max(axis=1) if space.p == INF else ((space.w * a**space.p).sum(axis=1)) ** (1 / space.p)

    return (norm(u + v) + norm(u - v)) / 2


def _mu1(space, L):
    """The real mu_{1,2} of a functional pair: max over signs of ||lambda_1 +- lambda_2|| in E'."""
    dual = space.dual()
    return max(dual.norm(L[:, 0] + L[:, 1]), dual.norm(L[:, 0] - L[:, 1]))


@pytest.mark.parametrize("r", RS)
@pytest.mark.parametrize("weights", WEIGHTS)
def test_real_pairs_are_exact_by_arc_bisection(r, weights):
    rng = np.random.default_rng([41, int(min(r, 9) * 10), len(weights)])
    sp = SpaceSpec(r, 3, weights)
    for q in QS:
        for _ in range(2):
            X = rng.standard_normal((3, 2))
            res = mn.evaluate(S.pq_spec(1, q), VectorTuple(X, sp), CFG)
            assert (res.kind, res.method) == ("exact", "real_pair_arc_bisection"), (r, q, res)
            assert multinorms._search_bounds(S.pq_spec(1, q), sp, X, CFG)[0] == res.upper
            # the witness is feasible and its pairings give the value
            L = res.witness["functionals"]
            assert L.dtype == float
            assert _mu1(sp, L) <= 1 + 1e-12, (r, q)
            assert _value(sp, X, L, q) == pytest.approx(res.lower, rel=1e-9)
            # no point of a dense arc passes the certified value
            assert _arc_sample(sp, X, q).max() <= res.upper * (1 + 1e-12), (r, q)
            # and the climb it replaced never found more, up to the rounding of its own met bound
            want, _ = _frozen_ascent(sp, X, 1, q, CFG)
            assert res.lower >= want or want <= res.upper * (1 + 4 * EPS), (r, q, res.lower, want)


def test_the_arc_gap_is_relative():
    # 1e-10 X and 1e10 X stay exact and scale the value: no absolute stopping gain
    rng = np.random.default_rng(42)
    for r in RS:
        sp = SpaceSpec(r, 3, (0.5, 2.0, 1.25))
        for q in (1.2, 2.0, 6.0):
            X = rng.standard_normal((3, 2))
            base = mn.evaluate(S.pq_spec(1, q), VectorTuple(X, sp), CFG)
            for c in (1e-10, 1e10):
                res = mn.evaluate(S.pq_spec(1, q), VectorTuple(c * X, sp), CFG)
                assert (res.kind, res.method) == (base.kind, base.method) == ("exact", "real_pair_arc_bisection")
                assert res.lower == pytest.approx(c * base.lower, rel=1e-12), (r, q, c)


def test_a_flat_arc_ends_in_a_tight_valid_bracket():
    # an orthonormal pair on l^2 gives F(c) = ||c||_2 = 1 on the whole q = 2 arc: no piece closes, and the open-piece
    # cap ends the halving with a bracket around 1 far inside the q-sum and root bounds (sqrt 2)
    sp = SpaceSpec(2, 3)
    Q, _ = np.linalg.qr(np.random.default_rng(43).standard_normal((3, 3)))
    X = Q[:, :2]
    assert not multinorms._disjoint(X)
    res = mn.evaluate(S.pq_spec(1, 2), VectorTuple(X, sp), CFG)
    assert (res.kind, res.method) == ("bracket", "real_pair_arc_bisection")
    assert res.lower <= 1 + 1e-12 and res.lower == pytest.approx(1.0, rel=1e-12)
    assert 1.0 <= res.upper < 1 + 1e-6
    assert res.upper <= multinorms._pq_upper(sp, X, 2, CFG)
    assert res.lower <= res.upper
    assert _mu1(sp, res.witness["functionals"]) <= 1 + 1e-12


@pytest.mark.parametrize("r", RS)
def test_a_pair_with_a_zero_column(r):
    # the disjoint closed form takes it first (||x1||); the arc alone gives the same value at c = (1, 0)
    sp = SpaceSpec(r, 3, (0.5, 2.0, 1.25))
    x = np.random.default_rng(44).standard_normal(3)
    X = np.stack([x, np.zeros(3)], axis=1)
    for q in QS:
        res = mn.evaluate(S.pq_spec(1, q), VectorTuple(X, sp), CFG)
        assert (res.kind, res.method) == ("exact", "disjoint_closed_form")
        assert res.lower == pytest.approx(sp.norm(x), rel=1e-15)
        lower, upper, L = multinorms._real_pair_arc(sp, X, q)
        # the witness's value and the arc bound round apart by an ulp or so; NormValue.certified orders them
        assert lower <= upper * (1 + 4 * EPS) and lower == pytest.approx(sp.norm(x), rel=1e-12)
        assert upper <= sp.norm(x) * (1 + 1e-9)
        assert _mu1(sp, L) <= 1 + 1e-12 and not L[:, 1].any()
