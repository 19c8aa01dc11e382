"""The Holder alternation of the dense (p,q) and max norms, and the search-free upper bounds of search bases.

Where optim._op_norm_rule gives no exact mu_{p,n} for the functional
tuples, _pq_value projects by the Holder bound min(A, B), so every point a
climb reaches lies in {A <= 1} or {B <= 1}; the sup_A closed form and the
monotone alternation over mu >= 0, ||mu||_{q'} = 1 replace the climb there.
Each result is checked against a frozen copy of the seeded_ascent climb it
replaced, and its witness against a grid estimate of mu_{p,n}.
"""

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MultiNormSpec as S, OptimConfig, SpaceSpec, VectorTuple
from multinorm import multinorms, summing
from multinorm.optim import _op_norm_rule, field_normal, meets, seeded_ascent
from multinorm.spaces import conjugate_index, lp_norm

from test_certified_exit import _mu_on_a_grid

CFG = OptimConfig(seed=11, restarts=2, grid_points=32)
FIELDS = ("real", "complex")
WEIGHTS = ((), (0.5, 2.0, 1.25, 0.8))
RS = (1.0, 1.5, 2.0, 3.0, INF)
# q = p, q > p, q < p and q = inf; (1, 1) is the (1,1) value behind the max multi-norm.  A pq spec needs
# p <= q < inf, so the last four reach _pq_value directly (the sup_A closed form is only loose for q < p)
PQS = ((1, 1), (1, 2), (1.5, 3), (2, 3), (3, 3), (1.5, 1.2), (3, 2), (1.5, INF), (2.5, INF))


def _pq(sp, p, q, X):
    t = VectorTuple(X, sp)
    return mn.evaluate(S.pq_spec(p, q), t, CFG) if p <= q < INF else multinorms._pq_value(S.pq_spec(p, q), t, CFG)


def _frozen_ascent(space, X, p, q, cfg):
    """_pq_value's climb as it was before the alternation: seeded_ascent over mu_scale-projected functionals, the
    q-sum and root bounds as its ceiling; returns the (lower bound, functionals) it reported, the bound where met."""
    dual = space.dual()
    upper = min(lp_norm(space.norm_cols(X), q), multinorms._roots_upper(space, X, cfg))

    def project(Ls):
        scale, _ = summing.mu_scale(p, Ls, dual, cfg)
        ok = (scale > 0) & np.isfinite(scale)
        out = Ls.copy()
        out[ok] = Ls[ok] / scale[ok][:, None, None]
        return out, ok

    def value(Ls):
        return lp_norm(np.abs(multinorms._pairings(space, X, Ls)), q)

    val, L = seeded_ascent(project, value, multinorms._pq_seeds(space, X), X.shape, cfg, space.is_complex, ceiling=upper)
    return (upper if meets(val, upper) else min(max(val, 0.0), upper)), L


def _rule_none(space, p, n):
    return _op_norm_rule(conjugate_index(p), conjugate_index(space.p), space.is_complex, space.dim, n, CFG.max_enum) is None


def _dense_cases(rule_none=True):
    """(space, p, q, X): dense tuples on 4-dimensional spaces, n = 2-4, the roles with (True) or without (False) a rule."""
    rng = np.random.default_rng(31)
    for field in FIELDS:
        for weights in WEIGHTS:
            for r in RS:
                sp = SpaceSpec(r, 4, weights, field)
                for i, (p, q) in enumerate(PQS):
                    n = 2 + (i + len(weights)) % 3
                    if r == 1 and n == 2 or p == 2 and r == 2:
                        continue  # the l^1 arc bisection and the spectral polish
                    if _rule_none(sp, p, n) == rule_none:
                        yield sp, p, q, field_normal(rng, (4, n), sp.is_complex)


def _value(space, X, L, q):
    return lp_norm(np.abs(multinorms._pairings(space, X, L)), q)


def test_rule_none_roles_are_covered():
    cases = list(_dense_cases())
    assert {sp.p for sp, *_ in cases} == {1.5, 2.0, 3.0, INF}
    assert {(p, q) for _, p, q, _ in cases} == set(PQS)
    assert {X.shape[1] for *_, X in cases} == {2, 3, 4}
    assert {sp.field for sp, *_ in cases} == set(FIELDS)
    assert {sp.weights for sp, *_ in cases} == {(1.0,) * 4, WEIGHTS[1]}


@pytest.mark.parametrize("field", FIELDS)
def test_alternation_is_no_lower_than_the_climb_it_replaced(field):
    # the witness is feasible (mu_{p,n} <= 1 on a dense grid) and its pairings give the reported lower bound
    rng = np.random.default_rng([32, field == "complex"])
    seen = 0
    for sp, p, q, X in _dense_cases():
        if sp.field != field:
            continue
        res = _pq(sp, p, q, X)
        assert res.method == "pq_holder_alternation", (p, q, sp.to_json())
        want, _ = _frozen_ascent(sp, X, p, q, CFG)
        assert res.lower >= want, (p, q, sp.to_json(), res.lower, want)
        assert res.upper == min(lp_norm(sp.norm_cols(X), q), multinorms._roots_upper(sp, X, CFG))
        L = res.witness["functionals"]
        assert L.dtype == X.dtype
        assert _mu_on_a_grid(sp, L, p, rng) <= 1 + 1e-12, (p, q, sp.to_json())
        if res.kind == "exact":
            assert _value(sp, X, L, q) >= res.upper * (1 - 1e-9)
        else:
            assert _value(sp, X, L, q) == pytest.approx(res.lower, rel=1e-13)
        seen += 1
    assert seen >= 40


def _G(space, X, mu, p):
    """||k -> ||(mu_j |x_jk|)_j||_{p'}||_{L^r(w)}, the sup of the pairing sum_j mu_j <x_j, lambda_j> over B(lambda) <= 1."""
    g = lp_norm(mu * np.abs(X), conjugate_index(p))
    return lp_norm(g, space.p, w=None if space.p == INF else space.w)


def _B(space, L, p):
    """||k -> ||(lambda_jk)_j||_p||_{L^{r'}(w)}, the second Holder bound of mu_{p,n}(lambda)."""
    rd = conjugate_index(space.p)
    return lp_norm(lp_norm(L, p), rd, w=None if rd == INF else space.w)


def test_alternation_witness_is_on_the_b_sphere_above_its_starts():
    # B(lambda) = 1 and the pairings are nonnegative; the climb is monotone from e_j and the uniform start, so the
    # pairings' q-norm is at least G there
    for sp, p, q, X in _dense_cases():
        n = X.shape[1]
        L = multinorms._pq_holder_alternation(sp, X, p, q, CFG)
        assert _B(sp, L, p) == pytest.approx(1.0, rel=1e-12)
        c = multinorms._pairings(sp, X, L)
        assert np.all(np.abs(np.imag(c)) <= 1e-12 * np.abs(c).max()) and np.all(np.real(c) >= 0)
        qd = conjugate_index(q)
        starts = np.concatenate([np.eye(n), np.ones((1, n)) / lp_norm(np.ones(n), qd)])
        assert lp_norm(np.abs(c), q) >= max(_G(sp, X, mu, p) for mu in starts) * (1 - 1e-12), (p, q, sp.to_json())


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0, INF])
def test_complex_max_reaches_the_lattice_norm(r):
    # at p = q = 1 the first step takes mu = 1, whose G is ||V_j |x_j| ||: the max multi-norm is at least that
    rng = np.random.default_rng([33, int(min(r, 9) * 10)])
    for weights in WEIGHTS:
        sp = SpaceSpec(r, 4, weights, "complex")
        for n in (3, 4):
            t = VectorTuple(field_normal(rng, (4, n), True), sp)
            res = mn.evaluate(S.max_spec(), t, CFG)
            lattice = mn.evaluate(S.lattice(), t, CFG)
            assert res.method == "pq11_holder_alternation_roots_upper"
            assert res.lower >= lattice.lower * (1 - 1e-15), (r, weights, n, res.lower, lattice.lower)
            assert res.lower >= _frozen_ascent(sp, t.columns, 1, 1, CFG)[0]


def test_a_tiny_tuple_scales_its_result_and_keeps_its_kind():
    # the alternation runs on X / max_j ||x_j||, so its stopping gain is relative and 1e-10 X climbs as X does
    c = 1e-10
    kinds = set()
    for sp, p, q, X in _dense_cases():
        big, small = (_pq(sp, p, q, Y) for Y in (X, c * X))
        assert (small.kind, small.method) == (big.kind, big.method), (p, q, sp.to_json())
        assert small.lower == pytest.approx(c * big.lower, rel=1e-12) and small.upper == pytest.approx(c * big.upper, rel=1e-12)
        kinds.add(big.kind)
    assert kinds == {"bracket", "exact"}


def test_exact_mu_roles_keep_the_climb():
    # where mu_{p,n} is exact for every functional tuple the climb stays: bit for bit the frozen ascent's result
    seen = set()
    for sp, p, q, X in _dense_cases(rule_none=False):
        res = _pq(sp, p, q, X)
        val, L = _frozen_ascent(sp, X, p, q, CFG)
        assert res.method == "pq_ball_ascent"
        assert np.array_equal(res.witness["functionals"], L)
        assert res.lower == val
        seen.add((sp.p, sp.field))
    assert {(1.0, "real"), (1.0, "complex"), (INF, "real"), (1.5, "real")} <= seen


@pytest.mark.parametrize("field", FIELDS)
def test_search_bases_scale_by_their_upper_bound_without_a_search(field, monkeypatch):
    # _source_scale gives a pq, max or hilbert tuple evaluate's upper bound bit for bit, and runs no evaluate
    rng = np.random.default_rng([34, field == "complex"])
    evaluate, ran = multinorms.evaluate, []
    monkeypatch.setattr(multinorms, "evaluate", lambda *a, **k: ran.append(a[0]) or evaluate(*a, **k))
    specs = [S.pq_spec(1, 2), S.pq_spec(1.5, 3), S.pq_spec(2, 2), S.pq_spec(3, 3), S.max_spec(), S.hilbert()]
    for r in RS:
        for weights in ((), (0.5, 2.0, 1.25)):
            sp = SpaceSpec(r, 3, weights, field)
            for spec in specs:
                if spec.variant == "hilbert" and r != 2:
                    continue
                for n in (1, 2, 3):
                    C = field_normal(rng, (3, 3, n), sp.is_complex)
                    C[1, rng.integers(3), :] = 0  # a zero coordinate
                    C[2] = 0
                    C[2, np.arange(n) % 3, np.arange(n)] = rng.uniform(0.5, 2.0, n)  # disjoint supports for n <= 3
                    want = [evaluate(spec, VectorTuple(X, sp), CFG).upper for X in C]
                    scale, heuristic = multinorms._source_scale(spec, sp, CFG)
                    assert scale(C).tolist() == want, (spec.to_json(), sp.to_json(), n)
                    assert ran == [] and not heuristic[0]
