"""Property tests: certificates stay ordered, exact values are homogeneous and phase-blind."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import multinorm as mn
from multinorm.multinorms import is_exact_path
from multinorm.optim import field_normal
from multinorm.spaces import conjugate_index, delta_tuple, lp_norm
from multinorm.summing import mu_scale

S = mn.MultiNormSpec
INF = math.inf
RS = (1.0, 1.5, 2.0, 3.0, INF)
LIGHT = mn.OptimConfig(seed=11, restarts=1, grid_points=16)
ENTRY = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


def tuples(space, n):
    re = arrays(np.float64, (space.dim, n), elements=ENTRY)
    if not space.is_complex:
        return re
    return st.tuples(re, arrays(np.float64, (space.dim, n), elements=ENTRY)).map(lambda ab: ab[0] + 1j * ab[1])


# spec makers: space -> a spec valid on it, or None where the variant does not apply
EXACT = {
    "min": lambda sp: S.min_spec(),
    "lattice": lambda sp: S.lattice(),
    "dual_lattice": lambda sp: S.dual_lattice(),
    "lp_sum(1)": lambda sp: S.lp_sum(1),
    "lp_sum(2)": lambda sp: S.lp_sum(2),
    "weak_summing(inf)": lambda sp: S.weak_summing(INF),
    "partition": lambda sp: S.partition([[0], list(range(1, sp.dim))] if sp.dim > 1 else [[0]]),
    "extended": lambda sp: S.extended(S.lattice(), [np.eye(sp.dim), np.roll(np.eye(sp.dim), 1, axis=0)]),
    "standard_q(p)": lambda sp: S.standard_q(sp.p) if sp.p != INF else None,
    "max(l1)": lambda sp: S.max_spec() if sp.p == 1 else None,
    "weak_summing(2)": lambda sp: S.weak_summing(2) if sp.p in (2, INF) else None,
    "weak_summing(1)": lambda sp: S.weak_summing(1) if not sp.is_complex else None,
    "generated": lambda sp: S.generated(mn.band_family(sp)) if sp.dim <= 2 else None,
}
SEARCH = {
    "pq(1,2)": lambda sp: S.pq_spec(1, 2),
    "pq(1.5,3)": lambda sp: S.pq_spec(1.5, 3),
    "pq(2,2)": lambda sp: S.pq_spec(2, 2) if sp.p == 2 else None,
    "max": lambda sp: S.max_spec(),
    "hilbert": lambda sp: S.hilbert() if sp.p == 2 else None,
    "numerical_dual(lattice)": lambda sp: S.numerical_dual(S.lattice()),
    "numerical_dual(min)": lambda sp: S.numerical_dual(S.min_spec()),
    "weak_summing(1.5)": lambda sp: S.weak_summing(1.5),
    "weak_summing(1)": lambda sp: S.weak_summing(1),
    "standard_q(p+1)": lambda sp: S.standard_q(sp.p + 1) if sp.p != INF else None,
}


def _case(data, make, max_dim, max_n, field=None):
    """A weighted or unweighted space on which make gives a spec, a tuple in it, and the spec."""
    fields = [field] if field else ["real", "complex"]
    shapes = [(f, r, m) for f in fields for r in RS for m in range(1, max_dim + 1) if make(mn.SpaceSpec(r, m, (), f)) is not None]
    field, r, m = data.draw(st.sampled_from(shapes))
    weights = tuple(data.draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m))) if data.draw(st.booleans()) else ()
    space = mn.SpaceSpec(r, m, weights, field)
    n = data.draw(st.integers(1, max_n))
    return space, n, data.draw(tuples(space, n)), make(space)


@pytest.mark.parametrize("name", list(EXACT) + [f"search:{k}" for k in SEARCH])
@settings(max_examples=12)
@given(data=st.data())
def test_evaluate_lower_never_above_upper(name, data):
    make = SEARCH[name[7:]] if name.startswith("search:") else EXACT[name]
    space, _, X, spec = _case(data, make, 3, 3)
    res = mn.evaluate(spec, mn.VectorTuple(X, space), LIGHT)
    assert math.isfinite(res.lower)
    assert res.lower <= res.upper, res
    if res.kind == "exact":
        assert res.lower == res.upper


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


@pytest.mark.parametrize("name", list(EXACT))
@settings(max_examples=15)
@given(data=st.data())
def test_exact_paths_are_homogeneous(name, data):
    space, n, X, spec = _case(data, EXACT[name], 4, 4)
    assert is_exact_path(spec, space, n, LIGHT)
    c = data.draw(st.floats(-8.0, 8.0, allow_nan=False))
    if space.is_complex:
        c = c * np.exp(1j * data.draw(st.floats(0.0, 2 * math.pi)))
    base = mn.evaluate(spec, mn.VectorTuple(X, space), LIGHT)
    scaled = mn.evaluate(spec, mn.VectorTuple(c * X, space), LIGHT)
    assert base.kind == scaled.kind == "exact"
    assert _close(scaled.lower, abs(c) * base.lower)


@pytest.mark.parametrize("name", [k for k in EXACT if k != "weak_summing(1)"])
@settings(max_examples=15)
@given(data=st.data())
def test_exact_paths_ignore_column_phases_over_c(name, data):
    # (A2) both ways: unimodular column scalars leave every multi-norm unchanged
    space, n, X, spec = _case(data, EXACT[name], 4, 4, field="complex")
    assert is_exact_path(spec, space, n, LIGHT)
    theta = np.asarray(data.draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n)))
    base = mn.evaluate(spec, mn.VectorTuple(X, space), LIGHT)
    turned = mn.evaluate(spec, mn.VectorTuple(X * np.exp(1j * theta)[None, :], space), LIGHT)
    assert base.kind == turned.kind == "exact"
    assert _close(turned.lower, base.lower)


# search lower bounds never exceed the closed forms of acceptance criteria 3, 6 and 10
PQ_INDICES = (1.0, 1.5, 2.0, 3.0)


def _weights(data, m):
    return tuple(data.draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m))) if data.draw(st.booleans()) else ()


def _below(lower, closed):
    assert lower <= closed + 1e-12 * max(1.0, closed), (lower, closed)


@settings(max_examples=12)
@given(data=st.data())
def test_pq_lower_on_unit_basis_tuples_within_n_to_the_1_over_q(data):
    # criterion 3: n disjointly supported unit vectors of l^r have (p,q)-multi-norm n^(1/q) when p >= r
    r = data.draw(st.sampled_from(PQ_INDICES))
    p = data.draw(st.sampled_from([s for s in PQ_INDICES if s >= r]))
    q = data.draw(st.sampled_from([s for s in PQ_INDICES if s >= p]))
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, m))
    space = mn.SpaceSpec(r, m, _weights(data, m), data.draw(st.sampled_from(["real", "complex"])))
    X = delta_tuple(m, n, space.is_complex) / (space.w[:, None] ** (1.0 / r))
    res = mn.evaluate(S.pq_spec(p, q), mn.VectorTuple(X, space), LIGHT)
    _below(res.lower, n ** (1.0 / q))


@pytest.mark.parametrize("spec", [S.hilbert(), S.pq_spec(2, 2)], ids=["hilbert", "pq(2,2)"])
@settings(max_examples=12)
@given(data=st.data())
def test_index2_lower_on_diagonal_tuples_within_weighted_l2_of_beta(spec, data):
    # criterion 6: the tuple (beta_k delta_k) has hilbert and (2,2) value ||beta|| in the weighted l^2 norm
    m = data.draw(st.integers(1, 4))
    space = mn.SpaceSpec(2.0, m, _weights(data, m), data.draw(st.sampled_from(["real", "complex"])))
    beta = data.draw(tuples(space, 1))[:, 0]
    res = mn.evaluate(spec, mn.VectorTuple(np.diag(beta), space), LIGHT)
    _below(res.lower, space.norm(beta))


@settings(max_examples=12)
@given(data=st.data())
def test_pq1q_lower_on_l1_within_exact_standard_q(data):
    # criterion 10: on L^1 the (1,q)-multi-norm is the standard q-multi-norm
    m = data.draw(st.integers(1, 3))
    space = mn.SpaceSpec(1.0, m, _weights(data, m))
    t = mn.VectorTuple(data.draw(tuples(space, data.draw(st.integers(1, 3)))), space)
    q = data.draw(st.sampled_from(PQ_INDICES))
    exact = mn.evaluate(S.standard_q(q), t, LIGHT)
    assert exact.kind == "exact"
    _below(mn.evaluate(S.pq_spec(1, q), t, LIGHT).lower, exact.lower)


@pytest.mark.parametrize("base, closed", [(S.lattice(), S.dual_lattice()), (S.min_spec(), S.lp_sum(1))], ids=["lattice", "min"])
@settings(max_examples=12)
@given(data=st.data())
def test_numerical_dual_lower_within_exact_closed_form_dual(base, closed, data):
    # criterion 9: the dual of the lattice multi-norm is the dual lattice one, the dual of min is the l^1 sum
    r = data.draw(st.sampled_from(RS))
    m = data.draw(st.integers(1, 3))
    space = mn.SpaceSpec(r, m, _weights(data, m), data.draw(st.sampled_from(["real", "complex"])))
    t = mn.VectorTuple(data.draw(tuples(space, data.draw(st.integers(1, 3)))), space)
    exact = mn.evaluate(closed, t, LIGHT)
    assert exact.kind == "exact"
    _below(mn.evaluate(S.numerical_dual(base), t, LIGHT).lower, exact.lower)


# every search lower bound comes from its witness: the witness is feasible and attains the bound


def _witness_value(spec, space, X, witness, cfg):
    """(the value witness attains in spec's search on the tuple X, whether witness is feasible there)."""
    v = spec.variant
    if v == "weak_summing":
        c = witness["coefficients"]
        return space.norm(X @ c), lp_norm(c, conjugate_index(spec.p)) <= 1 + 1e-12
    if v in ("pq", "max", "hilbert"):
        # max is the (1,1) multi-norm and hilbert the (2,2) one
        L = witness["functionals"]
        p, q = {"max": (1.0, 1.0), "hilbert": (2.0, 2.0)}.get(v, (spec.p, spec.q))
        return lp_norm((space.w[:, None] * X * L).sum(axis=0), q), mu_scale(p, L, space.dual(), cfg)[0] <= 1 + 1e-12
    if v == "numerical_dual":
        primal = space.dual()
        membership = mn.evaluate(spec.base, mn.VectorTuple(witness, primal), cfg)
        return abs((primal.w[:, None] * witness * X).sum()), membership.kind == "exact" and membership.lower <= 1 + 1e-12
    assert v == "standard_q"
    owner = witness["assignment"]
    return lp_norm([space.norm(np.where(owner == j, X[:, j], 0.0)) for j in range(X.shape[1])], spec.q), True


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("name", list(SEARCH))
def test_search_witness_attains_its_lower_bound(name, field):
    rng = np.random.default_rng(41)
    for trial in range(12):
        r = RS[trial % len(RS)]
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        space = mn.SpaceSpec(r, m, tuple(rng.uniform(0.5, 2.0, m)) if trial % 2 else (), field)
        spec = SEARCH[name](space)
        if spec is None:
            continue
        # the small budget sends real mu_1 and standard_q past their enumerations, onto the search
        cfg = LIGHT if trial % 4 < 2 else replace(LIGHT, max_enum=4)
        X = field_normal(rng, (m, n), space.is_complex)
        res = mn.evaluate(spec, mn.VectorTuple(X, space), cfg)
        if res.kind == "exact":
            continue
        value, feasible = _witness_value(spec, space, X, res.witness, cfg)
        assert feasible, (trial, res)
        assert res.lower - value <= 1e-12 * max(1.0, res.lower), (trial, res.lower, value, res.method)


@settings(max_examples=200)
@given(
    s=arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
        elements=st.one_of(st.floats(0.0, allow_nan=False, allow_subnormal=True), st.sampled_from([0.0, 5e-324, 2.2e-308, INF])),
    )
)
def test_root_at_index_one_is_the_identity(s):
    # x ** (1 / 1) == x for every double, subnormals and inf included, at every stack shape
    from multinorm.spaces import _root

    got = _root(s, 1.0)
    assert got.dtype == s.dtype and got.shape == s.shape
    assert np.array_equal(got.view(np.uint64), s.view(np.uint64))
