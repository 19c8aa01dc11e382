"""Robustness sweep: every variant on assorted spaces, certificates sane."""

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MultiNormSpec as Spec, OptimConfig, SpaceSpec, VectorTuple

LIGHT = OptimConfig(seed=1234, restarts=2)


def spaces():
    yield SpaceSpec(1, 2)
    yield SpaceSpec(1.5, 3, (1.0, 0.5, 2.0))
    yield SpaceSpec(2, 3)
    yield SpaceSpec(3, 2)
    yield SpaceSpec(INF, 3)
    yield SpaceSpec(2, 2, field="complex")
    yield SpaceSpec(1, 2, (2.0, 1.0), field="complex")


def specs_for(space):
    yield Spec.min_spec()
    yield Spec.lattice()
    yield Spec.dual_lattice()
    yield Spec.lp_sum(1)
    yield Spec.lp_sum(2)
    yield Spec.weak_summing(1)
    yield Spec.weak_summing(2)
    yield Spec.max_spec()
    yield Spec.pq_spec(1, 2)
    yield Spec.numerical_dual(Spec.lattice())
    if space.p != INF:
        yield Spec.standard_q(space.p)
        yield Spec.standard_q(space.p + 1)
    if space.p == 2:
        yield Spec.hilbert()
        yield Spec.pq_spec(2, 2)
    blocks = [[k] for k in range(space.dim)]
    yield Spec.partition(blocks)
    yield Spec.extended(Spec.min_spec(), [np.eye(space.dim)])


def test_every_variant_returns_sane_certificates():
    rng_master = np.random.default_rng(4321)
    for space in spaces():
        for spec in specs_for(space):
            for n in (1, 2, 3):
                X = rng_master.standard_normal((space.dim, n))
                if space.is_complex:
                    X = X + 1j * rng_master.standard_normal((space.dim, n))
                tuple_space = space.dual() if spec.variant == "numerical_dual" else space
                t = VectorTuple(X, tuple_space)
                res = mn.evaluate(spec, t, LIGHT)
                label = f"{spec.variant} on p={space.p} dim={space.dim} {space.field} n={n}"
                assert res.lower >= -1e-12, label
                assert res.lower <= res.upper + 1e-9 * max(1.0, abs(res.upper)), label
                if res.kind == "exact":
                    assert res.upper == res.lower, label
                # absolute homogeneity of the point estimate on exact paths
                if res.kind == "exact":
                    res2 = mn.evaluate(spec, VectorTuple(2.5 * X, tuple_space), LIGHT)
                    assert res2.lower == pytest.approx(2.5 * res.lower, rel=1e-10), label


def test_zero_tuple_is_zero_everywhere():
    for space in spaces():
        Z = np.zeros((space.dim, 2))
        for spec in (Spec.min_spec(), Spec.lattice(), Spec.dual_lattice(), Spec.weak_summing(1), Spec.max_spec()):
            res = mn.evaluate(spec, VectorTuple(Z, space), LIGHT)
            assert res.lower == pytest.approx(0.0, abs=1e-12)


def test_single_entry_tuple_reduces_to_vector_norm():
    rng = np.random.default_rng(5)
    for space in spaces():
        x = rng.standard_normal(space.dim)
        expected = space.norm(x)
        for spec in (
            Spec.min_spec(),
            Spec.lattice(),
            Spec.dual_lattice(),
            Spec.lp_sum(2),
            Spec.weak_summing(1),
            Spec.weak_summing(2),
            Spec.max_spec(),
        ):
            res = mn.evaluate(spec, VectorTuple(x[:, None], space), LIGHT)
            assert res.lower == pytest.approx(expected, abs=1e-9), spec.variant
            assert res.upper == pytest.approx(expected, abs=1e-6), spec.variant
