"""Summing constants on Hilbert spaces and the c_n lower bounds, against sign averages and independent searches.

On l^2(w) the Rademacher identity sum_j ||x_j||^2 = avg_eps ||sum_j eps_j x_j||^2 <= mu_{1,n}(x)^2
bounds pi_summing from above and c_n from below; the bounds are checked here against exhaustive
sign averages, a 64-restart search, and random unit tuples.
"""

import itertools
import math

import numpy as np
import pytest

import multinorm as mn
from multinorm import OptimConfig, SpaceSpec, VectorTuple, lp_norm, summing
from multinorm.optim import meets, seeded_ascent, unconstrained

CFG = OptimConfig(seed=11, restarts=2)
WEIGHTS = ((), (0.5, 1.0, 2.0))
FIELDS = ("real", "complex")


def _tuple(rng, sp, n):
    X = rng.standard_normal((sp.dim, n))
    return X + 1j * rng.standard_normal((sp.dim, n)) if sp.is_complex else X


def _signs(n):
    return np.array(list(itertools.product((1.0, -1.0), repeat=n)))


def _sign_mean(sp, X, r):
    """avg over all 2^n real signs eps of ||sum_j eps_j x_j||^r."""
    return float(np.mean(sp.norm_cols(X @ _signs(X.shape[1]).T) ** r))


def _counting(monkeypatch):
    calls = []
    inner = summing.seeded_ascent

    def count(*args, **kwargs):
        calls.append(kwargs["shape"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(summing, "seeded_ascent", count)
    return calls


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("weights", WEIGHTS, ids=("unweighted", "weighted"))
def test_rademacher_identity_against_exhaustive_sign_averages(field, weights):
    rng = np.random.default_rng(3)
    sp = SpaceSpec(2, 3, weights, field)
    for n in (1, 2, 3, 4, 5):
        X = _tuple(rng, sp, n)
        squares = float((sp.norm_cols(X) ** 2).sum())
        assert _sign_mean(sp, X, 2) == pytest.approx(squares, rel=1e-12)
        # mu_{1,n} is a sup over coefficients of modulus 1, so at least the root mean square over signs
        assert math.sqrt(squares) <= mn.mu_weak(1, VectorTuple(X, sp), CFG).upper * (1 + 1e-12)


def _pi_cases():
    for field in FIELDS:
        for weights in WEIGHTS:
            for p in (1, 1.5, 2):
                for q in (1, 1.5, 2, 3):
                    if q >= p:
                        yield field, weights, p, q


@pytest.mark.parametrize("field,weights,p,q", [pytest.param(*c, id=f"{c[0]}-{len(c[1])}w-{c[2]}-{c[3]}") for c in _pi_cases()])
def test_pi_summing_upper_bound_lies_above_a_wide_search(field, weights, p, q):
    # an independent 64-restart climb over tuples scaled into the mu ball by mu_scale's certified upper bound
    rng = np.random.default_rng([int(10 * p), int(10 * q), len(weights), len(field)])
    sp = SpaceSpec(2, 3, weights, field)
    for n, T in ((2, None), (4, rng.standard_normal((3, 3)))):
        A = np.eye(3) if T is None else T
        res = mn.pi_summing(q, p, sp, n, CFG, operator=T)
        score = summing._scaled_score(
            lambda C: summing.mu_scale(p, C, sp, CFG)[0], lambda C, s: A @ C / s, lambda Y: lp_norm(sp.norm_cols(Y), q)
        )
        found, _ = seeded_ascent(
            unconstrained, score, [_tuple(rng, sp, n)], (3, n), OptimConfig(seed=5, restarts=64), sp.is_complex
        )
        assert found <= res.upper * (1 + 1e-9), (n, T is None, found, res)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("weights", WEIGHTS, ids=("unweighted", "weighted"))
def test_exact_cases_run_no_ascent(monkeypatch, field, weights):
    calls = _counting(monkeypatch)
    rng = np.random.default_rng(9)
    sp = SpaceSpec(2, 3, weights, field)
    for n in (1, 2, 3, 4):
        # q >= 2, p = 1: the zero-padded norming tuple of ||T|| meets ||T||
        for q in (2, 3):
            T = rng.standard_normal((3, 3))
            norm = summing.op_norm_between(T, sp, sp, CFG)
            res = mn.pi_summing(q, 1, sp, n, CFG, operator=T)
            assert (res.kind, res.upper) == ("exact", norm.upper)
            assert res.method == ("witness_meets_definitional_upper" if n == 1 else "witness_meets_hilbert_bound")
            X = res.witness["tuple"]
            mu = mn.mu_weak(1, VectorTuple(X, sp), CFG)
            assert meets(mu.lower, mu.upper) and mu.upper == pytest.approx(1.0, rel=1e-9)
            assert lp_norm(sp.norm_cols(T @ X), q) == pytest.approx(norm.upper, rel=1e-9)
    for n in (1, 2, 3):
        # q < 2, p = 1, the identity with n <= dim: the weight-normalized delta tuple meets n^(1/q - 1/2)
        for q in (1, 1.5):
            res = mn.pi_summing(q, 1, sp, n, CFG)
            assert res.kind == "exact" and res.upper == pytest.approx(n ** (1 / q - 0.5), rel=1e-15)
            assert mn.mu_weak(1, VectorTuple(res.witness["tuple"], sp), CFG).kind == "exact"
    assert calls == []


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("weights", WEIGHTS, ids=("unweighted", "weighted"))
def test_unmet_hilbert_bound_still_climbs_under_it(monkeypatch, field, weights):
    calls = _counting(monkeypatch)
    sp = SpaceSpec(2, 3, weights, field)
    # n > dim: an orthonormal tuple has only dim columns, so the Rademacher bound sqrt(n) for (1,1) is not met
    res = mn.pi_summing(1, 1, sp, 4, CFG)
    assert res.kind == "bracket" and res.upper == 2.0 and res.lower < 2.0
    assert calls == [(3, 4)]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("weights", WEIGHTS, ids=("unweighted", "weighted"))
def test_c_n_on_a_hilbert_space(monkeypatch, field, weights):
    calls = _counting(monkeypatch)
    sp = SpaceSpec(2, 3, weights, field)
    for n in (2, 3):
        res = mn.c_n(sp, n, CFG)
        assert (res.kind, res.lower, res.method) == ("exact", math.sqrt(n), "unit_delta_tuple_meets_lower_bound")
        X = res.witness["tuple"]
        assert sp.norm_cols(X) == pytest.approx(np.ones(n), rel=1e-15)
        mu = mn.mu_weak(1, VectorTuple(X, sp), CFG)
        assert mu.kind == "exact" and meets(res.lower, mu.lower)
    assert calls == []
    res = mn.c_n(sp, 4, CFG)
    assert res.kind == "bracket" and res.lower == 2.0 and res.upper >= 2.0
    assert calls == [(3, 4)]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("r", [1.0, 1.5, 3.0])
def test_c_n_lower_bounds_lie_under_random_unit_tuples(field, r):
    # each bound lies under the sign mean its proof goes through, which lies under mu_{1,n} (over C too: real signs
    # are unimodular coefficients)
    rng = np.random.default_rng([int(10 * r), len(field)])
    sp = SpaceSpec(r, 3, (0.5, 1.0, 2.0), field)
    for n in (2, 3, 4, 5):
        bound = summing._c_n_lower(sp, n)
        assert bound == max(1.0, n ** (1 / r) if r >= 2 else math.sqrt(n / 2))
        for _ in range(20):
            X = _tuple(rng, sp, n)
            if rng.random() < 0.5:
                X[rng.random((3, n)) < 0.5] = 0  # sparse tuples come nearer the bound
                X[0, np.all(X == 0, axis=0)] = 1.0
            X = X / sp.norm_cols(X)[None, :]
            assert bound <= _sign_mean(sp, X, r) ** (1 / r) * (1 + 1e-12) or bound == 1.0
            if not sp.is_complex:  # mu_{1,n} is exact over R; over C its torus bound is slow past n = 3
                assert bound <= mn.mu_weak(1, VectorTuple(X, sp), CFG).lower * (1 + 1e-12)
        if n <= 3:
            res = mn.c_n(sp, n, CFG)
            assert res.lower == bound <= res.upper


def test_c_n_lower_bound_on_l1_reaches_the_ascent_task():
    # l^1_3 at n = 3: Khintchine's sqrt(3/2) below, an exact mu of about 1.5 above
    res = mn.c_n(SpaceSpec(1, 3), 3, CFG)
    assert res.kind == "bracket" and res.lower == math.sqrt(1.5) and res.upper == pytest.approx(1.5, abs=1e-3)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("weights", WEIGHTS, ids=("unweighted", "weighted"))
def test_a_tiny_operator_keeps_the_kinds(field, weights):
    # the ceiling and the exact test are relative, so 1e-10 T is exact where T is, at 1e-10 times the value
    rng = np.random.default_rng(13)
    sp = SpaceSpec(2, 3, weights, field)
    c = 1e-10
    for q, p in ((2, 1), (3, 1), (1, 1), (1.5, 1), (2, 2), (2, 1.5)):
        G = rng.standard_normal((3, 3))
        for n in (2, 3):
            a, b = (mn.pi_summing(q, p, sp, n, CFG, operator=T) for T in (G, c * G))
            assert (b.kind, b.method) == (a.kind, a.method), (q, p, n)
            assert b.upper == pytest.approx(c * a.upper, rel=1e-12)
            assert b.lower == pytest.approx(c * a.lower, rel=1e-6)


def test_the_identity_into_another_target_takes_its_norm():
    # the identity l^2_3 -> l^1_3 has norm sqrt(3), attained at (1, 1, 1) / sqrt(3); its norm was once taken as 1
    res = mn.pi_summing(1, 1, SpaceSpec(2, 3), 1, CFG, target=SpaceSpec(1, 3))
    assert res.kind == "exact" and res.upper == pytest.approx(math.sqrt(3), rel=1e-12)
    res = mn.pi_summing(2, 1, SpaceSpec(2, 3), 3, CFG, target=SpaceSpec(1, 3))
    assert res.kind == "exact" and res.upper == pytest.approx(math.sqrt(3), rel=1e-12)
