import math

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MultiNormSpec as Spec, OptimConfig, SpaceSpec, VectorTuple
from multinorm.multinorms import point_value

CFG = OptimConfig(seed=2024)


def deltas(space, n):
    X = np.zeros((space.dim, n))
    for j in range(n):
        X[j, j] = 1.0
    return VectorTuple(X, space)


def test_evaluate_examples():
    s1 = SpaceSpec(1, 2)
    t = VectorTuple.of(s1, [1, 0], [0, 1])
    assert mn.evaluate(Spec.lattice(), t, CFG).lower == pytest.approx(2.0)
    assert mn.evaluate(Spec.standard_q(2), t, CFG).lower == pytest.approx(math.sqrt(2))

    for r in (1, 1.5, 2):
        for n in (2, 3):
            sr = SpaceSpec(r, 3)
            res = mn.evaluate(Spec.max_spec(), deltas(sr, n), CFG)
            assert res.lower <= n ** (1 / r) + 1e-9
            assert res.upper >= n ** (1 / r) - 1e-9
            assert res.upper - res.lower <= 5e-2

    # (p,q) on delta tuples with p >= r
    for r, p, q in [(1, 1, 2), (1.5, 2, 2), (2, 2, 3), (1, 2, 2)]:
        sr = SpaceSpec(r, 3)
        res = mn.evaluate(Spec.pq_spec(p, q), deltas(sr, 3), CFG)
        assert res.lower == pytest.approx(3 ** (1 / q), abs=1e-6)
        assert res.upper == pytest.approx(3 ** (1 / q), abs=1e-12)

    s2 = SpaceSpec(2, 3)
    beta = np.array([2.0, -3.0, 1.0])
    t = VectorTuple(np.diag(beta), s2)
    res = mn.evaluate(Spec.hilbert(), t, CFG)
    assert res.lower == pytest.approx(float(np.linalg.norm(beta)), abs=1e-6)

    x = np.array([3.0, 4.0, 0.0])
    assert mn.evaluate(Spec.min_spec(), VectorTuple(x[:, None], s2), CFG).lower == pytest.approx(5.0)


def test_evaluate_dual_lattice_and_lp_sum():
    s = SpaceSpec(2, 2)
    t = VectorTuple.of(s, [1, 0], [0, 1])
    assert mn.evaluate(Spec.dual_lattice(), t, CFG).lower == pytest.approx(math.sqrt(2))
    assert mn.evaluate(Spec.lp_sum(2), t, CFG).lower == pytest.approx(math.sqrt(2))
    assert mn.evaluate(Spec.lp_sum(1), t, CFG).lower == pytest.approx(2.0)


def test_partition_variant():
    s = SpaceSpec(2, 4)
    blocks = [[0, 1], [2, 3]]
    t = VectorTuple.of(s, [1, 0, 0, 0], [0, 0, 1, 0])
    res = mn.evaluate(Spec.partition(blocks), t, CFG)
    # each block holds one unit vector: (1^2 + 1^2)^(1/2)
    assert res.kind == "exact" and res.lower == pytest.approx(math.sqrt(2))
    single = Spec.partition([[0, 1, 2, 3]])
    assert mn.evaluate(single, t, CFG).lower == pytest.approx(1.0)  # one block = min norm
    fine = Spec.partition([[0], [1], [2], [3]])
    assert mn.evaluate(fine, t, CFG).lower == pytest.approx(math.sqrt(2))  # lattice norm


def test_hahn_split_attains_standard_one_norm():
    # on a finite measure space the optimal 2-partition for the standard-1
    # norm comes from the sign split of |mu_1| - |mu_2|
    rng = np.random.default_rng(60)
    s = SpaceSpec(1, 5)
    for _ in range(25):
        X = rng.standard_normal((5, 2))
        t = VectorTuple(X, s)
        exact = mn.evaluate(Spec.standard_q(1), t, CFG).lower
        pos, neg = mn.hahn_split(s, np.abs(X[:, 0]) - np.abs(X[:, 1]))
        val = sum(s.w[k] * abs(X[k, 0]) for k in pos) + sum(s.w[k] * abs(X[k, 1]) for k in neg)
        assert val == pytest.approx(exact, abs=1e-12)


def test_singleton_partition_matches_lattice_and_standard_p():
    # the coordinate-basis partition norm coincides with lattice/standard-p
    rng = np.random.default_rng(61)
    for p in (1, 2, 3):
        s = SpaceSpec(p, 4)
        fine = Spec.partition([[0], [1], [2], [3]])
        for _ in range(10):
            X = rng.standard_normal((4, 3))
            t = VectorTuple(X, s)
            a = mn.evaluate(fine, t, CFG).lower
            b = mn.evaluate(Spec.lattice(), t, CFG).lower
            c = mn.evaluate(Spec.standard_q(p), t, CFG).lower
            assert a == pytest.approx(b, abs=1e-12)
            assert a == pytest.approx(c, abs=1e-12)


def test_standard_q_enumeration_vs_local_search():
    rng = np.random.default_rng(4)
    s = SpaceSpec(1, 4)
    spec = Spec.standard_q(2)
    for _ in range(10):
        X = rng.standard_normal((4, 3))
        t = VectorTuple(X, s)
        enum = mn.evaluate(spec, t, CFG)
        assert enum.kind == "exact"
        tight = OptimConfig(seed=1, max_enum=10)  # force the local search
        search = mn.multinorms._standard_q_search(t, 2.0, tight)
        assert search.lower <= enum.lower + 1e-9


def test_extended_with_identity_family_equals_base():
    s = SpaceSpec(2, 3)
    rng = np.random.default_rng(6)
    base = Spec.lattice()
    ext = Spec.extended(base, [np.eye(3)])
    for _ in range(10):
        X = rng.standard_normal((3, 2))
        t = VectorTuple(X, s)
        assert mn.evaluate(ext, t, CFG).lower == pytest.approx(mn.evaluate(base, t, CFG).lower, abs=1e-12)
    with pytest.raises(mn.SpecError):
        mn.evaluate(Spec.extended(base, [0.5 * np.eye(3)]), t, CFG)


def test_extended_strictly_above_base():
    s = SpaceSpec(2, 3)
    swap = np.eye(3)[[1, 0, 2]]
    ext = Spec.extended(Spec.partition([[0], [1, 2]]), [np.eye(3), swap])
    t = VectorTuple.of(s, [1, 0, 0], [0, 1, 0])
    base_val = mn.evaluate(Spec.partition([[0], [1, 2]]), t, CFG).lower
    ext_val = mn.evaluate(ext, t, CFG).lower
    assert ext_val >= base_val - 1e-12


def test_weak_summing_delegates():
    s = SpaceSpec(INF, 2)
    t = VectorTuple.of(s, [1, 0], [0, 1])
    res = mn.evaluate(Spec.weak_summing(1), t, CFG)
    assert res.lower == pytest.approx(1.0)


def test_bracketing_chain():
    rng = np.random.default_rng(9)
    for p in (1, 2):
        s = SpaceSpec(p, 3)
        q = p + 1
        for _ in range(5):
            X = rng.standard_normal((3, 3))
            t = VectorTuple(X, s)
            v_min = mn.evaluate(Spec.min_spec(), t, CFG)
            v_std = mn.evaluate(Spec.standard_q(q), t, CFG)
            v_pq = mn.evaluate(Spec.pq_spec(p, q), t, CFG)
            v_max = mn.evaluate(Spec.max_spec(), t, CFG)
            sum_norms = s.norm_cols(X).sum()
            assert v_min.lower <= v_std.upper + 1e-8
            assert v_std.lower <= v_pq.upper + 1e-8
            assert v_pq.lower <= v_max.upper + 1e-8
            assert v_max.lower <= sum_norms + 1e-8


def test_pp_monotonicity():
    rng = np.random.default_rng(10)
    s = SpaceSpec(2, 3)
    for _ in range(5):
        X = rng.standard_normal((3, 2))
        t = VectorTuple(X, s)
        v11 = mn.evaluate(Spec.pq_spec(1, 1), t, CFG)
        v22 = mn.evaluate(Spec.pq_spec(2, 2), t, CFG)
        v33 = mn.evaluate(Spec.pq_spec(3, 3), t, CFG)
        assert v22.lower <= v11.upper + 1e-8
        assert v33.lower <= v22.upper + 1e-8


def test_inequality_of_roots():
    from multinorm.multinorms import _roots_upper

    rng = np.random.default_rng(12)
    for p in (1, 2, 3):
        s = SpaceSpec(p, 3)
        sc = SpaceSpec(p, 3, field="complex")
        for _ in range(5):
            X = rng.standard_normal((3, 3))
            bound_r = _roots_upper(s, X, CFG)
            bound_c = _roots_upper(sc, X.astype(complex), CFG)
            for spec in (Spec.min_spec(), Spec.lattice(), Spec.standard_q(p)):
                val = mn.evaluate(spec, VectorTuple(X, s), CFG).lower
                assert val <= bound_r + 1e-8
                assert val <= bound_c + 1e-8
    # the exact maximum multi-norm on an L1-type space also obeys the bound
    s1 = SpaceSpec(1, 3)
    for _ in range(20):
        X = rng.standard_normal((3, 3))
        exact_max = mn.evaluate(Spec.max_spec(), VectorTuple(X, s1), CFG).lower
        assert exact_max <= _roots_upper(s1, X, CFG) + 1e-8


def test_standard_one_equals_max_on_l1():
    rng = np.random.default_rng(14)
    s = SpaceSpec(1, 4, (1.0, 2.0, 0.5, 1.0))
    for _ in range(20):
        X = rng.standard_normal((4, 3))
        t = VectorTuple(X, s)
        a = mn.evaluate(Spec.standard_q(1), t, CFG)
        b = mn.evaluate(Spec.max_spec(), t, CFG)
        assert a.kind == "exact" and b.kind == "exact"
        assert a.lower == pytest.approx(b.lower, abs=1e-10)


def test_standard_q_equals_pq1q_on_l1():
    rng = np.random.default_rng(15)
    s = SpaceSpec(1, 3)
    for q in (1, 2):
        for _ in range(5):
            X = rng.standard_normal((3, 2))
            t = VectorTuple(X, s)
            exact = mn.evaluate(Spec.standard_q(q), t, CFG)
            search = mn.evaluate(Spec.pq_spec(1, q), t, CFG)
            assert search.lower <= exact.lower + 1e-8
            assert search.lower >= exact.lower - 2e-2


def test_hilbert_agrees_with_pq22():
    rng = np.random.default_rng(16)
    s = SpaceSpec(2, 3)
    for _ in range(8):
        X = rng.standard_normal((3, 3))
        t = VectorTuple(X, s)
        h = mn.evaluate(Spec.hilbert(), t, CFG)
        p = mn.evaluate(Spec.pq_spec(2, 2), t, CFG)
        assert abs(h.lower - p.lower) <= 2e-2 * max(1.0, h.lower)


def test_numerical_dual_lattice_and_min():
    rng = np.random.default_rng(17)
    for p in (1, 2, 3):
        s = SpaceSpec(p, 3)
        d = s.dual()
        for _ in range(4):
            L = rng.standard_normal((3, 2))
            t = VectorTuple(L, d)
            nd = mn.evaluate(Spec.numerical_dual(Spec.lattice()), t, CFG)
            closed = mn.evaluate(Spec.dual_lattice(), t, CFG)
            assert abs(nd.lower - closed.lower) <= 2e-2 * max(1.0, closed.lower)
            ndm = mn.evaluate(Spec.numerical_dual(Spec.min_spec()), t, CFG)
            max_dual = mn.evaluate(Spec.lp_sum(1), t, CFG)
            assert abs(ndm.lower - max_dual.lower) <= 2e-2 * max(1.0, max_dual.lower)


def test_weak_summing_below_dual_lattice():
    rng = np.random.default_rng(18)
    for p in (1, 2, INF):
        s = SpaceSpec(p, 3)
        for _ in range(30):
            X = rng.standard_normal((3, 3))
            t = VectorTuple(X, s)
            mu = mn.evaluate(Spec.weak_summing(1), t, CFG)
            dl = mn.evaluate(Spec.dual_lattice(), t, CFG)
            assert mu.lower <= dl.lower + 1e-8


def test_check_axioms_examples():
    rep = mn.check_axioms(Spec.min_spec(), SpaceSpec(2, 3), n_max=4, trials=200, cfg=CFG)
    assert rep.ok and rep.mode == "exact"

    rep = mn.check_axioms(Spec.lp_sum(2), SpaceSpec(2, 3), n_max=4, trials=100, cfg=CFG)
    assert not rep.ok
    assert {v.axiom for v in rep.violations} == {"A4"}

    rep = mn.check_axioms(Spec.dual_lattice(), SpaceSpec(1, 2), n_max=4, trials=200, cfg=CFG)
    assert rep.ok

    rep = mn.check_axioms(Spec.weak_summing(1), SpaceSpec(2, 3), n_max=4, trials=100, cfg=CFG)
    assert rep.ok and rep.mode == "exact"


def test_axiom_witness_reevaluates():
    rep = mn.check_axioms(Spec.lp_sum(2), SpaceSpec(2, 2), n_max=3, trials=50, cfg=CFG)
    v = rep.violations[0]
    X = np.asarray(v.witness["tuple"])
    space = SpaceSpec(2, 2)
    rebuilt = point_value(Spec.lp_sum(2), space, np.concatenate([X, X[:, -1:]], axis=1), CFG)
    assert rebuilt == pytest.approx(v.lhs, abs=1e-9)


def test_numerical_dual_axiom_audits():
    s = SpaceSpec(2, 2)
    rep = mn.check_axioms(Spec.numerical_dual(Spec.lattice()), s.dual(), n_max=3, trials=6, cfg=OptimConfig(seed=5, restarts=8))
    assert rep.mode == "heuristic"
    assert rep.ok
    rep = mn.check_axioms(Spec.numerical_dual(Spec.dual_lattice()), s.dual(), n_max=3, trials=6, cfg=OptimConfig(seed=6, restarts=8))
    assert rep.ok  # dual of a dual multi-norm satisfies (A4)


def test_rate_of_growth():
    res = mn.rate_of_growth(Spec.min_spec(), SpaceSpec(3, 4), 5, CFG)
    assert res.kind == "exact" and res.lower == pytest.approx(1.0)

    for p in (1, 2):
        for q in (p, p + 1):
            for n in (2, 3, 4):
                res = mn.rate_of_growth(Spec.standard_q(q), SpaceSpec(p, 4), n, CFG)
                assert res.kind == "exact"
                assert res.lower == pytest.approx(n ** (1 / q), abs=1e-9)

    res = mn.rate_of_growth(Spec.max_spec(), SpaceSpec(1, 2), 2, CFG)
    assert res.kind == "exact" and res.lower == pytest.approx(2.0)

    res = mn.rate_of_growth(Spec.dual_lattice(), SpaceSpec(2, 3), 3, CFG)
    assert res.kind == "exact" and res.lower == pytest.approx(3.0)


def test_sup_and_multinull():
    s = SpaceSpec(2, 12)
    alphas = [1.0 / (i + 1) for i in range(12)]
    vectors = [a * mn.delta(s, i) for i, a in enumerate(alphas)]
    total, n0 = mn.sup_and_multinull(Spec.standard_q(2), s, vectors, eps=0.2, cfg=CFG)
    assert total.lower == pytest.approx(float(np.linalg.norm(alphas)), abs=1e-9)

    vectors = [mn.delta(s, 0) / (i + 1) for i in range(12)]
    total, n0 = mn.sup_and_multinull(Spec.min_spec(), s, vectors, eps=0.1, cfg=CFG)
    assert n0 == 10

    vectors = [np.zeros(12) for _ in range(5)]
    total, n0 = mn.sup_and_multinull(Spec.min_spec(), s, vectors, eps=0.5, cfg=CFG)
    assert total.lower == 0.0 and n0 == 0

    vectors = [mn.delta(s, 0) for _ in range(5)]
    total, n0 = mn.sup_and_multinull(Spec.min_spec(), s, vectors, eps=0.5, cfg=CFG)
    assert n0 is None


def test_spec_validation_errors():
    s = SpaceSpec(2, 3)
    with pytest.raises(mn.SpecError):
        mn.evaluate(Spec.pq_spec(2, 1), VectorTuple(np.eye(3), s), CFG)
    with pytest.raises(mn.SpecError):
        mn.evaluate(Spec.standard_q(1), VectorTuple(np.eye(3), s), CFG)  # q < space index
    with pytest.raises(mn.SpecError):
        mn.evaluate(Spec.hilbert(), VectorTuple(np.eye(3), SpaceSpec(1, 3)), CFG)
    with pytest.raises(mn.SpecError):
        mn.evaluate(Spec.partition([[0, 1]]), VectorTuple(np.eye(3), s), CFG)


def test_spec_json_round_trip():
    specs = [
        Spec.min_spec(),
        Spec.pq_spec(1, 2),
        Spec.standard_q(2),
        Spec.partition([[0, 1], [2]]),
        Spec.numerical_dual(Spec.lattice()),
        Spec.weak_summing(1),
        Spec.lp_sum(2),
    ]
    for spec in specs:
        assert Spec.from_json(spec.to_json()) == spec


def test_spectral_polish_takes_subnormal_pairings_without_overflow():
    # 1 / |<x, lambda>| overflows for a subnormal pairing; the polish treats such a pairing as zero
    import warnings

    sp = SpaceSpec(2.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = mn.evaluate(Spec.pq_spec(2, 2), VectorTuple(np.array([[2.22507386e-311]]), sp), OptimConfig(seed=11, restarts=1))
    assert res.lower <= res.upper


def _index2_tuples():
    rng = np.random.default_rng(21)
    for field in ("real", "complex"):
        for m in (3, 4):
            for weights in ((), tuple(rng.uniform(0.5, 2.0, m))):
                s = SpaceSpec(2, m, weights, field)
                X = rng.standard_normal((m, 3))
                if s.is_complex:
                    X = X + 1j * rng.standard_normal((m, 3))
                yield VectorTuple(X, s)


def test_index2_pq_is_the_spectral_polish_alone(monkeypatch):
    from multinorm import multinorms

    def no_ascent(*args, **kwargs):
        raise AssertionError("index-2 (2,q) must not climb with seeded_ascent")

    monkeypatch.setattr(multinorms, "seeded_ascent", no_ascent)
    cfg = OptimConfig(seed=1, restarts=2, grid_points=32)
    for t in _index2_tuples():
        for q in (2, 2.5, 3):
            res = mn.evaluate(Spec.pq_spec(2, q), t, cfg)
            assert res.method == "pq_spectral_polish"
            assert 0 < res.lower <= res.upper
        # on a Hilbert space the (2,2)-multi-norm is the hilbert multi-norm
        p22 = mn.evaluate(Spec.pq_spec(2, 2), t, cfg).lower
        h = mn.evaluate(Spec.hilbert(), t, cfg).lower
        assert abs(p22 - h) <= 1e-9 * h


@pytest.mark.parametrize("r", [1.5, 2, 3, INF])
def test_real_max_on_pairs_is_the_l1_2_closed_form(r):
    # over R, l^inf_2 = l^1_2, so ||(x1, x2)||^max = (||x1 + x2|| + ||x1 - x2||) / 2
    rng = np.random.default_rng(22)
    for weights in ((), (0.5, 1.5, 2.0)):
        s = SpaceSpec(r, 3, weights)
        d = s.dual()
        for _ in range(3):
            X = rng.standard_normal((3, 2))
            res = mn.evaluate(Spec.max_spec(), VectorTuple(X, s), CFG)
            closed = (s.norm(X[:, 0] + X[:, 1]) + s.norm(X[:, 0] - X[:, 1])) / 2
            assert res.kind == "exact" and res.lower == closed
            L = res.witness["functionals"]
            mu1 = max(d.norm(e1 * L[:, 0] + e2 * L[:, 1]) for e1 in (1, -1) for e2 in (1, -1))
            assert mu1 <= 1 + 1e-12
            assert s.pairing(X[:, 0], L[:, 0]) + s.pairing(X[:, 1], L[:, 1]) == pytest.approx(closed, rel=1e-12)
