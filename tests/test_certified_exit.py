"""Closed forms and the seed-first certified exit of the search-backed evaluators.

A tuple with disjointly supported columns gets its (p,q) and max norms
from the closed form _pq_disjoint, before any bound or search.  Otherwise
_pq_value (the max multi-norm is its (1,1) value) and _numerical_dual_climb
hand their certified upper bounds to seeded_ascent as its ceiling: a
projected seed that meets the bound ends the search, and the result is
exact at the bound.  A numerical dual whose base is in the duality table
(_dual_spec) takes the dual variant's value and climbs not at all.  A
ceiling no seed meets changes nothing, so every other result is the one
the ascent gives without a ceiling.
"""

import decimal

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MultiNormSpec as S, OptimConfig, SpaceSpec, VectorTuple
from multinorm import multinorms, optim, summing
from multinorm.errors import DegenerateNormError
from multinorm.multinorms import _disjoint, _dual_spec, _numerical_dual_climb, _pq_disjoint, _pq_indices, exact_evaluator
from multinorm.optim import field_normal
from multinorm.spaces import conjugate_index, lp_norm

CFG = OptimConfig(seed=11, restarts=2, grid_points=32)
RS = (1.0, 1.5, 2.0, 3.0)
FIELDS = ("real", "complex")
WEIGHTS = ((), (0.5, 2.0, 1.25))
PAIR_SUMS = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])


def _delta(space, rng, n):
    """Unit vectors on distinct coordinates times random unimodular scalars."""
    X = np.zeros((space.dim, n), dtype=complex if space.is_complex else float)
    phases = np.exp(2j * np.pi * rng.random(n)) if space.is_complex else rng.choice([-1.0, 1.0], n)
    for j, k in enumerate(rng.permutation(space.dim)[:n]):
        X[k, j] = phases[j] / space.w[k] ** (1.0 / space.p)
    return X


def _cases():
    """(space, spec, tuple) triples over the search-backed variants, some of which meet their bounds at a seed."""
    rng = np.random.default_rng(17)
    for field in FIELDS:
        for weights in WEIGHTS:
            for r in RS:
                sp = SpaceSpec(r, 3, weights, field)
                for p, q in ((1, 2), (2, 2), (2, 3), (1.5, 3)):
                    yield sp, S.pq_spec(p, q), _delta(sp, rng, 2 + (p == 2))
                    yield sp, S.pq_spec(p, q), field_normal(rng, (3, 2), sp.is_complex)
                if r != 1:  # max on l^1 has an exact path
                    yield sp, S.max_spec(), _delta(sp, rng, 3)
                yield sp, S.numerical_dual(S.min_spec()), field_normal(rng, (3, 3), sp.is_complex)
                yield sp, S.numerical_dual(S.lattice()), field_normal(rng, (3, 2), sp.is_complex)
                yield sp, S.numerical_dual(S.lp_sum(2)), field_normal(rng, (3, 2), sp.is_complex)
                yield sp, S.numerical_dual(S.dual_lattice()), field_normal(rng, (3, 2), sp.is_complex)
                # off the table: a climb with the lattice table's ceiling, which the sums of pairs keep it below
                yield sp, S.numerical_dual(S.extended(S.lattice(), [np.eye(3), PAIR_SUMS])), field_normal(rng, (3, 2), sp.is_complex)
            sp = SpaceSpec(2.0, 3, weights, field)
            yield sp, S.hilbert(), field_normal(rng, (3, 3), sp.is_complex) * np.eye(3)[:, [2, 0, 1]]
            yield sp, S.hilbert(), field_normal(rng, (3, 2), sp.is_complex)
    # random disjointly supported tuples, zero columns among them, on weighted spaces up to l^inf
    rng = np.random.default_rng(21)
    for field in FIELDS:
        for r in (*RS, INF):
            sp = SpaceSpec(r, 4, (0.5, 2.0, 1.25, 0.8), field)
            for spec in (S.pq_spec(1, 1.2), S.pq_spec(1.5, 3), S.pq_spec(2, 2)):
                yield sp, spec, _disjoint_tuple(sp, rng, int(rng.integers(2, 5)))
            if r != 1:
                yield sp, S.max_spec(), _disjoint_tuple(sp, rng, 3)


def _without_closed_forms(monkeypatch):
    """No tuple counts as disjoint and no base has a tabled dual: the evaluators search, and every numerical dual climbs with the ceiling sum_j ||lambda_j||."""
    monkeypatch.setattr(multinorms, "_disjoint", lambda X: False)
    monkeypatch.setattr(multinorms, "_dual_spec", lambda base: None)


def _without_exit(monkeypatch):
    """No closed form, and no bound is ever met: the evaluators climb and report as they did before the exit."""
    _without_closed_forms(monkeypatch)
    never = lambda value, bound: False  # noqa: E731
    monkeypatch.setattr(optim, "meets", never)
    monkeypatch.setattr(multinorms, "meets", never)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("weights", WEIGHTS)
def test_delta_tuples_are_exact_at_the_q_sum(field, weights):
    # for p >= r a delta tuple's (p,q) norm is n^(1/q), given by the disjoint closed form with no search
    rng = np.random.default_rng(3)
    for r, p, q in ((1.0, 1, 2), (1.0, 2, 3), (1.5, 2, 2), (1.5, 1.5, 3), (2.0, 2, 2), (2.0, 2, 3), (3.0, 3, 4)):
        sp = SpaceSpec(r, 3, weights, field)
        for n in (2, 3):
            res = mn.evaluate(S.pq_spec(p, q), VectorTuple(_delta(sp, rng, n), sp), CFG)
            assert (res.kind, res.method) == ("exact", "disjoint_closed_form"), (r, p, q, n)
            assert res.lower == res.upper == pytest.approx(n ** (1.0 / q), rel=1e-12)
    # the maximum multi-norm of a delta tuple is n^(1/r), the (1,1) closed form
    for r in (1.5, 2.0):
        sp = SpaceSpec(r, 3, weights, field)
        res = mn.evaluate(S.max_spec(), VectorTuple(_delta(sp, rng, 3), sp), CFG)
        assert (res.kind, res.method) == ("exact", "disjoint_closed_form")
        assert res.lower == pytest.approx(3 ** (1.0 / r), rel=1e-12)


def test_met_ceiling_runs_no_ascent(monkeypatch):
    # a seed that meets the ceiling costs one value call, the starts' own, and no climb: no ascent tick and, where
    # (p,q) takes the Holder alternation, no alternation step
    calls, valued, steps = [], [], []
    real_ascent, real_best, real_polish = optim.seeded_ascent, multinorms._best_projected, multinorms.polish

    def counted(project, value, *args, **kwargs):
        seen = []
        got = real_ascent(project, lambda P: seen.append(len(P)) or value(P), *args, **kwargs)
        calls.append(len(seen))
        return got

    def best_counted(project, value, points):
        valued.append(len(points))
        return real_best(project, value, points)

    def polish_counted(step, *args):
        return real_polish(lambda P: steps.append(len(P)) or step(P), *args)

    monkeypatch.setattr(optim, "seeded_ascent", counted)
    monkeypatch.setattr(multinorms, "seeded_ascent", counted)
    monkeypatch.setattr(multinorms, "_best_projected", best_counted)
    monkeypatch.setattr(multinorms, "polish", polish_counted)
    sp = SpaceSpec(1.5, 3, (0.5, 2.0, 1.25), "complex")
    rng = np.random.default_rng(4)
    x = field_normal(rng, (3, 1), True)
    # (x, -x) has (2,3) norm ||x||: the root averages give that bound and a slot-norming seed meets it; mu_{2,n} has no
    # exact rule on complex l^1.5, so the seeds are valued once and the alternation never starts
    rank_one = np.concatenate([x, -x], axis=1)
    seeds = len(multinorms._pq_seeds(sp, rank_one)) + CFG.restarts
    assert multinorms._op_norm_rule(2.0, conjugate_index(1.5), True, 3, 2, CFG.max_enum) is None
    assert (mn.evaluate(S.pq_spec(2, 3), VectorTuple(rank_one, sp), CFG).kind, calls, valued, steps) == ("exact", [], [seeds], [])
    # the numerical dual of extended(min, [I]) climbs with the min table's ceiling sum_j ||lambda_j||, which a slot-norming seed meets
    valued.clear()
    off_table = S.numerical_dual(S.extended(S.min_spec(), [np.eye(3)]))
    assert mn.evaluate(off_table, VectorTuple(field_normal(rng, (3, 3), True), sp), CFG).kind == "exact"
    assert (calls, valued, steps) == ([1], [], [])
    # a tabled numerical dual is its dual variant's value, with no ascent at all
    calls.clear()
    assert (mn.evaluate(S.numerical_dual(S.min_spec()), VectorTuple(field_normal(rng, (3, 3), True), sp), CFG).kind, calls) == ("exact", [])
    # a disjointly supported tuple takes its closed form and no ascent at all
    for spec in (S.pq_spec(1.5, 3), S.max_spec()):
        calls.clear()
        assert (mn.evaluate(spec, VectorTuple(_delta(sp, rng, 3), sp), CFG).method, calls, valued, steps) == ("disjoint_closed_form", [], [], [])
    # a bracket: no seed met the bound, so the alternation climbed
    res = mn.evaluate(S.pq_spec(1.5, 3), VectorTuple(field_normal(rng, (3, 3), True), sp), CFG)
    assert (res.kind, res.method, calls, len(valued)) == ("bracket", "pq_holder_alternation", [], 2)
    assert len(steps) > 0


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("weights", WEIGHTS)
def test_numerical_dual_of_min_is_exact_at_the_sum_of_norms(field, weights):
    # the numerical dual of the minimum multi-norm is sum_j ||lambda_j||, which the slot-norming seed attains
    rng = np.random.default_rng([5, field == "complex", len(weights)])
    for r in RS:
        sp = SpaceSpec(r, 3, weights, field)
        for n in (1, 2, 3, 4):
            L = field_normal(rng, (3, n), sp.is_complex)
            res = mn.evaluate(S.numerical_dual(S.min_spec()), VectorTuple(L, sp), CFG)
            assert (res.kind, res.method) == ("exact", "duality_table")
            assert res.lower == res.upper == lp_norm(sp.norm_cols(L), 1) == mn.evaluate(S.lp_sum(1), VectorTuple(L, sp), CFG).lower
            assert res.lower == pytest.approx(sum(sp.norm(L[:, j]) for j in range(n)), rel=1e-14)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("weights", WEIGHTS)
def test_numerical_dual_of_lattice_is_exact_at_the_norm_of_the_sum(field, weights):
    # the numerical dual of the lattice multi-norm is ||sum_j |lambda_j| ||, the dual lattice multi-norm bit for bit
    rng = np.random.default_rng([6, field == "complex", len(weights)])
    for r in (*RS, INF):
        sp = SpaceSpec(r, 3, weights, field)
        for n in (1, 2, 3, 4):
            L = field_normal(rng, (3, n), sp.is_complex)
            res = mn.evaluate(S.numerical_dual(S.lattice()), VectorTuple(L, sp), CFG)
            assert (res.kind, res.method) == ("exact", "duality_table")
            assert res.lower == res.upper == mn.evaluate(S.dual_lattice(), VectorTuple(L, sp), CFG).lower
            assert res.lower == pytest.approx(sp.norm(np.abs(L).sum(axis=1)), rel=1e-14)


def test_search_membership_keeps_every_witness_feasible():
    # past its n^m budget standard_q(3) is a local search under the certified bound _pq_upper, which scales each climbed
    # point into the unit ball: the witness's standard_q value, exact within the default budget, is at most 1.  The
    # one-slot tuple's seed meets the ceiling ||lambda_1||, so that result is exact
    sp = SpaceSpec(2.0, 3)
    rng = np.random.default_rng(3)
    one_slot = np.zeros((3, 3))
    one_slot[:, 0] = rng.standard_normal(3)
    L = rng.standard_normal((3, 3))
    small = OptimConfig(seed=5, restarts=2, max_enum=8)
    res = mn.evaluate(S.numerical_dual(S.standard_q(3)), VectorTuple(L, sp), small)
    assert (res.kind, res.method) == ("bracket", "numerical_dual_ascent") and res.upper < INF
    own = mn.evaluate(S.standard_q(3), VectorTuple(res.witness, sp.dual()), CFG)
    assert own.kind == "exact" and own.lower <= 1 + 1e-12
    assert abs(np.sum(sp.w[:, None] * res.witness * L)) == pytest.approx(res.lower, rel=1e-12)
    res = mn.evaluate(S.numerical_dual(S.standard_q(3)), VectorTuple(one_slot, sp), small)
    assert (res.kind, res.method, res.lower) == ("exact", "numerical_dual_ascent", sp.norm(one_slot[:, 0]))
    # past its sign budget weak_summing(1) is a bracket, whose certified upper side keeps every climbed point feasible:
    # a lower bound under the max multi-norm's upper bound, and exact where a seed meets the ceiling
    tiny = OptimConfig(seed=5, restarts=2, max_enum=2)
    res = mn.evaluate(S.numerical_dual(S.weak_summing(1)), VectorTuple(L, sp), tiny)
    assert (res.kind, res.method) == ("bracket", "numerical_dual_ascent")
    assert res.lower <= mn.evaluate(S.max_spec(), VectorTuple(L, sp), CFG).upper
    # the witness lies in the unit ball: within the default budget its mu_1 is exact, and at most 1
    mu = mn.evaluate(S.weak_summing(1), VectorTuple(res.witness, sp.dual()), CFG)
    assert mu.kind == "exact" and mu.lower <= 1 + 1e-12
    res = mn.evaluate(S.numerical_dual(S.weak_summing(1)), VectorTuple(one_slot, sp), tiny)
    assert (res.kind, res.method, res.lower) == ("exact", "numerical_dual_ascent", sp.norm(one_slot[:, 0]))


def _search_backed_cases():
    """(spec, space, tuple, cfg) for every search-backed variant, each off its exact path."""
    rng = np.random.default_rng(41)
    small = OptimConfig(seed=11, restarts=2, grid_points=32, max_enum=4)  # below standard_q's and complex mu_1's needs
    for field in FIELDS:
        for r in (1.5, 2.0):
            sp = SpaceSpec(r, 3, (0.5, 2.0, 1.25), field)
            for n in (2, 3):
                X = field_normal(rng, (3, n), sp.is_complex)
                yield S.pq_spec(1, 2), sp, X, CFG
                yield S.pq_spec(1.5, 3), sp, X, CFG
                yield S.max_spec(), sp, X, CFG
                yield S.standard_q(3), sp, X, small
                yield S.extended(S.pq_spec(1, 2), [np.eye(3), PAIR_SUMS]), sp, X, CFG
                if r == 2.0:
                    yield S.hilbert(), sp, X, CFG
                if field == "complex":
                    yield S.weak_summing(1), sp, X, small
                    yield S.numerical_dual(S.max_spec()), sp, X, small  # tabled: weak_summing(1)
            L = field_normal(rng, (3, 2), sp.is_complex)
            for base in (S.pq_spec(1, 2), S.standard_q(3), S.extended(S.lattice(), [np.eye(3), PAIR_SUMS])):
                yield S.numerical_dual(base), sp, L, small  # off the table: the climb


def test_every_search_result_has_a_proven_upper_bound():
    # a finite upper bound at or above the lower one, and _source_scale (the scale of mb_norm's source tuples and of
    # the climb's membership) no lower than the result's lower bound
    variants = set()
    for spec, sp, X, cfg in _search_backed_cases():
        assert exact_evaluator(spec, sp, X.shape[1], cfg) is None
        res = mn.evaluate(spec, VectorTuple(X, sp), cfg)
        assert res.kind in ("exact", "bracket") and res.upper < INF, (spec.to_json(), sp.to_json())
        assert res.lower <= res.upper
        assert multinorms._source_scale(spec, sp, cfg)(X[None])[0] >= res.lower, (spec.to_json(), sp.to_json())
        variants.add(spec.variant if spec.variant != "numerical_dual" else (spec.variant, _dual_spec(spec.base) is None))
    assert variants == {"pq", "max", "hilbert", "standard_q", "weak_summing", "extended", ("numerical_dual", True), ("numerical_dual", False)}


def test_numerical_dual_of_max_is_mu_1():
    # the dual of l^inf_n (x)_pi E is l^1_n (x)_eps E', mu_{1,n}: exact over R, and over C mu_1's bracket, whose
    # certified upper bound the lower one never passes (a climb's lower bound did, by up to 16 %, on these complex draws)
    rng = np.random.default_rng(3)
    cfg = OptimConfig(seed=1, restarts=2, grid_points=32)
    for r in RS:
        real, cplx = rng.standard_normal((3, 3)), field_normal(rng, (3, 3), True)
        for field, L in (("real", real), ("complex", cplx)):
            t = VectorTuple(L, SpaceSpec(r, 3, (), field))
            res, mu = mn.evaluate(S.numerical_dual(S.max_spec()), t, cfg), summing.mu_weak(1, t, cfg)
            assert res.lower <= mu.upper
            assert (res.kind, res.lower, res.upper, res.method) == (mu.kind, mu.lower, mu.upper, "duality_table")
            assert res.kind == ("exact" if field == "real" else "bracket")


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("weights", WEIGHTS)
def test_numerical_dual_of_dual_lattice_is_exact_at_the_norm_of_the_max(field, weights):
    # the numerical dual of ||sum_j |x_j| || is ||V_j |lambda_j| ||, the lattice multi-norm bit for bit
    rng = np.random.default_rng([7, field == "complex", len(weights)])
    for r in (*RS, INF):
        sp = SpaceSpec(r, 3, weights, field)
        for n in (1, 2, 3, 4):
            L = field_normal(rng, (3, n), sp.is_complex)
            res = mn.evaluate(S.numerical_dual(S.dual_lattice()), VectorTuple(L, sp), CFG)
            assert (res.kind, res.method) == ("exact", "duality_table")
            assert res.lower == res.upper == mn.evaluate(S.lattice(), VectorTuple(L, sp), CFG).lower
            assert res.lower == pytest.approx(sp.norm(np.abs(L).max(axis=1)), rel=1e-14)


@pytest.mark.parametrize("field", FIELDS)
def test_numerical_dual_of_lp_sum_is_the_conjugate_sum(field):
    # the dual of the l^p sum of norms is the l^p' sum: lp_sum(p'), and for p = 1 the min multi-norm
    rng = np.random.default_rng([8, field == "complex"])
    for r in RS:
        sp = SpaceSpec(r, 3, (0.5, 2.0, 1.25), field)
        L = field_normal(rng, (3, 3), sp.is_complex)
        t = VectorTuple(L, sp)
        for p in (1, 1.5, 2, 2.5, INF):
            res = mn.evaluate(S.numerical_dual(S.lp_sum(p)), t, CFG)
            dual = S.min_spec() if p == 1 else S.lp_sum(conjugate_index(p))
            assert (res.kind, res.method, res.lower) == ("exact", "duality_table", mn.evaluate(dual, t, CFG).lower)
            assert res.lower == pytest.approx(lp_norm(sp.norm_cols(L), conjugate_index(p)), rel=1e-14)


@pytest.mark.parametrize("field", FIELDS)
def test_numerical_dual_of_a_numerical_dual_is_the_base(field):
    # a finite-dimensional norm is its own bidual: numerical_dual(numerical_dual(B)) evaluates B, search bases included
    rng = np.random.default_rng([9, field == "complex"])
    sp = SpaceSpec(2.0, 3, (0.5, 2.0, 1.25), field)
    t = VectorTuple(field_normal(rng, (3, 3), sp.is_complex), sp)
    for base in (S.pq_spec(1, 2), S.hilbert(), S.standard_q(3), S.max_spec(), S.weak_summing(1.5), S.extended(S.lattice(), [np.eye(3), PAIR_SUMS])):
        got, want = mn.evaluate(S.numerical_dual(S.numerical_dual(base)), t, CFG), mn.evaluate(base, t, CFG)
        assert (got.kind, got.lower, got.upper, got.method) == (want.kind, want.lower, want.upper, "duality_table"), base.variant
        fn = exact_evaluator(S.numerical_dual(S.numerical_dual(base)), sp, 3, CFG)
        assert (fn is None) == (exact_evaluator(base, sp, 3, CFG) is None)


@pytest.mark.parametrize("field", FIELDS)
def test_climbed_points_lie_in_the_unit_ball(field):
    # off the table a search base scales each point by its certified upper bound, so the witness's own upper bound is
    # at most 1 and the climb's lower bound is certified (scaling by the search's lower bound, as the climb once did,
    # left the complex witness here outside the ball)
    sp = SpaceSpec(2.0, 3, (0.5, 2.0, 1.25), field)
    L = field_normal(np.random.default_rng(12), (3, 2), sp.is_complex)
    res = mn.evaluate(S.numerical_dual(S.hilbert()), VectorTuple(L, sp), CFG)
    assert (res.kind, res.method) == ("bracket", "numerical_dual_ascent")
    assert mn.evaluate(S.hilbert(), VectorTuple(res.witness, sp.dual()), CFG).upper <= 1 + 1e-12
    assert abs(np.sum(sp.w[:, None] * res.witness * L)) == pytest.approx(res.lower, rel=1e-12)


def test_a_tiny_tuple_keeps_its_kind_and_method():
    # every bound is 1-homogeneous and met relative to its size, so 1e-10 X is no nearer its bounds than X, and the
    # spectral polish, which stops on an absolute gain, climbs the tuple scaled to a largest modulus in [0.5, 1)
    c = 1e-10
    seen = set()
    for sp, spec, X in _cases():
        big, small = (mn.evaluate(spec, VectorTuple(Y, sp), CFG) for Y in (X, c * X))
        assert (small.kind, small.method) == (big.kind, big.method), (spec.to_json(), sp.to_json())
        assert small.upper == pytest.approx(c * big.upper, rel=1e-12)
        assert small.lower == pytest.approx(c * big.lower, rel=1e-12)
        seen.add(big.kind)
    assert seen == {"exact", "bracket"}


@pytest.mark.parametrize("is_complex", [False, True])
def test_ball_linear_max_with_an_unmet_ceiling_is_bit_identical(is_complex):
    # over the l^2 lattice ball, sup |sum_jk x_jk c_jk| is the l^2 norm of C's row sums of moduli, far below 10 * ||C||_1
    rng = np.random.default_rng(8)
    shape = (3, 2)
    C = field_normal(rng, shape, is_complex)
    membership = lambda P: lp_norm(np.abs(P).max(axis=-1), 2.0)  # noqa: E731
    objective = lambda P: (P * C).sum(axis=(-2, -1))  # noqa: E731
    # the maximizer: row k of x is t_k times the conjugate phases of row k of C, t the l^2 direction of C's row sums
    s = np.abs(C).sum(axis=-1)
    best = lp_norm(s, 2.0)
    argmax = (s / best)[:, None] * np.conj(C) / np.abs(C)
    seeds = [np.ones(shape), np.conj(C) / np.abs(C)]
    cfg = OptimConfig(seed=9, restarts=3)
    want = mn.ball_linear_max(membership, objective, shape, cfg, seeds, is_complex)
    got = mn.ball_linear_max(membership, objective, shape, cfg, seeds, is_complex, ceiling=10 * np.abs(C).sum())
    assert (got.kind, got.lower, got.upper, got.method) == (want.kind, want.lower, want.upper, want.method) == ("lower", want.lower, INF, "ball_ascent")
    assert got.witness.dtype == want.witness.dtype and np.array_equal(got.witness, want.witness)
    assert want.lower < best * (1 - 1e-9)  # no seed met 10 * ||c||_1, so both climbed
    # a met ceiling returns the first seed that meets it, still as a lower bound
    met = mn.ball_linear_max(membership, objective, shape, cfg, [*seeds, argmax], is_complex, ceiling=best)
    assert met.kind == "lower" and met.lower == pytest.approx(best, rel=1e-12)
    assert np.allclose(met.witness, argmax, rtol=1e-12)


def _exact_bases(sp):
    fam = mn.band_family(sp)
    specs = [
        S.min_spec(),
        S.lattice(),
        S.dual_lattice(),
        S.lp_sum(1),
        S.lp_sum(2.5),
        S.partition([[0], [1, 2]]),
        S.weak_summing(1),
        S.weak_summing(1.5),
        S.weak_summing(2),
        S.weak_summing(INF),
        S.generated(fam),
        S.extended(S.lattice(), [np.eye(3), np.ones((3, 3)) / 3]),
        S.extended(S.weak_summing(1), [np.eye(3), np.diag([1.0, -1.0, 0.5])]),
    ]
    if sp.p == 1:
        specs.append(S.max_spec())
    if sp.p != INF:
        specs += [S.standard_q(sp.p), S.standard_q(sp.p + 1)]
    return specs


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, INF])
def test_bases_with_a_ceiling_dominate_the_minimum_multinorm(field, r):
    # every base is >= max_j ||x_j||, so sum_j ||lambda_j|| bounds every numerical dual: its exact values do, and so do
    # the certified upper bounds that scale a search base's tuples into its unit ball
    sp = SpaceSpec(r, 3, (1.0, 2.0, 0.5), field)
    rng = np.random.default_rng([int(min(r, 9) * 10), field == "complex"])
    seen = 0
    for spec in _exact_bases(sp):
        for n in (1, 2, 3):
            fn = exact_evaluator(spec, sp, n, CFG)
            if fn is None:
                continue
            seen += 1
            X = field_normal(rng, (16, 3, n), sp.is_complex) * rng.uniform(0.01, 10.0, (16, 1, n))
            assert np.all(fn(X) >= sp.norm_cols(X).max(axis=-1) * (1 - 1e-14)), (spec.variant, n)
    assert seen >= 30
    for spec in (S.pq_spec(1, 2), S.max_spec()):
        scale = multinorms._source_scale(spec, sp, CFG)
        X = field_normal(rng, (2, 3, 3), sp.is_complex)
        assert np.all(scale(X) >= sp.norm_cols(X).max(axis=-1) * (1 - 1e-14))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, INF])
def test_bases_with_a_lattice_ceiling_dominate_the_lattice_multinorm(field, r):
    # extended(B, ops) >= B, its family containing I, so the climb also bounds its numerical dual by B's tabled dual:
    # ||sum_j |lambda_j| || over a lattice base, sum_j ||lambda_j|| over a min base, mu_1 over a max base
    sp = SpaceSpec(r, 3, (1.0, 2.0, 0.5), field)
    rng = np.random.default_rng([int(min(r, 9) * 10), field == "complex", 1])
    ops = [np.eye(3), PAIR_SUMS / 2, np.diag([1.0, -1.0, 0.5])]
    for base in [S.min_spec(), S.lattice(), S.dual_lattice(), S.lp_sum(1), S.lp_sum(2.5)] + [S.max_spec()] * (r == 1):
        assert _dual_spec(base) is not None
        for n in (1, 2, 3):
            fn, ext = exact_evaluator(base, sp, n, CFG), exact_evaluator(S.extended(base, ops), sp, n, CFG)
            X = field_normal(rng, (16, 3, n), sp.is_complex) * rng.uniform(0.01, 10.0, (16, 1, n))
            assert np.all(ext(X) >= fn(X) * (1 - 1e-14)), (base.variant, n)
    # the first seed meets the lattice table's ceiling, and a slot-norming seed the min table's
    t = VectorTuple(field_normal(rng, (3, 3), sp.is_complex), sp.dual())
    for base, dual in ((S.lattice(), S.dual_lattice()), (S.min_spec(), S.lp_sum(1))):
        res = _numerical_dual_climb(S.numerical_dual(S.extended(base, [np.eye(3)])), t, CFG)
        assert (res.kind, res.method, res.lower) == ("exact", "numerical_dual_ascent", mn.evaluate(dual, t, CFG).upper)


def _disjoint_tuple(sp, rng, n):
    """A random tuple with disjointly supported columns: each coordinate belongs to one column or to none."""
    owner = rng.integers(0, n + 1, sp.dim)
    return np.where(owner[:, None] == np.arange(n), field_normal(rng, (sp.dim, n), sp.is_complex), 0)


def _decimal_closed_form(space, X, p, q):
    """||(||x_j||)_j||_u, with 1/t = max(1/p - 1/r, 0) and 1/u = max(1/q - 1/t, 0), from X's entries in 40-digit decimal
    arithmetic: a reference free of the float rounding in norm_cols, lp_norm and the exponents."""
    D = decimal.Decimal
    with decimal.localcontext(prec=40):
        r = D(space.p) if space.p != INF else None
        b = []
        for j in range(X.shape[1]):
            moduli = [(D(z.real) ** 2 + D(z.imag) ** 2).sqrt() for z in map(complex, X[:, j])]
            b.append(max(moduli) if r is None else sum(D(w) * a**r for w, a in zip(space.w, moduli)) ** (1 / r))
        inv_t = max(1 / D(p) - (0 if r is None else 1 / r), D(0))
        inv_u = max(1 / D(q) - inv_t, D(0))
        return float(max(b) if inv_u == 0 else sum(c ** (1 / inv_u) for c in b) ** inv_u)


def _mu_on_a_grid(space, L, p, rng):
    """max ||sum_j c_j lambda_j|| over 4000 random c and the corners of the unit l^p' ball: a lower estimate of mu_{p,n}(L)."""
    n = L.shape[1]
    C = np.concatenate([field_normal(rng, (4000, n), space.is_complex), np.eye(n), np.ones((1, n))])
    C = C / lp_norm(C, conjugate_index(p))[:, None]
    return space.dual().norm_cols(L @ C.T).max()


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, INF])
def test_disjoint_witness_attains_the_value_in_the_unit_ball(field, r):
    # the functionals' pairings give the value back, and no c on a dense grid takes them past mu_{p,n} = 1
    sp = SpaceSpec(r, 4, (0.5, 2.0, 1.25, 0.8), field)
    rng = np.random.default_rng([22, int(min(r, 9) * 10), field == "complex"])
    for p, q in ((1, 1), (1, 2), (1.2, 1.5), (1.5, 3), (2, 2), (2, 5), (3, 3)):
        for n in (1, 2, 3, 4):
            X = _disjoint_tuple(sp, rng, n)
            value, L = _pq_disjoint(sp, X, p, q)
            assert L.dtype == (complex if sp.is_complex else float)
            assert lp_norm(np.abs(multinorms._pairings(sp, X, L)), q) == pytest.approx(value, rel=1e-13)
            assert _mu_on_a_grid(sp, L, p, rng) <= 1 + 1e-12, (p, q, n)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("weights", ((), (0.5, 2.0, 1.25)))
def test_disjoint_closed_form_at_its_edges(field, weights):
    rng = np.random.default_rng([23, field == "complex", len(weights)])
    for r in (1.0, 1.5, 2.0, 3.0, INF):
        sp = SpaceSpec(r, 3, weights, field)
        X = _disjoint_tuple(sp, rng, 3)
        while not X.any():
            X = _disjoint_tuple(sp, rng, 3)
        b = sp.norm_cols(X)
        # p >= r: the q-sum upper bound bit for bit
        for p, q in ((r, r + 1), (3, 4)) if r <= 3 else ():
            res = mn.evaluate(S.pq_spec(p, q), VectorTuple(X, sp), CFG)
            assert (res.kind, res.method, res.upper) == ("exact", "disjoint_closed_form", lp_norm(b, q)), (r, p, q)
        # q >= t (1/u = 0): the largest column norm, which the (1,1) norm on l^inf is
        for p, q in {INF: ((1, 1), (1.5, 1.5), (2, 3)), 3.0: ((1, 2),), 2.0: ((1, 2), (1, 3)), 1.5: ((1, 4),)}.get(r, ()):
            assert _pq_disjoint(sp, X, p, q)[0] == b.max(), (r, p, q)
        # n = 1: ||x|| for every (p,q), the max multi-norm included
        x = X[:, [int(np.argmax(b))]]
        for spec in (S.pq_spec(1, 1), S.pq_spec(1, 3), S.pq_spec(2, 2), S.max_spec()):
            res = mn.evaluate(spec, VectorTuple(x, sp), CFG)
            assert res.kind == "exact" and res.lower == pytest.approx(b.max(), rel=1e-15), (r, spec.to_json())
        # an all-zero tuple is 0, with zero functionals
        for p, q in ((1, 1), (1, 2), (1.5, 3), (3, 3)):
            value, L = _pq_disjoint(sp, np.zeros_like(X), p, q)
            assert value == 0.0 and not L.any()
        res = mn.evaluate(S.max_spec(), VectorTuple(np.zeros_like(X), sp), CFG)
        assert (res.kind, res.lower) == ("exact", 0.0)


def _same_witness(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_witness(a[k], b[k]) for k in a)
    return (a is None and b is None) or np.array_equal(a, b)


def test_no_lower_bound_falls(monkeypatch):
    # each result against the same call with the exit, the closed forms and the duality table switched off: the lower
    # bound never falls (an exact value is the proven bound, which a climb passes by rounding only: so no tabled dual
    # lies below the certified lower bound of the climb it replaces), a kind changes only to exact, and a search keeps
    # its method (a tabled dual takes duality_table) and never raises its upper bound.  A disjointly supported tuple replaces the search's
    # bounds with its closed form, whose rounding differs from theirs, so its value is checked against its own
    # references: the q-sum bit for bit where p >= r, and the value in 40-digit decimal arithmetic up to 4 eps of rounding
    cases = list(_cases())
    new = [mn.evaluate(spec, VectorTuple(X, sp), CFG) for sp, spec, X in cases]
    closed = [spec.variant in ("pq", "max", "hilbert") and _disjoint(X) for sp, spec, X in cases]
    tabled = [spec.variant == "numerical_dual" and _dual_spec(spec.base) is not None for sp, spec, X in cases]
    _without_exit(monkeypatch)
    old = [mn.evaluate(spec, VectorTuple(X, sp), CFG) for sp, spec, X in cases]
    exact = 0
    for (sp, spec, X), a, b, disjoint, table in zip(cases, old, new, closed, tabled):
        assert a.kind != "exact"
        if disjoint:
            p, q = _pq_indices(spec)
            assert (b.kind, b.method, b.lower) == ("exact", "disjoint_closed_form", b.upper)
            assert p < sp.p or b.upper == lp_norm(sp.norm_cols(X), q)
            ref = _decimal_closed_form(sp, X, p, q)
            assert abs(b.upper - ref) <= 4 * np.finfo(float).eps * ref, (spec.to_json(), sp.to_json(), b.upper, ref)
        else:
            assert b.upper <= a.upper
            assert b.method == ("duality_table" if table else a.method)
        if b.kind == "exact":
            exact += 1
            assert b.lower >= a.lower or a.lower <= b.upper * (1 + 4 * np.finfo(float).eps), (spec.to_json(), a, b)
        else:
            # a climbed numerical dual's upper side is its ceiling, which a tabled dual of its base lowers
            assert (b.kind, b.lower) == (a.kind, a.lower)
            assert b.upper == a.upper or spec.variant == "numerical_dual"
            assert _same_witness(b.witness, a.witness)
    assert 0 < exact < len(cases)

