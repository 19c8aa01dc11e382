"""Golden test: optim.polish climbs every start at once to where the per-start loops it replaced climbed.

_power_ascent_loop, _spectral_polish_loop and _standard_q_loop are frozen
copies of three deterministic multistart climbs as they were written start
by start, each with its own stop rule and its own best-of scan.  The
library runs all starts of each climb through optim.polish; values must
match bit for bit and witnesses must be array_equal with the same dtype,
over R and C, weighted and unweighted spaces, all-zero tuples and zero
columns, 1, 2 and 5 restarts, caps that are reached, ties between starts,
the polish's q = 1 branch and the power ascent's p = inf and p' = inf
branches.  Each frozen copy logs how many steps each start took, so the
tests can assert that the caps are really reached.

_hilbert_loop is a frozen copy of the retired Hilbert climb, a
nuclear-norm alternation over alpha, with its starts drawn from the
stream it had.  The Hilbert multi-norm is the (2,2) one, which the
spectral polish evaluates; against the loop it keeps the upper side,
never leaves exact, and its lower side falls by at most 1e-12 relative.
The loop takes its norms through lp_norm(., 2), so it checks the climb
and not the library's norm kernel.
"""

import math

import numpy as np
import pytest

from multinorm import MultiNormSpec, evaluate
from multinorm.multinorms import _pairings, _pq_seeds, _pq_spectral_polish, _roots_upper, _standard_q_search, _standard_q_values
from multinorm.optim import INF, OptimConfig, _power_ascent, field_normal, field_normal_block, gaussian_starts, meets, polish
from multinorm.spaces import COMPLEX, REAL, SpaceSpec, VectorTuple, conjugate_index, lp_norm, phase

RESTARTS = (1, 2, 5)


def _power_ascent_loop(A, p, q, cfg, complex_field, log):
    n = A.shape[1]
    pp = conjugate_index(p)

    def normalize(x):
        nx = lp_norm(x, p)
        return None if nx == 0 else x / nx

    def iterate(x):
        x = normalize(x)
        if x is None:
            return 0.0, None
        val = lp_norm(A @ x, q)
        taken = 0
        for _ in range(60):
            y = A @ x
            ny = lp_norm(y, q)
            if ny == 0:
                break
            ay = np.abs(y)
            z = phase(y) * ay ** (q - 1.0) if q > 1 else phase(y) * (ay > 0)
            g = A.conj().T @ z
            if p == INF:
                xn = phase(g)
                if not complex_field:
                    xn = np.sign(g) + (g == 0)
            else:
                ag = np.abs(g)
                xn = phase(g) * ag ** (pp - 1.0) if pp != INF else phase(g) * (ag >= ag.max())
            xn = normalize(xn)
            if xn is None:
                break
            v = lp_norm(A @ xn, q)
            if v <= val + 1e-15:
                break
            x, val = xn, v
            taken += 1
        log.append(taken)
        return val, x

    dt = complex if complex_field else float
    seeds = list(np.eye(n, dtype=dt))
    seeds.append(np.ones(n, dtype=dt))
    seeds += list(gaussian_starts(cfg, "power_ascent.starts", (n,), complex_field))

    best, best_x = 0.0, None
    for s in seeds:
        val, x = iterate(s)
        if val > best:
            best, best_x = val, x
    return best, best_x


def _spectral_polish_loop(space, X, q, L0, log):
    D = np.sqrt(space.w)
    B = D[:, None] * np.asarray(L0, dtype=complex)
    sv = np.linalg.svd(B, compute_uv=False)
    if sv[0] <= 0:
        return 0.0, None
    B = B / sv[0]

    def value_of(Bmat):
        L = Bmat / D[:, None]
        return lp_norm(np.abs(_pairings(space, X, L)), q), L

    val, L = value_of(B)
    taken = 0
    for _ in range(500):
        c = _pairings(space, X, B / D[:, None])
        ac = np.abs(c)
        coef = ac ** (q - 1.0) if q != 1 else (ac > 0).astype(float)
        G = (space.w[:, None] * X) * (phase(np.conj(c)) * coef)[None, :]
        M = np.conj(G) / D[:, None]
        U, s, Vh = np.linalg.svd(M, full_matrices=False)
        Bn = U @ Vh
        vn, Ln = value_of(Bn)
        if vn <= val + 1e-14:
            break
        val, L, B = vn, Ln, Bn
        taken += 1
    log.append(taken)
    if not space.is_complex:
        L = np.real(L)
    return val, L


def _hilbert_loop(t, cfg, log):
    space = t.space
    X = t.columns
    m, n = X.shape
    Xt = np.sqrt(space.w)[:, None] * X

    def nuclear(alpha):
        return float(np.linalg.svd(Xt * alpha[None, :], compute_uv=False).sum())

    def alternate(alpha):
        na = lp_norm(alpha, 2)
        if na == 0:
            return 0.0, alpha
        alpha = alpha / na
        val = nuclear(alpha)
        taken = 0
        for _ in range(80):
            M = Xt * alpha[None, :]
            U, s, Vh = np.linalg.svd(M, full_matrices=False)
            G = U @ Vh
            c = np.einsum("ki,ki->i", np.conj(G), Xt)
            nc = lp_norm(c, 2)
            if nc == 0:
                break
            new_alpha = np.conj(c) / nc
            new_val = nuclear(new_alpha)
            if new_val <= val + 1e-14:
                break
            alpha, val = new_alpha, new_val
            taken += 1
        log.append(taken)
        return val, alpha

    dt = complex if space.is_complex else float
    seeds = [np.ones(n, dtype=dt) / math.sqrt(n)]
    col = space.norm_cols(X)
    if col.max() > 0:
        seeds.append((col / lp_norm(col, 2)).astype(dt))
    seeds += list(np.eye(n, dtype=dt)[: min(n, 4)])
    # the retired site id 7 of the alternation's starts
    seeds += list(field_normal_block(np.random.default_rng([cfg.seed % 2**64, 7, 0]), cfg.restarts, (n,), space.is_complex))

    best, best_alpha = 0.0, None
    for s in seeds:
        val, alpha = alternate(np.asarray(s, dtype=dt))
        if val > best:
            best, best_alpha = val, alpha
    upper = min(lp_norm(space.norm_cols(X), 2), _roots_upper(space, X, cfg))
    return min(best, upper), upper, best_alpha


def _reported(lower, upper):
    """The (kind, lower, upper) the retired Hilbert climb reported for the loop's bracket: exact at upper where the climb meets it."""
    return ("exact", upper, upper) if meets(lower, upper) else ("bracket", lower, upper)


def _standard_q_loop(t, q, cfg, log):
    space = t.space
    X = t.columns
    m, n = X.shape
    contrib = space.w[:, None] * np.abs(X) ** space.p

    def climb(assign):
        val = float(_standard_q_values(space, contrib, assign[None], q)[0])
        improved = True
        rounds = 0
        while improved:
            improved = False
            rounds += 1
            for k in range(m):
                moves = np.repeat(assign[None], n, axis=0)
                moves[:, k] = np.arange(n)
                for j, v in enumerate(_standard_q_values(space, contrib, moves, q).tolist()):
                    if v > val + 1e-15:
                        val, assign[k], improved = v, j, True
        log.append(rounds)
        return val, assign

    best, best_assign = climb(np.abs(X).argmax(axis=1).astype(int))
    for start in cfg.stream("standard_q.starts").integers(0, n, size=(min(cfg.restarts, 16), m)):
        val, assign = climb(start)
        if val > best:
            best, best_assign = val, assign
    return best, best_assign


def _assert_same(got, want):
    """Equal values bit for bit; witnesses both None or array_equal with one dtype."""
    (gv, gw), (wv, ww) = got, want
    assert gv == wv and type(gv) is type(wv) is float, (gv, wv)
    if ww is None:
        assert gw is None
    else:
        assert gw.dtype == ww.dtype and np.array_equal(gw, ww), (gw, ww)


def _power_cases():
    """(A, p, q, complex_field): dense, zero and zero-column matrices, the identity (every basis seed ties) and a large scale."""
    rng = np.random.default_rng(15)
    for complex_field in (False, True):
        for p, q in [(1.2, 1.0), (1.5, 2.0), (2.0, 3.0), (3.0, 1.5), (INF, 2.0), (INF, 1.0), (1.0, 2.0), (1.0, 1.5), (3.0, 2.0)]:
            for m, n in [(3, 3), (4, 2), (2, 5), (2, 10)]:
                yield field_normal(rng, (m, n), complex_field), p, q, complex_field
            A = field_normal(rng, (3, 4), complex_field)
            A[:, 1] = 0
            yield A, p, q, complex_field
            yield np.zeros((3, 3)), p, q, complex_field
            yield np.eye(3), p, q, complex_field
            yield 1e3 * field_normal(rng, (3, 3), complex_field), p, q, complex_field


def test_power_ascent_is_the_per_start_loop():
    log = []
    for A, p, q, complex_field in _power_cases():
        for restarts in RESTARTS:
            cfg = OptimConfig(seed=restarts, restarts=restarts)
            _assert_same(_power_ascent(A, p, q, cfg, complex_field), _power_ascent_loop(A, p, q, cfg, complex_field, log))
    assert max(log) == 60  # the cap is reached
    assert 0 in log


def test_power_ascent_of_a_complex_matrix_on_the_real_field():
    # the iterates turn complex, so every start is complex from the outset; the loop's real starts round differently
    rng = np.random.default_rng(9)
    for p, q in [(1.5, 2.0), (3.0, 1.5), (INF, 1.0)]:
        A = field_normal(rng, (3, 3), True)
        val, x = _power_ascent(A, p, q, OptimConfig(restarts=2), False)
        want, _ = _power_ascent_loop(A, p, q, OptimConfig(restarts=2), False, [])
        assert x.dtype == complex and val == pytest.approx(want, rel=1e-15)


def test_power_ascent_ties_go_to_the_first_start():
    # for p <= q every basis seed attains the norm 1 of the identity
    for p, q in [(1.2, 1.5), (1.5, 3.0), (2.0, 3.0)]:
        val, x = _power_ascent(np.eye(3), p, q, OptimConfig(restarts=1), False)
        assert val == 1.0 and np.array_equal(x, [1.0, 0.0, 0.0])


def _index_two_spaces():
    for field in (REAL, COMPLEX):
        yield SpaceSpec(2, 3, field=field)
        yield SpaceSpec(2, 3, (0.5, 2.0, 1.5), field=field)


def _tuples(space, rng):
    """Dense tuples of 2 and 4 columns, one with a zero column, one all zero and one of large scale."""
    for n in (2, 4):
        yield field_normal(rng, (space.dim, n), space.is_complex)
    X = field_normal(rng, (space.dim, 3), space.is_complex)
    X[:, 0] = 0
    yield X
    yield np.zeros((space.dim, 3), dtype=complex if space.is_complex else float)
    yield 300 * field_normal(rng, (space.dim, 3), space.is_complex)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 6.0])
def test_spectral_polish_is_the_per_start_loop(q):
    rng = np.random.default_rng(int(q * 10))
    log = []
    for space in _index_two_spaces():
        for X in _tuples(space, rng):
            for restarts in RESTARTS:
                cfg = OptimConfig(seed=restarts, restarts=restarts)
                seeds = _pq_seeds(space, X) + list(gaussian_starts(cfg, "ascent.starts", X.shape, space.is_complex))
                want = max((_spectral_polish_loop(space, X, q, s, log) for s in seeds), key=lambda vL: vL[0])
                _assert_same(_pq_spectral_polish(space, X, q, np.array(seeds, dtype=complex)), want)
    assert 0 in log and max(log) > 1


def test_spectral_polish_on_the_zero_tuple_keeps_the_first_seed():
    space = SpaceSpec(2, 3, (0.5, 2.0, 1.5))
    X = np.zeros((3, 2))
    seeds = _pq_seeds(space, X) + list(gaussian_starts(OptimConfig(restarts=2), "ascent.starts", X.shape, False))
    val, L = _pq_spectral_polish(space, X, 2.0, np.array(seeds, dtype=complex))
    _assert_same((val, L), _spectral_polish_loop(space, X, 2.0, seeds[0], []))
    assert L is not None
    # a start whose top singular value is 0 never wins, even where every value is 0
    val, L = _pq_spectral_polish(space, X, 2.0, np.array([np.zeros((3, 2)), *seeds], dtype=complex))
    _assert_same((val, L), _spectral_polish_loop(space, X, 2.0, seeds[0], []))
    assert _pq_spectral_polish(space, X, 2.0, np.zeros((2, 3, 2), dtype=complex)) == (0.0, None)


def test_spectral_polish_reaches_its_cap():
    # a slow start: 500 steps, each still gaining more than 1e-14
    log = []
    space = SpaceSpec(2, 2)
    X = np.array([[1.0, 1.0], [0.0, 1e-3]])
    L0 = np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex)
    _assert_same(_pq_spectral_polish(space, X, 2.0, L0), _spectral_polish_loop(space, X, 2.0, L0[0], log))
    assert log == [500]


def _assert_climbs_as_high(t, cfg, log):
    """evaluate(hilbert) keeps the loop's upper side, stays exact where it was, and its lower side falls by at most 1e-12 relative."""
    got = evaluate(MultiNormSpec.hilbert(), t, cfg)
    kind, lower, upper = _reported(*_hilbert_loop(t, cfg, log)[:2])
    assert got.upper == upper
    assert got.kind == "exact" or kind != "exact"
    assert got.lower >= lower * (1 - 1e-12), (got.lower, lower)


def test_hilbert_is_the_per_start_loop():
    rng = np.random.default_rng(6)
    log = []
    for space in _index_two_spaces():
        for X in _tuples(space, rng):
            t = VectorTuple(X, space)
            for restarts in RESTARTS:
                _assert_climbs_as_high(t, OptimConfig(seed=restarts, restarts=restarts), log)
    assert 0 in log and max(log) > 1


def test_hilbert_reaches_its_cap():
    # Xt of 10 columns in C^8 converges slowly from some start: 80 steps
    rng = np.random.default_rng(3)
    log = []
    for _ in range(4):
        t = VectorTuple(field_normal(rng, (8, 10), True), SpaceSpec(2, 8, field=COMPLEX))
        _assert_climbs_as_high(t, OptimConfig(seed=3, restarts=5), log)
    assert max(log) == 80


def test_hilbert_on_the_zero_tuple_is_the_disjoint_closed_form():
    res = evaluate(MultiNormSpec.hilbert(), VectorTuple(np.zeros((3, 2)), SpaceSpec(2, 3)), OptimConfig(restarts=2))
    assert (res.kind, res.lower, res.upper, res.method) == ("exact", 0.0, 0.0, "disjoint_closed_form")


@pytest.mark.parametrize("p,q", [(1.0, 2.0), (1.5, 3.0), (2.0, 2.5)])
def test_standard_q_search_is_the_per_start_loop(p, q):
    rng = np.random.default_rng(int(p * q * 10))
    log = []
    for field in (REAL, COMPLEX):
        for weights in ((), (0.5, 2.0, 1.5, 1.0)):
            space = SpaceSpec(p, 4, weights, field=field)
            for X in _tuples(space, rng):
                t = VectorTuple(X, space)
                for restarts in RESTARTS:
                    cfg = OptimConfig(seed=restarts, restarts=restarts, max_enum=2)
                    got = _standard_q_search(t, q, cfg)
                    want = _standard_q_loop(t, q, cfg, log)
                    _assert_same((got.lower, got.witness["assignment"]), want)
    assert min(log) == 1 and max(log) > 2


def test_polish_stops_each_start_at_its_own_step():
    # a point (value, target) climbs by 1 a step up to its target; the NaN start never steps
    calls = []

    def step(P):
        calls.append(len(P))
        Q = np.stack([np.minimum(P[:, 0] + 1, P[:, 1]), P[:, 1]], axis=1)
        return Q, Q[:, 0]

    X = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 5.0]])
    vals = np.array([0.0, 0.0, 0.0, np.nan])
    val, x = polish(step, X, vals, 10, 0.5)
    assert (val, x.tolist(), calls) == (2.0, [2.0, 2.0], [3, 2, 1])
    # after one step starts 1 and 2 tie at 1: the first wins
    val, x = polish(step, X, vals, 1, 0.5)
    assert (val, x.tolist()) == (1.0, [1.0, 1.0])
    assert np.isnan(vals[3]) and X[:, 0].tolist() == [0.0] * 4
