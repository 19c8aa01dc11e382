"""Golden test: the lean lockstep tick and its hot callbacks give the values of the code they replaced, bit for bit.

seeded_ascent gathers the direction pool's rows once per block, keeps its
acceptance bar until some restart improves, and skips the state updates
on a tick where none does; unit_columns divides a stack that projects
whole in one division; the partition evaluator resolves its blocks once;
c_n's descent objective takes its grid once.  Each frozen copy below is
the code as it was before, and each new result must equal its frozen
counterpart bit for bit: values, points, witnesses and methods.
"""

import json
import math

import numpy as np
import pytest

from multinorm import MultiNormSpec, OptimConfig, SpaceSpec, multinorms, optim, summing
from multinorm.errors import BudgetError
from multinorm.optim import INF, _first_max, _grid_scan, field_normal_block, gaussian_starts, meets, seeded_ascent
from multinorm.spaces import _root


def _frozen_seeded_ascent(project, value, seeds, shape, cfg, complex_field=False, iters=200, ceiling=INF, exit_step=1e-7):
    dt = complex if complex_field else float
    starts = [np.asarray(s) for s in seeds] + list(gaussian_starts(cfg, "ascent.starts", shape, complex_field))
    pts, ok = project(np.array(starts, dtype=dt))
    ids = np.flatnonzero(ok)
    if ids.size == 0:
        return -INF, None
    pts = pts[ids]
    vals = np.asarray(value(pts), dtype=float)
    if ceiling != INF:
        i, best = _first_max(vals)
        if meets(best, ceiling):
            return best, pts[i].copy()

    final_vals, final_pts = vals.copy(), pts.copy()
    live = np.arange(ids.size)
    directions = cfg.stream("ascent.directions")
    K = min(iters, max(1, 2**16 // (len(starts) * math.prod(shape))))
    d = np.zeros_like(pts)
    step = np.full(ids.size, 0.5)
    mult = np.zeros(ids.size)
    misses = np.zeros(ids.size, dtype=int)
    riding = np.zeros(ids.size, dtype=bool)
    grow = 1 + 1e-9
    bcast = (-1,) + (1,) * len(shape)

    for t in range(iters):
        if t % K == 0:
            pool = field_normal_block(directions, K, (len(starts), *shape), complex_field)
        fresh = ~riding
        d = np.where(riding.reshape(bcast), d, pool[t % K, ids[live]])
        mult = np.where(riding, 2.0 * mult, step)
        cand, cok = project(pts + mult.reshape(bcast) * d)
        if cok.all():
            v = np.asarray(value(cand), dtype=float)
        else:
            v = np.full(live.size, -INF)
            if cok.any():
                v[cok] = value(cand[cok])

        better = v > np.maximum(vals * grow, vals / grow)
        vals = np.where(better, v, vals)
        pts = np.where(better.reshape(bcast), cand, pts)
        misses = np.where(better, 0, misses + fresh)
        riding = better
        shrink = misses >= 8
        if shrink.any():
            step = np.where(shrink, step * 0.6, step)
            misses[shrink] = 0
            keep = step >= exit_step
            if not keep.all():
                gone = ~keep
                final_vals[live[gone]], final_pts[live[gone]] = vals[gone], pts[gone]
                live, vals, pts, step, mult, misses, riding, d = (
                    a[keep] for a in (live, vals, pts, step, mult, misses, riding, d)
                )
                if live.size == 0:
                    break
    final_vals[live], final_pts[live] = vals, pts

    best_r, best_val = _first_max(final_vals)
    if best_val == -INF:
        return -INF, None
    return best_val, final_pts[best_r].copy()


def _frozen_unit_columns(space):
    def project(S):
        norms = space.norm_cols(S)
        ok = ~np.any(norms <= 0, axis=-1)
        out = S.copy()
        out[ok] = S[ok] / norms[ok][:, None, :]
        return out, ok

    return project


def _frozen_partition(spec, space):
    blocks = [np.asarray(b, dtype=int) for b in spec.blocks]
    p = space.p
    if p == INF:
        return lambda X: multinorms._as_value(np.max([np.abs(X[..., b, :]).max(axis=(-2, -1)) for b in blocks], axis=0))

    def part(X):
        contrib = space.w[:, None] * np.abs(X) ** p
        total = 0.0
        for b in blocks:
            total = total + contrib[..., b, :].sum(axis=-2).max(axis=-1)
        return _root(total, p)

    return part


def _frozen_descent_value(space, n, levels, cfg):
    return lambda C: -_grid_scan(lambda Z: space.norm_cols(C @ Z.T), len(C), n, levels, cfg)[0]


def _same(a, b):
    """Bit-for-bit equality of two (value, point) results or two arrays, NaN equal to NaN."""
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same(x, y)
        return
    if a is None or b is None:
        assert a is None and b is None
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _radial(S, ok_extra=None):
    """Projection onto the Frobenius unit sphere of each (*shape) point; a zero point (or one ok_extra rejects) is degenerate."""
    norms = np.sqrt(np.sum(np.abs(S) ** 2, axis=tuple(range(1, S.ndim))))
    ok = norms > 0
    if ok_extra is not None:
        ok &= ok_extra(S)
    out = S.copy()
    out[ok] = S[ok] / norms[ok].reshape((-1,) + (1,) * (S.ndim - 1))
    return out, ok


def _quadratic(A):
    """|<x, A x>| over the flattened point: a smooth objective with many ascents."""
    def value(P):
        F = P.reshape(len(P), -1)
        return np.abs(np.einsum("bi,ij,bj->b", F.conj(), A, F))

    return value


def _cases():
    rng = np.random.default_rng(11)
    cases = []
    for complex_field in (False, True):
        dt = complex if complex_field else float
        shape = (3, 2)
        A = rng.standard_normal((6, 6))
        A = A + A.T
        quad = _quadratic(A)
        good_seed = rng.standard_normal(shape).astype(dt)
        zero_seed = np.zeros(shape, dtype=dt)
        cases += [
            ("plain", _radial, quad, [good_seed], shape, complex_field, INF),
            # a seed that does not project: ids is not every start
            ("unprojected_seed", _radial, quad, [zero_seed, good_seed], shape, complex_field, INF),
            # a projection that fails for some candidates only
            ("partial_projection", lambda S: _radial(S, lambda T: np.abs(T[:, 0, 0]) < 0.8 * np.sqrt(np.sum(np.abs(T) ** 2, axis=(1, 2)))),
             quad, [good_seed], shape, complex_field, INF),
            # a certified ceiling far above every start: the search climbs
            ("unmet_ceiling", _radial, quad, [good_seed], shape, complex_field, 1e6),
            # a negative objective: the bar is vals / grow
            ("negative", _radial, lambda P: -quad(P) - 1.0, [good_seed], shape, complex_field, INF),
            # a constant objective: nothing ever improves, so every step shrinks as fast as it can
            ("constant", _radial, lambda P: np.full(len(P), 2.5), [good_seed], shape, complex_field, INF),
            # a step objective: restarts on a plateau shrink their steps while others still climb
            ("plateaus", _radial, lambda P: np.floor(4.0 * np.abs(P[:, 0, 0])), [good_seed], shape, complex_field, INF),
            # 16 x 16 points: the pool holds 7 ticks, so blocks are drawn and gathered mid-climb
            ("small_blocks", _radial, lambda P: np.floor(8.0 * np.abs(P[:, 0, 0] + P[:, 1, 1])), [], (16, 16), complex_field, INF),
        ]
    return cases


@pytest.mark.parametrize("iters", [1, 7, 200, 400])
@pytest.mark.parametrize("case", _cases(), ids=lambda c: f"{c[0]}-{'C' if c[5] else 'R'}")
def test_seeded_ascent_matches_the_frozen_tick(monkeypatch, case, iters):
    # the ascent runs optim._ASCENT_ITERS ticks (200); other counts are patched in, and the frozen copy gets the same.
    # Past tick 248 (the 400 cases) a step can fall below the frozen copy's exit at 1e-7, which 200 ticks never
    # reach and the ascent no longer has: there the frozen copy runs without it
    _, project, value, seeds, shape, complex_field, ceiling = case
    cfg = OptimConfig(seed=5, restarts=6)
    monkeypatch.setattr(optim, "_ASCENT_ITERS", iters)
    got = seeded_ascent(project, value, seeds, shape, cfg, complex_field, ceiling=ceiling)
    want = _frozen_seeded_ascent(project, value, seeds, shape, cfg, complex_field, iters, ceiling, 1e-7 if iters <= 200 else 0.0)
    _same(got, want)


@pytest.mark.parametrize("complex_field", [False, True])
def test_a_met_ceiling_returns_the_start_at_once(complex_field):
    dt = complex if complex_field else float
    seed = np.ones((3, 2), dtype=dt)
    value = lambda P: np.abs(P[:, 0, 0]) + np.abs(P[:, 1, 1])  # noqa: E731
    cfg = OptimConfig(seed=3, restarts=4)
    starts = np.concatenate([seed[None], gaussian_starts(cfg, "ascent.starts", (3, 2), complex_field)])
    ceiling = float(np.max(value(_radial(starts)[0])))
    got = seeded_ascent(_radial, value, [seed], (3, 2), cfg, complex_field, ceiling=ceiling)
    want = _frozen_seeded_ascent(_radial, value, [seed], (3, 2), cfg, complex_field, ceiling=ceiling)
    _same(got, want)
    assert got[0] == ceiling


def test_no_projected_start_returns_nothing():
    cfg = OptimConfig(seed=1, restarts=3)
    nothing = lambda S: (S, np.zeros(len(S), dtype=bool))  # noqa: E731
    assert seeded_ascent(nothing, lambda P: np.zeros(len(P)), [], (2, 2), cfg) == (-INF, None)


def _stacks(rng, complex_field):
    dt = complex if complex_field else float
    S = rng.standard_normal((5, 3, 4)).astype(dt)
    if complex_field:
        S = S + 1j * rng.standard_normal(S.shape)
    with_zero = S.copy()
    with_zero[2, :, 1] = 0.0
    with_zero[4, :, 3] = 0.0
    return S, with_zero


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_unit_columns_matches_the_frozen_projection(p, field):
    rng = np.random.default_rng(2)
    space = SpaceSpec(p, 3, (0.5, 1.0, 2.5), field)
    for S in _stacks(rng, field == "complex"):
        _same(summing.unit_columns(space)(S), _frozen_unit_columns(space)(S))


BLOCKS = {
    "contiguous": [[0, 1], [2, 3, 4]],
    "non_contiguous": [[0, 3], [1, 2, 4]],
    "with_empty": [[], [4, 2], [0, 1, 3]],
    "one_block": [[0, 1, 2, 3, 4]],
    "unsorted": [[2, 1], [0], [3, 4]],
}


@pytest.mark.parametrize("blocks", list(BLOCKS.values()), ids=list(BLOCKS))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
@pytest.mark.parametrize("weights,field", [((), "real"), ((0.5, 2.0, 1.0, 3.0, 0.25), "real"), ((0.5, 2.0, 1.0, 3.0, 0.25), "complex")])
def test_partition_evaluator_matches_the_frozen_one(blocks, p, weights, field):
    rng = np.random.default_rng(7)
    space = SpaceSpec(p, 5, weights, field)
    spec = MultiNormSpec.partition(blocks)
    cfg = OptimConfig()
    # the frozen sup-norm evaluator raised on an empty block, which adds nothing: it is checked without that block
    frozen_spec = MultiNormSpec.partition([b for b in blocks if b or p != INF])
    for n in (1, 3):
        new, old = multinorms.exact_evaluator(spec, space, n, cfg), _frozen_partition(frozen_spec, space)
        X = rng.standard_normal((2, 4, 5, n))
        if field == "complex":
            X = X + 1j * rng.standard_normal(X.shape)
        for Y in (X[0, 0], X[0], X):
            got, want = new(Y), old(Y)
            assert type(got) is type(want)
            _same(got, want)


def test_partition_evaluator_on_a_long_contiguous_block():
    # a block of nine rows: numpy adds a width-1 stack's eight or more gathered terms pairwise, a lone tuple's too
    rng = np.random.default_rng(3)
    space = SpaceSpec(1.5, 10)
    spec = MultiNormSpec.partition([list(range(9)), [9]])
    for n in (1, 2):
        X = rng.standard_normal((6, 10, n))
        new, old = multinorms.exact_evaluator(spec, space, n, OptimConfig()), _frozen_partition(spec, space)
        _same(new(X), old(X))
        _same(new(X[0]), old(X[0]))


def _frozen_growth(monkeypatch, spec, space, n, cfg):
    """rate_of_growth with the frozen climb, projection and partition evaluator put back."""
    real_exact = multinorms.exact_evaluator

    def exact(s, sp, k, c):
        return _frozen_partition(s, sp) if s.variant == "partition" else real_exact(s, sp, k, c)

    with monkeypatch.context() as m:
        m.setattr(multinorms, "seeded_ascent", _frozen_seeded_ascent)
        m.setattr(summing, "unit_columns", _frozen_unit_columns)
        m.setattr(multinorms, "exact_evaluator", exact)
        return multinorms.rate_of_growth(spec, space, n, cfg)


@pytest.mark.parametrize(
    "p,dim,blocks,n,field",
    [
        (1.0, 3, [[0, 2], [1]], 2, "real"),
        (2.0, 4, [[0, 1], [2, 3]], 3, "real"),
        (3.0, 4, [[], [0, 1, 2, 3]], 4, "real"),
        (1.5, 3, [[1], [0, 2]], 2, "complex"),
    ],
)
def test_partition_growth_matches_the_frozen_climb(monkeypatch, p, dim, blocks, n, field):
    space = SpaceSpec(p, dim, tuple(1.0 + 0.5 * k for k in range(dim)), field)
    spec = MultiNormSpec.partition(blocks)
    cfg = OptimConfig(seed=9, restarts=2)
    got = multinorms.rate_of_growth(spec, space, n, cfg)
    want = _frozen_growth(monkeypatch, spec, space, n, cfg)
    assert got.method == "unit_tuple_ascent"
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


@pytest.mark.parametrize("field,n,levels", [("real", 2, 2), ("real", 4, 2), ("complex", 2, 16), ("complex", 3, 16), ("complex", 5, 8)])
def test_descent_value_is_minus_the_grid_scan(field, n, levels):
    rng = np.random.default_rng(4)
    space = SpaceSpec(1.5, 3, (1.0, 0.5, 2.0), field)
    cfg = OptimConfig()
    C = rng.standard_normal((6, 3, n))
    if field == "complex":
        C = C + 1j * rng.standard_normal(C.shape)
    C[2, 1, 0] = np.nan  # a row with no number
    C[4, :, :] = np.nan
    got = summing._descent_value(space, n, levels, cfg)(C)
    want = _frozen_descent_value(space, n, levels, cfg)(C)
    _same(got, want)
    assert np.isposinf(got[2]) and np.isposinf(got[4])


def test_descent_value_past_one_block_and_past_the_budget():
    rng = np.random.default_rng(5)
    space = SpaceSpec(1.0, 2, (), "complex")
    C = rng.standard_normal((3, 2, 6)) + 1j * rng.standard_normal((3, 2, 6))
    # 8^5 grid points: more than one block, so the value scans the grid block by block
    cfg = OptimConfig()
    _same(summing._descent_value(space, 6, 8, cfg)(C), _frozen_descent_value(space, 6, 8, cfg)(C))
    # past the budget both raise, at the first value call
    small = OptimConfig(max_enum=100)
    value = summing._descent_value(space, 6, 8, small)
    with pytest.raises(BudgetError):
        value(C)


def _frozen_c_n(monkeypatch, space, n, cfg):
    with monkeypatch.context() as m:
        m.setattr(summing, "seeded_ascent", _frozen_seeded_ascent)
        m.setattr(summing, "unit_columns", _frozen_unit_columns)
        m.setattr(summing, "_descent_value", _frozen_descent_value)
        return summing.c_n(space, n, cfg)


@pytest.mark.parametrize(
    "p,dim,n,field",
    [
        (1.0, 3, 3, "real"),
        (1.5, 2, 2, "real"),
        (3.0, 2, 3, "real"),
        (1.0, 2, 2, "complex"),
        (2.0, 2, 3, "complex"),
    ],
)
def test_c_n_matches_the_frozen_descent(monkeypatch, p, dim, n, field):
    space = SpaceSpec(p, dim, tuple(1.0 + 0.25 * k for k in range(dim)), field)
    cfg = OptimConfig(seed=13, restarts=2)
    got = summing.c_n(space, n, cfg)
    want = _frozen_c_n(monkeypatch, space, n, cfg)
    assert got.method == "unit_tuple_descent"
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
