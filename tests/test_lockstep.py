"""Golden test: the lockstep seeded_ascent climbs exactly like the sequential loop it replaced.

_sequential_ascent is a frozen copy of the one-restart-at-a-time loop,
with scalar project (point -> point or None) and scalar value callbacks,
less its exit once a step fell below 1e-7: that takes 31 shrinks of 8
misses each, so no restart of the 200-tick ascent reaches it.
It takes the stream layout as its definition: the starts are one block
from cfg.stream("ascent.starts"), and restart i's fresh direction at its
t-th step is row i of the t-th field_normal(rng, (L0, *shape)) draw from
cfg.stream("ascent.directions"), L0 being the number of starts.  The
lockstep engine gets the same callbacks lifted to stacks, and must return
the same (value, point) bit for bit.  A step is accepted when it beats
max(val * (1 + 1e-9), val / (1 + 1e-9)), which lies above val for either
sign of val: a margin relative to val only, so the climb of c * value is
the climb of value for every c > 0, up to rounding.
"""

import math
import tracemalloc

import numpy as np
import pytest

from multinorm import optim
from multinorm.optim import INF, OptimConfig, field_normal, field_normal_block, seeded_ascent, unconstrained


def _direction_rows(cfg, L0, shape, complex_field, iters, rows):
    """The directions of restarts rows at every tick, (iters, len(rows), *shape), from one pass over the stream."""
    rng = cfg.stream("ascent.directions")
    return np.stack([field_normal(rng, (L0, *shape), complex_field)[rows] for _ in range(iters)])


def _sequential_ascent(project, value, seeds, shape, cfg, complex_field=False, iters=200):
    starts = [np.asarray(s) for s in seeds]
    rng = cfg.stream("ascent.starts")
    for i in range(cfg.restarts):
        starts.append(field_normal(rng, shape, complex_field))

    # restarts take their directions in groups, one pass over the stream per group, which keeps the rows held to ~2**22
    group = max(1, 2**22 // (iters * math.prod(shape)))
    best_val, best_pt = -INF, None
    for si, s0 in enumerate(starts):
        if si % group == 0:
            directions = _direction_rows(cfg, len(starts), shape, complex_field, iters, slice(si, si + group))
        pt = project(np.array(s0, dtype=complex if complex_field else float))
        if pt is None:
            continue
        val = value(pt)
        step = 0.5
        misses = 0
        budget = iters
        while budget > 0:
            direction = directions[iters - budget, si % group]
            budget -= 1
            cand = project(pt + step * direction)
            v = value(cand) if cand is not None else -INF
            if v > max(val * (1 + 1e-9), val / (1 + 1e-9)):
                val, pt = v, cand
                misses = 0
                boost = 2.0 * step
                while budget > 0:
                    budget -= 1
                    cand = project(pt + boost * direction)
                    v = value(cand) if cand is not None else -INF
                    if v > max(val * (1 + 1e-9), val / (1 + 1e-9)):
                        val, pt = v, cand
                        boost *= 2.0
                    else:
                        break
            else:
                misses += 1
            if misses >= 8:
                step *= 0.6
                misses = 0
        if val > best_val:
            best_val, best_pt = val, pt
    return best_val, best_pt


def _stacked(project, value):
    def project_stack(S):
        out, ok = S.copy(), np.zeros(len(S), dtype=bool)
        for b, x in enumerate(S):
            y = project(x)
            if y is not None:
                out[b], ok[b] = y, True
        return out, ok

    return project_stack, lambda P: np.array([value(x) for x in P], dtype=float)


def _unit_columns(x):
    norms = np.sqrt((np.abs(x) ** 2).sum(axis=0))
    if np.any(norms <= 0):
        return None
    return x / norms[None, :]


def _half_space(x):
    # degenerate for some candidates: the real part of the first entry must stay above -0.3
    if np.real(x.flat[0]) < -0.3:
        return None
    return x / max(1.0, float(np.abs(x).max()))


def _never(x):
    return None


def _identity(x):
    return x


def _bumpy(x):
    a = np.abs(x)
    return float((a**1.5).sum() ** (1 / 1.5) - 0.3 * np.cos(3 * a).sum())


def _negative_spread(x):
    # a c_n-like objective: minimize a max of column combinations
    return -float(np.abs(x.sum(axis=1)).max() + 0.1 * np.abs(x[:, 0] - x[:, -1]).sum())


def _constant(x):
    return 1.0


PROJECTIONS = {"unit_columns": _unit_columns, "half_space": _half_space, "identity": _identity, "never": _never}
OBJECTIVES = {"bumpy": _bumpy, "negative": _negative_spread, "constant": _constant}


def _seeds(shape, is_complex):
    dt = complex if is_complex else float
    zero = np.zeros(shape, dtype=dt)  # None under unit_columns
    far = np.full(shape, -1.0, dtype=dt)  # None under half_space
    ones = np.ones(shape, dtype=dt)
    return [zero, ones, far, ones]


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("restarts", [1, 2, 5])
@pytest.mark.parametrize("iters", [1, 7, 200, 400])
@pytest.mark.parametrize("proj", list(PROJECTIONS))
@pytest.mark.parametrize("obj", list(OBJECTIVES))
def test_lockstep_matches_sequential(monkeypatch, is_complex, restarts, iters, proj, obj):
    # the ascent runs optim._ASCENT_ITERS ticks (200); other counts are patched in.  At 400 ticks steps fall
    # below 1e-7 and, with no exit, every restart climbs on in both engines
    shape = (3, 2)
    cfg = OptimConfig(seed=17 + restarts, restarts=restarts)
    project, value = PROJECTIONS[proj], OBJECTIVES[obj]
    seeds = _seeds(shape, is_complex)
    monkeypatch.setattr(optim, "_ASCENT_ITERS", iters)
    want_val, want_pt = _sequential_ascent(project, value, seeds, shape, cfg, is_complex, iters)
    got_val, got_pt = seeded_ascent(*_stacked(project, value), seeds, shape, cfg, is_complex)
    assert got_val == want_val or (math.isnan(got_val) and math.isnan(want_val))
    if want_pt is None:
        assert got_pt is None
    else:
        assert got_pt.dtype == want_pt.dtype
        assert np.array_equal(got_pt, want_pt)


def test_lockstep_no_seeds_and_all_degenerate():
    cfg = OptimConfig(seed=3, restarts=3)
    assert seeded_ascent(*_stacked(_never, _bumpy), [], (2, 2), cfg) == (-INF, None)


def test_constant_objective_keeps_first_find():
    # nothing beats the first feasible start, so its projected seed is returned
    cfg = OptimConfig(seed=5, restarts=4)
    seeds = _seeds((3, 2), False)
    val, pt = seeded_ascent(*_stacked(_unit_columns, _constant), seeds, (3, 2), cfg)
    assert val == 1.0
    assert np.array_equal(pt, _unit_columns(seeds[1]))


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("k", [1, 7, 200])
def test_block_draw_equals_successive_field_normal_calls(is_complex, k):
    shape = (3, 2)
    rng, ref = np.random.default_rng(41), np.random.default_rng(41)
    for _ in range(2):  # a second block continues the stream where the first stopped
        block = field_normal_block(rng, k, shape, is_complex)
        want = np.stack([field_normal(ref, shape, is_complex) for _ in range(k)])
        assert block.dtype == want.dtype and block.shape == (k, *shape)
        assert np.array_equal(block.view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("shape", [(3, 2), (8, 4)])
@pytest.mark.parametrize("proj, obj", [("unit_columns", "bumpy"), ("half_space", "negative"), ("identity", "constant")])
def test_lockstep_matches_sequential_with_refills(is_complex, shape, proj, obj):
    # c_n's 64 Gaussian restarts plus four seeds: blocks of 2**16 // (68 * 6) = 160 or 2**16 // (68 * 32) = 30
    # ticks, so new blocks are drawn mid-climb
    iters = 200
    cfg = OptimConfig(seed=29, restarts=64)
    assert 2**16 // ((cfg.restarts + 4) * math.prod(shape)) < iters
    project, value = PROJECTIONS[proj], OBJECTIVES[obj]
    seeds = _seeds(shape, is_complex)
    want_seen, got_seen = [], []

    def recorded(seen):
        # every trajectory, not just the best one: both engines must evaluate the same points
        return lambda x: seen.append(x.tobytes()) or value(x)

    want_val, want_pt = _sequential_ascent(project, recorded(want_seen), seeds, shape, cfg, is_complex, iters)
    got_val, got_pt = seeded_ascent(*_stacked(project, recorded(got_seen)), seeds, shape, cfg, is_complex)
    assert sorted(got_seen) == sorted(want_seen)
    assert got_val == want_val
    assert got_pt.dtype == want_pt.dtype
    assert np.array_equal(got_pt, want_pt)


def test_direction_pool_memory_is_bounded():
    # 2048 restarts of shape (8, 4): a pool of 200 directions per restart would take
    # 2048 * 200 * 32 * 8 B = 105 MB; the bounded pool takes one direction per restart, 0.5 MB
    cfg = OptimConfig(seed=3, restarts=2048)
    tracemalloc.start()
    try:
        seeded_ascent(unconstrained, lambda P: -np.abs(P).sum(axis=(1, 2)), [], (8, 4), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("proj, obj", [("unit_columns", "bumpy"), ("half_space", "negative")])
def test_unmet_ceiling_climbs_as_without_one(is_complex, proj, obj):
    # a ceiling no start meets changes nothing: same value and point, bit for bit
    shape = (3, 2)
    cfg = OptimConfig(seed=23, restarts=3)
    project, value = _stacked(PROJECTIONS[proj], OBJECTIVES[obj])
    seeds = _seeds(shape, is_complex)
    want_val, want_pt = seeded_ascent(project, value, seeds, shape, cfg, is_complex)
    got_val, got_pt = seeded_ascent(project, value, seeds, shape, cfg, is_complex, ceiling=want_val + 1.0)
    assert got_val == want_val
    assert np.array_equal(got_pt, want_pt)


def test_met_ceiling_returns_the_first_maximal_start_without_climbing():
    shape = (2, 1)
    cfg = OptimConfig(seed=4, restarts=3)
    seeds = [np.array([[0.5], [0.0]]), np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]
    calls = []

    def value(P):
        calls.append(len(P))
        return np.minimum(np.abs(P).max(axis=(1, 2)), 1.0)

    # seeds 1 and 2 both reach the ceiling 1; the first of them is returned after one value call
    val, pt = seeded_ascent(unconstrained, value, seeds, shape, cfg, ceiling=1.0)
    assert val == 1.0
    assert np.array_equal(pt, seeds[1])
    assert calls == [len(seeds) + cfg.restarts]
    # within 1e-9 of the ceiling, relative, a start still meets it
    val, pt = seeded_ascent(unconstrained, value, seeds, shape, cfg, ceiling=1.0 + 5e-10)
    assert val == 1.0 and np.array_equal(pt, seeds[1])
    assert len(calls) == 2
    # the match is relative below 1 too: values and ceiling scaled by 1e-10 give the same verdicts
    tiny = lambda P: 1e-10 * value(P)
    val, pt = seeded_ascent(unconstrained, tiny, seeds, shape, cfg, ceiling=1e-10 * (1.0 + 5e-10))
    assert val == 1e-10 and np.array_equal(pt, seeds[1])
    assert len(calls) == 3
    val, pt = seeded_ascent(unconstrained, tiny, seeds, shape, cfg, ceiling=1e-10 * (1.0 + 2e-9))
    assert len(calls) > 4  # unmet: it climbs


def test_negative_objective_never_accepts_a_worse_point():
    # vals * (1 + tol) lies below vals < 0, so the old rule took steps down: this returned -1.0000000019847433
    val, pt = seeded_ascent(unconstrained, lambda S: -(1 + 1e-12 * (S**2).sum(axis=(1, 2))), [np.zeros((2, 2))], (2, 2), OptimConfig(seed=3, restarts=2))
    assert val == -1.0 and not pt.any()
