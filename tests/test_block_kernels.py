"""Golden test: the block sign and torus kernels choose exactly like per-point scans.

_pointwise_sign_supremum and _pointwise_grid_scan are frozen
one-point-per-call loops over the same grids, with a scalar objective.  The block kernels
get the same objective lifted to blocks, and must return the same
(value, witness) bit for bit.
"""

import math

import numpy as np
import pytest

from multinorm.optim import INF, OptimConfig, _first_max, sign_supremum, torus_supremum
from multinorm.partitions import unit_grid
from multinorm.spaces import SpaceSpec


def _pointwise_sign_supremum(f, n, cfg, symmetric=False):
    best, best_eps = -INF, None
    for block in unit_grid(n if symmetric else n + 1, 2, cfg.max_enum):
        for eps in block if symmetric else block[:, 1:]:
            val = float(f(eps))
            if val > best:
                best, best_eps = val, eps.copy()
    return best, best_eps


def _pointwise_grid_scan(f, n, levels, cfg):
    best, best_z = -INF, None
    for block in unit_grid(n, levels, cfg.max_enum):
        for z in block:
            val = float(f(z))
            if val > best:
                best, best_z = val, z.copy()
    return best, best_z


def _lifted(f):
    return lambda Z: np.array([f(z) for z in Z], dtype=float)


def _combination_norm(n, r, is_complex):
    rng = np.random.default_rng([n, int(is_complex), 0 if r == INF else int(10 * r)])
    space = SpaceSpec(r, 3, tuple(rng.uniform(0.5, 2.0, 3)), "complex" if is_complex else "real")
    X = rng.standard_normal((3, n)) + (1j * rng.standard_normal((3, n)) if is_complex else 0)
    return lambda z: space.norm(X @ z)


def _ragged(z):
    # NaN on some points, -inf on others: neither may ever win
    s = float(np.real(z.sum()))
    if abs(s) < 0.5:
        return math.nan
    if s < -2.5:
        return -INF
    return abs(np.cos(3 * s)) + 0.01 * float(np.imag(z).sum())


def _constant(z):
    return 1.0


def _assert_same(res, want_val, want_w, name):
    assert res.lower == want_val or (math.isnan(res.lower) and math.isnan(want_val)), name
    if want_w is None:
        assert res.witness is None, name
    else:
        assert res.witness.dtype == want_w.dtype and np.array_equal(res.witness, want_w), name


def _objectives(n, is_complex):
    out = {f"norm_r{r}": _combination_norm(n, r, is_complex) for r in (1.0, 2.0, 3.0, INF)}
    out.update(ragged=_ragged, constant=_constant)
    return out


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_block_sign_supremum_matches_pointwise_scan(n, symmetric):
    cfg = OptimConfig(seed=4)
    for name, f in _objectives(n, False).items():
        want_val, want_eps = _pointwise_sign_supremum(f, n, cfg, symmetric)
        _assert_same(sign_supremum(_lifted(f), n, cfg, symmetric), want_val, want_eps, name)


def test_block_sign_supremum_matches_pointwise_scan_across_grid_blocks():
    # 2^13 pinned rows arrive in two unit_grid blocks; ties and the maximum may sit in either
    cfg = OptimConfig(seed=4)
    n = 14
    w = np.random.default_rng(3).standard_normal(n)
    for f in (lambda e: abs(float(e @ w)), lambda e: float(e[-1] < 0), _constant):
        want_val, want_eps = _pointwise_sign_supremum(f, n, cfg, symmetric=True)
        _assert_same(sign_supremum(_lifted(f), n, cfg, symmetric=True), want_val, want_eps, "")


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("restarts", [1, 3, 8])
def test_block_torus_sweep_matches_pointwise_sweep(n, is_complex, restarts):
    # torus_supremum sweeps the whole pinned grid (16 phases over C, signs over R); it draws nothing, so restarts must not matter
    cfg = OptimConfig(seed=21 + n, restarts=restarts, grid_points=16)
    field, levels = ("complex", 16) if is_complex else ("real", 2)
    for name, f in _objectives(n, is_complex).items():
        want_val, want_z = _pointwise_grid_scan(f, n, levels, cfg)
        res = torus_supremum(_lifted(f), n, cfg, field)
        _assert_same(res, want_val, want_z, name)
        assert res.kind == ("exact" if n == 1 or not is_complex else "lower"), name


def test_first_max_takes_the_first_number_and_never_a_nan():
    # rows of ties, NaN, -inf and all-NaN, as a stack and one by one; the loop is the reference
    rng = np.random.default_rng(5)
    V = rng.choice([math.nan, -INF, 0.0, 1.0, 2.0, 2.0], size=(400, 7))
    V[0], V[1] = math.nan, [math.nan, 3.0, math.nan, 3.0, -INF, 3.0, 1.0]
    i, v = _first_max(V)
    for row, got_i, got_v in zip(V, i, v):
        want_v = max((x for x in row if not math.isnan(x)), default=-INF)
        assert got_v == want_v
        if want_v > -INF:
            assert got_i == next(k for k, x in enumerate(row) if x == want_v)
        assert _first_max(row) == (int(got_i), float(got_v))
    assert (i[1], v[1], i[0], v[0]) == (1, 3.0, 0, -INF)
