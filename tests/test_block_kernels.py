"""Golden test: the block sign and torus kernels choose exactly like the per-point scans they replaced.

_pointwise_sign_supremum and _pointwise_torus_sweep are frozen copies of
the one-point-per-call loops, with a scalar objective.  The block kernels
get the same objective lifted to blocks, and must return the same
(value, witness) bit for bit.
"""

import math

import numpy as np
import pytest

from multinorm.optim import INF, OptimConfig, _torus_sweep, sign_supremum
from multinorm.partitions import unit_grid, unit_roots
from multinorm.spaces import SpaceSpec


def _pointwise_sign_supremum(f, n, cfg, symmetric=False):
    best, best_eps = -INF, None
    for block in unit_grid(n if symmetric else n + 1, 2, cfg.max_enum):
        for eps in block if symmetric else block[:, 1:]:
            val = float(f(eps))
            if val > best:
                best, best_eps = val, eps.copy()
    return best, best_eps


def _pointwise_torus_sweep(f, n, cfg, real):
    candidates0 = unit_roots(2 if real else cfg.grid_points)

    def sweep(zeta, cands_for):
        improved = True
        val = float(f(zeta))
        guard = 0
        while improved and guard < 12:
            improved = False
            guard += 1
            for j in range(1, n):
                old = zeta[j]
                best_c, best_v = old, val
                for c in cands_for(j, zeta):
                    zeta[j] = c
                    v = float(f(zeta))
                    if v > best_v + 1e-15:
                        best_c, best_v = c, v
                zeta[j] = best_c
                if best_v > val + 1e-15:
                    val = best_v
                    improved = True
        return val, zeta

    starts = [np.ones(n, dtype=float if real else complex)]
    # one block of uniforms for the random starts, row by row
    for u in cfg.stream("torus_sweep.starts").random((min(cfg.restarts, 8) - 1, n)):
        if real:
            starts.append(np.where(u < 0.5, 1.0, -1.0))
        else:
            starts.append(np.exp(2j * np.pi * u))
    for s in starts:
        s[0] = 1.0

    best, best_z = -INF, None
    for z0 in starts:
        val, z = sweep(z0.copy(), lambda j, zeta: candidates0)
        if not real:
            width = 2 * 2 * np.pi / cfg.grid_points
            for _ in range(cfg.refine_passes):
                base = np.angle(z)

                def local(j, zeta, b=base, w=width):
                    offs = np.linspace(-w / 2, w / 2, 9)
                    return np.exp(1j * (b[j] + offs))

                val, z = sweep(z, local)
                width /= 2.0
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
    cfg = OptimConfig(seed=21 + n, restarts=restarts, grid_points=16, refine_passes=2)
    real = not is_complex
    for name, f in _objectives(n, is_complex).items():
        want_val, want_z = _pointwise_torus_sweep(f, n, cfg, real)
        _assert_same(_torus_sweep(_lifted(f), n, cfg, real), want_val, want_z, name)
