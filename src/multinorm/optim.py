"""Search kernels: sign/torus grid enumeration, ball ascent, p->q operator norms.

Every result is a NormValue carrying a certificate: an exact value, a
bracket [lower, upper], or a certified lower bound with the witness that
attains it; NormValue.certified gives a search's verdict.  Every random
draw comes from cfg.stream(site, index), a generator keyed by (seed, call
site, index): one generator per call, drawn in whole blocks, so results
are bit-identical across runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Sequence

import numpy as np

from .errors import DegenerateNormError
from .partitions import grid_fits, unit_grid
from .spaces import COMPLEX, INF, REAL, MatrixOp, _as_value, conjugate_index, lp_norm, phase, real_entries, vector_to_json

_ASCENT_ITERS = 200
_TORUS_UPPER_POINTS = 2**18  # grid budget of torus_certified_upper, within cfg.max_enum
_POWER_ENTRIES = 2**18  # most matrix entries a stacked power iteration gathers per step; longer stacks climb in chunks

# The call sites that draw random numbers.  A site's id is part of its
# generator's key, so the ids are fixed here (never hash(str), which varies
# between processes) and an id is never reused for another site.
SITE_ID = {
    "ascent.starts": 1,
    "ascent.directions": 2,
    "power_ascent.starts": 3,
    # 4 is retired (the torus sweep's starts): never reuse it
    "roots_upper.perms": 5,
    "standard_q.starts": 6,
    # 7 is retired (the Hilbert alternation's starts): never reuse it
    "axioms": 8,
    "matrix_law": 9,
    "coagulation": 10,
    "hermitian": 11,
    "small": 12,
    "orthogonal": 13,
    "orthogonal_set": 14,
    "orthogonal_multinorm": 15,
    "pq_alternation.starts": 16,
}
# an audit's one stream per draw kind, as the index of cfg.stream(site, index)
COUNTS, NORMALS, UNIFORMS = 0, 1, 2


@dataclass(frozen=True)
class OptimConfig:
    seed: int = 2024
    restarts: int = 32
    grid_points: int = 64
    max_enum: int = 2**20
    tol: float = 1e-9

    def __post_init__(self):
        for name, least in (("restarts", 1), ("grid_points", 8), ("max_enum", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real) or not 0 < self.tol < INF:
            raise ValueError(f"tol must be a finite positive number, got {self.tol!r}")

    def stream(self, site: str, index: int = 0) -> np.random.Generator:
        """The generator of (seed, site, index); the seed is taken mod 2**64, so any integer seed works."""
        return np.random.default_rng([self.seed % 2**64, SITE_ID[site], index])

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(doc: dict) -> "OptimConfig":
        return OptimConfig(**{f.name: doc[f.name] for f in fields(OptimConfig) if f.name in doc})


@dataclass(frozen=True)
class NormValue:
    """A certified numeric result: lower <= true value <= upper; a NaN bound or an exact +-inf raises DegenerateNormError."""

    kind: str  # "exact" | "bracket" | "lower"
    lower: float
    upper: float
    witness: Any
    method: str

    def __post_init__(self):
        if self.kind not in ("exact", "bracket", "lower"):
            raise ValueError(f"bad kind {self.kind!r}")
        if math.isnan(self.lower) or math.isnan(self.upper) or (self.kind == "exact" and math.isinf(self.lower)):
            raise DegenerateNormError(f"{self.method or 'result'} is not a finite number: [{self.lower}, {self.upper}]")
        if self.lower > self.upper + 1e-12 * max(1.0, abs(self.upper)):
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def value(self) -> float:
        """Best point estimate: the certified lower bound (= value when exact)."""
        return self.lower

    @staticmethod
    def exact(value: float, witness=None, method: str = "") -> "NormValue":
        return NormValue("exact", float(value), float(value), witness, method)

    @staticmethod
    def bracket(lower: float, upper: float, witness=None, method: str = "") -> "NormValue":
        return NormValue("bracket", float(lower), float(upper), witness, method)

    @staticmethod
    def lower_bound(lower: float, witness=None, method: str = "") -> "NormValue":
        return NormValue("lower", float(lower), INF, witness, method)

    @staticmethod
    def certified(lower: float, upper: float, witness=None, method: str = "") -> "NormValue":
        """The verdict on a supremum from a feasible witness's value lower and a proven bound upper.

        lower is clamped at 0 (a search that projected nothing reports
        -inf, and certifies 0).  Then: kind lower where upper is inf; exact
        at upper where lower meets it (see meets); else the bracket
        [min(lower, upper), upper].
        """
        lower = max(float(lower), 0.0)
        if upper == INF:
            return NormValue.lower_bound(lower, witness, method)
        if meets(lower, upper):
            return NormValue.exact(upper, witness, method)
        return NormValue.bracket(min(lower, upper), upper, witness, method)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "lower": self.lower,
            "upper": None if self.upper == INF else self.upper,
            "witness": _witness_json(self.witness),
            "method": self.method,
        }


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, np.ndarray):
        if w.ndim == 1:
            return vector_to_json(w)
        return [_witness_json(row) for row in w]
    if isinstance(w, dict):
        return {k: _witness_json(v) for k, v in w.items()}
    if isinstance(w, (list, tuple)):
        return [_witness_json(v) for v in w]
    if isinstance(w, (np.floating, float)):
        return float(w)
    if isinstance(w, (np.integer, int)):
        return int(w)
    if isinstance(w, (np.complexfloating, complex)):
        return [float(np.real(w)), float(np.imag(w))]
    return w


def field_normal(rng: np.random.Generator, shape, is_complex: bool) -> np.ndarray:
    """Standard normal draw; over C the imaginary part is drawn second."""
    z = rng.standard_normal(shape)
    if is_complex:
        z = z + 1j * rng.standard_normal(shape)
    return z


def field_normal_block(rng: np.random.Generator, k: int, shape: tuple, is_complex: bool) -> np.ndarray:
    """k successive field_normal(rng, shape, is_complex) draws as one (k, *shape) array, bit for bit, in one call."""
    if not is_complex:
        return rng.standard_normal((k, *shape))
    z = rng.standard_normal((k, 2, *shape))
    return z[:, 0] + 1j * z[:, 1]


def gaussian_starts(cfg: OptimConfig, site: str, shape: tuple, is_complex: bool) -> np.ndarray:
    """The (cfg.restarts, *shape) Gaussian starts of a multistart search, one block from cfg.stream(site)."""
    return field_normal_block(cfg.stream(site), cfg.restarts, shape, is_complex)


# ---------------------------------------------------------------------------
# exhaustive enumerations


def sign_supremum(f: Callable[[np.ndarray], np.ndarray], n: int, cfg: OptimConfig, symmetric: bool = False) -> NormValue:
    """Exact maximum of f over {+-1}^n by enumeration.

    f takes a (B, n) block of sign vectors and returns its B values; one
    call per unit_grid block.  symmetric=True asserts f(-e) = f(e) and
    pins the first sign to +1, halving the work.  Ties go to the first
    sign vector in grid order; NaN values never win.
    """
    vals, signs = _grid_scan(lambda E: np.asarray(f(E))[None], 1, n, 2, cfg, symmetric)
    return NormValue.exact(vals[0], signs[0] if vals[0] > -INF else None, "sign_enum")


def _grid_scan(f, B: int, n: int, levels: int, cfg: OptimConfig, pinned: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Per-row first maxima over the grid of levels-th roots of unity that the (B, G) values f gives each (G, n) block.

    The grid is unit_grid(n, levels, cfg.max_enum), first coordinate
    pinned to 1, or with pinned=False all of U_levels^n (one more free
    coordinate).  Returns the (B,) maxima and their (B, n) grid points;
    ties go to the first point in grid order, NaN never wins, and a row
    that nothing wins keeps -inf.  Raises BudgetError past cfg.max_enum.
    """
    best, points = np.full(B, -INF), np.zeros((B, n), dtype=float if levels == 2 else complex)
    for block in unit_grid(n if pinned else n + 1, levels, cfg.max_enum):
        Z = block if pinned else block[:, 1:]
        i, val = _first_max(f(Z))
        win = val > best
        best[win], points[win] = val[win], Z[i[win]]
    return best, points


def _first_max(vals):
    """(index, value) of the first maximum along the last axis, NaN counting as -inf; arrays for a stack of rows.

    The NaN-ignoring maximum and one compare find the first index without
    copying the block; a row with no number gets value -inf at index 0.
    """
    v = np.fmax.reduce(vals, axis=-1)
    i = np.argmax(vals == v[..., None], axis=-1)
    if vals.ndim == 1:
        return int(i), float(v) if v == v else -INF
    return i, np.where(np.isnan(v), -INF, v)


def torus_supremum(
    f: Callable[[np.ndarray], np.ndarray],
    n: int,
    cfg: OptimConfig,
    field: str = COMPLEX,
) -> NormValue:
    """The first best point of f over the pinned grid unit_grid(n, L, cfg.max_enum).

    L is 2 over the reals and cfg.grid_points over C.  f takes a (B, n)
    block of grid points and returns its B values; callers must pass f
    invariant under a common phase rotation, which is what pins the first
    coordinate.  Over R the grid holds every sign vector up to a common
    sign, so the value is exact, as sign_supremum's is; over C it is a lower bound for sup f
    over the n-torus, exact for n <= 1.  Raises BudgetError past
    cfg.max_enum.  Ties go to the first grid point; NaN never wins.
    """
    if field == REAL:
        return sign_supremum(f, n, cfg, symmetric=True)
    vals, points = _grid_scan(lambda Z: np.asarray(f(Z))[None], 1, n, cfg.grid_points, cfg)
    witness = points[0] if vals[0] > -INF else None
    if n <= 1:
        return NormValue.exact(vals[0], witness, "torus_grid")
    return NormValue.lower_bound(vals[0], witness, "torus_grid")


def torus_certified_upper(
    g: Callable[[np.ndarray], np.ndarray],
    lipschitz: Sequence[float],
    n: int,
    cfg: OptimConfig,
) -> float:
    """Certified upper bound for sup of g over the pinned n-torus.

    g takes a (B, n) block of phase vectors (first entry 1) and returns
    its B values.  lipschitz[j] bounds the derivative of g in the phase
    angle of coordinate j+1.  Uses a uniform grid plus the Lipschitz slack;
    returns inf when 8 points per free phase pass min(_TORUS_UPPER_POINTS, cfg.max_enum).
    """
    free = n - 1
    if free == 0:
        return float(np.max(g(np.ones((1, 1), dtype=complex))))
    budget = min(_TORUS_UPPER_POINTS, cfg.max_enum)
    pts = min(int(budget ** (1.0 / free)), 4 * cfg.grid_points)
    if pts < 8:
        return INF
    h = 2 * np.pi / pts
    slack = 0.5 * h * float(np.sum(np.asarray(lipschitz)))
    best = max(float(np.max(g(Z))) for Z in unit_grid(n, pts, budget))
    return best + slack


# ---------------------------------------------------------------------------
# generic projected ascent


def meets(value: float, bound: float) -> bool:
    """Whether value reaches the finite certified upper bound bound >= 0 within 1e-9 relative, so bound is the exact sup.

    The tolerance scales with bound, so meets(c * value, c * bound) is
    meets(value, bound) for every c > 0 (up to rounding).
    """
    return bound < INF and value >= bound * (1.0 - 1e-9)


def unconstrained(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The projection of an ascent without constraints: every point is feasible."""
    return S, np.ones(len(S), dtype=bool)


def seeded_ascent(
    project: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    value: Callable[[np.ndarray], np.ndarray],
    seeds: Sequence[np.ndarray],
    shape: tuple,
    cfg: OptimConfig,
    complex_field: bool = False,
    iters: int = _ASCENT_ITERS,
    ceiling: float = INF,
) -> tuple[float, np.ndarray | None]:
    """Maximize value over the feasible set reached by project.

    Both callbacks take stacks of shape (B, *shape).  project returns
    (points, ok): points[b] is the feasible image of point b where ok[b],
    and is ignored where point b is degenerate.  value returns the (B,)
    values of a stack of feasible points.

    Every restart (the seeds, then the cfg.restarts Gaussian starts of
    gaussian_starts(cfg, "ascent.starts", ...)) climbs in lockstep: on each
    tick each live restart proposes pt + step*d with a fresh direction d
    while exploring, or pt + boost*d while riding a direction that just
    paid, and one project and one value call handle all proposals.  The
    directions come from one cfg.stream("ascent.directions"): tick t draws
    field_normal(rng, (L0, *shape)) for the L0 starts, and restart i's fresh
    direction at tick t is row i of it, whatever else is live.  So every
    trajectory is the one the restart would climb alone.  Deterministic in
    cfg.seed; ties resolved by first find.

    The draws come K ticks at a time in one (K, L0, *shape) block, with
    K = min(iters, max(1, 2**16 // (L0 * prod(shape)))): the pool holds at
    most 2**16 entries, or one tick's directions where L0 * prod(shape)
    exceeds that.  The live restarts' rows of a block are gathered once,
    when it is drawn (the block itself while every start is live), and
    again only when a restart leaves.

    A tick's work is one project and one value call and about a dozen
    bookkeeping calls: the acceptance bar max(vals * grow, vals / grow) is
    kept and moves only on a tick where some restart improves, and a tick
    where none improves only counts the explorers' misses.  A restart
    leaves once its step falls below 1e-7, after 31 shrinks of 8 misses
    each, so not before tick 248; the default 200 ticks never reach it.

    ceiling is a certified upper bound of value, if the caller has one.
    Where the first maximum over the valued starts already meets it (see
    meets), that start is returned at once and nothing climbs; the default
    INF always climbs.
    """
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

    # per-restart state of the live restarts; a restart whose step underflows leaves the arrays
    final_vals, final_pts = vals.copy(), pts.copy()
    live = np.arange(ids.size)
    directions = cfg.stream("ascent.directions")
    K = min(iters, max(1, 2**16 // (len(starts) * math.prod(shape))))
    d = np.zeros_like(pts)
    step = np.full(ids.size, 0.5)
    mult = np.zeros(ids.size)
    misses = np.zeros(ids.size, dtype=int)
    riding = np.zeros(ids.size, dtype=bool)
    rode = False  # whether any restart rides this tick
    grow = 1 + cfg.tol
    # the larger of vals * grow and vals / grow lies above vals for either sign of vals; it moves only with vals
    bar = np.maximum(vals * grow, vals / grow)
    bcast = (-1,) + (1,) * len(shape)

    for t in range(iters):
        if t % K == 0:
            pool = field_normal_block(directions, K, (len(starts), *shape), complex_field)
            # the live restarts' rows of the block: the block itself while every start is live
            rows = pool if live.size == len(starts) else pool[:, ids[live]]
        # a riding restart keeps its direction; an exploring one takes its own row of this tick's draw.
        # An exploring restart steps by step; a paying step starts a ride at twice it, and a paying ride doubles
        if rode:
            d = np.where(riding.reshape(bcast), d, rows[t % K])
            mult = np.where(riding, 2.0 * mult, step)
        else:
            d, mult = rows[t % K], step
        cand, cok = project(pts + mult.reshape(bcast) * d)
        if cok.all():
            v = np.asarray(value(cand), dtype=float)
        else:
            v = np.full(live.size, -INF)
            if cok.any():
                v[cok] = value(cand[cok])

        better = v > bar
        if better.any():
            vals = np.where(better, v, vals)
            pts = np.where(better.reshape(bcast), cand, pts)
            misses = np.where(better, 0, misses + ~riding)
            bar = np.maximum(vals * grow, vals / grow)
            rode = True
        else:
            misses += ~riding if rode else 1
            rode = False
        riding = better
        if np.maximum.reduce(misses) >= 8:
            shrink = misses >= 8
            step = np.where(shrink, step * 0.6, step)
            misses[shrink] = 0
            keep = step >= 1e-7
            if not keep.all():
                gone = ~keep
                final_vals[live[gone]], final_pts[live[gone]] = vals[gone], pts[gone]
                live, vals, pts, step, mult, misses, riding, d, bar = (
                    a[keep] for a in (live, vals, pts, step, mult, misses, riding, d, bar)
                )
                rows = rows[:, keep]
                if live.size == 0:
                    break
    final_vals[live], final_pts[live] = vals, pts

    best_r, best_val = _first_max(final_vals)
    if best_val == -INF:
        return -INF, None
    return best_val, final_pts[best_r].copy()


def ball_linear_max(
    membership: Callable[[np.ndarray], np.ndarray],
    objective: Callable[[np.ndarray], np.ndarray],
    shape: tuple,
    cfg: OptimConfig,
    seeds: Sequence[np.ndarray] = (),
    complex_field: bool = False,
    ceiling: float = INF,
) -> NormValue:
    """Approximate sup{ |objective(x)| : membership(x) <= 1 }.

    membership must be a norm (positively homogeneous, zero only at zero on
    the directions explored); points are radially projected onto its unit
    sphere before climbing.  Both callbacks take a (B, *shape) stack and
    return its (B,) values, as seeded_ascent's do.  ceiling, a certified
    upper bound of the sup if the caller has one, goes to seeded_ascent:
    a start that meets it ends the search.  The result is always of kind
    lower (0 where nothing projects); the caller certifies it against its
    bound with NormValue.certified.
    """

    def project(P):
        nu = np.asarray(membership(P), dtype=float)
        ok = (nu > 0.0) & np.isfinite(nu)
        if not ok.all() and np.any(np.abs(objective(P[~ok])) > cfg.tol):
            raise DegenerateNormError("membership vanished on a direction with nonzero objective")
        out = P.copy()
        out[ok] = P[ok] / nu[ok].reshape((-1,) + (1,) * len(shape))
        return out, ok

    def value(P):
        return np.abs(objective(P))

    val, pt = seeded_ascent(project, value, seeds, shape, cfg, complex_field, ceiling=ceiling)
    return NormValue.certified(val, INF, pt, "ball_ascent")


def polish(step: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], X: np.ndarray, vals: np.ndarray, cap: int, gain: float) -> tuple[float, np.ndarray]:
    """The first best end point of a monotone climb from every start of the (S, *shape) stack X at once.

    vals holds the starts' (S,) values, NaN where a start cannot climb.
    step(P) -> (Q, v) maps a (L, *shape) stack of live points to their
    next iterates and (L,) values, NaN where a point cannot step.  A start
    stops, keeping its point, at its first step that gains at most gain,
    or after cap steps; the others go on.  Returns (value, point) of the
    first maximum over the starts, NaN never winning (value -inf where
    every start is NaN).
    """
    vals, X = _climb(lambda P, _: step(P), X, vals, cap, gain)
    i, best = _first_max(vals)
    return best, X[i]


def _climb(step, X: np.ndarray, vals: np.ndarray, cap: int, gain: float) -> tuple[np.ndarray, np.ndarray]:
    """polish's climb without its scan: the (S,) end values and (S, *shape) end points of every start; step(P, live) also gets the live starts' indices."""
    X, vals = X.copy(), np.array(vals, dtype=float)
    live = np.flatnonzero(~np.isnan(vals))
    for _ in range(cap):
        if live.size == 0:
            break
        Q, v = step(X[live], live)
        up = v > vals[live] + gain
        live = live[up]
        X[live], vals[live] = Q[up], v[up]
    return vals, X


# ---------------------------------------------------------------------------
# p -> q operator norms


def _holder_upper(S: np.ndarray, p: float, q: float):
    """Holder upper bound for ||A : l^p -> l^q||: a float for one matrix, (B,) values for a (B, m, n) stack."""
    pp = conjugate_index(p)
    return _as_value(np.minimum(lp_norm(lp_norm(S, q, axis=-2), pp), lp_norm(lp_norm(S, pp), q)))


def _power_ascent(A: np.ndarray, p: float, q: float, cfg: OptimConfig, complex_field: bool):
    """Nonlinear power iteration (Boyd's) for sup ||Ax||_q / ||x||_p from every start at once.

    One (m, n) matrix gives (value, witness), (0.0, None) unless some
    start is positive.  A (B, m, n) stack gives (B,) values and (B, n)
    witnesses, value 0 and a NaN row where no start is positive: every
    start of every slice climbs in one polish, with one gemv per start and
    the same power_ascent.starts, so each slice gets what it gets alone bit
    for bit.  The starts include every basis vector, so a value is at least
    its matrix's largest column q-norm.
    """
    S = A if A.ndim == 3 else A[None]
    B, m, n = S.shape
    dt = np.result_type(complex if complex_field else float, S)
    seeds = np.array([*np.eye(n, dtype=dt), np.ones(n, dtype=dt), *gaussian_starts(cfg, "power_ascent.starts", (n,), complex_field)], dtype=dt)
    k = len(seeds)
    per = max(1, _POWER_ENTRIES // (k * m * n))
    if B > per:
        parts = [_power_ascent(S[i : i + per], p, q, cfg, complex_field) for i in range(0, B, per)]
        return np.concatenate([v for v, _ in parts]), np.concatenate([w for _, w in parts])
    pp = conjugate_index(p)
    owner = np.repeat(np.arange(B), k)  # start i of slice b sits at b * k + i
    lone = (S[0], S[0].conj().T)

    def matrices(idx):
        # each start's matrix and its adjoint, laid out as a lone matrix is
        if B == 1:
            return lone
        M = S[owner[idx]]
        return M, np.swapaxes(M.conj(), -1, -2)

    def image(M, X):
        # one gemv per start, so each row's bits are those of M @ x
        return (M @ X[..., None])[..., 0]

    def normalized(X):
        nx = lp_norm(X, p)
        return X / np.where(nx == 0, 1.0, nx)[:, None], nx == 0

    def step(X, idx):
        M, MH = matrices(idx)
        Y = image(M, X)
        ay = np.abs(Y)
        G = image(MH, phase(Y) * ay ** (q - 1.0) if q > 1 else phase(Y) * (ay > 0))
        if p == INF:
            Xn = phase(G) if complex_field else np.sign(G) + (G == 0)
        else:
            ag = np.abs(G)
            Xn = phase(G) * (ag ** (pp - 1.0) if pp != INF else ag >= ag.max(axis=-1, keepdims=True))
        Xn, stuck = normalized(Xn)
        return Xn, np.where(stuck | (lp_norm(Y, q) == 0), np.nan, lp_norm(image(M, Xn), q))

    X, zero = normalized(np.tile(seeds, (B, 1)))
    vals, X = _climb(step, X, np.where(zero, np.nan, lp_norm(image(matrices(np.arange(B * k))[0], X), q)), 60, 1e-15)
    i, best = _first_max(vals.reshape(B, k))
    W = X.reshape(B, k, n)[np.arange(B), i]
    if A.ndim == 2:
        return (float(best[0]), W[0]) if best[0] > 0 else (0.0, None)
    found = best > 0
    W[~found] = np.nan
    return np.where(found, best, 0.0), W


def op_norm_pq(a: MatrixOp, cfg: OptimConfig, field: str | None = None) -> NormValue:
    """Operator norm of a : l^p_n -> l^q_m with a certificate.

    Exact where _op_norm_exact is; other roles certify the power-iteration
    lower bound against the Holder upper bound.  field=REAL
    takes the sup over real vectors, so a matrix with a nonzero imaginary
    part raises FieldError there.
    """
    A = np.asarray(a.entries)
    if field is None:
        field = COMPLEX if np.iscomplexobj(A) else REAL
    elif field == REAL:
        A = real_entries(A)
    p, q, complex_field = a.in_index, a.out_index, field == COMPLEX
    values, witnesses, methods = _op_norm_exact(A[None], p, q, cfg, complex_field)
    if methods[0]:
        return NormValue.exact(values[0], witnesses[0], str(methods[0]))
    lower, x = _power_ascent(A, p, q, cfg, complex_field)
    return NormValue.certified(lower, _holder_upper(A, p, q), x, "power_ascent")


def _op_norm_rule(p: float, q: float, complex_field: bool, m: int, n: int, max_enum: int) -> str | None:
    """The method that gives the exact (p -> q) norm of every (m, n) matrix, or None.

    Closed forms p=1 (max column q-norm), q=inf (max row p'-norm), p=q=2 (top singular value); over
    real scalars, sign enumerations for p=inf or q=1 whose 2^(n-1) (resp. 2^(m-1)) signs fit max_enum.
    """
    if p == 1:
        return "max_column_norm"
    if q == INF:
        return "max_row_dual_norm"
    if p == 2 and q == 2:
        return "svd"
    if complex_field:
        return None
    if p == INF and grid_fits(n, 2, max_enum):
        return "sign_enum_inputs"
    if q == 1 and grid_fits(m, 2, max_enum):
        return "sign_enum_outputs"
    return None


def _op_norm_exact(S: np.ndarray, p: float, q: float, cfg: OptimConfig, complex_field: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact (p -> q) norms of a (B, m, n) stack of raw, already validated arrays, by _op_norm_rule.

    Returns arrays (values, witnesses, methods) of shapes (B,), (B, n) and
    (B,), each slice's entries equal to what the slice gets alone bit for bit.
    Without a closed form, generalized permutation matrices go first; a
    slice nothing covers gets value NaN, a NaN witness row and method "",
    and callers attach their own bound.
    """
    B, m, n = S.shape
    take = np.arange(B)
    rule = _op_norm_rule(p, q, complex_field, m, n, cfg.max_enum)

    if rule == "max_column_norm":
        cols = lp_norm(S, q, axis=-2)
        j = cols.argmax(axis=-1)
        return cols[take, j], np.eye(n, dtype=complex if complex_field else float)[j], np.full(B, rule)

    if rule == "max_row_dual_norm":
        pp = conjugate_index(p)
        rows = lp_norm(S, pp)
        i = rows.argmax(axis=-1)
        values, R = rows[take, i], S[take, i]
        W = _dual_unit_vectors(R, values, p, pp, phase(np.conj(R)))
        return values, W if complex_field else np.real(W), np.full(B, rule)

    if rule == "svd":
        _, s, Vh = np.linalg.svd(S)
        return s[:, 0], np.conj(Vh[:, 0]) if complex_field else np.real(Vh[:, 0]), np.full(B, rule)

    values, witnesses = np.full(B, np.nan), np.full((B, n), np.nan, dtype=complex if complex_field else float)
    nz = np.abs(S) > 0
    diagonal = (nz.sum(axis=-1) <= 1).all(axis=-1) & (nz.sum(axis=-2) <= 1).all(axis=-1)
    rest = np.flatnonzero(~diagonal)
    if rest.size < B:
        values[diagonal], witnesses[diagonal] = _diagonal_like(S[diagonal], p, q, complex_field)
    methods = np.where(diagonal, "diagonal_like", rule or "")
    if rule is None or rest.size == 0:
        return values, witnesses, methods
    T = S if rest.size == B else S[rest]

    if rule == "sign_enum_inputs":
        vals, W = _grid_scan(lambda E: lp_norm(E @ np.swapaxes(T, -1, -2), q), rest.size, n, 2, cfg)
    else:
        pp = conjugate_index(p)
        vals, signs = _grid_scan(lambda E: lp_norm(E @ T, pp), rest.size, m, 2, cfg)
        G = (np.swapaxes(T, -1, -2) @ signs[..., None])[..., 0]
        W = _dual_unit_vectors(G, lp_norm(G, pp), p, pp, np.sign(G) + (G == 0))
    values[rest], witnesses[rest] = vals, W
    return values, witnesses, methods


def _op_norm_upper(S: np.ndarray, p: float, q: float, cfg: OptimConfig, complex_field: bool) -> tuple[np.ndarray, np.ndarray]:
    """(values, exact) of a (B, m, n) stack: _op_norm_exact's value where it has one, else the Holder upper bound."""
    values = _op_norm_exact(S, p, q, cfg, complex_field)[0]
    exact = ~np.isnan(values)
    if not exact.all():
        values[~exact] = _holder_upper(S[~exact], p, q)
    return values, exact


def _dual_unit_vectors(R: np.ndarray, norms: np.ndarray, p: float, pp: float, directions: np.ndarray) -> np.ndarray:
    """Rows x[b] with <R[b], x[b]> = norms[b] = ||R[b]||_p' and ||x[b]||_p = 1 (for p = inf the directions); 0 where norms[b] = 0."""
    W = directions
    if p != INF:
        W = directions * (np.abs(R) / np.where(norms == 0, 1.0, norms)[:, None]) ** (pp - 1.0)
        W = W / np.maximum(lp_norm(W, p), 1e-300)[:, None]
    return np.where((norms == 0)[:, None], 0.0, W)


def _diagonal_like(D: np.ndarray, p: float, q: float, complex_field: bool) -> tuple[np.ndarray, np.ndarray]:
    """(values, witnesses) of a (B, m, n) stack of generalized permutation matrices, which act diagonally on disjoint coordinates."""
    # each column's one nonzero entry, 0 in a zero column
    d = np.take_along_axis(D, np.abs(D).argmax(axis=-2)[:, None], axis=-2)[:, 0]
    ad = np.abs(d)
    if p <= q:
        return ad.max(axis=-1), np.eye(ad.shape[-1])[ad.argmax(axis=-1)] * ad.any(axis=-1)[:, None]
    t = q if p == INF else p * q / (p - q)
    mags = ad ** (t / p)
    # each slice sums its nonzero entries in column order as alone: under 8 in order (one zero-padded sum), k >= 8 pairwise (a sum per k)
    counts, order = (ad > 0).sum(axis=-1), np.argsort(ad == 0, axis=-1, kind="stable")
    A, M = np.take_along_axis(ad, order, axis=-1), np.take_along_axis(mags, order, axis=-1)
    widths = np.where(counts < 8, min(counts.max(), 7), counts)
    values, norms = np.empty(len(D)), np.empty(len(D))
    for k in set(widths.tolist()):  # np.unique's first call in a process costs about 20 ms
        g = widths == k
        values[g], norms[g] = lp_norm(A[g, :k], t), lp_norm(M[g, :k], p)
    W = np.where(ad > 0, np.conj(phase(d)), 0.0) if p == INF else mags / np.where(norms == 0, 1.0, norms)[:, None] * np.conj(phase(d))
    return values, W if complex_field else np.real(W)
