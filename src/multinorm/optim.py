"""Search kernels: sign/torus enumeration, ball ascent, p->q operator norms.

Every result is a NormValue carrying a certificate: an exact value, a
bracket [lower, upper], or a certified lower bound with the witness that
attains it.  All randomness flows through one seeded generator; restart i
uses substream seed^i, so results are bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Sequence

import numpy as np

from .errors import BudgetError, DegenerateNormError
from .partitions import unit_grid, unit_roots
from .spaces import COMPLEX, INF, REAL, MatrixOp, conjugate_index, phase, vector_to_json

_ASCENT_ITERS = 200


@dataclass(frozen=True)
class OptimConfig:
    seed: int = 2024
    restarts: int = 32
    grid_points: int = 64
    refine_passes: int = 3
    max_enum: int = 2**20
    tol: float = 1e-9

    def __post_init__(self):
        if self.restarts < 1 or self.grid_points < 8 or self.refine_passes < 0:
            raise ValueError("invalid OptimConfig")
        if self.tol <= 0:
            raise ValueError("tol must be positive")

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed ^ stream) & 0xFFFFFFFFFFFFFFFF)

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(doc: dict) -> "OptimConfig":
        return OptimConfig(**{f.name: doc[f.name] for f in fields(OptimConfig) if f.name in doc})


@dataclass(frozen=True)
class NormValue:
    """A certified numeric result: lower <= true value <= upper."""

    kind: str  # "exact" | "bracket" | "lower"
    lower: float
    upper: float
    witness: Any
    method: str

    def __post_init__(self):
        if self.kind not in ("exact", "bracket", "lower"):
            raise ValueError(f"bad kind {self.kind!r}")
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


def lp_norm(v: np.ndarray, r: float):
    """Unweighted l^r norm of a vector, r in [1, inf].

    A 2-D or larger input is a stack of rows: the (...) norms of its rows
    are returned, each equal to the norm of that row alone bit for bit.
    """
    a = np.abs(np.asarray(v))
    if r == INF:
        return _as_value(a.max(axis=-1, initial=0.0))
    return _root((a**r).sum(axis=-1), r)


def _root(s, r: float):
    """s ** (1/r) entrywise by scalar pow; a float for a scalar s.

    numpy's array pow may round differently from the scalar pow the
    single-vector paths take, so stacked roots are taken one by one.
    """
    s = np.asarray(s)
    if s.ndim == 0:
        return float(s) ** (1.0 / r)
    return np.array([x ** (1.0 / r) for x in s.ravel().tolist()]).reshape(s.shape)


def _as_value(a):
    """A float for a 0-d result, the array itself for a stack of results."""
    a = np.asarray(a)
    return float(a) if a.ndim == 0 else a


def field_normal(rng: np.random.Generator, shape, is_complex: bool) -> np.ndarray:
    """Standard normal draw; over C the imaginary part is drawn second."""
    z = rng.standard_normal(shape)
    if is_complex:
        z = z + 1j * rng.standard_normal(shape)
    return z


# ---------------------------------------------------------------------------
# exhaustive enumerations


def sign_supremum(f: Callable[[np.ndarray], np.ndarray], n: int, cfg: OptimConfig, symmetric: bool = False) -> NormValue:
    """Exact maximum of f over {+-1}^n by enumeration.

    f takes a (B, n) block of sign vectors and returns its B values; one
    call per unit_grid block.  symmetric=True asserts f(-e) = f(e) and
    pins the first sign to +1, halving the work.  Ties go to the first
    sign vector in grid order; NaN values never win.
    """
    best, best_eps = -INF, None
    for block in unit_grid(n if symmetric else n + 1, 2, cfg.max_enum):
        E = block if symmetric else block[:, 1:]
        i, val = _first_max(f(E))
        if val > best:
            best, best_eps = val, E[i].copy()
    return NormValue.exact(best, best_eps, "sign_enum")


def _first_max(vals) -> tuple[int, float]:
    """(index, value) of the first maximum of a value block, NaN counting as -inf."""
    vals = np.where(np.isnan(vals), -INF, vals)
    i = int(np.argmax(vals))
    return i, float(vals[i])


def torus_supremum(
    f: Callable[[np.ndarray], np.ndarray],
    n: int,
    cfg: OptimConfig,
    field: str = COMPLEX,
) -> NormValue:
    """Lower bound for sup f over the n-torus (first phase pinned to 1).

    f takes a (B, n) block of phase vectors and returns its B values.
    Callers must pass f invariant under a common phase rotation, which is
    what pins the first coordinate.  For real scalars the torus collapses
    to {+-1} and the search enumerates signs when the budget allows.
    Exact for n <= 1.
    """
    if field == REAL:
        try:
            res = sign_supremum(f, n, cfg, symmetric=True)
        except BudgetError:
            return _torus_sweep(f, n, cfg, real=True)
        kind = "exact" if n <= 1 else "lower"
        return NormValue(kind, res.lower, res.lower if n <= 1 else INF, res.witness, "sign_enum")
    res = _torus_sweep(f, n, cfg, real=False)
    if 2 ** (n - 1) <= min(cfg.max_enum, 4096):
        se = sign_supremum(lambda E: f(E.astype(complex)), n, cfg, symmetric=True)
        if se.lower > res.lower:
            res = NormValue("lower", se.lower, INF, se.witness.astype(complex), "torus_sign_grid")
    if n <= 1:
        return NormValue.exact(res.lower, res.witness, res.method)
    return res


def _torus_sweep(f, n, cfg, real: bool) -> NormValue:
    candidates0 = unit_roots(2 if real else cfg.grid_points)

    def sweep(zeta, cands_for):
        improved = True
        val = float(f(zeta[None])[0])
        guard = 0
        while improved and guard < 12:
            improved = False
            guard += 1
            for j in range(1, n):
                cands = cands_for(j, zeta)
                Z = np.repeat(zeta[None], len(cands), axis=0)
                Z[:, j] = cands
                best_c, best_v = zeta[j], val
                # first candidate clearing the threshold over the running best, in order
                for c, v in zip(cands.tolist(), np.asarray(f(Z), dtype=float).tolist()):
                    if v > best_v + 1e-15:
                        best_c, best_v = c, v
                zeta[j] = best_c
                if best_v > val + 1e-15:
                    val = best_v
                    improved = True
        return val, zeta

    starts = [np.ones(n, dtype=float if real else complex)]
    rng = cfg.rng(101)
    for _ in range(min(cfg.restarts, 8) - 1):
        if real:
            starts.append(np.where(rng.random(n) < 0.5, 1.0, -1.0))
        else:
            starts.append(np.exp(2j * np.pi * rng.random(n)))
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
    return NormValue.lower_bound(best, best_z, "sign_enum" if real else "torus_ascent")


def torus_certified_upper(
    g: Callable[[np.ndarray], np.ndarray],
    lipschitz: Sequence[float],
    n: int,
    cfg: OptimConfig,
    budget: int = 2**18,
) -> float:
    """Certified upper bound for sup of g over the pinned n-torus.

    g takes a (B, n) block of phase vectors (first entry 1) and returns
    its B values.  lipschitz[j] bounds the derivative of g in the phase
    angle of coordinate j+1.  Uses a uniform grid plus the Lipschitz slack;
    returns inf when the grid would blow the budget.
    """
    free = n - 1
    if free == 0:
        return float(np.max(g(np.ones((1, 1), dtype=complex))))
    budget = min(budget, cfg.max_enum)
    pts = int(budget ** (1.0 / free))
    pts = min(pts, 4 * cfg.grid_points)
    if pts < 8:
        return INF
    h = 2 * np.pi / pts
    slack = 0.5 * h * float(np.sum(np.asarray(lipschitz)))
    best = max(float(np.max(g(Z))) for Z in unit_grid(n, pts, budget))
    return best + slack


# ---------------------------------------------------------------------------
# generic projected ascent


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
) -> tuple[float, np.ndarray | None]:
    """Maximize value over the feasible set reached by project.

    Both callbacks take stacks of shape (B, *shape).  project returns
    (points, ok): points[b] is the feasible image of point b where ok[b],
    and is ignored where point b is degenerate.  value returns the (B,)
    values of a stack of feasible points.

    Every restart (the seeds, then cfg.restarts Gaussian starts) climbs in
    lockstep: on each tick each live restart proposes pt + step*d with a
    fresh direction d while exploring, or pt + boost*d while riding a
    direction that just paid, and one project and one value call handle
    all proposals.  Restart i draws each fresh direction with field_normal
    from its own cfg.rng(5000 + i), so every trajectory is the one the
    restart would climb alone.  Deterministic in
    cfg.seed; ties resolved by first find.
    """
    dt = complex if complex_field else float
    starts = [np.asarray(s) for s in seeds]
    starts += [field_normal(cfg.rng(1000 + i), shape, complex_field) for i in range(cfg.restarts)]
    pts, ok = project(np.array(starts, dtype=dt))
    ids = np.flatnonzero(ok)
    if ids.size == 0:
        return -INF, None
    pts = pts[ids]
    vals = np.asarray(value(pts), dtype=float)

    # per-restart state of the live restarts; a restart whose step underflows leaves the arrays
    final_vals, final_pts = vals.copy(), pts.copy()
    live = np.arange(ids.size)
    rngs = [cfg.rng(5000 + int(i)) for i in ids]
    direction = np.zeros_like(pts)
    step = np.full(ids.size, 0.5)
    boost = np.zeros(ids.size)
    misses = np.zeros(ids.size, dtype=int)
    riding = np.zeros(ids.size, dtype=bool)
    grow = 1 + cfg.tol
    bcast = (-1,) + (1,) * len(shape)

    for _ in range(iters):
        fresh = ~riding
        for i in fresh.nonzero()[0].tolist():
            direction[i] = field_normal(rngs[i], shape, complex_field)
        cand, cok = project(pts + np.where(riding, boost, step).reshape(bcast) * direction)
        if cok.all():
            v = np.asarray(value(cand), dtype=float)
        else:
            v = np.full(live.size, -INF)
            if cok.any():
                v[cok] = value(cand[cok])

        better = v > vals * grow + 1e-15
        vals = np.where(better, v, vals)
        pts[better] = cand[better]
        # a paying exploring step starts a ride at twice the step; a paying ride doubles
        boost = np.where(riding, 2.0 * boost, 2.0 * step)
        misses = np.where(better, 0, misses + fresh)
        riding = better
        shrink = misses >= 8
        if shrink.any():
            step = np.where(shrink, step * 0.6, step)
            misses[shrink] = 0
            keep = step >= 1e-7
            if not keep.all():
                gone = ~keep
                final_vals[live[gone]], final_pts[live[gone]] = vals[gone], pts[gone]
                live, vals, pts, step, boost, misses, riding = (a[keep] for a in (live, vals, pts, step, boost, misses, riding))
                direction = direction[keep]
                rngs = [g for g, k in zip(rngs, keep.tolist()) if k]
                if live.size == 0:
                    break
    final_vals[live], final_pts[live] = vals, pts

    best_val, best_r = -INF, None
    for r, val in enumerate(final_vals.tolist()):
        if val > best_val:
            best_val, best_r = val, r
    if best_r is None:
        return -INF, None
    return best_val, final_pts[best_r].copy()


def ball_linear_max(
    membership: Callable[[np.ndarray], np.ndarray],
    objective: Callable[[np.ndarray], np.ndarray],
    shape: tuple,
    cfg: OptimConfig,
    seeds: Sequence[np.ndarray] = (),
    complex_field: bool = False,
) -> NormValue:
    """Approximate sup{ |objective(x)| : membership(x) <= 1 }.

    membership must be a norm (positively homogeneous, zero only at zero on
    the directions explored); points are radially projected onto its unit
    sphere before climbing.  Both callbacks take a (B, *shape) stack and
    return its (B,) values, as seeded_ascent's do.
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

    val, pt = seeded_ascent(project, value, seeds, shape, cfg, complex_field)
    if val == -INF:
        val, pt = 0.0, None
    return NormValue.lower_bound(val, pt, "ball_ascent")


# ---------------------------------------------------------------------------
# p -> q operator norms


def _col_norms(A: np.ndarray, r: float) -> np.ndarray:
    """Unweighted l^r norms of the columns of A, or of each matrix of a (..., m, n) stack.

    Fewer than 8 rows are summed in lp_norm's order, and the r-th root is
    the scalar pow lp_norm takes (numpy's array pow may round differently),
    so each entry equals lp_norm of its column bit for bit.
    """
    a = np.abs(A)
    if r == INF:
        return a.max(axis=-2, initial=0.0)
    return _root((a**r).sum(axis=-2), r)


def _holder_upper(A: np.ndarray, p: float, q: float) -> float:
    pp = conjugate_index(p)
    return min(lp_norm(_col_norms(A, q), pp), lp_norm(_col_norms(A.T, pp), q))


def _power_ascent(A: np.ndarray, p: float, q: float, cfg: OptimConfig, complex_field: bool) -> tuple[float, np.ndarray]:
    """Nonlinear power iteration for sup ||Ax||_q / ||x||_p, with restarts."""
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
        return val, x

    dt = complex if complex_field else float
    seeds = list(np.eye(n, dtype=dt)[: min(n, 8)])
    seeds.append(np.ones(n, dtype=dt))
    seeds += [field_normal(cfg.rng(7000 + i), n, complex_field) for i in range(cfg.restarts)]

    best, best_x = 0.0, None
    for s in seeds:
        val, x = iterate(s)
        if val > best:
            best, best_x = val, x
    return best, best_x


def op_norm_pq(a: MatrixOp, cfg: OptimConfig, field: str | None = None) -> NormValue:
    """Operator norm of a : l^p_n -> l^q_m with a certificate.

    Exact where _op_norm_exact is; other roles return a bracket:
    power-iteration lower bound plus Holder upper bounds.
    """
    A = np.asarray(a.entries)
    if field is None:
        field = COMPLEX if np.iscomplexobj(A) else REAL
    p, q, complex_field = a.in_index, a.out_index, field == COMPLEX
    res = _op_norm_exact(A, p, q, cfg, complex_field)
    if res is not None:
        return res
    upper = _holder_upper(A, p, q)
    lower, x = _power_ascent(A, p, q, cfg, complex_field)
    return NormValue.bracket(min(lower, upper), upper, x, "power_ascent")


def _op_norm_closed_form(p: float, q: float) -> Callable[[np.ndarray], np.ndarray] | None:
    """_op_norm_exact's closed form for the role (p, q) on (B, m, n) stacks, or None.

    p=1 (max column q-norm), q=inf (max row p'-norm) and p=q=2 (top
    singular value, from the same full SVD); each of the B values equals
    _op_norm_exact(S[b], ...).lower bit for bit.
    """
    if p == 1:
        return lambda S: _col_norms(S, q).max(axis=-1)
    if q == INF:
        pp = conjugate_index(p)
        return lambda S: _col_norms(np.swapaxes(S, -1, -2), pp).max(axis=-1)
    if p == 2 and q == 2:
        return lambda S: np.linalg.svd(S)[1][..., 0]
    return None


def _op_norm_exact(A: np.ndarray, p: float, q: float, cfg: OptimConfig, complex_field: bool) -> NormValue | None:
    """Exact (p -> q) norm of a raw, already validated array, or None.

    Closed forms: p=1 (max column q-norm), q=inf (max row p'-norm),
    p=q=2 (top singular value), generalized permutation matrices; over
    real scalars, sign enumerations for p=inf or q=1 when the 2^(n-1)
    (resp. 2^(m-1)) pinned sign vectors fit cfg.max_enum.  Callers attach
    their own bound when this returns None.
    """
    m, n = A.shape

    if p == 1:
        cols = _col_norms(A, q)
        j = int(np.argmax(cols))
        e = np.zeros(n, dtype=complex if complex_field else float)
        e[j] = 1.0
        return NormValue.exact(float(cols[j]), e, "max_column_norm")

    if q == INF:
        pp = conjugate_index(p)
        rows = _col_norms(A.T, pp)
        i = int(np.argmax(rows))
        r = A[i, :]
        ar = np.abs(r)
        if rows[i] == 0:
            x = np.zeros(n)
        elif p == INF:
            x = phase(np.conj(r))
        else:
            x = phase(np.conj(r)) * (ar / rows[i]) ** (pp - 1.0)
            x = x / max(lp_norm(x, p), 1e-300)
        if not complex_field:
            x = np.real(x)
        return NormValue.exact(float(rows[i]), x, "max_row_dual_norm")

    if p == 2 and q == 2:
        U, s, Vh = np.linalg.svd(A)
        x = np.conj(Vh[0, :])
        if not complex_field:
            x = np.real(x)
        return NormValue.exact(float(s[0]), x, "svd")

    nz_per_row = (np.abs(A) > 0).sum(axis=1)
    nz_per_col = (np.abs(A) > 0).sum(axis=0)
    if nz_per_row.max(initial=0) <= 1 and nz_per_col.max(initial=0) <= 1:
        # generalized permutation matrix: acts diagonally on disjoint coordinates
        cols_nz = np.where(nz_per_col > 0)[0]
        dvals = np.array([A[np.argmax(np.abs(A[:, j])), j] for j in cols_nz])
        x = np.zeros(n, dtype=complex if complex_field else float)
        if dvals.size == 0:
            return NormValue.exact(0.0, x, "diagonal_like")
        ad = np.abs(dvals)
        if p <= q:
            jbest = int(np.argmax(ad))
            x[cols_nz[jbest]] = 1.0
            return NormValue.exact(float(ad.max()), x, "diagonal_like")
        t = q if p == INF else p * q / (p - q)
        if p == INF:
            x[cols_nz] = np.conj(phase(dvals))
        else:
            mags = ad ** (t / p)
            mags = mags / lp_norm(mags, p)
            x[cols_nz] = mags * np.conj(phase(dvals))
        if not complex_field:
            x = np.real(x)
        return NormValue.exact(lp_norm(ad, t), x, "diagonal_like")

    if not complex_field and p == INF and 2 ** (n - 1) <= cfg.max_enum:
        res = sign_supremum(lambda E: lp_norm(E @ A.T, q), n, cfg, symmetric=True)
        return NormValue.exact(res.lower, res.witness, "sign_enum_inputs")

    if not complex_field and q == 1 and 2 ** (m - 1) <= cfg.max_enum:
        pp = conjugate_index(p)
        res = sign_supremum(lambda S: lp_norm(S @ A, pp), m, cfg, symmetric=True)
        g = A.T @ res.witness
        ag = np.abs(g)
        nx = lp_norm(g, pp)
        if nx == 0:
            x = np.zeros(n)
        elif p == INF:
            x = np.sign(g) + (g == 0)
        else:
            x = np.sign(g) * (ag / nx) ** (pp - 1.0)
            x = x / max(lp_norm(x, p), 1e-300)
        return NormValue.exact(res.lower, x, "sign_enum_outputs")

    return None
