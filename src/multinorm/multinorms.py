"""Multi-norm evaluators, axiom audits, rates of growth, numerical duals.

One entry point, evaluate(spec, tuple, cfg), covers every supported
multi-norm variant.  Exact variants return kind="exact"; search-backed
variants return certified lower bounds or brackets whose upper side comes
from closed inequalities (root averages, q-sum bounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

from .errors import SpecError
from .optim import NormValue, OptimConfig, _as_value, _root, ball_linear_max, field_normal, lp_norm, seeded_ascent
from .partitions import GRID_BLOCK, slot_assignments
from .spaces import INF, REAL, SpaceSpec, VectorTuple, delta, delta_tuple, phase, roots_tuple
from . import summing

VARIANTS = (
    "min",
    "max",
    "pq",
    "standard_q",
    "lattice",
    "dual_lattice",
    "hilbert",
    "partition",
    "generated",
    "extended",
    "weak_summing",
    "numerical_dual",
    "lp_sum",
)


@dataclass(frozen=True)
class MultiNormSpec:
    """Tagged description of which multi-norm to evaluate.

    lp_sum(p) is the plain l^p sum of norms: for p = 1 it is the maximum
    dual multi-norm, for p > 1 a fixture that fails Axiom (A4).
    """

    variant: str
    p: float | None = None
    q: float | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None
    base: Optional["MultiNormSpec"] = None
    ops: tuple | None = None  # matrices for "extended"
    family: Any = None  # FamilyOfDecompositions for "generated"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise SpecError(f"unknown multi-norm variant {self.variant!r}")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def min_spec() -> "MultiNormSpec":
        return MultiNormSpec("min")

    @staticmethod
    def max_spec() -> "MultiNormSpec":
        return MultiNormSpec("max")

    @staticmethod
    def pq_spec(p: float, q: float) -> "MultiNormSpec":
        return MultiNormSpec("pq", p=p, q=q)

    @staticmethod
    def standard_q(q: float) -> "MultiNormSpec":
        return MultiNormSpec("standard_q", q=q)

    @staticmethod
    def lattice() -> "MultiNormSpec":
        return MultiNormSpec("lattice")

    @staticmethod
    def dual_lattice() -> "MultiNormSpec":
        return MultiNormSpec("dual_lattice")

    @staticmethod
    def hilbert() -> "MultiNormSpec":
        return MultiNormSpec("hilbert")

    @staticmethod
    def partition(blocks) -> "MultiNormSpec":
        return MultiNormSpec("partition", blocks=tuple(tuple(int(i) for i in b) for b in blocks))

    @staticmethod
    def generated(family) -> "MultiNormSpec":
        return MultiNormSpec("generated", family=family)

    @staticmethod
    def extended(base: "MultiNormSpec", ops) -> "MultiNormSpec":
        # matrices stored as nested tuples so the frozen spec stays hashable
        frozen_ops = tuple(tuple(tuple(row) for row in np.asarray(T).tolist()) for T in ops)
        return MultiNormSpec("extended", base=base, ops=frozen_ops)

    @staticmethod
    def weak_summing(p: float) -> "MultiNormSpec":
        return MultiNormSpec("weak_summing", p=p)

    @staticmethod
    def numerical_dual(base: "MultiNormSpec") -> "MultiNormSpec":
        return MultiNormSpec("numerical_dual", base=base)

    @staticmethod
    def lp_sum(p: float) -> "MultiNormSpec":
        return MultiNormSpec("lp_sum", p=p)

    # -- classification ----------------------------------------------------
    def is_dual_multinorm(self) -> bool:
        """True when the variant satisfies (B4) instead of (A4)."""
        if self.variant in ("dual_lattice", "weak_summing"):
            return True
        if self.variant == "lp_sum":
            return self.p == 1
        if self.variant == "numerical_dual":
            return not self.base.is_dual_multinorm()
        return False

    def to_json(self) -> dict:
        doc: dict[str, Any] = {"variant": self.variant}
        if self.p is not None:
            doc["p"] = "inf" if self.p == INF else self.p
        if self.q is not None:
            doc["q"] = self.q
        if self.blocks is not None:
            doc["blocks"] = [list(b) for b in self.blocks]
        if self.base is not None:
            doc["base"] = self.base.to_json()
        if self.ops is not None:
            from .spaces import matrix_to_json

            doc["ops"] = [matrix_to_json(np.asarray(T)) for T in self.ops]
        if self.family is not None:
            doc["family"] = self.family.to_json()
        return doc

    @staticmethod
    def from_json(doc: dict) -> "MultiNormSpec":
        variant = doc["variant"]
        kwargs: dict[str, Any] = {}
        if "p" in doc:
            kwargs["p"] = INF if doc["p"] == "inf" else float(doc["p"])
        if "q" in doc:
            kwargs["q"] = float(doc["q"])
        if "blocks" in doc:
            kwargs["blocks"] = tuple(tuple(int(i) for i in b) for b in doc["blocks"])
        if "base" in doc:
            kwargs["base"] = MultiNormSpec.from_json(doc["base"])
        if "ops" in doc:
            from .spaces import matrix_from_json

            kwargs["ops"] = tuple(
                tuple(tuple(row) for row in matrix_from_json(T).tolist()) for T in doc["ops"]
            )
        if "family" in doc:
            from .decompositions import FamilyOfDecompositions

            kwargs["family"] = FamilyOfDecompositions.from_json(doc["family"])
        return MultiNormSpec(variant, **kwargs)


def validate(spec: MultiNormSpec, space: SpaceSpec) -> None:
    v = spec.variant
    if v == "pq":
        if spec.p is None or spec.q is None or not (1 <= spec.p <= spec.q < INF):
            raise SpecError("pq multi-norm needs 1 <= p <= q < inf")
    elif v == "standard_q":
        if space.p == INF:
            raise SpecError("standard q-multi-norm needs a finite space index")
        if spec.q is None or not (space.p <= spec.q < INF):
            raise SpecError(f"standard q-multi-norm needs q >= space index {space.p}")
    elif v == "hilbert":
        if space.p != 2:
            raise SpecError("hilbert multi-norm needs index p = 2")
    elif v == "partition":
        if spec.blocks is None:
            raise SpecError("partition multi-norm needs blocks")
        seen = sorted(i for b in spec.blocks for i in b)
        if seen != list(range(space.dim)):
            raise SpecError("blocks must partition the coordinate set")
    elif v == "weak_summing":
        if spec.p is None or spec.p < 1:
            raise SpecError("weak summing index must be >= 1")
    elif v == "lp_sum":
        if spec.p is None or spec.p < 1:
            raise SpecError("lp_sum index must be >= 1")
    elif v == "extended":
        if not spec.ops:
            raise SpecError("extended multi-norm needs a non-empty operator family")
        mats = [np.asarray(T) for T in spec.ops]
        if not any(
            T.shape == (space.dim, space.dim) and np.allclose(T, np.eye(space.dim), atol=1e-12) for T in mats
        ):
            raise SpecError("extended operator family must contain the identity")
        validate(spec.base, space)
    elif v == "numerical_dual":
        validate(spec.base, space.dual())
    elif v == "generated":
        if spec.family is None:
            raise SpecError("generated multi-norm needs a family of decompositions")


# ---------------------------------------------------------------------------
# exact closed-form evaluators (fast paths)


def _norm_of_abs(space: SpaceSpec, a: np.ndarray):
    """Norm of a nonnegative vector, or of each row of a (..., dim) stack."""
    if space.p == INF:
        return _as_value(a.max(axis=-1, initial=0.0))
    return _root((space.w * a**space.p).sum(axis=-1), space.p)


def standard_q_value(space: SpaceSpec, X: np.ndarray, q: float, assign: np.ndarray) -> float:
    """Value of one ordered-partition assignment for the standard q norm."""
    p = space.p
    contrib = space.w[:, None] * np.abs(X) ** p
    n = X.shape[1]
    parts = np.zeros(n)
    for j in range(n):
        mask = assign == j
        if np.any(mask):
            parts[j] = contrib[mask, j].sum() ** (1.0 / p)
    return lp_norm(parts, q)


def exact_evaluator(spec: MultiNormSpec, space: SpaceSpec, cfg: OptimConfig) -> Optional[Callable[[np.ndarray], Any]]:
    """The variant's exact value function, or None when it has no exact path.

    The function takes one (m, n) tuple and returns a float, or a stack of
    shape (..., m, n) and returns the (...) values; each stacked value
    equals the value of its tuple alone bit for bit.
    """
    v = spec.variant
    w = space.w
    p = space.p

    if v == "min":
        return lambda X: _as_value(space.norm_cols(X).max(axis=-1))
    if v == "lattice" or (v == "standard_q" and spec.q == p) or (v == "max" and p == 1):
        return lambda X: _norm_of_abs(space, np.abs(X).max(axis=-1))
    if v == "dual_lattice":
        return lambda X: _norm_of_abs(space, np.abs(X).sum(axis=-1))
    if v == "lp_sum":
        return lambda X: lp_norm(space.norm_cols(X), spec.p)
    if v == "partition":
        blocks = [np.asarray(b, dtype=int) for b in spec.blocks]
        if p == INF:

            def part_inf(X):
                a = np.abs(X)
                return _as_value(np.max([a[..., b, :].max(axis=(-2, -1)) for b in blocks], axis=0))

            return part_inf

        def part(X):
            contrib = w[:, None] * np.abs(X) ** p
            total = 0.0
            for b in blocks:
                total = total + contrib[..., b, :].sum(axis=-2).max(axis=-1)
            return _root(total, p)

        return part
    if v == "weak_summing":
        ps = spec.p
        if ps == INF:
            return lambda X: _as_value(space.norm_cols(X).max(axis=-1))
        if p == INF:
            return lambda X: _as_value(((np.abs(X) ** ps).sum(axis=-1) ** (1.0 / ps)).max(axis=-1))
        if ps == 2 and p == 2:
            d = np.sqrt(w)
            return lambda X: _as_value(np.linalg.svd(d[:, None] * X, compute_uv=False)[..., 0])
        if ps == 1 and space.field == REAL:
            return lambda X: summing.mu1_phase_guidance(space, X, cfg)
        return None
    if v == "generated":
        from .decompositions import generated_value

        return lambda X: generated_value(spec.family, space, X, cfg)
    if v == "extended":
        base_fn = exact_evaluator(spec.base, space, cfg)
        if base_fn is None:
            return None
        ops = [np.asarray(T) for T in spec.ops]
        return lambda X: _as_value(np.max([base_fn(T @ X) for T in ops], axis=0))
    return None


def _grid_fits(spec: MultiNormSpec, space: SpaceSpec, n: int, cfg: OptimConfig) -> bool:
    """False where the exact evaluator's sign grid for n-tuples exceeds cfg.max_enum.

    Real weak_summing(1) on a space with p < inf is evaluated on 2^(n-1)
    sign rows; above the budget evaluate hands it to summing.mu_weak,
    which then gives a bracket.
    """
    if spec.variant == "extended":
        return _grid_fits(spec.base, space, n, cfg)
    if spec.variant == "weak_summing" and spec.p == 1 and space.p != INF and space.field == REAL:
        return 2 ** (n - 1) <= cfg.max_enum
    return True


def is_exact_path(spec: MultiNormSpec, space: SpaceSpec, n: int, cfg: OptimConfig) -> bool:
    if exact_evaluator(spec, space, cfg) is not None:
        return _grid_fits(spec, space, n, cfg)
    if spec.variant == "standard_q":
        return n**space.dim <= cfg.max_enum
    return False


# ---------------------------------------------------------------------------
# search-backed variants


def _pairings(space: SpaceSpec, X: np.ndarray, L: np.ndarray) -> np.ndarray:
    """<x_j, lambda_j> for each slot j; X and L may each be a (..., m, n) stack of tuples."""
    return np.einsum("k,...kj,...kj->...j", space.w, X, L)


def _pq_seeds(space: SpaceSpec, X: np.ndarray) -> list[np.ndarray]:
    m, n = X.shape
    dt = complex if space.is_complex else float
    seeds = [delta_tuple(m, n, space.is_complex)]
    norming = np.stack([space.unit_ball_norming(X[:, j]) for j in range(n)], axis=1)
    seeds.append(norming.astype(dt))
    for j in range(n):
        single = np.zeros((m, n), dtype=dt)
        single[:, j] = norming[:, j]
        seeds.append(single)
    # functionals norming each entry on the coordinates it dominates
    owner = np.abs(X).argmax(axis=1)
    masked = np.zeros((m, n), dtype=dt)
    for j in range(n):
        xm = np.where(owner == j, X[:, j], 0.0)
        if np.any(np.abs(xm) > 0):
            masked[:, j] = np.where(owner == j, space.unit_ball_norming(xm), 0.0)
    seeds.append(masked)
    return seeds


def _pq_value(spec: MultiNormSpec, t: VectorTuple, cfg: OptimConfig) -> NormValue:
    """Lower bound from a climb over mu_{p,n}-unit functional tuples; upper from the q-sum and root bounds.

    With p = 2 on an index-2 space the mu_{2,n} ball is a spectral ball, and
    the spectral polish from the seeds and cfg.restarts Gaussian starts
    (the streams seeded_ascent would draw) is the whole search.  Other
    (p,q) pairs climb with seeded_ascent.
    """
    space = t.space
    X = t.columns
    n = t.n
    p, q = spec.p, spec.q
    dual = space.dual()
    seeds = _pq_seeds(space, X)

    if p == 2 and space.p == 2:
        seeds += [field_normal(cfg.rng(1000 + i), (space.dim, n), space.is_complex) for i in range(cfg.restarts)]
        val, L = max((_pq_spectral_polish(space, X, q, s) for s in seeds), key=lambda vL: vL[0])
        method = "pq_spectral_polish"
    else:
        inner_cfg = replace(cfg, restarts=2, refine_passes=1)

        def project(Ls):
            out, ok = Ls.copy(), np.zeros(len(Ls), dtype=bool)
            for b, L in enumerate(Ls):
                scale, _ = summing.mu_scale(p, L, dual, inner_cfg)
                if scale > 0 and math.isfinite(scale):
                    out[b], ok[b] = L / scale, True
            return out, ok

        def value(Ls):
            return lp_norm(np.abs(_pairings(space, X, Ls)), q)

        val, L = seeded_ascent(project, value, seeds, (space.dim, n), cfg, space.is_complex)
        method = "pq_ball_ascent"

    upper = min(lp_norm(space.norm_cols(X), q), _roots_upper(space, X, cfg))
    val = max(val, 0.0)
    return NormValue.bracket(min(val, upper), upper, {"functionals": L}, method)


def _pq_spectral_polish(space: SpaceSpec, X: np.ndarray, q: float, L0: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Linearize-and-maximize iteration for the (2,q)-norm on index-2 spaces.

    The feasible set {mu_{2,n}(L) <= 1} is {||D L||_2 <= 1} with D the
    square-root weight matrix; maximizing a real-linear functional over it
    is a nuclear-norm step (one SVD).  The objective is 1-homogeneous and
    convex, so each step is nondecreasing; it stops once a step gains at
    most 1e-14.  Convergence is linear and slow starts have taken ~270
    steps, so the 500-step cap is only a guard.
    """
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
    if not space.is_complex:
        L = np.real(L)
    return val, L


def _roots_upper(space: SpaceSpec, X: np.ndarray, cfg: OptimConfig) -> float:
    """Average-of-combinations upper bound valid for every multi-norm.

    Each row r of a k x n matrix R gives the combination X R[r]^T; the bound
    is the mean norm of the k combinations.  Complex scalars: roots of unity
    of order k in {n, 2n} (roots_tuple).  Real scalars: Sylvester-Hadamard
    sign rows of the next two power-of-two sizes.
    """
    n = X.shape[1]
    if space.is_complex:
        mats = [roots_tuple(k, k, True)[:, :n] for k in (n, 2 * n)]
    else:
        H = np.ones((1, 1))
        mats = []
        while len(mats) < 2:
            if len(H) >= n:
                mats.append(H[:, :n])
            H = np.block([[H, H], [H, -H]])

    rng = cfg.rng(333)
    perms = [np.arange(n)] + [rng.permutation(n) for _ in range(3)]
    best = float(space.norm_cols(X).sum())
    for perm in perms:
        cols = X[:, perm]
        for R in mats:
            best = min(best, float(space.norm_cols(cols @ R.T).mean()))
    return best


def _max_value(t: VectorTuple, cfg: OptimConfig) -> NormValue:
    """The maximum multi-norm, the projective tensor norm on l^inf_n (x) E.

    Over R, (s, t) -> ((s + t)/2, (s - t)/2) maps l^inf_2 onto l^1_2
    isometrically, so on a real 2-tuple the tensor norm is the l^1_2 one:
    ||(x1, x2)||^max = (||x1 + x2|| + ||x1 - x2||) / 2.  The functionals
    ((a + b)/2, (a - b)/2), with a and b norming x1 + x2 and x1 - x2,
    attain it and have mu_1 = max(||a||, ||b||) <= 1.  Other tuples get
    the (1,1) ascent from below and the root averages from above.
    """
    space = t.space
    X = t.columns
    if t.n == 2 and not space.is_complex:
        plus, minus = X[:, 0] + X[:, 1], X[:, 0] - X[:, 1]
        a, b = space.unit_ball_norming(plus), space.unit_ball_norming(minus)
        val = (space.norm(plus) + space.norm(minus)) / 2
        return NormValue.exact(val, {"functionals": np.stack([a + b, a - b], axis=1) / 2}, "real_pair_closed_form")
    inner = _pq_value(MultiNormSpec.pq_spec(1, 1), t, cfg)
    lower = max(inner.lower, float(space.norm_cols(X).max()))
    return NormValue.bracket(min(lower, inner.upper), inner.upper, inner.witness, "pq11_ascent_roots_upper")


def _standard_q_search(t: VectorTuple, q: float, cfg: OptimConfig) -> NormValue:
    space = t.space
    X = t.columns
    m, n = X.shape
    if n**m <= cfg.max_enum:
        best, best_assign = -INF, None
        for assign in slot_assignments(m, n, cfg.max_enum):
            arr = np.asarray(assign)
            val = standard_q_value(space, X, q, arr)
            if val > best:
                best, best_assign = val, arr
        return NormValue.exact(best, {"assignment": best_assign}, "partition_enum")

    def climb(assign):
        val = standard_q_value(space, X, q, assign)
        improved = True
        while improved:
            improved = False
            for k in range(m):
                old = assign[k]
                for j in range(n):
                    if j == old:
                        continue
                    assign[k] = j
                    v = standard_q_value(space, X, q, assign)
                    if v > val + 1e-15:
                        val = v
                        old = j
                        improved = True
                assign[k] = old
        return val, assign

    best, best_assign = climb(np.abs(X).argmax(axis=1).astype(int))
    for i in range(min(cfg.restarts, 16)):
        rng = cfg.rng(9000 + i)
        val, assign = climb(rng.integers(0, n, size=m))
        if val > best:
            best, best_assign = val, assign
    return NormValue.lower_bound(best, {"assignment": best_assign}, "partition_local_search")


def _hilbert_value(t: VectorTuple, cfg: OptimConfig) -> NormValue:
    space = t.space
    X = t.columns
    m, n = X.shape
    Xt = np.sqrt(space.w)[:, None] * X

    def nuclear(alpha):
        return float(np.linalg.svd(Xt * alpha[None, :], compute_uv=False).sum())

    def alternate(alpha):
        na = np.linalg.norm(alpha)
        if na == 0:
            return 0.0, alpha
        alpha = alpha / na
        val = nuclear(alpha)
        for _ in range(80):
            M = Xt * alpha[None, :]
            U, s, Vh = np.linalg.svd(M, full_matrices=False)
            G = U @ Vh
            c = np.einsum("ki,ki->i", np.conj(G), Xt)
            nc = np.linalg.norm(c)
            if nc == 0:
                break
            new_alpha = np.conj(c) / nc
            new_val = nuclear(new_alpha)
            if new_val <= val + 1e-14:
                break
            alpha, val = new_alpha, new_val
        return val, alpha

    dt = complex if space.is_complex else float
    seeds = [np.ones(n, dtype=dt) / math.sqrt(n)]
    col = space.norm_cols(X)
    if col.max() > 0:
        seeds.append((col / np.linalg.norm(col)).astype(dt))
    seeds += list(np.eye(n, dtype=dt)[: min(n, 4)])
    seeds += [field_normal(cfg.rng(11000 + i), n, space.is_complex) for i in range(cfg.restarts)]

    best, best_alpha = 0.0, None
    for s in seeds:
        val, alpha = alternate(np.asarray(s, dtype=dt))
        if val > best:
            best, best_alpha = val, alpha
    upper = min(lp_norm(space.norm_cols(X), 2), _roots_upper(space, X, cfg))
    return NormValue.bracket(min(best, upper), upper, {"alpha": best_alpha}, "nuclear_alt_ascent")


def _numerical_dual_value(spec: MultiNormSpec, t: VectorTuple, cfg: OptimConfig) -> NormValue:
    dual_space = t.space
    primal = dual_space.dual()
    base = spec.base
    L = t.columns
    m, n = L.shape
    heuristic = exact_evaluator(base, primal, cfg) is None
    membership = point_evaluator(base, primal, replace(cfg, restarts=min(cfg.restarts, 4), refine_passes=1))

    def objective(Xs):
        return _pairings(primal, Xs, L).sum(axis=-1)

    # canonical near-optimal directions for the closed-form bases
    dt = complex if primal.is_complex else float
    absL = np.abs(L)
    phases = phase(np.conj(L))
    seeds = []
    s = absL.sum(axis=1)
    u = dual_space.unit_ball_norming(s)
    seeds.append((u[:, None] * phases).astype(dt))
    owner = absL.argmax(axis=1)
    masked = np.zeros((m, n), dtype=dt)
    for k in range(m):
        masked[k, owner[k]] = u[k] * phases[k, owner[k]]
    seeds.append(masked)
    per_slot = np.stack([dual_space.unit_ball_norming(L[:, j]) for j in range(n)], axis=1)
    seeds.append(per_slot.astype(dt))
    for j in range(n):
        single = np.zeros((m, n), dtype=dt)
        single[:, j] = per_slot[:, j]
        seeds.append(single)

    res = ball_linear_max(membership, objective, (m, n), cfg, seeds=seeds, complex_field=primal.is_complex)
    method = "numerical_dual_ascent" + ("_heuristic_membership" if heuristic else "")
    return NormValue.lower_bound(res.lower, res.witness, method)


# ---------------------------------------------------------------------------
# public evaluate


def evaluate(spec: MultiNormSpec, t: VectorTuple, cfg: OptimConfig | None = None) -> NormValue:
    """Evaluate the multi-norm described by spec on the tuple t."""
    cfg = cfg or OptimConfig()
    space = t.space
    validate(spec, space)
    X = t.columns
    v = spec.variant

    fast = exact_evaluator(spec, space, cfg)
    if fast is not None and _grid_fits(spec, space, X.shape[1], cfg):
        value = fast(X)
        witness = None
        method = {
            "min": "max_column_norm",
            "lattice": "coordinatewise_sup",
            "dual_lattice": "coordinatewise_sum",
            "lp_sum": "lp_sum",
            "partition": "partition_formula",
            "max": "standard_1_fastpath",
            "standard_q": "coordinatewise_sup",
            "weak_summing": "weak_summing_closed",
            "generated": "family_max",
            "extended": "family_max",
        }[v]
        if v == "min":
            witness = {"column": int(np.argmax(space.norm_cols(X)))}
        elif v == "standard_q":
            witness = {"assignment": np.abs(X).argmax(axis=1)}
        return NormValue.exact(value, witness, method)

    if v == "standard_q":
        return _standard_q_search(t, spec.q, cfg)
    if v == "max":
        return _max_value(t, cfg)
    if v == "pq":
        return _pq_value(spec, t, cfg)
    if v == "hilbert":
        return _hilbert_value(t, cfg)
    if v == "weak_summing":
        return summing.mu_weak(spec.p, t, cfg)
    if v == "numerical_dual":
        return _numerical_dual_value(spec, t, cfg)
    if v == "extended":
        results = [evaluate(spec.base, VectorTuple(np.asarray(T) @ X, space), cfg) for T in spec.ops]
        lower = max(r.lower for r in results)
        upper = max(r.upper for r in results)
        if all(r.kind == "exact" for r in results):
            return NormValue.exact(lower, None, "family_max")
        return NormValue("lower" if upper == INF else "bracket", lower, upper, None, "family_max")
    raise SpecError(f"unhandled variant {v!r}")


def point_evaluator(spec: MultiNormSpec, space: SpaceSpec, cfg: OptimConfig) -> Callable[[np.ndarray], Any]:
    """point_value with the evaluator resolved once, for callers that evaluate many tuples."""
    fast = exact_evaluator(spec, space, cfg)
    if fast is not None:
        return fast

    def search(X):
        X = np.asarray(X)
        if X.ndim == 2:
            return evaluate(spec, VectorTuple(X, space), cfg).lower
        flat = X.reshape(-1, *X.shape[-2:])
        return np.array([evaluate(spec, VectorTuple(x, space), cfg).lower for x in flat]).reshape(X.shape[:-2])

    return search


def point_value(spec: MultiNormSpec, space: SpaceSpec, X: np.ndarray, cfg: OptimConfig):
    """Cheap point estimate (certified lower bound; exact on exact paths).

    X is one (m, n) tuple (a float is returned) or a (..., m, n) stack.
    """
    return point_evaluator(spec, space, cfg)(X)


# ---------------------------------------------------------------------------
# axiom audit


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    n: int
    lhs: float
    rhs: float
    gap: float
    witness: Any

    def to_json(self) -> dict:
        from .optim import _witness_json

        return {
            "axiom": self.axiom,
            "n": self.n,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "witness": _witness_json(self.witness),
        }


@dataclass
class AxiomReport:
    checked: list[str]
    violations: list[AxiomViolation]
    trials: int
    tol: float
    mode: str  # "exact" or "heuristic"

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "violations": [v.to_json() for v in self.violations],
            "trials": self.trials,
            "tol": self.tol,
            "mode": self.mode,
            "ok": self.ok,
        }


def _trial_chunks(trials: int) -> list[range]:
    """Trial indices 0..trials-1 in ranges of at most GRID_BLOCK; a negative count is a SpecError.

    An audit draws one range's trials, evaluates them, and scans them
    before it draws the next, so its memory does not grow with trials.
    """
    if trials < 0:
        raise SpecError(f"trials must be >= 0, got {trials}")
    return [range(s, min(s + GRID_BLOCK, trials)) for s in range(0, trials, GRID_BLOCK)]


def _stack_values(evaluate_stack: Callable[[np.ndarray], Any], tuples: list) -> list[float]:
    """The float values of a list of arrays, in list order.

    evaluate_stack gets one (B, *shape) stack per (shape, dtype) group and
    returns its B values; where it keeps point_value's contract each value
    equals the value of its array alone bit for bit.
    """
    groups: dict = {}
    for i, X in enumerate(tuples):
        groups.setdefault((X.shape, X.dtype), []).append(i)
    out = np.empty(len(tuples))
    for idx in groups.values():
        out[idx] = evaluate_stack(np.stack([tuples[i] for i in idx]))
    return out.tolist()


def _point_values(spec: MultiNormSpec, space: SpaceSpec, tuples: list, cfg: OptimConfig) -> list[float]:
    """point_value of each tuple of a list, in list order, with one point_value call per stack.

    Resolving the evaluator once per stack costs a few microseconds, and
    every evaluation stays a point_value call, which is what tools that
    wrap point_value (the benchmark's certificate-kind recorder) observe.
    """
    return _stack_values(lambda S: point_value(spec, space, S, cfg), tuples)


def check_axioms(
    spec: MultiNormSpec,
    space: SpaceSpec,
    n_max: int = 4,
    trials: int = 200,
    cfg: OptimConfig | None = None,
    tol: float | None = None,
) -> AxiomReport:
    """Sampled audit of (A1)(A2)(A3) plus (A4) or (B4) for dual variants.

    Exact-path specs are audited at tol 1e-8; search-backed specs at the
    widened 2e-2 on their certified lower bounds, flagged "heuristic".
    Each trial draws n, X, a permutation and the scalars alpha from its own
    stream; the derived tuples of a chunk of trials are evaluated as stacks.
    """
    cfg = cfg or OptimConfig()
    validate(spec, space)
    if n_max < 2:
        raise SpecError(f"axiom audits need n_max >= 2, got {n_max}")
    chunks = _trial_chunks(trials)
    exact = is_exact_path(spec, space, n_max, cfg)
    if tol is None:
        tol = 1e-8 if exact else 2e-2
    mode = "exact" if exact else "heuristic"
    dual = spec.is_dual_multinorm()
    last_axiom = "B4" if dual else "A4"
    checked = ["A1", "A2", "A3", last_axiom]

    violations: list[AxiomViolation] = []
    m = space.dim
    for chunk in chunks:
        drawn, tuples = [], []
        for trial in chunk:
            rng = cfg.rng(40000 + trial)
            n = int(rng.integers(2, n_max + 1))
            X = field_normal(rng, (m, n), space.is_complex)
            perm = rng.permutation(n)
            alpha = 2.0 * rng.random(n)
            if space.is_complex:
                alpha = alpha * np.exp(2j * np.pi * rng.random(n))
            padded = np.concatenate([X, np.zeros((m, 1), dtype=X.dtype)], axis=1)
            rep = np.concatenate([X, X[:, -1:]], axis=1)
            # base, permuted, scaled, padded, repeated last slot, and for (B4) the doubled last slot
            tuples += [X, X[:, perm], X * alpha[None, :], padded, rep]
            if dual:
                doubled = X.copy()
                doubled[:, -1] *= 2.0
                tuples.append(doubled)
            drawn.append((n, X, perm, alpha))
        vals = _point_values(spec, space, tuples, cfg)
        per = 6 if dual else 5

        for i, (n, X, perm, alpha) in enumerate(drawn):
            base, permuted, scaled, padded_val, rep_val = vals[per * i : per * i + 5]
            if abs(permuted - base) > tol * max(1.0, base):
                violations.append(AxiomViolation("A1", n, permuted, base, abs(permuted - base), {"tuple": X, "perm": perm}))

            rhs = float(np.abs(alpha).max()) * base
            if scaled > rhs + tol * max(1.0, rhs):
                violations.append(AxiomViolation("A2", n, scaled, rhs, scaled - rhs, {"tuple": X, "alpha": alpha}))

            if abs(padded_val - base) > tol * max(1.0, base):
                violations.append(AxiomViolation("A3", n + 1, padded_val, base, abs(padded_val - base), {"tuple": X}))

            if not dual:
                if abs(rep_val - base) > tol * max(1.0, base):
                    violations.append(AxiomViolation("A4", n + 1, rep_val, base, abs(rep_val - base), {"tuple": X}))
            else:
                rhs = vals[per * i + 5]
                if abs(rep_val - rhs) > tol * max(1.0, rhs):
                    violations.append(AxiomViolation("B4", n + 1, rep_val, rhs, abs(rep_val - rhs), {"tuple": X}))

    return AxiomReport(checked, violations, trials, tol, mode)


# ---------------------------------------------------------------------------
# rate of growth


def rate_of_growth(spec: MultiNormSpec, space: SpaceSpec, n: int, cfg: OptimConfig | None = None) -> NormValue:
    """phi_n = sup of the multi-norm over n-tuples of unit-ball vectors."""
    cfg = cfg or OptimConfig()
    validate(spec, space)
    m = space.dim
    v = spec.variant

    if v == "min":
        x = delta(space, 0) / space.norm(delta(space, 0))
        return NormValue.exact(1.0, {"tuple": np.repeat(x[:, None], n, axis=1)}, "min_growth")

    def closed_form() -> tuple[float, np.ndarray] | None:
        dt = complex if space.is_complex else float
        if v in ("lattice", "standard_q", "max") and space.p != INF and m >= n:
            q = space.p if v in ("lattice",) else (spec.q if v == "standard_q" else 1.0)
            if v == "max" and space.p != 1:
                return None
            cols = np.zeros((m, n), dtype=dt)
            for j in range(n):
                cols[j, j] = 1.0 / space.norm(delta(space, j))
            return n ** (1.0 / q), cols
        if v in ("dual_lattice", "weak_summing", "lp_sum"):
            q = 1.0 if v == "dual_lattice" else spec.p
            x = delta(space, 0) / space.norm(delta(space, 0))
            return n ** (1.0 / q), np.repeat(x[:, None], n, axis=1).astype(dt)
        return None

    cf = closed_form()
    if cf is not None:
        target, witness_cols = cf
        got = point_value(spec, space, witness_cols, cfg)
        if abs(got - target) <= 1e-9 * max(1.0, target):
            return NormValue.exact(target, {"tuple": witness_cols}, "closed_form_growth")

    dt = complex if space.is_complex else float
    project = summing.unit_columns(space)
    ends, ok = project(np.array([delta_tuple(m, n, space.is_complex), np.ones((m, n), dtype=dt)]))
    seeds = [ends[0]] if ok[0] else []
    roots = roots_tuple(m, n, space.is_complex)
    nr = space.norm_cols(roots)
    if np.all(nr > 0):
        seeds.append(roots / nr[None, :])
    if ok[1]:
        seeds.append(ends[1])

    val, cols = seeded_ascent(project, point_evaluator(spec, space, cfg), seeds, (m, n), cfg, space.is_complex)
    return NormValue.lower_bound(val, {"tuple": cols}, "unit_tuple_ascent")


# ---------------------------------------------------------------------------
# Sup of a sequence and the multi-null prefix test


def sup_and_multinull(
    spec: MultiNormSpec,
    space: SpaceSpec,
    vectors: list,
    eps: float,
    cfg: OptimConfig | None = None,
) -> tuple[NormValue, int | None]:
    """Sup over the finite horizon and the least multi-null prefix index.

    Returns (norm of the full tuple, n0) where n0 is the least index with
    ||(x_{n0+1},...,x_H)|| < eps, or None when no prefix works at this
    horizon.  Monotonicity in the tuple length makes the longest tail the
    binding one.
    """
    cfg = cfg or OptimConfig()
    cols = np.stack([space.check_vector(x) for x in vectors], axis=1)
    H = cols.shape[1]
    total = evaluate(spec, VectorTuple(cols, space), cfg)
    n0: int | None = None
    for start in range(H):
        tail = cols[:, start:]
        if np.all(np.abs(tail) == 0):
            val = 0.0
        else:
            val = point_value(spec, space, tail, cfg)
        if val < eps:
            n0 = start
            break
    return total, n0
