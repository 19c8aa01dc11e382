"""Multi-norm evaluators, axiom audits, rates of growth, numerical duals.

One entry point, evaluate(spec, tuple, cfg), covers every supported
multi-norm variant.  Exact variants return kind="exact"; search-backed
variants return certified lower bounds or brackets whose upper side comes
from closed inequalities (root averages, q-sum bounds), and are exact at
that upper side where a feasible witness meets it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

from .errors import SpecError
from .optim import (
    COUNTS,
    NORMALS,
    UNIFORMS,
    NormValue,
    OptimConfig,
    _dual_unit_vectors,
    _first_max,
    _op_norm_rule,
    ball_linear_max,
    field_normal_block,
    gaussian_starts,
    meets,
    polish,
    seeded_ascent,
)
from .partitions import GRID_BLOCK, digit_rows, slot_assignments
from .spaces import INF, SpaceSpec, VectorTuple, _as_value, _root, conjugate_index, delta, delta_tuple, lp_norm, phase, roots_tuple
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
        """True when the variant satisfies (B4) instead of (A4): mu_1 does, mu_inf is the minimum multi-norm."""
        if self.variant == "numerical_dual":
            return not self.base.is_dual_multinorm()
        return self.variant == "dual_lattice" or (self.variant in ("weak_summing", "lp_sum") and self.p == 1)

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


def _standard_q_values(space: SpaceSpec, contrib: np.ndarray, A: np.ndarray, q: float) -> np.ndarray:
    """(..., G) standard q values (q-norm of the slots' p-norms) of (G, m) slot assignments A, given contrib = w |X|^p.

    Each slot adds its rows in row order, numpy's order for fewer than 8 terms.
    """
    n = contrib.shape[-1]
    sums = np.zeros((*contrib.shape[:-2], len(A), n))
    for k in range(A.shape[1]):
        sums += np.where(A[:, k, None] == np.arange(n), contrib[..., None, k, :], 0.0)
    return lp_norm(_root(sums, space.p), q)


def _standard_q_enum(space: SpaceSpec, X: np.ndarray, q: float):
    """(value, first maximizing assignment in itertools.product order) of one (m, n) tuple or a (..., m, n) stack.

    The n^m assignments come in digit blocks of at most GRID_BLOCK rows, fewer where a stack's block would pass 2^18 entries.
    """
    m, n = X.shape[-2:]
    S = X.reshape(-1, m, n)
    contrib = space.w[:, None] * np.abs(S) ** space.p
    total, rows = n**m, max(1, min(GRID_BLOCK, 2**18 // (len(S) * n)))
    best, assign = np.full(len(S), -INF), np.zeros((len(S), m), dtype=int)
    for start in range(0, total, rows):
        A = digit_rows(m, n, start, min(start + rows, total))
        i, v = _first_max(_standard_q_values(space, contrib, A, q))
        win = v > best
        best[win], assign[win] = v[win], A[i[win]]
    return _as_value(best.reshape(X.shape[:-2])), assign.reshape(*X.shape[:-2], m)


def exact_evaluator(spec: MultiNormSpec, space: SpaceSpec, n: int, cfg: OptimConfig) -> Optional[Callable[[np.ndarray], Any]]:
    """The variant's exact value function for n-tuples, or None where n-tuples have no exact path.

    The function takes one (m, n) tuple and returns a float, or a stack of
    shape (..., m, n) and returns the (...) values; each stacked value
    equals the value of its tuple alone bit for bit.  standard_q(q > p)
    enumerates its n^m slot assignments, and generated the n^k of each
    length-k member, within cfg.max_enum.  weak_summing
    is exact where optim._op_norm_rule covers its (p' -> r) matrices, by
    mu_weak's kernel summing.mu_scale, so its values equal mu_weak's bit
    for bit for every p.  numerical_dual is exact where its base has a
    dual in _dual_spec's table and that dual is exact.  A spec the space
    cannot carry raises SpecError.
    """
    validate(spec, space)
    v = spec.variant
    p = space.p

    if v == "min":
        return lambda X: _as_value(space.norm_cols(X).max(axis=-1))
    if v == "lattice" or (v == "standard_q" and spec.q == p) or (v == "max" and p == 1):
        return lambda X: lp_norm(np.abs(X).max(axis=-1), p, w=space.w)
    if v == "standard_q" and n**space.dim <= cfg.max_enum:
        return lambda X: _standard_q_enum(space, X, spec.q)[0]
    if v == "dual_lattice":
        return lambda X: lp_norm(np.abs(X).sum(axis=-1), p, w=space.w)
    if v == "lp_sum":
        return lambda X: lp_norm(space.norm_cols(X), spec.p)
    if v == "partition":
        blocks = [np.asarray(b, dtype=int) for b in spec.blocks]
        if p == INF:
            return lambda X: _as_value(np.max([np.abs(X[..., b, :]).max(axis=(-2, -1)) for b in blocks], axis=0))

        def part(X):
            contrib = space.w[:, None] * np.abs(X) ** p
            total = 0.0
            for b in blocks:
                total = total + contrib[..., b, :].sum(axis=-2).max(axis=-1)
            return _root(total, p)

        return part
    if v == "weak_summing":
        if _op_norm_rule(conjugate_index(spec.p), p, space.is_complex, space.dim, n, cfg.max_enum) is not None:
            return lambda X: summing.mu_scale(spec.p, X, space, cfg)[0]
    if v == "generated" and all(n**d.length <= cfg.max_enum for d in spec.family.members):
        from .decompositions import generated_value

        return lambda X: generated_value(spec.family, space, X, cfg)
    if v == "extended":
        base_fn = exact_evaluator(spec.base, space, n, cfg)
        if base_fn is None:
            return None
        ops = [np.asarray(T) for T in spec.ops]
        return lambda X: _as_value(np.max([base_fn(T @ X) for T in ops], axis=0))
    if v == "numerical_dual":
        dual = _dual_spec(spec.base)
        return None if dual is None else exact_evaluator(dual, space, n, cfg)
    return None


def is_exact_path(spec: MultiNormSpec, space: SpaceSpec, n: int, cfg: OptimConfig) -> bool:
    return exact_evaluator(spec, space, n, cfg) is not None


# ---------------------------------------------------------------------------
# search-backed variants


def _pairings(space: SpaceSpec, X: np.ndarray, L: np.ndarray) -> np.ndarray:
    """<x_j, lambda_j> for each slot j; X and L may each be a (..., m, n) stack of tuples."""
    return np.einsum("k,...kj,...kj->...j", space.w, X, L)


def _column_norming(space: SpaceSpec, X: np.ndarray) -> np.ndarray:
    """The (m, n) functionals norming X's columns (unit_ball_norming), 0 for a zero column."""
    return np.stack([space.unit_ball_norming(X[:, j]) for j in range(X.shape[1])], axis=1)


def _slot_norming_seeds(space: SpaceSpec, X: np.ndarray) -> list[np.ndarray]:
    """The functionals norming X's columns, then one tuple per slot keeping only that slot's."""
    m, n = X.shape
    norming = _column_norming(space, X)
    singles = np.zeros((n, m, n), dtype=norming.dtype)
    singles[np.arange(n), :, np.arange(n)] = norming.T
    return [norming, *singles]


def _pq_seeds(space: SpaceSpec, X: np.ndarray) -> list[np.ndarray]:
    m, n = X.shape
    dt = complex if space.is_complex else float
    seeds = [delta_tuple(m, n, space.is_complex), *_slot_norming_seeds(space, X)]
    # functionals norming each entry on the coordinates it dominates
    owner = np.abs(X).argmax(axis=1)
    masked = np.zeros((m, n), dtype=dt)
    for j in range(n):
        xm = np.where(owner == j, X[:, j], 0.0)
        if np.any(np.abs(xm) > 0):
            masked[:, j] = np.where(owner == j, space.unit_ball_norming(xm), 0.0)
    seeds.append(masked)
    return seeds


def _pq_starts(space: SpaceSpec, X: np.ndarray, cfg: OptimConfig) -> list[np.ndarray]:
    """_pq_seeds, then the cfg.restarts Gaussian starts seeded_ascent draws for them: every start of a (p,q) search."""
    return _pq_seeds(space, X) + list(gaussian_starts(cfg, "ascent.starts", X.shape, space.is_complex))


def _disjoint(X: np.ndarray) -> bool:
    """Whether every row of the (m, n) tuple X holds at most one nonzero entry: its columns have disjoint supports."""
    return bool(((np.abs(X) > 0).sum(axis=-1) <= 1).all())


def _pq_disjoint(space: SpaceSpec, X: np.ndarray, p: float, q: float) -> tuple[float, np.ndarray]:
    """(value, functionals) of the (p,q)-multi-norm of a tuple with disjointly supported columns, in closed form.

    With b_j = ||x_j||, r the space index, 1/t = max(1/p - 1/r, 0) and
    1/u = max(1/q - 1/t, 0), the value is ||b||_u (max_j b_j where
    1/u = 0); at t = inf (p >= r) it is lp_norm(b, q), the q-sum upper
    bound of _pq_value bit for bit.

    Proof.  Let P_k be the band projection onto supp x_k and M_eps =
    sum_k eps_k P_k for signs eps.  Then |M_eps y| <= |y| and
    avg_eps eps_j M_eps = P_j, so sum_j c_j P_j lambda_j =
    avg_eps M_eps(sum_j eps_j c_j lambda_j): restricting each lambda_j to
    supp x_j keeps every pairing <x_j, lambda_j> and does not raise
    mu_{p,n}, over R and C.  For disjoint lambda, sum_j c_j lambda_j has
    norm ||(c_j ||lambda_j||)_j||_{r'}, so mu_{p,n}(lambda) =
    sup_{||c||_{p'} <= 1} ||(c_j ||lambda_j||)_j||_{r'} =
    ||(||lambda_j||)_j||_t, and the norm is sup{ ||(b_j s_j)_j||_q :
    ||s||_t <= 1 } = ||b||_u by Holder with 1/q = 1/t + 1/u.

    The functionals lambda_j = a_j phi_j attain it, with phi_j norming
    x_j (unit_ball_norming) and zeroed off supp x_j (at r = 1
    unit_ball_norming puts phase 1 on the zero coordinates too), and with
    a = s / ||s||_t, s_j = (b_j / max b)^(u/t): a_j = 1 at t = inf, and
    a = e_argmax where 1/u = 0.  Scaling by max b keeps b^u finite for a
    large u.
    """
    # 1/u = 1/q - 1/t where t < inf, written so that it is exactly 1/r at p = q
    value, a = _holder_sup(space.norm_cols(X), q, max(1.0 / p - 1.0 / space.p, 0.0), 1.0 / q - 1.0 / p + 1.0 / space.p)
    L = np.where(np.abs(X) > 0, _column_norming(space, X), 0.0) * a
    return value, L


def _holder_sup(b: np.ndarray, q: float, inv_t: float, inv_u: float) -> tuple[float, np.ndarray]:
    """(value, a): sup{ ||(a_j b_j)_j||_q : a >= 0, ||a||_t <= 1 } = ||b||_u for b >= 0, and the first maximizer a.

    inv_t is 1/t and inv_u is 1/q - 1/t.  At inv_t = 0 the value is
    lp_norm(b, q) at a = 1; where inv_u <= 0 (or b = 0) it is max_j b_j
    at the first e_argmax; otherwise a = s / ||s||_t with
    s_j = (b_j / max b)^(u/t), by Holder with 1/q = 1/t + 1/u.
    """
    top = b.max()
    if inv_t == 0.0:
        return lp_norm(b, q), np.ones_like(b)
    if inv_u <= 0.0 or top == 0.0:
        return top, np.eye(len(b))[int(np.argmax(b))]
    s = (b / top) ** (inv_t / inv_u)
    return top * lp_norm(b / top, 1.0 / inv_u), s / lp_norm(s, 1.0 / inv_t)


def _pq_value(spec: MultiNormSpec, t: VectorTuple, cfg: OptimConfig) -> NormValue:
    """Lower bound from mu_{p,n}-unit functional tuples; upper from the q-sum and root bounds (_pq_upper).

    A tuple with disjointly supported columns (_disjoint) takes the closed
    form _pq_disjoint, exact with method disjoint_closed_form, before any
    bound or search.  A 2-tuple in an l^1 space takes _pq_l1_pair, whose
    bound is within 1e-10 of its witness, so its result is exact.

    With p = 2 on an index-2 space the mu_{2,n} ball is a spectral ball, and
    the spectral polish from the seeds and cfg.restarts Gaussian starts
    (the starts seeded_ascent would draw) is the whole search.  Where
    optim._op_norm_rule gives mu_{p,n} of every functional tuple exactly,
    the tuple climbs with seeded_ascent (pq_ball_ascent), whose ceiling is
    the upper bound: a projected seed that meets it ends the search.

    The other roles take pq_holder_alternation.  There the projection
    summing.mu_scale divides lambda by the Holder bound H = min(A, B) >= mu,
    with A = ||(||lambda_j||_E')_j||_p and B = ||k -> ||(lambda_jk)_j||_p||
    in L^{r'}(w), except on a generalized permutation slice, whose mu is
    exact.  So every projected point other than such a seed lies in the
    union of the balls {A <= 1} and {B <= 1}, and no climb of those points
    passes max(sup_A, sup_B) of the value V(lambda) = ||(<x_j, lambda_j>)_j||_q:
      - sup_A = ||b||_u with b_j = ||x_j|| and 1/u = max(1/q - 1/p, 0)
        (_holder_sup), attained by lambda_j = a_j phi_j, phi_j norming x_j;
      - sup_B = max G(mu) over mu >= 0 with ||mu||_{q'} = 1, where
        G(mu) = ||k -> ||(mu_j |x_jk|)_j||_{p'}||_{L^r(w)}, by dualizing the
        q-sum and then B coordinate by coordinate.
    _pq_holder_alternation climbs G: at mu, lambda(mu) has B = 1 and
    nonnegative pairings c with <mu, c> = G(mu), and the next mu' norms c
    in l^{q'}, so G(mu) <= ||c||_q = <mu', c> <= G(mu'): each step is
    monotone.  The result is the first best of the projected seeds and
    cfg.restarts Gaussian starts (the starts seeded_ascent would project,
    and its exit: one that meets the upper bound ends the evaluation), then
    of the sup_A witness and the alternation's witness, each divided by its
    own mu_scale, so every witness is feasible.

    A lower bound that meets the upper one (optim.meets) makes the result
    exact at the upper bound.
    """
    space = t.space
    X = t.columns
    n = t.n
    p, q = spec.p, spec.q
    if _disjoint(X):
        val, L = _pq_disjoint(space, X, p, q)
        return NormValue.exact(val, {"functionals": L}, "disjoint_closed_form")
    dual = space.dual()
    upper = _pq_upper(space, X, q, cfg)

    if space.p == 1 and n == 2:
        val, bound, L = _pq_l1_pair(space, X, p, q)
        upper = min(upper, bound)
        method = "l1_pair_arc_bisection"
    elif p == 2 and space.p == 2:
        val, L = _pq_spectral_polish(space, X, q, np.array(_pq_starts(space, X, cfg), dtype=complex))
        method = "pq_spectral_polish"
    else:
        def project(Ls):
            scale, _ = summing.mu_scale(p, Ls, dual, cfg)
            ok = (scale > 0) & np.isfinite(scale)
            out = Ls.copy()
            out[ok] = Ls[ok] / scale[ok][:, None, None]
            return out, ok

        def value(Ls):
            return lp_norm(np.abs(_pairings(space, X, Ls)), q)

        if _op_norm_rule(conjugate_index(p), dual.p, space.is_complex, space.dim, n, cfg.max_enum) is not None:
            val, L = seeded_ascent(project, value, _pq_seeds(space, X), (space.dim, n), cfg, space.is_complex, ceiling=upper)
            method = "pq_ball_ascent"
        else:
            val, L = _best_projected(project, value, np.array(_pq_starts(space, X, cfg), dtype=X.dtype))
            if not meets(val, upper):
                a = _holder_sup(space.norm_cols(X), q, 1.0 / p, max(1.0 / q - 1.0 / p, 0.0))[1]
                witnesses = np.array([_column_norming(space, X) * a, _pq_holder_alternation(space, X, p, q, cfg)], dtype=X.dtype)
                val_b, L_b = _best_projected(project, value, witnesses)
                if val_b > val:
                    val, L = val_b, L_b
            method = "pq_holder_alternation"

    if meets(val, upper):
        return NormValue.exact(upper, {"functionals": L}, method)
    val = max(val, 0.0)
    return NormValue.bracket(min(val, upper), upper, {"functionals": L}, method)


def _best_projected(project, value, points: np.ndarray) -> tuple[float, np.ndarray | None]:
    """(value, point) of the first best projection of a stack of points, as seeded_ascent values its starts; (-inf, None) if none projects."""
    P, ok = project(points)
    if not ok.any():
        return -INF, None
    P = P[ok]
    i, best = _first_max(np.asarray(value(P), dtype=float))
    return best, P[i].copy()


PQ_ALTERNATION_STEPS = 200  # cap on _pq_holder_alternation's steps per start
PQ_ALTERNATION_GAIN = 1e-13  # gain at unit scale at or below which a start stops


def _pq_holder_alternation(space: SpaceSpec, X: np.ndarray, p: float, q: float, cfg: OptimConfig) -> np.ndarray:
    """The functionals lambda(mu) at the first best end point of the monotone climb of G over {mu >= 0, ||mu||_{q'} = 1}.

    See _pq_value for G and the step.  It runs in the reduced coordinates
    of summing._reduced, where E and E' are unweighted (y = w^(1/r) x pairs
    with w^(1/r') lambda), on |y| / max_j ||y_j||, so a start's stopping
    gain is relative to the tuple's size.  The starts, as one stack, are
    every e_j, the uniform vector and cfg.restarts moduli of Gaussian draws
    from cfg.stream("pq_alternation.starts"); polish climbs them at most
    PQ_ALTERNATION_STEPS steps.  For p = q = 1, mu = 1 at once and G(1) is
    the lattice norm ||V_j |x_j| ||.  Returns an (m, n) array of X's field
    with B(lambda) = 1 (0 if the climb found nothing).
    """
    n = X.shape[1]
    r, pd, qd, rd = space.p, conjugate_index(p), conjugate_index(q), conjugate_index(space.p)
    Y = np.abs(summing._weight_root(space)[:, None] * X)
    top = lp_norm(Y, r, axis=0).max()
    if top == 0:
        return np.zeros_like(X)
    Y = Y / top

    def moduli(M):
        # (S, m, n) entries mu_j |y_kj| and their (S, m) row norms g_k in l^{p'}
        V = M[:, None, :] * Y
        return V, lp_norm(V, pd)

    def G(M):
        return lp_norm(moduli(M)[1], r)

    def functionals(M):
        # rows z_k of unit l^p norm with <V_k, z_k> = g_k, scaled by s of unit l^{r'} norm with <g, s> = G
        V, g = moduli(M)
        z = _dual_unit_vectors(V.reshape(-1, n), g.reshape(-1), p, pd, np.ones((V.size // n, n))).reshape(V.shape)
        s = _dual_unit_vectors(g, lp_norm(g, r), rd, r, np.ones_like(g))
        F = s[:, :, None] * z
        return F, (Y * F).sum(axis=-2)

    def step(M):
        c = functionals(M)[1]
        nc = lp_norm(c, q)
        Mn = _dual_unit_vectors(c, nc, qd, q, np.ones_like(c))
        return Mn, np.where(nc > 0, G(Mn), np.nan)

    starts = np.concatenate([np.eye(n), np.ones((1, n)), np.abs(gaussian_starts(cfg, "pq_alternation.starts", (n,), False))])
    starts = starts / lp_norm(starts, qd)[:, None]
    g0 = G(starts)
    best, mu = polish(step, starts, np.where(g0 > 0, g0, np.nan), PQ_ALTERNATION_STEPS, PQ_ALTERNATION_GAIN)
    if best == -INF:
        return np.zeros_like(X)
    L = functionals(mu[None])[0][0] * np.conj(phase(X)) / summing._weight_root(space.dual())[:, None]
    return L if space.is_complex else np.real(L)


ARC_PIECES = 32  # initial pieces of the quarter arc in _pq_l1_pair
ARC_LEVELS = 40  # halvings before _pq_l1_pair settles for a bracket
ARC_OPEN_MAX = 1024  # open pieces past which it settles for a bracket too
ARC_GAP = 1e-10  # relative gap at which a piece is closed, well inside optim.meets' 1e-9


def _pq_l1_pair(space: SpaceSpec, X: np.ndarray, p: float, q: float) -> tuple[float, float, np.ndarray]:
    """(lower, upper, functionals) for the (p,q)-multi-norm of a 2-tuple in an l^1 space, by halving pieces of the dual arc.

    The unit ball of l^1_w has the extreme points zeta e_k / w_k, so
    mu_{p,2}(L) <= 1 says ||(L_1k, L_2k)||_p <= 1 for every coordinate k,
    and dualizing the q-sum gives the norm as the maximum over the quarter
    arc {mu >= 0, ||mu||_{q'} = 1} of

        F(mu) = sum_k w_k ||(mu_1 |x_1k|, mu_2 |x_2k|)||_{p'},

    which is convex and nondecreasing in each mu_j.  Between two arc points
    P_a and P_b the arc lies in the triangle of P_a, P_b and the meeting
    point T of their tangent lines (the l^{q'} ball is convex), and below
    the corner C = (P_a1, P_b2); so min(F(C), max(F(P_a), F(P_b), F(T)))
    bounds F on that piece, within O(width^2) of its maximum.  A piece whose
    bound is within ARC_GAP of the best arc point is closed, the others are
    halved; upper is the largest bound of a closed or last open piece.  At
    q = 1 the arc is the corner (1, 1) itself.  The functionals norm
    (mu_j |x_jk|)_j in l^{p'} coordinate by coordinate at the best point, so
    their value is at least F there.
    """
    a = np.abs(X)
    pd, qd = conjugate_index(p), conjugate_index(q)

    def F(M):
        return lp_norm(M[:, None, :] * a, pd) @ space.w

    if qd == INF:
        mu = np.ones(2)
        upper = float(F(mu[None])[0])
    else:
        def arc(theta):
            P = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            return P / lp_norm(P, qd)[:, None]

        theta = np.linspace(0.0, np.pi / 2, ARC_PIECES + 1)
        P = arc(theta)
        Fp = F(P)
        i = int(np.argmax(Fp))
        best, mu = Fp[i], P[i]
        lo, hi, Pa, Pb, Fa, Fb = theta[:-1], theta[1:], P[:-1], P[1:], Fp[:-1], Fp[1:]
        closed = 0.0
        for level in range(ARC_LEVELS + 1):
            Na, Nb = Pa ** (qd - 1.0), Pb ** (qd - 1.0)
            ca, cb = (Na * Pa).sum(axis=1), (Nb * Pb).sum(axis=1)
            det = Na[:, 0] * Nb[:, 1] - Na[:, 1] * Nb[:, 0]
            ok = det > 0
            d = np.where(ok, det, 1.0)[:, None]
            T = np.stack([ca * Nb[:, 1] - Na[:, 1] * cb, Na[:, 0] * cb - ca * Nb[:, 0]], axis=1) / d
            FT = np.where(ok, F(T), INF)
            U = np.minimum(F(np.stack([Pa[:, 0], Pb[:, 1]], axis=1)), np.maximum(np.maximum(Fa, Fb), FT))
            open_ = U > best * (1.0 + ARC_GAP)
            closed = max(closed, float(U[~open_].max(initial=0.0)))
            if not open_.any() or level == ARC_LEVELS or open_.sum() > ARC_OPEN_MAX:
                break
            lo, hi, Pa, Pb, Fa, Fb = lo[open_], hi[open_], Pa[open_], Pb[open_], Fa[open_], Fb[open_]
            mid = (lo + hi) / 2
            Pm = arc(mid)
            Fm = F(Pm)
            j = int(np.argmax(Fm))
            if Fm[j] > best:
                best, mu = Fm[j], Pm[j]
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
            Pa, Pb = np.concatenate([Pa, Pm]), np.concatenate([Pm, Pb])
            Fa, Fb = np.concatenate([Fa, Fm]), np.concatenate([Fm, Fb])
        upper = max(closed, float(U[open_].max(initial=0.0)))

    V = mu * a
    if pd == INF:
        t = np.zeros_like(V)
        t[np.arange(len(V)), V.argmax(axis=1)] = 1.0
    else:
        nv = lp_norm(V, pd)
        t = (V / np.where(nv > 0, nv, 1.0)[:, None]) ** (pd - 1.0)
    L = t * phase(np.conj(X))
    if not space.is_complex:
        L = np.real(L)
    return float(lp_norm(np.abs(_pairings(space, X, L)), q)), upper, L


def _pq_spectral_polish(space: SpaceSpec, X: np.ndarray, q: float, L0: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Linearize-and-maximize iteration for the (2,q)-norm on index-2 spaces, from every start of the complex (S, m, n) stack L0 at once.

    The feasible set {mu_{2,n}(L) <= 1} is {||D L||_2 <= 1} with D the
    square-root weight matrix; maximizing a real-linear functional over it
    is a nuclear-norm step (one SVD).  The objective is 1-homogeneous and
    convex, so each step is nondecreasing; a start stops once a step gains
    at most 1e-14.  Convergence is linear and slow starts have taken ~270
    steps, so the 500-step cap is only a guard.  Returns the first best
    (value, functionals); a start whose top singular value is 0 never wins.
    """
    D = np.sqrt(space.w)[:, None]
    B = D * L0
    top = np.linalg.svd(B, compute_uv=False)[:, 0]
    B = B / np.where(top > 0, top, 1.0)[:, None, None]

    def value_of(B):
        return lp_norm(np.abs(_pairings(space, X, B / D)), q)

    def step(B):
        c = _pairings(space, X, B / D)
        ac = np.abs(c)
        coef = ac ** (q - 1.0) if q != 1 else (ac > 0).astype(float)
        G = (space.w[:, None] * X) * (phase(np.conj(c)) * coef)[:, None, :]
        U, _, Vh = np.linalg.svd(np.conj(G) / D, full_matrices=False)
        Bn = U @ Vh
        return Bn, value_of(Bn)

    val, B = polish(step, B, np.where(top > 0, value_of(B), np.nan), 500, 1e-14)
    if val == -INF:
        return 0.0, None
    L = B / D
    return val, L if space.is_complex else np.real(L)


def _pq_upper(space: SpaceSpec, X: np.ndarray, q: float, cfg: OptimConfig) -> float:
    """min(q-sum of the column norms, _roots_upper): the upper bound of _pq_value, and at q = 2 of _hilbert_value."""
    return min(lp_norm(space.norm_cols(X), q), _roots_upper(space, X, cfg))


def _search_upper(spec: MultiNormSpec, space: SpaceSpec, X: np.ndarray, cfg: OptimConfig) -> float:
    """evaluate(spec, VectorTuple(X, space), cfg).upper bit for bit for a pq, max or hilbert spec, with no search.

    The bounds are the ones the evaluators attach: a closed form (the real
    max pair, _pq_disjoint), _pq_upper, and for an l^1 2-tuple the arc
    bisection of _pq_l1_pair.  X is an (m, n) array of the space's field;
    a width with an exact path (max on l^1) is exact_evaluator's business.
    """
    if spec.variant == "hilbert":
        return _pq_upper(space, X, 2, cfg)
    if spec.variant == "max":
        if X.shape[1] == 2 and not space.is_complex:
            return _real_pair_max(space, X)[0]
        spec = MultiNormSpec.pq_spec(1, 1)
    if _disjoint(X):
        return _pq_disjoint(space, X, spec.p, spec.q)[0]
    upper = _pq_upper(space, X, spec.q, cfg)
    if space.p == 1 and X.shape[1] == 2:
        upper = min(upper, _pq_l1_pair(space, X, spec.p, spec.q)[1])
    return upper


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

    perms = [np.arange(n), *np.argsort(cfg.stream("roots_upper.perms").random((3, n)), axis=1)]
    best = float(space.norm_cols(X).sum())
    for perm in perms:
        cols = X[:, perm]
        for R in mats:
            best = min(best, float(space.norm_cols(cols @ R.T).mean()))
    return best


def _real_pair_max(space: SpaceSpec, X: np.ndarray) -> tuple[float, np.ndarray]:
    """(value, functionals) of the maximum multi-norm of a real 2-tuple: (||x1 + x2|| + ||x1 - x2||) / 2 (see _max_value)."""
    plus, minus = X[:, 0] + X[:, 1], X[:, 0] - X[:, 1]
    a, b = space.unit_ball_norming(plus), space.unit_ball_norming(minus)
    return (space.norm(plus) + space.norm(minus)) / 2, np.stack([a + b, a - b], axis=1) / 2


def _max_value(t: VectorTuple, cfg: OptimConfig) -> NormValue:
    """The maximum multi-norm, the projective tensor norm on l^inf_n (x) E.

    Over R, (s, t) -> ((s + t)/2, (s - t)/2) maps l^inf_2 onto l^1_2
    isometrically, so on a real 2-tuple the tensor norm is the l^1_2 one:
    ||(x1, x2)||^max = (||x1 + x2|| + ||x1 - x2||) / 2.  The functionals
    ((a + b)/2, (a - b)/2), with a and b norming x1 + x2 and x1 - x2,
    attain it and have mu_1 = max(||a||, ||b||) <= 1.  Other tuples take
    the (1,1) value: a disjointly supported tuple its closed form
    ||(||x_j||)_j||_r (method disjoint_closed_form, as no search runs),
    the rest the (1,1) search from below (the ascent where mu_1 is exact,
    the Holder alternation, whose first step reaches ||V_j |x_j| ||,
    elsewhere) and the root averages from above, exact where the (1,1)
    value is.
    """
    space = t.space
    X = t.columns
    if t.n == 2 and not space.is_complex:
        val, L = _real_pair_max(space, X)
        return NormValue.exact(val, {"functionals": L}, "real_pair_closed_form")
    inner = _pq_value(MultiNormSpec.pq_spec(1, 1), t, cfg)
    method = _MAX_METHODS[inner.method]
    if inner.kind == "exact":
        return NormValue.exact(inner.upper, inner.witness, method)
    lower = max(inner.lower, float(space.norm_cols(X).max()))
    return NormValue.bracket(min(lower, inner.upper), inner.upper, inner.witness, method)


# the maximum multi-norm's method for each method of its (1,1) value
_MAX_METHODS = {
    "disjoint_closed_form": "disjoint_closed_form",
    "pq_ball_ascent": "pq11_ascent_roots_upper",
    "pq_holder_alternation": "pq11_holder_alternation_roots_upper",
}


def _standard_q_search(t: VectorTuple, q: float, cfg: OptimConfig) -> NormValue:
    """Lower bound past the enumeration budget: rounds of one-row moves from every start at once, each row's moves scored in one kernel call."""
    space = t.space
    X = t.columns
    m, n = X.shape
    contrib = space.w[:, None] * np.abs(X) ** space.p

    def round_of_moves(A):
        # row k takes, in move order, each move clearing the running best by 1e-15
        A, val = A.copy(), _standard_q_values(space, contrib, A, q)
        for k in range(m):
            moves = np.repeat(A[:, None], n, axis=1)
            moves[..., k] = np.arange(n)
            v = _standard_q_values(space, contrib, moves.reshape(-1, m), q).reshape(-1, n)
            for j in range(n):
                up = v[:, j] > val + 1e-15
                val[up], A[up, k] = v[up, j], j
        return A, val

    starts = np.concatenate([np.abs(X).argmax(axis=1)[None], cfg.stream("standard_q.starts").integers(0, n, size=(min(cfg.restarts, 16), m))])
    # an improving round raises the value strictly, so at most n^m rounds run
    best, assign = polish(round_of_moves, starts, _standard_q_values(space, contrib, starts, q), n**m, 1e-15)
    return NormValue.lower_bound(best, {"assignment": assign}, "partition_local_search")


def _hilbert_value(t: VectorTuple, cfg: OptimConfig) -> NormValue:
    space = t.space
    X = t.columns
    n = X.shape[1]
    Xt = np.sqrt(space.w)[:, None] * X

    def nuclear(alphas):
        return np.linalg.svd(Xt * alphas[:, None, :], compute_uv=False).sum(axis=-1)

    def normalized(alphas):
        na = lp_norm(alphas, 2)
        return alphas / np.where(na == 0, 1.0, na)[:, None], na == 0

    def alternate(alphas):
        U, _, Vh = np.linalg.svd(Xt * alphas[:, None, :], full_matrices=False)
        c = np.einsum("...ki,ki->...i", np.conj(U @ Vh), Xt)
        new, stuck = normalized(np.conj(c))
        return new, np.where(stuck, np.nan, nuclear(new))

    dt = complex if space.is_complex else float
    seeds = [np.ones(n, dtype=dt) / math.sqrt(n)]
    col = space.norm_cols(X)
    if col.max() > 0:
        seeds.append((col / lp_norm(col, 2)).astype(dt))
    seeds += list(np.eye(n, dtype=dt)[: min(n, 4)])
    seeds += list(gaussian_starts(cfg, "hilbert.starts", (n,), space.is_complex))
    alphas, zero = normalized(np.array(seeds, dtype=dt))
    best, alpha = polish(alternate, alphas, np.where(zero, np.nan, nuclear(alphas)), 80, 1e-14)
    if not best > 0:
        best, alpha = 0.0, None
    upper = _pq_upper(space, X, 2, cfg)
    if meets(best, upper):
        return NormValue.exact(upper, {"alpha": alpha}, "nuclear_alt_ascent")
    return NormValue.bracket(min(best, upper), upper, {"alpha": alpha}, "nuclear_alt_ascent")


def _dual_spec(base: MultiNormSpec) -> MultiNormSpec | None:
    """The variant whose value on lambda's space is the numerical dual of base (the norm dual to it under sum_j <x_j, lambda_j>), or None.

    min <-> lp_sum(1) and lp_sum(p) <-> lp_sum(p') by Holder on the column
    norms; lattice <-> dual_lattice, as |sum_j <x_j, lambda_j>| <=
    <V_j |x_j|, sum_j |lambda_j|> in the Banach lattice, with equality at
    x_j = u conj(phase(lambda_j)); max -> weak_summing(1), since the dual
    of the projective norm on l^inf_n (x)_pi E is the injective norm on
    l^1_n (x)_eps E', which is mu_{1,n} (Defant-Floret, Tensor Norms and
    Operator Ideals, 1993); numerical_dual(B) -> B, a finite-dimensional
    norm being its own bidual.
    """
    v = base.variant
    if v == "numerical_dual":
        return base.base
    if v == "lp_sum":
        return MultiNormSpec.min_spec() if base.p == 1 else MultiNormSpec.lp_sum(conjugate_index(base.p))
    return {"min": MultiNormSpec.lp_sum(1), "lattice": MultiNormSpec.dual_lattice(), "dual_lattice": MultiNormSpec.lattice(), "max": MultiNormSpec.weak_summing(1)}.get(v)


def _source_scale(spec: MultiNormSpec, space: SpaceSpec, cfg: OptimConfig):
    """(scale, heuristic): scale maps a stack of tuples to their norms, exact or certified from above.

    A width with an exact path gives the norm; otherwise each tuple's upper
    bound (for pq, max and hilbert _search_upper's, which runs no search),
    or its lower bound where it has none, which sets heuristic[0].
    mb_norm, mb_tuple_norm and the numerical dual's climb share it.
    """
    heuristic = [False]
    exact_at = functools.cache(lambda n: exact_evaluator(spec, space, n, cfg))

    def scale(C):
        fast = exact_at(C.shape[-1])
        if fast is not None:
            return fast(C)
        if spec.variant in ("pq", "max", "hilbert"):
            return np.array([_search_upper(spec, space, cols, cfg) for cols in C])
        res = [evaluate(spec, VectorTuple(cols, space), cfg) for cols in C]
        heuristic[0] = heuristic[0] or any(r.upper == INF for r in res)
        return np.array([r.lower if r.upper == INF else r.upper for r in res])

    return scale, heuristic


def _numerical_dual_value(spec: MultiNormSpec, t: VectorTuple, cfg: OptimConfig) -> NormValue:
    """The numerical dual sup{ |sum_j <x_j, lambda_j>| : N(x) <= 1 } of the base N at the tuple lambda = t.

    A base in _dual_spec's table returns its dual variant's own result on
    lambda's space, method duality_table: exact where that variant is, a
    bracket for complex mu_1 past its budget.  Other bases climb
    (_numerical_dual_climb).
    """
    dual = _dual_spec(spec.base)
    if dual is None:
        return _numerical_dual_climb(spec, t, cfg)
    return replace(evaluate(dual, t, cfg), method="duality_table")


def _numerical_dual_climb(spec: MultiNormSpec, t: VectorTuple, cfg: OptimConfig) -> NormValue:
    """Certified lower bound on the numerical dual of spec.base at t, climbing over the base's unit sphere.

    Membership is _source_scale's (at most 4 restarts per search): an exact
    value or a certified upper bound, so every climbed point is feasible.
    Every multi-norm is >= max_j ||x_j||, so sum_j ||lambda_j|| is a
    ceiling for every base; for B or extended(B, ops) with B in
    _dual_spec's table (extended >= B), so is the upper bound of B's dual.
    A seed that meets the smaller makes the result exact.  Where a
    membership value had no finite upper bound, the result is kind lower
    with method suffix _heuristic_membership, as mb_norm's
    _heuristic_source_norm.  The first seed (the norming functional of
    sum_j |lambda_j| with lambda's conjugate phases) attains the lattice
    dual, and the first slot-norming seed the min dual.
    """
    dual_space = t.space
    primal = dual_space.dual()
    base = spec.base
    L = t.columns
    m, n = L.shape
    membership, heuristic = _source_scale(base, primal, replace(cfg, restarts=min(cfg.restarts, 4)))
    ceiling = size = lp_norm(dual_space.norm_cols(L), 1)
    while base.variant == "extended":
        base = base.base
    if (tabled := _dual_spec(base)) is not None:
        ceiling = min(ceiling, evaluate(tabled, t, cfg).upper)

    # the climb sees lambda / sum_j ||lambda_j||, so the ascent's absolute 1e-15 acceptance term is the same at every scale
    unit = size or 1.0

    def objective(Xs):
        return _pairings(primal, Xs, L / unit).sum(axis=-1)

    absL = np.abs(L)
    first = (dual_space.unit_ball_norming(absL.sum(axis=1))[:, None] * phase(np.conj(L))).astype(complex if primal.is_complex else float)
    # the first seed, kept on each coordinate's largest slot only
    masked = np.where(np.arange(n) == absL.argmax(axis=1)[:, None], first, 0.0)
    seeds = [first, masked, *_slot_norming_seeds(dual_space, L)]

    res = ball_linear_max(membership, objective, (m, n), cfg, seeds=seeds, complex_field=primal.is_complex, ceiling=ceiling / unit)
    method = "numerical_dual_ascent" + ("_heuristic_membership" if heuristic[0] else "")
    if not heuristic[0] and meets(res.lower, ceiling / unit):
        return NormValue.exact(ceiling, res.witness, method)
    return NormValue.lower_bound(res.lower * unit, res.witness, method)


# ---------------------------------------------------------------------------
# public evaluate


def evaluate(spec: MultiNormSpec, t: VectorTuple, cfg: OptimConfig | None = None) -> NormValue:
    """Evaluate the multi-norm described by spec on the tuple t."""
    cfg = cfg or OptimConfig()
    space = t.space
    X = t.columns
    v = spec.variant

    fast = exact_evaluator(spec, space, X.shape[1], cfg)  # validates spec against the space
    if v == "numerical_dual":
        return _numerical_dual_value(spec, t, cfg)
    if fast is not None and v == "standard_q" and spec.q != space.p:
        value, assign = _standard_q_enum(space, X, spec.q)
        return NormValue.exact(value, {"assignment": assign}, "partition_enum")
    if fast is not None:
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
    if v == "extended":
        results = [evaluate(spec.base, VectorTuple(np.asarray(T) @ X, space), cfg) for T in spec.ops]
        lower = max(r.lower for r in results)
        upper = max(r.upper for r in results)
        if all(r.kind == "exact" for r in results):
            return NormValue.exact(lower, None, "family_max")
        return NormValue("lower" if upper == INF else "bracket", lower, upper, None, "family_max")
    if v == "generated":  # no exact path: the first member past cfg.max_enum raises BudgetError
        for d in spec.family.members:
            slot_assignments(d.length, X.shape[1], cfg.max_enum)
    raise SpecError(f"unhandled variant {v!r}")


def point_evaluator(spec: MultiNormSpec, space: SpaceSpec, cfg: OptimConfig) -> Callable[[np.ndarray], Any]:
    """point_value with the evaluator resolved once per tuple width; as in evaluate, a width with no exact path takes the search path."""
    exact_at = functools.cache(lambda n: exact_evaluator(spec, space, n, cfg))

    def value(X):
        X = np.asarray(X)
        fast = exact_at(X.shape[-1])
        if fast is not None:
            return fast(X)
        lows = [evaluate(spec, VectorTuple(x, space), cfg).lower for x in X.reshape(-1, *X.shape[-2:])]
        return _as_value(np.array(lows).reshape(X.shape[:-2]))

    return value


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

    Specs with an exact path at n_max + 1 slots, the width of the padded
    and repeated tuples, are audited at tol 1e-8; search-backed specs at
    the widened 2e-2 on their certified lower bounds, flagged "heuristic".
    Each kind of draw has one stream per call (cfg.stream("axioms", kind)),
    drawn per chunk as one block with a fixed-width row per trial: n, then
    X padded to n_max columns, then n_max uniforms each for the permutation
    (their argsort), the moduli of alpha and, over C, its phases.  So a
    trial's numbers depend on (seed, trial) alone, not on trials.  The
    derived tuples of a chunk of trials are evaluated as stacks.
    """
    cfg = cfg or OptimConfig()
    validate(spec, space)
    if n_max < 2:
        raise SpecError(f"axiom audits need n_max >= 2, got {n_max}")
    chunks = _trial_chunks(trials)
    exact = is_exact_path(spec, space, n_max + 1, cfg)
    if tol is None:
        tol = 1e-8 if exact else 2e-2
    mode = "exact" if exact else "heuristic"
    dual = spec.is_dual_multinorm()
    last_axiom = "B4" if dual else "A4"
    checked = ["A1", "A2", "A3", last_axiom]

    violations: list[AxiomViolation] = []
    m = space.dim
    counts, normals, uniforms = (cfg.stream("axioms", kind) for kind in (COUNTS, NORMALS, UNIFORMS))
    for chunk in chunks:
        T = len(chunk)
        ns = counts.integers(2, n_max + 1, size=T).tolist()
        Xs = field_normal_block(normals, T, (m, n_max), space.is_complex)
        U = uniforms.random((T, 3 if space.is_complex else 2, n_max))
        alphas = 2.0 * U[:, 1]
        if space.is_complex:
            alphas = alphas * np.exp(2j * np.pi * U[:, 2])
        drawn, tuples = [], []
        for n, X, u, alpha in zip(ns, Xs, U, alphas):
            X, perm, alpha = X[:, :n], np.argsort(u[0, :n]), alpha[:n]
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
    if n < 1:
        raise SpecError("n must be >= 1")
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
