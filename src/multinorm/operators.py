"""Amplifications, multi-bounds, and multi-bounded operator norms.

The multi-bounded norm of T between two multi-normed structures is the
supremum over n of p_n(T) = ||T^(n)|| computed tuple-wise.  At finite
horizon we report the truncated sequence with lower-bound certificates
and exact fast paths where the theory collapses the supremum.

Multi-continuity (multi-null sequences map to multi-null sequences) is
equivalent to multi-boundedness, and at a finite horizon it is implied by
the p_n bounds computed here, so no separate continuity checker exists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SpecError
from .multinorms import MultiNormSpec, evaluate, exact_evaluator, point_evaluator
from .optim import INF, NormValue, OptimConfig, seeded_ascent, unconstrained
from .spaces import MatrixOp, SpaceSpec, VectorTuple, delta_tuple
from .summing import _scaled_score, op_norm_between


def amplify(T, t: VectorTuple, target: SpaceSpec) -> VectorTuple:
    """Apply T to every entry of the tuple: (Tx_1, ..., Tx_n)."""
    T = np.asarray(T.entries if isinstance(T, MatrixOp) else T)
    if T.shape[1] != t.space.dim or T.shape[0] != target.dim:
        raise DimensionError("operator shape incompatible with source/target spaces")
    return VectorTuple(T @ t.columns, target)


def multi_bound(spec: MultiNormSpec, pool: VectorTuple, cfg: OptimConfig | None = None) -> NormValue:
    """Multi-bound c_B of a finite set, via the norm of the full tuple."""
    return evaluate(spec, pool, cfg or OptimConfig())


@dataclass
class MBNormResult:
    p_seq: list[float]
    sup_estimate: NormValue
    monotone: bool
    n_max: int

    def to_json(self) -> dict:
        return {
            "p_seq": self.p_seq,
            "sup_estimate": self.sup_estimate.to_json(),
            "monotone": self.monotone,
            "n_max": self.n_max,
        }


_DELTA_TUPLES_CAP = 2048  # most tuples of distinct basis vectors _delta_tuples lists


def _delta_tuples(dim: int, n: int, is_complex: bool):
    """Tuples of distinct standard basis vectors, exhaustive under _DELTA_TUPLES_CAP."""
    from itertools import permutations

    dt = complex if is_complex else float
    total = 1
    for i in range(dim, dim - min(n, dim), -1):
        total *= i
    out = []
    if n <= dim and total <= _DELTA_TUPLES_CAP:
        for idx in permutations(range(dim), n):
            cols = np.zeros((dim, n), dtype=dt)
            for j, k in enumerate(idx):
                cols[k, j] = 1.0
            out.append(cols)
    else:
        out.append(delta_tuple(dim, n, is_complex))
    return out


def _source_scale(spec: MultiNormSpec, space: SpaceSpec, cfg: OptimConfig):
    """(scale, heuristic): scale maps a stack of tuples to their source norms.

    A width with an exact path gives the norm; otherwise each tuple's upper
    bound, or its lower bound where it has none, which sets heuristic[0].
    """
    heuristic = [False]
    exact_at = functools.cache(lambda n: exact_evaluator(spec, space, n, cfg))

    def scale(C):
        fast = exact_at(C.shape[-1])
        if fast is not None:
            return fast(C)
        res = [evaluate(spec, VectorTuple(cols, space), cfg) for cols in C]
        heuristic[0] = heuristic[0] or any(r.upper == INF for r in res)
        return np.array([r.lower if r.upper == INF else r.upper for r in res])

    return scale, heuristic


def mb_norm(
    T: np.ndarray,
    source: SpaceSpec,
    spec_source: MultiNormSpec,
    target: SpaceSpec,
    spec_target: MultiNormSpec,
    n_max: int,
    cfg: OptimConfig | None = None,
) -> MBNormResult:
    """Lower bounds for p_n(T) = sup{ ||T^(n)x||_target : ||x||_source <= 1 }.

    Fast path: when the target carries the minimum multi-norm or the source
    the maximum one, every p_n equals the operator norm ||T||.  Otherwise
    each level is an ascent over normalized tuples, seeded with delta
    tuples and the previous level's witness (repeated last entry), which
    keeps the reported sequence nondecreasing.  Upper bound n*||T|| per
    level; levels are marked exact when the two sides meet.
    """
    cfg = cfg or OptimConfig()
    T = np.asarray(T)
    opn = op_norm_between(T, source, target, cfg)

    if spec_target.variant == "min" or spec_source.variant == "max":
        p_seq = [opn.lower] * n_max
        sup = NormValue(opn.kind, opn.lower, opn.upper, opn.witness, "collapsed_to_operator_norm")
        return MBNormResult(p_seq, sup, True, n_max)

    src_scale, heuristic_scale = _source_scale(spec_source, source, cfg)
    score = _scaled_score(src_scale, lambda C, s: T @ C / s, point_evaluator(spec_target, target, cfg))

    p_seq: list[float] = []
    prev_witness = None
    all_exact = True
    best_witness = None
    for n in range(1, n_max + 1):
        seeds = _delta_tuples(source.dim, n, source.is_complex)
        if prev_witness is not None:
            seeds.append(np.concatenate([prev_witness, prev_witness[:, -1:]], axis=1))
        val, cols = seeded_ascent(unconstrained, score, seeds, (source.dim, n), cfg, source.is_complex)
        upper_n = n * (opn.lower if opn.kind == "exact" else opn.upper)
        val = max(val, p_seq[-1] if p_seq else 0.0)
        if abs(val - upper_n) <= 1e-9 * max(1.0, upper_n) and opn.kind == "exact":
            p_seq.append(upper_n)
        else:
            p_seq.append(min(val, upper_n))
            all_exact = False
        prev_witness = cols
        best_witness = {"tuple": cols}

    sup_val = max(p_seq)
    certified_exact = all_exact and not heuristic_scale[0]
    method = f"truncated_at_n={n_max}" + ("_heuristic_source_norm" if heuristic_scale[0] else "")
    sup = NormValue("exact" if certified_exact else "lower", sup_val, sup_val if certified_exact else INF, best_witness, method)
    monotone = all(p_seq[i] <= p_seq[i + 1] + 1e-12 for i in range(len(p_seq) - 1))
    return MBNormResult(p_seq, sup, monotone, n_max)


def mb_tuple_norm(
    Ts: list,
    source: SpaceSpec,
    spec_source: MultiNormSpec,
    target: SpaceSpec,
    spec_target: MultiNormSpec,
    k_max: int,
    cfg: OptimConfig | None = None,
) -> NormValue:
    """Lower bound for the multi-bounded norm of an operator tuple.

    sup over k <= k_max and ||(x_1..x_k)||_source <= 1 of the target norm
    of the nk-tuple (T_i x_j).  With the minimum multi-norm on the target
    this collapses to max_i ||T_i|| exactly.
    """
    cfg = cfg or OptimConfig()
    Ts = [np.asarray(T) for T in Ts]
    if not Ts:
        raise SpecError("need at least one operator")

    if spec_target.variant == "min":
        vals = [op_norm_between(T, source, target, cfg) for T in Ts]
        best = max(vals, key=lambda r: r.lower)
        kind = "exact" if all(v.kind == "exact" for v in vals) else "lower"
        return NormValue(kind, best.lower, best.lower if kind == "exact" else INF, best.witness, "target_min_collapse")

    src_scale, _ = _source_scale(spec_source, source, cfg)
    score = _scaled_score(
        src_scale,
        lambda C, s: np.concatenate([T @ C / s for T in Ts], axis=-1),
        point_evaluator(spec_target, target, cfg),
    )

    best_val, best_witness = 0.0, None
    for k in range(1, k_max + 1):
        seeds = _delta_tuples(source.dim, k, source.is_complex)
        val, cols = seeded_ascent(unconstrained, score, seeds, (source.dim, k), cfg, source.is_complex)
        if val > best_val:
            best_val, best_witness = val, {"tuple": cols, "k": k}
    return NormValue.lower_bound(best_val, best_witness, f"tuple_ascent_k<={k_max}")


def partition_permutation_bound(blocks: list, sigma: list, p: float) -> tuple[int, float]:
    """m_sigma and the bound m_sigma^(1/p) for a coordinate permutation.

    m_sigma = max over blocks P of the number of blocks Q whose image
    under sigma meets P; it equals the multi-bounded norm of the
    permutation operator f -> f o sigma under the partition multi-norm,
    raised to the p-th power.
    """
    ground = sorted(i for b in blocks for i in b)
    if ground != list(range(len(ground))):
        raise SpecError("blocks must partition 0..m-1")
    sigma = [int(s) for s in sigma]
    if sorted(sigma) != list(range(len(ground))):
        raise SpecError("sigma must be a permutation of 0..m-1")
    m_sigma = 0
    for P in blocks:
        pset = set(P)
        count = 0
        for Q in blocks:
            if any(sigma[q] in pset for q in Q):
                count += 1
        m_sigma = max(m_sigma, count)
    bound = float(m_sigma) ** (1.0 / p) if p != INF else 1.0
    return m_sigma, bound
