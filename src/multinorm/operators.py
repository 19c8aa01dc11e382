"""Amplifications, multi-bounds, and multi-bounded operator norms.

The multi-bounded norm of T between two multi-normed structures is the
supremum over n of p_n(T) = ||T^(n)|| computed tuple-wise.  At finite
horizon we report the truncated sequence with lower-bound certificates
and exact fast paths where the theory collapses the supremum.  Each level
is capped by n*||T|| (when ||T|| is exact) and by a bound that holds for
every n where one is proved (lattice -> lattice, or a coordinate
permutation between equal partition multi-norms); a level whose seed
meets its cap is exact and runs no ascent.

From the minimum multi-norm into a lattice one on l^r(w) each level has a
closed form (summing._row_partition_levels): p_n(T)^r is the max over
partitions of the rows of T into at most n groups G of
sum_G ||P_G T : E -> l^r(G, w)||^r.  It is at most that, since grouping
row k by the j that attains max_j |(T x_j)_k| bounds the lattice norm by
the sum over groups; and at least that, since x_j norming P_{G_j} T gives
row k of G_j at least its term.  At r = inf every p_n is ||T||.  For an
operator tuple the row groups also choose, row by row, which operator
the row comes from.  These levels run no ascent: each is its witness,
valued by the level's own score and certified against its bound (a
bracket where a dense slice has no exact norm, whose lower side is then
the power iteration's).  They are homogeneous in T, so T is first scaled
by a power of two to a largest entry in [0.5, 1), which keeps the r-th
powers of large and tiny entries in range.

Multi-continuity (multi-null sequences map to multi-null sequences) is
equivalent to multi-boundedness, and at a finite horizon it is implied by
the p_n bounds computed here, so no separate continuity checker exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, SpecError
from .multinorms import MultiNormSpec, _source_scale, evaluate, point_evaluator
from .optim import INF, NormValue, OptimConfig, meets, seeded_ascent, unconstrained
from .spaces import MatrixOp, SpaceSpec, VectorTuple, binary_exponent, delta_tuple, pow2_scaled, real_entries
from .summing import _row_partition_levels, _scaled_score, _unscaled, op_norm_between


def amplify(T, t: VectorTuple, target: SpaceSpec) -> VectorTuple:
    """Apply T to every entry of the tuple: (Tx_1, ..., Tx_n); a genuinely complex T into a real target raises FieldError."""
    T = _operator(T.entries if isinstance(T, MatrixOp) else T, t.space, target)
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


def _operator(T, source: SpaceSpec, target: SpaceSpec) -> np.ndarray:
    """T as a (target.dim, source.dim) array, else DimensionError; a real target takes real_entries(T), so genuinely complex entries raise FieldError there."""
    T = np.asarray(T)
    if T.shape != (target.dim, source.dim):
        raise DimensionError("operator shape incompatible with source/target spaces")
    return T if target.is_complex else real_entries(T)


def _permutation(T: np.ndarray) -> list[int] | None:
    """sigma with T[k, sigma[k]] = 1 where the square T is a 0/1 permutation matrix, i.e. (T f)(k) = f(sigma(k)); else None."""
    if not np.all((T == 0) | (T == 1)) or np.any(T.sum(axis=0) != 1) or np.any(T.sum(axis=1) != 1):
        return None
    return [int(k) for k in (T == 1).argmax(axis=1)]


def _uniform_bound(T, source, spec_source, target, spec_target, cfg) -> float:
    """A certified U with p_n(T) <= U for every n, or INF where none is proved.

    lattice -> lattice: |T x_j| <= |T| (max_k |x_k|) entrywise, and both
    lattice norms are monotone, so U = || |T| : source -> target ||
    (weighted or complex spaces alike).  partition -> partition: see
    partition_permutation_bound for when it applies.
    """
    if spec_source.variant == spec_target.variant == "lattice":
        return op_norm_between(np.abs(T), source, target, cfg).upper
    if spec_source.variant == spec_target.variant == "partition" and spec_source.blocks == spec_target.blocks and source == target:
        sigma = _permutation(T)
        if sigma is not None and np.array_equal(source.w[sigma], source.w):
            return partition_permutation_bound(spec_source.blocks, sigma, source.p)[1]
    return INF


def _min_to_lattice(spec_source: MultiNormSpec, spec_target: MultiNormSpec) -> bool:
    """Whether the levels have summing._row_partition_levels' closed form: the minimum multi-norm into a lattice one."""
    return spec_source.variant == "min" and spec_target.variant == "lattice"


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
    the maximum one, every p_n equals the operator norm ||T||.  From the
    minimum multi-norm into a lattice one, each level is the row-partition
    closed form below.  Otherwise each level is an ascent over normalized
    tuples, seeded with delta tuples and the previous level's witness
    (repeated last entry).  Each level keeps the largest value so far, so
    the reported sequence is nondecreasing.

    Each level's cap is the smaller of n*||T|| (where ||T|| is exact) and
    U, a certified bound on every p_n (_uniform_bound): || |T| || for
    lattice -> lattice, partition_permutation_bound for a permutation
    between equal partition multi-norms, else none.  From the minimum
    multi-norm into a lattice one on l^r(w) the level's row-partition
    bound lowers the cap: p_n^r is the max over partitions of the rows
    into at most n groups G of sum_G ||P_G T||^r (grouping row k by the j
    that attains max_j |(T x_j)_k| gives <=, x_j norming P_{G_j} T gives
    >=; ||T|| at r = inf).  There the level is its witness, valued by the
    level's own score; no seed is valued and nothing climbs, and where
    the witness meets the cap the level is exact at the cap.  The closed
    form is taken for 2^-e T, its largest entry in [0.5, 1), and the
    levels are scaled back by 2^e (every p_n is homogeneous in T).  Past
    cfg.max_enum, or for a complex T on a real source, the levels climb
    as elsewhere.  A level whose best seed meets its cap is exact at the
    cap and runs no ascent; any other level climbs.  Once a level meets
    U, its padded witness meets U at every later level.  sup_estimate is
    then exact at U, the multi-bounded norm over all n (method
    meets_uniform_bound_at_n=k).  Otherwise it is exact when every level
    met n*||T|| or U (a level that met only its row-partition bound does
    not count), a bracket [max p_n, U] when U is finite, and a lower bound
    else (method truncated_at_n=n_max).  A genuinely complex
    T raises FieldError on a real target, and on a real source through
    op_norm_between (the real-input norm of a complex matrix is not searched).
    """
    cfg = cfg or OptimConfig()
    if n_max < 1:
        raise SpecError("n must be >= 1")
    T = _operator(T, source, target)
    closed_form = _min_to_lattice(spec_source, spec_target)
    e = binary_exponent(T) if closed_form else 0
    if e:
        # every p_n is homogeneous in T: the levels of 2^-e T, whose largest entry lies in [0.5, 1), scaled back
        res = mb_norm(pow2_scaled(T, -e), source, spec_source, target, spec_target, n_max, cfg)
        return replace(res, p_seq=[_unscaled(v, e) for v in res.p_seq], sup_estimate=_unscaled_value(res.sup_estimate, e))
    opn = op_norm_between(T, source, target, cfg)

    if spec_target.variant == "min" or spec_source.variant == "max":
        p_seq = [opn.lower] * n_max
        return MBNormResult(p_seq, replace(opn, method="collapsed_to_operator_norm"), True, n_max)

    src_scale = _source_scale(spec_source, source, cfg)
    score = _scaled_score(src_scale, lambda C, s: T @ C / s, point_evaluator(spec_target, target, cfg))
    U = _uniform_bound(T, source, spec_source, target, spec_target, cfg)
    closed = _row_partition_levels([T], source, target, n_max, cfg) if closed_form else None

    p_seq: list[float] = []
    prev_witness = None
    all_exact = True
    met_at = None
    best_witness = None
    for n in range(1, n_max + 1):
        upper_n = n * opn.upper
        cap = min(n * opn.lower if opn.kind == "exact" else INF, U)
        level_cap = cap
        if closed is not None:
            cols, bound = closed[n - 1]
            upper_n, level_cap, found = min(upper_n, bound), min(cap, bound), float(score(cols[None])[0])
        else:
            seeds = _delta_tuples(source.dim, n, source.is_complex)
            if prev_witness is not None:
                seeds.append(np.concatenate([prev_witness, prev_witness[:, -1:]], axis=1))
            found, cols = seeded_ascent(unconstrained, score, seeds, (source.dim, n), cfg, source.is_complex, ceiling=cap)
        val = max(found, p_seq[-1] if p_seq else 0.0)
        all_exact = all_exact and meets(val, cap)
        if meets(val, level_cap):
            p_seq.append(level_cap)
            if met_at is None and meets(val, U):
                met_at = n
        else:
            p_seq.append(min(val, upper_n))
        prev_witness = cols
        best_witness = {"tuple": cols}

    sup_val = max(p_seq)
    if met_at is not None:
        sup = NormValue.certified(sup_val, U, best_witness, f"meets_uniform_bound_at_n={met_at}")
    else:
        sup = NormValue.certified(sup_val, sup_val if all_exact else U, best_witness, f"truncated_at_n={n_max}")
    monotone = all(p_seq[i] <= p_seq[i + 1] + 1e-12 for i in range(len(p_seq) - 1))
    return MBNormResult(p_seq, sup, monotone, n_max)


def _unscaled_value(res: NormValue, e: int) -> NormValue:
    """res with both bounds multiplied by 2^e (the witness is a tuple of the source's unit ball, which scaling leaves alone)."""
    return replace(res, lower=_unscaled(res.lower, e), upper=_unscaled(res.upper, e))


def mb_tuple_norm(
    Ts: list,
    source: SpaceSpec,
    spec_source: MultiNormSpec,
    target: SpaceSpec,
    spec_target: MultiNormSpec,
    k_max: int,
    cfg: OptimConfig | None = None,
) -> NormValue:
    """The multi-bounded norm of an operator tuple, truncated at k_max.

    sup over k <= k_max and ||(x_1..x_k)||_source <= 1 of the target norm
    of the nk-tuple (T_i x_j).  With the minimum multi-norm on the target
    this collapses to max_i ||T_i||: exact where every ||T_i|| is, else
    the bracket [max lower, max upper] (method target_min_collapse).  From
    the minimum multi-norm into a lattice one on l^r(w) the value is the
    row-partition closed form at k_max groups: its r-th power is the max
    over partitions of the rows into at most k_max groups G of
    sum_G max_s ||P_G T_s||^r, T_s taking row k from T_s(k) (grouping row
    k by the (i, j) that attains max_{i,j} |(T_i x_j)_k| gives <=, x_j
    norming the best P_{G_j} T_s gives >=).  Its witness, valued by the
    score, is certified against that bound (NormValue.certified, method
    row_partition) and nothing climbs; the operators are first scaled
    jointly by a power of two, as in mb_norm.  Elsewhere, and past
    cfg.max_enum, the ascent over k = 1..k_max gives a lower bound (method
    tuple_ascent_k<=k_max).
    """
    cfg = cfg or OptimConfig()
    Ts = [_operator(T, source, target) for T in Ts]
    if not Ts:
        raise SpecError("need at least one operator")
    if k_max < 1:
        raise SpecError("n must be >= 1")

    if spec_target.variant == "min":
        vals = [op_norm_between(T, source, target, cfg) for T in Ts]
        best = max(vals, key=lambda r: r.lower)
        return NormValue.certified(best.lower, max(v.upper for v in vals), best.witness, "target_min_collapse")

    closed_form = _min_to_lattice(spec_source, spec_target)
    e = binary_exponent(np.stack(Ts)) if closed_form else 0
    if e:
        # homogeneous in the operators jointly: the value for 2^-e Ts, scaled back
        return _unscaled_value(mb_tuple_norm([pow2_scaled(T, -e) for T in Ts], source, spec_source, target, spec_target, k_max, cfg), e)

    src_scale = _source_scale(spec_source, source, cfg)
    score = _scaled_score(
        src_scale,
        lambda C, s: np.concatenate([T @ C / s for T in Ts], axis=-1),
        point_evaluator(spec_target, target, cfg),
    )
    closed = _row_partition_levels(Ts, source, target, k_max, cfg) if closed_form else None
    if closed is not None:
        cols, upper = closed[-1]
        return NormValue.certified(float(score(cols[None])[0]), upper, {"tuple": cols, "k": k_max}, "row_partition")
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
    raised to the p-th power.  The bound needs weights invariant under
    sigma (w[sigma(k)] = w[k]), so that f -> f o sigma moves block masses
    without rescaling them.  mb_norm uses it as every level's cap when T
    is a 0/1 permutation matrix (T[k, sigma(k)] = 1), source and target
    are the same space with sigma-invariant weights, and both sides carry
    the partition multi-norm of the same blocks.
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
