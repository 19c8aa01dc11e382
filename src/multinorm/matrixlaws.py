"""Norm-additive special decompositions of matrices and matrix-law audits.

A row-special matrix has at most one nonzero entry per row.  Every matrix
splits into row-special parts whose (inf -> inf) norms add up exactly to
the norm of the whole; the constructive peeling below does this in at
most m*n steps.  The dual statement holds for column-special parts in the
(1 -> 1) norm, obtained by transposing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DegenerateNormError, DimensionError, SpecError
from .multinorms import MultiNormSpec, _audit_chunks, _groups, _in_trial_order, _point_values, _stack_values
from .optim import COUNTS, NORMALS, UNIFORMS, OptimConfig, _op_norm_upper, field_normal_block
from .partitions import set_partitions
from .spaces import INF, MatrixOp, SpaceSpec, real_entries


@dataclass(frozen=True)
class SpecialDecomposition:
    parts: tuple
    norms: tuple
    kind: str  # "row_special" or "column_special"

    @property
    def total(self) -> float:
        return float(sum(self.norms))


def _row_sum_norm(A: np.ndarray) -> float:
    if A.size == 0:
        return 0.0
    return float(np.abs(A).sum(axis=1).max())


def row_special_decompose(a: MatrixOp | np.ndarray) -> SpecialDecomposition:
    """Peel row-special parts whose (inf -> inf) norms sum to ||a||.

    Per step: in each nonzero row take the entry of largest column index,
    c_i; with i0 the row minimizing |c_i| (smallest index on ties), remove
    the row-special matrix with entries (c_i/|c_i|)|c_{i0}| at those spots.
    Entries below 1e-14 * ||a|| are snapped to zero so rounding cannot
    stall the recursion.  A raw array is checked as a MatrixOp's entries
    are (2-D, else DimensionError; finite, else ValueError), and a matrix
    whose norm overflows raises DegenerateNormError.
    """
    if not isinstance(a, MatrixOp):
        a = MatrixOp(a)  # a 2-D array of finite entries, as a MatrixOp's
    if (a.in_index, a.out_index) != (INF, INF):
        raise SpecError("row-special decomposition applies to the (inf -> inf) role")
    A = np.array(a.entries)
    with np.errstate(over="ignore"):
        norm = _row_sum_norm(A)
    if norm == INF:
        raise DegenerateNormError("the (inf -> inf) norm of the matrix overflows")
    threshold = 1e-14 * max(norm, 1e-300)
    R = A.copy()
    R[np.abs(R) <= threshold] = 0
    parts: list[np.ndarray] = []
    norms: list[float] = []
    m, n = R.shape
    for _ in range(m * n + 1):
        if not np.any(np.abs(R) > 0):
            break
        cvals = np.zeros(m, dtype=R.dtype)
        jidx = np.full(m, -1)
        for i in range(m):
            nz = np.nonzero(np.abs(R[i, :]) > 0)[0]
            if nz.size:
                jidx[i] = nz[-1]
                cvals[i] = R[i, nz[-1]]
        active = np.nonzero(jidx >= 0)[0]
        i0 = active[int(np.argmin(np.abs(cvals[active])))]
        lam = float(np.abs(cvals[i0]))
        B = np.zeros_like(R)
        for i in active:
            B[i, jidx[i]] = cvals[i] / abs(cvals[i]) * lam
        R = R - B
        R[np.abs(R) <= threshold] = 0
        parts.append(B)
        norms.append(lam)
    return SpecialDecomposition(tuple(parts), tuple(norms), "row_special")


def column_special_decompose(a: MatrixOp | np.ndarray) -> SpecialDecomposition:
    """Column-special parts whose (1 -> 1) norms sum to ||a||; transpose route."""
    if not isinstance(a, MatrixOp):
        a = MatrixOp(a, 1, 1)  # a 2-D array of finite entries, as a MatrixOp's
    if (a.in_index, a.out_index) != (1, 1):
        raise SpecError("column-special decomposition applies to the (1 -> 1) role")
    dec = row_special_decompose(a.entries.T)
    return SpecialDecomposition(tuple(B.T for B in dec.parts), dec.norms, "column_special")


def is_row_special(B: np.ndarray) -> bool:
    return bool(((np.abs(B) > 0).sum(axis=1) <= 1).all())


def is_column_special(B: np.ndarray) -> bool:
    return bool(((np.abs(B) > 0).sum(axis=0) <= 1).all())


@dataclass(frozen=True)
class LawViolation:
    lhs: float
    bound: float
    matrix: Any
    tuple_columns: Any

    @property
    def gap(self) -> float:
        return self.lhs - self.bound


@dataclass
class MatrixLawReport:
    p_role: float
    trials: int
    tol: float
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _padded_draws(entries: np.ndarray, sizes: np.ndarray, coins: np.ndarray, complex_field: bool) -> np.ndarray:
    """The (T, 4, 4) stack of drawn law matrices: trial t's m x n matrix, (n, m) = sizes[t], zero-padded in the top-left corner.

    entries is the (T, 2, 4, 4) block of real and imaginary parts; over C
    the stack is complex, and a trial whose coin is False keeps its real
    part alone (plus 0j, whose moduli are the real part's bit for bit).
    """
    A = np.where(coins[:, None, None], entries[:, 0] + 1j * entries[:, 1], entries[:, 0]) if complex_field else entries[:, 0]
    inside = (np.arange(4)[:, None] < sizes[:, 1, None, None]) & (np.arange(4) < sizes[:, 0, None, None])
    return np.where(inside, A, 0.0)


def check_multinorm_matrix_law(
    spec: MultiNormSpec,
    space: SpaceSpec,
    p_role: float,
    trials: int = 1000,
    cfg: OptimConfig | None = None,
    tol: float = 1e-9,
    fixed_matrices: list | None = None,
) -> MatrixLawReport:
    """Sample the contraction law ||a.x||_m <= ||a : l^p -> l^p|| ||x||_n.

    p_role = inf certifies the multi-norm law, p_role = 1 the dual law,
    general p the type-p law.  For roles without a closed form the matrix
    norm is replaced by its certified upper bound (optim._op_norm_upper),
    so every reported violation is genuine.  The first len(fixed_matrices)
    trials use those matrices in place of random ones.

    Each kind of draw has one stream per call (cfg.stream("matrix_law",
    kind)), drawn per chunk as one block with a fixed-width row per trial:
    the sizes (n, m) in 1..4, X padded to max(4, widest fixed matrix)
    columns, and 33 uniforms (the real and imaginary parts of a padded 4x4
    matrix, then the coin that makes it complex).  A chunk's trials are
    grouped by (n, m, coin), each fixed matrix alone; each group's X A^T is
    one stacked matmul, with one point_value call per tuple (width, dtype).
    The drawn matrices' norms take one call per chunk on their (T, 4, 4)
    stack, each matrix zero-padded in the top-left corner (complex over C),
    except at p_role = 2, which keeps one call per (shape, dtype); each
    fixed matrix takes a call of its own.  A zero-size fixed matrix raises
    DimensionError.
    """
    cfg = cfg or OptimConfig()
    chunks = _audit_chunks(trials, tol)
    violations: list[LawViolation] = []
    mdim = space.dim
    fixed = [np.asarray(M) for M in (fixed_matrices or [])]
    fixed = [A.astype(complex) if space.is_complex and np.iscomplexobj(A) else real_entries(A).astype(float) for A in fixed]
    for A in fixed or [np.zeros((1, 1))]:
        MatrixOp(A, p_role, p_role)  # the role, shape and finiteness checks, once per matrix
        if A.size == 0:
            raise DimensionError(f"a fixed matrix of shape {A.shape} has no entries")

    norms = lambda S: _op_norm_upper(S, p_role, p_role, cfg, np.iscomplexobj(S))[0]
    counts, normals, uniforms = (cfg.stream("matrix_law", kind) for kind in (COUNTS, NORMALS, UNIFORMS))
    width = max([4] + [A.shape[1] for A in fixed])
    for chunk in chunks:
        T = len(chunk)
        sizes = counts.integers(1, 5, size=(T, 2))
        Xs = field_normal_block(normals, T, (mdim, width), space.is_complex)
        U = uniforms.random((T, 33))
        entries = 2.0 * U[:, :32].reshape(T, 2, 4, 4) - 1.0
        coins = space.is_complex & (U[:, 32] < 0.5)
        # a fixed matrix's trial is a group of its own; the others group by (n, m, complex coin)
        codes = np.where(np.arange(chunk.start, chunk.stop) < len(fixed), -1 - np.arange(T), 8 * sizes[:, 0] + 2 * sizes[:, 1] + coins)
        groups, mats, tuples = _groups(codes), [], []
        owner, row = np.empty(T, dtype=int), np.empty(T, dtype=int)
        for g, (code, idx) in enumerate(groups):
            if code < 0:
                A = fixed[chunk.start + idx[0]][None]
            else:
                n, m = sizes[idx[0]].tolist()
                A = entries[idx, 0, :m, :n] + 1j * entries[idx, 1, :m, :n] if coins[idx[0]] else entries[idx, 0, :m, :n]
            owner[idx], row[idx] = g, np.arange(len(idx))
            mats.append(A)
            tuples.append(Xs[idx, :, : A.shape[-1]])
        vals = _point_values(spec, space, [X @ np.swapaxes(A, -1, -2) for A, X in zip(mats, tuples)] + tuples, cfg)
        lhs, rhs = _in_trial_order(groups, vals[: len(groups)]), _in_trial_order(groups, vals[len(groups) :])
        if p_role == 2:
            # LAPACK's singular values of a zero-padded matrix differ from the matrix's own in the last bits
            anorm = _in_trial_order(groups, _stack_values(norms, mats))
        else:
            # the other rules sum or max at most 4 moduli in order, so the padding zeros keep every bit
            anorm, drawn = np.empty(T), codes >= 0
            if drawn.any():
                anorm[drawn] = norms(_padded_draws(entries[drawn], sizes[drawn], coins[drawn], space.is_complex))
            for (code, idx), A in zip(groups, mats):
                if code < 0:
                    anorm[idx] = norms(A)
        bound = anorm * rhs
        for i in np.flatnonzero(lhs > bound + tol * np.maximum(1.0, bound)).tolist():
            g, r = owner[i], row[i]
            violations.append(LawViolation(float(lhs[i]), float(bound[i]), mats[g][r], tuples[g][r]))
    return MatrixLawReport(p_role, trials, tol, violations)


def check_coagulation_contraction(
    spec: MultiNormSpec,
    space: SpaceSpec,
    trials: int = 200,
    cfg: OptimConfig | None = None,
    tol: float = 1e-9,
) -> MatrixLawReport:
    """For dual multi-norms: summing blocks of a tuple never increases it.

    Trial t draws n in 2..4, X padded to 4 columns and one uniform that
    picks the set partition, each kind from its own cfg.stream("coagulation",
    kind) in one block per chunk.  A chunk's trials are grouped by (n, set
    partition), with one point_value call per (width, dtype).
    """
    cfg = cfg or OptimConfig()
    chunks = _audit_chunks(trials, tol)
    violations: list[LawViolation] = []
    m = space.dim
    partitions = [list(set_partitions(n)) for n in range(5)]
    counts, normals, uniforms = (cfg.stream("coagulation", kind) for kind in (COUNTS, NORMALS, UNIFORMS))
    for chunk in chunks:
        T = len(chunk)
        ns = counts.integers(2, 5, size=T)
        Xs = field_normal_block(normals, T, (m, 4), space.is_complex)
        picks = (uniforms.random(T) * [len(partitions[n]) for n in ns.tolist()]).astype(int)
        groups = _groups(16 * ns + picks)  # a set of at most 4 slots has 15 partitions
        tuples = [Xs[idx, :, : code // 16] for code, idx in groups]
        blocks = [partitions[code // 16][code % 16] for code, _ in groups]
        stacks = [np.stack([X[:, :, b].sum(axis=-1) for b in bl], axis=-1) for X, bl in zip(tuples, blocks)]
        vals = _point_values(spec, space, stacks + tuples, cfg)
        lhs, rhs = _in_trial_order(groups, vals[: len(groups)]), _in_trial_order(groups, vals[len(groups) :])
        for i in np.flatnonzero(lhs > rhs + tol * np.maximum(1.0, rhs)).tolist():
            n = int(ns[i])
            violations.append(LawViolation(float(lhs[i]), float(rhs[i]), partitions[n][picks[i]], Xs[i, :, :n]))
    return MatrixLawReport(1.0, trials, tol, violations)
