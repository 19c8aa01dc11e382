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

from .errors import SpecError
from .multinorms import MultiNormSpec, _point_values, _stack_values, _trial_chunks
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
    stall the recursion.
    """
    if isinstance(a, MatrixOp):
        if (a.in_index, a.out_index) != (INF, INF):
            raise SpecError("row-special decomposition applies to the (inf -> inf) role")
        A = np.array(a.entries)
    else:
        A = np.array(a)
    threshold = 1e-14 * max(_row_sum_norm(A), 1e-300)
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
    if isinstance(a, MatrixOp):
        if (a.in_index, a.out_index) != (1, 1):
            raise SpecError("column-special decomposition applies to the (1 -> 1) role")
        A = np.array(a.entries)
    else:
        A = np.array(a)
    dec = row_special_decompose(A.T)
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


def _law_norms(mats: list, p: float, cfg: OptimConfig) -> list[float]:
    """||A : l^p -> l^p|| for each matrix, in list order, one stack per (shape, dtype) group.

    optim._op_norm_upper's values: exact where _op_norm_exact has one, else the Holder upper bound.
    """

    def norms(S):
        if not np.all(np.isfinite(S)):
            raise ValueError("matrix entries must be finite")
        return _op_norm_upper(S, p, p, cfg, np.iscomplexobj(S))[0]

    return _stack_values(norms, mats)


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
    norm is replaced by its certified upper bound, so every reported
    violation is genuine.  The first len(fixed_matrices) trials use those
    matrices in place of random ones.

    Each kind of draw has one stream per call (cfg.stream("matrix_law",
    kind)), drawn per chunk as one block with a fixed-width row per trial:
    the sizes (n, m) in 1..4, X padded to max(4, widest fixed matrix)
    columns, and 33 uniforms (the real and imaginary parts of a padded 4x4
    matrix, then the coin that makes it complex).
    """
    cfg = cfg or OptimConfig()
    chunks = _trial_chunks(trials)
    violations: list[LawViolation] = []
    mdim = space.dim
    fixed = [np.asarray(M) for M in (fixed_matrices or [])]
    fixed = [A.astype(complex) if space.is_complex and np.iscomplexobj(A) else real_entries(A).astype(float) for A in fixed]
    for A in fixed or [np.zeros((1, 1))]:
        MatrixOp(A, p_role, p_role)  # the role, shape and finiteness checks, once per matrix

    counts, normals, uniforms = (cfg.stream("matrix_law", kind) for kind in (COUNTS, NORMALS, UNIFORMS))
    width = max([4] + [A.shape[1] for A in fixed])
    for chunk in chunks:
        T = len(chunk)
        sizes = counts.integers(1, 5, size=(T, 2)).tolist()
        Xs = field_normal_block(normals, T, (mdim, width), space.is_complex)
        U = uniforms.random((T, 33))
        entries = 2.0 * U[:, :32].reshape(T, 2, 4, 4) - 1.0
        drawn = []
        for trial, (n, m), X, parts, coin in zip(chunk, sizes, Xs, entries, U[:, 32].tolist()):
            if trial < len(fixed):
                A = fixed[trial]
            else:
                A = parts[0, :m, :n]
                if space.is_complex and coin < 0.5:
                    A = A + 1j * parts[1, :m, :n]
            drawn.append((A, X[:, : A.shape[1]]))
        norms = _law_norms([A for A, _ in drawn], p_role, cfg)
        vals = _point_values(spec, space, [X @ A.T for A, X in drawn] + [X for _, X in drawn], cfg)
        for (A, X), anorm, lhs, rhs in zip(drawn, norms, vals, vals[len(drawn) :]):
            bound = anorm * rhs
            if lhs > bound + tol * max(1.0, bound):
                violations.append(LawViolation(lhs, bound, A, X))
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
    kind) in one block per chunk.
    """
    cfg = cfg or OptimConfig()
    chunks = _trial_chunks(trials)
    violations: list[LawViolation] = []
    m = space.dim
    partitions = {n: list(set_partitions(n)) for n in range(2, 5)}
    counts, normals, uniforms = (cfg.stream("coagulation", kind) for kind in (COUNTS, NORMALS, UNIFORMS))
    for chunk in chunks:
        T = len(chunk)
        ns = counts.integers(2, 5, size=T).tolist()
        Xs = field_normal_block(normals, T, (m, 4), space.is_complex)
        drawn = []
        for n, X, u in zip(ns, Xs, uniforms.random(T).tolist()):
            X, parts = X[:, :n], partitions[n]
            blocks = parts[int(u * len(parts))]
            drawn.append((blocks, X, np.stack([X[:, b].sum(axis=1) for b in blocks], axis=1)))
        vals = _point_values(spec, space, [Y for *_, Y in drawn] + [X for _, X, _ in drawn], cfg)
        for (blocks, X, _), lhs, rhs in zip(drawn, vals, vals[len(drawn) :]):
            if lhs > rhs + tol * max(1.0, rhs):
                violations.append(LawViolation(lhs, rhs, blocks, X))
    return MatrixLawReport(1.0, trials, tol, violations)
