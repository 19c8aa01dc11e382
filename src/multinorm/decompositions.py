"""Direct-sum decompositions by projection families and their detectors.

A decomposition is a finite family of idempotent, mutually annihilating
projection matrices summing to the identity.  Detectors classify it as
hermitian / small / orthogonal with respect to a multi-norm: a False
verdict is certified by a witness, a True verdict means "no counterexample
within the sampling budget".  Small implies orthogonal implies hermitian;
whether orthogonal implies small in general is unresolved, so the
detectors never assume it.

On these finite-dimensional spaces the multi-dual construction embeds the
primal isometrically whenever the multi-norm is orthogonal with respect to
the family, which is what is_orthogonal_multinorm estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetError, DimensionError, HermitianError, SpecError
from .multinorms import MultiNormSpec, _audit_chunks, _groups, _in_trial_order, _point_values, _stack_values
from .optim import COUNTS, NORMALS, UNIFORMS, OptimConfig, _first_max, field_normal_block
from .partitions import GRID_BLOCK, grid_fits, set_partitions, slot_assignments, unit_grid
from .spaces import SpaceSpec, VectorTuple, _as_value, delta_tuple, lp_norm, matrix_from_json, matrix_to_json

_PROJ_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Projections P_1..P_k with sum I, P_i^2 = P_i, P_i P_j = 0 (i != j)."""

    projections: tuple

    def __post_init__(self):
        Ps = tuple(np.asarray(P) for P in self.projections)
        if not Ps:
            raise SpecError("decomposition needs at least one projection")
        m = Ps[0].shape[0]
        for P in Ps:
            if P.shape != (m, m):
                raise SpecError("projections must be square and same-sized")
            if not np.all(np.isfinite(P)):
                # NaN would pass every tolerance check below (NaN > tol is False)
                raise SpecError("projection entries must be finite")
        total = sum(Ps)
        if np.abs(total - np.eye(m)).max() > _PROJ_TOL:
            raise SpecError("projections must sum to the identity")
        for i, P in enumerate(Ps):
            if np.abs(P @ P - P).max() > _PROJ_TOL:
                raise SpecError(f"projection {i} is not idempotent")
            for j in range(i + 1, len(Ps)):
                if np.abs(P @ Ps[j]).max() > _PROJ_TOL:
                    raise SpecError(f"projections {i},{j} do not annihilate")
        object.__setattr__(self, "projections", Ps)

    @property
    def length(self) -> int:
        return len(self.projections)

    @property
    def dim(self) -> int:
        return self.projections[0].shape[0]

    def key(self) -> bytes:
        stacked = np.concatenate([np.asarray(P, dtype=complex) for P in self.projections])
        return np.round(stacked, 10).tobytes()

    def to_json(self) -> dict:
        return {"projections": [matrix_to_json(P) for P in self.projections]}

    @staticmethod
    def from_json(doc: dict) -> "Decomposition":
        return Decomposition(tuple(matrix_from_json(P) for P in doc["projections"]))


def _same_dim(d: Decomposition, space: SpaceSpec) -> None:
    """DimensionError unless the decomposition acts on the space's dimension."""
    if d.dim != space.dim:
        raise DimensionError(f"decomposition of dimension {d.dim} on a space of dimension {space.dim}")


def coordinate_decomposition(space: SpaceSpec, blocks) -> Decomposition:
    """Band decomposition of a coordinate lattice from a coordinate partition."""
    Ps = []
    for b in blocks:
        P = np.zeros((space.dim, space.dim))
        for k in b:
            P[k, k] = 1.0
        Ps.append(P)
    return Decomposition(tuple(Ps))


@dataclass(frozen=True, eq=False)
class FamilyOfDecompositions:
    members: tuple
    closure_flags: tuple = ()

    def to_json(self) -> dict:
        return {"members": [d.to_json() for d in self.members], "close": bool(self.closure_flags)}

    @staticmethod
    def from_json(doc: dict) -> "FamilyOfDecompositions":
        fam = FamilyOfDecompositions(tuple(Decomposition.from_json(d) for d in doc.get("members", [])))
        if doc.get("close"):
            fam = close_family(fam)
        return fam


def band_family(space: SpaceSpec, max_blocks: int | None = None) -> FamilyOfDecompositions:
    """All coordinate-partition (band) decompositions of the space."""
    members = []
    for blocks in set_partitions(space.dim, max_blocks):
        members.append(coordinate_decomposition(space, blocks))
    return FamilyOfDecompositions(tuple(members))


def trivial_family(space: SpaceSpec) -> FamilyOfDecompositions:
    return FamilyOfDecompositions((Decomposition((np.eye(space.dim),)),), ("C3",))


@dataclass
class DetectorReport:
    verdict: bool
    gap: float
    witness: Optional[dict]
    trials: int
    note: str

    def to_json(self) -> dict:
        from .optim import _witness_json

        return {
            "verdict": self.verdict,
            "gap": self.gap,
            "witness": _witness_json(self.witness),
            "trials": self.trials,
            "note": self.note,
        }


def is_hermitian(
    d: Decomposition,
    space: SpaceSpec,
    trials: int = 64,
    cfg: OptimConfig | None = None,
    tol: float = 1e-9,
) -> DetectorReport:
    """Test ||zeta_1 P_1 x + ... + zeta_k P_k x|| <= ||x|| over |zeta_i| <= 1.

    Real scalars: exact over the sign choices, plus sampled interior
    moduli.  Complex scalars: phase grid (exhaustive over the free phases
    when the grid fits the budget) plus sampled interior points.  Trial t
    draws x from cfg.stream("hermitian", NORMALS) and its 8 interior
    points' moduli and phases (or signs) from cfg.stream("hermitian",
    UNIFORMS), one block per chunk of trials.
    """
    _same_dim(d, space)
    cfg = cfg or OptimConfig()
    chunks = _audit_chunks(trials, tol)
    k = d.length
    Ps = d.projections
    worst_gap, witness = 0.0, None

    levels = max(8, cfg.grid_points // 4) if space.is_complex else 2
    # the phase grid when it fits one block, else (too many phase combinations) sampled points only
    grid = next(unit_grid(k, levels, GRID_BLOCK)) if grid_fits(k, levels, GRID_BLOCK) else np.ones((0, k))

    normals, uniforms = cfg.stream("hermitian", NORMALS), cfg.stream("hermitian", UNIFORMS)
    for chunk in chunks:
        xs = field_normal_block(normals, len(chunk), (space.dim,), space.is_complex)
        U = uniforms.random((len(chunk), 8, 2, k))
        # 8 interior points per trial: moduli times phases, or times signs over R
        turns = np.exp(2j * np.pi * U[:, :, 1]) if space.is_complex else np.where(U[:, :, 1] < 0.5, 1.0, -1.0)
        for x, samples in zip(xs, U[:, :, 0] * turns):
            nx = space.norm(x)
            if nx <= 0:
                continue
            Z = np.concatenate([grid, samples])
            # rows Y[b] = sum_i Z[b, i] P_i x, accumulated in slot order; each row norm equals space.norm bit for bit
            Y = sum(Z[:, i, None] * (P @ x) for i, P in enumerate(Ps))
            vals = lp_norm(Y, space.p, w=space.w)
            b, gap = _first_max(vals - nx)
            if gap > worst_gap:
                worst_gap = gap
                witness = {"x": x, "zeta": Z[b].copy(), "lhs": float(vals[b]), "rhs": nx}

    verdict = worst_gap <= tol
    note = "no counterexample within budget" if verdict else "witness violates the contraction"
    return DetectorReport(verdict, worst_gap, witness, trials, note)


def is_small(
    d: Decomposition,
    spec: MultiNormSpec,
    space: SpaceSpec,
    trials: int = 200,
    cfg: OptimConfig | None = None,
    tol: float = 1e-8,
) -> DetectorReport:
    """Test ||P_1 x_1 + ... + P_k x_k|| <= ||(x_1,...,x_k)||_k on samples.

    Trial t's tuple is row t of cfg.stream("small", NORMALS), drawn one
    block per chunk; trials 0 and 1 test the delta and all-ones tuples
    instead, and every third from trial 4 on its block-supported image.
    A chunk's tuples are one stack, with one point_value call.
    """
    _same_dim(d, space)
    cfg = cfg or OptimConfig()
    k = d.length
    worst_gap, witness = 0.0, None
    normals = cfg.stream("small", NORMALS)
    for chunk in _audit_chunks(trials, tol):
        X = field_normal_block(normals, len(chunk), (space.dim, k), space.is_complex)
        t = np.arange(chunk.start, chunk.stop)
        X[t == 0] = delta_tuple(space.dim, k, space.is_complex)
        X[t == 1] = 1.0
        block = (t % 3 == 1) & (t > 1)
        X[block] = _apply_blocks(d, X[block])
        PX = _apply_blocks(d, X)
        lhs = lp_norm(sum(PX[..., i] for i in range(k)), space.p, w=space.w)
        [rhs] = _point_values(spec, space, [X], cfg)
        b, gap = _first_max(lhs - rhs)
        if gap > worst_gap:
            worst_gap, witness = gap, {"tuple": X[b], "lhs": float(lhs[b]), "rhs": float(rhs[b])}
    verdict = worst_gap <= tol
    return DetectorReport(verdict, worst_gap, witness, trials, "small-decomposition test")


def _apply_blocks(d: Decomposition, X: np.ndarray) -> np.ndarray:
    """The (B, m, k) stack of tuples (P_1 x_1, ..., P_k x_k) of a (B, m, k) stack; each P_i x_i is a stacked matrix-vector product, as alone."""
    return np.stack([(P @ X[:, :, i, None])[..., 0] for i, P in enumerate(d.projections)], axis=-1)


def coagulations_equal(spec: MultiNormSpec, space: SpaceSpec, X: np.ndarray, cfg: OptimConfig) -> tuple:
    """The largest coagulation gap over a (B, m, k) stack of tuples: (row, gap, blocks, coagulated value, tuple value).

    A row's gaps are |coagulated - original| over the set partitions of its
    k slots; the first row, then the first partition, wins ties, and NaN
    gaps count as none; with no positive gap it is (0, 0.0, None, 0.0,
    0.0).  The rows are taken in batches of about GRID_BLOCK tuples and
    coagulations, with one point_value call per (width, dtype) per batch.
    """
    # the last set partition is all singletons, whose coagulation is the tuple itself
    partitions = list(set_partitions(X.shape[-1]))[:-1]
    best = (0, 0.0, None, 0.0, 0.0)
    if not partitions:
        return best
    step = max(1, GRID_BLOCK // (len(partitions) + 1))
    for s in range(0, len(X), step):
        S = X[s : s + step]
        coagulated = [np.stack([S[..., b].sum(axis=-1) for b in blocks], axis=-1) for blocks in partitions]
        base, *vals = _point_values(spec, space, [S] + coagulated, cfg)
        vals = np.array(vals)
        which, gaps = _first_max(np.abs(vals - base).T)
        r, gap = _first_max(gaps)
        if gap > best[1]:
            best = (s + r, gap, partitions[which[r]], float(vals[which[r], r]), float(base[r]))
    return best


def is_orthogonal(
    d: Decomposition,
    spec: MultiNormSpec,
    space: SpaceSpec,
    trials: int = 60,
    cfg: OptimConfig | None = None,
    tol: float = 1e-8,
) -> DetectorReport:
    """Test that every coagulation of block-supported tuples keeps the norm.

    Trial t projects row t of cfg.stream("orthogonal", NORMALS), drawn one
    block per chunk, onto the blocks.
    """
    _same_dim(d, space)
    cfg = cfg or OptimConfig()
    k = d.length
    if k > 8:
        raise BudgetError("coagulation enumeration capped at 8 blocks")
    worst_gap, witness = 0.0, None
    normals = cfg.stream("orthogonal", NORMALS)
    for chunk in _audit_chunks(trials, tol):
        X = _apply_blocks(d, field_normal_block(normals, len(chunk), (space.dim, k), space.is_complex))
        r, gap, blocks, lhs, rhs = coagulations_equal(spec, space, X, cfg)
        if gap > worst_gap:
            worst_gap, witness = gap, {"tuple": X[r], "partition": blocks, "lhs": lhs, "rhs": rhs}
    verdict = worst_gap <= tol
    return DetectorReport(verdict, worst_gap, witness, trials, "orthogonal-decomposition test")


def orthogonal_set(
    spec: MultiNormSpec,
    t: VectorTuple,
    trials: int = 40,
    cfg: OptimConfig | None = None,
    tol: float = 1e-8,
) -> DetectorReport:
    """Orthogonality of a vector set: coagulation-invariance of scalar multiples.

    The unscaled set comes first; trial t then scales by row t of
    cfg.stream("orthogonal_set", NORMALS), drawn one block per chunk.
    """
    cfg = cfg or OptimConfig()
    space = t.space
    k = t.n
    if k > 8:
        raise BudgetError("coagulation enumeration capped at 8 vectors")
    chunks = _audit_chunks(trials, tol)
    worst_gap, witness = 0.0, None

    normals = cfg.stream("orthogonal_set", NORMALS)

    def batches():
        yield np.ones((1, k))
        for chunk in chunks:
            yield field_normal_block(normals, len(chunk), (k,), space.is_complex)

    for C in batches():
        r, gap, blocks, lhs, rhs = coagulations_equal(spec, space, t.columns * C[:, None, :], cfg)
        if gap > worst_gap:
            worst_gap, witness = gap, {"scalars": C[r], "partition": blocks, "lhs": lhs, "rhs": rhs}
    verdict = worst_gap <= tol
    return DetectorReport(verdict, worst_gap, witness, trials + 1, "orthogonal-set test")


# ---------------------------------------------------------------------------
# families, closure, generated multi-norms


def close_family(
    f: FamilyOfDecompositions, max_len: int | None = None, dim: int | None = None
) -> FamilyOfDecompositions:
    """Close under permutations (C1), pairwise merges (C2), trivials (C3)."""
    from itertools import permutations as iperms

    members = {d.key(): d for d in f.members}
    if not f.members and (max_len is None or dim is None):
        raise SpecError("empty family needs explicit max_len and dim for the trivial members")
    dim = f.members[0].dim if f.members else dim
    if max_len is None:
        max_len = max(d.length for d in f.members)

    changed = True
    while changed:
        changed = False
        for d in list(members.values()):
            k = d.length
            if k <= 6:
                for perm in iperms(range(k)):
                    nd = Decomposition(tuple(d.projections[i] for i in perm))
                    if nd.key() not in members:
                        members[nd.key()] = nd
                        changed = True
            if k >= 2:
                for i in range(k):
                    for j in range(i + 1, k):
                        merged = d.projections[i] + d.projections[j]
                        rest = [P for t, P in enumerate(d.projections) if t not in (i, j)]
                        nd = Decomposition((merged, *rest))
                        if nd.key() not in members:
                            members[nd.key()] = nd
                            changed = True
    if dim:
        eye = np.eye(dim)
        for k in range(1, max_len + 1):
            for pos in range(k):
                Ps = [np.zeros((dim, dim)) for _ in range(k)]
                Ps[pos] = eye
                nd = Decomposition(tuple(Ps))
                if nd.key() not in members:
                    members[nd.key()] = nd
    ordered = tuple(sorted(members.values(), key=lambda d: (d.length, d.key())))
    return FamilyOfDecompositions(ordered, ("C1", "C2", "C3"))


def generated_value(family: FamilyOfDecompositions, space: SpaceSpec, X: np.ndarray, cfg: OptimConfig):
    """max over family members and slot assignments of ||sum_i P_i x_{a(i)}||.

    Assigning the k projections of a member to the n tuple slots (n^k maps)
    realizes the permutation/merge/trivial closure on the fly, so the value
    matches the closed family's supremum over length-n members.  X is one
    tuple (a float is returned) or a (..., dim, n) stack.
    """
    n = X.shape[-1]
    best = space.norm_cols(X).max(axis=-1)  # trivial decompositions
    for d in family.members:
        k = d.length
        PX = [P @ X for P in d.projections]
        for assign in slot_assignments(k, n, cfg.max_enum):
            y = PX[0][..., assign[0]].copy()
            for i in range(1, k):
                y += PX[i][..., assign[i]]
            best = np.maximum(best, lp_norm(y, space.p, w=space.w))
    return _as_value(best)


def generated_multinorm(
    family: FamilyOfDecompositions,
    space: SpaceSpec,
    cfg: OptimConfig | None = None,
    verify_hermitian: bool = True,
    trials: int = 16,
) -> MultiNormSpec:
    """Spec for the multi-norm generated by a family of hermitian decompositions."""
    cfg = cfg or OptimConfig()
    if verify_hermitian:
        for i, d in enumerate(family.members):
            rep = is_hermitian(d, space, trials=trials, cfg=cfg)
            if not rep.verdict:
                raise HermitianError(f"family member {i} is not hermitian (gap {rep.gap:.3g})")
    return MultiNormSpec.generated(family)


def dual_family(f: FamilyOfDecompositions, space: SpaceSpec) -> FamilyOfDecompositions:
    """Transpose each projection through the weighted bilinear pairing."""
    w = space.w
    members = []
    for d in f.members:
        _same_dim(d, space)
        Ps = tuple((P.T * w[None, :]) / w[:, None] for P in d.projections)
        members.append(Decomposition(Ps))
    return FamilyOfDecompositions(tuple(members), f.closure_flags)


def multi_dual(
    f: FamilyOfDecompositions,
    space: SpaceSpec,
    cfg: OptimConfig | None = None,
    verify_hermitian: bool = True,
) -> tuple[MultiNormSpec, SpaceSpec]:
    """Generated multi-norm of the transposed family on the dual space."""
    cfg = cfg or OptimConfig()
    dual = space.dual()
    df = dual_family(f, space)
    spec = generated_multinorm(df, dual, cfg, verify_hermitian=verify_hermitian)
    return spec, dual


def is_orthogonal_multinorm(
    spec: MultiNormSpec,
    f: FamilyOfDecompositions,
    space: SpaceSpec,
    trials: int = 100,
    cfg: OptimConfig | None = None,
    tol: float = 1e-8,
) -> DetectorReport:
    """Estimate sup (spec value - generated value); heuristic verdict gap < tol.

    Trial t draws n in 1..3 from cfg.stream("orthogonal_multinorm", COUNTS)
    and its tuple, padded to 3 columns, from the NORMALS stream, one block
    of each per chunk.
    """
    for d in f.members:
        _same_dim(d, space)
    cfg = cfg or OptimConfig()
    chunks = _audit_chunks(trials, tol)
    worst_gap, witness = 0.0, None
    counts, normals = cfg.stream("orthogonal_multinorm", COUNTS), cfg.stream("orthogonal_multinorm", NORMALS)

    def batches():
        for chunk in chunks:
            yield counts.integers(1, 4, size=len(chunk)), field_normal_block(normals, len(chunk), (space.dim, 3), space.is_complex)
        # canonical delta tuples catch coordinate effects that random draws smear
        widths = np.arange(1, min(space.dim, 3) + 1)
        yield widths, np.repeat(delta_tuple(space.dim, 3, space.is_complex)[None], len(widths), axis=0)

    for ns, Zs in batches():
        groups = _groups(ns)
        stacks = [Zs[idx, :, :n] for n, idx in groups]
        lhs = _in_trial_order(groups, _point_values(spec, space, stacks, cfg))
        rhs = _in_trial_order(groups, _stack_values(lambda S: generated_value(f, space, S, cfg), stacks))
        b, gap = _first_max(lhs - rhs)
        if gap > worst_gap:
            worst_gap, witness = gap, {"tuple": Zs[b, :, : ns[b]], "spec_value": float(lhs[b]), "generated_value": float(rhs[b])}
    verdict = worst_gap <= tol
    return DetectorReport(verdict, worst_gap, witness, trials, "orthogonality of the multi-norm w.r.t. the family")
