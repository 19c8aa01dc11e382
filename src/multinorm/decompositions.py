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

from .errors import BudgetError, HermitianError, SpecError
from .multinorms import MultiNormSpec, _norm_of_abs, _point_values, _stack_values, _trial_chunks
from .optim import OptimConfig, _as_value, _first_max, field_normal
from .partitions import GRID_BLOCK, set_partitions, slot_assignments, unit_grid
from .spaces import SpaceSpec, VectorTuple, delta_tuple, matrix_from_json, matrix_to_json

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


def _sample_vectors(space: SpaceSpec, trials: int, cfg: OptimConfig, stream: int):
    for t in range(trials):
        yield field_normal(cfg.rng(stream + t), space.dim, space.is_complex)


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
    when the grid fits the budget) plus sampled interior points.
    """
    cfg = cfg or OptimConfig()
    _trial_chunks(trials)  # rejects a negative count
    k = d.length
    Ps = d.projections
    worst_gap, witness = 0.0, None

    levels = max(8, cfg.grid_points // 4) if space.is_complex else 2
    try:
        (grid,) = unit_grid(k, levels, GRID_BLOCK)
    except BudgetError:
        grid = np.ones((0, k))  # too many phase combinations: sampled points only

    for ti, x in enumerate(_sample_vectors(space, trials, cfg, 130000)):
        nx = space.norm(x)
        if nx <= 0:
            continue
        rng = cfg.rng(131000 + ti)
        # 8 interior points, each drawing its moduli, then its phases or signs
        if space.is_complex:
            samples = [rng.random(k) * np.exp(2j * np.pi * rng.random(k)) for _ in range(8)]
        else:
            samples = [rng.random(k) * np.where(rng.random(k) < 0.5, 1.0, -1.0) for _ in range(8)]
        Z = np.concatenate([grid, samples])
        # rows Y[b] = sum_i Z[b, i] P_i x, accumulated in slot order; each row norm equals space.norm bit for bit
        Y = sum(Z[:, i, None] * (P @ x) for i, P in enumerate(Ps))
        vals = _norm_of_abs(space, np.abs(Y))
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
    """Test ||P_1 x_1 + ... + P_k x_k|| <= ||(x_1,...,x_k)||_k on samples."""
    cfg = cfg or OptimConfig()
    k = d.length
    Ps = d.projections
    worst_gap, witness = 0.0, None
    for chunk in _trial_chunks(trials):
        drawn = []
        for ti in chunk:
            rng = cfg.rng(140000 + ti)
            X = field_normal(rng, (space.dim, k), space.is_complex)
            if ti == 0:
                X = delta_tuple(space.dim, k, space.is_complex)
            elif ti == 1:
                X = np.ones_like(X)
            elif ti % 3 == 1:
                X = np.stack([P @ X[:, i] for i, P in enumerate(Ps)], axis=1)
            drawn.append((X, space.norm(sum(Ps[i] @ X[:, i] for i in range(k)))))
        rhs_vals = _point_values(spec, space, [X for X, _ in drawn], cfg)
        for (X, lhs), rhs in zip(drawn, rhs_vals):
            gap = lhs - rhs
            if gap > worst_gap:
                worst_gap = gap
                witness = {"tuple": X, "lhs": lhs, "rhs": rhs}
    verdict = worst_gap <= tol
    return DetectorReport(verdict, worst_gap, witness, trials, "small-decomposition test")


def coagulations_equal(spec: MultiNormSpec, space: SpaceSpec, Xs: list, cfg: OptimConfig) -> list[tuple]:
    """For each k-slot tuple of Xs, the worst (|coagulated - original|, blocks, coagulated, original).

    Every tuple of Xs has the same k slots; the worst is taken over all set
    partitions of the slots, the first one on ties.  The tuples and their
    coagulations are evaluated as stacks of at most about GRID_BLOCK tuples.
    """
    if not Xs:
        return []
    partitions = list(set_partitions(Xs[0].shape[1]))
    per = len(partitions) + 1
    step = max(1, GRID_BLOCK // per)
    out = []
    for s in range(0, len(Xs), step):
        batch = Xs[s : s + step]
        tuples = []
        for X in batch:
            tuples.append(X)
            tuples += [np.stack([X[:, b].sum(axis=1) for b in blocks], axis=1) for blocks in partitions]
        vals = _point_values(spec, space, tuples, cfg)
        for i in range(len(batch)):
            base = vals[per * i]
            worst = (0.0, None, base, base)
            for blocks, val in zip(partitions, vals[per * i + 1 : per * (i + 1)]):
                gap = abs(val - base)
                if gap > worst[0]:
                    worst = (gap, blocks, val, base)
            out.append(worst)
    return out


def is_orthogonal(
    d: Decomposition,
    spec: MultiNormSpec,
    space: SpaceSpec,
    trials: int = 60,
    cfg: OptimConfig | None = None,
    tol: float = 1e-8,
) -> DetectorReport:
    """Test that every coagulation of block-supported tuples keeps the norm."""
    cfg = cfg or OptimConfig()
    k = d.length
    if k > 8:
        raise BudgetError("coagulation enumeration capped at 8 blocks")
    Ps = d.projections
    worst_gap, witness = 0.0, None
    for chunk in _trial_chunks(trials):
        Xs = []
        for ti in chunk:
            Z = field_normal(cfg.rng(150000 + ti), (space.dim, k), space.is_complex)
            Xs.append(np.stack([Ps[i] @ Z[:, i] for i in range(k)], axis=1))
        for X, (gap, blocks, lhs, rhs) in zip(Xs, coagulations_equal(spec, space, Xs, cfg)):
            if gap > worst_gap:
                worst_gap = gap
                witness = {"tuple": X, "partition": blocks, "lhs": lhs, "rhs": rhs}
    verdict = worst_gap <= tol
    return DetectorReport(verdict, worst_gap, witness, trials, "orthogonal-decomposition test")


def orthogonal_set(
    spec: MultiNormSpec,
    t: VectorTuple,
    trials: int = 40,
    cfg: OptimConfig | None = None,
    tol: float = 1e-8,
) -> DetectorReport:
    """Orthogonality of a vector set: coagulation-invariance of scalar multiples."""
    cfg = cfg or OptimConfig()
    space = t.space
    k = t.n
    if k > 8:
        raise BudgetError("coagulation enumeration capped at 8 vectors")
    chunks = _trial_chunks(trials)
    worst_gap, witness = 0.0, None

    def batches():
        yield [np.ones(k)]
        for chunk in chunks:
            yield [field_normal(cfg.rng(160000 + ti), k, space.is_complex) for ti in chunk]

    for scalings in batches():
        Xs = [t.columns * c[None, :] for c in scalings]
        for c, (gap, blocks, lhs, rhs) in zip(scalings, coagulations_equal(spec, space, Xs, cfg)):
            if gap > worst_gap:
                worst_gap = gap
                witness = {"scalars": c, "partition": blocks, "lhs": lhs, "rhs": rhs}
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
            best = np.maximum(best, _norm_of_abs(space, np.abs(y)))
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
    """Estimate sup (spec value - generated value); heuristic verdict gap < tol."""
    cfg = cfg or OptimConfig()
    chunks = _trial_chunks(trials)
    worst_gap, witness = 0.0, None

    def batches():
        for chunk in chunks:
            Xs = []
            for ti in chunk:
                rng = cfg.rng(170000 + ti)
                n = int(rng.integers(1, 4))
                Xs.append(field_normal(rng, (space.dim, n), space.is_complex))
            yield Xs
        # canonical delta tuples catch coordinate effects that random draws smear
        yield [delta_tuple(space.dim, n, space.is_complex) for n in range(1, min(space.dim, 3) + 1)]

    for Xs in batches():
        lhs_vals = _point_values(spec, space, Xs, cfg)
        rhs_vals = _stack_values(lambda S: generated_value(f, space, S, cfg), Xs)
        for X, lhs, rhs in zip(Xs, lhs_vals, rhs_vals):
            gap = lhs - rhs
            if gap > worst_gap:
                worst_gap = gap
                witness = {"tuple": X, "spec_value": lhs, "generated_value": rhs}
    verdict = worst_gap <= tol
    return DetectorReport(verdict, worst_gap, witness, trials, "orthogonality of the multi-norm w.r.t. the family")
