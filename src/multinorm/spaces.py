"""Finite-dimensional weighted l^p spaces and their basic calculus.

A space is a weighted sequence space: dim coordinates, index p in [1, inf],
strictly positive weights acting as point masses of a finite measure.  All
norms, pairings, duals and lattice operations live here; everything else in
the package is built on top of these primitives.
"""

from __future__ import annotations

import math
import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FieldError

INF = math.inf

REAL = "real"
COMPLEX = "complex"


def conjugate_index(p: float) -> float:
    """Conjugate index p' with 1/p + 1/p' = 1; pairs 1 and inf."""
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


_TINY = np.finfo(float).tiny  # smallest normal float; below it 1 / |v| may overflow


def phase(v: np.ndarray) -> np.ndarray:
    """v / |v| entrywise, and 1 where |v| < _TINY (zero or subnormal entries)."""
    a = np.abs(v)
    big = a >= _TINY
    return np.where(big, v / np.where(big, a, 1.0), 1.0)


@dataclass(frozen=True)
class SpaceSpec:
    """A weighted l^p space of a fixed finite dimension.

    weights model point masses, so for p < inf

        ||x|| = (sum_k w_k |x_k|^p)^(1/p)

    while p = inf is the essential sup, which ignores the weights.
    """

    p: float
    dim: int
    weights: tuple[float, ...] = ()
    field: str = REAL
    w: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)  # weights as a read-only array

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"index p must be >= 1 or inf, got {self.p}")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not self.weights:
            object.__setattr__(self, "weights", (1.0,) * self.dim)
        if len(self.weights) != self.dim:
            raise DimensionError("weights length != dim")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"unknown scalar field {self.field!r}")
        w = np.array(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def is_complex(self) -> bool:
        return self.field == COMPLEX

    def check_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex if self.is_complex else None)
        if x.shape != (self.dim,):
            raise DimensionError(f"vector shape {x.shape} != ({self.dim},)")
        if not self.is_complex:
            x = np.asarray(x)
            if np.iscomplexobj(x):
                if np.any(np.abs(x.imag) > 0):
                    raise FieldError("complex entries in a real space")
                x = x.real
            x = x.astype(float)
        return x

    def norm(self, x) -> float:
        x = self.check_vector(x)
        a = np.abs(x)
        if self.p == INF:
            return float(a.max())
        return float((self.w * a**self.p).sum() ** (1.0 / self.p))

    def norm_cols(self, X: np.ndarray) -> np.ndarray:
        """Norms of the columns of a (dim, n) array, or of each tuple of a (..., dim, n) stack."""
        a = np.abs(X)
        if self.p == INF:
            return a.max(axis=-2)
        return np.einsum("k,...kj->...j", self.w, a**self.p) ** (1.0 / self.p)

    def pairing(self, x, lam) -> complex | float:
        """Bilinear pairing <x, lam> = sum_k w_k x_k lam_k (primal weights)."""
        x = np.asarray(x)
        lam = np.asarray(lam)
        if x.shape != (self.dim,) or lam.shape != (self.dim,):
            raise DimensionError("pairing needs two vectors of the space dimension")
        val = (self.w * x * lam).sum()
        if self.is_complex or np.iscomplexobj(val):
            return complex(val)
        return float(val)

    def dual(self) -> "SpaceSpec":
        return SpaceSpec(conjugate_index(self.p), self.dim, self.weights, self.field)

    def unit_ball_norming(self, x) -> np.ndarray:
        """A dual-unit functional lam with <x, lam> = ||x||.

        Used to seed searches.  For p = inf puts all mass on a maximal
        coordinate; the weight is divided out so the dual (p=1) norm is 1.
        """
        x = self.check_vector(x)
        nx = self.norm(x)
        lam = np.zeros(self.dim, dtype=complex if self.is_complex else float)
        if nx == 0:
            return lam
        a = np.abs(x)
        ph = phase(np.conj(x))
        if self.p == INF:
            k = int(np.argmax(a))
            lam[k] = ph[k] / self.weights[k]
        elif self.p == 1:
            lam = ph.astype(lam.dtype)
        else:
            lam = ph * (a / nx) ** (self.p - 1.0)
        if not self.is_complex:
            lam = lam.real.astype(float)
        return lam

    def to_json(self) -> dict:
        return {
            "p": "inf" if self.p == INF else self.p,
            "dim": self.dim,
            "weights": list(self.weights),
            "field": self.field,
        }

    @staticmethod
    def from_json(doc: dict) -> "SpaceSpec":
        p = doc["p"]
        p = INF if p in ("inf", "Infinity") else float(p)
        weights = tuple(float(w) for w in doc.get("weights", ()) or ())
        return SpaceSpec(p, int(doc["dim"]), weights, doc.get("field", REAL))


@dataclass(frozen=True)
class Vector:
    """A vector tagged with the space it belongs to."""

    entries: np.ndarray
    space: SpaceSpec

    def __post_init__(self):
        object.__setattr__(self, "entries", self.space.check_vector(self.entries))

    def norm(self) -> float:
        return self.space.norm(self.entries)


@dataclass(frozen=True)
class VectorTuple:
    """An ordered n-tuple of vectors in one space, stored columnwise."""

    columns: np.ndarray  # shape (dim, n)
    space: SpaceSpec

    def __post_init__(self):
        X = np.asarray(self.columns)
        if X.ndim != 2 or X.shape[0] != self.space.dim:
            raise DimensionError(f"tuple array shape {X.shape} incompatible with dim {self.space.dim}")
        if X.shape[1] < 1:
            raise DimensionError("tuple must be non-empty")
        if self.space.is_complex:
            X = X.astype(complex)
        elif np.iscomplexobj(X):
            if np.any(np.abs(X.imag) > 0):
                raise FieldError("complex entries in a real space")
            X = X.real.astype(float)
        else:
            X = X.astype(float)
        object.__setattr__(self, "columns", X)

    @property
    def n(self) -> int:
        return self.columns.shape[1]

    def vector(self, j: int) -> np.ndarray:
        return self.columns[:, j]

    @staticmethod
    def of(space: SpaceSpec, *vectors) -> "VectorTuple":
        cols = np.stack([space.check_vector(v) for v in vectors], axis=1)
        return VectorTuple(cols, space)


def delta(space: SpaceSpec, k: int) -> np.ndarray:
    """Standard basis vector delta_k (0-based)."""
    x = np.zeros(space.dim, dtype=complex if space.is_complex else float)
    x[k] = 1.0
    return x


def delta_tuple(m: int, n: int, is_complex: bool) -> np.ndarray:
    """The (m, n) tuple whose column j is delta_{j mod m}."""
    cols = np.zeros((m, n), dtype=complex if is_complex else float)
    cols[np.arange(n) % m, np.arange(n)] = 1.0
    return cols


def roots_tuple(m: int, n: int, is_complex: bool) -> np.ndarray:
    """The (m, n) tuple with entries zeta^((j+1)(k+1)), zeta = exp(2 pi i / n); real part over R."""
    k = np.arange(1, m + 1)[:, None]
    j = np.arange(1, n + 1)[None, :]
    roots = np.exp(2j * np.pi / n) ** (j * k)
    return roots if is_complex else roots.real.copy()


@dataclass(frozen=True)
class MatrixOp:
    """An m-by-n scalar matrix read as an operator l^p_n -> l^q_m.

    Roles p (in) and q (out) refer to the unweighted spaces; weighted
    targets are handled by the callers through diagonal rescaling.
    """

    entries: np.ndarray
    in_index: float = INF
    out_index: float = INF

    def __post_init__(self):
        A = np.asarray(self.entries)
        if A.ndim != 2:
            raise DimensionError("matrix must be 2-dimensional")
        if not np.all(np.isfinite(np.abs(A))):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "entries", A)
        for r in (self.in_index, self.out_index):
            if not (r >= 1.0):
                raise ValueError("matrix roles must lie in [1, inf]")

    @property
    def shape(self):
        return self.entries.shape

    def transpose(self) -> "MatrixOp":
        return MatrixOp(
            self.entries.T,
            conjugate_index(self.out_index),
            conjugate_index(self.in_index),
        )


def lattice_abs(space: SpaceSpec, x) -> np.ndarray:
    """Coordinatewise modulus; the lattice modulus of the coordinate order."""
    x = space.check_vector(x)
    return np.abs(x)


def _require_real(space: SpaceSpec, *vecs) -> list[np.ndarray]:
    out = []
    for x in vecs:
        x = np.asarray(x)
        if np.iscomplexobj(x):
            if np.any(np.abs(x.imag) > 0):
                raise FieldError("lattice sup/inf need real-valued vectors")
            x = x.real
        if x.shape != (space.dim,):
            raise DimensionError("dimension mismatch")
        out.append(x.astype(float))
    return out


def lattice_sup(space: SpaceSpec, x, y) -> np.ndarray:
    x, y = _require_real(space, x, y)
    return np.maximum(x, y)


def lattice_inf(space: SpaceSpec, x, y) -> np.ndarray:
    x, y = _require_real(space, x, y)
    return np.minimum(x, y)


def pos_part(space: SpaceSpec, x) -> np.ndarray:
    (x,) = _require_real(space, x)
    return np.maximum(x, 0.0)


def neg_part(space: SpaceSpec, x) -> np.ndarray:
    (x,) = _require_real(space, x)
    return np.maximum(-x, 0.0)


def hahn_split(space: SpaceSpec, mu) -> tuple[list[int], list[int]]:
    """Split coordinates into P = {k : mu_k >= 0} and its complement."""
    (mu,) = _require_real(space, mu)
    pos = [int(k) for k in range(space.dim) if mu[k] >= 0.0]
    neg = [int(k) for k in range(space.dim) if mu[k] < 0.0]
    return pos, neg


def vector_to_json(x: np.ndarray) -> list:
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return [[float(v.real), float(v.imag)] for v in x]
    return [float(v) for v in x]


def vector_from_json(doc, space: SpaceSpec) -> np.ndarray:
    if space.is_complex:
        vals = []
        for item in doc:
            if isinstance(item, (list, tuple)):
                vals.append(complex(item[0], item[1]))
            else:
                vals.append(complex(item))
        return space.check_vector(np.asarray(vals))
    return space.check_vector(np.asarray([float(v) for v in doc]))


def matrix_from_json(doc) -> np.ndarray:
    rows = []
    complex_seen = False
    for row in doc:
        vals = []
        for item in row:
            if isinstance(item, (list, tuple)):
                vals.append(complex(item[0], item[1]))
                complex_seen = True
            else:
                vals.append(float(item))
        rows.append(vals)
    A = np.asarray(rows, dtype=complex if complex_seen else float)
    return A


def matrix_to_json(A: np.ndarray) -> list:
    A = np.asarray(A)
    if np.iscomplexobj(A):
        return [[[float(v.real), float(v.imag)] for v in row] for row in A]
    return [[float(v) for v in row] for row in A]
