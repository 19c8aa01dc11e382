"""Finite-dimensional weighted l^p spaces and their basic calculus.

A space is a weighted sequence space: dim coordinates, index p in [1, inf],
strictly positive weights acting as point masses of a finite measure.  All
norms, pairings, duals and lattice operations live here; everything else in
the package is built on top of these primitives.
"""

from __future__ import annotations

import dataclasses
import json
import math
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


def real_entries(A) -> np.ndarray:
    """A as an array on the real field: a complex A whose imaginary parts are all 0 gives its real part; any other complex A raises FieldError."""
    A = np.asarray(A)
    if np.iscomplexobj(A):
        if np.any(A.imag != 0):
            raise FieldError("complex entries on a real field")
        A = A.real
    return A


def binary_exponent(A) -> int:
    """The e with max |A| * 2^-e in [0.5, 1), frexp's exponent of A's largest modulus; 0 where A is all zero."""
    top = float(np.abs(A).max(initial=0.0))
    return math.frexp(top)[1] if 0 < top < INF else 0


def pow2_scaled(A, e: int) -> np.ndarray:
    """2^e A by ldexp, exact wherever no entry leaves the normal range (real and imaginary parts apart)."""
    A = np.asarray(A)
    if not np.iscomplexobj(A):
        return np.ldexp(A, e)
    out = np.empty_like(A)
    out.real, out.imag = np.ldexp(A.real, e), np.ldexp(A.imag, e)
    return out


_TINY = np.finfo(float).tiny  # smallest normal float; below it 1 / |v| may overflow


def phase(v: np.ndarray) -> np.ndarray:
    """v / |v| entrywise, and 1 where |v| < _TINY (zero or subnormal entries)."""
    a = np.abs(v)
    big = a >= _TINY
    return np.where(big, v / np.where(big, a, 1.0), 1.0)


def lp_norm(v, r: float, axis: int = -1, w=None):
    """The l^r norms of |v| along axis, r in [1, inf], weighted by w (broadcast against v; ignored at r = inf).

    A float for a 1-D v, an array for a stack.  Fewer than 8 terms are
    summed in the same order along any axis, and _root rounds a lone value
    as it rounds one in a stack, so each stacked norm equals the norm of
    its vector alone bit for bit.
    """
    a = np.abs(np.asarray(v))
    if r == INF:
        return _as_value(a.max(axis=axis, initial=0.0))
    s = a**r if w is None else w * a**r
    return _root(s.sum(axis=axis), r)


def _root(s, r: float):
    """s ** (1/r) entrywise by numpy's array pow, which gives a 0-d, a length-1 and a long array the same bits; a float for a 0-d s."""
    return _as_value(np.power(s, 1.0 / r))


def _as_value(a):
    """A float for a 0-d result, the array itself for a stack of results."""
    a = np.asarray(a)
    return float(a) if a.ndim == 0 else a


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
        return x if self.is_complex else real_entries(x).astype(float)

    def norm(self, x) -> float:
        return lp_norm(self.check_vector(x), self.p, w=self.w)

    def norm_cols(self, X: np.ndarray) -> np.ndarray:
        """Norms of the columns of a (dim, n) array, or of each tuple of a (..., dim, n) stack."""
        return lp_norm(X, self.p, axis=-2, w=self.w[:, None])

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
        weights = tuple(_json_number(w, "weight") for w in doc.get("weights", ()) or ())
        return SpaceSpec(_json_number(doc["p"], "p"), _json_number(doc["dim"], "dim", integer=True), weights, doc.get("field", REAL))


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
        X = X.astype(complex) if self.space.is_complex else real_entries(X).astype(float)
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
        x = real_entries(x)
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


def _json_number(x, name: str, integer: bool = False):
    """x read from JSON as a number: float(x) ("inf" and "Infinity" included), or where integer a JSON integer.

    A bool, which Python counts as an int, is a ValueError, and so is a
    non-integer where integer is set (2.7 is not read as 2).
    """
    if isinstance(x, (bool, np.bool_)) or (integer and not isinstance(x, (int, np.integer))):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {json.dumps(x, default=repr)}")
    return int(x) if integer else float(x)


def vector_to_json(x: np.ndarray) -> list:
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return [[float(v.real), float(v.imag)] for v in x]
    return [float(v) for v in x]


def _json_entry(item, name: str):
    """A tuple or matrix entry read from JSON: a number (_json_number), or a [re, im] pair of numbers as a complex."""
    if isinstance(item, (list, tuple)):
        if len(item) != 2:
            raise ValueError(f"{name} must be a number or a [re, im] pair, got {json.dumps(item, default=repr)}")
        return complex(_json_number(item[0], name), _json_number(item[1], name))
    return _json_number(item, name)


def vector_from_json(doc, space: SpaceSpec) -> np.ndarray:
    if space.is_complex:
        return space.check_vector(np.asarray([complex(_json_entry(v, "tuple entry")) for v in doc]))
    return space.check_vector(np.asarray([_json_number(v, "tuple entry") for v in doc]))


def matrix_from_json(doc) -> np.ndarray:
    rows = [[_json_entry(item, "matrix entry") for item in row] for row in doc]
    complex_seen = any(isinstance(v, complex) for row in rows for v in row)
    return np.asarray(rows, dtype=complex if complex_seen else float)


def matrix_to_json(A: np.ndarray) -> list:
    A = np.asarray(A)
    if np.iscomplexobj(A):
        return [[[float(v.real), float(v.imag)] for v in row] for row in A]
    return [[float(v) for v in row] for row in A]
