"""Weak p-summing norms and summing constants on finite-dimensional spaces.

mu_weak computes the weak p-summing norm of an n-tuple through its operator
reformulation: the tuple (x_1..x_n) is the matrix with columns x_j acting
l^{p'}_n -> E, so the norm reduces to a (p' -> r) matrix norm after the
weights of E are absorbed into a diagonal rescaling.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import SpecError
from .optim import (
    NormValue,
    OptimConfig,
    _grid_scan,
    _op_norm_upper,
    meets,
    op_norm_pq,
    seeded_ascent,
    torus_certified_upper,
    unconstrained,
)
from .spaces import INF, MatrixOp, SpaceSpec, VectorTuple, conjugate_index, delta, delta_tuple, lp_norm, real_entries, roots_tuple


def _weight_root(space: SpaceSpec) -> np.ndarray:
    """Diagonal D with ||x||_E = ||D x||_{l^r unweighted}; identity for r=inf."""
    if space.p == INF:
        return np.ones(space.dim)
    return space.w ** (1.0 / space.p)


def _reduced(space: SpaceSpec, X: np.ndarray) -> np.ndarray:
    """The matrix whose (p' -> r) operator norm is mu_{p,n} of X's columns."""
    return _weight_root(space)[:, None] * X


def unit_columns(space: SpaceSpec):
    """Stack projection onto tuples of unit vectors; a tuple with a zero column is degenerate."""

    def project(S):
        norms = space.norm_cols(S)
        ok = ~np.any(norms <= 0, axis=-1)
        out = S.copy()
        out[ok] = S[ok] / norms[ok][:, None, :]
        return out, ok

    return project


def mu_weak(p: float, t: VectorTuple, cfg: OptimConfig | None = None) -> NormValue:
    """Weak p-summing norm mu_{p,n}(x_1,...,x_n) on the tuple's space.

    Exact whenever op_norm_pq is exact on the reduced (p' -> r) matrix: a
    rule of optim._op_norm_rule (closed forms for p' = 1, r = inf and
    p' = r = 2; real sign enumerations for p = 1 or r = 1) or disjoint supports.
    Otherwise op_norm_pq's bracket.  Its lower side, the power ascent,
    starts from every basis vector, so it is at least max_j ||x_j||; its
    upper side, the Holder bound, is at most (sum_j ||x_j||^p)^(1/p), and
    at p = 1 it is intersected with torus_certified_upper's grid bound.
    A tuple in a dual space gives the weak p-summing norm of its functionals.
    """
    cfg = cfg or OptimConfig()
    if p < 1:
        raise SpecError("summing index p must be >= 1")
    space = t.space
    X = t.columns
    if p == INF:
        norms = space.norm_cols(X)
        j = int(np.argmax(norms))
        return NormValue.exact(norms[j], {"column": j}, "max_column")

    res = op_norm_pq(MatrixOp(_reduced(space, X), conjugate_index(p), space.p), cfg, field=space.field)
    if res.kind == "exact":
        return NormValue.exact(res.lower, {"coefficients": res.witness}, "op_norm_" + res.method)
    upper = res.upper
    if p == 1:
        upper = min(upper, torus_certified_upper(lambda Z: space.norm_cols(X @ Z.T), space.norm_cols(X)[1:], t.n, cfg))
    return NormValue.bracket(min(res.lower, upper), upper, {"coefficients": res.witness}, res.method)


def mu_scale(p: float, X: np.ndarray, space: SpaceSpec, cfg: OptimConfig) -> tuple:
    """(mu_{p,n} of X's columns, True) where mu_weak is exact, else (a certified upper bound, False).

    The raw-array form of mu_weak for search loops that rescale onto the
    mu ball: X is an already validated (dim, n) array of the space's field
    (or a (..., dim, n) stack, giving (...) value and flag arrays equal to
    the per-tuple results bit for bit) and p >= 1.  The value is the largest
    column norm at p = inf, else optim._op_norm_upper's: _op_norm_exact's
    value, or where that has none the Holder upper bound of mu_weak's
    bracket; no ascent, torus or grid work is done.
    """
    S = X.reshape(-1, *X.shape[-2:])
    if p == INF:
        values, exact = space.norm_cols(S).max(axis=-1), np.ones(len(S), dtype=bool)
    else:
        values, exact = _op_norm_upper(_reduced(space, S), conjugate_index(p), space.p, cfg, space.is_complex)
    if X.ndim == 2:
        return float(values[0]), bool(exact[0])
    return values.reshape(X.shape[:-2]), exact.reshape(X.shape[:-2])


def op_norm_between(T: np.ndarray, source: SpaceSpec, target: SpaceSpec, cfg: OptimConfig) -> NormValue:
    """||T : E -> F|| with the weights of both spaces absorbed."""
    A = _weight_root(target)[:, None] * np.asarray(T) / _weight_root(source)[None, :]
    return op_norm_pq(MatrixOp(A, source.p, target.p), cfg, field=source.field)


def _scaled_score(src_scale, image, tgt_value):
    """Stack objective C -> tgt_value(image(C, s)) with s = src_scale(C); 0 where s <= 0."""

    def score(C):
        s = src_scale(C)
        live = ~(s <= 0)
        if live.all():
            return tgt_value(image(C, s[:, None, None]))
        out = np.zeros(len(C))
        if live.any():
            out[live] = tgt_value(image(C[live], s[live][:, None, None]))
        return out

    return score


def pi_summing(
    q: float,
    p: float,
    space: SpaceSpec,
    n: int,
    cfg: OptimConfig | None = None,
    operator: np.ndarray | None = None,
    target: SpaceSpec | None = None,
) -> NormValue:
    """Lower bound for the (q,p)-summing constant at tuple length n.

    pi_{q,p}^(n)(T) = sup { (sum_j ||T x_j||^q)^(1/q) : mu_{p,n}(x) <= 1 }.
    operator=None means the identity (the summing constant of the space).
    The search normalizes sampled tuples by mu's exact value when the mu
    path is exact, else by a certified upper bound, so the reported lower
    bound is always sound.  With an operator, the norming vector x of
    ||T|| padded with zeros, (x, 0, ..., 0), is normalized the same way and
    gives pi >= ||T|| (up to the op-norm search); the larger of the two
    lower bounds is kept with its witness.  Upper bound attached:
    n^(1/q) * ||T||; it is also the ascent's ceiling, so where the delta
    seed meets it (l^inf_n, (2,2)) nothing climbs.  The result is exact at
    the upper bound when a witness with an exact mu meets it (optim.meets,
    the ascent's own test).  A genuinely complex operator raises FieldError
    on a real source or target.
    """
    cfg = cfg or OptimConfig()
    if not (1 <= p <= q):
        raise SpecError("need q >= p >= 1")
    if n < 1:
        raise SpecError("n must be >= 1")
    T = np.eye(space.dim) if operator is None else np.asarray(operator)
    tgt = target or space
    if T.shape != (tgt.dim, space.dim):
        raise SpecError("operator shape incompatible with spaces")
    if not tgt.is_complex:
        T = real_entries(T)

    candidates = []
    if operator is None:
        op_norm_upper = 1.0
    else:
        res = op_norm_between(T, space, tgt, cfg)
        op_norm_upper = res.upper if res.upper != INF else res.lower
        if res.witness is not None:
            padded = np.zeros((space.dim, n), dtype=complex if space.is_complex else float)
            # op_norm_between's witness norms the weight-absorbed matrix; undo the source weights
            padded[:, 0] = np.asarray(res.witness) / _weight_root(space)
            candidates.append(padded)
    upper = n ** (1.0 / q) * op_norm_upper

    def q_sum(Y: np.ndarray) -> np.ndarray:
        return lp_norm(tgt.norm_cols(Y), q)

    _, cols = seeded_ascent(
        project=unconstrained,
        value=_scaled_score(lambda C: mu_scale(p, C, space, cfg)[0], lambda C, s: T @ C / s, q_sum),
        seeds=[delta_tuple(space.dim, n, space.is_complex)],
        shape=(space.dim, n),
        cfg=cfg,
        complex_field=space.is_complex,
        ceiling=upper,
    )
    lower, witness, scale_exact = 0.0, None, False
    for cols in [cols] + candidates:
        if cols is None:
            continue
        res = mu_weak(p, VectorTuple(cols, space), cfg)
        exact = res.kind == "exact"
        scale = res.lower if exact else res.upper
        if scale > 0:
            val = min(lp_norm(tgt.norm_cols(T @ cols / scale), q), upper)
            if witness is None or val > lower:
                lower, witness, scale_exact = val, {"tuple": cols / scale}, exact
    if scale_exact and meets(lower, upper):
        return NormValue.exact(upper, witness, "delta_witness_meets_definitional_upper")
    return NormValue.bracket(lower, upper, witness, "tuple_ascent")


def c_n(space: SpaceSpec, n: int, cfg: OptimConfig | None = None) -> NormValue:
    """Upper estimate of c_n(E) = inf { mu_{1,n}(x) : x_j unit vectors }.

    Returns a bracket [1, found], the 1 coming from max_j ||x_j|| <= mu.
    The witness tuple attains the reported upper value.  Search restarts
    default to 64 (minimization landscape is harder than the maxima).
    """
    cfg = cfg or OptimConfig()
    if cfg.restarts < 64:
        cfg = replace(cfg, restarts=64)
    if n < 1:
        raise SpecError("n must be >= 1")
    if n == 1:
        x = delta(space, 0) / space.norm(delta(space, 0))
        return NormValue.exact(1.0, {"tuple": x[:, None]}, "single_vector")

    m = space.dim
    seeds = [delta_tuple(m, n, space.is_complex)]
    roots = roots_tuple(m, n, space.is_complex)
    norms = space.norm_cols(roots)
    if np.all(norms > 0):
        seeds.append(roots / norms[None, :])

    # descent guidance: mu_{1,n} over the sign grid (exact over R), over C a phase grid estimate
    levels = (16 if n <= 3 else 8) if space.is_complex else 2
    _, cols = seeded_ascent(
        project=unit_columns(space),
        value=lambda C: -_grid_scan(lambda Z: space.norm_cols(C @ Z.T), len(C), n, levels, cfg)[0],
        seeds=seeds,
        shape=(m, n),
        cfg=cfg,
        complex_field=space.is_complex,
    )
    res = mu_weak(1.0, VectorTuple(cols, space), cfg)
    found = res.lower if res.kind == "exact" else res.upper
    return NormValue.bracket(1.0, max(found, 1.0), {"tuple": cols}, "unit_tuple_descent")
