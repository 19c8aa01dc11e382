"""Weak p-summing norms and summing constants on finite-dimensional spaces.

mu_weak computes the weak p-summing norm of an n-tuple through its operator
reformulation: the tuple (x_1..x_n) is the matrix with columns x_j acting
l^{p'}_n -> E, so the norm reduces to a (p' -> r) matrix norm after the
weights of E are absorbed into a diagonal rescaling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from .errors import DegenerateNormError, SpecError
from .optim import (
    NormValue,
    OptimConfig,
    _dual_unit_vectors,
    _first_max,
    _holder_upper,
    _op_norm_exact,
    _op_norm_upper,
    _power_ascent,
    meets,
    op_norm_pq,
    seeded_ascent,
    torus_certified_upper,
    unconstrained,
)
from .partitions import GRID_BLOCK, digit_rows, unit_grid
from .spaces import INF, MatrixOp, SpaceSpec, VectorTuple, _root, binary_exponent, conjugate_index, delta_tuple, lp_norm, phase, pow2_scaled, real_entries, roots_tuple


def _weight_root(space: SpaceSpec) -> np.ndarray:
    """Diagonal D with ||x||_E = ||D x||_{l^r unweighted}; identity for r=inf."""
    if space.p == INF:
        return np.ones(space.dim)
    return space.w ** (1.0 / space.p)


def _reduced(space: SpaceSpec, X: np.ndarray) -> np.ndarray:
    """The matrix whose (p' -> r) operator norm is mu_{p,n} of X's columns."""
    return _weight_root(space)[:, None] * X


def unit_columns(space: SpaceSpec):
    """Stack projection onto tuples of unit vectors; a tuple with a zero column is degenerate.

    Where every tuple projects, the stack is divided by its column norms in
    one division; otherwise a copy keeps the degenerate tuples as they are.
    """

    def project(S):
        norms = space.norm_cols(S)
        ok = ~np.any(norms <= 0, axis=-1)
        if ok.all():
            return S / norms[:, None, :], ok
        out = S.copy()
        out[ok] = S[ok] / norms[ok][:, None, :]
        return out, ok

    return project


def mu_weak(p: float, t: VectorTuple, cfg: OptimConfig | None = None) -> NormValue:
    """Weak p-summing norm mu_{p,n}(x_1,...,x_n) on the tuple's space.

    Exact whenever op_norm_pq is exact on the reduced (p' -> r) matrix: a
    rule of optim._op_norm_rule (closed forms for p' = 1, r = inf and
    p' = r = 2; real sign enumerations for p = 1 or r = 1) or disjoint supports.
    Otherwise op_norm_pq's certificate.  Its lower side, the power ascent,
    starts from every basis vector, so it is at least max_j ||x_j||; its
    upper side, the Holder bound, is at most (sum_j ||x_j||^p)^(1/p), and
    at p = 1 it is intersected with torus_certified_upper's grid bound
    before NormValue.certified gives the verdict.
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
    return NormValue.certified(res.lower, upper, {"coefficients": res.witness}, res.method)


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


def _absorbed(T: np.ndarray, source: SpaceSpec, target: SpaceSpec) -> np.ndarray:
    """T with the weights of both spaces absorbed, so ||T : E -> F|| is its (p -> q) norm between unweighted spaces."""
    return _weight_root(target)[:, None] * np.asarray(T) / _weight_root(source)[None, :]


def op_norm_between(T: np.ndarray, source: SpaceSpec, target: SpaceSpec, cfg: OptimConfig) -> NormValue:
    """||T : E -> F|| with the weights of both spaces absorbed."""
    return op_norm_pq(MatrixOp(_absorbed(T, source, target), source.p, target.p), cfg, field=source.field)


@functools.lru_cache(maxsize=8)
def _row_splits(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, G, starts) over m rows: each nonempty row set S (a bit mask) with each G within S that holds S's lowest row, sorted by S; S's pairs start at starts[S - 1]."""
    t, S, G = np.arange(3**m), 0, 0
    for k in range(m):  # digit k of t: 0 puts row k outside S, 1 in S but not G, 2 in G
        S, G = S | (t % 3 > 0) << k, G | (t % 3 == 2) << k
        t = t // 3
    keep = (S & -S & G) > 0
    order = np.argsort(S[keep], kind="stable")
    S, G = S[keep][order], G[keep][order]
    out = (S, G, np.searchsorted(S, np.arange(1, 2**m)))
    for a in out:
        a.setflags(write=False)
    return out


def _row_partition_levels(Ts: list, source: SpaceSpec, target: SpaceSpec, n_max: int, cfg: OptimConfig) -> list | None:
    """[(witness, upper)] for n = 1..n_max: the closed form of p_n(Ts) from the minimum multi-norm on E into the lattice one on l^r(w).

    p_n(Ts) is the sup of || max_{i,j} |T_i x_j| ||_{r,w} over n-tuples with
    every ||x_j|| <= 1 (one operator: mb_norm's level n; several:
    mb_tuple_norm at k = n).  For r < inf,
        p_n^r = max over partitions of the rows into at most n groups G of sum_G N(G)^r,
    N(G) = max over row selections s: G -> Ts of ||P_G T_s : E -> l^r(G, w)||,
    T_s taking row k from T_s(k).  Upper bound: group each row k by the j
    of the (i, j) that attains max_{i,j} |(T_i x_j)_k|, with s(k) = i;
    then group G_j's terms sum to ||P_{G_j} T_s x_j||^r, and ||x_j|| <= 1.  Lower bound: x_j
    norms the best P_{G_j} T_s, so row k of G_j gets at least that term.
    At r = inf every p_n is the largest dual norm of a row, max_{i,k} ||(T_i)_k||_{E'}.

    The absorbed operators are scaled by 2^-e, their largest modulus in
    [0.5, 1), so that no r-th power overflows or underflows; the bounds
    are scaled back by 2^e (DegenerateNormError where that passes the
    float range), and the witnesses need no scaling.  Of the
    (#Ts + 1)^m - 1 slices P_G T_s, a single row takes its dual
    norm with its norming vector, exact at every r; the others go through
    optim._op_norm_exact, GRID_BLOCK slices per stacked call, and a slice
    with no exact rule takes the Holder bound from above and, from below,
    the larger of the best image of the rows' norming vectors and the
    power iteration (one stacked optim._power_ascent call).  The partition
    maximum runs over the (3^m - 1)/2 (group, rest) splits of _row_splits,
    level by level.  upper is certified (it uses upper bounds of N); the
    witness is a (source.dim, n) tuple of vectors of norm at most 1 that
    attains the lower side of the same maximum, each unused slot repeating
    the last column.  Past cfg.max_enum slices or splits it returns None,
    and for a genuinely complex T on a real source, whose real-input
    norms the kernel does not give.  Ts are (target.dim, source.dim) arrays.
    """
    A = np.stack([_absorbed(T, source, target) for T in Ts])
    if not source.is_complex:
        if np.any(np.imag(A) != 0):
            return None
        A = np.real(A)
    ops, m, d = A.shape
    slices = (ops + 1) ** m - 1
    if max(slices, 3**m // 2) > cfg.max_enum:
        return None
    # every N(G) is homogeneous: work on 2^-e A, whose largest modulus lies in [0.5, 1), and scale the bounds back
    e = binary_exponent(A)
    A = pow2_scaled(A, -e)
    p, r, complex_field = source.p, target.p, source.is_complex
    pp = conjugate_index(p)
    rows = A.reshape(-1, d)  # row k of T_i at i * m + k
    rho = lp_norm(rows, pp)
    X1 = _dual_unit_vectors(rows, rho, p, pp, phase(np.conj(rows)))
    X1 = X1.astype(complex) if complex_field else np.real(X1)

    def tuple_of(cols, n):
        # absorbed coordinates back to the source's
        return np.stack(cols + cols[-1:] * (n - len(cols)), axis=1) / _weight_root(source)[:, None]

    if r == INF:
        i = int(np.argmax(rho))
        return [(tuple_of([X1[i]], n), _unscaled(rho[i], e)) for n in range(1, n_max + 1)]

    # per row set G (a bit mask): the upper and lower sides of N(G), and the witness of the lower side
    up, low = np.zeros(2**m), np.zeros(2**m)
    W = np.zeros((2**m, d), dtype=X1.dtype)
    stack = np.concatenate([np.zeros((1, m, d), dtype=A.dtype), A])
    for start in range(1, slices + 1, GRID_BLOCK):
        D = digit_rows(m, ops + 1, start, min(start + GRID_BLOCK, slices + 1))
        mask = (D > 0) @ (1 << np.arange(m))
        single = (D > 0).sum(axis=1) == 1
        hi, lo, X = np.empty(len(D)), np.empty(len(D)), np.empty((len(D), d), dtype=X1.dtype)
        k = (D[single] > 0).argmax(axis=1)
        ik = (D[single, k] - 1) * m + k
        hi[single], lo[single], X[single] = rho[ik], rho[ik], X1[ik]
        multi = np.flatnonzero(~single)
        S = stack[D[multi], np.arange(m)]
        values, witnesses, _ = _op_norm_exact(S, p, r, cfg, complex_field)
        bare = np.isnan(values)
        if bare.any():
            # from below, the larger of the best image of the rows' norming vectors and the power iteration
            images = lp_norm(S[bare] @ X1.T, r, axis=-2)
            power, power_x = _power_ascent(S[bare], p, r, cfg, complex_field)
            ahead = power > images.max(axis=1)
            hi[multi[bare]] = _holder_upper(S[bare], p, r)
            lo[multi[bare]] = np.where(ahead, power, images.max(axis=1))
            witnesses[bare] = np.where(ahead[:, None], power_x, X1[images.argmax(axis=1)])
        hi[multi[~bare]] = lo[multi[~bare]] = values[~bare]
        X[multi] = witnesses if complex_field else np.real(witnesses)
        np.maximum.at(up, mask, hi)
        order = np.lexsort((-lo, mask))
        first = order[np.r_[True, mask[order][1:] != mask[order][:-1]]]
        gain = first[lo[first] > low[mask[first]]]
        low[mask[gain]], W[mask[gain]] = lo[gain], X[gain]

    # f[S]: the largest sum of N(G)^r over partitions of S into at most n groups, raised one group per level
    Sx, Gx, starts = _row_splits(m)
    counts = np.diff(np.r_[starts, len(Sx)])
    g_up, g_low = up**r, low**r
    f_up = f_low = np.r_[0.0, np.full(2**m - 1, -INF)]
    picks, out = [], []
    for n in range(1, n_max + 1):
        if n <= m:
            f_up = np.r_[0.0, np.maximum.reduceat(g_up[Gx] + f_up[Sx ^ Gx], starts)]
            cand = g_low[Gx] + f_low[Sx ^ Gx]
            best = np.maximum.reduceat(cand, starts)
            hit = np.flatnonzero(cand == np.repeat(best, counts))
            picks.append(np.r_[0, Gx[hit[np.searchsorted(hit, starts)]]])
            f_low = np.r_[0.0, best]
        rest, cols = 2**m - 1, []
        for pick in reversed(picks):
            if rest:
                cols.append(W[pick[rest]])
                rest ^= pick[rest]
        out.append((tuple_of(cols, n), _unscaled(_root(f_up[-1], r), e)))
    return out


def _unscaled(bound: float, e: int) -> float:
    """2^e bound, a bound computed on 2^-e times its input scaled back; DegenerateNormError where it passes the float range."""
    try:
        return math.ldexp(float(bound), e)
    except OverflowError:
        raise DegenerateNormError(f"the bound 2^{e} * {float(bound)} overflows") from None


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


def _unit_delta_tuple(space: SpaceSpec, n: int) -> np.ndarray:
    """delta_tuple(dim, n) with each column divided by its norm; orthonormal in l^2(w) for n <= dim."""
    D = delta_tuple(space.dim, n, space.is_complex)
    return D / space.norm_cols(D)[None, :]


def pi_summing(
    q: float,
    p: float,
    space: SpaceSpec,
    n: int,
    cfg: OptimConfig | None = None,
    operator: np.ndarray | None = None,
    target: SpaceSpec | None = None,
) -> NormValue:
    """Bracket of the (q,p)-summing constant at tuple length n, exact where a witness meets its upper bound.

    pi_{q,p}^(n)(T) = sup { (sum_j ||T x_j||^q)^(1/q) : mu_{p,n}(x) <= 1 }.
    operator=None means the identity (the summing constant of the space;
    into another target, its norm is computed like any operator's).  The
    search normalizes sampled tuples by mu's exact value when the mu path
    is exact, else by a certified upper bound, so the reported lower bound
    is always sound.

    Upper bound: n^(1/q) ||T||, from ||T x_j|| <= ||T|| max_j ||x_j||.  On a
    Hilbert source (index 2, any weights, real or complex) and p <= 2 it is
    the smaller of that and n^max(1/q - 1/2, 0) * kappa * ||T||: the q-sum
    is at most n^max(1/q - 1/2, 0) ||T|| (sum_j ||x_j||^2)^(1/2), and
    sum_j ||x_j||^2 <= kappa^2 mu_{p,n}(x)^2 with
      kappa = 1 at p = 1, by the Rademacher identity
        sum_j ||x_j||^2 = avg_eps ||sum_j eps_j x_j||^2 <= mu_{1,n}(x)^2;
      kappa = sqrt(min(n, dim)) at 1 < p <= 2, as sum_j ||x_j||^2 is the
        squared Hilbert-Schmidt norm of X : l^2_n -> E, at most
        rank(X) ||X||^2 = rank(X) mu_{2,n}(x)^2, and mu_{2,n} <= mu_{p,n}.
    Two seeds are scored against the bound first: the weight-normalized
    delta tuple (columns e_j / ||e_j||) and (x, 0, ..., 0), x the norming
    vector of ||T|| (e_1 / ||e_1|| for the identity).  One that meets it
    (optim.meets) is the witness and nothing climbs: on l^inf_n and at
    (2,2) the delta seed meets n^(1/q); on a Hilbert source at p = 1 the
    padded tuple meets ||T|| for q >= 2 and an exact ||T||, and the delta
    seed meets n^(1/q - 1/2) for q < 2, T the identity and n <= dim.
    Otherwise seeded_ascent climbs from the delta tuple, and the lower
    bound is the larger of its result's and the padded tuple's, so it is at
    least ||T|| (up to the op-norm search).  NormValue.certified gives the
    verdict; an exact one has method witness_meets_<bound>, naming
    definitional_upper or hilbert_bound.  A genuinely complex operator
    raises FieldError on a real source or target.
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

    if operator is None and tgt == space:
        op_norm_upper, x = 1.0, _unit_delta_tuple(space, 1)[:, 0]
    else:
        res = op_norm_between(T, space, tgt, cfg)
        # op_norm_between's witness norms the weight-absorbed matrix; undo the source weights
        op_norm_upper, x = res.upper, None if res.witness is None else np.asarray(res.witness) / _weight_root(space)
    candidates = [] if x is None else [np.pad(x[:, None], ((0, 0), (0, n - 1)))]
    upper, bound = n ** (1.0 / q) * op_norm_upper, "definitional_upper"
    if space.p == 2 and p <= 2:
        kappa = 1.0 if p == 1 else math.sqrt(min(n, space.dim))
        hilbert = n ** max(1.0 / q - 0.5, 0.0) * kappa * op_norm_upper
        if hilbert < upper:
            upper, bound = hilbert, "hilbert_bound"

    def q_sum(Y: np.ndarray) -> np.ndarray:
        return lp_norm(tgt.norm_cols(Y), q)

    score = _scaled_score(lambda C: mu_scale(p, C, space, cfg)[0], lambda C, s: T @ C / s, q_sum)
    # the seeds are scored here, not passed to the ascent: a start added there re-deals every restart's directions
    seeds = [_unit_delta_tuple(space, n)] + candidates
    i, best = _first_max(score(np.stack(seeds)))
    if meets(best, upper):
        candidates = [seeds[i]]
    else:
        _, cols = seeded_ascent(
            project=unconstrained,
            value=score,
            seeds=[delta_tuple(space.dim, n, space.is_complex)],
            shape=(space.dim, n),
            cfg=cfg,
            complex_field=space.is_complex,
        )
        candidates.insert(0, cols)
    lower, witness = 0.0, None
    for cols in candidates:
        scale = mu_weak(p, VectorTuple(cols, space), cfg).upper
        if scale > 0:
            val = min(q_sum(T @ cols / scale), upper)
            if witness is None or val > lower:
                lower, witness = val, {"tuple": cols / scale}
    res = NormValue.certified(lower, upper, witness, "tuple_ascent")
    return replace(res, method="witness_meets_" + bound) if res.kind == "exact" else res


def _c_n_lower(space: SpaceSpec, n: int) -> float:
    """A certified lower bound of c_n on l^r(w), real or complex: max(1, c).

    For unit x_j, mu_{1,n}(x) >= max_j ||x_j|| = 1, and mu_{1,n}(x)^r is at
    least the average over real signs eps of ||sum_j eps_j x_j||^r =
    sum_k w_k avg_eps |sum_j eps_j x_jk|^r.  Coordinate by coordinate:
      r >= 2: avg_eps |sum_j eps_j a_j|^r >= (avg_eps |sum_j eps_j a_j|^2)^(r/2)
        = (sum_j |a_j|^2)^(r/2) >= sum_j |a_j|^r (Jensen, then l^2 >= l^r), so
        mu^r >= sum_j ||x_j||^r = n and c = n^(1/r).  At r = 2 this is the
        Rademacher identity sum_j ||x_j||^2 = avg_eps ||sum_j eps_j x_j||^2.
      1 <= r < 2: Khintchine's inequality avg_eps |sum_j eps_j a_j|^r >=
        A^r (sum_j |a_j|^2)^(r/2) with A = 1/sqrt(2), the best L^1 constant
        (real a: Szarek, Studia Math. 58, 1976; Haagerup, Studia Math. 70,
        1981; complex a, as vectors of R^2: Latala and Oleszkiewicz,
        Studia Math. 109, 1994, in every normed space), and A_r >= A_1 as
        L^r means dominate L^1 means.  Summed over k, the power mean
        (||.||_{r/2} is superadditive on nonnegative functions for r <= 2)
        gives ||(sum_j |x_j|^2)^(1/2)||_r^2 >= sum_j ||x_j||_r^2 = n, so
        c = sqrt(n / 2).
    """
    c = n ** (1.0 / space.p) if space.p >= 2 else math.sqrt(n / 2.0)
    return max(1.0, c)


def _descent_value(space: SpaceSpec, n: int, levels: int, cfg: OptimConfig):
    """c_n's descent objective: the (B,) values -mu_{1,n} over the pinned grid of levels-th roots of a (B, m, n) stack.

    Equal bit for bit to -_grid_scan(...)[0] of the columns' images: a
    maximum is the same in any order, so each row folds the NaN-ignoring
    maximum of every unit_grid block into -inf, and a row with no number
    keeps -inf.  Raises BudgetError past cfg.max_enum.
    """

    def value(C):
        best = -INF
        for Z in unit_grid(n, levels, cfg.max_enum):
            best = np.fmax(best, np.fmax.reduce(space.norm_cols(C @ Z.T), axis=-1))
        return -best

    return value


def c_n(space: SpaceSpec, n: int, cfg: OptimConfig | None = None) -> NormValue:
    """Bracket of c_n(E) = inf { mu_{1,n}(x) : x_j unit vectors }.

    The lower side is _c_n_lower's: sqrt(n) on a Hilbert space (the
    Rademacher identity), sqrt(n / 2) (Khintchine) on l^r with r < 2,
    n^(1/r) (Jensen) on l^r with r > 2, and never below 1.  For r >= 2
    and n <= dim the weight-normalized delta tuple (columns e_j / ||e_j||,
    disjointly supported, so mu_{1,n} = n^(1/r); orthonormal at r = 2)
    meets it: exact at n^(1/r), sqrt(n) on a Hilbert space, method
    unit_delta_tuple_meets_lower_bound, and no descent runs.  So does the
    pair-sum tuple ((u_1 + u_2)/2, (u_1 - u_2)/2), u_k = e_k / w_k, on real
    l^1(w) at n = 2: mu_{1,2} = max(||u_1||, ||u_2||) = 1 (over C, sqrt(2)).
    Otherwise a descent over unit tuples gives the upper side, the exact mu
    (or its certified upper bound) of the tuple it finds, which is the
    witness.  The descent's objective is _descent_value's, a value-only
    maximum over the sign or phase grid.  Search restarts default to 64
    (minimization landscape is harder than the maxima).
    """
    cfg = cfg or OptimConfig()
    if cfg.restarts < 64:
        cfg = replace(cfg, restarts=64)
    if n < 1:
        raise SpecError("n must be >= 1")
    if n == 1:
        return NormValue.exact(1.0, {"tuple": _unit_delta_tuple(space, 1)}, "single_vector")

    lower = _c_n_lower(space, n)
    seed = None
    if space.p >= 2 and n <= space.dim:
        seed = _unit_delta_tuple(space, n), "unit_delta_tuple_meets_lower_bound"
    elif space.p == 1 and n == 2 and space.dim >= 2 and not space.is_complex:
        u = _unit_delta_tuple(space, 2)
        seed = np.stack([u[:, 0] + u[:, 1], u[:, 0] - u[:, 1]], axis=1) / 2, "pair_sum_tuple_meets_lower_bound"
    if seed is not None:
        cols, method = seed
        res = mu_weak(1.0, VectorTuple(cols, space), cfg)
        if res.kind == "exact" and meets(lower, res.lower):
            return NormValue.exact(lower, {"tuple": cols}, method)

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
        value=_descent_value(space, n, levels, cfg),
        seeds=seeds,
        shape=(m, n),
        cfg=cfg,
        complex_field=space.is_complex,
    )
    found = mu_weak(1.0, VectorTuple(cols, space), cfg).upper
    return NormValue.bracket(lower, max(found, lower), {"tuple": cols}, "unit_tuple_descent")
