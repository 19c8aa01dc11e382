"""Golden test: the stacked exact p->q kernel gives every slice what the per-matrix kernel gave it.

_per_matrix_op_norm_exact is a frozen copy of the one-matrix _op_norm_exact
(and _block_sign_supremum of the block sign enumeration it called).  The
stacked _op_norm_exact gets (B, m, n) stacks that mix dense,
generalized-permutation and all-zero slices, and must return for each
slice the same value bit for bit, an array_equal witness of the same
dtype, and the same method name; value NaN, a NaN witness row and method
"" where the frozen copy had no exact path.  Stacked mu_scale must equal
mu_scale tuple by tuple.
"""

import math

import numpy as np
import pytest

from multinorm.optim import INF, NormValue, OptimConfig, _op_norm_exact, field_normal, lp_norm, op_norm_pq
from multinorm.partitions import unit_grid
from multinorm.spaces import MatrixOp, SpaceSpec, conjugate_index, phase
from multinorm.summing import mu_scale


def _block_sign_supremum(f, n, cfg):
    best, best_eps = -INF, None
    for E in unit_grid(n, 2, cfg.max_enum):
        vals = np.where(np.isnan(f(E)), -INF, f(E))
        i = int(np.argmax(vals))
        if float(vals[i]) > best:
            best, best_eps = float(vals[i]), E[i].copy()
    return NormValue.exact(best, best_eps, "sign_enum")


def _per_matrix_op_norm_exact(A, p, q, cfg, complex_field):
    m, n = A.shape

    if p == 1:
        cols = lp_norm(A, q, axis=-2)
        j = int(np.argmax(cols))
        e = np.zeros(n, dtype=complex if complex_field else float)
        e[j] = 1.0
        return NormValue.exact(float(cols[j]), e, "max_column_norm")

    if q == INF:
        pp = conjugate_index(p)
        rows = lp_norm(A.T, pp, axis=-2)
        i = int(np.argmax(rows))
        r = A[i, :]
        ar = np.abs(r)
        if rows[i] == 0:
            x = np.zeros(n, dtype=complex if complex_field else float)
        elif p == INF:
            x = phase(np.conj(r))
        else:
            x = phase(np.conj(r)) * (ar / rows[i]) ** (pp - 1.0)
            x = x / max(lp_norm(x, p), 1e-300)
        if not complex_field:
            x = np.real(x)
        return NormValue.exact(float(rows[i]), x, "max_row_dual_norm")

    if p == 2 and q == 2:
        U, s, Vh = np.linalg.svd(A)
        x = np.conj(Vh[0, :])
        if not complex_field:
            x = np.real(x)
        return NormValue.exact(float(s[0]), x, "svd")

    nz_per_row = (np.abs(A) > 0).sum(axis=1)
    nz_per_col = (np.abs(A) > 0).sum(axis=0)
    if nz_per_row.max(initial=0) <= 1 and nz_per_col.max(initial=0) <= 1:
        cols_nz = np.where(nz_per_col > 0)[0]
        dvals = np.array([A[np.argmax(np.abs(A[:, j])), j] for j in cols_nz])
        x = np.zeros(n, dtype=complex if complex_field else float)
        if dvals.size == 0:
            return NormValue.exact(0.0, x, "diagonal_like")
        ad = np.abs(dvals)
        if p <= q:
            jbest = int(np.argmax(ad))
            x[cols_nz[jbest]] = 1.0
            return NormValue.exact(float(ad.max()), x, "diagonal_like")
        t = q if p == INF else p * q / (p - q)
        if p == INF:
            x[cols_nz] = np.conj(phase(dvals))
        else:
            mags = ad ** (t / p)
            mags = mags / lp_norm(mags, p)
            x[cols_nz] = mags * np.conj(phase(dvals))
        if not complex_field:
            x = np.real(x)
        return NormValue.exact(lp_norm(ad, t), x, "diagonal_like")

    if not complex_field and p == INF and 2 ** (n - 1) <= cfg.max_enum:
        res = _block_sign_supremum(lambda E: lp_norm(E @ A.T, q), n, cfg)
        return NormValue.exact(res.lower, res.witness, "sign_enum_inputs")

    if not complex_field and q == 1 and 2 ** (m - 1) <= cfg.max_enum:
        pp = conjugate_index(p)
        res = _block_sign_supremum(lambda S: lp_norm(S @ A, pp), m, cfg)
        g = A.T @ res.witness
        ag = np.abs(g)
        nx = lp_norm(g, pp)
        if nx == 0:
            x = np.zeros(n)
        elif p == INF:
            x = np.sign(g) + (g == 0)
        else:
            x = np.sign(g) * (ag / nx) ** (pp - 1.0)
            x = x / max(lp_norm(x, p), 1e-300)
        return NormValue.exact(res.lower, x, "sign_enum_outputs")

    return None


# every rule: p = 1, q = inf, p = q = 2, sign enumerations over inputs and outputs, and roles with none
ROLES = [(1, 1), (1, 1.5), (1, 2), (1, INF), (1.5, INF), (2, INF), (3, INF), (INF, INF), (2, 2)]
ROLES += [(INF, 1), (INF, 1.5), (INF, 2), (INF, 3), (1.5, 1), (2, 1), (3, 1), (1.5, 1.5), (3, 2), (1.5, 3)]


def _mixed_stack(rng, m, n, is_complex):
    """Dense, sparse, generalized-permutation, all-zero, zero-row and tied slices, in one stack."""
    dense = field_normal(rng, (4, m, n), is_complex)
    perm = np.zeros((3, m, n), dtype=dense.dtype)
    for P in perm:
        k = int(rng.integers(0, min(m, n) + 1))
        rows, cols = rng.permutation(m)[:k], rng.permutation(n)[:k]
        P[rows, cols] = field_normal(rng, k, is_complex)
    zero_row = field_normal(rng, (1, m, n), is_complex)
    zero_row[0, rng.integers(0, m)] = 0.0
    ties = rng.integers(-1, 2, size=(2, m, n)).astype(dense.dtype)
    sparse = dense[:1] * (rng.random((1, m, n)) < 0.4)
    return np.concatenate([dense[:2], perm[:1], np.zeros((1, m, n), dtype=dense.dtype), zero_row, ties, perm[1:], sparse, dense[2:]])


def _assert_slices_match(S, p, q, cfg, is_complex):
    values, witnesses, methods = _op_norm_exact(S, p, q, cfg, is_complex)
    assert len(values) == len(witnesses) == len(methods) == len(S)
    for b, A in enumerate(S):
        want = _per_matrix_op_norm_exact(A, p, q, cfg, is_complex)
        if want is None:
            assert math.isnan(values[b]) and np.isnan(witnesses[b]).all() and methods[b] == ""
            continue
        assert methods[b] == want.method
        assert float(values[b]) == want.lower
        assert witnesses[b].dtype == want.witness.dtype
        assert np.array_equal(witnesses[b], want.witness)


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("role", ROLES)
def test_stacked_kernel_matches_per_matrix_kernel(is_complex, role):
    p, q = role
    rng = np.random.default_rng(31)
    cfg = OptimConfig()
    for m in range(1, 7):
        for n in range(1, 7):
            _assert_slices_match(_mixed_stack(rng, m, n, is_complex), p, q, cfg, is_complex)


@pytest.mark.parametrize("role", [(1, 3), (2, INF), (2, 2), (1.5, 1.5), (INF, 1), (INF, 1.5), (3, 1.5), (3, 2)])
def test_stacked_kernel_matches_on_wide_slices(role):
    # 9 entries per row or column: numpy sums 8 or more contiguous entries pairwise
    rng = np.random.default_rng(5)
    for is_complex in (False, True):
        for m, n in ((9, 9), (2, 11), (11, 3)):
            _assert_slices_match(_mixed_stack(rng, m, n, is_complex), *role, OptimConfig(), is_complex)


@pytest.mark.parametrize("role", [(INF, 1.5), (INF, 1), (2, 1), (3, 1)])
def test_stacked_kernel_at_sign_enumeration_budget_edge(role):
    # 2^(n-1) (inputs) or 2^(m-1) (outputs) pinned sign vectors: exactly max_enum, then one over it
    rng = np.random.default_rng(8)
    for m, n in ((4, 4), (2, 5), (5, 2)):
        edge = 2 ** ((n if role[0] == INF else m) - 1)
        for max_enum in (edge, edge - 1):
            S = _mixed_stack(rng, m, n, False)
            _assert_slices_match(S, *role, OptimConfig(max_enum=max_enum), False)


def test_stacked_kernel_sign_enumeration_spans_grid_blocks():
    # 2^13 pinned sign vectors are two unit_grid blocks; a zero second column ties each block's maximum with the other's
    rng = np.random.default_rng(2)
    S = _mixed_stack(rng, 3, 14, False)[:7]
    S[-1, :, 1] = 0.0
    _assert_slices_match(S, INF, 1.5, OptimConfig(), False)
    _assert_slices_match(np.swapaxes(S, -1, -2).copy(), 2, 1, OptimConfig(), False)


def test_op_norm_pq_is_the_kernel_on_one_slice():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 4))
    for p, q in ((1, 2), (INF, 1.5), (2, 1), (1.5, 3)):
        res = op_norm_pq(MatrixOp(A, p, q), OptimConfig())
        want = _per_matrix_op_norm_exact(A, p, q, OptimConfig(), False)
        if want is None:
            assert res.method == "power_ascent"
        else:
            assert (res.kind, res.lower, res.method) == ("exact", want.lower, want.method)
            assert np.array_equal(res.witness, want.witness)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, INF])
def test_stacked_mu_scale_matches_per_tuple(field, r):
    rng = np.random.default_rng(77)
    cfg = OptimConfig(seed=8, restarts=2, grid_points=16)
    for weighted in (False, True):
        m = 3
        space = SpaceSpec(r, m, tuple(rng.uniform(0.5, 2.0, m)) if weighted else (), field)
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            for n in (1, 2, 4):
                S = _mixed_stack(rng, m, n, space.is_complex)
                values, exact = mu_scale(p, S, space, cfg)
                assert values.shape == exact.shape == (len(S),)
                for b, X in enumerate(S):
                    value, ex = mu_scale(p, X, space, cfg)
                    assert (float(values[b]), bool(exact[b])) == (value, ex)
