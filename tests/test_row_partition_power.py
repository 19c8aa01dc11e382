"""The row-partition levels take their dense slices' lower sides from a stacked power iteration, and nothing climbs.

optim._power_ascent takes a (B, m, n) stack and gives every slice what
it gets alone, bit for bit.  summing._row_partition_levels gives each
slice without an exact rule the larger of the best row image and that
power iteration, on the absorbed operators scaled by a power of two.
mb_norm, mb_tuple_norm and rate_of_growth then value the closed-form
witness and certify it against its bound without seeded_ascent.  The
frozen copies below climb as those callers did before: no level may fall
against them, and the scaling keeps levels homogeneous from 1e-170 to
1e150.  _frozen_diagonal_like is a frozen copy of optim._diagonal_like
with its np.unique grouping.
"""

import math

import numpy as np
import pytest

import multinorm as mn
from multinorm import INF, MultiNormSpec as S, OptimConfig, SpaceSpec
from multinorm import multinorms, operators, optim, summing
from multinorm.errors import DegenerateNormError
from multinorm.multinorms import point_evaluator
from multinorm.optim import _diagonal_like, _power_ascent, field_normal, meets, seeded_ascent, unconstrained
from multinorm.operators import _delta_tuples
from multinorm.spaces import delta_tuple, lp_norm, phase, roots_tuple
from multinorm.summing import _row_partition_levels, _scaled_score, op_norm_between

CFG = OptimConfig(seed=3, restarts=2)
FALL = 4e-15  # relative slack for rounding: the bounds are taken on the operators scaled by a power of two


def _same(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("complex_field", (False, True))
@pytest.mark.parametrize("p, q", [(1.5, 3.0), (3.0, 3.0), (INF, 1.5), (INF, 3.0), (1.5, 1.0), (4.0, 1.0), (1.2, 1.5)])
def test_each_slice_of_the_stack_is_its_lone_call(p, q, complex_field):
    # dense, rank-one, partly zero and all-zero slices, in stacks of 1, 2 and 9, over 1 and 4 restarts
    rng = np.random.default_rng([int(10 * p) if p < INF else 99, int(10 * q), complex_field])
    for m, n in ((3, 3), (4, 2), (2, 5)):
        Sk = field_normal(rng, (9, m, n), complex_field)
        Sk[2] = 0
        Sk[3, :-1] = 0
        Sk[4] = np.outer(Sk[4, :, 0], Sk[4, 0, :])
        for restarts in (1, 4):
            cfg = OptimConfig(seed=restarts, restarts=restarts)
            for B in (1, 2, 9):
                values, W = _power_ascent(Sk[:B], p, q, cfg, complex_field)
                assert values.shape == (B,) and W.shape == (B, n)
                for b in range(B):
                    lone, x = _power_ascent(Sk[b], p, q, cfg, complex_field)
                    assert values[b] == lone
                    assert _same(W[b], x) if x is not None else (lone == 0.0 and np.isnan(W[b]).all())


def test_a_stack_past_its_chunk_climbs_in_chunks_without_changing_a_bit(monkeypatch):
    Sk = field_normal(np.random.default_rng(4), (40, 3, 3), True)
    whole = _power_ascent(Sk, 1.5, 3.0, CFG, True)
    monkeypatch.setattr(optim, "_POWER_ENTRIES", 7 * 6 * 3 * 3)  # seven slices of six starts per chunk
    cut = _power_ascent(Sk, 1.5, 3.0, CFG, True)
    assert np.array_equal(whole[0], cut[0]) and _same(whole[1], cut[1])


# ---------------------------------------------------------------------------
# frozen copies of the climbs the closed form replaced


def _score(Ts, source, target, cfg):
    return _scaled_score(
        point_evaluator(S.min_spec(), source, cfg),
        lambda C, s: np.concatenate([T @ C / s for T in Ts], axis=-1),
        point_evaluator(S.lattice(), target, cfg),
    )


@pytest.fixture
def row_image_levels(monkeypatch):
    """_row_partition_levels with only the rows' norming vectors from below, as before the power iteration."""

    def levels(Ts, source, target, n_max, cfg):
        with monkeypatch.context() as mp:
            mp.setattr(summing, "_power_ascent", lambda Sk, *a: (np.zeros(len(Sk)), np.full(Sk.shape[::2], np.nan)))
            return _row_partition_levels(Ts, source, target, n_max, cfg)

    return levels


def _climbed_mb_norm(T, sp, n_max, cfg, levels):
    """mb_norm's min -> lattice levels as they were: a witness short of its level's cap climbs from the delta tuples and the last witness."""
    T = operators._operator(T, sp, sp)
    opn = op_norm_between(T, sp, sp, cfg)
    score = _score([T], sp, sp, cfg)
    p_seq, prev = [], None
    for n, (cols, bound) in enumerate(levels([T], sp, sp, n_max, cfg), start=1):
        cap = n * opn.lower if opn.kind == "exact" else INF
        upper_n, level_cap, found = min(n * opn.upper, bound), min(cap, bound), float(score(cols[None])[0])
        if not meets(found, level_cap):
            seeds = _delta_tuples(sp.dim, n, sp.is_complex)
            if prev is not None:
                seeds.append(np.concatenate([prev, prev[:, -1:]], axis=1))
            val, climbed = seeded_ascent(unconstrained, score, seeds, (sp.dim, n), cfg, sp.is_complex, ceiling=level_cap)
            if val >= found:
                found, cols = val, climbed
        val = max(found, p_seq[-1] if p_seq else 0.0)
        p_seq.append(level_cap if meets(val, level_cap) else min(val, upper_n))
        prev = cols
    return p_seq


def _climbed_tuple_norm(Ts, sp, k_max, cfg, levels):
    Ts = [operators._operator(T, sp, sp) for T in Ts]
    score = _score(Ts, sp, sp, cfg)
    cols, upper = levels(Ts, sp, sp, k_max, cfg)[-1]
    best = float(score(cols[None])[0])
    if not meets(best, upper):
        for k in range(1, k_max + 1):
            best = max(best, seeded_ascent(unconstrained, score, _delta_tuples(sp.dim, k, sp.is_complex), (sp.dim, k), cfg, sp.is_complex)[0])
    return mn.NormValue.certified(best, upper)


def _climbed_growth(spec, sp, n, cfg, levels):
    value = point_evaluator(spec, sp, cfg)
    per_op = [levels([T], sp, sp, n, cfg)[-1] for T in spec.ops]
    best = max(float(value(W[None])[0]) for W, _ in per_op)
    upper = max(u for _, u in per_op)
    if not meets(best, upper):
        project = summing.unit_columns(sp)
        ends, ok = project(np.array([delta_tuple(sp.dim, n, sp.is_complex), np.ones((sp.dim, n), dtype=complex if sp.is_complex else float)]))
        roots, nr = roots_tuple(sp.dim, n, sp.is_complex), sp.norm_cols(roots_tuple(sp.dim, n, sp.is_complex))
        seeds = [ends[0]] * bool(ok[0]) + [roots / nr[None, :]] * bool(np.all(nr > 0)) + [ends[1]] * bool(ok[1])
        best = max(best, seeded_ascent(project, value, seeds, (sp.dim, n), cfg, sp.is_complex)[0])
    return mn.NormValue.certified(best, upper)


def _spaces(rng):
    """Two draws of each index, field and weighting, on 2 to 4 coordinates."""
    for r in (1.2, 1.5, 3.0, 4.0):
        for field in ("real", "complex"):
            for weighted in (False, True, False, True):
                m = 2 + int(rng.integers(3))
                yield SpaceSpec(r, m, tuple(rng.uniform(0.5, 2.0, m)) if weighted else (), field)


def test_no_mb_norm_level_falls(row_image_levels):
    rng = np.random.default_rng(11)
    rose = 0
    for sp in _spaces(rng):
        T = field_normal(rng, (sp.dim, sp.dim), sp.is_complex)
        res = mn.mb_norm(T, sp, S.min_spec(), sp, S.lattice(), 3, CFG)
        old = _climbed_mb_norm(T, sp, 3, CFG, row_image_levels)
        for n, (new, was) in enumerate(zip(res.p_seq, old), start=1):
            assert new >= was * (1 - FALL), (sp, n, new, was)
            rose += new > was * (1 + FALL)
    assert rose  # the power iteration reaches past the climbs somewhere


def test_no_tuple_norm_or_extended_growth_falls(row_image_levels):
    rng = np.random.default_rng(12)
    for sp in _spaces(rng):
        Ts = [field_normal(rng, (sp.dim, sp.dim), sp.is_complex) for _ in range(2 + sp.dim % 2)]
        new = mn.mb_tuple_norm(Ts, sp, S.min_spec(), sp, S.lattice(), 2, CFG)
        old = _climbed_tuple_norm(Ts, sp, 2, CFG, row_image_levels)
        assert new.upper == pytest.approx(old.upper, rel=FALL) and new.lower >= old.lower * (1 - FALL), sp
        assert new.kind == old.kind or (old.kind, new.kind) == ("bracket", "exact")
        spec = S.extended(S.lattice(), [np.eye(sp.dim), Ts[0]])
        new = mn.rate_of_growth(spec, sp, 2, CFG)
        old = _climbed_growth(spec, sp, 2, CFG, row_image_levels)
        assert new.upper == pytest.approx(old.upper, rel=FALL) and new.lower >= old.lower * (1 - FALL), sp
        assert new.kind == old.kind or (old.kind, new.kind) == ("bracket", "exact")


# ---------------------------------------------------------------------------
# no climb where the closed form exists


@pytest.fixture
def climbs(monkeypatch):
    ran = []
    for module in (operators, multinorms):
        real = module.seeded_ascent
        monkeypatch.setattr(module, "seeded_ascent", lambda *a, real=real, **k: ran.append(a[3]) or real(*a, **k))
    return ran


def test_closed_levels_never_climb(climbs):
    rng = np.random.default_rng(13)
    for r in (1.5, 3.0):
        sp = SpaceSpec(r, 3, (0.5, 2.0, 1.25), "complex")
        Ts = [field_normal(rng, (3, 3), True) for _ in range(2)]
        res = mn.mb_norm(Ts[0], sp, S.min_spec(), sp, S.lattice(), 4, CFG)
        assert res.sup_estimate.kind == "lower" and res.monotone
        assert mn.mb_tuple_norm(Ts, sp, S.min_spec(), sp, S.lattice(), 2, CFG).method == "row_partition"
        assert mn.rate_of_growth(S.extended(S.lattice(), [np.eye(3), Ts[0]]), sp, 2, CFG).method == "row_partition"
    assert climbs == []


def test_past_max_enum_the_callers_still_climb(climbs):
    sp = SpaceSpec(3.0, 3)
    T = np.random.default_rng(14).standard_normal((3, 3))
    small = OptimConfig(seed=3, restarts=2, max_enum=12)  # 7 slices but 13 splits on three rows
    assert _row_partition_levels([T], sp, sp, 2, small) is None
    mn.mb_norm(T, sp, S.min_spec(), sp, S.lattice(), 2, small)
    assert mn.mb_tuple_norm([T], sp, S.min_spec(), sp, S.lattice(), 2, small).method == "tuple_ascent_k<=2"
    assert mn.rate_of_growth(S.extended(S.lattice(), [np.eye(3), T]), sp, 2, small).method == "unit_tuple_ascent"
    assert climbs == [(3, 1), (3, 2), (3, 1), (3, 2), (3, 2)]


# ---------------------------------------------------------------------------
# homogeneity: large and tiny entries


def _levels(T, sp, n_max=3):
    return mn.mb_norm(T, sp, S.min_spec(), sp, S.lattice(), n_max, CFG), _row_partition_levels([T], sp, sp, n_max, CFG)


@pytest.mark.parametrize("r", (1.0, 1.5, 2.0, 3.0, INF))
@pytest.mark.parametrize("field", ("real", "complex"))
def test_levels_scale_with_the_operator(r, field):
    sp = SpaceSpec(r, 3, (0.5, 2.0, 1.25), field)
    T = field_normal(np.random.default_rng(15), (3, 3), sp.is_complex)
    base, bounds = _levels(T, sp)
    for c in (1e10, 1e-10):
        res, scaled = _levels(c * T, sp)
        assert res.p_seq == pytest.approx([c * v for v in base.p_seq], rel=1e-12)
        assert res.sup_estimate.kind == base.sup_estimate.kind
        assert res.sup_estimate.upper == pytest.approx(c * base.sup_estimate.upper, rel=1e-12)
        for (_, u), (_, v) in zip(bounds, scaled):
            assert v == pytest.approx(c * u, rel=1e-12)
        tup = mn.mb_tuple_norm([c * T, c * T.T], sp, S.min_spec(), sp, S.lattice(), 2, CFG)
        want = mn.mb_tuple_norm([T, T.T], sp, S.min_spec(), sp, S.lattice(), 2, CFG)
        assert (tup.kind, tup.method) == (want.kind, want.method)
        assert tup.lower == pytest.approx(c * want.lower, rel=1e-12) and tup.upper == pytest.approx(c * want.upper, rel=1e-12)


@pytest.mark.parametrize("c", (1e150, 1e-170))
def test_large_and_tiny_entries(c):
    # at r = 3 the r-th powers of 1e150 overflow and those of 1e-170 underflow; the levels are c times those of T
    sp = SpaceSpec(3.0, 2)
    T = np.array([[1.0, 2.0], [1.0, 1.0]])
    base = mn.mb_norm(T, sp, S.min_spec(), sp, S.lattice(), 2, CFG)
    res = mn.mb_norm(c * T, sp, S.min_spec(), sp, S.lattice(), 2, CFG)
    assert all(math.isfinite(v) and v > 0 for v in res.p_seq)
    assert res.p_seq == pytest.approx([c * v for v in base.p_seq], rel=1e-12)
    assert res.sup_estimate.kind == base.sup_estimate.kind
    tup = mn.mb_tuple_norm([c * T], sp, S.min_spec(), sp, S.lattice(), 2, CFG)
    want = mn.mb_tuple_norm([T], sp, S.min_spec(), sp, S.lattice(), 2, CFG)
    assert tup.kind == want.kind and tup.upper == pytest.approx(c * want.upper, rel=1e-12)
    assert tup.lower == pytest.approx(c * want.lower, rel=1e-12)
    for W, u in _row_partition_levels([c * T], sp, sp, 2, CFG):
        assert 0 < u < INF


def test_growth_of_an_overflowing_family_raises_degenerate():
    # the family's own value of the witness overflows: no IndexError and no made-up certificate
    sp = SpaceSpec(3.0, 2)
    spec = S.extended(S.lattice(), [np.eye(2), np.array([[1e150, 2e150], [1e150, 1.0]])])
    with np.errstate(over="ignore"), pytest.raises(DegenerateNormError):
        mn.rate_of_growth(spec, sp, 2, CFG)
    # a tiny member leaves the identity's growth in charge
    tiny = mn.rate_of_growth(S.extended(S.lattice(), [np.eye(2), np.array([[1e-170, 2e-170], [1e-170, 1e-170]])]), sp, 2, CFG)
    assert (tiny.kind, tiny.lower) == ("exact", pytest.approx(2 ** (1 / 3), rel=1e-15))


# ---------------------------------------------------------------------------
# _diagonal_like without np.unique


def _frozen_diagonal_like(D, p, q, complex_field):
    d = np.take_along_axis(D, np.abs(D).argmax(axis=-2)[:, None], axis=-2)[:, 0]
    ad = np.abs(d)
    if p <= q:
        return ad.max(axis=-1), np.eye(ad.shape[-1])[ad.argmax(axis=-1)] * ad.any(axis=-1)[:, None]
    t = q if p == INF else p * q / (p - q)
    mags = ad ** (t / p)
    counts, order = (ad > 0).sum(axis=-1), np.argsort(ad == 0, axis=-1, kind="stable")
    A, M = np.take_along_axis(ad, order, axis=-1), np.take_along_axis(mags, order, axis=-1)
    widths = np.where(counts < 8, min(counts.max(), 7), counts)
    values, norms = np.empty(len(D)), np.empty(len(D))
    for k in np.unique(widths).tolist():
        g = widths == k
        values[g], norms[g] = lp_norm(A[g, :k], t), lp_norm(M[g, :k], p)
    W = np.where(ad > 0, np.conj(phase(d)), 0.0) if p == INF else mags / np.where(norms == 0, 1.0, norms)[:, None] * np.conj(phase(d))
    return values, W if complex_field else np.real(W)


@pytest.mark.parametrize("complex_field", (False, True))
def test_diagonal_like_groups_widths_without_unique(complex_field, monkeypatch):
    # generalized permutations of 10 coordinates with 0..10 nonzero entries: widths under 8 share one padded sum, 8, 9 and 10 go apart
    rng = np.random.default_rng(16)
    D = np.zeros((33, 10, 10), dtype=complex if complex_field else float)
    for b in range(33):
        k = b % 11
        rows, cols = rng.permutation(10)[:k], rng.permutation(10)[:k]
        D[b, rows, cols] = field_normal(rng, k, complex_field)
    want = {(p, q): _frozen_diagonal_like(D, p, q, complex_field) for p, q in [(3.0, 1.5), (INF, 2.0), (2.0, 1.0), (1.5, 3.0)]}

    def unique(*a, **k):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", unique)
    for (p, q), (values, W) in want.items():
        got = _diagonal_like(D, p, q, complex_field)
        assert _same(got[0], values) and _same(got[1], W)
