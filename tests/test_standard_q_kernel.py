"""Golden test: the block standard q kernel reports what the per-assignment loop it replaced reported.

_looped_value and _looped_enum are frozen copies of the loop that scored
one ordered-partition assignment at a time (itertools.product order, the
first maximum kept) and _looped_search of the local search that scored
one move at a time.  The library scores digit blocks of assignments with
one _standard_q_values call each; values and assignment witnesses must be
identical bit for bit, including grids of more than GRID_BLOCK rows.
"""

from itertools import product

import numpy as np
import pytest

import multinorm as mn
from multinorm.multinorms import _roots_upper, _standard_q_enum, _standard_q_search, exact_evaluator, point_value
from multinorm.optim import meets
from multinorm.partitions import GRID_BLOCK
from multinorm.spaces import _root, lp_norm

S = mn.MultiNormSpec


def _looped_value(space, X, q, assign):
    p = space.p
    contrib = space.w[:, None] * np.abs(X) ** p
    n = X.shape[1]
    parts = np.zeros(n)
    for j in range(n):
        mask = assign == j
        if np.any(mask):
            parts[j] = _root(contrib[mask, j].sum(), p)
    return lp_norm(parts, q)


def _looped_enum(space, X, q):
    m, n = X.shape
    best, best_assign = -np.inf, None
    for assign in product(range(n), repeat=m):
        arr = np.asarray(assign)
        val = _looped_value(space, X, q, arr)
        if val > best:
            best, best_assign = val, arr
    return best, best_assign


def _looped_search(t, q, cfg):
    space, X = t.space, t.columns
    m, n = X.shape

    def climb(assign):
        val = _looped_value(space, X, q, assign)
        improved = True
        while improved:
            improved = False
            for k in range(m):
                old = assign[k]
                for j in range(n):
                    if j == old:
                        continue
                    assign[k] = j
                    v = _looped_value(space, X, q, assign)
                    if v > val + 1e-15:
                        val = v
                        old = j
                        improved = True
                assign[k] = old
        return val, assign

    best, best_assign = climb(np.abs(X).argmax(axis=1).astype(int))
    for start in cfg.stream("standard_q.starts").integers(0, n, size=(min(cfg.restarts, 16), m)):
        val, assign = climb(start)
        if val > best:
            best, best_assign = val, assign
    return best, best_assign


def _draw(rng, shape, is_complex):
    X = rng.standard_normal(shape)
    if is_complex:
        X = X + 1j * rng.standard_normal(shape)
    return X


def _cases(rng, m, n, is_complex):
    X = _draw(rng, (m, n), is_complex)
    tied = X.copy()
    tied[:, -1] = tied[:, 0]  # two equal slots: every maximum has a twin later in the grid
    zero = X.copy()
    zero[:, 0] = 0.0
    return [X, tied, zero, np.zeros((m, n), dtype=X.dtype)]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("r, q", [(1.0, 1.5), (1.0, 2.0), (1.5, 3.0), (2.0, 2.5), (3.0, 4.0)])
def test_block_enumeration_matches_the_per_assignment_loop(field, r, q):
    rng = np.random.default_rng([int(10 * r), int(10 * q), field == "complex"])
    for m, n in ((1, 3), (2, 2), (3, 3), (4, 2), (3, 5), (7, 2)):
        sp = mn.SpaceSpec(r, m, tuple(rng.uniform(0.5, 2.0, m)), field)
        for X in _cases(rng, m, n, sp.is_complex):
            want, want_assign = _looped_enum(sp, X, q)
            got, got_assign = _standard_q_enum(sp, X, q)
            assert isinstance(got, float) and got == want, (m, n)
            assert got_assign.tolist() == want_assign.tolist()
            res = mn.evaluate(S.standard_q(q), mn.VectorTuple(X, sp), mn.OptimConfig())
            assert (res.kind, res.lower, res.method) == ("exact", want, "partition_enum")
            assert res.witness["assignment"].tolist() == want_assign.tolist()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_grids_of_more_than_one_block_match_the_loop(field):
    # dim 6, n 5: 15625 assignments, four digit blocks; the maximum and its ties may sit in any of them
    rng = np.random.default_rng([6, 5, field == "complex"])
    sp = mn.SpaceSpec(1.5, 6, tuple(rng.uniform(0.5, 2.0, 6)), field)
    assert 5**6 > 3 * GRID_BLOCK
    X = _draw(rng, (6, 5), sp.is_complex)
    late = np.zeros_like(X)
    late[:, 4] = X[:, 0]  # only the last slot is nonzero: the first maximum is all rows in slot 4, in the last block
    free = X.copy()
    free[0] = 0.0  # row 0 adds nothing wherever it goes: the maximum recurs, bit for bit, in all four blocks
    for Y in (X, late, free):
        want, want_assign = _looped_enum(sp, Y, 2.5)
        got, got_assign = _standard_q_enum(sp, Y, 2.5)
        assert got == want and got_assign.tolist() == want_assign.tolist()
    assert _standard_q_enum(sp, late, 2.5)[1].tolist() == [4] * 6
    assert _standard_q_enum(sp, free, 2.5)[1][0] == 0
    # stacked, every slice still matches its tuple alone
    stack = np.stack([X, late, X[:, ::-1]])
    values, assigns = _standard_q_enum(sp, stack, 2.5)
    for b in range(3):
        one, one_assign = _standard_q_enum(sp, stack[b], 2.5)
        assert values[b] == one and assigns[b].tolist() == one_assign.tolist()
    fn = exact_evaluator(S.standard_q(2.5), sp, 5, mn.OptimConfig())
    assert fn(stack).tolist() == values.tolist()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_local_search_matches_the_per_move_loop(field):
    rng = np.random.default_rng([9, field == "complex"])
    cfg = mn.OptimConfig(seed=3, restarts=6, max_enum=10)
    kinds = set()
    for (r, q), (m, n) in zip(((1.0, 2.0), (2.0, 3.0), (1.5, 4.0)), ((4, 3), (6, 4), (5, 5))):
        sp = mn.SpaceSpec(r, m, tuple(rng.uniform(0.5, 2.0, m)), field)
        for X in _cases(rng, m, n, sp.is_complex)[:3]:
            t = mn.VectorTuple(X, sp)
            want, want_assign = _looped_search(t, q, cfg)
            res = _standard_q_search(t, q, cfg)
            # the bracket's upper side is the (p,q) bound of every multi-norm, exact where the search meets it
            upper = min(lp_norm(sp.norm_cols(X), q), _roots_upper(sp, X, cfg))
            kind, lower = ("exact", upper) if meets(want, upper) else ("bracket", want)
            assert (res.kind, res.lower, res.upper, res.method) == (kind, lower, upper, "partition_local_search")
            assert res.witness["assignment"].tolist() == want_assign.tolist()
            kinds.add(kind)
            # n^m > 10 assignments: evaluate and point_value take the same search
            assert mn.evaluate(S.standard_q(q), t, cfg).lower == lower == point_value(S.standard_q(q), sp, X, cfg)
    assert "bracket" in kinds


def test_standard_q_audit_is_exact_on_stacks():
    # every audited width fits the enumeration, so the audit runs the block kernel on stacks
    sp = mn.SpaceSpec(2.0, 3)
    rep = mn.check_axioms(S.standard_q(3), sp, 4, 200)
    assert rep.mode == "exact" and rep.ok and rep.checked == ["A1", "A2", "A3", "A4"]
