"""Golden test: the stacked audits report exactly what the per-trial loops they replaced reported.

The _looped_* functions are frozen copies of the loops that evaluated
one trial's tuples with one point_value call each and built one MatrixOp
per law trial.  They draw every trial at once, one block per draw kind
from the audit's cfg.stream(site, kind), and take trial t's numbers from
row t.  The library audits draw one block per chunk of trials and
evaluate the chunk as stacks; their reports (violations, gaps, witnesses)
must be identical bit for bit, so a trial's numbers do not depend on the
chunking either.  The value-map tests also compare every evaluated
tuple's value, violation or not, and the call-count tests check that a
chunk makes one evaluation call per (width, dtype).
"""

import json
import math
import sys

import numpy as np
import pytest

import multinorm as mn
from multinorm import cli, matrixlaws, multinorms
from multinorm.decompositions import generated_value
from multinorm.matrixlaws import LawViolation, MatrixLawReport
from multinorm.multinorms import AxiomReport, AxiomViolation, _stack_values, is_exact_path, point_value
from multinorm.optim import COUNTS, NORMALS, UNIFORMS, _op_norm_exact, field_normal, field_normal_block, op_norm_pq
from multinorm.partitions import GRID_BLOCK, set_partitions
from multinorm.spaces import INF, MatrixOp, SpaceSpec, delta_tuple

Spec = mn.MultiNormSpec


# ---------------------------------------------------------------------------
# frozen per-trial loops


def _looped_check_axioms(spec, space, n_max, trials, cfg, tol=None):
    exact = is_exact_path(spec, space, n_max + 1, cfg)
    if tol is None:
        tol = 1e-8 if exact else 2e-2
    mode = "exact" if exact else "heuristic"
    dual = spec.is_dual_multinorm()
    checked = ["A1", "A2", "A3", "B4" if dual else "A4"]
    val = lambda X: point_value(spec, space, X, cfg)
    violations = []
    m = space.dim
    counts, normals, uniforms = (cfg.stream("axioms", kind) for kind in (COUNTS, NORMALS, UNIFORMS))
    ns = counts.integers(2, n_max + 1, size=trials)
    Xs = field_normal_block(normals, trials, (m, n_max), space.is_complex)
    U = uniforms.random((trials, 3 if space.is_complex else 2, n_max))
    for trial in range(trials):
        n = int(ns[trial])
        X = Xs[trial][:, :n]
        base = val(X)
        perm = np.argsort(U[trial, 0, :n])
        lhs = val(X[:, perm])
        if abs(lhs - base) > tol * max(1.0, base):
            violations.append(AxiomViolation("A1", n, lhs, base, abs(lhs - base), {"tuple": X, "perm": perm}))
        alpha = 2.0 * U[trial, 1, :n]
        if space.is_complex:
            alpha = alpha * np.exp(2j * np.pi * U[trial, 2, :n])
        lhs = val(X * alpha[None, :])
        rhs = float(np.abs(alpha).max()) * base
        if lhs > rhs + tol * max(1.0, rhs):
            violations.append(AxiomViolation("A2", n, lhs, rhs, lhs - rhs, {"tuple": X, "alpha": alpha}))
        padded = np.concatenate([X, np.zeros((m, 1), dtype=X.dtype)], axis=1)
        lhs = val(padded)
        if abs(lhs - base) > tol * max(1.0, base):
            violations.append(AxiomViolation("A3", n + 1, lhs, base, abs(lhs - base), {"tuple": X}))
        rep = np.concatenate([X, X[:, -1:]], axis=1)
        if not dual:
            lhs = val(rep)
            if abs(lhs - base) > tol * max(1.0, base):
                violations.append(AxiomViolation("A4", n + 1, lhs, base, abs(lhs - base), {"tuple": X}))
        else:
            doubled = X.copy()
            doubled[:, -1] *= 2.0
            lhs = val(rep)
            rhs = val(doubled)
            if abs(lhs - rhs) > tol * max(1.0, rhs):
                violations.append(AxiomViolation("B4", n + 1, lhs, rhs, abs(lhs - rhs), {"tuple": X}))
    return AxiomReport(checked, violations, trials, tol, mode)


def _looped_matrix_law(spec, space, p_role, trials, cfg, tol=1e-9, fixed_matrices=None):
    violations = []
    mdim = space.dim
    fixed = [np.asarray(M) for M in (fixed_matrices or [])]
    fixed = [A.astype(complex) if space.is_complex and np.iscomplexobj(A) else np.real(A).astype(float) for A in fixed]
    counts, normals, uniforms = (cfg.stream("matrix_law", kind) for kind in (COUNTS, NORMALS, UNIFORMS))
    width = max([4] + [A.shape[1] for A in fixed])
    sizes = counts.integers(1, 5, size=(trials, 2))
    Xs = field_normal_block(normals, trials, (mdim, width), space.is_complex)
    U = uniforms.random((trials, 33))
    for trial in range(trials):
        n, m = (int(k) for k in sizes[trial])
        if fixed and trial < len(fixed):
            A = fixed[trial]
            n = A.shape[1]
        else:
            A = 2.0 * U[trial, :16].reshape(4, 4)[:m, :n] - 1.0
            if space.is_complex and U[trial, 32] < 0.5:
                A = A + 1j * (2.0 * U[trial, 16:32].reshape(4, 4)[:m, :n] - 1.0)
        X = Xs[trial][:, :n]
        res = op_norm_pq(MatrixOp(A, p_role, p_role), cfg)
        anorm = res.lower if res.kind == "exact" else res.upper
        lhs = point_value(spec, space, X @ A.T, cfg)
        rhs = point_value(spec, space, X, cfg)
        bound = anorm * rhs
        if lhs > bound + tol * max(1.0, bound):
            violations.append(LawViolation(lhs, bound, A, X))
    return MatrixLawReport(p_role, trials, tol, violations)


def _looped_coagulation(spec, space, trials, cfg, tol=1e-9):
    violations = []
    m = space.dim
    counts, normals, uniforms = (cfg.stream("coagulation", kind) for kind in (COUNTS, NORMALS, UNIFORMS))
    ns = counts.integers(2, 5, size=trials)
    Xs = field_normal_block(normals, trials, (m, 4), space.is_complex)
    picks = uniforms.random(trials)
    for trial in range(trials):
        n = int(ns[trial])
        X = Xs[trial][:, :n]
        parts = list(set_partitions(n))
        blocks = parts[int(picks[trial] * len(parts))]
        Y = np.stack([X[:, b].sum(axis=1) for b in blocks], axis=1)
        lhs = point_value(spec, space, Y, cfg)
        rhs = point_value(spec, space, X, cfg)
        if lhs > rhs + tol * max(1.0, rhs):
            violations.append(LawViolation(lhs, rhs, blocks, X))
    return MatrixLawReport(1.0, trials, tol, violations)


def _looped_is_small(d, spec, space, trials, cfg, tol=1e-8):
    k = d.length
    Ps = d.projections
    worst_gap, witness = 0.0, None
    Xs = field_normal_block(cfg.stream("small", NORMALS), trials, (space.dim, k), space.is_complex)
    for ti in range(trials):
        X = Xs[ti]
        if ti == 0:
            X = delta_tuple(space.dim, k, space.is_complex)
        elif ti == 1:
            X = np.ones_like(X)
        elif ti % 3 == 1:
            X = np.stack([P @ X[:, i] for i, P in enumerate(Ps)], axis=1)
        y = sum(Ps[i] @ X[:, i] for i in range(k))
        lhs = space.norm(y)
        rhs = point_value(spec, space, X, cfg)
        gap = lhs - rhs
        if gap > worst_gap:
            worst_gap = gap
            witness = {"tuple": X, "lhs": lhs, "rhs": rhs}
    return mn.DetectorReport(worst_gap <= tol, worst_gap, witness, trials, "small-decomposition test")


def _looped_coagulations_equal(spec, space, X, cfg):
    k = X.shape[1]
    base = point_value(spec, space, X, cfg)
    worst = (0.0, None, base, base)
    for blocks in set_partitions(k):
        Y = np.stack([X[:, b].sum(axis=1) for b in blocks], axis=1)
        val = point_value(spec, space, Y, cfg)
        gap = abs(val - base)
        if gap > worst[0]:
            worst = (gap, blocks, val, base)
    return worst


def _looped_is_orthogonal(d, spec, space, trials, cfg, tol=1e-8):
    k = d.length
    Ps = d.projections
    worst_gap, witness = 0.0, None
    Zs = field_normal_block(cfg.stream("orthogonal", NORMALS), trials, (space.dim, k), space.is_complex)
    for ti in range(trials):
        Z = Zs[ti]
        X = np.stack([Ps[i] @ Z[:, i] for i in range(k)], axis=1)
        gap, blocks, lhs, rhs = _looped_coagulations_equal(spec, space, X, cfg)
        if gap > worst_gap:
            worst_gap = gap
            witness = {"tuple": X, "partition": blocks, "lhs": lhs, "rhs": rhs}
    return mn.DetectorReport(worst_gap <= tol, worst_gap, witness, trials, "orthogonal-decomposition test")


def _looped_orthogonal_set(spec, t, trials, cfg, tol=1e-8):
    space = t.space
    k = t.n
    worst_gap, witness = 0.0, None
    scalings = [np.ones(k)]
    rng = cfg.stream("orthogonal_set", NORMALS)
    for ti in range(trials):
        scalings.append(field_normal(rng, k, space.is_complex))
    for c in scalings:
        X = t.columns * np.asarray(c)[None, :]
        gap, blocks, lhs, rhs = _looped_coagulations_equal(spec, space, X, cfg)
        if gap > worst_gap:
            worst_gap = gap
            witness = {"scalars": c, "partition": blocks, "lhs": lhs, "rhs": rhs}
    return mn.DetectorReport(worst_gap <= tol, worst_gap, witness, len(scalings), "orthogonal-set test")


def _looped_is_orthogonal_multinorm(spec, f, space, trials, cfg, tol=1e-8):
    worst_gap, witness = 0.0, None
    draws = []
    ns = cfg.stream("orthogonal_multinorm", COUNTS).integers(1, 4, size=trials)
    Xs = field_normal_block(cfg.stream("orthogonal_multinorm", NORMALS), trials, (space.dim, 3), space.is_complex)
    for ti in range(trials):
        draws.append(Xs[ti][:, : int(ns[ti])])
    draws += [delta_tuple(space.dim, n, space.is_complex) for n in range(1, min(space.dim, 3) + 1)]
    for X in draws:
        lhs = point_value(spec, space, X, cfg)
        rhs = generated_value(f, space, X, cfg)
        gap = lhs - rhs
        if gap > worst_gap:
            worst_gap = gap
            witness = {"tuple": X, "spec_value": lhs, "generated_value": rhs}
    return mn.DetectorReport(worst_gap <= tol, worst_gap, witness, trials, "orthogonality of the multi-norm w.r.t. the family")


# ---------------------------------------------------------------------------
# comparisons


def _same_json(got, want):
    assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)


def _same_detector(got, want):
    _same_json(got, want)
    assert got.gap == want.gap and got.verdict == want.verdict


def _same_law(got, want):
    assert (got.p_role, got.trials, got.tol) == (want.p_role, want.trials, want.tol)
    assert len(got.violations) == len(want.violations)
    for g, w in zip(got.violations, want.violations):
        assert (g.lhs, g.bound) == (w.lhs, w.bound)
        assert np.array_equal(g.tuple_columns, w.tuple_columns)
        if isinstance(w.matrix, np.ndarray):
            assert g.matrix.dtype == w.matrix.dtype and np.array_equal(g.matrix, w.matrix)
        else:
            assert g.matrix == w.matrix


def _space(r, field, weighted, dim=3):
    weights = tuple(np.linspace(0.6, 1.7, dim)) if weighted else ()
    return SpaceSpec(r, dim, weights, field)


SPACES = [(r, f, w) for r in (1, 1.5, 2, INF) for f in ("real", "complex") for w in (False, True)]
CFG = mn.OptimConfig(seed=31)
LAW_CFG = mn.OptimConfig(seed=31, restarts=2)  # the frozen loop's role-1.5 power ascent runs every restart


def _exact_specs(space):
    specs = [Spec.min_spec(), Spec.lattice(), Spec.dual_lattice(), Spec.partition([[0, 2], [1]]), Spec.lp_sum(1), Spec.lp_sum(2)]
    if space.p != INF:
        specs.append(Spec.standard_q(space.p))
    if not space.is_complex:
        specs.append(Spec.weak_summing(1))
    if space.p == 2:
        specs.append(Spec.weak_summing(2))
    return specs


def test_stack_values_keeps_list_order_and_refuses_complex_values():
    stacks = [np.full((B, 2, k), float(i)) for i, (B, k) in enumerate(((1, 1), (2, 3), (1, 1), (3, 2), (1, 3), (0, 2)))]
    calls = []

    def total(S):
        calls.append(S.shape)
        return S.sum(axis=(-2, -1))

    got = _stack_values(total, stacks)
    assert [v.tolist() for v in got] == [[0.0], [6.0, 6.0], [4.0], [12.0] * 3, [24.0], []]
    # one call per (shape, dtype) group, the group's stacks concatenated in list order
    assert calls == [(2, 2, 1), (3, 2, 3), (3, 2, 2)]
    # a complex value written into the float result would lose its imaginary part
    with pytest.raises(np.exceptions.ComplexWarning):
        _stack_values(lambda S: S.sum(axis=(-2, -1)), [np.full((1, 2, 2), 1j)])


# ---------------------------------------------------------------------------
# axioms


@pytest.mark.parametrize("r,field,weighted", SPACES)
def test_check_axioms_matches_loop(r, field, weighted):
    space = _space(r, field, weighted)
    for spec in _exact_specs(space):
        got = mn.check_axioms(spec, space, 4, 40, CFG)
        _same_json(got, _looped_check_axioms(spec, space, 4, 40, CFG))


def test_lp_sum_2_violations_keep_their_order():
    space = _space(2, "complex", True)
    got = mn.check_axioms(Spec.lp_sum(2), space, 4, 120, CFG)
    assert len(got.violations) > 50
    _same_json(got, _looped_check_axioms(Spec.lp_sum(2), space, 4, 120, CFG))


def test_check_axioms_search_backed_heuristic():
    cfg = mn.OptimConfig(seed=5, restarts=1)
    space = _space(1.5, "real", True)
    spec = Spec.pq_spec(1, 2)
    got = mn.check_axioms(spec, space, 3, 2, cfg)
    assert got.mode == "heuristic"
    _same_json(got, _looped_check_axioms(spec, space, 3, 2, cfg))


def test_check_axioms_decides_its_mode_at_the_padded_width():
    # standard_q(3) on l^2_3 enumerates n^3 slot assignments: 4-tuples fit 64, the padded 5-tuples do not
    spec, space, cfg = Spec.standard_q(3), SpaceSpec(2, 3), mn.OptimConfig(max_enum=64)
    assert is_exact_path(spec, space, 4, cfg) and not is_exact_path(spec, space, 5, cfg)
    got = mn.check_axioms(spec, space, 4, 100, cfg)
    assert (got.mode, got.tol) == ("heuristic", 2e-2)
    doc = {"space": space.to_json(), "spec": spec.to_json(), "n_max": 4}
    assert cli.cmd_axioms(doc, cfg)["axiom_report"]["trials"] == 12


def test_check_axioms_spans_chunks():
    space = _space(2, "real", True, dim=2)
    trials = GRID_BLOCK + 37
    for spec in (Spec.lattice(), Spec.lp_sum(2)):
        _same_json(mn.check_axioms(spec, space, 3, trials, CFG), _looped_check_axioms(spec, space, 3, trials, CFG))


def test_check_axioms_stacks_per_shape(monkeypatch):
    calls = []
    real_point_value = multinorms.point_value

    def counting(spec, space, X, cfg):
        calls.append(X.shape)
        return real_point_value(spec, space, X, cfg)

    monkeypatch.setattr(multinorms, "point_value", counting)
    space = _space(2, "real", False)
    counts = []
    for trials in (30, 300, GRID_BLOCK):
        calls.clear()
        mn.check_axioms(Spec.dual_lattice(), space, 4, trials, CFG)
        # one stack per tuple shape: n in {2, 3, 4} and the padded n + 1
        assert all(len(shape) == 3 for shape in calls)
        assert sum(shape[0] for shape in calls) == 6 * trials
        counts.append(len(calls))
    assert counts == [4, 4, 4]


# ---------------------------------------------------------------------------
# matrix laws


FIXED = [
    np.array([[1.0, 1.0], [0.0, 0.0]]),
    np.array([[0.5, -1.0, 2.0]]),
    np.array([[1.0, 1j], [0.0, 0.0]]),
    np.arange(27.0).reshape(3, 9) / 27.0 - 0.4,
    np.diag([2.0, -0.5]),
]


@pytest.mark.parametrize("r,field,weighted", SPACES)
@pytest.mark.parametrize("role", [1, 2, INF, 1.5])
def test_matrix_law_matches_loop(r, field, weighted, role):
    space = _space(r, field, weighted)
    fixed = FIXED if field == "complex" else [np.real(A) for A in FIXED]
    for spec in (Spec.min_spec(), Spec.lattice(), Spec.dual_lattice(), Spec.lp_sum(2)):
        got = mn.check_multinorm_matrix_law(spec, space, role, 30, LAW_CFG, 1e-9, fixed)
        _same_law(got, _looped_matrix_law(spec, space, role, 30, LAW_CFG, 1e-9, fixed))


def test_matrix_law_spans_chunks():
    space = _space(1.5, "complex", True, dim=2)
    trials = GRID_BLOCK + 11
    for spec, role in ((Spec.min_spec(), 2), (Spec.dual_lattice(), INF)):
        got = mn.check_multinorm_matrix_law(spec, space, role, trials, CFG, 1e-9, FIXED[:2])
        assert got.violations
        _same_law(got, _looped_matrix_law(spec, space, role, trials, CFG, 1e-9, FIXED[:2]))


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("role", [(1, 1), (1, 1.5), (1, 2), (1, 3), (1, INF), (1.5, INF), (2, INF), (3, INF), (INF, INF), (2, 2)])
def test_stacked_closed_forms_match_op_norm_exact(is_complex, role):
    # the law norms of roles with a closed form: one stacked _op_norm_exact call, op_norm_pq's value matrix by matrix
    p, q = role
    rng = np.random.default_rng(11)
    for m in range(1, 5):
        for n in range(1, 5):
            S = rng.uniform(-1, 1, size=(6, m, n))
            if is_complex:
                S = S + 1j * rng.uniform(-1, 1, size=(6, m, n))
            S[0] = 0.0
            values, _, methods = _op_norm_exact(S, p, q, CFG, is_complex)
            want = [op_norm_pq(MatrixOp(A, p, q), CFG) for A in S]
            assert all(res.kind == "exact" for res in want)
            assert values.tolist() == [res.lower for res in want]
            assert list(methods) == [res.method for res in want]


def test_closed_forms_cover_only_their_roles():
    # a dense matrix has no exact path for these roles, so the law takes the Holder upper bound
    A = np.random.default_rng(3).uniform(-1, 1, size=(1, 3, 3))
    for p, q in ((1.5, 1.5), (2, 3)):
        for S in (A, A + 1j * A[:, ::-1]):
            values, witnesses, methods = _op_norm_exact(S, p, q, CFG, np.iscomplexobj(S))
            assert np.isnan(values[0]) and np.isnan(witnesses[0]).all() and list(methods) == [""]


# ---------------------------------------------------------------------------
# coagulation and detectors


@pytest.mark.parametrize("r,field,weighted", SPACES)
def test_coagulation_matches_loop(r, field, weighted):
    space = _space(r, field, weighted)
    for spec in _exact_specs(space):
        got = mn.check_coagulation_contraction(spec, space, 40, CFG)
        _same_law(got, _looped_coagulation(spec, space, 40, CFG))


def test_coagulation_spans_chunks():
    space = _space(INF, "real", False, dim=2)
    trials = GRID_BLOCK + 5
    got = mn.check_coagulation_contraction(Spec.lattice(), space, trials, CFG)
    assert got.violations
    _same_law(got, _looped_coagulation(Spec.lattice(), space, trials, CFG))


@pytest.mark.parametrize("r,field,weighted", SPACES)
def test_detectors_match_loop(r, field, weighted):
    space = _space(r, field, weighted)
    fam = mn.band_family(space)
    for d in (fam.members[1], fam.members[4]):
        for spec in (Spec.lattice(), Spec.min_spec(), Spec.dual_lattice()):
            _same_detector(mn.is_small(d, spec, space, 30, CFG), _looped_is_small(d, spec, space, 30, CFG))
            _same_detector(mn.is_orthogonal(d, spec, space, 12, CFG), _looped_is_orthogonal(d, spec, space, 12, CFG))
    t = mn.VectorTuple(field_normal(np.random.default_rng(3), (3, 3), space.is_complex), space)
    for spec in (Spec.lattice(), Spec.min_spec(), Spec.lp_sum(1)):
        _same_detector(mn.orthogonal_set(spec, t, 12, CFG), _looped_orthogonal_set(spec, t, 12, CFG))
        got = mn.is_orthogonal_multinorm(spec, fam, space, 25, CFG)
        _same_detector(got, _looped_is_orthogonal_multinorm(spec, fam, space, 25, CFG))


def test_detectors_false_verdicts_keep_their_witness():
    sp = SpaceSpec(INF, 4)
    t = mn.VectorTuple.of(sp, [1, 0, 0, 0.6], [0, 1, 0, 0.6], [0, 0, 1, 0.6])
    got = mn.orthogonal_set(Spec.min_spec(), t, 10, CFG)
    assert not got.verdict
    _same_detector(got, _looped_orthogonal_set(Spec.min_spec(), t, 10, CFG))
    space = _space(1.5, "real", True)
    d = mn.coordinate_decomposition(space, [[0], [1, 2]])
    got = mn.is_small(d, Spec.min_spec(), space, GRID_BLOCK + 3, CFG)
    assert not got.verdict
    _same_detector(got, _looped_is_small(d, Spec.min_spec(), space, GRID_BLOCK + 3, CFG))


def test_orthogonal_detectors_span_chunks():
    space = _space(2, "complex", False, dim=2)
    d = mn.coordinate_decomposition(space, [[0], [1]])
    trials = GRID_BLOCK + 2
    _same_detector(mn.is_orthogonal(d, Spec.min_spec(), space, trials, CFG), _looped_is_orthogonal(d, Spec.min_spec(), space, trials, CFG))
    t = mn.VectorTuple(np.array([[1.0, 0.5], [0.25, -1.0]]), space)
    _same_detector(mn.orthogonal_set(Spec.min_spec(), t, trials, CFG), _looped_orthogonal_set(Spec.min_spec(), t, trials, CFG))
    fam = mn.band_family(space)
    got = mn.is_orthogonal_multinorm(Spec.min_spec(), fam, space, trials, CFG)
    assert math.isfinite(got.gap)
    _same_detector(got, _looped_is_orthogonal_multinorm(Spec.min_spec(), fam, space, trials, CFG))


# ---------------------------------------------------------------------------
# every trial's value, not only the violations


def _point_split(args, res):
    return args[2], res  # point_value(spec, space, X, cfg)


def _upper_split(args, res):
    return args[0], res[0]  # matrixlaws._op_norm_upper(S, p, q, cfg, complex_field)


def _pq_split(args, res):
    return args[0].entries, res.lower if res.kind == "exact" else res.upper  # op_norm_pq(MatrixOp(A, p, p), cfg)


def _value_maps(monkeypatch, stacked, looped):
    """{kind: {tuple or matrix bytes: value}} of every evaluation in the stacked run and in the frozen loop.

    point_value is wrapped where each run looks it up, and so are the
    law's matrix norms: matrixlaws._op_norm_upper for the stacked run,
    op_norm_pq for the loop.  A stack records each of its arrays.
    """
    this = sys.modules[__name__]
    runs = (
        (stacked, [("point", multinorms, "point_value", _point_split), ("norm", matrixlaws, "_op_norm_upper", _upper_split)]),
        (looped, [("point", this, "point_value", _point_split), ("norm", this, "op_norm_pq", _pq_split)]),
    )
    maps = []
    for run, wraps in runs:
        seen = {"point": {}, "norm": {}}
        with monkeypatch.context() as mp:
            for kind, owner, name, split in wraps:

                def wrapper(*args, _real=getattr(owner, name), _split=split, _seen=seen[kind]):
                    res = _real(*args)
                    X, vals = (np.asarray(a) for a in _split(args, res))
                    for x, v in zip(X.reshape(-1, *X.shape[-2:]), vals.reshape(-1).tolist()):
                        key = (x.shape, x.dtype.str, x.tobytes())
                        assert _seen.setdefault(key, v.hex()) == v.hex()
                    return res

                mp.setattr(owner, name, wrapper)
            run()
        maps.append(seen)
    assert maps[0]["point"]
    return maps


@pytest.mark.parametrize("r,field,weighted", SPACES)
def test_check_axioms_values_match_loop(monkeypatch, r, field, weighted):
    space = _space(r, field, weighted)
    for spec in (Spec.lattice(), Spec.dual_lattice(), Spec.lp_sum(2), Spec.partition([[0, 2], [1]])):
        got, want = _value_maps(monkeypatch, lambda: mn.check_axioms(spec, space, 4, 40, CFG), lambda: _looped_check_axioms(spec, space, 4, 40, CFG))
        assert got == want


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("role", [1, 2, INF, 1.5])
def test_matrix_law_values_match_loop(monkeypatch, field, role):
    # FIXED mixes shapes and, over C, a complex matrix with the drawn trials' real/complex coin
    space = _space(1.5, field, True)
    fixed = FIXED if field == "complex" else [np.real(A) for A in FIXED]
    for spec in (Spec.lattice(), Spec.dual_lattice()):
        got, want = _value_maps(
            monkeypatch,
            lambda: mn.check_multinorm_matrix_law(spec, space, role, 60, LAW_CFG, 1e-9, fixed),
            lambda: _looped_matrix_law(spec, space, role, 60, LAW_CFG, 1e-9, fixed),
        )
        assert got["norm"] and got == want


@pytest.mark.parametrize("r,field,weighted", SPACES)
def test_coagulation_values_match_loop(monkeypatch, r, field, weighted):
    space = _space(r, field, weighted)
    for spec in (Spec.dual_lattice(), Spec.lp_sum(1)):
        got, want = _value_maps(monkeypatch, lambda: mn.check_coagulation_contraction(spec, space, 40, CFG), lambda: _looped_coagulation(spec, space, 40, CFG))
        assert got == want


@pytest.mark.parametrize("field", ["real", "complex"])
def test_detector_values_match_loop(monkeypatch, field):
    space = _space(1.5, field, True)
    d = mn.band_family(space).members[1]
    t = mn.VectorTuple(field_normal(np.random.default_rng(3), (3, 3), space.is_complex), space)
    for spec in (Spec.lattice(), Spec.min_spec()):
        runs = (
            (lambda: mn.is_small(d, spec, space, 30, CFG), lambda: _looped_is_small(d, spec, space, 30, CFG)),
            (lambda: mn.is_orthogonal(d, spec, space, 12, CFG), lambda: _looped_is_orthogonal(d, spec, space, 12, CFG)),
            (lambda: mn.orthogonal_set(spec, t, 12, CFG), lambda: _looped_orthogonal_set(spec, t, 12, CFG)),
        )
        for stacked, looped in runs:
            got, want = _value_maps(monkeypatch, stacked, looped)
            assert got == want


# ---------------------------------------------------------------------------
# one evaluation call per (width, dtype) per chunk


def _counting(monkeypatch, owner, name, arg):
    """The (shape, dtype) of args[arg] of every call to owner.name."""
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append((args[arg].shape, args[arg].dtype))
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _one_per_group(calls):
    groups = {(shape[1:], dtype) for shape, dtype in calls}
    assert all(len(shape) == 3 for shape, _ in calls) and len(groups) == len(calls)
    return len(calls)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_matrix_law_stacks_per_shape(monkeypatch, field):
    space = _space(2, field, False)
    points, norms = _counting(monkeypatch, multinorms, "point_value", 2), _counting(monkeypatch, matrixlaws, "_op_norm_upper", 0)
    for trials in (30, 300):
        points.clear()
        norms.clear()
        mn.check_multinorm_matrix_law(Spec.lattice(), space, INF, trials, CFG)
        assert sum(s[0] for s, _ in points) == 2 * trials and sum(s[0] for s, _ in norms) == trials
        counts = (_one_per_group(points), _one_per_group(norms))
    # at 300 trials: widths 1..4 of X and of X A^T; the 16 matrix shapes, real and, over C, complex
    assert counts == (4, 32 if field == "complex" else 16)
    points.clear()
    norms.clear()
    mn.check_multinorm_matrix_law(Spec.lattice(), space, INF, 3, CFG, fixed_matrices=FIXED[:2] if field == "complex" else [np.real(A) for A in FIXED[:2]])
    assert _one_per_group(norms) == 3 and _one_per_group(points) <= 4


def test_coagulation_stacks_per_shape(monkeypatch):
    calls = _counting(monkeypatch, multinorms, "point_value", 2)
    mn.check_coagulation_contraction(Spec.dual_lattice(), _space(2, "complex", True), 300, CFG)
    # the coagulations have 1..4 slots, the tuples 2..4
    assert _one_per_group(calls) == 4 and sum(s[0] for s, _ in calls) == 600


def test_is_small_stacks_per_chunk(monkeypatch):
    calls = _counting(monkeypatch, multinorms, "point_value", 2)
    space = _space(2, "real", False)
    d = mn.coordinate_decomposition(space, [[0], [1, 2]])
    mn.is_small(d, Spec.lattice(), space, GRID_BLOCK + 3, CFG)
    assert calls == [((GRID_BLOCK, 3, 2), np.dtype(float)), ((3, 3, 2), np.dtype(float))]


def test_orthogonal_set_stacks_per_width(monkeypatch):
    calls = _counting(monkeypatch, multinorms, "point_value", 2)
    space = _space(2, "complex", False)
    t = mn.VectorTuple(field_normal(np.random.default_rng(3), (3, 3), True), space)
    mn.orthogonal_set(Spec.lattice(), t, 40, CFG)
    # the unscaled set, then the chunk of 40 scalings: each tuple of 3 slots and its 4 coagulations of 1 and 2 slots
    assert [shape for shape, _ in calls] == [(1, 3, 3), (1, 3, 1), (3, 3, 2), (40, 3, 3), (40, 3, 1), (120, 3, 2)]


# ---------------------------------------------------------------------------
# tolerances


BAD_TOLS = [math.nan, math.inf, -math.inf, -1e-9]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_audits_refuse_a_bad_tol(tol):
    # a NaN tolerance fails every comparison, so lp_sum(2)'s (A4) failures and the law's violations went unreported
    space = SpaceSpec(2, 3)
    d = mn.coordinate_decomposition(space, [[0], [1, 2]])
    t = mn.VectorTuple(np.eye(3), space)
    calls = [
        lambda: mn.check_axioms(Spec.lp_sum(2), space, 4, 200, None, tol),
        lambda: mn.check_multinorm_matrix_law(Spec.lp_sum(2), space, 1, 200, None, tol),
        lambda: mn.check_coagulation_contraction(Spec.dual_lattice(), space, 20, None, tol),
        lambda: mn.is_hermitian(d, space, 4, None, tol),
        lambda: mn.is_small(d, Spec.lattice(), space, 4, None, tol),
        lambda: mn.is_orthogonal(d, Spec.lattice(), space, 4, None, tol),
        lambda: mn.orthogonal_set(Spec.lattice(), t, 4, None, tol),
        lambda: mn.is_orthogonal_multinorm(Spec.lattice(), mn.band_family(space), space, 4, None, tol),
    ]
    for call in calls:
        with pytest.raises(mn.SpecError, match="tol must be"):
            call()


def test_audits_keep_a_zero_tol():
    space = SpaceSpec(2, 3)
    assert not mn.check_axioms(Spec.lp_sum(2), space, 4, 200, None, 0.0).ok
    assert mn.check_axioms(Spec.lattice(), space, 4, 20, None, 0).ok
