"""Golden test: the stacked audits report exactly what the per-trial loops they replaced reported.

The _looped_* functions are frozen copies of the loops that drew one
trial, evaluated its tuples with one point_value call each, and built one
MatrixOp per law trial.  The library audits draw every trial of a chunk
first and evaluate the chunk as stacks; their reports (violations, gaps,
witnesses) must be identical bit for bit.
"""

import json
import math

import numpy as np
import pytest

import multinorm as mn
from multinorm import multinorms
from multinorm.decompositions import generated_value
from multinorm.matrixlaws import LawViolation, MatrixLawReport
from multinorm.multinorms import AxiomReport, AxiomViolation, _stack_values, is_exact_path, point_value
from multinorm.optim import _op_norm_closed_form, _op_norm_exact, field_normal, op_norm_pq
from multinorm.partitions import GRID_BLOCK, set_partitions
from multinorm.spaces import INF, MatrixOp, SpaceSpec, delta_tuple

Spec = mn.MultiNormSpec


# ---------------------------------------------------------------------------
# frozen per-trial loops


def _looped_check_axioms(spec, space, n_max, trials, cfg, tol=None):
    exact = is_exact_path(spec, space, n_max, cfg)
    if tol is None:
        tol = 1e-8 if exact else 2e-2
    mode = "exact" if exact else "heuristic"
    dual = spec.is_dual_multinorm()
    checked = ["A1", "A2", "A3", "B4" if dual else "A4"]
    val = lambda X: point_value(spec, space, X, cfg)
    violations = []
    m = space.dim
    for trial in range(trials):
        rng = cfg.rng(40000 + trial)
        n = int(rng.integers(2, n_max + 1))
        X = field_normal(rng, (m, n), space.is_complex)
        base = val(X)
        perm = rng.permutation(n)
        lhs = val(X[:, perm])
        if abs(lhs - base) > tol * max(1.0, base):
            violations.append(AxiomViolation("A1", n, lhs, base, abs(lhs - base), {"tuple": X, "perm": perm}))
        alpha = 2.0 * rng.random(n) - 0.0
        if space.is_complex:
            alpha = alpha * np.exp(2j * np.pi * rng.random(n))
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
    for trial in range(trials):
        rng = cfg.rng(70000 + trial)
        n = int(rng.integers(1, 5))
        if fixed and trial < len(fixed):
            A = fixed[trial]
            n = A.shape[1]
        else:
            m = int(rng.integers(1, 5))
            A = rng.uniform(-1, 1, size=(m, n))
            if space.is_complex and rng.random() < 0.5:
                A = A + 1j * rng.uniform(-1, 1, size=(m, n))
        X = field_normal(rng, (mdim, n), space.is_complex)
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
    for trial in range(trials):
        rng = cfg.rng(90000 + trial)
        n = int(rng.integers(2, 5))
        X = field_normal(rng, (m, n), space.is_complex)
        parts = list(set_partitions(n))
        blocks = parts[int(rng.integers(0, len(parts)))]
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
    for ti in range(trials):
        rng = cfg.rng(140000 + ti)
        X = field_normal(rng, (space.dim, k), space.is_complex)
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
    for ti in range(trials):
        rng = cfg.rng(150000 + ti)
        Z = field_normal(rng, (space.dim, k), space.is_complex)
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
    for ti in range(trials):
        scalings.append(field_normal(cfg.rng(160000 + ti), k, space.is_complex))
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
    for ti in range(trials):
        rng = cfg.rng(170000 + ti)
        n = int(rng.integers(1, 4))
        draws.append(field_normal(rng, (space.dim, n), space.is_complex))
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
    tuples = [np.full((2, k), float(i)) for i, k in enumerate((1, 3, 1, 2, 3))]
    calls = []

    def total(S):
        calls.append(S.shape)
        return S.sum(axis=(-2, -1))

    assert _stack_values(total, tuples) == [0.0, 6.0, 4.0, 12.0, 24.0]
    assert calls == [(2, 2, 1), (2, 2, 3), (1, 2, 2)]
    # a complex value written into the float result would lose its imaginary part
    with pytest.raises(np.exceptions.ComplexWarning):
        _stack_values(lambda S: S.sum(axis=(-2, -1)), [np.full((2, 2), 1j)])


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
    p, q = role
    rng = np.random.default_rng(11)
    closed = _op_norm_closed_form(p, q)
    for m in range(1, 5):
        for n in range(1, 5):
            S = rng.uniform(-1, 1, size=(6, m, n))
            if is_complex:
                S = S + 1j * rng.uniform(-1, 1, size=(6, m, n))
            S[0] = 0.0
            got = closed(S)
            want = [_op_norm_exact(A, p, q, CFG, is_complex).lower for A in S]
            assert got.tolist() == want


def test_closed_forms_cover_only_their_roles():
    assert _op_norm_closed_form(1.5, 1.5) is None
    assert _op_norm_closed_form(2, 3) is None


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
