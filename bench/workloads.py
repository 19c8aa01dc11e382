"""Seeded task lists for the three benchmark workloads, with per-task oracles.

A task is one top-level public call into ``multinorm`` plus the JSON
encoding of its result, the way the command line returns it.  Every task
carries a soundness oracle: it never asks how tight a certificate is, only
that it is finite, ordered, and contains every closed form that is known
for the input.  Closed forms are computed here with plain numpy, not with
the library, so a library defect cannot vouch for itself.

The composition of a round (which variants, spaces, tuple kinds and
lengths) is fixed; the seed only draws the numbers (entries, weights,
blocks, operators, the library's cfg seed).  That keeps the cost mix the
same across seeds, so seed-to-seed spread measures the inputs, not the mix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

INF = math.inf
RS = (1.0, 1.5, 2.0, 3.0)
FIELDS = ("real", "complex")
TOL = 1e-9


@dataclass
class Task:
    label: str
    call: Callable[[], Any]
    encode: Callable[[Any], str]
    cert: Callable[[Any], tuple]  # -> (kind, lower, upper, reference); kind None: the kinds of the evaluations the task ran
    check: Callable[[Any], list]  # -> list of failure messages
    inputs: Any  # arrays/specs handed to the library, for the input digest


@dataclass
class Workload:
    tasks: list
    warmups: list
    cfg: Any


# ---------------------------------------------------------------------------
# closed forms (numpy only)


def _norm(space, x) -> float:
    a = np.abs(np.asarray(x))
    if space.p == INF:
        return float(a.max())
    return float((np.asarray(space.weights) * a**space.p).sum() ** (1.0 / space.p))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _contains(lower: float, upper: float, ref: float) -> bool:
    slack = TOL * max(1.0, abs(ref))
    return lower - slack <= ref <= upper + slack


# ---------------------------------------------------------------------------
# input generators


def _space(mn, rng, r, m, field, weighted):
    weights = tuple(float(w) for w in rng.uniform(0.5, 2.0, m)) if weighted else ()
    return mn.SpaceSpec(r, m, weights, field)


def _gauss(rng, m, n, is_complex):
    X = rng.standard_normal((m, n))
    if is_complex:
        X = X + 1j * rng.standard_normal((m, n))
    return X


def _unimodular(rng, n, is_complex):
    if is_complex:
        return np.exp(2j * np.pi * rng.random(n))
    return np.where(rng.random(n) < 0.5, 1.0, -1.0)


def _delta(space, rng, n):
    """Unit vectors with disjoint supports, scaled by random unimodular scalars."""
    m = space.dim
    X = np.zeros((m, n), dtype=complex if space.is_complex else float)
    coords = rng.permutation(m)[:n]
    phases = _unimodular(rng, n, space.is_complex)
    for j, k in enumerate(coords):
        X[k, j] = phases[j] / space.weights[k] ** (1.0 / space.p) if space.p != INF else phases[j]
    return X


def _diagonal(space, rng, n):
    m = space.dim
    X = np.zeros((m, n), dtype=complex if space.is_complex else float)
    beta = rng.standard_normal(n)
    if space.is_complex:
        beta = beta * _unimodular(rng, n, True)
    for j, k in enumerate(rng.permutation(m)[:n]):
        X[k, j] = beta[j]
    return X


def _interleave(groups: list) -> list:
    """Merge task groups so that every class is spread evenly over the round."""
    keyed = []
    for g in groups:
        for i, t in enumerate(g):
            keyed.append(((i + 0.5) / len(g), len(keyed), t))
    return [t for _, _, t in sorted(keyed, key=lambda e: (e[0], e[1]))]


# ---------------------------------------------------------------------------
# task constructors


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _norm_value_failures(res, ref=None) -> list:
    out = []
    if not math.isfinite(res.lower):
        out.append(f"non-finite lower {res.lower}")
    if not (math.isfinite(res.upper) or (res.kind == "lower" and res.upper == INF)):
        out.append(f"non-finite upper {res.upper} for kind {res.kind}")
    if res.lower > res.upper + TOL * max(1.0, abs(res.upper)):
        out.append(f"lower {res.lower} > upper {res.upper}")
    if ref is not None and not _contains(res.lower, res.upper, ref):
        out.append(f"closed form {ref!r} outside [{res.lower!r}, {res.upper!r}]")
    return out


def norm_task(label, call, inputs, ref=None) -> Task:
    return Task(
        label,
        call,
        lambda res: _dumps(res.to_json()),
        lambda res: (res.kind, res.lower, res.upper, ref),
        lambda res: _norm_value_failures(res, ref),
        inputs,
    )


def mb_task(label, call, inputs, level_refs=None, sup_ref=None) -> Task:
    """mb_norm result: every p_n and the supremum must respect the closed forms."""

    def check(res):
        out = _norm_value_failures(res.sup_estimate, sup_ref)
        for n, v in enumerate(res.p_seq, start=1):
            if not math.isfinite(v):
                out.append(f"p_{n} non-finite")
            elif level_refs is not None and v > level_refs[n - 1] + TOL * max(1.0, level_refs[n - 1]):
                out.append(f"p_{n} = {v!r} above closed form {level_refs[n - 1]!r}")
        if not res.monotone:
            out.append("p_n not nondecreasing")
        return out

    def cert(res):
        s = res.sup_estimate
        return (s.kind, s.lower, s.upper, sup_ref)

    return Task(label, call, lambda res: _dumps(res.to_json()), cert, check, inputs)


def audit_task(label, call, inputs, expect) -> Task:
    """Axiom audits and matrix laws; expect(report) lists the failed verdicts.

    A report carries no certificate kind of its own; the runner records the
    kinds of the evaluations the audit runs.
    """
    return Task(label, call, lambda rep: _dumps(_report_json(rep)), lambda rep: (None, None, None, None), expect, inputs)


def _report_json(rep):
    if hasattr(rep, "to_json"):
        return rep.to_json()
    # MatrixLawReport has no encoder of its own
    return {
        "p_role": "inf" if rep.p_role == INF else rep.p_role,
        "trials": rep.trials,
        "tol": rep.tol,
        "violations": [[v.lhs, v.bound] for v in rep.violations],
    }


def detector_task(label, call, inputs, verdict) -> Task:
    def check(rep):
        out = []
        if rep.verdict != verdict:
            out.append(f"verdict {rep.verdict} != expected {verdict} (gap {rep.gap!r})")
        if not math.isfinite(rep.gap):
            out.append("non-finite gap")
        if not rep.verdict and (rep.witness is None or not rep.gap > 0):
            out.append("False verdict without a witness")
        return out

    return Task(label, call, lambda rep: _dumps(rep.to_json()), lambda rep: (None, None, None, None), check, inputs)


def special_task(mn, label, A, column: bool) -> Task:
    """Row- or column-special peeling: parts sum back, norms add up, parts special."""
    A = np.asarray(A)
    ref = float(np.abs(A).sum(axis=0 if column else 1).max()) if A.size else 0.0
    fn = "column_special_decompose" if column else "row_special_decompose"

    def check(dec):
        out = []
        resid = float(np.abs(sum(dec.parts) - A).max()) if dec.parts else float(np.abs(A).max(initial=0.0))
        if resid > 1e-12 * max(1.0, ref):
            out.append(f"parts miss the input by {resid:.3e}")
        if not _close(dec.total, ref):
            out.append(f"norms sum to {dec.total!r}, not the {'column' if column else 'row'}-sum norm {ref!r}")
        axis = 0 if column else 1
        if not all(((np.abs(B) > 0).sum(axis=axis) <= 1).all() for B in dec.parts):
            out.append("a part is not special")
        return out

    def encode(dec):
        return _dumps({"kind": dec.kind, "norms": list(dec.norms), "parts": [mn.spaces.matrix_to_json(B) for B in dec.parts]})

    return Task(
        label,
        lambda: getattr(mn, fn)(A),
        encode,
        lambda dec: (None, dec.total, None, ref),
        check,
        A,
    )


def _violations_none(rep) -> list:
    return [] if not rep.violations else [f"{len(rep.violations)} violations on an exact law"]


def _axioms_find_a4(rep) -> list:
    return [] if any(v.axiom == "A4" for v in rep.violations) else ["lp_sum(2) fixture: no A4 violation reported"]


# ---------------------------------------------------------------------------
# search_eval


PQ = ((1, 2), (2, 2), (2, 3), (1.5, 3))


def search_eval(mn, rng, tiny: bool) -> Workload:
    """evaluate() on the search-backed variants (pq, max, hilbert, numerical dual, complex weak summing)."""
    S = mn.MultiNormSpec
    cfg = mn.OptimConfig(seed=int(rng.integers(2**31)), restarts=2, grid_points=32)
    counter = iter(range(10**9))

    def space(r, field):
        c = next(counter)
        return _space(mn, rng, r, 3 + c % 2, field, weighted=c % 3 == 1)

    def ev(label, spec, sp, X, ref=None):
        return norm_task(label, lambda: mn.evaluate(spec, mn.VectorTuple(X, sp), cfg), (spec.to_json(), sp.to_json(), X), ref)

    pq, mx, hil, nd, ws = [], [], [], [], []
    for i, (p, q) in enumerate(PQ):
        for j, r in enumerate(RS):
            for f in FIELDS:
                sp = space(r, f)
                if (i + j) % 2:
                    n = 2 + (i + j) // 2 % 2
                    ref = n ** (1.0 / q) if p >= r else None
                    pq.append(ev(f"pq({p},{q})/delta", S.pq_spec(p, q), sp, _delta(sp, rng, n), ref))
                else:
                    n = 2 + (i + 2 * j) % 2
                    pq.append(ev(f"pq({p},{q})/gauss", S.pq_spec(p, q), sp, _gauss(rng, sp.dim, n, sp.is_complex)))
    for r in (1.5, 2.0):
        for f in FIELDS:
            sp = space(r, f)
            n = 2 + len(mx) % 2
            mx.append(ev("max/delta", S.max_spec(), sp, _delta(sp, rng, n), n ** (1.0 / r)))
            sp = space(r, f)
            mx.append(ev("max/gauss", S.max_spec(), sp, _gauss(rng, sp.dim, 2 + len(mx) // 2 % 2, sp.is_complex)))
    for f in FIELDS:
        for _ in range(2):
            sp = space(2.0, f)
            X = _diagonal(sp, rng, sp.dim)
            ref = math.sqrt(sum(w * abs(b) ** 2 for w, b in zip(sp.weights, np.abs(X).sum(axis=1))))
            hil.append(ev("hilbert/diagonal", S.hilbert(), sp, X, ref))
            sp = space(2.0, f)
            hil.append(ev("hilbert/gauss", S.hilbert(), sp, _gauss(rng, sp.dim, 2 + len(hil) % 3, sp.is_complex)))
    for i, r in enumerate(RS):
        for f in FIELDS:
            sp = space(r, f)
            L = _gauss(rng, sp.dim, 2 + i % 2, sp.is_complex)
            if (i + len(nd)) % 2:
                nd.append(ev("numerical_dual(lattice)", S.numerical_dual(S.lattice()), sp, L, _norm(sp, np.abs(L).sum(axis=1))))
            else:
                nd.append(ev("numerical_dual(min)", S.numerical_dual(S.min_spec()), sp, L, sum(_norm(sp, L[:, j]) for j in range(L.shape[1]))))
    for r in RS:
        for n in (2, 3):
            sp = space(r, "complex")
            ws.append(ev(f"weak_summing(1)/torus/n={n}", S.weak_summing(1), sp, _gauss(rng, sp.dim, n, True)))
        sp = space(r, "complex")
        ws.append(ev("weak_summing(1)/delta", S.weak_summing(1), sp, _delta(sp, rng, 2 + len(ws) % 2)))
        sp = space(r, "complex")
        ws.append(ev("weak_summing(1)/diagonal", S.weak_summing(1), sp, _diagonal(sp, rng, 2 + len(ws) % 2)))

    groups = [pq, mx, hil, nd, ws]
    if tiny:
        groups = [g[:2] for g in groups]
    warm_sp = {f: mn.SpaceSpec(2.0, 3, (), f) for f in FIELDS}
    warm_X = {f: _gauss(np.random.default_rng(0), 3, 2, f == "complex") for f in FIELDS}
    warm_cfg = replace(cfg, seed=0, restarts=1)
    warmups = []
    for f in FIELDS:
        for spec in (S.pq_spec(2, 2), S.max_spec(), S.hilbert(), S.numerical_dual(S.lattice()), S.weak_summing(1)):
            warmups.append(lambda spec=spec, f=f: mn.evaluate(spec, mn.VectorTuple(warm_X[f], warm_sp[f]), warm_cfg).to_json())
    return Workload(_interleave(groups), warmups, cfg)


# ---------------------------------------------------------------------------
# exact_audit


def _blocks(rng, m):
    labels = rng.integers(0, 2, size=m)
    labels[rng.integers(m)] = 1 - labels[0]  # at least two blocks
    return [[int(k) for k in np.where(labels == b)[0]] for b in (0, 1)]


def exact_audit(mn, rng, tiny: bool) -> Workload:
    """Axiom audits, matrix laws, detectors and special decompositions on exact paths (dim 3)."""
    S = mn.MultiNormSpec
    cfg = mn.OptimConfig(seed=int(rng.integers(2**31)))
    scale = 1 if not tiny else 0.25
    T_AX, T_LAW, T_COAG, T_DET = (max(2, int(t * scale)) for t in (240, 320, 120, 48))
    counter = iter(range(10**9))

    def space(r, field, m=3):
        return _space(mn, rng, r, m, field, weighted=next(counter) % 2 == 1)

    def spaces(real_only=False):
        return [space(r, f) for r in RS for f in (FIELDS[:1] if real_only else FIELDS)]

    ax, law, coag, det, dec = [], [], [], [], []
    for sp in spaces():
        blocks = _blocks(rng, sp.dim)
        for spec in (S.min_spec(), S.lattice(), S.dual_lattice(), S.standard_q(sp.p), S.partition(blocks)):
            ax.append(audit_task(f"check_axioms({spec.variant})", lambda spec=spec, sp=sp: mn.check_axioms(spec, sp, 4, T_AX, cfg, 1e-8), (spec.to_json(), sp.to_json()), _violations_none))
    for sp in spaces(real_only=True):
        spec = S.weak_summing(1)
        ax.append(audit_task("check_axioms(weak_summing(1))", lambda spec=spec, sp=sp: mn.check_axioms(spec, sp, 4, T_AX, cfg, 1e-8), (spec.to_json(), sp.to_json()), _violations_none))
    for f in FIELDS:
        sp, spec = space(2.0, f), S.lp_sum(2)
        ax.append(audit_task("check_axioms(lp_sum(2))", lambda spec=spec, sp=sp: mn.check_axioms(spec, sp, 4, T_AX, cfg), (spec.to_json(), sp.to_json()), _axioms_find_a4))

    def law_task(spec, sp, p_role):
        return audit_task(
            f"matrix_law({spec.variant},p={p_role})",
            lambda: mn.check_multinorm_matrix_law(spec, sp, p_role, T_LAW, cfg, 1e-8),
            (spec.to_json(), sp.to_json(), p_role),
            _violations_none,
        )

    for sp in spaces():
        for spec in (S.min_spec(), S.lattice(), S.standard_q(sp.p), S.partition(_blocks(rng, sp.dim))):
            law.append(law_task(spec, sp, INF))
        for spec in (S.dual_lattice(), S.lp_sum(1)):
            law.append(law_task(spec, sp, 1))
    for sp in spaces(real_only=True):
        law.append(law_task(S.weak_summing(1), sp, 1))
    for f in FIELDS:
        law.append(law_task(S.weak_summing(2), space(2.0, f), 2))

    def coag_task(spec, sp):
        return audit_task(
            f"coagulation({spec.variant})",
            lambda: mn.check_coagulation_contraction(spec, sp, T_COAG, cfg, 1e-9),
            (spec.to_json(), sp.to_json()),
            _violations_none,
        )

    for sp in spaces():
        coag.append(coag_task(S.dual_lattice(), sp))
        coag.append(coag_task(S.lp_sum(1), sp))
    for sp in spaces(real_only=True):
        coag.append(coag_task(S.weak_summing(1), sp))

    for i, sp in enumerate(spaces()):
        fam = mn.band_family(sp)
        # members[1:4] split into two blocks, members[4] into singletons; alternate so the mix is fixed
        split = fam.members[1 + int(rng.integers(3))] if i % 2 else fam.members[4]
        det.append(detector_task("is_hermitian(coordinate)", lambda d=split, sp=sp: mn.is_hermitian(d, sp, T_DET, cfg), (sp.to_json(), [P.tolist() for P in split.projections]), True))
        det.append(detector_task("is_small(coordinate,lattice)", lambda d=split, sp=sp: mn.is_small(d, S.lattice(), sp, 2 * T_DET, cfg), sp.to_json(), True))
        det.append(detector_task("is_orthogonal(coordinate,lattice)", lambda d=split, sp=sp: mn.is_orthogonal(d, S.lattice(), sp, T_DET, cfg), sp.to_json(), True))
        det.append(detector_task("is_orthogonal_multinorm(lattice,band)", lambda fam=fam, sp=sp: mn.is_orthogonal_multinorm(S.lattice(), fam, sp, T_DET, cfg), sp.to_json(), True))
        X = _diagonal(sp, rng, sp.dim)
        det.append(detector_task("orthogonal_set(lattice,disjoint)", lambda X=X, sp=sp: mn.orthogonal_set(S.lattice(), mn.VectorTuple(X, sp), T_DET, cfg), X, True))
    for r in RS:
        sp = space(r, "real")
        split = mn.coordinate_decomposition(sp, [[0], [1, 2]])
        det.append(detector_task("is_small(coordinate,min)", lambda d=split, sp=sp: mn.is_small(d, S.min_spec(), sp, 2 * T_DET, cfg), sp.to_json(), False))
        det.append(detector_task("is_orthogonal(coordinate,min)", lambda d=split, sp=sp: mn.is_orthogonal(d, S.min_spec(), sp, T_DET, cfg), sp.to_json(), False))
    l1c = mn.SpaceSpec(1, 2, field="complex")
    oblique = mn.Decomposition((0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]), 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])))
    det.append(detector_task("is_hermitian(diagonal/antidiagonal,l1 complex)", lambda: mn.is_hermitian(oblique, l1c, T_DET, cfg), "oblique", False))
    for _ in range(2):
        a = float(rng.uniform(0.4, 0.9))
        t = mn.VectorTuple.of(mn.SpaceSpec(INF, 4), [1, 0, 0, a], [0, 1, 0, a], [0, 0, 1, a])
        det.append(detector_task("orthogonal_set(min,sup-norm triple)", lambda t=t: mn.orthogonal_set(S.min_spec(), t, T_DET, cfg), a, False))

    for i in range(16):
        m, n = (int(v) for v in rng.integers(1, 7, size=2))
        A = rng.uniform(-1, 1, size=(m, n))
        if i % 2:
            A = A + 1j * rng.uniform(-1, 1, size=(m, n))
        dec.append(special_task(mn, "row_special_decompose", A, column=False))
        if i % 2 == 0:
            dec.append(special_task(mn, "column_special_decompose", A, column=True))

    groups = [ax, law, coag, det, dec]
    if tiny:
        groups = [g[::8] for g in groups]
    wsp = {f: mn.SpaceSpec(2.0, 3, (), f) for f in FIELDS}
    warm_cfg = replace(cfg, seed=0, restarts=1)
    warmups = []
    for f in FIELDS:
        sp = wsp[f]
        d = mn.coordinate_decomposition(sp, [[0], [1, 2]])
        warmups += [
            lambda sp=sp: mn.check_axioms(S.weak_summing(1) if not sp.is_complex else S.lattice(), sp, 2, 1, warm_cfg),
            lambda sp=sp: mn.check_multinorm_matrix_law(S.lattice(), sp, INF, 1, warm_cfg),
            lambda sp=sp: mn.check_coagulation_contraction(S.dual_lattice(), sp, 1, warm_cfg),
            lambda sp=sp, d=d: mn.is_hermitian(d, sp, 1, warm_cfg),
            lambda sp=sp, d=d: mn.is_orthogonal(d, S.lattice(), sp, 1, warm_cfg),
            lambda sp=sp: mn.is_orthogonal_multinorm(S.lattice(), mn.band_family(sp), sp, 1, warm_cfg),
            lambda: mn.row_special_decompose(np.eye(2)),
        ]
    return Workload(_interleave(groups), warmups, cfg)


# ---------------------------------------------------------------------------
# ascent_ops


def _perm_matrix(sigma) -> np.ndarray:
    m = len(sigma)
    T = np.zeros((m, m))
    for k in range(m):
        T[k, sigma[k]] = 1.0  # (T f)(k) = f(sigma(k))
    return T


def _m_sigma(blocks, sigma) -> int:
    return max(sum(1 for Q in blocks if any(sigma[q] in set(P) for q in Q)) for P in blocks)


def ascent_ops(mn, rng, tiny: bool) -> Workload:
    """Multi-bounded norms, summing constants, c_n and rates of growth: ascent-driven, exact objectives."""
    S = mn.MultiNormSpec
    cfg = mn.OptimConfig(seed=int(rng.integers(2**31)), restarts=2)
    counter = iter(range(10**9))

    def space(r, m, field="real", weighted=None):
        c = next(counter)
        return _space(mn, rng, r, m, field, weighted=c % 2 == 1 if weighted is None else weighted)

    def mb(label, T, sp, s_src, s_tgt, n_max, level_refs=None, sup_ref=None):
        return mb_task(
            label,
            lambda: mn.mb_norm(T, sp, s_src, sp, s_tgt, n_max, cfg),
            (T, sp.to_json(), s_src.to_json(), s_tgt.to_json(), n_max),
            level_refs,
            sup_ref,
        )

    mbs, tup, pis, cns, grow = [], [], [], [], []
    for r in (1.0, 2.0, 3.0):
        for m in (3, 4):
            n_max = 4 if m == 3 else 3  # four levels on l^r_4 would climb from 64 delta seeds
            refs = [n ** (1.0 / r) for n in range(1, n_max + 1)]
            sp = space(r, m)
            mbs.append(mb("mb_norm(I,min->lattice)", np.eye(m), sp, S.min_spec(), S.lattice(), n_max, refs, refs[-1]))
            mbs.append(mb("mb_norm(I,min->dual_lattice)", np.eye(m), sp, S.min_spec(), S.dual_lattice(), n_max, [float(n) for n in range(1, n_max + 1)], float(n_max)))
            mbs.append(mb("mb_norm(T,min->lattice)", rng.standard_normal((m, m)), sp, S.min_spec(), S.lattice(), n_max))
            # coordinate permutations are isometries only without weights
            sp = space(r, m, weighted=False)
            sigma = [int(k) for k in rng.permutation(m)]
            T = _perm_matrix(sigma)
            mbs.append(mb("mb_norm(P,lattice->lattice)", T, sp, S.lattice(), S.lattice(), n_max, [1.0] * n_max, 1.0))
            mbs.append(mb("mb_norm(P,min->lattice)", T, sp, S.min_spec(), S.lattice(), n_max, refs, refs[-1]))
            blocks = _blocks(rng, m)
            bound = _m_sigma(blocks, sigma) ** (1.0 / r)
            spec = S.partition(blocks)
            mbs.append(mb("mb_norm(P,partition->partition)", T, sp, spec, spec, n_max, [bound] * n_max, bound))
    for i in range(4):
        sp = space((1.0, 2.0)[i % 2], 3)
        Ts = [rng.standard_normal((3, 3)) for _ in range(2 + i % 2)]
        k_max = 2 + i // 2
        tup.append(norm_task("mb_tuple_norm(min->lattice)", lambda Ts=Ts, sp=sp, k=k_max: mn.mb_tuple_norm(Ts, sp, S.min_spec(), sp, S.lattice(), k, cfg), (Ts, sp.to_json())))
    for n in (2, 3, 4, 5):
        sp = mn.SpaceSpec(INF, n)
        pis.append(norm_task("pi_summing(1,1,l_inf_n)", lambda sp=sp, n=n: mn.pi_summing(1, 1, sp, n, cfg), sp.to_json(), float(n)))
    for f in FIELDS:
        # (2,1) with an operator runs only over the reals: over C it takes ~1 s and would sit alone in the p90 tail
        for q, p in ((1, 1), (2, 1), (2, 2)) if f == "real" else ((1, 1), (2, 2)):
            sp = space(2.0, 3, f)
            n = 2 + len(pis) % 2
            T = rng.standard_normal((3, 3)) if (q, p) == (2, 1) else None
            pis.append(norm_task(f"pi_summing({q},{p},l2_3)", lambda q=q, p=p, sp=sp, n=n, T=T: mn.pi_summing(q, p, sp, n, cfg, operator=T), (sp.to_json(), q, p, n, T)))
    for r, n in ((1.0, 3),):  # c_n forces 64 restarts; one task keeps it out of the p90 tail
        sp = space(r, 3)
        cns.append(norm_task("c_n", lambda sp=sp, n=n: mn.c_n(sp, n, cfg), (sp.to_json(), n)))
    for r in (1.0, 2.0, 3.0):
        for m in (3, 4):
            sp = space(r, m)
            blocks = _blocks(rng, m)
            n = 2 + (m + len(grow)) % 3
            ref = min(n, len(blocks)) ** (1.0 / r)
            grow.append(norm_task("rate_of_growth(partition)", lambda sp=sp, b=blocks, n=n: mn.rate_of_growth(S.partition(b), sp, n, cfg), (sp.to_json(), blocks, n), ref))
            sp = space(r, m, weighted=False)
            sigma = rng.permutation(m)
            ops = [np.eye(m), _perm_matrix(sigma), np.diag(_unimodular(rng, m, False))]
            n = 2 + (m + len(grow)) % 2
            grow.append(norm_task("rate_of_growth(extended)", lambda sp=sp, ops=ops, n=n: mn.rate_of_growth(S.extended(S.lattice(), ops), sp, n, cfg), (sp.to_json(), ops, n), n ** (1.0 / r)))

    groups = [mbs, tup, pis, cns, grow]
    if tiny:
        groups = [g[::6] for g in groups]
    sp2, sp2c = mn.SpaceSpec(2.0, 2), mn.SpaceSpec(2.0, 2, (), "complex")
    warm_cfg = replace(cfg, seed=0, restarts=1)
    warmups = [
        lambda: mn.mb_norm(np.eye(2), sp2, S.min_spec(), sp2, S.lattice(), 1, warm_cfg),
        lambda: mn.mb_tuple_norm([np.eye(2)], sp2, S.min_spec(), sp2, S.lattice(), 1, warm_cfg),
        lambda: mn.pi_summing(1, 1, mn.SpaceSpec(INF, 2), 2, warm_cfg),
        lambda: mn.pi_summing(1, 1, sp2c, 2, warm_cfg),
        lambda: mn.c_n(sp2, 2, warm_cfg),
        lambda: mn.rate_of_growth(S.partition([[0], [1]]), sp2, 2, warm_cfg),
    ]
    return Workload(_interleave(groups), warmups, cfg)


WORKLOADS = {"search_eval": search_eval, "exact_audit": exact_audit, "ascent_ops": ascent_ops}


def build(mn, name: str, seed: int, tiny: bool = False) -> Workload:
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng([seed, index])
    return WORKLOADS[name](mn, rng, tiny)
