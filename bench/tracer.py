"""Span tracer that wraps ``multinorm``'s public functions from outside the library.

Each wrapped call is a span (name, start, end, parent, task id).  Calls,
self time and inclusive time are summed per span name for every span; the
first MAX_SPANS spans are also kept in flat arrays in memory, and ``save``
writes them out when the run ends.
A function is wrapped in every ``multinorm.*`` namespace that binds it
(``op_norm_pq`` is imported by name into summing, matrixlaws and
operators), so calls are seen whichever module makes them.  The value and
project callbacks handed to ``seeded_ascent`` get spans of their own, so
the ascent's self time excludes the objective it climbs.

Self time of a span is its duration minus the durations of its direct
children; inclusive time is summed over outermost spans of a group only,
so recursion is not counted twice.

``KindRecorder`` is the untraced run's one instrument: it notes the
certificate kinds of the evaluations a task runs, for ``exact_frac``.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# span name -> (module, attribute) pairs whose functions share that span name
FUNCTIONS = {
    "summing.mu_weak": [("summing", "mu_weak")],
    "summing.pi_summing": [("summing", "pi_summing")],
    "summing.c_n": [("summing", "c_n")],
    "optim.op_norm_pq": [("optim", "op_norm_pq")],
    "optim.sign_supremum": [("optim", "sign_supremum")],
    "optim.torus": [("optim", "torus_supremum"), ("optim", "torus_certified_upper")],
    "multinorms.point_value": [("multinorms", "point_value")],
    "multinorms.exact_evaluator": [("multinorms", "exact_evaluator")],
    "multinorms.check_axioms": [("multinorms", "check_axioms")],
    "multinorms.rate_of_growth": [("multinorms", "rate_of_growth")],
    "matrixlaws.check": [("matrixlaws", "check_multinorm_matrix_law"), ("matrixlaws", "check_coagulation_contraction")],
    "matrixlaws.row_special_decompose": [("matrixlaws", "row_special_decompose"), ("matrixlaws", "column_special_decompose")],
    "operators.mb_norm": [("operators", "mb_norm")],
    "operators.mb_tuple_norm": [("operators", "mb_tuple_norm")],
    "decompositions.generated_value": [("decompositions", "generated_value")],
    "decompositions.detectors": [
        ("decompositions", "is_hermitian"),
        ("decompositions", "is_small"),
        ("decompositions", "is_orthogonal"),
        ("decompositions", "orthogonal_set"),
        ("decompositions", "is_orthogonal_multinorm"),
    ],
}
# span name -> (class, method) pairs, patched on the class
METHODS = {
    "spaces.tuple_build": [("VectorTuple", "__post_init__"), ("MatrixOp", "__post_init__")],
    "spaces.norm": [("SpaceSpec", "norm"), ("SpaceSpec", "norm_cols")],
}
# generators whose yielded items are counted (no span: the consumer does the work)
GENERATORS = [("partitions", "slot_assignments"), ("partitions", "set_partitions")]

EXACT_COUNTED = ("summing.mu_weak", "optim.op_norm_pq")
TASK, ENCODE, OBJECTIVE = "task", "cli.encode", "optim.seeded_ascent.objective"
EVALUATE = "multinorms.evaluate"
MAX_SPANS = 200_000  # spans kept for the spans file; the per-layer sums cover every span


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._group: list[int] = []  # name id -> group id for outermost accounting
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []  # outermost spans of the group only
        self.s_name, self.s_parent, self.s_task = array("i"), array("i"), array("i")
        self.s_start, self.s_end = array("d"), array("d")
        self._stack: list[list] = []  # frames [name id, span index, outermost, child seconds, start]
        self._active: dict[int, int] = {}
        self.task_id = -1
        self.exact: dict[str, int] = {n: 0 for n in EXACT_COUNTED}
        self.objective_calls = 0
        self.items = 0
        self._patched: list[tuple] = []

    # -- spans ------------------------------------------------------------
    def nid(self, name: str, group: str | None = None) -> int:
        i = self._ids.get(name)
        if i is None:
            g = self.nid(group) if group and group != name else None
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self._group.append(i if g is None else g)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return i

    def enter(self, nid: int) -> list:
        g = self._group[nid]
        depth = self._active.get(g, 0)
        self._active[g] = depth + 1
        idx = -1
        if len(self.s_name) < MAX_SPANS:
            idx = len(self.s_name)
            self.s_name.append(nid)
            self.s_parent.append(self._stack[-1][1] if self._stack else -1)
            self.s_task.append(self.task_id)
            self.s_start.append(0.0)
            self.s_end.append(0.0)
        frame = [nid, idx, depth == 0, 0.0, 0.0]
        self._stack.append(frame)
        frame[4] = start = perf_counter()
        if idx >= 0:
            self.s_start[idx] = start
        return frame

    def exit(self, frame: list) -> None:
        t = perf_counter()
        self._stack.pop()
        nid, idx, outer, child, start = frame
        dur = t - start
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if outer:
            self.incl_s[nid] += dur
        if self._stack:
            self._stack[-1][3] += dur
        self._active[self._group[nid]] -= 1
        if idx >= 0:
            self.s_end[idx] = t

    def _wrap(self, fn, name: str):
        nid = self.nid(name)
        tr = self
        counted = name if name in EXACT_COUNTED else None

        def wrapper(*args, **kwargs):
            frame = tr.enter(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                tr.exit(frame)
            if counted is not None and res.kind == "exact":
                tr.exact[counted] += 1
            return res

        return wrapper

    def _wrap_evaluate(self, fn):
        tr = self
        tr.nid(EVALUATE)

        def wrapper(spec, *args, **kwargs):
            frame = tr.enter(tr.nid(f"{EVALUATE}.{spec.variant}", EVALUATE))
            try:
                return fn(spec, *args, **kwargs)
            finally:
                tr.exit(frame)

        return wrapper

    def _wrap_ascent(self, fn):
        tr = self
        nid = self.nid("optim.seeded_ascent")
        obj = self.nid(OBJECTIVE)

        def spanned(cb, is_value):
            def inner(x):
                if is_value:
                    tr.objective_calls += 1
                frame = tr.enter(obj)
                try:
                    return cb(x)
                finally:
                    tr.exit(frame)

            return inner

        def wrapper(project, value, *args, **kwargs):
            frame = tr.enter(nid)
            try:
                return fn(spanned(project, False), spanned(value, True), *args, **kwargs)
            finally:
                tr.exit(frame)

        return wrapper

    def _wrap_generator(self, fn):
        tr = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tr.items += 1
                yield item

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self, mn) -> None:
        """Patch every multinorm namespace that binds a traced function."""
        plan = {}
        for name, targets in FUNCTIONS.items():
            for mod, attr in targets:
                fn = getattr(getattr(mn, mod), attr)
                plan[id(fn)] = (fn, self._wrap(fn, name))
        for fn, make in (
            (mn.multinorms.evaluate, self._wrap_evaluate),
            (mn.optim.seeded_ascent, self._wrap_ascent),
            *((getattr(getattr(mn, mod), attr), self._wrap_generator) for mod, attr in GENERATORS),
        ):
            plan[id(fn)] = (fn, make(fn))
        self._patched = patch_everywhere(plan)
        for name, targets in METHODS.items():
            for cls_name, meth in targets:
                cls = getattr(mn.spaces, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name))
                self._patched.append((cls, meth, orig))

    def uninstall(self) -> None:
        restore(self._patched)

    # -- results ----------------------------------------------------------
    def aggregate(self) -> dict:
        """Per span name: calls, self seconds, inclusive seconds (outermost spans only)."""
        return {
            n: {"calls": self.calls[i], "self_s": self.self_s[i], "incl_s": self.incl_s[i]}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write the kept spans (the first MAX_SPANS opened)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.s_name, dtype=np.int32),
            parent=np.frombuffer(self.s_parent, dtype=np.int32),
            task=np.frombuffer(self.s_task, dtype=np.int32),
            start=np.frombuffer(self.s_start, dtype=np.float64),
            end=np.frombuffer(self.s_end, dtype=np.float64),
        )


def patch_everywhere(plan: dict) -> list:
    """Rebind, in every ``multinorm.*`` module, each name bound to a planned function.

    plan maps id(function) -> (function, replacement); returns the
    (owner, attribute, original) triples that ``restore`` puts back.
    """
    patched = []
    for key, module in list(sys.modules.items()):
        if key != "multinorm" and not key.startswith("multinorm."):
            continue
        for attr, value in list(vars(module).items()):
            hit = plan.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    return patched


def restore(patched: list) -> None:
    for owner, attr, orig in reversed(patched):
        setattr(owner, attr, orig)
    patched.clear()


class KindRecorder:
    """Certificate kind of what a task ran, for tasks whose result carries no kind.

    Every ``point_value`` call counts as exact: its search fallback goes
    through ``evaluate``, whose result kind is recorded, as is every
    ``op_norm_pq`` result.  After a task, ``kind`` is None if the task made
    none of these calls, else the first kind other than "exact" seen, else
    "exact".  The caller sets ``kind = None`` before each task.
    """

    def __init__(self):
        self.kind = None
        self._patched: list = []

    def _wrap(self, fn, kind_of):
        rec = self

        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            if rec.kind is None or rec.kind == "exact":
                rec.kind = kind_of(res)
            return res

        return wrapper

    def install(self, mn) -> None:
        result_kind = lambda res: res.kind
        plan = {}
        for fn, kind_of in (
            (mn.multinorms.point_value, lambda _: "exact"),
            (mn.multinorms.evaluate, result_kind),
            (mn.optim.op_norm_pq, result_kind),
        ):
            plan[id(fn)] = (fn, self._wrap(fn, kind_of))
        self._patched = patch_everywhere(plan)

    def uninstall(self) -> None:
        restore(self._patched)
