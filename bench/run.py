"""Benchmark entry point: one seeded workload, in one process, on one thread.

    python3 bench/run.py --workload search_eval --seed 1 --seconds 20 --trace 0

Runs the workload's task list in a closed loop: one caller, and the next
task starts when the previous one returns.  Whole rounds repeat until at
least --seconds have passed and at least MIN_TASKS tasks have run.  The
first round's results go through the per-task oracles and become the
reference; every later round must repeat them bit for bit.  --trace 0
reports the end-to-end metrics; --trace 1 alternates untraced and traced
rounds and reports the per-layer metrics.  The last stdout line
is one JSON object with keys correct, attempted, failed, metrics; a full
report goes to bench/out/.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # kept out of tuning; later performance claims must also hold here
MIN_TASKS = 100  # so that ten samples lie beyond the p90
MIN_TASKS_TINY = 20
SETUPS = 7  # set-ups timed per run; setup_s is their median
KERNEL_REF_MS = 0.5  # kernel() time that defines "reference speed"; measured on a 2-vCPU Xeon KVM guest, numpy 2.4.6
_KX = np.random.default_rng(0).standard_normal((3, 4))
_KW = np.array([1.0, 0.5, 2.0])


def kernel() -> float:
    """Fixed reference work: small numpy calls and Python bookkeeping, the library's mix; never calls multinorm."""
    acc = 0.0
    for i in range(40):
        acc += float((_KW[:, None] * np.abs(_KX) ** 1.5).sum() ** (1 / 1.5))
        if i % 8 == 0:
            acc += float(np.linalg.svd(_KX, compute_uv=False)[0])
        d = {"k": i, "v": [i, i + 1]}
        acc += len(d["v"])
    return acc


def kernel_ms() -> float:
    """One kernel() call in milliseconds, with the cyclic garbage collector held off."""
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return (perf_counter() - t0) * 1e3
    finally:
        gc.enable()


def machine_facts() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration") if f in deps[k]} for k in ("blas", "lapack") if k in deps}
    except Exception as e:  # the config API differs across numpy releases; record why it is missing
        blas = {"error": repr(e)}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "loadavg_at_start": list(os.getloadavg()),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def fresh_import():
    """Import multinorm from this checkout's src/, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "multinorm" or k.startswith("multinorm.")]:
        del sys.modules[name]
    mn = importlib.import_module("multinorm")
    if Path(mn.__file__).resolve().parent != (SRC / "multinorm").resolve():
        raise SystemExit(f"multinorm imported from {mn.__file__}, not from {SRC}")
    return mn


def feed(h, obj) -> None:
    """Hash task inputs: arrays by dtype, shape and bytes; everything else by repr."""
    if hasattr(obj, "tobytes") and hasattr(obj, "dtype"):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(obj.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for o in obj:
            feed(h, o)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(json.dumps(obj, sort_keys=True, default=repr).encode())
    else:
        h.update(repr(obj).encode())


class Runner:
    """Closed-loop executor; the first round's outputs are the reference the others must repeat."""

    def __init__(self, tasks, tracer=None, kinds=None):
        self.tasks = tasks
        self.tracer = tracer
        self.kinds = kinds  # KindRecorder, or None when no certificate kinds are wanted
        self.latencies: list[float] = []
        self.kernel: list[float] = []  # kernel() milliseconds measured right after each timed task
        self.round_ends: list[int] = []
        self.round_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _note(self, i, msg):
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(f"task {i} [{self.tasks[i].label}]: {msg}")

    def execute(self, i):
        task, tr = self.tasks[i], self.tracer
        if tr is None:
            if self.kinds is not None:
                self.kinds.kind = None
            t0 = perf_counter()
            res = task.call()
            enc = task.encode(res)
            return res, enc, perf_counter() - t0
        tr.task_id += 1
        t0 = perf_counter()
        root = tr.enter(tr.nid(tracing.TASK))
        try:
            res = task.call()
            frame = tr.enter(tr.nid(tracing.ENCODE))
            try:
                enc = task.encode(res)
            finally:
                tr.exit(frame)
        finally:
            tr.exit(root)
        return res, enc, perf_counter() - t0

    def _attempt(self, i):
        """Run task i; a raised exception is recorded as that task's failure."""
        self.attempted += 1
        try:
            return self.execute(i)
        except Exception:
            self._note(i, "raised " + traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None

    def rounds(self, seconds: float, min_tasks: int, reference: list | None = None, verdicts: list | None = None):
        """Timed whole rounds until at least `seconds` have passed and `min_tasks` tasks were timed.

        Without a reference, the first round's results go through the oracles
        (outside the timed region) and become the reference.  Every other
        output must equal the reference exactly.
        Returns (reference encodings, per-task oracle verdicts, first-round certificates or None).
        """
        certs = None
        if reference is None:
            reference, verdicts, certs = [], [], []
        start, cpu0 = perf_counter(), process_time()
        while True:
            spent = 0.0
            for i, task in enumerate(self.tasks):
                first = len(reference) == i
                out = self._attempt(i)
                if out is None:
                    if first:
                        reference.append(None)
                        verdicts.append(["raised"])
                        certs.append(None)
                    continue
                res, enc, dt = out
                self.latencies.append(dt)
                spent += dt
                self.kernel.append(kernel_ms())
                if first:
                    try:
                        problems = task.check(res)
                    except Exception:  # an oracle that cannot read the result fails the task, not the run
                        problems = ["oracle raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]]
                    if problems:
                        self._note(i, "; ".join(problems))
                    reference.append(enc)
                    verdicts.append(problems)
                    cert = task.cert(res)
                    if cert[0] is None and self.kinds is not None:
                        cert = (self.kinds.kind, *cert[1:])
                    certs.append(cert)
                elif enc != reference[i]:
                    self._note(i, "output differs from the reference round")
                elif verdicts[i]:
                    self._note(i, "; ".join(verdicts[i]))
            self.round_s.append(spent)
            self.round_ends.append(len(self.latencies))
            if perf_counter() - start >= seconds and len(self.latencies) >= min_tasks:
                self.wall_s, self.cpu_s = perf_counter() - start, process_time() - cpu0
                return reference, verdicts, certs

    def speed_factors(self) -> list:
        """Per round, KERNEL_REF_MS over the round's median kernel time: <1 when the host ran slower than reference."""
        factors, start = [], 0
        for end in self.round_ends:
            factors.append(KERNEL_REF_MS / statistics.median(self.kernel[start:end]) if end > start else 1.0)
            start = end
        return factors

    def reference_round_s(self) -> list:
        """Time spent inside tasks per round, at reference speed."""
        return [s * f for s, f in zip(self.round_s, self.speed_factors())]

    def reference_latencies(self) -> list:
        """Task latencies at reference speed: each scaled by its round's speed factor."""
        out, start = [], 0
        for end, f in zip(self.round_ends, self.speed_factors()):
            out += [x * f for x in self.latencies[start:end]]
            start = end
        return out


def certificate_metrics(certs) -> dict:
    """exact share among tasks with a kind, and mean of lower/U with U the finite upper bound, else the closed form."""
    done = [c for c in certs if c is not None]
    kinds = [c[0] for c in done if c[0] is not None]
    ratios, excluded = [], 0
    for kind, lower, upper, ref in done:
        U = upper if upper is not None and math.isfinite(upper) else ref
        if U is None or lower is None or not U > 0:
            excluded += 1
            continue
        ratios.append(lower / U)
    ratio = statistics.fmean(ratios) if ratios else float("nan")
    return {
        "exact_frac": kinds.count("exact") / max(1, len(kinds)),
        "kinds_included": len(kinds),
        "cert_ratio_mean": ratio,
        "cert_gap_mean": 1.0 - ratio,
        "cert_included": len(ratios),
        "cert_excluded": excluded,
    }


def latency_metrics(lat: list) -> dict:
    q = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "calls_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": q[8] * 1e3,
        "samples": len(lat),
    }


def per_layer(tracer, agg: dict, n_tasks: int, overhead: float, variants: list) -> dict:
    """Per-layer figures per traced task (counts per task, milliseconds per task)."""

    def g(name, key):
        return agg.get(name, {}).get(key, 0)

    def ms(name, key="self_s"):
        return 1e3 * g(name, key) / n_tasks

    def calls(name):
        return g(name, "calls") / n_tasks

    evaluate = [n for n in agg if n.startswith(tracing.EVALUATE + ".")]
    out = {
        "summing.mu_weak.calls": calls("summing.mu_weak"),
        "summing.mu_weak.self_ms": ms("summing.mu_weak"),
        "summing.mu_weak.exact_frac": tracer.exact["summing.mu_weak"] / max(1, g("summing.mu_weak", "calls")),
        "spaces.tuple_build.calls": calls("spaces.tuple_build"),
        "spaces.tuple_build.self_ms": ms("spaces.tuple_build"),
        "spaces.norm.calls": calls("spaces.norm"),
        "spaces.norm.self_ms": ms("spaces.norm"),
        "optim.op_norm_pq.calls": calls("optim.op_norm_pq"),
        "optim.op_norm_pq.self_ms": ms("optim.op_norm_pq"),
        "optim.op_norm_pq.exact_frac": tracer.exact["optim.op_norm_pq"] / max(1, g("optim.op_norm_pq", "calls")),
        "optim.seeded_ascent.calls": calls("optim.seeded_ascent"),
        "optim.seeded_ascent.self_ms": ms("optim.seeded_ascent"),
        "optim.seeded_ascent.objective_calls": tracer.objective_calls / n_tasks,
        "optim.seeded_ascent.objective_ms": ms(tracing.OBJECTIVE, "incl_s"),
        "optim.sign_supremum.calls": calls("optim.sign_supremum"),
        "optim.sign_supremum.self_ms": ms("optim.sign_supremum"),
        "optim.torus.self_ms": ms("optim.torus"),
        "summing.pi_summing.self_ms": ms("summing.pi_summing"),
        "summing.c_n.self_ms": ms("summing.c_n"),
        "multinorms.evaluate.calls": sum(g(n, "calls") for n in evaluate) / n_tasks,
    }
    for v in variants:
        out[f"multinorms.evaluate.{v}.ms"] = ms(f"{tracing.EVALUATE}.{v}", "incl_s")
    out.update(
        {
            "multinorms.point_value.calls": calls("multinorms.point_value"),
            "multinorms.point_value.self_ms": ms("multinorms.point_value"),
            "multinorms.exact_evaluator.calls": calls("multinorms.exact_evaluator"),
            "multinorms.check_axioms.self_ms": ms("multinorms.check_axioms"),
            "multinorms.rate_of_growth.self_ms": ms("multinorms.rate_of_growth"),
            "matrixlaws.check.self_ms": ms("matrixlaws.check"),
            "matrixlaws.row_special_decompose.self_ms": ms("matrixlaws.row_special_decompose"),
            "operators.mb_norm.self_ms": ms("operators.mb_norm"),
            "operators.mb_tuple_norm.self_ms": ms("operators.mb_tuple_norm"),
            "decompositions.generated_value.calls": calls("decompositions.generated_value"),
            "decompositions.generated_value.self_ms": ms("decompositions.generated_value"),
            "decompositions.detectors.self_ms": ms("decompositions.detectors"),
            "partitions.items": tracer.items / n_tasks,
            "cli.encode_us": 1e3 * ms(tracing.ENCODE),
            "trace.overhead_frac": overhead,
        }
    )
    return out


# (workload, layers) whose self time should be ~0 there: under 2 % of task time
NEAR_ZERO = [
    ("exact_audit", ("summing.mu_weak",)),
    ("exact_audit", ("spaces.tuple_build",)),
    ("exact_audit", ("optim.seeded_ascent",)),
    ("exact_audit", ("optim.torus",)),
    ("ascent_ops", ("optim.op_norm_pq",)),
    ("search_eval", ("summing.pi_summing", "summing.c_n")),
    ("search_eval", ("multinorms.point_value", "multinorms.exact_evaluator")),
    ("search_eval", ("matrixlaws.check", "matrixlaws.row_special_decompose")),
    ("search_eval", ("decompositions.generated_value", "decompositions.detectors")),
]


def predictions(workload: str, agg: dict, items_per_task: float) -> list:
    """The benchmark's predictions for this workload (see README), each with whether it held."""
    total = agg[tracing.TASK]["incl_s"]

    def share(name, key="self_s"):
        return agg.get(name, {}).get(key, 0.0) / total

    ascent_calls = agg.get("optim.seeded_ascent", {}).get("calls", 0)
    rows = [
        ("search_eval", "more than half of task time is under summing.mu_weak", share("summing.mu_weak", "incl_s") > 0.5,
         f"share {share('summing.mu_weak', 'incl_s'):.3f}"),
        ("exact_audit", "zero optim.seeded_ascent calls", ascent_calls == 0, f"{ascent_calls} calls"),
        ("ascent_ops", "seeded_ascent self time (callbacks excluded) is a visible share (>= 5%)", share("optim.seeded_ascent") >= 0.05,
         f"share {share('optim.seeded_ascent'):.3f}"),
        ("search_eval", "partitions.items ~0", items_per_task < 1, f"{items_per_task:.3g} items/task"),
    ]
    for w, layers in NEAR_ZERO:
        sh = sum(share(n) for n in layers)
        rows.append((w, f"{' + '.join(layers)} self time ~0 (< 2%)", sh < 0.02, f"share {sh:.4f}"))
    return [{"workload": w, "prediction": p, "held": bool(h), "measured": m} for w, p, h, m in rows if w == workload]


def spec_metrics(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few tasks per class, for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "multinorm" / "__init__.py").is_file():
        print(f"error: no multinorm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    units = spec_metrics("per_layer" if args.trace else "end_to_end")
    facts = machine_facts()

    # kernel() is timed around every set-up; one factor from all of them is steadier than one per set-up
    setup_times, setup_kernel = [], []
    for _ in range(1 if args.tiny else SETUPS):
        gc.collect()  # garbage from the previous set-up's modules is not this set-up's cost
        setup_kernel += [kernel_ms() for _ in range(5)]
        t0 = perf_counter()
        mn = fresh_import()
        wl = workloads.build(mn, args.workload, args.seed, args.tiny)
        for warm in wl.warmups:
            warm()
        setup_times.append(perf_counter() - t0)
    setup_kernel += [kernel_ms() for _ in range(5)]
    setup_factor = KERNEL_REF_MS / statistics.median(setup_kernel)

    h = hashlib.sha256()
    for t in wl.tasks:
        feed(h, (t.label, t.inputs))
    input_digest = h.hexdigest()[:16]

    min_tasks = MIN_TASKS_TINY if args.tiny else MIN_TASKS
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny, "facts": facts,
              "tasks_per_round": len(wl.tasks), "cfg": wl.cfg.to_json(), "input_digest": input_digest,
              "setup_times_s": setup_times, "setup_speed_factor": setup_factor}
    if not args.trace:
        kinds = tracing.KindRecorder()
        kinds.install(mn)
        runner = Runner(wl.tasks, kinds=kinds)
        ref, verdicts, certs = runner.rounds(args.seconds, min_tasks)
        lat = latency_metrics(runner.reference_latencies())
        raw = latency_metrics(runner.latencies)
        cm = certificate_metrics(certs)
        full = {
            "setup_s": statistics.median(setup_times) * setup_factor,
            "calls_per_s": lat["calls_per_s"],
            "latency_p50_ms": lat["latency_p50_ms"],
            "latency_p90_ms": lat["latency_p90_ms"],
            "ok_frac": 1.0 - runner.failed / runner.attempted,
            "failed_frac": runner.failed / runner.attempted,
            "cert_ratio_mean": cm["cert_ratio_mean"],
            "cert_gap_mean": cm["cert_gap_mean"],
            "exact_frac": cm["exact_frac"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        full.update({"raw_setup_s": statistics.median(setup_times), "raw_calls_per_s": raw["calls_per_s"],
                     "raw_latency_p50_ms": raw["latency_p50_ms"], "raw_latency_p90_ms": raw["latency_p90_ms"]})
        report.update({"round_s": runner.round_s, "speed_factors": runner.speed_factors(), "samples": lat["samples"],
                       "cpu_over_wall": runner.cpu_s / runner.wall_s,
                       "cert_included": cm["cert_included"], "cert_excluded": cm["cert_excluded"],
                       "kinds_included": cm["kinds_included"], "all_metrics": full})
    else:
        # untraced and traced rounds alternate, so host drift cancels in each pair's ratio
        runner, tr = Runner(wl.tasks), tracing.Tracer()
        traced = Runner(wl.tasks, tr)
        ref, verdicts, _ = runner.rounds(0.0, 0)
        start = perf_counter()
        while True:
            tr.install(mn)
            try:
                traced.rounds(0.0, 0, ref, verdicts)
            finally:
                tr.uninstall()
            if perf_counter() - start >= args.seconds:
                break
            runner.rounds(0.0, 0, ref, verdicts)
        ratios = [t / u for u, t in zip(runner.reference_round_s(), traced.reference_round_s())]
        agg = tr.aggregate()
        variants = [n.split(".")[2] for n in units if n.startswith(tracing.EVALUATE + ".") and n.endswith(".ms")]
        full = per_layer(tr, agg, len(traced.latencies), statistics.median(ratios) - 1.0, variants)
        runner.attempted += traced.attempted
        runner.failed += traced.failed
        runner.failures += traced.failures
        OUT.mkdir(exist_ok=True)
        tr.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        report.update({"round_s": runner.round_s, "traced_round_s": traced.round_s, "overhead_ratios": ratios,
                       "spans_kept": len(tr.s_name), "layers": agg,
                       "predictions": predictions(args.workload, agg, full["partitions.items"]), "all_metrics": full})

    digest = hashlib.sha256("\n".join(str(e) for e in ref).encode()).hexdigest()[:16]
    report.update({"result_digest": digest, "attempted": runner.attempted, "failed": runner.failed, "failures": runner.failures,
                   "oracle_failures": [f"[{wl.tasks[i].label}] {'; '.join(v)}" for i, v in enumerate(verdicts) if v]})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1, default=repr))

    for f in runner.failures[:10]:
        print("FAILED", f, file=sys.stderr)
    for p in report.get("predictions", []):
        print(f"prediction [{p['workload']}] {p['prediction']}: {'held' if p['held'] else 'NOT held'} ({p['measured']})", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} tasks/round={len(wl.tasks)} inputs={input_digest} results={digest}", file=sys.stderr)
    metrics = {name: {"value": full[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
