"""Self-test of the benchmark: tiny runs of every workload, about a minute in all.

    python3 bench/selftest.py

For each workload it checks that
- a tiny untraced run prints every end-to-end metric of BENCHMARK.json,
  with its unit, and that no task failed (failed_frac == 0);
- a tiny traced run prints every per-layer metric with its unit, and its
  results are bit-identical to the untraced run with the same seed
  (same result digest, computed in another process);
- another seed changes the generated inputs.
Finally it checks that the benchmark exits non-zero, printing no result,
in a directory that holds only BENCHMARK.json and bench/.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SEED, OTHER_SEED = 1, 2


def run(root: Path, workload: str, seed: int, trace: int) -> tuple[subprocess.CompletedProcess, dict | None]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    report = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return proc, json.loads(report.read_text()) if proc.returncode == 0 else None


def check(ok: bool, what: str, detail: str = "") -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        print(detail, file=sys.stderr)
        sys.exit(1)


def check_result_line(proc, kind: str, spec: dict, label: str) -> None:
    check(proc.returncode == 0, f"{label}: exit code {proc.returncode}", proc.stderr[-2000:])
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(line)}")
    check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, f"{label}: correct, {line['failed']} of {line['attempted']} failed")
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    check(got == want, f"{label}: every {kind} metric printed with its unit")
    bad = [k for k, v in line["metrics"].items() if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    check(not bad, f"{label}: metric values finite {bad}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in [x["name"] for x in spec["workloads"]]:
        proc, rep = run(ROOT, w, SEED, 0)
        check_result_line(proc, "end_to_end", spec, f"{w} untraced")
        check(rep["all_metrics"]["failed_frac"] == 0, f"{w}: failed_frac == 0")
        proc, rep_t = run(ROOT, w, SEED, 1)
        check_result_line(proc, "per_layer", spec, f"{w} traced")
        check(rep_t["result_digest"] == rep["result_digest"], f"{w}: same seed, same result digest in two processes ({rep['result_digest']})")
        check(rep_t["failed"] == 0, f"{w}: traced results bit-identical to untraced")
        _, rep_o = run(ROOT, w, OTHER_SEED, 0)
        check(rep_o is not None and rep_o["input_digest"] != rep["input_digest"], f"{w}: another seed changes the inputs")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "search_eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), f"without src/: exit code {proc.returncode}, no result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
