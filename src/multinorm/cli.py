"""Command-line front end: evaluate, audit, and reproduce known values.

Every report embeds the seed and full optimizer config, so rerunning the
printed {command, input, cfg} triple reproduces the report byte for byte
(modulo the timestamp field).  Exit codes: 0 success, 1 acceptance
failure, 2 bad input (schema, non-finite number, or a spec, dimension,
field, budget, degenerate-norm or hermitian error) or a result that
overflowed to a non-finite number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import acceptance, summing
from .decompositions import Decomposition, is_hermitian, is_orthogonal, is_small
from .errors import BudgetError, DegenerateNormError, DimensionError, FieldError, HermitianError, SpecError
from .multinorms import MultiNormSpec, check_axioms, evaluate, is_exact_path, rate_of_growth
from .operators import mb_norm
from .optim import INF, OptimConfig
from .spaces import MatrixOp, SpaceSpec, VectorTuple, _json_number, matrix_from_json, vector_from_json


class SchemaError(ValueError):
    pass


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise SchemaError(f"non-finite number {text} in input")
    return x


def _load_input(arg: str | None) -> dict:
    if arg is None:
        return {}
    strict = {"parse_float": _finite, "parse_constant": _finite}
    if arg == "-":
        return json.load(sys.stdin, **strict)
    if arg.strip().startswith("{"):
        return json.loads(arg, **strict)
    with open(arg, "r", encoding="utf-8") as f:
        return json.load(f, **strict)


def _space(doc: dict, key: str = "space") -> SpaceSpec:
    try:
        return SpaceSpec.from_json(doc[key])
    except KeyError as e:
        raise SchemaError(f"missing {key!r}") from e
    except (TypeError, ValueError) as e:
        raise SchemaError(f"bad {key!r}: {e}") from e


def _spec(doc: dict, key: str = "spec", default: dict | None = None) -> MultiNormSpec:
    try:
        return MultiNormSpec.from_json(doc[key] if default is None else doc.get(key) or default)
    except KeyError as e:
        raise SchemaError(f"missing {key!r}") from e
    except (TypeError, ValueError) as e:
        raise SchemaError(f"bad {key!r}: {e}") from e


def _tuple(doc: dict, space: SpaceSpec, key: str = "tuple") -> VectorTuple:
    try:
        cols = np.stack([vector_from_json(v, space) for v in doc[key]], axis=1)
    except KeyError as e:
        raise SchemaError(f"missing {key!r}") from e
    except (TypeError, ValueError, IndexError) as e:
        raise SchemaError(f"bad {key!r}: {e}") from e
    return VectorTuple(cols, space)


def _count(doc: dict, key: str, default: int | None = None) -> int | None:
    """doc[key], or default where it is absent; a value that is not a JSON integer (true and false included) is a SchemaError."""
    if key not in doc:
        return default
    try:
        return _json_number(doc[key], repr(key), integer=True)
    except ValueError as e:
        raise SchemaError(str(e)) from None


def _cfg(doc: dict, args) -> OptimConfig:
    base = doc.get("cfg", {})
    if not isinstance(base, dict):
        raise SchemaError("cfg must be an object")
    merged = dict(base)
    if args.seed is not None:
        merged["seed"] = args.seed
    if args.restarts is not None:
        merged["restarts"] = args.restarts
    if args.max_enum is not None:
        merged["max_enum"] = args.max_enum
    for key in ("seed", "restarts", "grid_points", "max_enum"):
        _count(merged, key)
    try:
        return OptimConfig.from_json(merged)
    except (TypeError, ValueError) as e:
        raise SchemaError(f"bad cfg: {e}") from e


# ---------------------------------------------------------------------------
# commands


def cmd_eval(doc: dict, cfg: OptimConfig) -> dict:
    space = _space(doc)
    spec = _spec(doc)
    t = _tuple(doc, space)
    res = evaluate(spec, t, cfg)
    return {"norm_value": res.to_json()}


def cmd_axioms(doc: dict, cfg: OptimConfig) -> dict:
    space = _space(doc)
    spec = _spec(doc)
    n_max = _count(doc, "n_max", 4)
    trials = _count(doc, "trials")
    if trials is None:
        # search-backed evaluators are orders of magnitude slower per call
        trials = 200 if is_exact_path(spec, space, n_max + 1, cfg) else 12
    rep = check_axioms(spec, space, n_max=n_max, trials=trials, cfg=cfg)
    return {"axiom_report": rep.to_json()}


def cmd_growth(doc: dict, cfg: OptimConfig) -> dict:
    space = _space(doc)
    spec = _spec(doc)
    n_max = _count(doc, "n_max", 4)
    if n_max < 1:
        raise SchemaError("n_max must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        res = rate_of_growth(spec, space, n, cfg)
        rows.append({"n": n, **res.to_json()})
    return {"growth": rows}


def cmd_dual(doc: dict, cfg: OptimConfig) -> dict:
    primal = _space(doc)
    base = _spec(doc, "base")
    dual_space = primal.dual()
    t = _tuple(doc, dual_space)
    res = evaluate(MultiNormSpec.numerical_dual(base), t, cfg)
    out = {"numerical_dual": res.to_json()}
    compare = doc.get("compare")
    if compare is not None:
        closed_spec = {
            "dual_lattice": MultiNormSpec.dual_lattice(),
            "sum_of_norms": MultiNormSpec.lp_sum(1),
            "min": MultiNormSpec.min_spec(),
        }.get(compare)
        if closed_spec is None:
            raise SchemaError(f"unknown comparison {compare!r}")
        closed = evaluate(closed_spec, t, cfg)
        out["closed_form"] = closed.to_json()
        out["abs_gap"] = abs(res.lower - closed.lower)
    return out


def cmd_mbnorm(doc: dict, cfg: OptimConfig) -> dict:
    source = _space(doc, "source")
    target = _space(doc, "target")
    spec_source = _spec(doc, "spec_source", {"variant": "min"})
    spec_target = _spec(doc, "spec_target", {"variant": "min"})
    try:
        T = MatrixOp(matrix_from_json(doc["matrix"])).entries
    except KeyError as e:
        raise SchemaError("missing 'matrix'") from e
    except (TypeError, ValueError, IndexError) as e:
        raise SchemaError(f"bad 'matrix': {e}") from e
    n_max = _count(doc, "n_max", 4)
    res = mb_norm(T, source, spec_source, target, spec_target, n_max, cfg)
    return {"mb_norm": res.to_json()}


def cmd_decomp(doc: dict, cfg: OptimConfig) -> dict:
    space = _space(doc)
    try:
        d = Decomposition.from_json(doc["decomposition"])
    except KeyError as e:
        raise SchemaError("missing 'decomposition'") from e
    except (TypeError, ValueError) as e:
        raise SchemaError(f"bad decomposition: {e}") from e
    trials = _count(doc, "trials", 40)
    out = {"hermitian": is_hermitian(d, space, trials=trials, cfg=cfg).to_json()}
    if "spec" in doc:
        spec = _spec(doc)
        out["small"] = is_small(d, spec, space, trials=trials, cfg=cfg).to_json()
        out["orthogonal"] = is_orthogonal(d, spec, space, trials=max(10, trials // 2), cfg=cfg).to_json()
        if out["orthogonal"]["verdict"] and not out["small"]["verdict"]:
            out["note"] = (
                "orthogonal within budget but a small-decomposition counterexample was found; "
                "whether orthogonal decompositions must be small is an open question, so "
                "treat the verdicts as sampling evidence only"
            )
    return out


def cmd_verify(doc: dict, cfg: OptimConfig, only: list | None = None) -> dict:
    results = acceptance.run_all(cfg, only=only)
    return {
        "criteria": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }


def cmd_table(doc: dict, cfg: OptimConfig) -> dict:
    rows = []

    def add(name, computed, reference, kind):
        rows.append(
            {
                "quantity": name,
                "computed": computed,
                "reference": reference,
                "abs_err": abs(computed - reference),
                "kind": kind,
            }
        )

    for r in (1.0, 1.5, 2.0):
        for n in (2, 3):
            space = SpaceSpec(r, 3)
            X = np.eye(3)[:, :n]
            res = evaluate(MultiNormSpec.max_spec(), VectorTuple(X, space), cfg)
            add(f"max multi-norm, basis {n}-tuple in l^{r:g}_3", res.lower, n ** (1 / r), res.kind)
    for p in (1, 2):
        for n in (2, 3, 4):
            res = rate_of_growth(MultiNormSpec.standard_q(p), SpaceSpec(p, 4), n, cfg)
            add(f"standard-{p} growth at n={n} on l^{p}_4", res.lower, n ** (1 / p), res.kind)
    for n in (2, 3, 4):
        res = summing.pi_summing(1, 1, SpaceSpec(INF, n), n, cfg)
        add(f"(1,1)-summing constant of sup-norm space, n={n}", res.lower, float(n), res.kind)
    res = summing.c_n(SpaceSpec(2, 2), 2, cfg)
    add("c_2 of the euclidean plane (orthonormal witness)", res.lower, math.sqrt(2), res.kind)
    space2 = SpaceSpec(2, 3)
    beta = np.array([1.0, 2.0, -2.0])
    res = evaluate(MultiNormSpec.hilbert(), VectorTuple(np.diag(beta), space2), cfg)
    add("hilbert multi-norm of diagonal tuple (1,2,-2)", res.lower, 3.0, res.kind)
    return {"table": rows}


COMMANDS = {
    "eval": cmd_eval,
    "axioms": cmd_axioms,
    "growth": cmd_growth,
    "dual": cmd_dual,
    "mbnorm": cmd_mbnorm,
    "decomp": cmd_decomp,
    "verify": cmd_verify,
    "table": cmd_table,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="multinorm",
        description="Multi-norm calculus on finite-dimensional weighted l^p spaces",
    )
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("input", nargs="?", default=None, help="JSON document: file path, inline JSON, or '-' for stdin")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--max-enum", type=int, default=None, dest="max_enum")
    p.add_argument("--only", action="append", default=None, help="criterion id for verify (repeatable)")
    p.add_argument("--output", default=None, help="write the JSON report to this path")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True, dest="json_out")
    fmt.add_argument("--text", action="store_false", dest="json_out")
    return p


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}", f"seed: {report['cfg']['seed']}"]
    result = report["result"]
    if "criteria" in result:
        for cr in result["criteria"]:
            status = "PASS" if cr["passed"] else "FAIL"
            lines.append(f"{status} criterion {cr['id']}: {cr['title']} ({cr['elapsed_s']:.1f}s)")
            for d in cr["details"]:
                lines.append("    " + d)
    elif "table" in result:
        w = max(len(r["quantity"]) for r in result["table"])
        lines.append(f"{'quantity'.ljust(w)}  {'computed':>18} {'reference':>18} {'abs err':>10} kind")
        for r in result["table"]:
            lines.append(
                f"{r['quantity'].ljust(w)}  {r['computed']:>18.12f} {r['reference']:>18.12f} {r['abs_err']:>10.2e} {r['kind']}"
            )
    else:
        lines.append(json.dumps(result, indent=2, sort_keys=True))
    return "\n".join(lines)


def run(command: str, doc: dict, cfg: OptimConfig, only: list | None = None) -> dict:
    if command == "verify":
        result = cmd_verify(doc, cfg, only=only)
    else:
        result = COMMANDS[command](doc, cfg)
    return {
        "command": command,
        "input": doc,
        "cfg": cfg.to_json(),
        "result": result,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load_input(args.input)
        if not isinstance(doc, dict):
            raise SchemaError("input must be a JSON object")
        cfg = _cfg(doc, args)
        # overflow surfaces below as a non-finite result, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            report = run(args.command, doc, cfg, only=args.only)
    except (SchemaError, json.JSONDecodeError, OSError) as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    except (SpecError, DimensionError, FieldError, BudgetError, DegenerateNormError, HermitianError) as e:
        # the library rejected input it cannot evaluate
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2

    try:
        payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        print("non-finite result: the input overflows double precision", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(payload + "\n")
    try:
        print(payload if args.json_out else _render_text(report), flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early: point stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1

    if args.command == "verify" and not report["result"]["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
