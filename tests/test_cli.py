import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from multinorm import OptimConfig
from multinorm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_max_on_l1(capsys):
    doc = json.dumps(
        {
            "space": {"p": 1, "dim": 2},
            "tuple": [[1, 0], [0, 1]],
            "spec": {"variant": "max"},
            "cfg": {"seed": 5},
        }
    )
    code, out = run_cli(capsys, "eval", doc)
    assert code == 0
    report = json.loads(out)
    nv = report["result"]["norm_value"]
    assert nv["kind"] == "exact"
    assert nv["lower"] == pytest.approx(2.0)
    assert report["cfg"]["seed"] == 5


def test_axioms_lp_sum_fixture_exits_zero_with_violation(capsys):
    doc = json.dumps(
        {
            "space": {"p": 2, "dim": 3},
            "spec": {"variant": "lp_sum", "p": 2},
            "trials": 60,
        }
    )
    code, out = run_cli(capsys, "axioms", doc)
    assert code == 0
    report = json.loads(out)
    rep = report["result"]["axiom_report"]
    assert not rep["ok"]
    assert any(v["axiom"] == "A4" for v in rep["violations"])


def test_growth_command(capsys):
    doc = json.dumps({"space": {"p": 2, "dim": 4}, "spec": {"variant": "standard_q", "q": 2}, "n_max": 3})
    code, out = run_cli(capsys, "growth", doc)
    assert code == 0
    rows = json.loads(out)["result"]["growth"]
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert rows[2]["lower"] == pytest.approx(np.sqrt(3))


def test_dual_command_compare(capsys):
    doc = json.dumps(
        {
            "space": {"p": 2, "dim": 3},
            "base": {"variant": "lattice"},
            "tuple": [[1, 0, 1], [0, 2, 0]],
            "compare": "dual_lattice",
        }
    )
    code, out = run_cli(capsys, "dual", doc)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["abs_gap"] <= 2e-2


def test_mbnorm_command(capsys):
    doc = json.dumps(
        {
            "source": {"p": 1, "dim": 3},
            "target": {"p": 1, "dim": 3},
            "spec_source": {"variant": "min"},
            "spec_target": {"variant": "lattice"},
            "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "n_max": 3,
        }
    )
    code, out = run_cli(capsys, "mbnorm", doc)
    assert code == 0
    res = json.loads(out)["result"]["mb_norm"]
    assert res["p_seq"] == pytest.approx([1.0, 2.0, 3.0])


def test_decomp_command(capsys):
    doc = json.dumps(
        {
            "space": {"p": 2, "dim": 2},
            "decomposition": {"projections": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
            "spec": {"variant": "lattice"},
            "trials": 20,
        }
    )
    code, out = run_cli(capsys, "decomp", doc)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["hermitian"]["verdict"] is True
    assert res["small"]["verdict"] is True
    assert res["orthogonal"]["verdict"] is True


def test_schema_error_exit_2(capsys):
    code, _ = run_cli(capsys, "eval", '{"space": {"p": 2}}')
    assert code == 2
    code, _ = run_cli(capsys, "eval", "not json {")
    assert code == 2
    code, _ = run_cli(capsys, "eval", '{"space": {"p": 2, "dim": 2}, "spec": {"variant": "nope"}, "tuple": [[1,0]]}')
    assert code == 2
    # library errors on bad input exit 2 with one line on stderr, no traceback
    for command, doc in [
        ("eval", '{"space": {"p": 3, "dim": 2}, "tuple": [[1, 0]], "spec": {"variant": "hilbert"}}'),
        ("mbnorm", '{"source": {"p": 1, "dim": 2}, "target": {"p": 1, "dim": 2}, "spec_source": {"variant": "nope"},'
                   ' "matrix": [[1, 0], [0, 1]]}'),
        ("eval", '{"space": {"p": 2, "dim": 2}, "tuple": [[NaN, 0]], "spec": {"variant": "min"}}'),
        ("eval", '{"space": {"p": 2, "dim": 2, "weights": [1, Infinity]}, "tuple": [[1, 0]], "spec": {"variant": "min"}}'),
        ("axioms", '{"space": {"p": 2, "dim": 3}, "spec": {"variant": "weak_summing"}}'),
        ("mbnorm", '{"source": {"p": 2, "dim": 2}, "target": {"p": 2, "dim": 2}, "spec_source": {"variant": "weak_summing"},'
                   ' "spec_target": {"variant": "lattice"}, "matrix": [[1, 0], [0, 1]], "n_max": 2}'),
        ("decomp", '{"space": {"p": 2, "dim": 2}, "spec": {"variant": "weak_summing"}, "trials": 2,'
                   ' "decomposition": {"projections": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}}'),
    ]:
        code = main([command, doc])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1 and "Traceback" not in captured.err


def test_overflowing_result_exit_2(capsys):
    # finite input whose norm overflows: exit 2 with one stderr line, no Infinity in the output
    doc = '{"space": {"p": 2, "dim": 2}, "tuple": [[1e308, 1e308]], "spec": {"variant": "min"}}'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["eval", doc])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and "Traceback" not in captured.err


def test_verify_single_criterion(capsys):
    code, out = run_cli(capsys, "verify", "{}", "--only", "4")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["passed"] is True
    assert [c["id"] for c in report["result"]["criteria"]] == ["4"]


def test_replay_byte_identical(capsys):
    doc = '{"space": {"p": 2, "dim": 3}, "tuple": [[1, 0, 0], [0, 1, 0]], "spec": {"variant": "pq", "p": 1, "q": 2}}'
    code, out1 = run_cli(capsys, "eval", doc, "--seed", "11")
    assert code == 0
    code, out2 = run_cli(capsys, "eval", doc, "--seed", "11")
    r1, r2 = json.loads(out1), json.loads(out2)
    assert set(r1) == {"command", "input", "cfg", "result", "timestamp"}
    r1.pop("timestamp"), r2.pop("timestamp")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_table_text_output(capsys):
    code, out = run_cli(capsys, "table", "{}", "--text")
    assert code == 0
    assert "quantity" in out
    assert "max multi-norm" in out


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    doc = '{"space": {"p": 2, "dim": 2}, "tuple": [[3, 4]], "spec": {"variant": "min"}}'
    code, _ = run_cli(capsys, "eval", doc, "--output", str(path))
    assert code == 0
    saved = json.loads(path.read_text())
    assert saved["result"]["norm_value"]["lower"] == pytest.approx(5.0)


def test_bad_audit_sizes_exit_2(capsys):
    # n_max < 2 leaked numpy's "low >= high"; a negative trial count was echoed in an empty report
    space, lattice = {"p": 2, "dim": 3}, {"variant": "lattice"}
    decomposition = {"projections": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 1]]]}
    for command, doc in [
        ("axioms", {"space": space, "spec": lattice, "n_max": 1}),
        ("axioms", {"space": space, "spec": lattice, "trials": -3}),
        ("decomp", {"space": space, "spec": lattice, "decomposition": decomposition, "trials": -3}),
    ]:
        code = main([command, json.dumps(doc)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("SpecError: ") and captured.err.count("\n") == 1


def test_negative_seed_replays(capsys):
    # the seed is taken mod 2**64 where a stream is built, so a negative one is a valid seed
    doc = json.dumps({"space": {"p": 3, "dim": 3}, "tuple": [[1, 0.5, 0], [0, 1, -2]], "spec": {"variant": "pq", "p": 1.5, "q": 3}})
    outs = []
    for _ in range(2):
        code, out = run_cli(capsys, "eval", doc, "--seed", "-1", "--restarts", "3")
        assert code == 0
        report = json.loads(out)
        assert report["cfg"]["seed"] == -1
        report.pop("timestamp")
        outs.append(report)
    assert outs[0] == outs[1]
    assert outs[0]["result"]["norm_value"]["method"] == "pq_holder_alternation"


def test_closed_stdout_exits_without_a_traceback(tmp_path):
    # the report echoes its input, so a 6000-dimensional tuple prints far more than a pipe buffer holds
    doc = {"space": {"p": 2, "dim": 6000}, "spec": {"variant": "min"}, "tuple": [[1.0] * 6000, [0.5] * 6000]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "multinorm.cli", "eval", str(path)], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_bad_counts_and_empty_tuples_exit_2(capsys):
    # "x" ended in a ValueError traceback, 1.7 and true were read as 1 (a float restarts or seed in cfg raised TypeError),
    # n_max 0 crashed mb_norm, an empty tuple failed np.stack
    space, lattice = {"p": 2, "dim": 2}, {"variant": "lattice"}
    eye = [[1, 0], [0, 1]]
    decomposition = {"projections": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}
    mbnorm = {"source": space, "target": space, "spec_source": lattice, "spec_target": lattice, "matrix": eye}
    schema = []
    for bad in ("x", 1.7, True, None, [2]):
        schema += [
            ("mbnorm", {**mbnorm, "n_max": bad}),
            ("axioms", {"space": space, "spec": lattice, "n_max": bad}),
            ("growth", {"space": space, "spec": lattice, "n_max": bad}),
            ("axioms", {"space": space, "spec": lattice, "trials": bad}),
            ("decomp", {"space": space, "decomposition": decomposition, "trials": bad}),
        ]
    for key, bad in (("restarts", 1.7), ("grid_points", 8.5), ("max_enum", True), ("seed", 1.5)):
        schema.append(("eval", {"space": space, "spec": {"variant": "min"}, "tuple": [[1, 0]], "cfg": {key: bad}}))
    schema += [
        ("eval", {"space": space, "spec": {"variant": "min"}, "tuple": []}),
        ("dual", {"space": space, "base": {"variant": "min"}, "tuple": []}),
    ]
    for command, doc in schema:
        code = main([command, json.dumps(doc)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", (command, doc)
        assert captured.err.startswith("schema error: ") and captured.err.count("\n") == 1, captured.err
    for n_max in (0, -1):
        code = main(["mbnorm", json.dumps({**mbnorm, "n_max": n_max})])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "SpecError: n must be >= 1\n"


def test_bad_tol_exits_2(capsys):
    # true was read as tol 1.0 and echoed as true, and --tol nan ended as a "non-finite result" error
    doc = {"space": {"p": 2, "dim": 2}, "spec": {"variant": "pq", "p": 1, "q": 2}, "tuple": [[1, 0], [0.5, 1]]}
    runs = [["eval", json.dumps({**doc, "cfg": {"tol": bad}})] for bad in (True, "x", 0, -1e-9)]
    runs += [["eval", '{"space": {"p": 2, "dim": 2}, "spec": {"variant": "min"}, "tuple": [[1, 0]], "cfg": {"tol": %s}}' % bad] for bad in ("NaN", "Infinity", "1e999")]
    runs += [["eval", json.dumps(doc), f"--tol={bad}"] for bad in ("true", "x", "nan", "inf", "-inf", "0")]
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("schema error: ") and captured.err.count("\n") == 1, captured.err
    for good in (["--tol", "1e-6"], ["--tol", "2"]):
        code = main(["eval", json.dumps(doc), *good])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["cfg"]["tol"] == float(good[1])


def test_optim_config_tol_must_be_finite_and_positive():
    from multinorm import OptimConfig

    for bad in (True, False, "x", None, math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be a finite positive number"):
            OptimConfig(tol=bad)
    assert OptimConfig(tol=1).tol == 1 and OptimConfig(tol=np.float64(1e-6)).tol == 1e-6


def test_max_enum_below_one_exits_2(capsys):
    # --max-enum -3 ended in a TypeError traceback: the torus bound took a fractional power of a negative budget
    for field, bad, message in (("max_enum", 0, "max_enum must be >= 1"), ("max_enum", -3, "max_enum must be >= 1"),
                                ("restarts", 0, "restarts must be >= 1"), ("grid_points", 4, "grid_points must be >= 8")):
        with pytest.raises(ValueError, match=message):
            OptimConfig(**{field: bad})
    doc = {"space": {"p": 2, "dim": 3}, "spec": {"variant": "weak_summing", "p": 1}, "tuple": [[1, 0, 0], [0, 1, 0], [1, 1, 1]]}
    for argv in (["eval", json.dumps(doc), "--max-enum", "-3"], ["eval", json.dumps({**doc, "cfg": {"max_enum": 0}})]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("schema error: ") and "max_enum" in captured.err and captured.err.count("\n") == 1, captured.err
