import json
import warnings

import numpy as np
import pytest

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
