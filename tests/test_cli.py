import json

import pytest

from unclosed import cli, suites


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_order_one(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--max-order", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["b"][1]["q"] == "1/40"
    assert doc["b"][1]["value"].startswith("0.05590169943749474")


def test_coeffs_rejects_bad_order(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--max-order", "0")
    assert code == 2
    assert "max-order" in err
    code, _, _ = run_cli(capsys, "coeffs", "--max-order", "25")
    assert code == 2


def test_coeffs_csv_round_trip(capsys):
    code, out_json, _ = run_cli(capsys, "coeffs", "--max-order", "3", "--precision", "25")
    code2, out_csv, _ = run_cli(capsys, "coeffs", "--max-order", "3", "--precision", "25",
                                "--format", "csv")
    assert code == code2 == 0
    doc = json.loads(out_json)
    lines = out_csv.strip().splitlines()
    b_rows = [ln.split(",") for ln in lines[1:] if ln.startswith("b,")]
    assert [r[4] for r in b_rows] == [row["value"] for row in doc["b"]]


def test_eval_validates_range(capsys):
    code, _, err = run_cli(capsys, "eval", "--s", "10")
    assert code == 2
    assert "range" in err
    code, _, _ = run_cli(capsys, "eval")
    assert code == 2


def test_eval_deterministic_and_sorted(capsys):
    args = ("eval", "--s", "0.2", "--s", "0.1", "--order", "2")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert [row["s"] for row in doc["rows"]] == ["0.1", "0.2"]
    assert all(row["terms_used"] >= 1 for row in doc["rows"])


def test_eval_csv_header(capsys):
    code, out, _ = run_cli(capsys, "eval", "--s", "0.1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "s,remainder,asymptotic,rel_err"
    assert "\r" not in out


def test_verify_single_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "constant-term")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["criterion_tag"] == "AC-5"
    assert "PASS" in err
    # byte-identical on a second run: no timing or other volatile fields
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "constant-term")
    assert (code2, out2) == (code, out)


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "--suite", "nope")
    assert exc.value.code == 2


def test_verify_missing_suite_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify")
    assert exc.value.code == 2


def test_verify_failure_exit_code(capsys, monkeypatch):
    def failing():
        return suites.SuiteResult(name="always-fails", criterion="forced", ok=False)

    monkeypatch.setitem(suites.SUITES, "always-fails", ("extra", failing))
    code, out, err = run_cli(capsys, "verify", "--suite", "always-fails")
    assert code == 3
    assert json.loads(out)["ok"] is False
    assert "FAIL" in err


def test_tables(capsys):
    code, out, _ = run_cli(capsys, "tables", "--max-n", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"][0]["exact"] == "0 + 1*sqrt5"
    assert doc["delta"][1]["exact"] == "4"
    assert doc["bernoulli"][12]["value"] == "-691/2730"
    assert doc["eulerian"][3]["row"] == ["1", "4", "1"]


def test_tables_csv(capsys):
    code, out, _ = run_cli(capsys, "tables", "--max-n", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "table,n,values"
    assert any(ln.startswith("bernoulli,2,1/6") for ln in lines)


def test_diverge(capsys):
    code, out, _ = run_cli(capsys, "diverge", "--max-order", "8", "--ebar-max", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["tail_increasing"] is True
    assert doc["fitted_rate"] < 1
    assert len(doc["b_roots"]) == 8
    assert doc["cosh_rows"]


def test_diverge_csv(capsys):
    code, out, _ = run_cli(capsys, "diverge", "--max-order", "8", "--ebar-max", "12",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,index,value"
    assert any(ln.startswith("ebar,12,") for ln in lines)
    assert any(ln.startswith("b_root,8,") for ln in lines)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "coeffs.json"
    code, out, _ = run_cli(capsys, "coeffs", "--max-order", "2", "--out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["max_order"] == 2
    raw = path.read_bytes()
    assert b"\r\n" not in raw  # LF endings


def test_report_runs_all(capsys):
    code, out, err = run_cli(capsys, "report")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    tags = {row["criterion_tag"] for row in doc["suites"]}
    assert {"AC-%d" % i for i in range(1, 11)} <= tags
    assert err.count("PASS") == len(doc["suites"])
