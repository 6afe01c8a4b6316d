import argparse
import ast
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from unclosed import cli, qseries, suites

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


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


def test_growth_roots_ignore_precision(capsys):
    # the roots are exact-result data: --precision sets only the b/c value strings
    growth = set()
    for precision in ("1", "5", "30"):
        code, out, _ = run_cli(capsys, "coeffs", "--max-order", "4", "--precision", precision,
                               "--format", "csv")
        assert code == 0
        growth.add(tuple(ln for ln in out.splitlines() if ln.startswith("growth,")))
    assert len(growth) == 1
    assert next(iter(growth))[0] == "growth,1,,,0.05590169943749474"


@pytest.mark.parametrize("argv", [["coeffs"], ["eval", "--s", "0.1"], ["tables"]])
@pytest.mark.parametrize("precision", ["0", "1001"])
def test_precision_out_of_range(capsys, argv, precision):
    code, out, err = run_cli(capsys, *argv, "--precision", precision)
    assert code == 2
    assert out == ""
    assert "[1, 1000]" in err


def _args_read(func):
    """Names `x` that `func` reads as `args.x`."""
    tree = ast.parse(inspect.getsource(func))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def test_every_subcommand_option_is_read_by_its_handler():
    # main reads args.precision only to range-check it, so only the
    # subcommand's own handler counts as a reader of its options
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._HANDLERS)
    unread = []
    for name, parser in sub.choices.items():
        read = _args_read(cli._HANDLERS[name])
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction) and action.dest not in read:
                unread.append(f"{name} {'/'.join(action.option_strings)}")
    assert unread == []


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--format", "csv"],
        ["verify", "--suite", "b1", "--precision", "5"],
        ["diverge", "--precision", "3"],
        ["report", "--precision", "5"],
        ["verify", "--suite", "b1", "--format", "csv"],
    ],
)
def test_flags_a_subcommand_ignores_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2


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


def test_eval_rejects_s_below_floor(capsys):
    # every --s is checked before any evaluation; f_direct alone would run
    # for minutes at s = 0.0001
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "eval", "--s", "0.1", "--s", "0.0001")
    assert code == 2
    assert "[0.0005, 5]" in err
    assert time.perf_counter() - start < 5


def test_eval_deterministic_and_sorted(capsys):
    args = ("eval", "--s", "0.2", "--s", "0.1", "--order", "2")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert [row["s"] for row in doc["rows"]] == ["0.1", "0.2"]
    assert all(row["terms_used"] >= 1 for row in doc["rows"])


def test_eval_sums_a_repeated_s_once(capsys, monkeypatch):
    calls = []
    eval_report = qseries.eval_report
    monkeypatch.setattr(qseries, "eval_report", lambda s, order: calls.append(s) or eval_report(s, order))
    code, out, _ = run_cli(capsys, "eval", "--s", "0.2", "--s", "0.1", "--s", "0.2")
    assert code == 0
    assert sorted(calls) == ["0.1", "0.2"]
    rows = json.loads(out)["rows"]
    assert [row["s"] for row in rows] == ["0.1", "0.2", "0.2"]
    assert rows[1] == rows[2]
    _, single, _ = run_cli(capsys, "eval", "--s", "0.2")
    assert json.loads(single)["rows"] == rows[1:2]


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
    assert re.fullmatch(r"PASS  constant-term: .*  \(\d+\.\d{3} s\)\n", err)
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
        time.sleep(0.02)
        return suites.SuiteResult(name="always-fails", criterion="forced", ok=False)

    monkeypatch.setitem(suites.SUITES, "always-fails", ("extra", failing))
    code, out, err = run_cli(capsys, "verify", "--suite", "always-fails")
    assert code == 3
    assert json.loads(out)["ok"] is False
    # the suite's measured wall time, not a default
    line = re.fullmatch(r"FAIL  always-fails: forced  \((\d+\.\d{3}) s\)\n", err)
    assert line and float(line.group(1)) >= 0.02


def test_tables(capsys):
    code, out, _ = run_cli(capsys, "tables", "--max-n", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"][0]["exact"] == "0 + 1*sqrt5"
    assert doc["delta"][1]["exact"] == "4"
    assert doc["bernoulli"][12]["value"] == "-691/2730"
    assert doc["eulerian"][3]["row"] == ["1", "4", "1"]


def test_tables_rejects_max_n_above_64(capsys):
    code, out, err = run_cli(capsys, "tables", "--max-n", "65")
    assert code == 2
    assert out == ""
    assert "[0, 64]" in err


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


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "b1.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "b1", "--out", str(path))
    assert code == 2
    assert out == ""
    # one error line, no traceback, and the verify PASS/FAIL line is not reached
    assert err.startswith(f"error: cannot write --out {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_report_runs_all(capsys):
    code, out, err = run_cli(capsys, "report")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    tags = {row["criterion_tag"] for row in doc["suites"]}
    assert {"AC-%d" % i for i in range(1, 11)} <= tags
    # stdout stays the pinned reference; each suite's wall time goes to
    # stderr only, one line per suite
    assert out == (REFERENCE_DIR / "report.json").read_text(encoding="utf-8")
    lines = err.splitlines()
    assert len(lines) == len(doc["suites"])
    for line, row in zip(lines, doc["suites"]):
        tag, name = re.escape(row["criterion_tag"]), re.escape(row["suite"])
        assert re.fullmatch(rf"\[{tag}\] PASS  {name}: .*  \(\d+\.\d{{3}} s\)", line), line


def test_cli_runs_without_numpy():
    # a fresh interpreter: pytest or hypothesis may import numpy in this one
    script = (
        "import contextlib, io, sys\n"
        "from unclosed import cli\n"
        "for argv in (['diverge'], ['verify', '--suite', 'ebar']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
