import argparse
import ast
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from unclosed import cli, divergence, suites
from unclosed.expansion import compute_expansion, render_expansion

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
    unread = []
    for name, parser in sub.choices.items():
        read = _args_read(parser.get_default("handler"))
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
    # for about 1.5 s at s = 0.000001
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "eval", "--s", "0.1", "--s", "0.000001")
    assert code == 2
    assert "[1e-5, 5]" in err
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


def test_eval_prints_a_repeated_s_once_per_occurrence(capsys):
    code, out, _ = run_cli(capsys, "eval", "--s", "0.2", "--s", "0.1", "--s", "0.2")
    assert code == 0
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
        return False, []

    monkeypatch.setitem(suites.SUITES, "always-fails", ("extra", "forced", failing))
    code, out, err = run_cli(capsys, "verify", "--suite", "always-fails")
    assert code == 3
    assert json.loads(out)["ok"] is False
    # the suite's measured wall time, not a default
    line = re.fullmatch(r"FAIL  always-fails: forced  \((\d+\.\d{3}) s\)\n", err)
    assert line and float(line.group(1)) >= 0.02


def test_one_parser_build_per_process(capsys, monkeypatch):
    # build_parser is a functools.cache, so its misses count the builds
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert run_cli(capsys, "tables", "--max-n", "2")[0] == 0
    with monkeypatch.context() as m:
        # the --suite choices are suites.SUITES itself, so an added suite
        # needs no new parser
        m.setitem(suites.SUITES, "always-passes", ("extra", "forced", lambda: (True, [])))
        code, out, _ = run_cli(capsys, "verify", "--suite", "always-passes")
        assert code == 0 and json.loads(out)["ok"] is True
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        assert "always-passes" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "--suite", "always-passes")
    assert exc.value.code == 2
    assert cli.build_parser.cache_info().misses == 1


def test_suites_are_declared_in_sorted_order():
    # argparse lists the --suite choices in SUITES order, in usage, help and
    # the invalid-choice error
    assert list(suites.SUITES) == sorted(suites.SUITES)


def test_eval_starts_each_call_with_no_s_values(capsys):
    # --s appends to its default, which must not keep the last call's values
    for s in ("0.1", "0.2"):
        code, out, _ = run_cli(capsys, "eval", "--s", s)
        assert code == 0
        assert [row["s"] for row in json.loads(out)["rows"]] == [s]


def test_precision_returns_to_its_default_after_an_explicit_one(capsys):
    assert run_cli(capsys, "coeffs", "--max-order", "2", "--precision", "5")[0] == 0
    code, out, _ = run_cli(capsys, "coeffs", "--max-order", "2")
    assert code == 0
    assert out == render_expansion(compute_expansion(2), "json", 30)


@pytest.mark.parametrize(
    "argv",
    [["--help"]]
    + [[cmd, "--help"] for cmd in ("coeffs", "eval", "verify", "diverge", "report", "tables")]
    + [["verify", "--suite", "nope"]],
)
def test_help_after_a_cached_call_matches_a_fresh_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, "tables", "--max-n", "0")[0] == 0
    with pytest.raises(SystemExit) as cached_exit:
        cli.main(argv)
    cached = capsys.readouterr()
    with pytest.raises(SystemExit) as fresh_exit:
        cli.build_parser.__wrapped__().parse_args(argv)
    fresh = capsys.readouterr()
    # --help prints usage on stdout; a rejected choice prints it on stderr
    code, text = (0, cached.out) if "--help" in argv else (2, cached.err)
    assert cached_exit.value.code == fresh_exit.value.code == code
    assert text.startswith("usage: unclosed")
    assert cached == fresh


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_verify_prints_the_suite_as_report_pins_it(capsys, name):
    pinned = json.loads((REFERENCE_DIR / "report.json").read_text(encoding="utf-8"))["suites"]
    code, out, _ = run_cli(capsys, "verify", "--suite", name)
    assert code == 0
    doc = json.loads(out)
    fields = ("suite", "criterion_tag", "criterion", "ok", "details")
    assert {k: doc[k] for k in fields} == next(row for row in pinned if row["suite"] == name)


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
    assert doc["n_range"] == [0, 12]
    assert len(doc["ebar"]) == len(doc["ebar_err"]) == 13
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


def test_diverge_csv_skips_the_json_only_checks(capsys, monkeypatch):
    # the CSV prints only ebar and b_root rows: the cosh rows, the fit and
    # the growth section are never computed for it
    def fail(*args, **kwargs):
        raise AssertionError("called for the CSV form")

    for name in ("cosh_limit_check", "fit_geometric_rate", "b_growth"):
        monkeypatch.setattr(divergence, name, fail)
    code, out, _ = run_cli(capsys, "diverge", "--format", "csv")
    assert code == 0
    assert out.startswith("kind,index,value\nebar,0,")


@pytest.mark.parametrize(
    "flag, value", [("--ebar-max", "5"), ("--ebar-max", "65"), ("--max-order", "5"),
                    ("--max-order", "25")]
)
def test_diverge_rejects_out_of_range_orders(capsys, flag, value):
    code, out, err = run_cli(capsys, "diverge", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must lie in ")


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


def test_readme_cli_commands_run(capsys):
    # every `unclosed ...` line of README's CLI block, comments dropped
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) >= 6 and all(argv[0] == "unclosed" for argv in commands)
    for argv in commands:
        code, _, err = run_cli(capsys, *argv[1:])
        assert code == 0, (argv, err)


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
