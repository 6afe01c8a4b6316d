"""CLI output against the committed reference files, byte for byte.

The reference files under perfbench/reference were written by an earlier,
independent implementation of the exact pipeline (arithmetic in
Q(i, 5**(1/4)) with the ungraded variable v), so they pin every b_j and c_j
through order 24 exactly, together with the delta, Bernoulli and Eulerian
tables and the verdicts and details of every `report` suite.  The files
under tests/reference pin `diverge` (normalized deltas, fitted rate, roots
and cosh rows); they were written while polylog_delta still summed the two
polylogs of its definition.  The `eval` files there pin the working digits,
the term counts and the printed F, remainder and expansion values.  The
values were written before f_direct took its working digits as a plain
int; the digits and term counts were re-pinned when the precision policy
went from F's size to the caller's cancellation, which changed no value,
with each term count checked against a per-term mpmath loop.
tests/reference/expansion-40.json is
`render_expansion(compute_expansion(40), "json", 30)` as written while the
series kernel still computed in Q(sqrt5); it pins every b_j and c_j through
order 40, where no CLI reference file reaches.
These tests only read the files.
"""

from pathlib import Path

import pytest

from unclosed import cli, expansion

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
TESTS_REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _check(capsys, argv, path):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["coeffs", "--max-order", "24"], "coeffs-24.json"),
        (["coeffs", "--max-order", "24", "--format", "csv"], "coeffs-24.csv"),
        (["tables", "--kind", "all", "--max-n", "64"], "tables-64.json"),
        (["coeffs", "--max-order", "12"], "coeffs-12.json"),
        (["report"], "report.json"),
    ],
)
def test_cli_output_matches_reference(capsys, argv, name):
    _check(capsys, argv, REFERENCE_DIR / name)


def test_expansion_40_matches_reference():
    text = expansion.render_expansion(expansion.compute_expansion(40), "json", 30)
    assert text == (TESTS_REFERENCE_DIR / "expansion-40.json").read_text(encoding="utf-8")


def test_coeffs_12_after_24_in_one_process(capsys, monkeypatch):
    # order 12 is then sliced from the order-24 cache entry
    monkeypatch.setattr(expansion, "_prefix", None)
    _check(capsys, ["coeffs", "--max-order", "24"], REFERENCE_DIR / "coeffs-24.json")
    _check(capsys, ["coeffs", "--max-order", "12"], REFERENCE_DIR / "coeffs-12.json")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["diverge"], "diverge.json"),
        (["diverge", "--max-order", "24", "--ebar-max", "64", "--format", "csv"],
         "diverge-24-64.csv"),
    ],
)
def test_diverge_output_matches_reference(capsys, argv, name):
    _check(capsys, argv, TESTS_REFERENCE_DIR / name)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["eval", "--s", "0.01", "--s", "0.2", "--order", "6"], "eval-0.01-0.2-order6.json"),
        (["eval", "--s", "0.001", "--format", "csv", "--precision", "12"], "eval-0.001.csv"),
    ],
)
def test_eval_output_matches_reference(capsys, argv, name):
    _check(capsys, argv, TESTS_REFERENCE_DIR / name)
