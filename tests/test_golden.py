"""CLI output against the committed reference files, byte for byte.

The reference files under perfbench/reference were written by an earlier,
independent implementation of the exact pipeline (arithmetic in
Q(i, 5**(1/4)) with the ungraded variable v), so they pin every b_j and c_j
through order 24 exactly, together with the delta, Bernoulli and Eulerian
tables and the verdicts and details of every `report` suite.  The files
under tests/reference pin `diverge` (normalized deltas, fitted rate, roots
and cosh rows); they were written while polylog_delta still summed the two
polylogs of its definition.  These tests only read the files.
"""

from pathlib import Path

import pytest

from unclosed import cli

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
