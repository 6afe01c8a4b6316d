"""CLI output against the committed reference files, byte for byte.

The reference files under perfbench/reference were written by an earlier,
independent implementation of the exact pipeline (arithmetic in
Q(i, 5**(1/4)) with the ungraded variable v), so they pin every b_j and c_j
through order 24 exactly, together with the delta, Bernoulli and Eulerian
tables and the verdicts and details of every `report` suite.  This test
only reads them.
"""

from pathlib import Path

import pytest

from unclosed import cli

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


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
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == (REFERENCE_DIR / name).read_text(encoding="utf-8")
