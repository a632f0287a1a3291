"""CLI outputs pinned byte for byte against the files in tests/golden/.

A golden file is regenerated by running the command it names, for example

    python -m qprim.cli classify -2604 11 > tests/golden/classify_-2604_11.json

and a change to one is a change to the CLI's output contract.
"""

from pathlib import Path

import pytest

from qprim import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

VERIFY_ARGV = ["verify", "--dmin", "-60", "--dmax", "-3", "--pmax", "7", "--bound", "500"]

STDOUT_CASES = {
    # h = 4, cyclic of order 4
    "classgroup_-56.json": ["classgroup", "-56"],
    # h = 24, 4 ambiguous classes, largest order 12
    "classgroup_-2604.json": ["classgroup", "-2604"],
    "classgroup_-56.txt": ["classgroup", "-56", "--format", "text"],
    "classgroup_-56.tsv": ["classgroup", "-56", "--format", "tsv"],
    "classify_-56_3.json": ["classify", "-56", "3"],
    # 11 is inert in -56: no class qualifies
    "classify_-56_11.json": ["classify", "-56", "11"],
    # 4 * 23^2 = 10^2 + 56 * 6^2: every class qualifies
    "classify_-56_23.json": ["classify", "-56", "23"],
    # route 3 with both outcomes
    "classify_-2604_11.json": ["classify", "-2604", "11"],
    "classify_-2604_11.txt": ["classify", "-2604", "11", "--format", "text"],
    "classify_-2604_11.tsv": ["classify", "-2604", "11", "--format", "tsv"],
    # 3 splits in -56 but the two-square equation has no solution
    "isometry_-56_3.json": ["isometry", "-56", "3", "--form", "1,0,14"],
    "isometry_-3_7.json": ["isometry", "-3", "7", "--form", "1,1,1"],
    "represent_-56_9_3.json": ["represent", "-56", "9", "--p", "3"],
    "represent_-56_9_3.txt": ["represent", "-56", "9", "--p", "3", "--format", "text"],
    "represent_-56_9_3.tsv": ["represent", "-56", "9", "--p", "3", "--format", "tsv"],
    # 39 and 54 rows: [1, 0, 14] holds solutions in odd rows only, [2, 0, 7]
    # in even rows only, and [3, +-2, 5] in neither
    "represent_-56_20286_3.json": ["represent", "-56", "20286", "--p", "3"],
    # every class keeps only the rows y = 4 and y = 0 mod 8, 126 of the 499
    # rows and half of the 251 even ones; [3, +-2, 5] hold solutions at
    # y = 52, 100 and 140
    "represent_-56_100000_3.json": ["represent", "-56", "100000", "--p", "3"],
    "spectrum_-56_3_2_5.json": ["spectrum", "-56", "--form", "3,2,5", "--bound", "200",
                                "--p", "3"],
    "ternary-demo_1000.json": ["ternary-demo", "--bound", "1000"],
    "verify_-60_-3_7_500.json": VERIFY_ARGV,
}


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_matches_golden(name, capsys):
    assert cli.run(STDOUT_CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_verify_report_file_matches_golden(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.run(VERIFY_ARGV + ["--json", str(path)]) == 0
    capsys.readouterr()
    assert path.read_bytes() == (GOLDEN / "verify_-60_-3_7_500.report.json").read_bytes()
