"""End-to-end CLI behavior: JSON payloads, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qprim import cli, intarith, oracle, pprim, repcount, ternary
from qprim.classgroup import MAX_ABS_D, enumerate_classes
from qprim.intarith import MAX_P
from qprim.pprim import ROUTE_PRINCIPAL_SQUARE, Verdict, classify_all
from qprim.repcount import rep_counts, spectrum


def run_json(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_classgroup_json_round_trip(capsys):
    code, payload, _ = run_json(capsys, ["classgroup", "-56"])
    assert code == 0
    assert payload["D"] == -56
    assert payload["h"] == 4
    assert payload["ambiguous"] == [[1, 0, 14], [2, 0, 7]]
    group = enumerate_classes(-56)
    assert [[r["a"], r["b"], r["c"]] for r in payload["classes"]] == [
        list(c.triple()) for c in group.classes
    ]
    assert [r["order"] for r in payload["classes"]] == [
        group.orders[c] for c in group.classes
    ]
    assert [r["ambiguous"] for r in payload["classes"]] == [True, True, False, False]
    assert all(r["D"] == -56 for r in payload["classes"])


def test_classgroup_text_format(capsys):
    code = cli.run(["classgroup", "-56", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["D", "form", "order", "ambiguous"]
    assert len(lines) == 5
    assert "[3,2,5]" in out and "false" in out and "true" in out


def test_classgroup_tsv_format(capsys):
    code = cli.run(["classgroup", "-23", "--format", "tsv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[0] == ["D", "form", "order", "ambiguous"]
    assert rows[1] == ["-23", "[1,1,6]", "1", "true"]
    assert len(rows) == 4


def test_classify_json_matches_library(capsys):
    code, payload, _ = run_json(capsys, ["classify", "-56", "3"])
    assert code == 0
    assert payload["D"] == -56 and payload["p"] == 3
    assert payload["verdicts"] == [v.to_json() for v in classify_all(-56, 3)]
    flags = [v["cpp"] for v in payload["verdicts"]]
    assert flags == [False, False, True, True]


def test_classify_text_format(capsys):
    code = cli.run(["classify", "-56", "3", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "route" in out.splitlines()[0]
    assert "order_four_square" in out


def test_classify_rejects_dividing_prime(capsys):
    code = cli.run(["classify", "-56", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "divides the discriminant" in captured.err


def test_classify_rejects_composite_p(capsys):
    code = cli.run(["classify", "-56", "4"])
    assert code == 2
    assert "prime" in capsys.readouterr().err


def test_represent_with_p(capsys):
    code, payload, _ = run_json(capsys, ["represent", "-56", "9", "--p", "3"])
    assert code == 0
    group = enumerate_classes(-56)
    assert len(payload["records"]) == group.h
    for rec, cls in zip(payload["records"], group.classes):
        full = rep_counts(cls, 9, 3)
        assert rec["form"] == list(cls.triple())
        assert rec["r"] == full.r
        assert rec["r_star_p"] == full.r_star_p
        assert rec["r_flat_p"] == full.r_flat_p
        assert rec["solutions"] == [list(s) for s in full.solutions]


def test_represent_without_p(capsys):
    code, payload, _ = run_json(capsys, ["represent", "-56", "9"])
    assert code == 0
    for rec in payload["records"]:
        assert rec["r_star_p"] is None and rec["r_flat_p"] is None


def test_represent_rejects_n_beyond_row_limit(capsys):
    # D = -3 has the one class [1,1,1], swept over isqrt(4n // 3) + 1 rows;
    # this n is the least with one row too many, refused before any sweep
    limit = repcount.MAX_ROWS
    n = -(-3 * limit * limit // 4)
    code = cli.run(["represent", "-3", str(n)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"needs {limit + 1} rows over 1 classes, more than {limit}" in captured.err


def test_represent_row_limit_counts_every_class(capsys, monkeypatch):
    # at D = -56, n = 9 the classes a = 1, 2, 3, 3 sweep 1 + 2 + 2 + 2 rows
    monkeypatch.setattr(repcount, "MAX_ROWS", 7)
    assert cli.run(["represent", "-56", "9"]) == 0
    monkeypatch.setattr(repcount, "MAX_ROWS", 6)
    assert cli.run(["represent", "-56", "9"]) == 2
    assert "needs 7 rows over 4 classes, more than 6" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-5"])
def test_represent_rejects_n_below_one(capsys, n):
    code = cli.run(["represent", "-56", n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"n must be >= 1, got {n}" in captured.err


def test_spectrum_command(capsys):
    code, payload, _ = run_json(
        capsys, ["spectrum", "-56", "--form", "1,0,14", "--bound", "15", "--p", "3"]
    )
    assert code == 0
    spec = spectrum(enumerate_classes(-56).classes[0], 15, 3)
    assert payload["q"] == spec.q == [1, 4, 9, 14, 15]
    assert payload["q_star"] == spec.q_star
    assert payload["qp_star"] == spec.qp_star


def test_spectrum_rejects_mismatched_form(capsys):
    code = cli.run(["spectrum", "-56", "--form", "1,1,6", "--bound", "15", "--p", "3"])
    assert code == 2
    assert "discriminant" in capsys.readouterr().err


def test_spectrum_rejects_malformed_form(capsys):
    code = cli.run(["spectrum", "-56", "--form", "1;0;14", "--bound", "15", "--p", "3"])
    assert code == 2
    assert "--form" in capsys.readouterr().err


def test_isometry_solvable(capsys):
    code, payload, _ = run_json(capsys, ["isometry", "-3", "7", "--form", "1,1,1"])
    assert code == 0
    assert payload["solvable"] is True
    assert payload["det"] == 49
    assert payload["trace"] == payload["m"]
    assert payload["m"] % 7 != 0
    assert all(payload["properties"].values())
    rows = payload["matrix"]
    assert len(rows) == 2 and all(len(r) == 2 for r in rows)


def test_isometry_unsolvable(capsys):
    # 3 splits in D = -56 and 11 is inert; neither two-square equation is solvable
    for p in (3, 11):
        code, payload, _ = run_json(capsys, ["isometry", "-56", str(p), "--form", "1,0,14"])
        assert code == 0
        assert payload == {"D": -56, "p": p, "form": [1, 0, 14], "solvable": False}


def test_isometry_rejects_dividing_prime(capsys):
    code = cli.run(["isometry", "-56", "7", "--form", "1,0,14"])
    assert code == 2


def test_default_verify_stdout_is_pinned(capsys):
    # the summary of the acceptance grid: its cell count, its bounds and no
    # contradicted or unconfirmed cell, so no cell's own bound shows in it
    assert cli.run(["verify"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "65fc40dad9fb9e43557b5feee34c3d189371245ab22e94fc105b8093c3f92a0e"
    )


def test_verify_small_grid(capsys):
    code, payload, _ = run_json(
        capsys,
        ["verify", "--dmin", "-60", "--dmax", "-3", "--pmax", "7", "--bound", "500"],
    )
    assert code == 0
    assert payload["ok"] is True
    assert payload["contradictions"] == []
    assert payload["cells"] > 0
    assert "all_cells" not in payload  # stdout carries the summary only


def test_verify_writes_full_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = cli.run(
        ["verify", "--dmin", "-56", "--dmax", "-56", "--pmax", "5",
         "--bound", "5000", "--json", str(path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.out)
    full = json.loads(path.read_text())
    assert full["ok"] is True and summary["ok"] is True
    assert len(full["all_cells"]) == full["cells"] == 8
    assert str(path) in captured.err


def test_verify_report_path_error_is_not_a_contradiction(capsys, tmp_path):
    # exit 1 means "contradiction found"; an unwritable report path is exit 2
    path = tmp_path / "missing" / "report.json"
    code = cli.run(
        ["verify", "--dmin", "-56", "--dmax", "-56", "--pmax", "5",
         "--bound", "500", "--json", str(path)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["ok"] is True
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(path) in err[0]
    assert not path.parent.exists()


def test_verify_detects_corruption(capsys, monkeypatch):
    from qprim import pprim as pprim_module

    def lying(D, p):
        return [
            Verdict(x, p, True, ROUTE_PRINCIPAL_SQUARE, {"m": 0, "n": 0})
            for x in enumerate_classes(D).classes
        ]

    monkeypatch.setattr(pprim_module, "classify_all", lying)
    code, payload, _ = run_json(
        capsys,
        ["verify", "--dmin", "-56", "--dmax", "-56", "--pmax", "3", "--bound", "100"],
    )
    assert code == 1
    assert payload["ok"] is False
    assert payload["contradictions"]


def test_verify_exits_1_on_unconfirmed_cells(capsys):
    # at --bound 1 the ceiling is 50, below the smallest witnesses of the
    # negative classes [2, +-1, 4] of D = -31 at p = 5: not a
    # contradiction, and not a pass either
    code, payload, _ = run_json(
        capsys,
        ["verify", "--dmin", "-31", "--dmax", "-31", "--pmax", "5", "--bound", "1"],
    )
    assert code == 1
    assert payload["ok"] is True and payload["contradictions"] == []
    assert len(payload["unconfirmed"]) == 2


@pytest.mark.parametrize(
    "window", [["--dmin", "-3", "--dmax", "-20"], ["--pmax", "1"]]
)
def test_verify_rejects_window_without_cells(capsys, window):
    code = cli.run(["verify", *window])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no (D, p) cell" in captured.err


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_verify_rejects_bound_below_one(capsys, bound):
    code = cli.run(["verify", "--bound", bound])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"bound must be >= 1, got {bound}" in captured.err
    assert "ceiling" not in captured.err


def test_verify_rejects_bound_beyond_ceiling_cap(capsys, monkeypatch):
    # the default ceiling, 50x the bound, lies just above the cap
    bound = oracle.MAX_CEILING // 50 + 1

    def no_census(D, p):
        raise AssertionError("the ceiling is checked before any census")

    monkeypatch.setattr(pprim, "classify_all", no_census)
    code = cli.run(["verify", "--bound", str(bound)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"ceiling must be at most {oracle.MAX_CEILING}, got {50 * bound}" in captured.err


@pytest.mark.parametrize(
    "argv", [["classgroup"], ["classify", "3"], ["represent", "9"]]
)
def test_census_commands_reject_d_beyond_limit(capsys, argv):
    D = -MAX_ABS_D - 3
    code = cli.run([argv[0], str(D), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"|D| must be at most {MAX_ABS_D}" in captured.err


# a prime above MAX_P, whose trial division would take about ten times as
# long as at the cap, and whose verify searches of positive cells scan a
# hundred times as many rows
BIG_P = "100000007"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "-23", BIG_P], f"p must be at most {MAX_P}, got {BIG_P}"),
        (["isometry", "-23", BIG_P, "--form", "1,1,6"], f"p must be at most {MAX_P}"),
        (["represent", "-23", "9", "--p", BIG_P], f"p must be at most {MAX_P}"),
        (["spectrum", "-23", "--form", "1,1,6", "--bound", "10", "--p", BIG_P],
         f"p must be at most {MAX_P}"),
        (["verify", "--pmax", BIG_P], f"pmax must be at most {MAX_P}, got {BIG_P}"),
    ],
    ids=["classify", "isometry", "represent", "spectrum", "verify"],
)
def test_commands_reject_p_beyond_cap(capsys, monkeypatch, argv, message):
    def no_work(*args):
        raise AssertionError("p is checked against MAX_P before any work")

    for module, name in [
        (intarith, "is_prime"),
        (pprim, "enumerate_classes"),
        (cli, "enumerate_classes"),
        (pprim, "_prime_squares"),
        (repcount, "half_plane_solutions"),
        (repcount, "rep_profile"),
        (oracle, "primes_up_to"),
    ]:
        monkeypatch.setattr(module, name, no_work)
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_verify_rejects_dmin_beyond_census_limit(capsys):
    dmin = str(-(10**12))
    code = cli.run(["verify", "--dmin", dmin, "--dmax", dmin])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"dmin must be at least {-MAX_ABS_D}, got {dmin}" in captured.err


def test_verify_rejects_window_over_two_square_rows(capsys, monkeypatch):
    # one discriminant, but 78497 primes whose two-square rows sum to
    # 15659639408: refused before any classification
    def no_classification(D, p):
        raise AssertionError("the window's rows are checked before any classification")

    monkeypatch.setattr(pprim, "classify_all", no_classification)
    code = cli.run(["verify", "--dmin", "-23", "--dmax", "-23", "--pmax", str(MAX_P)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert (f"need at least 15659639408 two-square rows, more than {repcount.MAX_ROWS}"
            in captured.err)


def test_verify_rejects_window_over_census_work(capsys, monkeypatch):
    # 2.5 * 10^6 discriminants, few two-square rows at p = 2, but a census
    # each: refused by the sum of |D| before any census
    def no_census(*args):
        raise AssertionError("the window's census work is checked before any census")

    monkeypatch.setattr(pprim, "classify_all", no_census)
    monkeypatch.setattr(oracle, "enumerate_classes", no_census)
    monkeypatch.setattr(pprim, "enumerate_classes", no_census)
    code = cli.run(["verify", "--dmin", str(-MAX_ABS_D), "--dmax", "-3", "--pmax", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"sum to at least {2 * MAX_ABS_D - 1} in |D|, more than {MAX_ABS_D}" in captured.err


def test_python_m_qprim_runs_cli():
    src = Path(cli.__file__).resolve().parents[1]
    golden = Path(__file__).resolve().parent / "golden" / "classify_-56_3.json"
    done = subprocess.run(
        [sys.executable, "-m", "qprim", "classify", "-56", "3"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == golden.read_text()


def loaded_after_import(names: set[str]) -> str:
    """Which of `names` a fresh interpreter holds after importing the library."""
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, qprim, qprim.cli, qprim.oracle, qprim.ternary; "
        f"print(sorted({sorted(names)!r} & sys.modules.keys()))"
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout


def test_imports_start_no_process_pool():
    # verify runs in one process, so no import pulls in the pool machinery
    assert loaded_after_import({"multiprocessing", "concurrent.futures"}) == "[]\n"


def test_imports_load_no_dataclasses():
    # every record is a NamedTuple, so no import generates dataclass code
    assert loaded_after_import({"dataclasses"}) == "[]\n"


def test_ternary_demo(capsys):
    code, payload, _ = run_json(capsys, ["ternary-demo", "--bound", "120"])
    assert code == 0
    assert payload["sets_match"] is True
    assert payload["sym_diff"] == [1]
    assert payload["change_det"] in (1, -1)
    # the change of basis is the proof; its implied invariants are not repeated
    assert not {"gram_dets", "theta_bound", "theta_match"} & payload.keys()


def test_ternary_demo_failing_report_exits_1(capsys, monkeypatch):
    real = ternary.spectrum_identity_report
    monkeypatch.setattr(
        ternary,
        "spectrum_identity_report",
        lambda bound: real(bound)._replace(sets_match=False),
    )
    code, payload, _ = run_json(capsys, ["ternary-demo", "--bound", "120"])
    assert code == 1
    assert payload["sets_match"] is False
    # the identity holds, but without a change of basis it is unproved: a U
    # with det -1 but the wrong image, and a singular one
    monkeypatch.setattr(ternary, "spectrum_identity_report", real)
    for rows in (((0, 0, 1), (-1, 0, -1), (0, 1, 0)), ((0, 0, 0), (-1, 0, -1), (0, -1, 0))):
        monkeypatch.setattr(ternary, "CHANGE_OF_BASIS", rows)
        code, payload, _ = run_json(capsys, ["ternary-demo", "--bound", "120"])
        assert code == 1, rows
        assert payload["sets_match"] is True
        assert payload["change_of_basis"] is None and payload["change_det"] is None


def test_usage_errors(capsys):
    assert cli.run([]) == 2
    capsys.readouterr()
    assert cli.run(["no-such-command"]) == 2
    capsys.readouterr()
    assert cli.run(["classgroup"]) == 2
    capsys.readouterr()
    assert cli.run(["classgroup", "-5"]) == 2  # not a discriminant
    capsys.readouterr()
    assert cli.run(["classify", "-56", "3", "--json"]) == 2  # JSON is the default
    capsys.readouterr()
    # above the limit, rejected before any work
    assert cli.run(["ternary-demo", "--bound", str(ternary.MAX_BOUND + 1)]) == 2
    assert "bound must be in" in capsys.readouterr().err
    spectrum_args = ["spectrum", "-56", "--form", "1,0,14", "--p", "3"]
    assert cli.run([*spectrum_args, "--bound", str(repcount.MAX_BOUND + 1)]) == 2
    assert "bound must be at most" in capsys.readouterr().err
    for bound in ("0", "-5"):
        assert cli.run(["spectrum", "-56", "--form", "3,2,5", "--bound", bound,
                        "--p", "3"]) == 2
        assert f"bound must be >= 1, got {bound}" in capsys.readouterr().err
    assert cli.run(["--help"]) == 0
    capsys.readouterr()


def test_json_keys_sorted(capsys):
    cli.run(["classgroup", "-56"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert list(payload) == sorted(payload)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
