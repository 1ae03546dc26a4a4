"""CLI: golden outputs, JSON agreement with the library, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from modpart import CHECKS, classify_nodes, classify_tensor, enumerate_partitions, make_label, parse_partition
from modpart.cli import main

REFERENCE_REPORT = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "report-default.jsonl"
SRC = Path(__file__).resolve().parent.parent / "src"


NODES_8_2_AT_5 = """\
partition 8,2  p=5  orientation=bottom-up
  residue 0: eps=1 phi=0  addable -  removable (2,2)  normal (2,2)  conormal -
  residue 1: eps=0 phi=1  addable (2,3)  removable -  normal -  conormal (2,3)
  residue 2: eps=1 phi=0  addable -  removable (1,8)  normal (1,8)  conormal -
  residue 3: eps=0 phi=2  addable (1,9) (3,1)  removable -  normal -  conormal (1,9) (3,1)
  residue 4: eps=0 phi=0  addable -  removable -  normal -  conormal -
  totals: eps=2 phi=3
"""

NODES_4_4_4_1_1_AT_3 = """\
partition 4,4,4,1,1  p=3  orientation=bottom-up
  residue 0: eps=0 phi=0  addable -  removable -  normal -  conormal -
  residue 1: eps=0 phi=2  addable (1,5) (4,2) (6,1)  removable (3,4)  normal -  conormal (4,2) (6,1)
  residue 2: eps=1 phi=0  addable -  removable (5,1)  normal (5,1)  conormal -
  totals: eps=1 phi=2
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMull:
    def test_golden(self, capsys):
        code, out, _ = run_cli(capsys, "mull", "7", "--p", "5")
        assert code == 0
        assert out.strip() == "2,2,2,1"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "mull", "10,2", "--p", "5", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["image"] == "3,3,2,2,1,1"
        assert d["fixed"] is False
        assert d["symbol"] == [[7, 2], [5, 1]]
        assert len(d["trace"]) == 12

    def test_json_digest_pinned(self, capsys):
        # every p-regular partition of n <= 12, p outer, n ascending, in
        # enumeration order (621 partitions); the trace is rebuilt by a
        # descent, so this pins it along with image, symbol and fixed flag
        lines = []
        for p in (3, 5, 7):
            for n in range(13):
                for lam in enumerate_partitions(n, p, regular_only=True):
                    code, out, _ = run_cli(capsys, "mull", str(lam), "--p", str(p), "--json")
                    assert code == 0
                    lines.append(out)
        assert len(lines) == 621
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "97530a37c549130ebf5b9528e8c57e138b9c72f0ea7a2edea2e534016175fdff"

    def test_exponent_input(self, capsys):
        code, out, _ = run_cli(capsys, "mull", "2^2,1^2", "--p", "5")
        assert code == 0
        assert out.strip() == "6"

    def test_recursion_depth_is_exit_2(self, capsys):
        # the recursive route runs out of Python frames on a 1500-node row
        code, out, err = run_cli(capsys, "mull", "1500")
        assert code == 2
        assert out == ""
        assert err.startswith("error: RecursionError: ")
        assert "Traceback" not in err

    def test_singular_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "mull", "2,2,2", "--p", "3")
        assert code == 2
        assert "NotPRegular" in err

    def test_bad_text_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "mull", "oops")
        assert code == 2
        assert "MalformedPartition" in err

    def test_composite_p_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "mull", "3,1", "--p", "9")
        assert code == 2
        assert "OddPrimeRequired" in err


class TestNodes:
    def test_json_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "nodes", "8,2", "--p", "5", "--json")
        assert code == 0
        assert json.loads(out) == classify_nodes(parse_partition("8,2"), 5).to_json_dict()

    def test_human_output_mentions_counts(self, capsys):
        code, out, _ = run_cli(capsys, "nodes", "8,2", "--p", "5")
        assert code == 0
        assert "totals: eps=2 phi=3" in out

    @pytest.mark.parametrize("text,p,want", [
        ("8,2", "5", NODES_8_2_AT_5), ("4^3,1^2", "3", NODES_4_4_4_1_1_AT_3),
    ])
    def test_human_output_golden(self, capsys, text, p, want):
        code, out, _ = run_cli(capsys, "nodes", text, "--p", p)
        assert code == 0
        assert out == want


class TestJs:
    def test_fixed_only_golden(self, capsys):
        code, out, _ = run_cli(capsys, "js", "--n", "6", "--p", "3", "--fixed-only")
        assert code == 0
        assert out.split() == ["4,1,1"]

    def test_fixed_only_empty(self, capsys):
        code, out, _ = run_cli(capsys, "js", "--n", "6", "--p", "5", "--fixed-only")
        assert code == 0
        assert out.strip() == ""

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "js", "--n", "6", "--p", "5", "--json")
        assert code == 0
        d = json.loads(out)
        assert [row["partition"] for row in d["partitions"]] == ["6", "3,3", "2,2,2", "2,2,1,1"]
        assert all(row["fixed"] is False for row in d["partitions"])


class TestClassify:
    def test_irreducible_human(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--split", "6,3,1,1", "--sign", "+", "--nonsplit", "10,1"
        )
        assert code == 0
        assert out.strip() == "Irreducible: nu = 5,3,1,1,1"

    def test_json_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--split", "6,3,1,1", "--sign", "+", "--nonsplit", "10,1", "--json"
        )
        assert code == 0
        d = json.loads(out)
        lib = classify_tensor(
            make_label(parse_partition("6,3,1,1"), 5, "+"),
            make_label(parse_partition("10,1"), 5),
        )
        assert d["verdict"] == lib.verdict.value
        assert d["nu"] == str(lib.nu)
        assert d["n"] == 11

    def test_reducible_reason_printed(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--nonsplit", "10,1", "--nonsplit", "9,2")
        assert code == 0
        assert out.strip() == "NotIrreducible: BothNonSplit"

    def test_dimension_one_is_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--split", "2,2", "--sign", "+", "--nonsplit", "3,1"
        )
        assert code == 2
        assert "DimensionOneFactor" in err

    def test_sign_count_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--split", "6,3,1,1", "--nonsplit", "10,1")
        assert code == 2
        assert "--sign" in err

    def test_wrong_label_count(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--nonsplit", "10,1")
        assert code == 2
        assert "two labels" in err

    def test_minus_sign(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--split", "6,3,1,1", "--sign", "-", "--nonsplit", "10,1"
        )
        assert code == 0
        assert "Irreducible" in out


class TestEnumerate:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--p", "5", "--regular-only")
        assert code == 0
        want = [str(x) for x in enumerate_partitions(5, 5, regular_only=True)]
        assert out.split() == want

    def test_dims_column(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--p", "5", "--dims")
        assert code == 0
        rows = dict(line.split("\t") for line in out.strip().splitlines())
        assert rows["2,2"] == "2"
        assert rows["3,1"] == "3"

    def test_reader_closing_the_pipe_is_exit_0(self):
        # `modpart enumerate --n 40 | head -1`: 37,338 lines overflow the pipe,
        # so the writer meets the closed pipe before it finishes
        code = "import sys\nfrom modpart.cli import main\nsys.exit(main(['enumerate', '--n', '40']))\n"
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline() == "40\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == ""


class TestVerify:
    def test_small_run_green(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "6")
        assert code == 0
        assert "all 12 checks passed" in out

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "5", "--json")
        assert code == 0
        lines = [json.loads(x) for x in out.strip().splitlines()]
        assert [d["id"] for d in lines] == [
            "MULLX", "CLOSED", "L52", "L47", "L12", "L17",
            "JSEQ", "L23", "L29", "L18", "L20A", "NUWF",
        ]
        assert all(d["pass"] for d in lines)

    def test_subset(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "6", "--checks", "L52,JSEQ", "--json")
        assert code == 0
        assert [json.loads(x)["id"] for x in out.strip().splitlines()] == ["L52", "JSEQ"]

    def test_flipped_orientation_fails_gate(self, capsys, flipped_scan):
        code, out, err = run_cli(capsys, "verify", "--max-n", "6")
        assert code == 1
        assert "FAILED: MULLX" in err
        assert "calibration gate failed" in err
        assert "MULLX" in out and "FAIL" in out

    def test_failing_duplicated_check_is_not_a_gate_failure(self, capsys, monkeypatch):
        # run_all runs a repeated id once; a failing non-gate check must not
        # be reported as skipping the checks after it
        def failing(n, p):
            return 1, [{"n": n, "p": p}], None

        monkeypatch.setitem(CHECKS, "L52", replace(CHECKS["L52"], fn=failing))
        code, out, err = run_cli(capsys, "verify", "--max-n", "4", "--checks", "L52,L52")
        assert code == 1
        assert "FAILED: L52" in err
        assert "calibration gate failed" not in err
        assert out.count("L52") == 1

    def test_unknown_check_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--checks", "NOPE", "--max-n", "4")
        assert code == 2
        assert "unknown check ids" in err


class TestReport:
    def test_default_report_matches_reference(self, capsys):
        # the committed reference of the benchmark's report-default workload;
        # elapsed is the only field outside the determinism contract
        code, out, _ = run_cli(capsys, "report")
        assert code == 0
        assert re.sub(r',"elapsed":[-+.0-9eE]+', "", out) == REFERENCE_REPORT.read_text()

    def test_calibration_first_then_checks(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--max-n", "6")
        assert code == 0
        lines = [json.loads(x) for x in out.strip().splitlines()]
        assert lines[0]["id"] == "CALIBRATION"
        assert lines[0]["unique"] is True
        assert [d["id"] for d in lines[1:]] == [
            "MULLX", "CLOSED", "L52", "L47", "L12", "L17",
            "JSEQ", "L23", "L29", "L18", "L20A", "NUWF",
        ]

    def test_python_dash_m_runs_the_cli(self):
        # `python -m modpart` is the same command line as the `modpart` script
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "modpart", "report", "--max-n", "6"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 13

    def test_max_n_3_is_exit_0(self, capsys):
        # the smallest bound at which the calibration can single out a scan
        code, out, _ = run_cli(capsys, "report", "--max-n", "3")
        assert code == 0
        assert json.loads(out.splitlines()[0])["unique"] is True


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--max-n", "-1"], ["verify", "--cap", "-1"],
        ["verify", "--checks", ","], ["verify", "--checks", ""],
        ["report", "--max-n", "-5"], ["report", "--cap", "-1"],
        ["report", "--max-n", "2"],
    ])
    def test_sweeps_that_would_run_nothing_are_exit_2(self, capsys, argv):
        # a negative bound or an empty selection runs no check, and below
        # n = 3 both scans pass, so report's calibration cannot decide; before
        # any check runs, nothing is printed on stdout
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [["verify", "--max-n", "4", "--p", "7"], ["report", "--max-n", "4", "--json"]])
    def test_sweep_commands_take_no_p_and_report_no_json(self, capsys, argv):
        # the sweeps fix their own primes, and report always prints JSON lines
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
