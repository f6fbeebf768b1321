import ast
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import picardkit
from picardkit import cli, fibration, suites
from picardkit.cli import main
from picardkit.doublecover import MAX_POLY_CHARS

BRANCH_JSON = {
    "n": 3,
    "multidegree": [2, 2, 2],
    "terms": [
        {"exponents": [2, 0, 2, 0, 0, 2], "coeff": "1"},
        {"exponents": [0, 2, 0, 2, 2, 0], "coeff": "1"},
        {"exponents": [1, 1, 0, 2, 1, 1], "coeff": "1"},
        {"exponents": [0, 2, 1, 1, 1, 1], "coeff": "1"},
    ],
}


def _run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out), out


# --- enumerate ----------------------------------------------------------------

def test_enumerate_text_count_header(capsys):
    assert main(["enumerate", "exceptional", "--rank", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "exceptional classes on BlowupP2(7): 56"
    assert len(lines) == 57


def test_enumerate_conic_smallest_rank(capsys):
    assert main(["enumerate", "conic", "--rank", "1"]) == 0
    assert capsys.readouterr().out == \
        "conic classes on BlowupP2(1): 1\nH - E1\n"


def test_enumerate_json_document(capsys):
    code, doc, _ = _run_json(capsys, ["enumerate", "exceptional", "-r", "2"])
    assert code == 0
    assert doc["command"] == "enumerate"
    assert doc["params"] == {"kind": "exceptional", "rank": 2}
    result = doc["result"]
    assert result["basis"] == ["H", "E1", "E2"]
    assert result["count"] == 3 == len(result["classes"])
    assert {"coords": [0, 1, 0], "degree": 0,
            "multiplicities": [-1, 0]} in result["classes"]


def test_enumerate_out_of_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "conic", "--rank", "9"])
    assert exc.value.code == 2
    assert "9" in capsys.readouterr().err


def test_json_output_is_byte_identical(capsys):
    main(["enumerate", "conic", "--rank", "6", "--format", "json"])
    first = capsys.readouterr().out
    main(["enumerate", "conic", "-r", "6", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


# --- pairs ---------------------------------------------------------------------

def test_pairs_rank7_classification(capsys):
    code, doc, _ = _run_json(capsys, ["pairs", "--rank", "7"])
    assert code == 0
    result = doc["result"]
    assert result["class_count"] == 126
    assert result["finite_degrees"] == [3, 4]
    rows = result["classification"]
    assert len(rows) == 14
    ruling_rows = [r for r in rows if r["first"]["degree"] == 1]
    partner_sigs = sorted(
        (r["second"]["degree"], tuple(r["second"]["multiplicities"]))
        for r in ruling_rows)
    assert partner_sigs == [
        (3, (2, 1, 1, 1, 1, 1, 0)),
        (4, (2, 2, 2, 1, 1, 1, 1)),
        (5, (2, 2, 2, 2, 2, 2, 1)),
        (5, (2, 2, 2, 2, 2, 2, 1)),
    ]
    assert sorted(r["count"] for r in ruling_rows) == [7, 42, 42, 140]


def test_pairs_rank3_is_empty(capsys):
    code, doc, _ = _run_json(capsys, ["pairs", "--rank", "3"])
    assert code == 0
    assert doc["result"]["finite_pair_count"] == 0
    assert doc["result"]["classification"] == []


def test_pairs_rank5_all_degree_two(capsys):
    code, doc, _ = _run_json(capsys, ["pairs", "--rank", "5"])
    assert code == 0
    result = doc["result"]
    assert result["finite_pair_count"] > 0
    assert result["finite_degrees"] == [2]
    assert all(r["degree"] == 2 for r in result["classification"])


# --- cones ----------------------------------------------------------------------

def test_cones_one_blowup(capsys):
    code, doc, _ = _run_json(capsys, ["cones", "blowup", "--rank", "1"])
    assert code == 0
    result = doc["result"]
    assert result["equal"] is False
    assert result["psef_generators"] == [[0, 1], [1, -1]]
    assert result["nef_generators"] == [[1, -1], [1, 0]]
    assert result["picard_number"] == 2


def test_cones_product(capsys):
    code, doc, _ = _run_json(capsys, ["cones", "product", "--rank", "2"])
    assert code == 0
    assert doc["result"]["equal"] is True
    assert doc["result"]["mori_simplicial"] is True


def test_cones_large_rank_keeps_nef_unmaterialized(capsys):
    code, doc, _ = _run_json(capsys, ["cones", "blowup", "--rank", "7"])
    assert code == 0
    result = doc["result"]
    assert result["nef_generators"] is None
    assert len(result["nef_facet_normals"]) == 56


def test_cones_product_of_three_lines_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cones", "product", "--rank", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


# --- cover ------------------------------------------------------------------------

def test_cover_threefold(capsys):
    code, doc, _ = _run_json(capsys, ["cover", "1,1,1"])
    assert code == 0
    result = doc["result"]
    assert result["branch_divisor_type"] == [2, 2, 2]
    assert result["is_fano"] is True
    assert result["anticanonical_power"] == 12
    assert result["expected_picard_number"] == 3


def test_cover_non_fano_has_null_picard(capsys):
    code, doc, _ = _run_json(capsys, ["cover", "1,2"])
    assert code == 0
    assert doc["result"]["is_fano"] is False
    assert doc["result"]["expected_picard_number"] is None


def test_cover_bad_branch_values(capsys):
    for bad in ("1,x", "1,-1", ""):
        with pytest.raises(SystemExit) as exc:
            main(["cover", bad])
        assert exc.value.code == 2
        capsys.readouterr()


def test_cover_beyond_supported_size_is_usage_error(capsys):
    for branch in (",".join(["1"] * 2000), "1,1001"):
        with pytest.raises(SystemExit) as exc:
            main(["cover", branch])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "supported" in err or "exceeds" in err
        assert "Traceback" not in err


def test_cover_overlong_entry_gets_one_short_line(capsys):
    # longer than int() accepts; the bound's message, not a 5000-digit echo
    with pytest.raises(SystemExit) as exc:
        main(["cover", "1," + "9" * 5000])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage:")
    assert len(err) == 2 and len(err[1]) < 120
    assert "5000 digits" in err[1] and "at most 1000" in err[1]


def test_cover_long_non_integer_entry_gets_one_short_line(capsys):
    # the offending token, cut short, not the whole 5000-character argument
    with pytest.raises(SystemExit) as exc:
        main(["cover", "1," + "x" * 5000])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage:")
    assert len(err) == 2 and len(err[1]) < 80
    assert "'xxxxxxxx" in err[1] and "not an integer" in err[1]


# --- singular ------------------------------------------------------------------------

def _write_branch(tmp_path, obj=BRANCH_JSON):
    path = tmp_path / "branch.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_singular_at_marked_point(capsys, tmp_path):
    path = _write_branch(tmp_path)
    code, doc, _ = _run_json(capsys, ["singular", "--input", path,
                                      "--at", "0:1,0:1,0:1"])
    assert code == 0
    assert doc["result"]["singular"] is True
    assert doc["result"]["point"] == [["0", "1"], ["0", "1"], ["0", "1"]]


def test_singular_smooth_point(capsys, tmp_path):
    obj = {"n": 2, "multidegree": [2, 2],
           "terms": [{"exponents": [1, 1, 1, 1], "coeff": "1"}]}
    path = _write_branch(tmp_path, obj)
    code, doc, _ = _run_json(capsys, ["singular", "--input", path,
                                      "--at", "0:1,1:1"])
    assert code == 0
    assert doc["result"]["singular"] is False


def test_singular_off_branch_is_usage_error(capsys, tmp_path):
    path = _write_branch(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["singular", "--input", path, "--at", "1:1,1:1,1:1"])
    assert exc.value.code == 2
    assert "branch" in capsys.readouterr().err


def test_singular_rejects_decimals_and_missing_files(capsys, tmp_path):
    path = _write_branch(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["singular", "--input", path, "--at", "0.5:1,0:1,0:1"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["singular", "--input", str(tmp_path / "nope.json"),
              "--at", "0:1"])
    assert exc.value.code == 2
    capsys.readouterr()


def _bad_input_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage:") and len(err) == 2
    return err[1]


def test_singular_oversized_or_broken_input_gets_one_line(capsys, tmp_path):
    many = {**BRANCH_JSON, "terms": BRANCH_JSON["terms"] * 300}
    line = _bad_input_line(capsys, ["singular", "--input",
                                    _write_branch(tmp_path, many),
                                    "--at", "0:1,0:1,0:1"])
    assert "1200 term entries" in line
    wide = tmp_path / "wide.json"
    wide.write_text('{"n": 1, "multidegree": [1], "terms": [{"exponents": '
                    '[1, 0], "coeff": ' + "9" * 5000 + '}]}')
    line = _bad_input_line(capsys, ["singular", "--input", str(wide),
                                    "--at", "0:1"])
    assert "not valid JSON" in line and len(line) < 300
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    line = _bad_input_line(capsys, ["singular", "--input", str(deep),
                                    "--at", "0:1"])
    assert "not valid JSON" in line
    # a valid document padded with white space one character past the
    # bound, and an endless file, are refused after MAX_POLY_CHARS + 1
    # characters; at the bound the padded document is read
    padded = tmp_path / "padded.json"
    padded.write_text(json.dumps(BRANCH_JSON).ljust(MAX_POLY_CHARS + 1))
    tracemalloc.start()
    try:
        for path in (str(padded), "/dev/zero"):
            line = _bad_input_line(capsys, ["singular", "--input", path,
                                            "--at", "0:1,0:1,0:1"])
            assert line.endswith(f"{path} has more than {MAX_POLY_CHARS} "
                                 f"characters")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * MAX_POLY_CHARS
    padded.write_text(json.dumps(BRANCH_JSON).ljust(MAX_POLY_CHARS))
    assert main(["singular", "--input", str(padded),
                 "--at", "0:1,0:1,0:1"]) == 0
    capsys.readouterr()
    path = _write_branch(tmp_path)
    for at, words in (("1/0:1,0:1,0:1", "zero denominator"),
                      ("1:" + "7" * 60 + ",0:1,0:1", "digits"),
                      (",".join(["0:1"] * 65), "at most 64"),
                      ("1:2:" + "3" * 5000, "must look like a:b")):
        line = _bad_input_line(capsys, ["singular", "--input", path,
                                        "--at", at])
        assert words in line and len(line) < 120


def test_singular_rejects_non_ascii_digits(capsys, tmp_path):
    path = _write_branch(tmp_path)
    line = _bad_input_line(capsys, ["singular", "--input", path,
                                    "--at", "\u0660:1,0:1,0:1"])
    assert "coordinate" in line


# --- integers on the command line ---------------------------------------------

@pytest.mark.parametrize("text", [
    "1_0", "0_2", "+1", "\u0661", "\u0662", "\uff15", "1\n", " 1", "",
    "-", "--1", "1.0", "0x1", "1e3", "\u00b2",
])
def test_parse_int_takes_ascii_decimals_only(text):
    with pytest.raises(ValueError, match="not an integer"):
        cli._parse_int(text, "entry", 1000)


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("007", 7), ("-3", -3), ("-0", 0), ("1000", 1000),
    ("0001000", 1000),
])
def test_parse_int_reads_ascii_decimals(text, value):
    assert cli._parse_int(text, "entry", 1000) == value


def test_parse_int_counts_digits_before_converting():
    with pytest.raises(ValueError, match="5000 digits"):
        cli._parse_int("9" * 5000, "entry", 1000)
    with pytest.raises(ValueError, match="5 digits"):
        cli._parse_int("-10000", "entry", 1000)


@pytest.mark.parametrize("argv, token", [
    (["cover", "1_0"], "'1_0'"),
    (["cover", "\u0661,\u0661"], "'\u0661'"),
    (["cover", "+1"], "'+1'"),
    (["cover", "1,2\u2080"], "'2\u2080'"),
    (["enumerate", "conic", "--rank", "\u0662"], "'\u0662'"),
    (["enumerate", "conic", "--rank", "0_2"], "'0_2'"),
    (["enumerate", "exceptional", "-r", "\uff15"], "'\uff15'"),
    (["pairs", "--rank", "+5"], "'+5'"),
    (["cones", "blowup", "--rank", "x"], "'x'"),
    (["cones", "product", "--rank", "9" * 5000], "5000 digits"),
])
def test_cli_integers_are_ascii_decimals(capsys, argv, token):
    line = _bad_input_line(capsys, argv)
    assert token in line and len(line) < 100


@pytest.mark.parametrize("branch, words", [
    ("1,,0", "entry 2 of '1,,0' is empty"),
    ("1,1,", "entry 3 of '1,1,' is empty"),
    (",1", "entry 1 of ',1' is empty"),
    ("1, ,0", "entry 2 of '1, ,0' is empty"),
    ("", "entry 1 of '' is empty"),
])
def test_cover_empty_branch_entry_is_a_usage_error(capsys, branch, words):
    # not a cover with fewer factors: '1,,0' is no spelling of (1, 0)
    line = _bad_input_line(capsys, ["cover", branch, "--format", "json"])
    assert line.endswith(f"error: branch-type {words}")
    assert capsys.readouterr().out == ""


def test_cover_empty_entry_in_a_long_branch_gets_one_short_line(capsys):
    line = _bad_input_line(capsys, ["cover", "1," * 3000 + ",1"])
    assert "entry 3001 of '1,1,1,1,1,1,1,1,1,1... is empty" in line
    assert len(line) < 100


def test_cover_entries_may_carry_spaces(capsys):
    code, doc, _ = _run_json(capsys, ["cover", " 1 , 0"])
    assert code == 0 and doc["result"]["branch_type"] == [1, 0]


@pytest.mark.parametrize("argv, words", [
    (["enumerate", "conic", "--rank", "-1"], "0 <= r <= 8, got -1"),
    (["pairs", "--rank", "-3"], "1 <= r <= 8, got -3"),
    (["cones", "product", "--rank", "-1"], "n = 2, got -1"),
    (["cover", "1,-1"], "-1 is not a nonnegative int"),
])
def test_cli_negative_integers_keep_their_range_messages(capsys, argv, words):
    assert words in _bad_input_line(capsys, argv)


def test_singular_scaled_point_gives_same_answer(capsys, tmp_path):
    path = _write_branch(tmp_path)
    code1, doc1, _ = _run_json(capsys, ["singular", "--input", path,
                                        "--at", "0:1,0:1,0:1"])
    code2, doc2, _ = _run_json(capsys, ["singular", "--input", path,
                                        "--at", "0:7,0:-3/2,0:5"])
    assert (code1, doc1["result"]["singular"]) == (0, True)
    assert (code2, doc2["result"]["singular"]) == (0, True)


def test_singular_json_is_the_text_of_json_dumps(capsys, tmp_path):
    # fraction strings, a bool and nested lists of strings
    path = _write_branch(tmp_path)
    at = "0:7,0:-3/2,0:5"
    assert main(["singular", "--input", path, "--at", at,
                 "--format", "json"]) == 0
    payload = {
        "command": "singular",
        "params": {"input": path, "at": at},
        "result": {"point": [["0", "7"], ["0", "-3/2"], ["0", "5"]],
                   "multidegree": [2, 2, 2], "singular": True},
    }
    assert capsys.readouterr().out == \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --- verify -----------------------------------------------------------------------

def test_all_verification_suites_pass(capsys):
    for lemma_id in sorted(suites.SUITES):
        assert main(["verify", lemma_id]) == 0, lemma_id
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"{lemma_id}: PASS"


def test_verify_json_report_shape(capsys):
    code, doc, _ = _run_json(capsys, ["verify", "hodge-bound"])
    assert code == 0
    result = doc["result"]
    assert result["lemma_id"] == "hodge-bound"
    assert result["passed"] is True
    cases = [d["case"] for d in result["details"]]
    assert cases == sorted(cases)
    assert all(set(d) == {"case", "expected", "got"}
               for d in result["details"])


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(
        suites.SUITES, "hodge-bound",
        lambda: [suites._detail("forced", 1, 2)])
    assert main(["verify", "hodge-bound"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "hodge-bound: FAIL"
    assert "MISMATCH" in out


def test_internal_fault_exits_three(capsys, monkeypatch):
    def broken():
        return 1 // 0

    monkeypatch.setitem(suites.SUITES, "hodge-bound", broken)
    assert main(["verify", "hodge-bound"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("picardkit: internal error: ZeroDivisionError: "
                            "integer division or modulo by zero\n")


def test_a_value_error_after_the_input_step_exits_three(capsys, monkeypatch):
    # verify takes no input beyond the suite id, which argparse checked, so
    # a ValueError from a suite is a fault of the program, not a usage error
    def broken():
        raise ValueError("H is not a conic fibration class")

    monkeypatch.setitem(suites.SUITES, "deg2-pairs", broken)
    assert main(["verify", "deg2-pairs"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("picardkit: internal error: ValueError: "
                            "H is not a conic fibration class\n")


def test_a_value_error_from_a_computation_exits_three(capsys, monkeypatch):
    # the rank passed the input step; the scan that follows is the program
    def broken(rank):
        raise ValueError(f"no scan at rank {rank}")

    monkeypatch.setattr(fibration, "scan_conic_pairs", broken)
    assert main(["pairs", "--rank", "5", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("picardkit: internal error: ValueError: "
                            "no scan at rank 5\n")


def test_a_fraction_in_a_json_result_is_an_internal_fault(capsys, monkeypatch):
    # results hold only ints, bools, strs and lists; a Fraction is a bug
    monkeypatch.setitem(
        suites.SUITES, "hodge-bound",
        lambda: [suites._detail("forced", 1, Fraction(1, 2))])
    assert main(["verify", "hodge-bound", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("picardkit: internal error: TypeError: ")
    assert "Traceback" not in captured.err


def test_the_verify_parser_offers_every_suite_in_sorted_order():
    # cli keeps the ids, so that it need not import the suites to parse
    assert cli.SUITE_IDS == tuple(sorted(suites.SUITES))


def test_verify_unknown_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-check"])
    assert exc.value.code == 2
    capsys.readouterr()


# --- plumbing ----------------------------------------------------------------------

def test_out_flag_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "out.json"
    assert main(["enumerate", "conic", "--rank", "2", "--format", "json",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    main(["enumerate", "conic", "--rank", "2", "--format", "json"])
    assert target.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("command", [
    "enumerate conic --rank 8 --format json",
    "enumerate conic --rank 8",
    "pairs --rank 8 --format json",
    "pairs --rank 8",
])
def test_out_file_holds_the_bytes_of_stdout(capsys, tmp_path, command):
    # documents of several pieces, in both formats
    target = tmp_path / "out"
    assert main(command.split() + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert main(command.split()) == 0
    assert target.read_bytes() == capsys.readouterr().out.encode()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_reader_that_closes_stdout_early_is_no_fault(fmt):
    # both documents are larger than a pipe's 64 KB buffer, so the command
    # is still writing when the reader leaves
    proc = subprocess.Popen(
        [sys.executable, "-m", "picardkit", "enumerate", "conic", "--rank",
         "8", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", [
    "cover 1,0,1",
    "cover 1,0,1 --format json",
    "enumerate conic --rank 8 --format json",
])
def test_a_full_stdout_is_refused_like_an_unwritable_out_path(command,
                                                             unbuffered):
    # every write to /dev/full fails with ENOSPC.  A buffered stdout still
    # holds the unwritten text at exit, and that flush must not fail again.
    # The command line was fine, so no usage line comes first
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "picardkit", *command.split()],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == (
        "picardkit: error: cannot write stdout: [Errno 28] No space left on "
        "device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["--help", "cover -h"])
def test_help_to_a_full_stdout(command, unbuffered):
    # argparse prints the help and exits; a buffered stdout still holds it,
    # and run's flush refuses it as _emit refuses a full stdout.  It used to
    # exit 120, when the flush at interpreter exit failed.  Unbuffered,
    # argparse's own write fails, and argparse ignores that: exit 0
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "picardkit", *command.split()],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            timeout=60)
    if unbuffered:
        assert (proc.returncode, proc.stderr) == (0, "")
        return
    assert proc.returncode == 2
    assert proc.stderr == (
        "picardkit: error: cannot write stdout: [Errno 28] No space left on "
        "device\n")


@pytest.mark.parametrize("command", ["cover 1,0,1",
                                     "cover 1,0,1 --format json"])
def test_a_closed_stdout_is_refused_like_a_full_one(command):
    # with descriptor 1 closed (>&-) Python sets sys.stdout to None.  It
    # used to exit 3 with "internal error: AttributeError: 'NoneType'
    # object has no attribute 'write'"
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m picardkit "$@" >&-', sys.executable,
         *command.split()],
        stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == (
        "picardkit: error: cannot write stdout: it is closed\n")


def test_help_to_a_closed_stdout_goes_to_stderr():
    # argparse falls back to stderr when sys.stdout is None
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m picardkit --help >&-', sys.executable],
        stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr.startswith("usage: picardkit")


def test_help_to_a_pipe_with_no_reader_is_no_fault():
    # the help waits in a buffered stdout, and run's flush meets the closed
    # pipe; the exit code stays argparse's (it was 120)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "picardkit", "--help"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


class _Sink:
    """A stdout that discards what it receives."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_largest_document_is_written_in_bounded_memory(monkeypatch):
    # the 721 KB listing of the 2160 rank-8 conic classes; json.dumps with
    # indent held the whole text, and its chunks, at once (5.9 MB peak)
    argv = ["enumerate", "conic", "--rank", "8", "--format", "json"]
    monkeypatch.setattr(sys, "stdout", _Sink())
    assert main(argv) == 0  # warms the rank-8 family and the parser
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-10**80, max_value=10**80)
    | st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té \U0001d11e')
              | st.characters()),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(st.integers() | st.booleans())
                   | st.lists(st.integers()).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40)


@given(_JSON_VALUES)
def test_json_writer_gives_the_text_of_json_dumps(value):
    assert "".join(cli._json_pieces(value)) == \
        json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_json_writer_takes_str_keys_and_exact_values_only():
    # json.dumps would write the key 1 as "1" and the float as 0.5
    with pytest.raises(TypeError, match="keys must be str"):
        list(cli._json_pieces({1: 2}))
    with pytest.raises(TypeError, match="type float is not JSON"):
        list(cli._json_pieces([1, 0.5]))


def test_unwritable_out_path_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "double-cover-k", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {target}" in captured.err
    assert "Traceback" not in captured.err


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "picardkit", "enumerate", "exceptional",
         "--rank", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "exceptional classes on BlowupP2(0): 0"


def test_module_entry_writes_the_bytes_of_main(capsys, tmp_path):
    target = tmp_path / "out.json"
    argv = ["verify", "double-cover-k", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "picardkit", *argv, "--out", str(target)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == proc.stderr == ""
    assert main(argv) == 0
    assert target.read_bytes() == capsys.readouterr().out.encode()


@pytest.mark.parametrize("argv", [
    ["cover", "1,0,1"],
    ["verify", "fiber-counts", "--format", "json"],
    ["cover", "1,x"],
])
def test_main_leaves_the_collector_as_it_found_it(capsys, argv):
    before = gc.isenabled(), gc.get_freeze_count()
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("argv, code", [
    (["cover", "1,0,1"], 0),
    (["verify", "no-such-check"], 2),
])
def test_run_freezes_the_collector_once_after_main(capsys, monkeypatch,
                                                  argv, code):
    events = []
    real_main = cli.main

    def recorded_main(args):
        try:
            return real_main(args)
        finally:
            events.append("main")

    monkeypatch.setattr(cli, "main", recorded_main)
    # the test process itself is never frozen
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    try:
        got = cli.run(argv)
    except SystemExit as exc:  # a usage error leaves through argparse
        got = exc.code
    capsys.readouterr()
    assert got == code
    assert events == ["main", "freeze"]


def test_the_module_and_the_script_enter_through_run():
    package = Path(picardkit.__file__).parent
    tree = ast.parse((package / "__main__.py").read_text())
    assert any(isinstance(node, ast.ImportFrom) and node.module == "cli"
               and [a.name for a in node.names] == ["run"]
               for node in tree.body)
    assert ast.unparse(tree.body[-1]) == "sys.exit(run())"
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"picardkit": "picardkit.cli:run"}


def test_cli_import_pulls_in_no_code_generation_modules():
    # dataclasses imports inspect, ast, dis and tokenize, and each
    # decoration generates and compiles code: a cost on every CLI start.
    # Modules that site loaded before the import do not count.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import picardkit.cli; "
         "print(' '.join(sorted(set(sys.modules) - before)))"],
        capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "picardkit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_cli_import_needs_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, picardkit.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


_BASE = {"picardkit", "picardkit.cli", "picardkit.lattice"}


def _loaded(code):
    """The picardkit modules a fresh interpreter holds after running code."""
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "; import sys; print(' '.join(m for m in sys.modules "
                "if m.split('.')[0] == 'picardkit'))"],
        capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_cli_import_loads_lattice_alone():
    assert _loaded("import picardkit.cli") == _BASE


@pytest.mark.parametrize("command, layers", [
    ("cover 1,0,1", "doublecover"),
    ("singular --input BRANCH --at 0:1,0:1,0:1", "doublecover"),
    ("enumerate exceptional --rank 7", "curves"),
    ("pairs --rank 7", "curves fibration"),
    ("cones blowup --rank 8", "cones curves"),
    ("verify fiber-counts", "curves suites"),
])
def test_a_command_loads_only_the_layers_it_runs(tmp_path, command, layers):
    branch = str(_write_branch(tmp_path))
    argv = [branch if a == "BRANCH" else a for a in command.split()]
    argv += ["--out", str(tmp_path / "out")]
    assert _loaded(f"from picardkit import cli; assert cli.main({argv!r}) == 0"
                   ) == _BASE | {f"picardkit.{m}" for m in layers.split()}
