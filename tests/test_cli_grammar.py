"""A grammar fuzz of the command line, run in process through main(argv).

Arguments are drawn from the CLI's own grammar (each subcommand with
well-formed and malformed values) and from a soup of its tokens, after a
fixed set of explicit examples that puts every value token, every input
file among them, in a command that reaches it.  Whatever
the arguments, the exit code is 0, 1 or 2 and never 3 (an internal fault),
stderr carries no traceback, a usage error ends with one error line, and a
JSON document parses whenever the command ran.  The slow suites
fiber-counts and deg2-pairs are left out of the draws.

Input files are written under the test's tmp_path, which is also the
working directory, so every relative path stays inside it.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from picardkit.cli import build_parser, main
from picardkit.doublecover import (MAX_COEFF_DIGITS, MAX_FACTORS,
                                   MAX_POLY_DEGREE, MAX_POLY_TERMS)

RANKS = ["0", "1", "2", "5", "7", "8", "-1", "9", "+3", "1_0", "\u0662",
         "9" * 40, "0" * 30 + "3", ""]
BRANCHES = ["1,1,1", "0,1,2,2", "2,1", "1000,0", "1001", "1,-1", "1,,1",
            "-1", ",".join(["1"] * MAX_FACTORS),
            ",".join(["1"] * (MAX_FACTORS + 1)), "+3", "1_0", "\u0662",
            "9" * 40, ""]
POINTS = ["0:1,0:1,0:1", "1:0,0:1,1:1", "0:7,0:-3/2,0:5", "1:1,1:1,1:1",
          "0:1", "1:0", ",".join(["0:1"] * MAX_FACTORS),
          ",".join(["0:1"] * (MAX_FACTORS + 1)), "0:0,0:1,0:1",
          "1/0:1,0:1,0:1", "0.5:1,0:1,0:1", "\u0660:1,0:1,0:1", "1:2:3",
          "1:" + "7" * 60 + ",0:1,0:1", ""]
SUITES = ["quadric-target", "hodge-bound", "cone-dp", "double-cover-k",
          "branch-singular", "no-such-suite"]
OUTS = ["out.txt", "missing/out.txt"]


def _poly(n, multidegree, terms):
    return {"n": n, "multidegree": multidegree,
            "terms": [{"exponents": e, "coeff": c} for e, c in terms]}


def _linear(n, coeff="1"):
    """The product of the first variables of n degree-one factors."""
    return _poly(n, [1] * n, [([1, 0] * n, coeff)])


BRANCH = _poly(3, [2, 2, 2], [([2, 0, 2, 0, 0, 2], "1"),
                              ([0, 2, 0, 2, 2, 0], "1"),
                              ([1, 1, 0, 2, 1, 1], "1"),
                              ([0, 2, 1, 1, 1, 1], "1")])
WIDE = MAX_POLY_DEGREE  # factors of degree one that the degree bound allows
POLY_FILES = {
    "valid.json": json.dumps(BRANCH),
    # each size bound, at the limit and one past it
    "terms_at_limit.json": json.dumps(
        {**BRANCH, "terms": BRANCH["terms"] * (MAX_POLY_TERMS // 4)}),
    "terms_past.json": json.dumps(
        {**BRANCH, "terms": BRANCH["terms"] * (MAX_POLY_TERMS // 4)
         + BRANCH["terms"][:1]}),
    "degree_at_limit.json": json.dumps(
        _poly(1, [MAX_POLY_DEGREE], [([MAX_POLY_DEGREE, 0], "1")])),
    "degree_past.json": json.dumps(
        _poly(1, [MAX_POLY_DEGREE + 1], [([MAX_POLY_DEGREE + 1, 0], "1")])),
    "factors_at_limit.json": json.dumps(_poly(
        MAX_FACTORS, [1] * WIDE + [0] * (MAX_FACTORS - WIDE),
        [([1, 0] * WIDE + [0, 0] * (MAX_FACTORS - WIDE), "1")])),
    "factors_past.json": json.dumps(_linear(MAX_FACTORS + 1)),
    "coeff_at_limit.json": json.dumps(_linear(1, "9" * MAX_COEFF_DIGITS)),
    "coeff_past.json": json.dumps(_linear(1, "9" * (MAX_COEFF_DIGITS + 1))),
    # malformed documents
    "not_json.json": "{\"n\": 1,",
    "list.json": "[]",
    "missing_key.json": json.dumps({"n": 1, "multidegree": [1]}),
    "float_coeff.json": json.dumps(_poly(1, [1], [([1, 0], 0.5)])),
    "bad_exponents.json": json.dumps(_poly(1, [1], [([1, 0, 0], "1")])),
    "deep.json": "[" * 100000 + "]" * 100000,
}
# "absent.json" is never written
INPUTS = sorted(POLY_FILES) + ["absent.json"]
# files with a point on their branch divisor, so that the test runs
ON_BRANCH = [("valid.json", "0:1,0:1,0:1"), ("valid.json", "1:0,0:1,1:1"),
             ("terms_at_limit.json", "0:7,0:-3/2,0:5"),
             ("degree_at_limit.json", "0:1"), ("coeff_at_limit.json", "0:1"),
             ("factors_at_limit.json", ",".join(["0:1"] * MAX_FACTORS))]

TOKENS = (["enumerate", "pairs", "cones", "cover", "singular", "verify",
           "exceptional", "conic", "blowup", "product", "--rank", "-r",
           "--input", "--at", "--format", "json", "text", "--out", "--bogus"]
          + RANKS + SUITES + OUTS + INPUTS[:3] + POINTS[:3] + BRANCHES[:3])

pick = st.sampled_from


@st.composite
def grammatical(draw):
    """A subcommand with its arguments in any order, each value drawn from
    the well-formed and malformed tokens, and at times one token dropped."""
    sub = draw(pick(["enumerate", "pairs", "cones", "cover", "singular",
                     "verify"]))
    groups = {
        "enumerate": [[draw(pick(["exceptional", "conic", "line"]))],
                      [draw(pick(["--rank", "-r"])), draw(pick(RANKS))]],
        "pairs": [[draw(pick(["--rank", "-r"])), draw(pick(RANKS))]],
        "cones": [[draw(pick(["blowup", "product"]))],
                  [draw(pick(["--rank", "-r"])), draw(pick(RANKS))]],
        "cover": [[draw(pick(BRANCHES))]],
        "singular": list(zip(["--input", "--at"], draw(st.one_of(
            pick(ON_BRANCH), st.tuples(pick(INPUTS), pick(POINTS)))))),
        "verify": [[draw(pick(SUITES))]],
    }[sub]
    if draw(st.booleans()):
        groups.append(["--format", draw(pick(["json", "text", "xml"]))])
    if draw(st.booleans()):
        groups.append(["--out", draw(pick(OUTS))])
    argv = [sub] + [tok for group in draw(st.permutations(groups))
                    for tok in group]
    if draw(st.integers(0, 4)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


ARGV = st.one_of(grammatical(), st.lists(pick(TOKENS), max_size=6))
# every value token once in a command that reaches it, whatever the draws
BOUNDARY = ([["enumerate", "conic", "--rank", r] for r in RANKS]
            + [["cover", b, "--format", "json"] for b in BRANCHES]
            + [["singular", "--input", f, "--at", "0:1"] for f in INPUTS]
            + [["singular", "--input", "valid.json", "--at", p]
               for p in POINTS]
            + [["singular", "--input", f, "--at", p] for f, p in ON_BRANCH]
            + [["verify", v, "--format", "json"] for v in SUITES]
            + [["pairs", "-r", "5", "--format", "json", "--out", o]
               for o in OUTS])


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_no_argument_list_faults_or_breaks_the_output_contract(
        capsys, monkeypatch, tmp_path):
    for name, text in POLY_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    out_file = tmp_path / "out.txt"

    @settings(max_examples=80, deadline=None, database=None)
    @given(ARGV)
    def check(argv):
        out_file.unlink(missing_ok=True)
        code = _exit_code(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err
        if code == 2:
            lines = err.splitlines()
            assert out == ""
            assert lines and ": error: " in lines[-1], (argv, err)
            assert sum(": error: " in line for line in lines) == 1
            return
        args = build_parser().parse_args(argv)
        if args.format == "json":
            doc = json.loads(out_file.read_text() if args.out else out)
            assert doc["command"] == args.command
            assert doc["params"] and "result" in doc

    for argv in BOUNDARY:
        check = example(argv)(check)
    check()
