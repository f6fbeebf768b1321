"""Command-line front end.

Subcommands expose the enumeration, pair-classification, cone, and
double-cover layers, plus named verification suites (picardkit.suites) that
re-run the package's frozen cross-checks and report case-by-case
comparisons.  A command imports the layers it runs when it runs: this
module loads lattice alone, and each handler and input parser imports the
rest in its own body.

Output is text by default; --format json emits a deterministic document
{"command", "params", "result"} with sorted keys, so identical invocations
produce byte-identical bytes.  Divisor classes appear as integer coordinate
arrays together with a "basis" legend naming the coordinates.

Integers on the command line, --rank and the entries of a branch type, are
ASCII decimals with an optional minus sign (-?[0-9]+); anything else is a
usage error that names the token.  A branch type with an empty entry
('1,,0', '1,1,', ',1', '') is a usage error too, not a shorter type.

Exit codes: 0 on success (and for a verification that passed), 1 for a
verification suite that failed, 2 for usage errors (bad flags, out-of-range
ranks, malformed input files, an --out path or a stdout that cannot be
written), 3 for an internal fault (any other exception, reported on one
stderr line).  Each handler builds its inputs in one step, `with _INPUT:`;
only a ValueError raised there is a usage error.  One raised later is a
fault of the program, so it exits 3 like any other exception.

A process enters through run, which `python -m picardkit` and the installed
picardkit script both call.  run returns main's exit code and, on the way
out, also when argparse raises SystemExit, calls gc.freeze(): every object
the command built moves to the collector's permanent generation, which the
collections of interpreter teardown skip.  A command ends with some 13 000
(cover) to 33 000 (verify fiber-counts) tracked objects, and each of those
collections would walk them all.  Objects still die by reference count,
and atexit handlers and the flush of the standard streams still run.  main
itself never touches the collector, so a caller in process (the tests, the
suites, the benchmark) keeps a heap the collector can reach.  Every file a
command opens is closed before main returns, as run's docstring requires.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .lattice import BLOWUP, DivisorClass, SurfaceModel, short_repr

if TYPE_CHECKING:
    from .doublecover import MultiHomogPoly, ProductPoint

INT_PATTERN = re.compile(r"-?[0-9]+")
# no subcommand takes a rank above 8, the largest blow-up
MAX_RANK = 8
# the ids of the suites in picardkit.suites, sorted, for the verify parser
SUITE_IDS = ("branch-singular", "cone-dp", "deg2-pairs", "double-cover-k",
             "fiber-counts", "hodge-bound", "quadric-target")


# characters per piece handed to stdout or the --out file
_PIECE = 1 << 16


class _UsageError(ValueError):
    """A refusal of the command line's input; main alone turns it into the
    usage line and exit 2."""


class _InputStep:
    """The context of the step that builds a handler's inputs: a
    ValueError raised in it leaves as a _UsageError."""

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, ValueError):
            raise _UsageError(str(exc)) from None


_INPUT = _InputStep()


def _json_pieces(value) -> Iterator[str]:
    """The text of json.dumps(value, indent=2, sort_keys=True) + "\\n", in
    pieces of about _PIECE characters.

    A list or tuple of plain ints is joined straight from str; strings and
    keys go through the C encode_basestring_ascii, as json.dumps does by
    default; a tuple is written as a list.  A dict key that is not a str,
    or a value that is neither an int, bool or None nor exactly a dict,
    list, tuple or str (a float or a Fraction, say), raises TypeError: no
    result holds one."""
    from json.encoder import encode_basestring_ascii

    out: list[str] = []
    size = 0

    def walk(v, pad: str) -> Iterator[str]:
        nonlocal size
        cls = v.__class__
        if cls is str:
            text = encode_basestring_ascii(v)
        elif v is None or v is True or v is False:
            text = "null" if v is None else "true" if v else "false"
        elif cls is not dict and cls is not list and cls is not tuple:
            if not isinstance(v, int):
                raise TypeError(f"Object of type {cls.__name__} is not JSON "
                                f"serializable")
            text = int.__repr__(v)
        elif not v:
            text = "{}" if cls is dict else "[]"
        elif cls is not dict and {int}.issuperset(map(type, v)):
            inner = "\n" + pad + "  "
            text = ("[" + inner + ("," + inner).join(map(str, v))
                    + "\n" + pad + "]")
        else:
            is_dict = cls is dict
            if is_dict and not {str}.issuperset(map(type, v)):
                raise TypeError("keys must be str")
            brackets = "{}" if is_dict else "[]"
            inner = pad + "  "
            sep = brackets[0] + "\n" + inner
            for member in sorted(v) if is_dict else v:
                if is_dict:  # the key, then its value
                    sep += encode_basestring_ascii(member) + ": "
                    member = v[member]
                out.append(sep)
                size += len(sep)
                yield from walk(member, inner)
                if size >= _PIECE:
                    yield "".join(out)
                    out.clear()
                    size = 0
                sep = ",\n" + inner
            text = "\n" + pad + brackets[1]
        out.append(text)
        size += len(text)

    yield from walk(value, "")
    out.append("\n")
    yield "".join(out)


def _emit(args, params: dict, result: Callable[[], dict],
          text_lines: Callable[[], list[str]]) -> None:
    """Print, or write to --out, the text or the JSON document of args.
    result and text_lines build the two renderings; only the one asked
    for is built, and in full before stdout or the file is written.

    The text is written as one piece.  The JSON document is written as it
    is rendered, in pieces of about 64 KB, with the bytes of
    json.dumps(indent=2, sort_keys=True); a fault found while rendering
    leaves the pieces written before it.  A reader that closes stdout
    early gets what it read, and the exit code stays the command's; any
    other failure to write stdout, a full disk say, is refused like an
    --out path that cannot be written."""
    if args.format == "json":
        pieces = _json_pieces({"command": args.command, "params": params,
                               "result": result()})
    else:
        pieces = ("\n".join(text_lines()) + "\n",)
    if args.out:
        try:
            with open(args.out, "w") as f:
                for piece in pieces:
                    f.write(piece)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc}") from None
        return
    try:
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()
    except OSError as exc:
        # stdout on devnull, so that the flush at interpreter exit, which
        # still holds the unwritten rest, does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise _UsageError(f"cannot write stdout: {exc}") from None


def _parse_int(text: str, what: str, largest: int) -> int:
    """An integer written in ASCII decimals, -?[0-9]+.  One with more digits
    than largest is refused before int(), which refuses over 4300 digits;
    the range itself is checked where the value is used."""
    if not INT_PATTERN.fullmatch(text):
        raise ValueError(f"{what} {short_repr(text)} is not an integer")
    digits = len(text.lstrip("-").lstrip("0"))
    if digits > len(str(largest)):
        raise ValueError(f"{what} {short_repr(text)} has {digits} digits; "
                         f"at most {largest} is supported")
    return int(text)


def _class_entry(c: DivisorClass) -> dict:
    return {
        "coords": list(c.coords),
        "degree": c.degree,
        "multiplicities": list(c.multiplicities()),
    }


def _signature_entry(sig) -> dict:
    return {"degree": sig.degree, "multiplicities": list(sig.multiplicities)}


# --- enumerate ---------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    from .curves import enumerate_conic, enumerate_exceptional

    with _INPUT:
        rank = _parse_int(args.rank, "rank", MAX_RANK)
        model = SurfaceModel.blowup_p2(rank)
        # the conic family refuses r = 0 itself
        members = (enumerate_exceptional if args.kind == "exceptional"
                   else enumerate_conic)(rank)

    def result() -> dict:
        return {
            "basis": list(model.basis_labels),
            "count": len(members),
            "classes": [_class_entry(c) for c in members],
        }

    def lines() -> list[str]:
        return ([f"{args.kind} classes on {model}: {len(members)}"]
                + [str(c) for c in members])

    _emit(args, {"kind": args.kind, "rank": rank}, result, lines)
    return 0


# --- pairs -------------------------------------------------------------------

def _cmd_pairs(args) -> int:
    from .curves import conic_coords
    from .fibration import (classify_finite_pairs, max_degree_bound,
                            scan_conic_pairs)

    with _INPUT:
        rank = _parse_int(args.rank, "rank", MAX_RANK)
        conic_coords(rank)  # the family the scan pairs refuses the rank
    summary = scan_conic_pairs(rank)
    rows = classify_finite_pairs(rank)

    def result() -> dict:
        return {
            "rank": summary.rank,
            "class_count": summary.class_count,
            "pair_count": summary.pair_count,
            "max_degree": summary.max_degree,
            "degree_bound": max_degree_bound(rank),
            "hodge_holds": summary.hodge_holds,
            "finite_pair_count": summary.finite_pair_count,
            "finite_degrees": list(summary.finite_degrees),
            "classification": [
                {
                    "first": _signature_entry(row.signature_pair[0]),
                    "second": _signature_entry(row.signature_pair[1]),
                    "degree": row.degree,
                    "count": row.count,
                }
                for row in rows
            ],
        }

    def lines() -> list[str]:
        out = [
            f"conic pair scan on {BLOWUP}({rank})",
            f"classes: {summary.class_count}",
            f"pairs: {summary.pair_count}",
            f"max degree: {summary.max_degree}",
            f"degree bound: {max_degree_bound(rank)}",
            f"hodge bound holds: {'yes' if summary.hodge_holds else 'no'}",
            f"finite pairs: {summary.finite_pair_count}",
            "finite degrees: "
            + (",".join(map(str, summary.finite_degrees)) or "none"),
        ]
        if rows:
            out.append("finite pair classes (first x second, degree, count):")
            out += [
                f"{row.signature_pair[0]} x {row.signature_pair[1]}"
                f"  degree {row.degree}  count {row.count}"
                for row in rows
            ]
        else:
            out.append("no finite pairs")
        return out

    _emit(args, {"rank": rank}, result, lines)
    return 0


# --- cones -------------------------------------------------------------------

def _cmd_cones(args) -> int:
    from .cones import surface_cone_report

    with _INPUT:
        rank = _parse_int(args.rank, "rank", MAX_RANK)
        if args.kind == "blowup":
            model = SurfaceModel.blowup_p2(rank)
        else:
            model = SurfaceModel.product_p1(rank)
    report = surface_cone_report(model)
    nef_gens = report.nef_generators  # None at the larger ranks

    def result() -> dict:
        return {
            "model": {"kind": model.kind, "size": model.size},
            "basis": list(model.basis_labels),
            "picard_number": report.picard_number,
            "equal": report.equal,
            "mori_simplicial": report.mori_simplicial,
            "psef_generators": sorted(list(g) for g in report.psef.rays()),
            "nef_facet_normals": sorted(list(n)
                                        for n in report.nef.facet_normals()),
            "nef_generators": (sorted(list(g) for g in nef_gens)
                               if nef_gens is not None else None),
        }

    def lines() -> list[str]:
        return [
            f"cone report for {model}",
            f"picard number: {report.picard_number}",
            f"nef equals psef: {'yes' if report.equal else 'no'}",
            f"mori cone simplicial: "
            f"{'yes' if report.mori_simplicial else 'no'}",
            "psef generators: "
            + ", ".join(str(DivisorClass(model, g))
                        for g in report.psef.rays()),
            "nef facet normals: "
            + ", ".join(str(tuple(n))
                        for n in sorted(report.nef.facet_normals())),
            "nef generators: " + (
                "not materialized at this rank" if nef_gens is None
                else ", ".join(str(DivisorClass(model, g))
                               for g in sorted(nef_gens))),
        ]

    _emit(args, {"kind": args.kind, "rank": rank}, result, lines)
    return 0


# --- cover -------------------------------------------------------------------

def _parse_branch(text: str) -> list[int]:
    """The comma-separated entries of a branch type; an empty entry, as in
    '1,,0', '1,1,' or '', is a usage error that gives its position."""
    from .doublecover import MAX_BRANCH_ENTRY

    entries = []
    for k, tok in enumerate(map(str.strip, text.split(",")), 1):
        if not tok:
            raise ValueError(f"branch-type entry {k} of {short_repr(text)} "
                             f"is empty")
        entries.append(_parse_int(tok, "branch-type entry", MAX_BRANCH_ENTRY))
    return entries


def _cmd_cover(args) -> int:
    from .doublecover import (DoubleCoverSpec, anticanonical_power,
                              expected_picard_number, is_fano)

    with _INPUT:
        spec = DoubleCoverSpec.of(_parse_branch(args.branch))
    rho = expected_picard_number(spec)
    fano = is_fano(spec)
    power = anticanonical_power(spec)

    def result() -> dict:
        return {
            "n": spec.n,
            "branch_type": list(spec.branch_type),
            "branch_divisor_type": [2 * d for d in spec.branch_type],
            "is_fano": fano,
            "anticanonical_power": power,
            "expected_picard_number": rho,
        }

    def lines() -> list[str]:
        return [
            f"double cover of the product of {spec.n} lines, "
            f"branch type {tuple(spec.branch_type)}",
            f"branch divisor class: {tuple(2 * d for d in spec.branch_type)}",
            f"fano: {'yes' if fano else 'no'}",
            f"anticanonical power: {power}",
            "expected picard number: "
            f"{rho if rho is not None else 'not determined'}",
        ]

    _emit(args, {"branch_type": list(spec.branch_type)}, result, lines)
    return 0


# --- singular ----------------------------------------------------------------

def _parse_point(text: str) -> ProductPoint:
    from .doublecover import MAX_FACTORS, ProductPoint, parse_rational

    toks = text.split(",")
    if len(toks) > MAX_FACTORS:
        raise ValueError(f"point has {len(toks)} coordinate pairs; at most "
                         f"{MAX_FACTORS} are supported")
    pairs = []
    for tok in toks:
        parts = tok.strip().split(":")
        if len(parts) != 2:
            raise ValueError(f"coordinate pair {short_repr(tok)} must look "
                             f"like a:b")
        pairs.append(tuple(parse_rational(part.strip(), "coordinate")
                           for part in parts))
    return ProductPoint.of(pairs)


def _load_poly(path: str) -> MultiHomogPoly:
    import json

    from .doublecover import MAX_POLY_CHARS, poly_from_json_dict

    try:
        with open(path) as f:
            # one character past the bound tells a longer file
            text = f.read(MAX_POLY_CHARS + 1)
        too_long = len(text) > MAX_POLY_CHARS
        obj = None if too_long else json.loads(text)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # undecodable text, a syntax error, an integer past Python's 4300
        # digits, or nesting deeper than the decoder's recursion limit
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if too_long:
        raise ValueError(f"{path} has more than {MAX_POLY_CHARS} "
                         f"characters")
    return poly_from_json_dict(obj)


def _cmd_singular(args) -> int:
    from .doublecover import cover_singular_at

    with _INPUT:
        poly = _load_poly(args.input)
        point = _parse_point(args.at)
        # a point of another size, or off the branch divisor, is refused
        # here: the criterion asks about points on the divisor only
        singular = cover_singular_at(poly, point)

    def result() -> dict:
        return {
            "point": [[str(a), str(b)] for a, b in point.pairs],
            "multidegree": list(poly.multidegree),
            "singular": singular,
        }

    def lines() -> list[str]:
        rendered_pt = " x ".join(f"({a}:{b})" for a, b in point.pairs)
        return [
            f"point {rendered_pt} lies on the branch divisor",
            f"cover singular above the point: {'yes' if singular else 'no'}",
        ]

    _emit(args, {"input": args.input, "at": args.at}, result, lines)
    return 0


# --- verify ------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from .suites import SUITES

    lemma_id = args.lemma_id
    details = sorted(SUITES[lemma_id](), key=lambda d: d["case"])
    passed = all(d["expected"] == d["got"] for d in details)

    def result() -> dict:
        return {"lemma_id": lemma_id, "passed": passed, "details": details}

    def lines() -> list[str]:
        out = [f"{lemma_id}: {'PASS' if passed else 'FAIL'}"]
        for d in details:
            mark = "ok" if d["expected"] == d["got"] else "MISMATCH"
            out.append(f"  [{mark}] {d['case']}: expected {d['expected']}, "
                       f"got {d['got']}")
        return out

    _emit(args, {"lemma_id": lemma_id}, result, lines)
    return 0 if passed else 1


# --- parser ------------------------------------------------------------------

def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "text"], default="text",
                   help="output format (default text)")
    p.add_argument("--out", metavar="PATH",
                   help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picardkit",
        description="Exact lattice, cone, and double-cover computations "
                    "for blow-ups of the plane and products of lines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate",
                       help="list exceptional or conic classes on a blow-up")
    p.add_argument("kind", choices=["exceptional", "conic"])
    p.add_argument("--rank", "-r", required=True,
                   help="number of blown-up points")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("pairs",
                       help="scan and classify finite conic-class pairs")
    p.add_argument("--rank", "-r", required=True)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("cones", help="nef/psef/mori cone report for a model")
    p.add_argument("kind", choices=["blowup", "product"])
    p.add_argument("--rank", "-r", required=True,
                   help="blown-up points, or 2 for P1 x P1")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_cones)

    p = sub.add_parser("cover",
                       help="invariants of a double cover of a product of lines")
    p.add_argument("branch", metavar="D1,D2,...",
                   help="comma-separated branch type, e.g. 1,1,1")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("singular",
                       help="singularity of a double cover above a point")
    p.add_argument("--input", required=True, metavar="POLY_JSON",
                   help="branch polynomial as a JSON document")
    p.add_argument("--at", required=True, metavar="A0:B0,A1:B1,...",
                   help="coordinate pairs of the point, exact rationals")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_singular)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("lemma_id", choices=SUITE_IDS)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))  # prints usage to stderr and exits 2
    except Exception as exc:
        # a fault of the program, not of the input: never exit 1, the code
        # of a failed verification suite
        message = " ".join(str(exc).split())
        print(f"picardkit: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3


def run(argv: Sequence[str] | None = None) -> int:
    """The process entry: main(argv), then gc.freeze() on the way out, also
    when main leaves through SystemExit (--help, a usage error).

    Only a process that is about to exit should call this: the frozen
    objects are never collected.  Every file a command opens is closed
    before main returns (the --out write and the singular input read are
    both `with` blocks); a file left open inside a frozen reference cycle
    would never be flushed."""
    import gc

    try:
        return main(argv)
    finally:
        gc.freeze()
