"""cli-corpus: fresh ``python -m picardkit`` subprocesses, as users run it.

The corpus is fixed in shape: all six subcommands in JSON and in text, all
seven verify suites, cover branch types of every length 2..12 and singular
on generated polynomial files.  The seed draws the cover branch entries (0
or 1, so the cost depends on the length alone), the polynomials and their
points, and the order of each pass.  One operation is one subprocess.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import reference as ref

SUITES = ("deg2-pairs", "quadric-target", "hodge-bound", "cone-dp",
          "double-cover-k", "branch-singular", "fiber-counts")
IMPORTS = "import picardkit.cli"


class Entry:
    def __init__(self, argv: list[str], check) -> None:
        self.argv = argv
        self.check = check  # parsed stdout -> problem or None

    def __str__(self) -> str:
        return " ".join(self.argv)


def _field(out: str, prefix: str) -> str:
    found = [line[len(prefix):] for line in out.splitlines()
             if line.startswith(prefix)]
    if len(found) != 1:
        raise ValueError(f"no single line starting {prefix!r}")
    return found[0]


_TERM = re.compile(r"([+-]?)(\d*)(H|E(\d+))")


def parse_class(text: str, r: int) -> tuple:
    """Coordinates of a class printed as e.g. '2H - E1 - E2 - E3'."""
    coords = [0] * (r + 1)
    for tok in text.replace("- ", "-").replace("+ ", "+").split():
        m = _TERM.fullmatch(tok)
        if not m:
            raise ValueError(f"cannot read class {text!r}")
        value = (-1 if m[1] == "-" else 1) * int(m[2] or 1)
        coords[int(m[4]) if m[4] else 0] = value
    return tuple(coords)


def _enumerate(kind: str, r: int, fmt: str) -> Entry:
    want = set((ref.exceptional_classes if kind == "exceptional"
                else ref.conic_classes)(r))
    valid = ref.is_exceptional if kind == "exceptional" else ref.is_conic

    def check(out: str):
        if fmt == "json":
            res = json.loads(out)["result"]
            count = res["count"]
            got = [tuple(c["coords"]) for c in res["classes"]]
            for c, entry in zip(got, res["classes"]):
                if entry["degree"] != c[0] or \
                        entry["multiplicities"] != [-x for x in c[1:]]:
                    return f"class entry {entry} is inconsistent"
        else:
            lines = out.splitlines()
            count = int(_field(out, f"{kind} classes on BlowupP2({r}): "))
            got = [parse_class(line, r) for line in lines[1:]]
        if not count == len(got) == ref.CLASS_COUNTS[kind, r]:
            return f"{len(got)} {kind} classes listed, count says {count}"
        if not all(valid(c) for c in got):
            return f"a listed class is not {kind}"
        if len(set(got)) != len(got):
            return "a class is listed twice"
        if set(got) != want:
            return f"listed {kind} classes differ from the benchmark's own"
        return None

    return Entry(["enumerate", kind, "--rank", str(r)], check)


def _pairs(r: int, fmt: str) -> Entry:
    def check(out: str):
        if fmt == "json":
            res = json.loads(out)["result"]
            classes, pairs = res["class_count"], res["pair_count"]
            finite, hodge = res["finite_pair_count"], res["hodge_holds"]
            counts = [row["count"] for row in res["classification"]]
            degrees = [row["degree"] for row in res["classification"]]
        else:
            classes = int(_field(out, "classes: "))
            pairs = int(_field(out, "pairs: "))
            finite = int(_field(out, "finite pairs: "))
            hodge = _field(out, "hodge bound holds: ") == "yes"
            rows = [re.search(r"degree (\d+)  count (\d+)$", line)
                    for line in out.splitlines() if "  count " in line]
            counts = [int(m[2]) for m in rows]
            degrees = [int(m[1]) for m in rows]
        n = len(ref.conic_classes(r))
        if classes != n or pairs != n * (n - 1) // 2:
            return f"{classes} classes and {pairs} pairs, expected {n}"
        if sum(counts) != finite:
            return "classification counts do not sum to the finite pairs"
        if finite != ref.finite_pair_count(r):
            return f"{finite} finite pairs, recount gives " \
                   f"{ref.finite_pair_count(r)}"
        if not hodge or any(2 * (9 - r) * d > 16 for d in degrees):
            return "a finite pair breaks the index bound"
        return None

    return Entry(["pairs", "--rank", str(r)], check)


def _cones(kind: str, r: int, fmt: str) -> Entry:
    if kind == "blowup":
        dim = r + 1
        psef = {0: {(1,)}, 1: {(0, 1), (1, -1)}}.get(
            r, set(ref.exceptional_classes(r)))
        form = [[(1 if i == 0 else -1) if i == j else 0 for j in range(dim)]
                for i in range(dim)]
    else:
        dim, psef, form = 2, {(1, 0), (0, 1)}, [[0, 1], [1, 0]]
    minus_k = [-x for x in ref.canonical(r)] if kind == "blowup" else [2, 2]
    nef_normals = {ref.primitive([ref.dot(row, g) for row in form])
                   for g in psef}
    # psef lies in nef only on P^2 and P^1 x P^1 here, whose psef cones the
    # form maps onto themselves, so there the two cones are equal
    psef_in_nef = all(ref.dot(a, n) >= 0 for a in psef for n in nef_normals)
    simplicial = len(psef) == dim

    def check(out: str):
        if fmt == "json":
            res = json.loads(out)["result"]
            rho, equal = res["picard_number"], res["equal"]
            mori = res["mori_simplicial"]
            got_psef = [tuple(g) for g in res["psef_generators"]]
            got_normals = {tuple(v) for v in res["nef_facet_normals"]}
            nef_gens = res["nef_generators"]
        else:
            rho = int(_field(out, "picard number: "))
            equal = _field(out, "nef equals psef: ") == "yes"
            mori = _field(out, "mori cone simplicial: ") == "yes"
            got_psef = _field(out, "psef generators: ").split(", ")
            got_normals = nef_gens = None
        if rho != dim or mori != simplicial or len(got_psef) != len(psef):
            return "picard number, simpliciality or psef size is wrong"
        if fmt == "json" and (set(got_psef) != psef
                              or got_normals != nef_normals):
            return "psef generators or nef facet normals are wrong"
        if nef_gens is not None:
            rays = [tuple(g) for g in nef_gens]
            problem = ref.ray_problem(rays, sorted(nef_normals), dim, "nef")
            if problem:
                return problem
            if set(rays) != psef and psef_in_nef:
                return "nef and psef rays differ"
        if equal != psef_in_nef:
            return "nef equals psef is wrong"
        if any(ref.dot(minus_k, [ref.dot(row, g) for row in form]) <= 0
               for g in (got_psef if fmt == "json" else psef)):
            return "-K is not positive on a psef ray"
        return None

    return Entry(["cones", kind, "--rank", str(r)], check)


def _cover(branch: tuple, fmt: str) -> Entry:
    n = len(branch)
    power = ref.anticanonical_power(branch)
    fano = all(d in (0, 1) for d in branch)

    def check(out: str):
        if fmt == "json":
            res = json.loads(out)["result"]
            got = (res["n"], res["anticanonical_power"], res["is_fano"],
                   res["branch_divisor_type"], res["expected_picard_number"])
            rho = n if n >= 3 and all(d == 1 for d in branch) else None
            want = (n, power, fano, [2 * d for d in branch], rho)
        else:
            got = (int(_field(out, "anticanonical power: ")),
                   _field(out, "fano: ") == "yes")
            want = (power, fano)
        return None if got == want else f"cover invariants {got}, want {want}"

    return Entry(["cover", ",".join(map(str, branch))], check)


def _singular(path: Path, point, want: bool, fmt: str) -> Entry:
    def check(out: str):
        if fmt == "json":
            got = json.loads(out)["result"]["singular"]
        else:
            got = _field(out, "cover singular above the point: ") == "yes"
        return None if got == want else f"singular returned {got}, built {want}"

    # --at= because argparse reads a value starting with '-' as an option
    at = ",".join(f"{a}:{b}" for a, b in point)
    return Entry(["singular", "--input", str(path), f"--at={at}"], check)


def _verify(suite: str, fmt: str) -> Entry:
    def check(out: str):
        if fmt == "json":
            res = json.loads(out)["result"]
            ok = res["passed"] is True and res["lemma_id"] == suite and all(
                d["expected"] == d["got"] for d in res["details"])
        else:
            ok = out.splitlines()[0] == f"{suite}: PASS"
        return None if ok else f"suite {suite} did not pass"

    return Entry(["verify", suite], check)


def corpus(seed: int, workdir: Path) -> list[Entry]:
    rng = random.Random(f"{seed}:corpus")
    made = [
        (_enumerate, ("exceptional", 8), "text"),
        (_enumerate, ("conic", 8), "json"),
        (_pairs, (8,), "json"),
        (_pairs, (8,), "text"),
        (_pairs, (7,), "text"),
        (_cones, ("blowup", 8), "json"),
        (_cones, ("blowup", 8), "text"),
        (_cones, ("blowup", 2), "json"),
        (_cones, ("product", 2), "text"),
    ]
    for n in range(2, 13):
        branch = tuple(rng.randint(0, 1) for _ in range(n))
        made.append((_cover, (branch,), "json" if n % 2 else "text"))
    for k, fmt in enumerate(("json", "text")):
        terms, point, singular = ref.branch_poly(rng, singular=k == 0)
        path = workdir / f"branch{k}.json"
        path.write_text(json.dumps({
            "n": 3, "multidegree": [2, 2, 2],
            "terms": [{"exponents": list(e), "coeff": str(c)}
                      for e, c in sorted(terms.items())]}))
        made.append((_singular, (path, point, singular), fmt))
    for k, suite in enumerate(SUITES):
        made.append((_verify, (suite,), "json" if k % 2 == 0 else "text"))
    entries = []
    for make, args, fmt in made:
        entry = make(*args, fmt)
        entry.argv += ["--format", fmt]
        entries.append(entry)
    return entries


def check(entry: Entry, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        return entry.check(out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
