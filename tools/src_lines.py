"""Total lines and code lines of each Python module under the given paths.

A code line holds at least one token that is not a comment and not part
of a docstring, the string that opens a module, class or function body;
blank lines hold none.  A line inside a multi-line statement or string
other than a docstring counts as code.  Only the standard library's ast
and tokenize are used, so the counts of two commits compare exactly.

Run from the root of the repository:

    python tools/src_lines.py                 # the modules of src/picardkit
    python tools/src_lines.py src tests/_oracles.py

Each path is a module or a directory, searched for *.py.  One row per
module, by path, then the total.  -h or --help prints this text.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that are layout or comment, never code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple, tuple]]:
    """(start, end) positions, as (line, column), of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source text."""
    spans = _docstring_spans(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and any(
                start <= tok.start and tok.end <= end for start, end in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def _modules(paths: list[str]) -> list[Path]:
    out = []
    for p in map(Path, paths):
        out += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return out


def main(argv: list[str]) -> int:
    if {"-h", "--help"} & set(argv):
        print(__doc__.strip())
        return 0
    modules = _modules(argv or ["src/picardkit"])
    rows = [(str(p), *count(p.read_text(encoding="utf-8"))) for p in modules]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
