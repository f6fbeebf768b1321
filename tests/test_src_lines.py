"""tools/src_lines.py counts total lines and code lines of a module: code
is every line with a token that is not a comment or a docstring."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# 19 lines; the code lines are import os, def f, text = (2 lines), return
# (2 lines), class C and y = ...
SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is
    not a docstring"""
    return (x,
            text)


class C:
    """Class docstring."""  # a comment after it
    y = "doc" "strings only open a body"
'''
SAMPLE_CODE = 8


def test_counts_on_a_sample():
    assert src_lines.count(SAMPLE) == (19, SAMPLE_CODE)


def test_a_concatenated_docstring_is_no_code():
    assert src_lines.count('def f():\n    "a" \\\n    "b"\n    pass\n') \
        == (4, 2)


def test_the_script_prints_a_row_per_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [["module", "lines", "code"],
                    [str(tmp_path / "a.py"), "19", str(SAMPLE_CODE)],
                    [str(tmp_path / "b.py"), "2", "1"],
                    ["total", "21", str(SAMPLE_CODE + 1)]]


def test_help_prints_the_usage():
    # --help was read as a path, and ended in a FileNotFoundError
    for flag in ("--help", "-h"):
        proc = subprocess.run([sys.executable, str(TOOL), flag],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("Total lines and code lines")
        assert "python tools/src_lines.py src tests/_oracles.py" in proc.stdout
