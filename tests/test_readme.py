"""The command lines and suite ids that README.md shows.

Every `picardkit ...` line of README's code blocks runs through cli.main and
exits 0; the `singular` lines read README's own polynomial document, written
as branch.json in a temporary directory.  The suite ids that README lists
are those of `picardkit verify`, and the input bounds it states are the
package's constants.
"""

import re
import shlex
from pathlib import Path

import pytest

from picardkit import cli, suites
from picardkit.doublecover import (MAX_BRANCH_ENTRY, MAX_COEFF_DIGITS,
                                   MAX_FACTORS, MAX_POLY_CHARS,
                                   MAX_POLY_DEGREE, MAX_POLY_TERMS)

README = (Path(__file__).parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```\w*\n(.*?)^```", README, re.M | re.S)
COMMANDS = [line for block in BLOCKS for line in block.splitlines()
            if line.startswith("picardkit ")]


def test_readme_shows_commands_and_one_polynomial_document():
    assert len(COMMANDS) >= 10
    assert len([b for b in BLOCKS if '"terms"' in b]) == 1


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_zero(capsys, monkeypatch, tmp_path, line):
    (poly,) = [b for b in BLOCKS if '"terms"' in b]
    (tmp_path / "branch.json").write_text(poly)
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0
    capsys.readouterr()


def test_readme_lists_the_suite_ids():
    (paragraph,) = re.findall(r"The available suite ids are (.*?)\n\n",
                              README, re.S)
    assert sorted(re.findall(r"`([^`]+)`", paragraph)) == sorted(suites.SUITES)


def _stated(phrase):
    """The integers README writes where phrase has {}, with any run of
    white space between its words, as one line break in a paragraph."""
    pattern = r"\s+".join(re.escape(w) for w in phrase.split())
    (match,) = re.finditer(pattern.replace(re.escape("{}"), r"(\d+)"),
                           README)
    return tuple(map(int, match.groups()))


def test_readme_states_the_input_bounds_of_the_package():
    assert _stated("takes the number of blown-up points, {} through {};") \
        == (0, cli.MAX_RANK)
    assert _stated("A branch type has at most {} entries, each at most {}") \
        == (MAX_FACTORS, MAX_BRANCH_ENTRY)
    assert _stated("A polynomial has at most {} factors, total degree at "
                   "most {} and at most {} term entries;") \
        == (MAX_FACTORS, MAX_POLY_DEGREE, MAX_POLY_TERMS)
    assert _stated("the common denominator of the coefficients have at "
                   "most {} digits") == (MAX_COEFF_DIGITS,)
    assert _stated("A polynomial file has at most {} characters") \
        == (MAX_POLY_CHARS,)
