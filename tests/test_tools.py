"""``tools/code_lines.py``: the counting rule behind the code-line totals."""

import importlib.util

from conftest import ROOT

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

    # an indented comment-only line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        return os.sep


async def fetch():
    """Coroutine docstring."""
    "a later string statement"
    return (
        1
    )
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    """Counted: ``import os``, ``class Thing:``, ``def method``, its
    return, ``async def fetch``, the later string statement and the three
    lines of the last return."""
    assert code_lines.code_lines(SOURCE) == 9


def test_code_lines_count_a_first_string_that_is_not_a_docstring():
    """An f-string is no docstring, nor is a string after other code."""
    assert code_lines.code_lines('f"not a docstring"\n') == 1
    assert code_lines.code_lines('x = 1\n"a string"\n') == 2
    assert code_lines.code_lines("") == 0


def test_main_prints_each_module_and_their_sum(capsys):
    assert code_lines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    names = [line.split()[1] for line in lines]
    assert names[-1] == "total" and names[:-1] == sorted(names[:-1])
    assert "exactla.py" in names and counts[-1] == sum(counts[:-1])
