"""tools/code_lines.py counts code lines: no docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code


# a comment on its own line
class Shape:
    """Class docstring."""

    def area(self, r):
        """Function docstring,

        with a blank line inside."""
        label = """not a docstring,
        over two lines"""
        return math.pi * (
            r
            * r
        )


"a string statement after the first is no docstring"
'''


def test_counts_only_code():
    """No docstring, comment or blank line counts. The import, class, def,
    two-line string assignment, four-line return and last string do:
    1 + 1 + 1 + 2 + 4 + 1 lines."""
    assert code_lines.code_lines(_SOURCE) == 10

