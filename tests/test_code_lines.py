"""The code-line counter in tools/code_lines.py, on a small inline sample."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# eight code lines: import, def, the two lines of the non-docstring string,
# the two lines of the return, class and the assignment
SAMPLE = '''"""A module docstring
on two lines."""

import os  # a trailing comment


def f(x):
    """A one-line docstring."""
    # a comment line
    s = """a string
that is not a docstring"""
    return (x +
            1)


class C:
    """A class
    docstring."""

    y = 2
'''


def test_counts_no_blank_comment_or_docstring_line():
    assert code_lines.code_lines(SAMPLE) == 8
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     8  a.py\n     2  b.py\n    10  total\n"
