"""The line counter of scripts/src_lines.py on inline modules (no git)."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "src_lines.py")

spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment does not hide the code

# a comment-only line


def f(x):
    """One-line docstring."""
    s = """a string value,
    not a docstring"""
    return (x +
            1)


class C:
    """Class docstring
    over two lines.
    """

    def g(self):
        return f"{self}"
'''


def test_counts_code_outside_docstrings_and_comments():
    # import; def f, both lines of s, both lines of the return; class, def g, return
    assert src_lines.code_lines(MODULE) == 9


def test_modules_without_code_count_zero():
    assert src_lines.code_lines("") == 0
    assert src_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_table_prints_counts_and_change():
    counts = {"a.py": 10, "b.py": 4}
    assert src_lines.table(counts).splitlines() == [
        "a.py      10",
        "b.py       4",
        "total     14",
    ]
    # a module present on one side only counts 0 on the other
    base = {"a.py": 12, "c.py": 3}
    assert src_lines.table(counts, base).splitlines() == [
        "a.py      10     -2",
        "b.py       4     +4",
        "c.py       0     -3",
        "total     14     -1",
    ]
