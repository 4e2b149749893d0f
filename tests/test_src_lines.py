"""``scripts/src_lines.py``, the size figure of ``src/``."""

import os

import pytest

SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), "..", "scripts")

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps its line

# a comment line


def f(x):
    """Function docstring."""
    label = """a string that is
    an operand, not a docstring"""
    return (x,
            label)
'''


@pytest.fixture
def src_lines(monkeypatch):
    monkeypatch.syspath_prepend(SCRIPTS_DIR)
    import src_lines
    return src_lines


def test_code_lines_skip_docstrings_comments_and_blanks(src_lines):
    # import, def, the two lines of the operand string, the two of return
    assert src_lines.code_lines(SNIPPET) == 6


def test_tree_size_counts_raw_lines_as_wc_does(src_lines, tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2")  # no final newline
    (tmp_path / "notes.txt").write_text("not python\n")
    assert src_lines.tree_size(str(tmp_path)) == (
        SNIPPET.count("\n") + 2, 6 + 2)
