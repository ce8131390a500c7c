"""The line counter in tools/loc.py, on a module whose counts are known."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

# Lines 1-2 and 10 are docstrings, 6 and 11 comments, 3, 5, 7 and 8 blank;
# the rest are code, the lines of a string that is no docstring included.
FIXTURE = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves the line code

# a comment line


def f(x):
    """One-line docstring."""
    # another comment
    text = """a string
# not a comment

that spans lines"""
    return x
'''


def _loc():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_counts_each_line_once(tmp_path, capsys):
    loc = _loc()
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    counts = loc.count(path)
    assert counts == loc.Counts(total=16, code=7, docstring=3, comment=2, blank=4)
    assert loc.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["module", *loc.Counts._fields]
    assert rows[1].split() == [str(path), "16", "7", "3", "2", "4"]
    assert rows[2].split() == ["all", "16", "7", "3", "2", "4"]
