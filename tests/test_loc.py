"""The code-line count of tools/loc.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

_MODULE = '''"""Module docstring,
two lines."""

import math  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    label = "not a docstring"
    return math.fsum(
        [x, 1.0],
    ), label


class C:
    """Class docstring,

    three lines."""

    note = """a string
    over two lines"""
'''


def test_code_lines_skip_comments_docstrings_and_blanks():
    # import, def, label, the three lines of the call, class, and both lines
    # of the assigned string
    assert loc.code_lines(_MODULE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# c\n", encoding="utf-8")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "9"], ["b.py", "1"], ["total", "10"]]
