"""``tools/src_lines.py`` counts the lines of ``src/pathcover`` by kind.
Its ``count`` is checked here on a throwaway module; the tool is a script,
so it is loaded straight from its file."""

import importlib.util
from pathlib import Path

SRC_LINES = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

MODULE = '''\
"""A throwaway module,
with a two-line docstring."""

import os

# a comment on its own line
TEXT = """not a docstring:

# nor is this a comment
"""


def f(x):
    """One line."""
    return x  # a trailing comment leaves a code line
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines_tool", SRC_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_sorts_every_line_by_kind():
    # code: the import, the string's four lines, the def and the return;
    # the string's blank and "#" lines are inside it, so code too
    assert _tool().count(MODULE) == {
        "code": 7, "docstring": 3, "comment": 1, "blank": 4, "total": 15}
