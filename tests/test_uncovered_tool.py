"""``tools/uncovered.py`` lists the statements no test executes. Its
tracer and listing are checked here on a throwaway module, not by running
the suite; the tool is a script, so it is loaded straight from its file."""

import importlib.util
import sys
from pathlib import Path

UNCOVERED = Path(__file__).resolve().parent.parent / "tools" / "uncovered.py"

MODULE = '''\
"""A throwaway module."""
import os

SEP = (
    os.sep
    + "x")


def deco(f):
    return f


@deco
def run(a):
    """Both branches are written; only one runs."""
    global SEP
    try:
        b = [
            a,
        ]
    except TypeError:
        b = None
    if a:
        return b
    else:
        return None


class Box:
    """Never built."""

    def open(self):
        return 1
'''


def _tool():
    spec = importlib.util.spec_from_file_location("uncovered_tool", UNCOVERED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_skip_docstrings_and_declarations():
    found = _tool().statements(MODULE)
    assert 1 not in found and 15 not in found  # docstrings
    assert 16 not in found  # global runs no code
    assert found[4] == range(4, 7)  # a simple statement: all its lines
    assert found[13] == range(13, 15)  # decorator to the line before body
    assert found[17] == range(17, 18)  # a compound statement's header


def test_listing_names_only_the_statements_that_did_not_run(tmp_path):
    tool = _tool()
    path = tmp_path / "throwaway_mod.py"
    path.write_text(MODULE)
    sys.path.insert(0, str(tmp_path))
    try:
        with tool.trace(tmp_path) as hits:
            import throwaway_mod
            throwaway_mod.run(1)
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("throwaway_mod", None)
    assert list(hits) == [str(path.resolve())]
    assert tool.unexecuted(path, hits[str(path.resolve())]) == [
        (22, "b = None"),
        (26, "return None"),
        (33, "return 1"),
    ]


def test_trace_restores_the_trace_function_before_it():
    before = sys.gettrace()
    with _tool().trace(Path.cwd()):
        pass
    assert sys.gettrace() is before
