"""List the statements of ``src/pathcover`` that no test executes.

coverage.py is no dependency of this project, so this script runs the
tier-1 suite in-process under a ``sys.settrace`` line tracer and prints
each statement of the package that ran in no test, as ``path:line: text``,
then a count per module. Tracing starts before pytest imports
``pathcover``, so module-level statements count as executed. A traced run
is several times slower than an untraced one: 92 s against 13 s on a
2-core VM.

    python tools/uncovered.py                  # the whole suite
    python tools/uncovered.py -- -k claims     # pytest arguments after --

A statement counts as executed when a line of its own fires a line event:
any line of a simple statement, or a line of a compound statement's header,
from its first decorator to the line before its body. Docstrings and
``global`` or ``nonlocal`` declarations run no code, so they are not
listed. The exit code is pytest's. The script writes nothing.
"""

from __future__ import annotations

import argparse
import ast
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pathcover"


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the string statements that open a module, class or
    function body."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                ids.add(id(first))
    return ids


def statements(source: str) -> dict[int, range]:
    """Each statement of ``source`` that runs code, by its first line, with
    the lines of its own: a simple statement's lines, or a compound
    statement's header, from its first decorator to the line before the
    first statement of its body."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    out = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in skip
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno]
                    + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out[first] = range(first, max(first, last) + 1)
    return out


@contextmanager
def trace(root: Path) -> Iterator[dict[str, set[int]]]:
    """Record, while the block runs, the lines executed in the files under
    ``root``: a dict from resolved file name to line numbers. Frames of
    other files get no line tracer. The trace function in place before is
    restored."""
    root = root.resolve()
    hits: dict[str, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # None: outside root

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = (hits.setdefault(str(path), set())
                           if path.is_relative_to(root) else None)
        return local if files[name] is not None else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        yield hits
    finally:
        sys.settrace(previous)


def unexecuted(path: Path, lines: set[int]) -> list[tuple[int, str]]:
    """The statements of the file at ``path`` none of whose own lines is in
    ``lines``, as (first line, stripped text of that line)."""
    source = path.read_text()
    text = source.splitlines()
    return [(first, text[first - 1].strip())
            for first, own in sorted(statements(source).items())
            if lines.isdisjoint(own)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pytest_args", nargs="*",
                        help="extra pytest arguments, after --")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    with trace(PACKAGE) as hits:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(ROOT / "tests"), *args.pytest_args])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unexecuted(path, hits.get(str(path.resolve()), set()))
        for line, text in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
        total += len(missed)
        print(f"-- {path.name}: {len(missed)} unexecuted", file=sys.stderr)
    print(f"-- {total} statements unexecuted in {PACKAGE.relative_to(ROOT)}",
          file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main())
