"""Count the lines of each module of ``src/pathcover`` by kind.

Every line is one of: code, docstring, comment (a line holding only a
comment) or blank. Docstrings are the string statements that open a module,
class or function, found with ``ast``; a line inside another multi-line
string is code. The script reads only and writes nothing.

    python tools/src_lines.py                # the working tree
    python tools/src_lines.py --against REV  # also the net change from REV

``--against`` reads the modules of REV with ``git show``.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/pathcover"
KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _string_inner_lines(tree: ast.AST) -> set[int]:
    """Lines after the first of every multi-line string constant."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            lines.update(range(node.lineno + 1, node.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """Lines of ``source`` per kind, and their total."""
    tree = ast.parse(source)
    docs = _docstring_lines(tree)
    inner = _string_inner_lines(tree)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docs:
            kind = "docstring"
        elif number in inner:
            kind = "code"
        elif not line.strip():
            kind = "blank"
        elif line.lstrip().startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    counts["total"] = sum(counts.values())
    return counts


def _working_tree() -> dict[str, str]:
    return {p.name: p.read_text()
            for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def _revision(rev: str) -> dict[str, str]:
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: _git("show", f"{rev}:{PACKAGE}/{name}")
            for name in sorted(names) if name.endswith(".py")}


def _table(title: str, rows: dict[str, dict[str, int]], signed: bool) -> None:
    columns = (*KINDS, "total")
    fmt = "{:+d}" if signed else "{:d}"
    width = max(map(len, rows), default=0)
    print(title)
    print(" " * width + "".join(f"{c:>11}" for c in columns))
    for name, counts in rows.items():
        print(f"{name:<{width}}"
              + "".join(f"{fmt.format(counts[c]):>11}" for c in columns))


def _with_total(rows: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    total = {c: sum(r[c] for r in rows.values()) for c in (*KINDS, "total")}
    return {**rows, "total": total}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also print the net change from this revision")
    args = parser.parse_args(argv)
    now = {name: count(text) for name, text in _working_tree().items()}
    _table(f"{PACKAGE} (working tree)", _with_total(now), signed=False)
    if args.against:
        try:
            old = {name: count(text)
                   for name, text in _revision(args.against).items()}
        except subprocess.CalledProcessError as exc:
            print(f"error: {exc.stderr.strip()}", file=sys.stderr)
            return 1
        zero = dict.fromkeys((*KINDS, "total"), 0)
        change = {name: {c: now.get(name, zero)[c] - old.get(name, zero)[c]
                         for c in zero}
                  for name in sorted(now.keys() | old.keys())}
        print()
        _table(f"net change against {args.against}", _with_total(change),
               signed=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
