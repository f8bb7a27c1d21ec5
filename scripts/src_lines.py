#!/usr/bin/env python3
"""Code lines of each ``src/forestgen`` module, and their total.

A code line is a line that holds a token of code: comments, blank lines
and docstrings (the string that opens a module, class or function body)
are not counted, so deleting a comment does not shrink the count. A
statement over several lines counts each of its lines.

With ``--against REV`` each module is counted at the git revision REV
(``git show REV:src/forestgen/<module>``) and in the working tree, with
the difference; a module missing on one side counts 0 there.

Usage: python scripts/src_lines.py [--against REV] [--out FILE]
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "forestgen"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring of the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of a module's source ``text``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def git(*args: str) -> str:
    """The output of ``git args`` run at the repository root; a failure,
    such as running outside a git checkout, ends the script with one
    ``error:`` line."""
    try:
        result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError as exc:
        sys.exit(f"error: cannot run git: {exc}")
    if result.returncode:
        lines = result.stderr.strip().splitlines() or [f"git exited {result.returncode}"]
        sys.exit(f"error: git {' '.join(args)}: {lines[-1]}")
    return result.stdout


def counts_at(rev: str) -> dict[str, int]:
    """The code lines of each ``src/forestgen`` module at git revision ``rev``."""
    prefix = SRC.relative_to(ROOT).as_posix()
    names = git("ls-tree", "--name-only", f"{rev}:{prefix}").split()
    return {name: code_lines(git("show", f"{rev}:{prefix}/{name}"))
            for name in names if name.endswith(".py")}


def layout(rows: list[tuple]) -> str:
    """``rows`` as text: the first column left-aligned, the others
    right-aligned, each at least five wide."""
    widths = [max(5 if i else 0, *(len(str(row[i])) for row in rows))
              for i in range(len(rows[0]))]
    text = ""
    for name, *values in rows:
        cells = [f"{value!s:>{width}}" for value, width in zip(values, widths[1:])]
        text += f"{name:<{widths[0]}} " + " ".join(cells) + "\n"
    return text


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--against", metavar="REV",
                        help="also count each module at this git revision, with the difference")
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args()
    counts = {path.name: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    if args.against is None:
        rows = [*counts.items(), ("total", sum(counts.values()))]
    else:
        before = counts_at(args.against)
        names = sorted({*before, *counts})
        then = [before.get(name, 0) for name in names]
        now = [counts.get(name, 0) for name in names]
        rows = [("", args.against, "now", "delta")] + [
            (name, a, b, f"{b - a:+d}")
            for name, a, b in zip([*names, "total"], [*then, sum(then)], [*now, sum(now)])]
    table = layout(rows)
    print(table, end="")
    if args.out:
        Path(args.out).write_text(table)


if __name__ == "__main__":
    main()
