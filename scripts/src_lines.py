#!/usr/bin/env python3
"""Code lines of each ``src/forestgen`` module, and their total.

A code line is a line that holds a token of code: comments, blank lines
and docstrings (the string that opens a module, class or function body)
are not counted, so deleting a comment does not shrink the count. A
statement over several lines counts each of its lines.

Usage: python scripts/src_lines.py [--out FILE]
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "forestgen"

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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args()
    counts = {path.name: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    width = max(map(len, counts))
    rows = [f"{name:<{width}} {n:5d}" for name, n in counts.items()]
    table = "\n".join(rows + [f"{'total':<{width}} {sum(counts.values()):5d}"]) + "\n"
    print(table, end="")
    if args.out:
        Path(args.out).write_text(table)


if __name__ == "__main__":
    main()
