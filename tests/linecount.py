"""Count the lines, code lines and docstring lines of Python modules.

Docstring lines are the lines of module, class and function docstrings.
Code lines hold a token outside those docstrings; comments and blank
lines count as neither.  Prints one row per module and a total for the
paths given (files, or directories searched for ``*.py``):

    python tests/linecount.py                # src/pcomp
    python tests/linecount.py src/pcomp/oracle.py
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER, tokenize.ENCODING}


def count(text: str) -> tuple[int, int, int]:
    """(lines, code lines, docstring lines) of one module's source."""
    docs: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(row for row in range(tok.start[0], tok.end[0] + 1) if row not in docs)
    return len(text.splitlines()), len(code), len(docs)


def modules(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for arg in paths:
        path = Path(arg)
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(args: list[str]) -> int:
    rows = [(os.path.relpath(path), *count(path.read_text(encoding="utf-8")))
            for path in modules(args or [str(ROOT / "src" / "pcomp")])]
    rows.append(("total", *(sum(row[i] for row in rows) for i in (1, 2, 3))))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}  {'docs':>6}")
    for name, lines, code, docs in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}  {docs:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
