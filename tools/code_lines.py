#!/usr/bin/env python3
"""Count code lines: non-blank, non-comment, non-docstring.

``python tools/code_lines.py [root]`` prints one row per package under
``root`` (default ``src/repro``) and the total.  A line counts when it
carries at least one token that is not a comment, and is not part of a
module/class/function docstring — so reformatting comments or docstrings
never moves the number, only code does.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from collections import Counter
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Code lines of one Python file."""
    docstrings = _docstring_lines(ast.parse(path.read_bytes()))
    lines: set[int] = set()
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in _NON_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def table(root: Path) -> dict[str, int]:
    """Code lines per first-level package (top-level modules under ``.``)."""
    counts: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        package = rel.parts[0] if len(rel.parts) > 1 else "."
        counts[package] += code_lines(path)
    return dict(sorted(counts.items()))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/repro")
    counts = table(root)
    width = max(map(len, counts), default=1)
    for package, n in counts.items():
        print(f"{package:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
