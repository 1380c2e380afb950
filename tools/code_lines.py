"""Count the code lines of the mclab package: non-blank lines that hold a
token outside comments and docstrings.

Usage: python tools/code_lines.py [SRC_DIR]   (default: src/mclab)

Prints one line per module, then the total. A line counts when it holds any
token but a comment, a line break or an indent; a string spanning several
lines counts on each. Docstrings (the first statement of a module, class or
function, when it is a string) are left out, whatever their length.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/mclab")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20} {count:6,}")
    print(f"{'total':20} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
