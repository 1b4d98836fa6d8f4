#!/usr/bin/env python3
"""Count the code lines of a Python package: lines that are not blank, comments or docstrings.

    python3 tools/code_lines.py [DIR]      # DIR defaults to src/qglab

A docstring is a string-literal statement that opens a module, class or
function body; every line it spans is left out.  A comment line holds
nothing but a comment.  Prints one line per file and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines of `path` that carry a token other than a comment, outside docstrings."""
    source = path.read_bytes()
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "qglab"
    total = 0
    for path in sorted(package.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(package)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
