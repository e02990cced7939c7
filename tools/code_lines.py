"""Count the code lines of each module of lenstri.

    python tools/code_lines.py [SRC_DIR]

prints one ``module lines`` row per module of SRC_DIR (default
``src/lenstri`` beside this script's directory) and a ``total`` row.  A
code line is a line that holds a token other than a comment: blank lines,
comment lines and the lines of docstrings (the string that opens a
module, class or function body) are left out, and a statement that spans
several lines counts each of them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that make no line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = (Path(argv[0]) if argv
           else Path(__file__).resolve().parent.parent / "src" / "lenstri")
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.stem} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
