"""Count the code lines of each library module: lines that are not blank,
not only a comment and not part of a docstring.

A line counts when a token other than a comment, a newline or an
indentation change starts on it or spans it (a multi-line string that is
not a docstring counts on every line).  Docstrings are the string
statements that open a module, a class or a function body, found with
ast.  One tab-separated line per module, its code lines and its lines in
all, then the totals:

    python tools/code_lines.py                  # this checkout's src/polythick
    python tools/code_lines.py ../parent/src/polythick
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = (Path(args[0]) if args
               else Path(__file__).resolve().parents[1] / "src" / "polythick")
    code = total = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        c, t = code_lines(source), len(source.splitlines())
        code, total = code + c, total + t
        print(f"{path.name}\t{c}\t{t}")
    print(f"total\t{code}\t{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
