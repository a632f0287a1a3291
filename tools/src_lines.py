"""Print the total and code-only lines of each module of the library.

Code-only lines hold at least one token of code: blank lines, comments
and docstrings (the leading string of a module, class or function body)
do not count.  Run it from any directory:

    python tools/src_lines.py

The script only prints; it checks nothing.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

#: tokens that are layout, not code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers each docstring in tree spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """(total, code-only) lines of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in docs)
    return len(source.splitlines()), len(code)


#: the library's package directory
SRC = Path(__file__).resolve().parents[1] / "src" / "qprim"


def main() -> None:
    totals = [0, 0]
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    for path in sorted(SRC.glob("*.py")):
        counts = count_lines(path.read_text())
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<16}{counts[0]:>7}{counts[1]:>7}")
    print(f"{'sum':<16}{totals[0]:>7}{totals[1]:>7}")


if __name__ == "__main__":
    main()
