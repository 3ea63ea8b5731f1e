"""Count the lines of the vbvar library in one or more checkouts.

Usage:
    python3 scripts/src_size.py CHECKOUT...

For each checkout it prints the total over ``src/vbvar/*.py`` of two
counts: raw lines, and code lines.  A line is code when a token other
than a comment, a newline, an indent or a dedent lies on it and the line
is not part of a docstring, the leading string statement of a module,
class or function.  Blank lines, comment lines and docstrings are
therefore not code.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def file_size(text: str) -> tuple:
    """(raw lines, code lines) of one Python source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def library_size(checkout) -> tuple:
    """(raw lines, code lines) summed over ``src/vbvar/*.py`` of a checkout;
    a checkout with no such file raises FileNotFoundError."""
    paths = sorted(Path(checkout, "src", "vbvar").glob("*.py"))
    if not paths:
        raise FileNotFoundError(f"no src/vbvar/*.py under {checkout}")
    sizes = [file_size(path.read_text(encoding="utf-8")) for path in paths]
    return sum(raw for raw, _ in sizes), sum(code for _, code in sizes)


def main(argv) -> int:
    if not argv or any(arg.startswith("-") for arg in argv):
        print("usage: python3 scripts/src_size.py CHECKOUT...", file=sys.stderr)
        return 2
    for checkout in argv:
        try:
            raw, code = library_size(checkout)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"{checkout}: {raw} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
