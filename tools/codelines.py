"""Count the code lines of the Python modules in a directory.

A code line holds a token other than a comment or whitespace and is not
part of a module, class or function docstring; blank lines, comments and
docstrings are left out. Prints one line per module, then the total:

    python3 tools/codelines.py src/gradsync
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = {
        line
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in _NOT_CODE
        for line in range(token.start[0], token.end[0] + 1)
    }
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/codelines.py DIRECTORY", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(pathlib.Path(argv[0]).glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(path.name, count)
    print("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
