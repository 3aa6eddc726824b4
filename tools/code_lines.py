"""Count the code lines of Python modules.

A code line is a non-blank line that holds some token other than a
comment and lies outside every docstring (of the module, a class or a
function). A statement written over several lines counts each of them.

Usage: python tools/code_lines.py [PATH ...]

A file prints its own count; a directory prints the count of each module
below it and then its total. With no PATH it counts src/treelabel.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in the Python text ``source``."""
    lines = source.splitlines()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return sum(1 for n in code if lines[n - 1].strip())


def main(argv: list[str]) -> int:
    for arg in argv or ["src/treelabel"]:
        path = Path(arg)
        if path.is_file():
            print(f"{count_code_lines(path.read_text(encoding='utf-8'))}\t{path}")
            continue
        total = 0
        for module in sorted(path.rglob("*.py")):
            n = count_code_lines(module.read_text(encoding="utf-8"))
            total += n
            print(f"{n}\t{module}")
        print(f"{total}\ttotal {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
