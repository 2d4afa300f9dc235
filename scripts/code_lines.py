"""Count the code lines and total lines of each module of ``src/phonoscat``.

A code line is a non-blank line that holds a token outside comments and
docstrings (the string that opens a module, class or function body).  The
script prints one row per module and the sums; it reads the files only.

    python scripts/code_lines.py [directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, total lines) of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    lines = source.splitlines()
    return sum(1 for n in code if lines[n - 1].strip()), len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "phonoscat"
    total_code = total_lines = 0
    for path in sorted(root.glob("*.py")):
        code, lines = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_lines += lines
        print(f"{path.name:20} {code:6,} {lines:6,}")
    print(f"{'total':20} {total_code:6,} {total_lines:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
