"""Count the code lines of the package: no docstrings, comments or blank lines.

A line counts when it holds a token of a statement other than a docstring.
Docstrings are the string-literal first statements of a module, class or
function body, the ones `ast.get_docstring` reads.

    python3 tools/code_lines.py            # per module under src/, then the total
    python3 tools/code_lines.py FILE ...   # the same for the files given
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
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


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    # each file under the name it is printed with
    if argv:
        files = {name: Path(name) for name in argv}
    else:
        files = {str(p.relative_to(ROOT)): p for p in sorted((ROOT / "src").rglob("*.py"))}
    total = 0
    for name, path in files.items():
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
