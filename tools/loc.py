"""Line counts of the package under src/, per module and in total.

    python tools/loc.py

Prints two numbers per module: its physical lines, and its code lines, the
lines that hold any token other than a comment, less those of module, class
and function docstrings.  A token that spans lines (a multi-line string)
counts on each line it covers.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The 1-based lines of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of a Python source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(source))


def main() -> int:
    total = [0, 0]
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(ROOT / 'src')}")
    print(f"{total[0]:6d} {total[1]:6d}  total (physical lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
