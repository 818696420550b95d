"""Count the lines of each module of flipbraid in two checkouts.

    python3 tools/loc.py OLD_TREE NEW_TREE

For each module of ``src/flipbraid`` in either tree it prints two
measures, old and new, and their change:

- ``wc -l``: every line of the file;
- code lines: lines that hold a token of code, so not blank, not a
  comment alone, and not inside a docstring (the string that opens a
  module, class or function body).

A module missing from one tree counts 0 lines there.  Stdlib only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "flipbraid"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers that the docstrings of ``tree`` span."""
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


def counts(path: Path) -> tuple:
    """(wc -l, code lines) of the file at ``path``, or (0, 0) if there is
    none."""
    if not path.is_file():
        return 0, 0
    source = path.read_text()
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return source.count("\n"), len(code)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (Path(tree) / PACKAGE for tree in argv)
    names = sorted({p.name for tree in (old, new) for p in tree.glob("*.py")})
    header = ("module", "wc-l old", "new", "change", "code old", "new",
              "change")
    rows = []
    for name in names:
        (wc_old, code_old), (wc_new, code_new) = (counts(old / name),
                                                  counts(new / name))
        rows.append((name, wc_old, wc_new, code_old, code_new))
    total = ("total", *(sum(column) for column in list(zip(*rows))[1:]))
    print("%-14s %9s %6s %7s %9s %6s %7s" % header)
    for name, wc_old, wc_new, code_old, code_new in rows + [total]:
        print("%-14s %9d %6d %+7d %9d %6d %+7d" % (
            name, wc_old, wc_new, wc_new - wc_old, code_old, code_new,
            code_new - code_old))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
