"""Count the lines of code of each revrank module in two checkouts.

    python3 tools/code_lines.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  For every module under
``src/revrank`` in either one, a line of code is a line that holds part of
a Python token other than a comment: blank lines and comment-only lines
(found with ``tokenize``) are not counted, and neither are the lines of a
module, class or function docstring (found with ``ast``).  One row is
printed per module with both counts and the change, then the totals.  A
module that exists on one side only counts 0 on the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of ``source`` holding code, docstrings left out."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def module_lines(root: Path) -> dict[str, int]:
    package = root / "src" / "revrank"
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the reference checkout")
    parser.add_argument("change", type=Path, help="root of the checkout under test")
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not (root / "src" / "revrank").is_dir():
            print(f"error: {root} is not a revrank checkout", file=sys.stderr)
            return 1
    parent, change = module_lines(args.parent), module_lines(args.change)
    print(f"{'module':<16}{'parent':>8}{'change':>8}{'net':>6}")
    for name in sorted(set(parent) | set(change)):
        before, after = parent.get(name, 0), change.get(name, 0)
        print(f"{name:<16}{before:>8}{after:>8}{after - before:>+6}")
    before, after = sum(parent.values()), sum(change.values())
    print(f"{'total':<16}{before:>8}{after:>8}{after - before:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
