#!/usr/bin/env python3
"""Count the code lines of each ``src/anarx`` module and their total.

Blank lines, comment-only lines and docstrings are left out. With
``--against REF`` the same modules are read at git revision REF and the
per-module and total change is printed beside the counts:
    python3 scripts/src_lines.py [--against REF]
"""

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = "src/anarx"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code outside a docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def table(counts: dict, base: dict | None = None) -> str:
    """One line per module and a total; with ``base``, the change from it.

    A module missing on one side counts 0 lines there.
    """
    names = sorted(set(counts) | set(base or {}))
    rows = [(name, counts.get(name, 0), (base or {}).get(name, 0)) for name in names]
    rows.append(("total", sum(counts.values()), sum((base or {}).values())))
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, now, before in rows:
        line = f"{name:<{width}}  {now:>5}"
        if base is not None:
            line += f"  {now - before:>+5}"
        lines.append(line)
    return "\n".join(lines)


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True)
    return done.stdout


def _counts_now() -> dict:
    pkg = os.path.join(ROOT, PACKAGE)
    counts = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                counts[name] = code_lines(fh.read())
    return counts


def _counts_at(ref: str) -> dict:
    names = _git("ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {
        name: code_lines(_git("show", f"{ref}:{PACKAGE}/{name}"))
        for name in names if name.endswith(".py")
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--against", metavar="REF", help="git revision to compare with")
    args = parser.parse_args()
    base = _counts_at(args.against) if args.against else None
    print(table(_counts_now(), base))
    return 0


if __name__ == "__main__":
    sys.exit(main())
