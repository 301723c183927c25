"""Count the lines, code lines and docstring lines of each Python module.

Usage: python tools/count_lines.py [PATH ...]

Each PATH is a module or a directory of modules (default: src/probmink).
A docstring line is any line of a module, class or function docstring,
its blank lines included, as `ast` places it. A code line is any other
line that is neither blank nor a comment alone. Prints one row per module
and a total row.
"""

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> tuple:
    """(lines, code lines, docstring lines) of the module at path."""
    text = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    lines = text.splitlines()
    code = sum(1 for i, line in enumerate(lines, start=1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code, len(docs)


def main(argv: list) -> int:
    paths = [Path(arg) for arg in argv] or [Path(__file__).resolve().parent.parent / "src" / "probmink"]
    files = [f for p in paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    totals = [0, 0, 0]
    print(f"{'module':<28}{'lines':>8}{'code':>8}{'doc':>8}")
    for f in files:
        row = count(f)
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{f.name:<28}" + "".join(f"{v:>8}" for v in row))
    print(f"{'total':<28}" + "".join(f"{v:>8}" for v in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
