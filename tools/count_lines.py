"""Count the lines, code lines and docstring lines of each Python module.

Usage: python tools/count_lines.py [--rev REV] [PATH ...]

Each PATH is a module or a directory of modules (default: src/probmink).
A docstring line is any line of a module, class or function docstring,
its blank lines included, as `ast` places it. A code line is any other
line that is neither blank nor a comment alone. Prints one row per module
and a total row. With --rev, each module is also read at the git
revision REV (through `git show`), and each row gives REV's counts, the
working tree's and the difference; a module missing on one side counts
as zero there.
"""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> tuple:
    """(lines, code lines, docstring lines) of the module source `text`."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    lines = text.splitlines()
    code = sum(1 for i, line in enumerate(lines, start=1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code, len(docs)


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def _modules(paths: list, rev) -> list:
    """The modules under `paths`, in the working tree or at `rev`, relative to the repo root."""
    names = set()
    for path in paths:
        path = path.resolve()
        if path.is_dir():
            names.update(f.relative_to(ROOT).as_posix() for f in path.glob("*.py"))
        elif path.exists():
            names.add(path.relative_to(ROOT).as_posix())
        if rev is not None:
            rel = path.relative_to(ROOT).as_posix()
            listed = _git("ls-tree", "--name-only", rev, "--", rel, rel + "/").split()
            names.update(name for name in listed if name.endswith(".py")
                         and (name == rel or name.rpartition("/")[0] == rel))
    return sorted(names)


def _row(values, sign: str = "") -> str:
    return "".join(f"{v:>{sign}8}" for v in values)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="also count each module at this git revision")
    parser.add_argument("paths", nargs="*", type=Path)
    args = parser.parse_args(argv)
    names = _modules(args.paths or [ROOT / "src" / "probmink"], args.rev)
    header = f"{'module':<28}" + _row(("lines", "code", "doc"))
    if args.rev is None:
        print(header)
    else:
        print(f"{'':<28}{'at ' + args.rev:>24}{'working tree':>24}{'difference':>24}")
        print(header + _row(("lines", "code", "doc")) * 2)
    totals = [0] * (3 if args.rev is None else 9)
    for name in names:
        tree = ROOT / name
        now = count(tree.read_text()) if tree.exists() else (0, 0, 0)
        if args.rev is None:
            row = now
        else:
            try:
                then = count(_git("show", f"{args.rev}:{name}"))
            except subprocess.CalledProcessError:
                then = (0, 0, 0)
            row = then + now + tuple(b - a for a, b in zip(then, now))
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{Path(name).name:<28}" + _row(row[:6]) + _row(row[6:], "+"))
    print(f"{'total':<28}" + _row(totals[:6]) + _row(totals[6:], "+"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
