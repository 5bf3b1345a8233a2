"""The size of the `oodtune` package, module by module: its line count, its
count of defaults and dataclass fields, and its count of defs.

    python3 tools/size.py [--parent REV]

For each `src/oodtune/*.py` module the script prints its lines (as
`wc -l` counts them) and its `ast` count: the defaults of positional and
keyword-only parameters (of functions, methods and lambdas), plus the
annotated fields of classes decorated `@dataclass` or `@dataclass(...)`.
The count tracks how many knobs and fields the package carries, which a
simplification should not raise. Its defs are its class, function and
method definitions (`ClassDef`, `FunctionDef` and `AsyncFunctionDef`
nodes), nested ones included; lambdas are not counted. A last line gives
the totals. With
`--parent REV` the package of REV, written by `pairs.checkout` into a
temporary directory, is counted too, and each line also gives REV's counts.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
from pathlib import Path

from pairs import ROOT, checkout

PACKAGE = Path("src") / "oodtune"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", help="git revision to compare the working tree with")
    return p.parse_args(argv)


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name == "dataclass"


def defaults_and_fields(source: str) -> int:
    """Parameters with defaults plus annotated dataclass fields in `source`."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.arguments):
            count += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def defs(source: str) -> int:
    """Class, function and method definitions in `source`, nested ones too."""
    kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return sum(isinstance(node, kinds) for node in ast.walk(ast.parse(source)))


COLUMNS = ("lines", "ast", "defs")


def sizes(package: Path) -> dict[str, tuple[int, int, int]]:
    """Module file name -> (lines, defaults and fields, defs), by name."""
    out = {}
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        out[path.name] = (text.count("\n"), defaults_and_fields(text), defs(text))
    return out


def report(change: dict[str, tuple[int, int, int]],
           parent: dict[str, tuple[int, int, int]] | None) -> list[str]:
    """A header, a line per module and a line of totals: lines, `ast` count
    and defs, then the parent's when given ("-" for a module one side
    lacks)."""
    sides = [change] if parent is None else [change, parent]
    missing, zero = ("-",) * len(COLUMNS), (0,) * len(COLUMNS)
    rows = {name: [side.get(name, missing) for side in sides]
            for name in sorted({*change, *(parent or {})})}
    rows["total"] = [tuple(map(sum, zip(*side.values()))) or zero for side in sides]
    header = [*COLUMNS] + ([f"parent {c}" for c in COLUMNS] if parent is not None else [])
    width = max(map(len, ["module", *rows]))
    lines = [f"{'module':<{width}}" + "".join(f"{h:>13}" for h in header)]
    for name, counts in rows.items():
        lines.append(f"{name:<{width}}" + "".join(f"{v:>13}" for pair in counts for v in pair))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    change = sizes(ROOT / PACKAGE)
    parent = None
    if args.parent is not None:
        with tempfile.TemporaryDirectory() as tmp:
            checkout(args.parent, Path(tmp))
            parent = sizes(Path(tmp) / PACKAGE)
    print("\n".join(report(change, parent)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
