"""The size of the `oodtune` package, module by module: its lines, split
into code, docstring, comment and blank lines, its count of defaults and
dataclass fields, and its count of defs.

    python3 tools/size.py [--parent REV]

For each `src/oodtune/*.py` module the script prints its lines (as
`wc -l` counts them) and sorts each line into one kind, the first that
fits:
- docstring: a line that a module, class or function docstring spans;
- comment: a line whose only token is a comment;
- blank: a line that holds only whitespace;
- code: every other line, code with a trailing comment included.
It also prints the module's `ast` count: the defaults of positional and
keyword-only parameters (of functions, methods and lambdas), plus the
annotated fields of classes decorated `@dataclass` or `@dataclass(...)`.
The count tracks how many knobs and fields the package carries, which a
simplification should not raise. Its defs are its class, function and
method definitions (`ClassDef`, `FunctionDef` and `AsyncFunctionDef`
nodes), nested ones included; lambdas are not counted. A last line gives
the totals. With `--parent REV` the package of REV, written by
`pairs.checkout` into a temporary directory, is counted too, and each
count is followed by its change from REV's (a module one side lacks
counts 0 there, and its own counts print as "-").
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tempfile
import tokenize
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


LINE_KINDS = ("code", "docstring", "comment", "blank")
COLUMNS = ("lines", *LINE_KINDS, "ast", "defs")


def line_kinds(source: str) -> tuple[int, int, int, int]:
    """Lines of each of `LINE_KINDS` in `source`, each line counted once,
    as the module docstring says."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    comments = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip()}
    counts = dict.fromkeys(LINE_KINDS, 0)
    for number, line in enumerate(io.StringIO(source), start=1):
        counts["docstring" if number in docstrings else "comment" if number in comments
               else "code" if line.strip() else "blank"] += 1
    return tuple(counts.values())


def sizes(package: Path) -> dict[str, tuple[int, ...]]:
    """Module file name -> its counts in `COLUMNS` order, by name."""
    out = {}
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        out[path.name] = (text.count("\n"), *line_kinds(text), defaults_and_fields(text),
                          defs(text))
    return out


def report(change: dict[str, tuple[int, ...]],
           parent: dict[str, tuple[int, ...]] | None) -> list[str]:
    """A header, a line per module and a line of totals, in `COLUMNS`;
    with `parent`, each count is followed by its change from the
    parent's ("-" for a module the working tree lacks, which counts 0)."""
    names = sorted({*change, *(parent or {})})
    zero = (0,) * len(COLUMNS)
    rows = {name: change.get(name) for name in names}
    rows["total"] = tuple(map(sum, zip(zero, *change.values())))
    before = None
    if parent is not None:
        before = {name: parent.get(name, zero) for name in names}
        before["total"] = tuple(map(sum, zip(zero, *parent.values())))
    table = [["module"] + [h for column in COLUMNS
                           for h in ([column] if parent is None else [column, "+/-"])]]
    for name, counts in rows.items():
        table.append([name])
        for i in range(len(COLUMNS)):
            table[-1].append("-" if counts is None else str(counts[i]))
            if before is not None:
                table[-1].append(f"{(counts or zero)[i] - before[name][i]:+d}")
    widths = [max(map(len, column)) for column in zip(*table)]
    return [f"{row[0]:<{widths[0]}}" + "".join(f"{cell:>{w + 2}}" for cell, w in
                                                zip(row[1:], widths[1:])) for row in table]


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
