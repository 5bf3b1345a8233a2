"""The size tool's counting rules and report, on a small package written
to a temporary directory."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def size(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))  # size imports pairs
    spec = importlib.util.spec_from_file_location("size", _TOOLS / "size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# module name -> (source, its `ast` count, its defs)
MODULES = {
    "funcs.py": ("""
        def plain(a, b):
            return a + b


        def positional(a, b=1, c=2, *args, d, e=3, f=None, **kwargs):
            inner = lambda x, y=0: x + y  # a lambda's default counts
            def nested(g=4, /, h=5):  # so do positional-only ones
                return g + h
            return inner, nested


        async def waits(a=0):
            async def inner():  # nested, and async
                return a
            return await inner()
        """, 2 + 2 + 1 + 2 + 1, 2 + 1 + 2),
    "classes.py": ("""
        import dataclasses
        from dataclasses import dataclass, field


        @dataclass
        class Plain:
            a: int
            b: float = 0.5  # a field with a default counts once
            c: list = field(default_factory=list)
            NOT_A_FIELD = 3

            def method(self, x=1):
                return x


        @dataclass(frozen=True, eq=False)
        class Called:
            a: int


        @dataclasses.dataclass
        class Qualified:
            a: int
            b: int


        class Undecorated:
            a: int
            b: int = 0

            class Nested:  # a class inside a class counts too
                pass
        """, 3 + 1 + 1 + 2, 4 + 1 + 1),
    "empty.py": ("", 0, 0),
}


# a module's lines, each with its kind: code, docstring, comment or blank,
# the first that fits
LINES = [
    ('"""A module docstring', "docstring"),
    ('over two lines."""', "docstring"),
    ("", "blank"),
    ("import os  # code with a trailing comment", "code"),
    ('"""A string after the first statement is no docstring."""', "code"),
    ("", "blank"),
    ("# a comment", "comment"),
    ("    # an indented one", "comment"),
    ("   ", "blank"),
    ("def f(x):", "code"),
    ('    """One line."""', "docstring"),
    ('    text = """a string, not a docstring', "code"),
    ("# not a comment", "code"),
    ("", "blank"),  # only whitespace, though inside a string
    ('"""', "code"),
    ("    return (x,  # code", "code"),
    ("            # a comment inside brackets", "comment"),
    ("            )", "code"),
    ("", "blank"),
    ("", "blank"),
    ("class C:", "code"),
    ("", "blank"),
    ('    """A class docstring after a blank line."""', "docstring"),
    ("", "blank"),
    ("    async def g(self):", "code"),
    ('        r"""A raw docstring', "docstring"),
    ("", "docstring"),
    ('        # over three lines."""  # and a comment after it', "docstring"),
    ("        pass", "code"),
]


def _package(root: Path) -> Path:
    package = root / "pkg"
    package.mkdir()
    for name, (source, *_) in MODULES.items():
        (package / name).write_text(textwrap.dedent(source).lstrip("\n"))
    (package / "notes.txt").write_text("def f(a=1): pass\n")  # not a module
    return package


def test_counts_defaults_and_dataclass_fields(size):
    for name, (source, want, _) in MODULES.items():
        assert size.defaults_and_fields(textwrap.dedent(source)) == want, name


def test_counts_class_function_and_method_defs_nested_ones_included(size):
    for name, (source, _, want) in MODULES.items():
        assert size.defs(textwrap.dedent(source)) == want, name
    assert size.defs("f = lambda x: x\n") == 0


def test_sorts_each_line_into_one_kind(size):
    source = "\n".join(line for line, _ in LINES) + "\n"
    assert size.line_kinds(source) == tuple(sum(kind == k for _, kind in LINES)
                                            for k in size.LINE_KINDS)
    assert size.line_kinds("") == (0, 0, 0, 0)
    assert size.line_kinds("x = 1") == (1, 0, 0, 0)  # no newline at the end


def test_sizes_count_each_module_s_lines(size, tmp_path):
    package = _package(tmp_path)
    got = size.sizes(package)
    assert list(got) == sorted(MODULES)
    for name, (lines, *kinds, fields, def_count) in got.items():
        text = (package / name).read_text()
        assert lines == len(text.splitlines()) == sum(kinds)
        assert tuple(kinds) == size.line_kinds(text)
        assert [fields, def_count] == list(MODULES[name][1:])
    assert got["funcs.py"][1:5] == (11, 0, 0, 4)  # its comments trail code
    assert got["empty.py"] == (0,) * len(size.COLUMNS)


def test_report_totals_and_marks_a_module_one_side_lacks(size, tmp_path):
    change = size.sizes(_package(tmp_path))
    parent = {"funcs.py": (30, 20, 4, 2, 4, 1, 4), "gone.py": (10, 6, 2, 1, 1, 2, 5)}
    lines = size.report(change, parent)
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert lines[0].split() == ["module"] + [h for column in size.COLUMNS
                                             for h in (column, "+/-")]
    assert lines[0].split()[1:] == ["lines", "+/-", "code", "+/-", "docstring", "+/-",
                                    "comment", "+/-", "blank", "+/-", "ast", "+/-", "defs", "+/-"]
    assert list(rows) == ["classes.py", "empty.py", "funcs.py", "gone.py", "total"]
    assert rows["gone.py"] == ["-", "-10", "-", "-6", "-", "-2", "-", "-1", "-", "-1",
                               "-", "-2", "-", "-5"]
    assert rows["empty.py"] == ["0", "+0"] * len(size.COLUMNS)
    funcs = change["funcs.py"]
    assert rows["funcs.py"][::2] == [str(n) for n in funcs]
    assert rows["funcs.py"][1::2] == [f"{a - b:+d}" for a, b in zip(funcs, parent["funcs.py"])]
    totals = [sum(column) for column in zip(*change.values())]
    assert totals[-2:] == [15, 11]
    assert rows["total"][::2] == [str(n) for n in totals]
    assert rows["total"][1::2] == [f"{a - b - c:+d}" for a, b, c in
                                   zip(totals, parent["funcs.py"], parent["gone.py"])]
    alone = size.report(change, None)
    assert alone[0].split() == ["module", *size.COLUMNS]
    assert alone[-1].split() == ["total", *map(str, totals)]
    assert size.report({}, None)[-1].split() == ["total", *["0"] * len(size.COLUMNS)]
