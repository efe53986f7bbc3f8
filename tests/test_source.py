"""Checks on the engine's source text itself."""

import ast
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "floordiag").glob("*.py"))
# every file that may name a definition of the engine
READERS = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def unused_imports(source: str):
    """Names a module imports but never reads and does not list in __all__;
    imports from __future__ are skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom math import comb, factorial\n"
              "from .laurent import LaurentPoly\n__all__ = ['LaurentPoly']\n"
              "def f(n):\n    return comb(n, 2)\n")
    assert unused_imports(source) == [(2, "os"), (3, "factorial")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def named(node: ast.AST):
    """The names read within node: each ast.Name, each ast.Attribute and
    the last part of each dotted string such as "floordiag.diagram._splits".
    An import names nothing."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                and DOTTED.fullmatch(sub.value)):
            yield sub.value.rpartition(".")[2]


@lru_cache(maxsize=None)
def names_in(source: str):
    return frozenset(named(ast.parse(source)))


def dead_definitions(module: str, others):
    """(line, name) of each top-level function or class of the source
    `module` that neither another top-level statement of it nor any of the
    sources `others` names."""
    body = ast.parse(module).body
    names = [set(named(node)) for node in body]
    elsewhere = set().union(*map(names_in, others))
    return [(node.lineno, node.name) for k, node in enumerate(body)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in elsewhere
            and not any(node.name in other for m, other in enumerate(names) if m != k)]


def test_dead_definitions_are_found():
    module = ("import itertools\n"
              "def used():\n    return itertools.count()\n"
              "def recursive(n):\n    return recursive(n - 1) if n else used()\n"
              "def imported_only():\n    pass\n"
              "class Patched:\n    pass\n"
              "def read_by_attribute():\n    pass\n")
    others = ["from pkg.mod import imported_only, Patched\n",
              "import pkg.mod\nfrom x import monkeypatch\n"
              "monkeypatch.setattr('pkg.mod.Patched', None)\n"
              "pkg.mod.read_by_attribute()\n"
              "print('a sentence. recursive')\n"]
    assert dead_definitions(module, others) == [(4, "recursive"), (6, "imported_only")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_definition(path):
    others = [reader.read_text() for reader in READERS if reader != path]
    assert dead_definitions(path.read_text(), others) == []


def unread_parameters(source: str):
    """(line, function, parameter) of each parameter that its function's
    body never reads, for every function and lambda, nested ones
    included; self, cls and names starting with _ are exempt.  A read in a
    nested function counts for the enclosing one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [p for p in (args.vararg, args.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg) for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")
                  and not p.arg.startswith("_")]
    return sorted(found)


def test_unread_parameters_are_found():
    source = ("class C:\n"
              "    def method(self, x, _unused):\n        return x\n"
              "    @classmethod\n    def make(cls, *args, **kwargs):\n        return kwargs\n"
              "def outer(a, b, *, c=None):\n"
              "    def inner(d=b):\n        return a\n"
              "    return inner\n"
              "key = lambda row, other: row[0]\n")
    # b is read by inner's default, which outer's body evaluates
    assert unread_parameters(source) == [
        (5, "make", "args"), (7, "outer", "c"), (8, "inner", "d"), (11, "<lambda>", "other")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []
