"""Every top-level function, class and method of funlog is used somewhere,
and so is every name a funlog module or a test module imports.

A definition counts as used when its name occurs outside its own body in
src/, tests/, scripts/ or perfbench/: as a name, an attribute, an imported
name, or a dotted part of a string (perfbench names its tracing targets as
"module.function").  Dunder methods are called by Python itself and are
skipped.  The check goes by name only, so a dead definition that shares its
name with a live one elsewhere goes unnoticed.

A module-level import counts as used when the module names it, or when
another file takes the name through the module (``from funlog.m import x``,
``from .m import x``, ``from conftest import x`` or ``m.x``).

A definition must also be named outside tests/ and outside its own body,
unless TEST_ONLY lists it with the reason it stays: funlog keeps no helper
that only its own tests call.

Every ``module.name`` or ``module.Class.method`` that perfbench's tracer
wraps resolves in funlog, so that removing a traced name fails a test here
(perfbench's own tests are outside the tier-1 suite).
"""
from __future__ import annotations

import ast
import importlib
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "funlog"
SEARCHED = ("src", "tests", "scripts", "perfbench")

# Definitions only tests call, and why each stays in funlog.
TEST_ONLY = {
    "check_expr": "the forged-node guard: test_syntax's forged-sort test keeps it "
                  "for hash-consed expressions",
    "conj": "one constructor per connective",
    "derive_symmetry": "acceptance criterion 2, derived symmetry proofs",
    "derive_transitivity": "acceptance criterion 2, derived transitivity proofs",
    "derive_equality_theorem": "acceptance criterion 2, the equality theorem",
    "reindex_axioms": "acceptance criterion 7, re-checking over the used axioms",
}


def names_used(tree: ast.AST) -> Counter:
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))
    return used


def definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def test_no_unreferenced_definitions():
    trees = {path: ast.parse(path.read_text(), str(path))
             for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))}
    used = Counter()
    for tree in trees.values():
        used += names_used(tree)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in definitions(trees[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] - names_used(node)[name] <= 0:
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, "defined but never referenced: " + ", ".join(dead)


def imported_names(tree: ast.Module):
    """(name, line) for each name bound by a module-level import."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def annotation_exprs(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def names_loaded(tree: ast.AST) -> set:
    """Names a module refers to: its names, and the names inside its string
    annotations.  Any other string is no use of a name."""
    strings = [n.value for a in annotation_exprs(tree) if a is not None for n in ast.walk(a)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return {n.id for t in [tree, *(ast.parse(s, mode="eval") for s in strings)]
            for n in ast.walk(t) if isinstance(n, ast.Name)}


def taken_through(module: str, trees) -> set:
    """Names other files take from funlog's module through it."""
    taken = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    f"funlog.{module}", module) and node.level in (0, 1):
                taken.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == module):
                taken.add(node.attr)
    return taken


def unused_imports(tree: ast.Module, taken=frozenset()) -> list:
    """(name, line) for each module-level import the module never uses."""
    used = names_loaded(tree) | taken
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("source, unused", [
    ("import x\nassert y == 'x'\n", [("x", 1)]),
    ("import x\nassert x\n", []),
    ("import x\ndef f(a: 'x.T') -> 'list[x.T]':\n    pass\n", []),
    ("import x\ny: list['x'] = []\n", []),
], ids=["string", "name", "string-annotation", "nested-string-annotation"])
def test_the_unused_import_check(source, unused):
    """A string is a use of a name only inside an annotation."""
    assert unused_imports(ast.parse(source)) == unused


def test_no_unused_imports():
    trees = {path: ast.parse(path.read_text(), str(path))
             for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        others = [t for p, t in trees.items() if p != path]
        unused += [f"{path.relative_to(ROOT)}:{line} {name}" for name, line
                   in unused_imports(trees[path], taken_through(path.stem, others))]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_no_test_only_definitions():
    used = Counter()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            used += names_used(ast.parse(path.read_text(), str(path)))
    test_only = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in definitions(ast.parse(path.read_text(), str(path))):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] - names_used(node)[name] <= 0:
                test_only.append(name)
    unlisted = sorted(set(test_only) - set(TEST_ONLY))
    assert not unlisted, "referenced only from tests/: " + ", ".join(unlisted)
    stale = sorted(set(TEST_ONLY) - set(test_only))
    assert not stale, "TEST_ONLY lists names used outside tests/ or gone: " + ", ".join(stale)


def traced_names():
    """TARGETS of perfbench/tracer.py, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_traced_names_resolve():
    missing = []
    for target in traced_names():
        module, *path = target.split(".")
        obj = importlib.import_module(f"funlog.{module}")
        for part in path:
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(target)
    assert not missing, "perfbench traces names funlog lacks: " + ", ".join(missing)
