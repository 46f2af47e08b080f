"""Every top-level function, class and method of funlog is used somewhere.

A definition counts as used when its name occurs outside its own body in
src/, tests/, scripts/ or perfbench/: as a name, an attribute, an imported
name, or a dotted part of a string (perfbench names its tracing targets as
"module.function").  Dunder methods are called by Python itself and are
skipped.  The check goes by name only, so a dead definition that shares its
name with a live one elsewhere goes unnoticed.
"""
from __future__ import annotations

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "funlog"
SEARCHED = ("src", "tests", "scripts", "perfbench")


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
