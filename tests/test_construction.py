"""Every Structure is finished by its own constructor.

Structure's constructor (src/funlog/semantics.py) completes the carriers,
checks that every given interpretation is of a user operation and lies in
them and that every table it takes is total over them, and gives the
logical symbols their fixed meanings, which no caller gives it.  Structure
is frozen, and the constructor hands out ``carriers``, ``interp`` and
``selected`` read-only, so no later write can undo what it established.
Outside semantics.py, funlog code therefore neither assigns into nor
deletes from one of these fields, nor calls one of their mutating methods;
a structure that differs is built by the constructor.  No module but
semantics.py names the helpers the constructor uses, and each helper listed
in PRIVATE is defined there, so that a rename cannot switch that check off.

Every function table is built by FnTable.from_map, and every total one is
tabulated over its carriers' shared sorted product: each from_map call
passes ``keys=``.  The one exception is fileio._coerce, whose parsed tables
list their rows in any order and may lack some; a structure admits such a
table only if its sorted rows cover the whole carrier product.

The checks read the source, so they go by the attribute names in FIELDS
and ``from_map``.
"""
from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "funlog"
HOME = "semantics.py"

# module:top-level definition -> why it may write a structure's field
WRITERS: dict[str, str] = {}
FIELDS = frozenset({"carriers", "interp", "selected"})  # a structure's mappings
PRIVATE = ("_carriers_for", "_check_in_carriers", "_check_selected", "_logical_meanings",
           "_Quantifier")
# module:top-level definition -> why it may build a table from a mapping
FROM_MAPPING = {
    "fileio.py:_coerce": "a parsed table lists its rows in any order, and the "
                         "Structure constructor, not the parser, rejects a partial one",
}
MUTATORS = frozenset({"update", "setdefault", "pop", "popitem", "clear"})


def written(node: ast.AST) -> list[ast.AST]:
    """The objects node writes into: the target of an assignment or deletion
    (for a subscripted target, the object subscripted), or the object whose
    mutating method node calls."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
        stack = [node.target]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in MUTATORS):
        return [node.func.value]
    else:
        return []
    out = []
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            out.append(target.value if isinstance(target, ast.Subscript) else target)
    return out


def structure_writers(tree: ast.Module) -> set[str]:
    """The top-level definitions (or "<module>") that write into an
    attribute named in FIELDS."""
    found = set()
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if any(isinstance(w, ast.Attribute) and w.attr in FIELDS
                   for w in written(node)):
                found.add(name)
    return found


def mapping_builders(tree: ast.Module) -> set[str]:
    """The top-level definitions (or "<module>") that build a table other
    than from aligned values and keys: a from_map call without ``keys=``, or
    a direct FnTable call."""
    found = set()
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "from_map"
                    and not any(kw.arg == "keys" for kw in node.keywords)
                    or isinstance(func, ast.Name) and func.id == "FnTable"):
                found.add(name)
    return found


def modules(home: bool = False):
    for path in sorted(PACKAGE.glob("*.py")):
        if home or path.name != HOME:
            yield path.name, ast.parse(path.read_text(), str(path))


def test_no_module_writes_a_structure():
    found = {f"{name}:{writer}" for name, tree in modules()
             for writer in structure_writers(tree)}
    assert found == set(WRITERS), found


def test_the_constructors_helpers_stay_in_semantics():
    home = ast.parse((PACKAGE / HOME).read_text())
    defined = {getattr(top, "name", None) for top in home.body}
    assert defined.issuperset(PRIVATE), set(PRIVATE) - defined
    named = []
    for name, tree in modules():
        for node in ast.walk(tree):
            word = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if word in PRIVATE:
                named.append(f"{name}:{getattr(node, 'lineno', '?')} {word}")
    assert not named, named


def test_the_check_sees_each_kind_of_write():
    source = (
        "def a(s):\n    s.interp['c'] = '0'\n"
        "def b(s):\n    s.interp.update({})\n"
        "def c(s):\n    s.interp.setdefault('c', '0')\n"
        "def d(s):\n    s.interp = {}\n"
        "def e(s):\n    del s.interp['c']\n"
        "def f(s):\n    x, s.interp['c'] = 1, '0'\n"
        "def g(s):\n    return s.interp['c'], dict(s.interp).update({})\n"
        "def h(s):\n    s.carriers['a'] = ('0',)\n"
        "def i(s):\n    s.selected.pop(('a', ('a',)))\n"
        "def j(s):\n    return s.selected.get(('a', ('a',))), s.carriers['a']\n")
    assert structure_writers(ast.parse(source)) == set("abcdefhi")


def test_every_kernel_table_is_tabulated_over_its_keys():
    found = {f"{name}:{builder}" for name, tree in modules(home=True)
             for builder in mapping_builders(tree)}
    assert found == set(FROM_MAPPING), found


def test_the_check_sees_each_kind_of_table_build():
    source = (
        "def a(d):\n    return FnTable.from_map(('a',), 'a', d)\n"
        "def b(v, k):\n    return FnTable.from_map(('a',), 'a', v, keys=k)\n"
        "class C:\n    def c(self, d):\n        return semantics.FnTable.from_map((), 'a', d)\n"
        "def d(k, v):\n    return FnTable(('a',), 'a', k, v)\n"
        "def e(k, v):\n    return cls(('a',), 'a', k, v), FnTable.fix(v, ())\n")
    assert mapping_builders(ast.parse(source)) == {"a", "C", "d"}
