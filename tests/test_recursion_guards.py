"""No funlog reader relies on catching RecursionError, and every function
that still recurses is listed with why its depth is bounded.

Every grammar funlog reads bounds its own nesting: the expression parser
reads its tokens in one loop and bounds the parentheses open and the depth
built, and the ustype and .fls value grammars have fixed depth.  A reader
that recursed without a bound and turned the RecursionError into a parse
error would bring back what those bounds replaced.  So every ``except``
clause in src/funlog that can catch a RecursionError (one naming it, or
RuntimeError, Exception or BaseException, or a bare ``except:``) is listed
in ALLOWED, by module and innermost enclosing function, with the reason it
stays.

The walks over an expression go through syntax.nodes or read the fields
Expr caches.  A function that calls itself by name (in its body, a lambda
or a nested function) is listed in RECURSIVE with why its depth is
bounded, so that a new one is a decision, and syntax.MAX_NESTING's
comment, which points here, stays true.
"""
from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "funlog"

# RecursionError and the classes it derives from
CATCHING = frozenset({"RecursionError", "RuntimeError", "Exception", "BaseException"})

# module:function -> why a clause there may catch a RecursionError
ALLOWED = {
    "fileio.py:just_from_text": "json.loads, whose C decoder recurses once per level, "
                                "reads a proof step's JSON arguments; it names RecursionError "
                                "alone and reports it as input nested too deep",
    "gen.py:suite_eval_invariance": "a fuzz suite counts any error evaluate raises as a "
                                    "failure and reports it; it reads no input",
}


# module:function -> why its depth of self-calls is bounded
RECURSIVE = {
    "subst.py:_substituted": "one call per level of the expression substituted into: "
                             "parsed input is at most MAX_NESTING deep, and the kernel's "
                             "own expressions are enumerated within a size bound",
    "semantics.py:_value": "one call per level of the expression evaluated, as for "
                           "_substituted; each node's value is memoized per assignment",
    "calculus.py:_eq_step": "one call per level of the context expression e of "
                            "derive_equality_theorem or _rule, which no command calls; "
                            "their callers build e",
    "henkin.py:_exact": "each call asks for fewer nodes than its caller, and the first "
                        "asks for at most the size bound",
    "gen.py:rand_expr": "each call passes depth - 1; gen's suites start at depth 6 at "
                        "most",
}


def self_calls(path: pathlib.Path):
    """module:function for each function of path that calls itself by name."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == node.name for n in ast.walk(node)):
            yield f"{path.name}:{node.name}"


def test_only_listed_functions_recurse():
    found = sorted({f for path in sorted(PACKAGE.glob("*.py")) for f in self_calls(path)})
    assert found == sorted(RECURSIVE), "functions that call themselves: " + ", ".join(found)


def catches_recursion(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    return any(isinstance(n, ast.Name) and n.id in CATCHING
               or isinstance(n, ast.Attribute) and n.attr in CATCHING
               for n in ast.walk(handler.type))


def handlers(path: pathlib.Path):
    """module:function for each clause of path that can catch a
    RecursionError, the function being the innermost one around it."""
    stack = [(ast.parse(path.read_text(), str(path)), "<module>")]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ExceptHandler) and catches_recursion(node):
            yield f"{path.name}:{where}"
        stack.extend((child, where) for child in ast.iter_child_nodes(node))


def test_only_listed_clauses_catch_recursion_errors():
    found = sorted({h for path in sorted(PACKAGE.glob("*.py")) for h in handlers(path)})
    assert found == sorted(ALLOWED), (
        "clauses that can catch RecursionError: " + ", ".join(found))


def test_the_json_reader_names_recursion_error_alone():
    """just_from_text catches RecursionError by name, once, and gives the
    reason on the clause's line."""
    lines = (PACKAGE / "fileio.py").read_text().splitlines()
    reader = next(n for n in ast.walk(ast.parse("\n".join(lines)))
                  if isinstance(n, ast.FunctionDef) and n.name == "just_from_text")
    clauses = [h for h in ast.walk(reader)
               if isinstance(h, ast.ExceptHandler) and catches_recursion(h)]
    assert [ast.unparse(h.type) for h in clauses] == ["RecursionError"]
    assert "# json's C decoder recurses" in lines[clauses[0].lineno - 1]
