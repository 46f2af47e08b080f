"""No funlog reader relies on catching RecursionError.

Every grammar funlog reads bounds its own nesting: the expression parser
reads its tokens in one loop and bounds the parentheses open and the depth
built, and the ustype and .fls value grammars have fixed depth.  A reader
that recursed without a bound and turned the RecursionError into a parse
error would bring back what those bounds replaced.  So every ``except``
clause in src/funlog that can catch a RecursionError (one naming it, or
RuntimeError, Exception or BaseException, or a bare ``except:``) is listed
in ALLOWED, by module and innermost enclosing function, with the reason it
stays.
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
