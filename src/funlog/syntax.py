"""Expressions of the standardized language.

An expression is a tree whose head is an operation or a variable; each
argument slot carries the sequence of variables it binds.  Well-formedness
(the generation predicate) requires the head's ustype to match the argument
sorts and binder-list sorts, with the variables of one binder list pairwise
distinct.  Expression identity is literal, binder names included — there is
no built-in identification up to bound renaming.

A perspective is a variable sequence (repetitions allowed); ``F_gamma[u]`` is
the class of sort-gamma expressions whose free variables are covered by the
perspective u.
"""
from __future__ import annotations

import re
import weakref
from itertools import accumulate, repeat

from .signature import (
    PROP, WORD_TOKEN, Signature, Tokens, eq_op, forall_op, exists_op,
    is_variable, is_variable_name, variable_sort,
)


class ExprError(Exception):
    pass


class UnknownSymbol(ExprError):
    pass


class ForeignSignature(ExprError):
    pass


class SortMismatch(ExprError):
    pass


class ArityMismatch(ExprError):
    pass


class DuplicateBinder(ExprError):
    pass


class AliasAmbiguity(ExprError):
    pass


class ParseError(ExprError):
    pass


# Every live node, keyed on its fields; weak, so that a node nobody holds
# leaves it.  Unlocked: funlog builds expressions from one thread.
_TABLE = weakref.WeakValueDictionary()
_CLOSED = frozenset()  # the fv of every closed node


class Expr:
    """An expression node.  Expr(head, args, sort) returns the one live node
    with these fields, so equal expressions are one object and == and hash
    are identity.  A node is immutable; its free variables fv, node count
    size, nesting depth (1 at a leaf) and printed form text are computed
    once from its children's.  Only variables have names of the variable
    shape."""
    __slots__ = ("head", "args", "sort", "fv", "size", "depth", "text", "__weakref__")

    def __new__(cls, head: str, args: tuple[tuple[tuple[str, ...], Expr], ...], sort: str):
        e = _TABLE.get((head, args, sort))
        if e is not None:
            return e
        free = frozenset((head,)) if not args and is_variable_name(head) else _CLOSED
        for binders, body in args:
            f = body.fv.difference(binders) if binders and body.fv else body.fv
            if not f <= free:
                free = free | f if free else f
        text = head + "(" + ",".join(
            "(" + ",".join(binders) + "): " + body.text if binders else body.text
            for binders, body in args) + ")" if args else head
        size = 1 + sum(body.size for _, body in args)
        depth = 1 + max((body.depth for _, body in args), default=0)
        e = object.__new__(cls)
        for name, value in zip(cls.__slots__, (head, args, sort, free, size, depth, text)):
            object.__setattr__(e, name, value)
        # interned only once complete: the parser lets a RecursionError
        # unwind through here on input nested past the recursion limit
        _TABLE[head, args, sort] = e
        return e

    def __setattr__(self, name, *_):
        raise AttributeError(f"an Expr is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"Expr({self.text!r})"


def var(sig: Signature, name: str) -> Expr:
    sort = variable_sort(sig, name)
    if sort is None:
        raise UnknownSymbol(f"{name!r} is not a variable")
    return Expr(name, (), sort)


def mk(sig: Signature, head: str, args=()) -> Expr:
    """Build an expression node, enforcing the generation predicate locally."""
    args = tuple((tuple(binders), body) for binders, body in args) if args else ()
    spec = sig.ops.get(head)
    if spec is None:
        # no operation has the variable shape (validate_signature)
        vsort = variable_sort(sig, head)
        if vsort is None:
            raise UnknownSymbol(f"unknown symbol {head!r}")
        if args:
            raise ArityMismatch(f"variable {head!r} applied to arguments")
        return Expr(head, (), vsort)
    if len(args) != spec.arity:
        raise ArityMismatch(f"{head!r} expects {spec.arity} arguments, got {len(args)}")
    for (binders, body), (arg_sort, binder_sorts) in zip(args, spec.args):
        if body.sort != arg_sort:
            raise SortMismatch(
                f"argument of {head!r}: expected sort {arg_sort!r}, got {body.sort!r}")
        if len(binders) != len(binder_sorts):
            raise ArityMismatch(
                f"{head!r}: binder list {binders} does not match sorts {binder_sorts}")
        if len(set(binders)) != len(binders):
            raise DuplicateBinder(f"{head!r}: repeated variable in binder list {binders}")
        for v, bsort in zip(binders, binder_sorts):
            if variable_sort(sig, v) != bsort:
                raise SortMismatch(f"{head!r}: binder {v!r} is not a variable of sort {bsort!r}")
    return Expr(head, args, spec.result)


def check_expr(sig: Signature, e: Expr) -> None:
    """Revalidate every generation-predicate clause of e; raises on violation."""
    if e.head not in sig.ops and variable_sort(sig, e.head) is None:
        raise ForeignSignature(f"symbol {e.head!r} not in signature")
    rebuilt = mk(sig, e.head, e.args)
    if rebuilt.sort != e.sort:
        raise SortMismatch(f"cached sort {e.sort!r} disagrees with {rebuilt.sort!r}")
    for _, body in e.args:
        check_expr(sig, body)


def size(e: Expr) -> int:
    return e.size


def fv(e: Expr) -> frozenset[str]:
    return e.fv


# shorthand constructors for formulas

def top(sig):
    return mk(sig, "top")


def bot(sig):
    return mk(sig, "bot")


def neg(sig, a):
    return mk(sig, "not", (((), a),))


def imp(sig, a, b):
    return mk(sig, "imp", (((), a), ((), b)))


def conj(sig, a, b):
    return mk(sig, "and", (((), a), ((), b)))


def disj(sig, a, b):
    return mk(sig, "or", (((), a), ((), b)))


def iff(sig, a, b):
    return mk(sig, "iff", (((), a), ((), b)))


def forall(sig, x, body):
    return mk(sig, forall_op(variable_sort(sig, x)), (((x,), body),))


def exists(sig, x, body):
    return mk(sig, exists_op(variable_sort(sig, x)), (((x,), body),))


def mk_eq(sig, a: Expr, b: Expr) -> Expr:
    """Equality of two same-sorted expressions; at the formula sort equality
    is the biconditional."""
    if a.sort != b.sort:
        raise AliasAmbiguity(f"= between sorts {a.sort!r} and {b.sort!r}")
    if a.sort == PROP:
        return iff(sig, a, b)
    return mk(sig, eq_op(a.sort), (((), a), ((), b)))


def forall_chain(sig, xs, body: Expr) -> Expr:
    for x in reversed(list(xs)):
        body = forall(sig, x, body)
    return body


# ---------------------------------------------------------------------------
# concrete syntax

_PUNCT = "(),:.="
_TOKEN = re.compile(rf"\s*(?:({WORD_TOKEN}|[{re.escape(_PUNCT)}])|\S)")
_PAREN_STEP = {"(": 1, ")": -1}

# The deepest expression parse_expr accepts, in nodes from the root to the
# deepest leaf (Expr.depth).  ==, hash, fv, size, depth and printing do not
# recurse.  parse_expr is the tightest pass left: at three recursion levels
# a slot it fails near 330 levels under Python's default limit of 1000,
# which Tokens.parse reports as input nested too deep.  check_expr, gv,
# substitute, evaluate and is_tautology fail near 990.  At 100 every pass
# leaves two thirds of the limit to its callers.
MAX_NESTING = 100


def parse_expr(sig: Signature, text: str, memo: dict | None = None) -> Expr:
    """Parse the concrete syntax::

        slot := [ '(' var (',' var)* ')' ':' ]
                ( ('forall' | 'exists') var '.' slot | unit [ '=' unit ] )
        unit := '(' slot ')' | head [ '(' slot (',' slot)* ')' ]

    A binder group is allowed only in an operation's argument slot.  It is
    told from a parenthesized expression by the tokens up to its ':'.  An
    expression deeper than MAX_NESTING nodes is a parse error; parentheses
    build no node, and the sugar ``forall v. e`` and ``a = b`` builds one.

    memo maps the tokens of an operation application ``head(...)``, up to
    its matching ')', to the expression parsed from them, so that a caller
    passing one dict to several parses gets each distinct application
    parsed once.  One memo must serve one signature.  Only successful
    parses are stored."""
    if memo is None:
        memo = {}
    t = Tokens(_TOKEN, text, ParseError)
    toks = t.toks
    # level[i]: parentheses open after token i.  The ')' matching a '(' at
    # i is the first token after it that brings level back to level[i] - 1.
    level = list(accumulate(map(_PAREN_STEP.get, toks, repeat(0))))

    def word(k: int) -> bool:
        tok = t.peek(k)
        return tok is not None and tok not in _PUNCT

    def group_ahead() -> bool:
        k = 1
        while word(k) and t.peek(k + 1) == ",":
            k += 2
        return word(k) and t.peek(k + 1) == ")" and t.peek(k + 2) == ":"

    def binder() -> str:
        v = t.take()
        if not is_variable(sig, v):
            raise ParseError(f"binder {v!r} is not a variable")
        return v

    def bare(parsed: tuple) -> Expr:
        binders, e = parsed
        if binders:
            raise ParseError("a binder group outside an argument slot")
        return e

    def slot() -> tuple:
        binders = ()
        if t.peek() == "(" and group_ahead():
            t.take("(")
            binders = tuple(t.items(binder))
            t.take(")")
            t.take(":")
        if t.peek() in ("forall", "exists") and is_variable(sig, t.peek(1) or ""):
            quant = t.take()
            v = t.take()
            t.take(".")
            body = bare(slot())
            if body.sort != PROP:
                raise SortMismatch("quantified body must be a formula")
            e = (forall if quant == "forall" else exists)(sig, v, body)
        else:
            e = unit()
            if t.peek() == "=":
                t.take("=")
                e = mk_eq(sig, e, unit())
        return binders, e

    def unit() -> Expr:
        start = t.pos
        head = t.take()
        if head == "(":
            e = bare(slot())
            t.take(")")
            return e
        if head in _PUNCT:
            raise ParseError(f"unexpected {head!r}")
        if t.peek() != "(":
            return mk(sig, head)
        try:
            end = level.index(level[t.pos] - 1, t.pos)
        except ValueError:  # an unclosed '(': the parse below fails
            end = None
        key = tuple(toks[start:end + 1]) if end is not None else None
        e = memo.get(key)
        if e is not None:
            t.pos = end + 1
            return e
        t.take("(")
        args = t.items(slot)
        t.take(")")
        e = mk(sig, head, args)
        if t.pos - 1 == end:
            memo[key] = e
        return e

    try:
        e = bare(t.parse(slot))
    finally:
        # slot and unit refer to each other through their closures; break
        # the cycle so that it is freed now, not by the cyclic collector
        del slot, unit
    if e.depth > MAX_NESTING:
        raise ParseError("input nested too deep")
    return e


def print_expr(e: Expr) -> str:
    return e.text


# ---------------------------------------------------------------------------
# perspectives

def perspective_sorts(sig: Signature, p) -> tuple[str, ...]:
    out = []
    for v in p:
        s = variable_sort(sig, v)
        if s is None:
            raise UnknownSymbol(f"perspective component {v!r} is not a variable")
        out.append(s)
    return tuple(out)


def in_class(e: Expr, p) -> bool:
    """e ∈ F_gamma[p]: every free variable of e is a component of p."""
    return fv(e) <= set(p)
