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

from dataclasses import dataclass

from .signature import (
    PROP, Signature, eq_op, forall_op, exists_op,
    is_variable, variable_sort,
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


class NotInClass(ExprError):
    pass


@dataclass(frozen=True)
class Expr:
    head: str
    args: tuple[tuple[tuple[str, ...], "Expr"], ...]
    sort: str

    def __repr__(self):
        return f"Expr({print_expr(self)!r})"


def var(sig: Signature, name: str) -> Expr:
    sort = variable_sort(sig, name)
    if sort is None:
        raise UnknownSymbol(f"{name!r} is not a variable")
    return Expr(name, (), sort)


def mk(sig: Signature, head: str, args=()) -> Expr:
    """Build an expression node, enforcing the generation predicate locally."""
    args = tuple((tuple(binders), body) for binders, body in args)
    vsort = variable_sort(sig, head)
    if vsort is not None:
        if args:
            raise ArityMismatch(f"variable {head!r} applied to arguments")
        return Expr(head, (), vsort)
    spec = sig.opsig(head)
    if spec is None:
        raise UnknownSymbol(f"unknown symbol {head!r}")
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


def sort_of(sig: Signature, e: Expr) -> str:
    """Recompute the sort bottom-up (validating against the signature)."""
    check_expr(sig, e)
    return e.sort


def size(e: Expr) -> int:
    return 1 + sum(size(body) for _, body in e.args)


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


def _tokenize(text: str) -> list[str]:
    import re
    toks = []
    i = 0
    word = re.compile(r"\w+(\^\w+)?")
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _PUNCT:
            toks.append(ch)
            i += 1
        else:
            m = word.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}")
            toks.append(m.group())
            i = m.end()
    return toks


class _Parser:
    def __init__(self, sig: Signature, toks: list[str]):
        self.sig = sig
        self.toks = toks
        self.pos = 0

    def peek(self, k=0):
        return self.toks[self.pos + k] if self.pos + k < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def expr(self) -> Expr:
        if self.peek() in ("forall", "exists") and is_variable(self.sig, self.peek(1) or ""):
            quant = self.take()
            v = self.take()
            self.take(".")
            body = self.expr()
            if body.sort != PROP:
                raise SortMismatch("quantified body must be a formula")
            return (forall if quant == "forall" else exists)(self.sig, v, body)
        left = self.unit()
        if self.peek() == "=":
            self.take("=")
            right = self.unit()
            return mk_eq(self.sig, left, right)
        return left

    def unit(self) -> Expr:
        if self.peek() == "(":
            self.take("(")
            e = self.expr()
            self.take(")")
            return e
        head = self.take()
        if head in _PUNCT:
            raise ParseError(f"unexpected {head!r}")
        if self.peek() != "(":
            if is_variable(self.sig, head):
                return var(self.sig, head)
            if self.sig.opsig(head) is not None:
                return mk(self.sig, head)
            raise UnknownSymbol(f"unknown symbol {head!r}")
        self.take("(")
        args = [self.argument()]
        while self.peek() == ",":
            self.take(",")
            args.append(self.argument())
        self.take(")")
        return mk(self.sig, head, args)

    def argument(self):
        if self.peek() == "(" and self._binder_group_ahead():
            self.take("(")
            binders = [self.take()]
            while self.peek() == ",":
                self.take(",")
                binders.append(self.take())
            self.take(")")
            self.take(":")
            for b in binders:
                if not is_variable(self.sig, b):
                    raise ParseError(f"binder {b!r} is not a variable")
            return (tuple(binders), self.expr())
        return ((), self.expr())

    def _binder_group_ahead(self) -> bool:
        # at '(' — scan to the matching ')' and check for a following ':'
        depth = 0
        k = 0
        while True:
            tok = self.peek(k)
            if tok is None:
                return False
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if depth == 0:
                    return self.peek(k + 1) == ":"
            k += 1


def parse_expr(sig: Signature, text: str) -> Expr:
    p = _Parser(sig, _tokenize(text))
    e = p.expr()
    if p.pos != len(p.toks):
        raise ParseError(f"trailing input from token {p.toks[p.pos]!r}")
    return e


def print_expr(e: Expr) -> str:
    if not e.args:
        return e.head
    parts = []
    for binders, body in e.args:
        if binders:
            parts.append("(" + ",".join(binders) + "): " + print_expr(body))
        else:
            parts.append(print_expr(body))
    return e.head + "(" + ",".join(parts) + ")"


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


def in_class(sig: Signature, e: Expr, p) -> bool:
    """e ∈ F_gamma[p]: free variables covered by the perspective.  By the
    inductive table of persp(e): a variable head must occur among the
    components; the binders of each argument slot are appended for the
    recursive calls."""
    def covered(e: Expr, p: tuple) -> bool:
        if not e.args:
            return e.head in p or not is_variable(sig, e.head)
        return all(covered(body, p + tuple(binders)) for binders, body in e.args)
    return covered(e, tuple(p))


def pgp_decompose(sig: Signature, e: Expr, p):
    """The perspective-relative generation witness: head (an operation or a
    perspective component), and per slot (binders, body, extended perspective)
    with each body in class of its extended perspective."""
    p = tuple(p)
    if not in_class(sig, e, p):
        raise NotInClass(f"{print_expr(e)} not in class of perspective {p}")
    slots = tuple((binders, body, p + tuple(binders)) for binders, body in e.args)
    return e.head, slots
