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
from dataclasses import dataclass
from itertools import accumulate, repeat

from .signature import (
    PROP, FunlogError, Signature, eq_op, forall_op, exists_op,
    is_variable, is_variable_name, variable_sort,
)


class ExprError(FunlogError):
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


# Every live node: its fields (head, args, sort) -> a weak reference to it,
# whose callback removes the entry when the node dies, so a node nobody
# holds leaves the table.  A plain dict, so that finding a live node is one
# lookup in C.  Unlocked: funlog builds expressions from one thread.
_TABLE: dict[tuple, _Ref] = {}
_CLOSED = frozenset()  # the fv of every closed node


class _Ref(weakref.ref):
    """A weak reference that knows its table key (weakref.KeyedRef, less
    its Python-level constructor)."""
    __slots__ = ("key",)


def _forget(ref: _Ref, table=_TABLE) -> None:
    # the entry may already hold a new node with the same fields
    if table.get(ref.key) is ref:
        del table[ref.key]


class Expr:
    """An expression node.  Expr(head, args, sort) returns the one live node
    with these fields, so equal expressions are one object and == and hash
    are identity.  A node is immutable; its free variables fv, node count
    size, nesting depth (1 at a leaf) and printed form text are computed
    once from its children's, in one loop over them.  Only variables have
    names of the variable shape.  spec is the ustype mk validated the node
    against (see mk), or None."""
    __slots__ = ("head", "args", "sort", "fv", "size", "depth", "text", "spec",
                 "__weakref__")

    def __new__(cls, head: str, args: tuple[tuple[tuple[str, ...], Expr], ...], sort: str):
        key = head, args, sort
        ref = _TABLE.get(key)
        if ref is not None:
            e = ref()
            if e is not None:
                return e
        if args:
            free, size, depth, parts = _CLOSED, 1, 0, []
            for binders, body in args:
                f = body.fv
                if binders and f:
                    f = f.difference(binders)
                if not f <= free:
                    free = free | f if free else f
                size += body.size
                if body.depth > depth:
                    depth = body.depth
                parts.append("(" + ",".join(binders) + "): " + body.text
                             if binders else body.text)
            depth += 1
            text = head + "(" + ",".join(parts) + ")"
        else:
            free = frozenset((head,)) if is_variable_name(head) else _CLOSED
            size = depth = 1
            text = head
        e = object.__new__(cls)
        set_head, set_args, set_sort, set_fv, set_size, set_depth, set_text, set_spec = _SETTERS
        set_head(e, head)
        set_args(e, args)
        set_sort(e, sort)
        set_fv(e, free)
        set_size(e, size)
        set_depth(e, depth)
        set_text(e, text)
        set_spec(e, None)
        ref = _TABLE[key] = _Ref(e, _forget)
        ref.key = key
        return e

    def __setattr__(self, name, *_):
        raise AttributeError(f"an Expr is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"Expr({self.text!r})"


# The slots' own setters, which Expr.__setattr__ does not reach.
_SETTERS = tuple(getattr(Expr, name).__set__ for name in Expr.__slots__[:-1])


def _normalized(args) -> tuple:
    return tuple((tuple(binders), body) for binders, body in args) if args else ()


def var(sig: Signature, name: str) -> Expr:
    sort = variable_sort(sig, name)
    if sort is None:
        raise UnknownSymbol(f"{name!r} is not a variable")
    return Expr(name, (), sort)


def mk(sig: Signature, head: str, args=()) -> Expr:
    """Build an expression node, enforcing the generation predicate locally.

    Whether a node satisfies the predicate depends only on its fields and
    the ustype of its head, since in a valid signature (every Signature)
    each binder sort of a ustype is a variable sort.  So mk marks each node
    it validates with the ustype, in its spec, and returns an existing node
    without checking it again when its spec equals the head's ustype in sig.
    A node built by Expr(...) directly carries no mark and is checked."""
    spec = sig.ops.get(head)
    if spec is None:
        # no operation has the variable shape (the Signature constructor)
        vsort = variable_sort(sig, head)
        if vsort is None:
            raise UnknownSymbol(f"unknown symbol {head!r}")
        if _normalized(args):
            raise ArityMismatch(f"variable {head!r} applied to arguments")
        return Expr(head, (), vsort)
    try:
        ref = _TABLE.get((head, args, spec.result))
    except TypeError:  # lists among the args: normalized below
        ref = None
    if ref is not None:
        e = ref()
        if e is not None and ((m := e.spec) is spec or m == spec):
            return e
    args = _normalized(args)
    if len(args) != spec.arity:
        raise ArityMismatch(f"{head!r} expects {spec.arity} arguments, got {len(args)}")
    for (binders, body), (arg_sort, binder_sorts) in zip(args, spec.args):
        if body.sort != arg_sort:
            raise SortMismatch(
                f"argument of {head!r}: expected sort {arg_sort!r}, got {body.sort!r}")
        if not (binders or binder_sorts):
            continue
        if len(binders) != len(binder_sorts):
            raise ArityMismatch(
                f"{head!r}: binder list {binders} does not match sorts {binder_sorts}")
        if len(set(binders)) != len(binders):
            raise DuplicateBinder(f"{head!r}: repeated variable in binder list {binders}")
        for v, bsort in zip(binders, binder_sorts):
            if variable_sort(sig, v) != bsort:
                raise SortMismatch(f"{head!r}: binder {v!r} is not a variable of sort {bsort!r}")
    e = Expr(head, args, spec.result)
    object.__setattr__(e, "spec", spec)  # the mark, past Expr.__setattr__
    return e


def nodes(e: Expr, into=None) -> list[Expr]:
    """e's distinct nodes, each once, in preorder: a node, then the bodies
    of its slots left to right.  into(node, binders), when given, says
    whether the walk enters the slot of node that binds binders (a body
    reached through another slot is still listed).  One loop over a stack,
    so nesting depth costs no Python frames."""
    out, seen, stack = [], set(), [e]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        out.append(node)
        for binders, body in reversed(node.args):
            if into is None or into(node, binders):
                stack.append(body)
    return out


def check_expr(sig: Signature, e: Expr) -> None:
    """Revalidate every generation-predicate clause of e; raises on violation."""
    for node in nodes(e):
        if node.head not in sig.ops and variable_sort(sig, node.head) is None:
            raise ForeignSignature(f"symbol {node.head!r} not in signature")
        rebuilt = mk(sig, node.head, node.args)
        if rebuilt.sort != node.sort:
            raise SortMismatch(f"cached sort {node.sort!r} disagrees with {rebuilt.sort!r}")


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


@dataclass(frozen=True)
class Theory:
    signature: Signature
    axioms: tuple[Expr, ...] = ()

    def __post_init__(self):
        for a in self.axioms:
            if a.sort != PROP:
                raise SortMismatch(f"axiom {print_expr(a)} is not a formula")


# ---------------------------------------------------------------------------
# concrete syntax

_PUNCT = "(),:.="
# A character outside the token alphabet, and a '^' outside a word^word
# token.  Neither pattern repeats a group, so a search takes linear time.
_STRAY = re.compile(r"[^\w\s(),:.=^]")
_STRAY_CARET = re.compile(r"\^(?:(?!\w)|(?<!\w\^)|\w+\^)")
# Two words with only whitespace between them: the sugar forall v. e, or
# malformed input.  Only whitespace right after a word starts a match, so a
# search takes linear time.
_WORD_PAIR = re.compile(r"\s(?<=[\w^]\s)\s*[\w^]")
_PAREN_STEP = {"(": 1, ")": -1}

# The deepest expression parse_expr accepts, in nodes from the root to the
# deepest leaf (Expr.depth).  Walks over an expression go through nodes()
# and do not recurse; the functions that do, listed with their bounds in
# tests/test_recursion_guards.py (substitute and evaluate among them), fail
# near 990 levels under Python's default recursion limit of 1000, and at
# 100 leave nine tenths of it to their callers.  The parser rejects deeper
# input as its node levels open, and input with more than 2 * MAX_NESTING
# parentheses open at once before it parses, so deep input costs it linear
# time.  It also bounds the cached text: each node keeps its printed form,
# so a chain d deep holds about d**2/2 chars.
MAX_NESTING = 100

# The parser's open productions, one stack entry (a list) each:
#   [_TOP, binders]                      the whole text
#   [_APP, head, args, memo key, binders]  an operation application
#   [_PAREN, binders]                    a parenthesized slot
#   [_QUANT, quantifier, var, binders]   the sugar forall v. e
#   [_EQ, left operand]                  the sugar a = b, after its '='
# binders is the binder group of the slot the entry is reading.
_TOP, _APP, _PAREN, _QUANT, _EQ = range(5)
_TOO_DEEP = "input nested too deep"
_BARE = "a binder group outside an argument slot"


def lex(text: str) -> list[str]:
    """The tokens of the concrete syntax: ``word``, ``word^word`` and each
    of ``(),:.=``, with whitespace between them skipped.  A character that
    starts no token raises ParseError naming the first such character.

    Once both searches find nothing, every run of word characters and '^'
    is one token, so padding the punctuation with spaces and splitting on
    whitespace lexes the text.  A caret match lies in the same run as the
    stray '^' it reports, at or before it, so the caret search stops at the
    first stray character of another kind: whichever lies first is named."""
    stray = _STRAY.search(text)
    if _STRAY_CARET.search(text, 0, stray.start() if stray else len(text)):
        raise ParseError("unexpected character '^'")
    if stray:
        raise ParseError(f"unexpected character {stray.group()!r}")
    return (text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ")
            .replace(":", " : ").replace(".", " . ").replace("=", " = ").split())


def _expect(toks: list[str], i: int, expected: str) -> int:
    """The index after token i, which must be expected."""
    if i >= len(toks):
        raise ParseError("unexpected end of input")
    if toks[i] != expected:
        raise ParseError(f"expected {expected!r}, got {toks[i]!r}")
    return i + 1


def _group_end(toks: list[str], i: int) -> int | None:
    """If a binder group ``( word (, word)* ) :`` starts at token i, the
    index after its ':'; else None."""
    n = len(toks)
    k = i + 1
    while k + 1 < n and toks[k] not in _PUNCT and toks[k + 1] == ",":
        k += 2
    if k + 2 < n and toks[k] not in _PUNCT and toks[k + 1] == ")" and toks[k + 2] == ":":
        return k + 3
    return None


def parse_expr(sig: Signature, text: str, memo: dict | None = None) -> Expr:
    """Parse the concrete syntax::

        slot := [ '(' var (',' var)* ')' ':' ]
                ( ('forall' | 'exists') var '.' slot | unit [ '=' unit ] )
        unit := '(' slot ')' | head [ '(' slot (',' slot)* ')' ]

    A binder group is allowed only in an operation's argument slot.  It is
    told from a parenthesized expression by the tokens up to its ':'.  An
    expression deeper than MAX_NESTING nodes is a parse error, and so is
    input with more than 2 * MAX_NESTING parentheses open at once; a
    parenthesized unit builds no node, and the sugar ``forall v. e`` and
    ``a = b`` one.

    memo maps the tokens of an operation application ``head(...)``, up to
    its matching ')' and concatenated, to the expression parsed from them,
    so that a caller passing one dict to several parses gets each distinct
    application parsed once.  One memo must serve one signature.  The
    whole input is looked up first, as its text less whitespace, so an
    input that repeats an application costs one lookup and is not lexed.
    Concatenation keeps token sequences apart only while no two words are
    adjacent, which takes whitespace between two words (the sugar
    ``forall v. e``, or malformed input): an input with such a pair is
    parsed with a memo of its own and neither reads nor writes memo.  So
    every key is the concatenation of a span that parsed, from an input
    with no such pair, and lexes back to that span's tokens; an input with
    no such pair whose text less whitespace is a key lexes to the same
    tokens, as whitespace inside a run of word characters and '^' would
    make such a pair.  Every successful parse of an application is stored,
    and a hit hides nothing from the bounds: a stored span lay inside an
    input that passed the parenthesis bound, so it opens no more
    parentheses at once, and the depth bound is read off the node, a hit
    on the whole input included.

    One loop reads the tokens left to right; a stack holds the productions
    still open, so no input nests the parser's own calls."""
    if memo is None or _WORD_PAIR.search(text):
        memo = {}
    else:
        e = memo.get("".join(text.split()))
        if e is not None:
            if e.depth > MAX_NESTING:
                raise ParseError(_TOO_DEEP)
            return e
    toks = lex(text)
    n = len(toks)
    # level[i]: parentheses open after token i.  The ')' matching a '(' at
    # i is the first token after it that brings level back to level[i] - 1.
    level = list(accumulate(map(_PAREN_STEP.get, toks, repeat(0))))
    # The one bound on parentheses, argument lists, binder groups and
    # units alike: reject input past it before keying anything.
    if max(level, default=0) > 2 * MAX_NESTING:
        raise ParseError(_TOO_DEEP)
    stack = [[_TOP, ()]]
    nodes = 0  # open entries that build a node
    i, at_slot = 0, True
    while True:
        # Read on to the end of a unit e, opening productions on the way.
        # An open node has a child below it, so it ends at least one level
        # above the deepest leaf: MAX_NESTING of them are too many.
        while True:
            if at_slot:
                binders = ()
                if i < n and toks[i] == "(":
                    end = _group_end(toks, i)
                    if end is not None:
                        binders = tuple(toks[i + 1:end - 2:2])
                        for v in binders:
                            if not is_variable(sig, v):
                                raise ParseError(f"binder {v!r} is not a variable")
                        i = end
                stack[-1][-1] = binders
                if i + 1 < n and toks[i] in ("forall", "exists") and is_variable(sig, toks[i + 1]):
                    stack.append([_QUANT, toks[i], toks[i + 1], ()])
                    i = _expect(toks, i + 2, ".")
                    nodes += 1
                    if nodes >= MAX_NESTING:
                        raise ParseError(_TOO_DEEP)
                    continue
            if i >= n:
                raise ParseError("unexpected end of input")
            head = toks[i]
            i += 1
            if head == "(":
                stack.append([_PAREN, ()])
                at_slot = True
                continue
            if head in _PUNCT:
                raise ParseError(f"unexpected {head!r}")
            if i >= n or toks[i] != "(":
                e = mk(sig, head)
                break
            try:
                end = level.index(level[i] - 1, i)
            except ValueError:  # an unclosed '(': the parse fails at the end
                end = None
            # no two words are adjacent, so the concatenated tokens name the span
            key = "".join(toks[i - 1:end + 1]) if end is not None else None
            e = memo.get(key)
            if e is not None:
                i = end + 1
                break
            stack.append([_APP, head, [], key, ()])
            i += 1
            nodes += 1
            if nodes >= MAX_NESTING:
                raise ParseError(_TOO_DEEP)
            at_slot = True
        # Hand the unit e up through the productions it completes.
        while True:
            top = stack[-1]
            if top[0] == _EQ:
                stack.pop()
                nodes -= 1
                e = mk_eq(sig, top[1], e)
                top = stack[-1]
            elif i < n and toks[i] == "=":
                stack.append([_EQ, e])
                i += 1
                nodes += 1
                if nodes >= MAX_NESTING:
                    raise ParseError(_TOO_DEEP)
                at_slot = False
                break
            # e ends the slot top reads; a quantifier ends the slot around it
            while top[0] == _QUANT:
                if top[-1]:
                    raise ParseError(_BARE)
                if e.sort != PROP:
                    raise SortMismatch("quantified body must be a formula")
                stack.pop()
                nodes -= 1
                e = (forall if top[1] == "forall" else exists)(sig, top[2], e)
                top = stack[-1]
            if top[0] == _APP:
                top[2].append((top[-1], e))
                if i < n and toks[i] == ",":
                    i += 1
                    at_slot = True
                    break
                i = _expect(toks, i, ")")
                stack.pop()
                nodes -= 1
                e = mk(sig, top[1], tuple(top[2]))
                if top[3] is not None:
                    memo[top[3]] = e
            elif top[0] == _PAREN:
                if top[-1]:
                    raise ParseError(_BARE)
                i = _expect(toks, i, ")")
                stack.pop()
            else:  # _TOP
                if i < n:
                    raise ParseError(f"trailing input from token {toks[i]!r}")
                if top[-1]:
                    raise ParseError(_BARE)
                if e.depth > MAX_NESTING:
                    raise ParseError(_TOO_DEEP)
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
