"""Signatures for many-sorted logic with variable-binding operations.

A signature declares a set of sorts (always containing the formula sort
``pi``), a subset of "variable sorts" over which quantification and binding
are allowed, and a family of operations.  Each operation carries a ustype:
its result sort plus, per argument slot, the argument's sort and the sorts of
the variables that slot binds.  The logical symbols (connectives, quantifiers
per variable sort, equality per sort) are generated automatically and are
present in every signature.

Variables are not declared; for every variable sort ``a`` there is the
countable family ``v0^a, v1^a, ...``.  Names of that shape are reserved for
variables, so no operation may be named ``v<n>^<word>``; sort names are single
words and operation names single concrete-syntax tokens ``word`` or
``word^word``.

Each connective is defined once, in CONNECTIVES, by its arity and truth
function.  The constructor, the one place a signature is built from
declarations, adds pi and the logical symbols, valid by construction once
the sort names are, and checks the given operations; ``Signature.extended``
adds operations (the completeness proof's special constants) and checks
only those.  ops is read-only, so every Signature is valid, as ``syntax.mk``
relies on.  Both record user_ops, the given operations, beside ops, and
ops_by_result is derived on first read; == ignores them.
"""
from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType


PROP = "pi"

TOP = "top"
BOT = "bot"
NOT = "not"
IMP = "imp"
AND = "and"
OR = "or"
IFF = "iff"

# The one definition of the connectives: name -> (arity, truth function).
# A truth function maps the all-true bit mask and its arguments' masks over
# the same rows to its result's mask; at one row, full is 1.
CONNECTIVES: Mapping[str, tuple[int, Callable[..., int]]] = MappingProxyType({
    TOP: (0, lambda full: full),
    BOT: (0, lambda full: 0),
    NOT: (1, lambda full, a: full ^ a),
    IMP: (2, lambda full, a, b: (full ^ a) | b),
    AND: (2, lambda full, a, b: a & b),
    OR: (2, lambda full, a, b: a | b),
    IFF: (2, lambda full, a, b: full ^ a ^ b),
})


def forall_op(sort: str) -> str:
    return f"forall^{sort}"


def exists_op(sort: str) -> str:
    return f"exists^{sort}"


def eq_op(sort: str) -> str:
    return f"eq_{sort}"


class FunlogError(Exception):
    """The root of every funlog error; the CLI reports each one, exit 2."""


class SignatureError(FunlogError):
    pass


class UnknownSort(SignatureError):
    pass


class MalformedUstype(SignatureError):
    pass


class BinderSortNotInVSRT(SignatureError):
    pass


@dataclass(frozen=True)
class OpSig:
    """ustype of one operation: result sort and (arg sort, binder sorts) slots."""

    result: str
    args: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)


_NAME_RE = re.compile(r"\w+")
# An operation name is one word token of the expression syntax: ``word`` or
# ``word^word`` (see syntax.lex).
_OP_NAME_RE = re.compile(r"\w+(?:\^\w+)?")


# The ustype grammar's tokens: sort names and the punctuation "(),".
_USTYPE_TOKEN = re.compile(r"\s*(?:(\w+|[(),])|\S)")


def tokenize(pattern: re.Pattern, text: str, error) -> list[str]:
    """The tokens of text, for the ustype and .fls value grammars (the
    expression syntax has its own lexer, syntax.lex).  At each step pattern
    skips whitespace, then matches either one token, its only group,
    or one character that starts no token, leaving the group empty; that
    character raises error."""
    toks = pattern.findall(text)
    if "" in toks:
        bad = next(m.group() for m in pattern.finditer(text) if not m.group(1))
        raise error(f"unexpected character {bad[-1]!r}")
    return toks


class Tokens:
    """A cursor over the tokens of one text.  error is the exception class
    (or a function building the exception from a message) that the
    grammar's callers catch; every syntax error is raised as one."""

    def __init__(self, pattern: re.Pattern, text: str, error):
        self.toks = tokenize(pattern, text, error)
        self.pos = 0
        self.error = error

    def peek(self):
        """The next token, or None past the end."""
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected=None):
        if self.pos >= len(self.toks):
            raise self.error("unexpected end of input")
        tok = self.toks[self.pos]
        if expected is not None and tok != expected:
            raise self.error(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def items(self, item) -> list:
        """item (',' item)*: the results of the calls of item."""
        out = [item()]
        while self.peek() == ",":
            self.pos += 1
            out.append(item())
        return out

    def parse(self, rule):
        """rule() over the whole text: tokens left over are an error."""
        result = rule()
        if self.pos < len(self.toks):
            raise self.error(f"trailing input from token {self.toks[self.pos]!r}")
        return result


def parse_ustype(text: str, sorts: frozenset[str], var_sorts: frozenset[str]) -> OpSig:
    """Parse ``gamma`` or ``(theta,...,theta)gamma`` with theta = ``alpha`` or
    ``(beta,...,beta)alpha``."""
    if text in sorts and _NAME_RE.fullmatch(text):  # a bare sort: the grammar's result
        return OpSig(text)
    t = Tokens(_USTYPE_TOKEN, text,
               lambda msg: MalformedUstype(f"{msg} in ustype {text!r}"))

    def sort_name(binder: bool) -> str:
        tok = t.take()
        if tok in "(),":
            raise t.error(f"expected sort name, got {tok!r}")
        if tok not in sorts:
            raise UnknownSort(f"sort {tok!r} not declared")
        if binder and tok not in var_sorts:
            raise BinderSortNotInVSRT(f"binder sort {tok!r} not a variable sort")
        return tok

    def theta() -> tuple[str, tuple[str, ...]]:
        binders = ()
        if t.peek() == "(":
            t.take("(")
            binders = tuple(t.items(lambda: sort_name(binder=True)))
            t.take(")")
        return sort_name(binder=False), binders

    def ustype() -> OpSig:
        args = ()
        if t.peek() == "(":
            t.take("(")
            args = tuple(t.items(theta))
            t.take(")")
        return OpSig(sort_name(binder=False), args)

    return t.parse(ustype)


def print_ustype(op: OpSig) -> str:
    if not op.args:
        return op.result
    parts = []
    for arg_sort, binders in op.args:
        if binders:
            parts.append("(" + ",".join(binders) + ")" + arg_sort)
        else:
            parts.append(arg_sort)
    return "(" + ",".join(parts) + ")" + op.result


def distinguished_ops(sorts: frozenset[str], var_sorts: frozenset[str]) -> dict[str, OpSig]:
    """The logical symbols over these sorts and their ustypes, in ops' order."""
    ops = {name: OpSig(PROP, ((PROP, ()),) * arity) for name, (arity, _) in CONNECTIVES.items()}
    for a in sorted(var_sorts):
        ops[forall_op(a)] = OpSig(PROP, ((PROP, (a,)),))
        ops[exists_op(a)] = OpSig(PROP, ((PROP, (a,)),))
    for a in sorted(sorts):
        ops[eq_op(a)] = OpSig(PROP, ((a, ()), (a, ())))
    return ops


def _op_errors(ops: Mapping[str, OpSig], sorts, var_sorts) -> list[str]:
    """What is wrong with each operation name : spec of ops over these sorts."""
    bad = []
    for name, spec in ops.items():
        if _VAR_RE.fullmatch(name):
            bad.append(f"VAR and SOP not disjoint: operation name {name!r} "
                       "has the variable shape v<n>^<sort>")
        elif not _OP_NAME_RE.fullmatch(name):
            bad.append(f"operation name {name!r} is not a single token")
        if spec.result not in sorts:
            bad.append(f"op {name!r}: unknown result sort {spec.result!r}")
        for arg_sort, binders in spec.args:
            if arg_sort not in sorts:
                bad.append(f"op {name!r}: unknown argument sort {arg_sort!r}")
            bad += [f"op {name!r}: binder sort {b!r} not a variable sort"
                    for b in binders if b not in var_sorts]
    return bad


@dataclass(frozen=True)
class Signature:
    """SRT, VSRT and SOP, valid by construction (see the module docstring).
    ops maps each operation to its ustype, a string or an OpSig; a logical
    symbol given with its own OpSig is kept, any other raises; user_ops
    holds the operations other than the logical symbols, in ops' order."""
    sorts: frozenset[str] = frozenset()
    var_sorts: frozenset[str] = frozenset()
    ops: Mapping[str, OpSig] = field(default_factory=dict)

    def __post_init__(self):
        sorts, var_sorts = frozenset(self.sorts) | {PROP}, frozenset(self.var_sorts)
        if not var_sorts <= sorts:
            raise UnknownSort(f"variable sorts {sorted(var_sorts - sorts)} not declared as sorts")
        bad = [f"sort name {s!r} is not a single word"
               for s in sorted(sorts) if not _NAME_RE.fullmatch(s)]
        logical, ops = distinguished_ops(sorts, var_sorts), {}
        for name, spec in self.ops.items():
            if name not in logical:
                try:  # a misnamed sort, if any, is the error to report
                    ops[name] = (parse_ustype(spec, sorts, var_sorts)
                                 if isinstance(spec, str) else spec)
                except SignatureError:
                    if not bad:
                        raise
            elif spec != logical[name]:  # given names are distinct: a logical symbol
                raise SignatureError(f"operation name {name!r} collides with a logical symbol")
        if bad := bad + _op_errors(logical | ops if bad else ops, sorts, var_sorts):
            raise SignatureError("; ".join(bad))
        vars(self).update(sorts=sorts, var_sorts=var_sorts, ops=MappingProxyType(logical | ops),
                          user_ops=MappingProxyType(ops))

    def extended(self, new_ops: dict[str, OpSig]) -> Signature:
        """This signature with the operations new_ops adds, which alone are
        checked, each as the constructor checks an operation."""
        bad = [f"operation {name!r} declared twice" for name in new_ops if name in self.ops]
        if bad := bad + _op_errors(new_ops, self.sorts, self.var_sorts):
            raise SignatureError("; ".join(bad))
        sig = object.__new__(Signature)
        vars(sig).update(sorts=self.sorts, var_sorts=self.var_sorts,
                         ops=MappingProxyType(self.ops | new_ops),
                         user_ops=MappingProxyType(self.user_ops | new_ops))
        return sig

    @cached_property
    def ops_by_result(self) -> Mapping[str, tuple[tuple[str, OpSig], ...]]:
        """Sort -> the (name, ustype) of its operations, in ops' order."""
        return MappingProxyType({s: tuple(op for op in self.ops.items() if op[1].result == s)
                                 for s in self.sorts})


# The variable-name grammar; the only place that knows it.
_VAR_RE = re.compile(r"v(\d+)\^(\w+)")


def variable_name(sort: str, index: int) -> str:
    return f"v{index}^{sort}"


# Name of the variable shape -> its sort word, filled by _VAR_RE as names
# are looked up.  Other names never enter, so it holds at most the distinct
# variable names a process has read or made.
_VAR_SHAPE: dict[str, str] = {}


def variable_sort(sig: Signature, name: str) -> str | None:
    """The sort of ``name`` if it is a variable of this signature, else None."""
    sort = _VAR_SHAPE.get(name)
    if sort is None:
        m = _VAR_RE.fullmatch(name)
        if m is None:
            return None
        sort = _VAR_SHAPE[name] = m.group(2)
    return sort if sort in sig.var_sorts else None


def is_variable(sig: Signature, name: str) -> bool:
    return variable_sort(sig, name) is not None


def is_variable_name(name: str) -> bool:
    """Whether name has the variable shape ``v<n>^<sort>``.  No operation may
    be named so, so at a leaf of a well-formed expression this tells a
    variable from a constant without the signature."""
    return _VAR_RE.fullmatch(name) is not None


def fresh_vars(sorts, avoid) -> tuple[str, ...]:
    """Pairwise-distinct variables of the given sorts, disjoint from avoid.
    Deterministic: lowest available indices, left to right."""
    taken = set(avoid)
    out = []
    for s in sorts:
        i = 0
        while variable_name(s, i) in taken:
            i += 1
        name = variable_name(s, i)
        taken.add(name)
        out.append(name)
    return tuple(out)


def sorted_vars(names) -> tuple[str, ...]:
    """Variables ordered by sort name, then by index."""
    def key(n):
        m = _VAR_RE.fullmatch(n)
        return m.group(2), int(m.group(1))
    return tuple(sorted(names, key=key))


def extends(sub: Signature, sup: Signature) -> bool:
    """True iff sup extends sub: same sorts and variable sorts, every operation
    of sub present in sup with the same ustype."""
    return ((sub.sorts, sub.var_sorts) == (sup.sorts, sup.var_sorts)
            and sub.ops.items() <= sup.ops.items())
