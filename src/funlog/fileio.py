"""Text formats for signatures, structures (.fls), theories (.flt) and
proofs (.flp).

Structure files list signature declarations, then carriers, interpretations
and optional selected function sets::

    sort a
    varsort a
    op f : (a)a
    carrier a = x,y
    interp f { (x) -> y, (y) -> x }
    selected a^(a) = {(x)->x,(y)->y}, {(x)->y,(y)->x}

An atom is a word or a double-quoted string; atoms containing punctuation
(term-model carriers are printed expressions) are quoted.  A file with any
``selected`` line describes a non-full structure; otherwise interpretations
are tabulated over the full function spaces.  Each sort, operation and
selected set is declared by at most one carrier, interp or selected line;
logical symbols take no interp.  Theory files use the same signature
header plus ``axiom`` lines; proof files hold ``premise`` lines and numbered
steps of the form ``<n>. <formula> ; <rule> <args>`` with 1-based line
references.  Structures need funlog.semantics and theories and proofs
funlog.calculus; each reader and printer imports its layer as it runs.
"""
from __future__ import annotations

import json
import re
from dataclasses import fields
from functools import cache, partial
from typing import TYPE_CHECKING

from .signature import (
    PROP, FunlogError, Signature, Tokens, print_ustype,
)
from .syntax import ExprError, parse_expr, print_expr

if TYPE_CHECKING:
    from .calculus import Proof, Theory
    from .semantics import FnTable, Structure


class FormatError(FunlogError):
    pass


WORD = re.compile(r"\w+")


def quote_atom(a: str) -> str:
    if WORD.fullmatch(a):
        return a
    return '"' + a.replace("\\", "\\\\").replace('"', '\\"') + '"'


_VALUE_TOKEN = re.compile(r'\s*(?:("(?:[^"\\]|\\.)*"|->|[{}(),=]|\w+)|\S)')


def _atom(t: Tokens) -> str:
    """A word, or a quoted string read back unquoted."""
    tok = t.take()
    if not (tok.startswith('"') or WORD.fullmatch(tok)):
        raise t.error(f"expected an atom, got {tok!r}")
    return re.sub(r"\\(.)", r"\1", tok[1:-1]) if tok.startswith('"') else tok


def _value(t: Tokens, tables: int):
    """A raw value from the cursor: an atom, or ("table", rows) for a
    brace-delimited table, nested at most tables levels deep: 2 for an
    interp value, 1 for a carrier atom or a selected table.  Sorts are
    attached afterwards from the context of use."""
    if t.peek() != "{":
        return _atom(t)
    if not tables:
        raise t.error("nested tables are not supported")
    t.take("{")
    rows = tuple(t.items(lambda: _row(t, tables - 1)))
    t.take("}")
    return ("table", rows)


def _row(t: Tokens, tables: int):
    """``args -> value``, where each argument may nest tables levels of
    tables and the value is an atom."""
    if t.peek() == "(":
        t.take("(")
        args = t.items(lambda: _value(t, tables))
        t.take(")")
    else:
        args = [_value(t, tables)]
    t.take("->")
    return (tuple(args), _value(t, 0))


def _coerce(raw, arg_sort: str, binder_sorts: tuple[str, ...]):
    """Attach sorts: a binder slot expects a table over binder_sorts, a plain
    slot expects an atom."""
    if binder_sorts:
        from .semantics import FnTable
        if not (isinstance(raw, tuple) and raw[0] == "table"):
            raise FormatError(f"expected a function table, got {raw!r}")
        rows = {args: v for args, v in raw[1]}
        if len(rows) != len(raw[1]):
            raise FormatError("a table repeats an argument tuple")
        return FnTable.from_map(binder_sorts, arg_sort, rows)
    if isinstance(raw, tuple):
        raise FormatError(f"expected an atom of sort {arg_sort!r}, got a table")
    return raw


def _split_decls(text: str):
    """Partition lines into signature declarations and the remainder."""
    sorts, var_sorts, ops, rest = [], [], {}, []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, tail = line.partition(" ")
        tail = tail.strip()
        if head == "sort":
            sorts.extend(x.strip() for x in tail.split(",") if x.strip())
        elif head == "varsort":
            var_sorts.extend(x.strip() for x in tail.split(",") if x.strip())
        elif head == "op":
            name, sep, utype = tail.partition(":")
            if not sep:
                raise FormatError(f"line {lineno}: op needs 'name : ustype'")
            _once(ops, name.strip(), utype.strip(), f"line {lineno}: op {name.strip()}")
        else:
            rest.append((lineno, line))
    return sorts, var_sorts, ops, rest


def signature_lines(sig: Signature) -> list[str]:
    out = []
    user_sorts = sorted(sig.sorts - {PROP})
    if user_sorts:
        out.append("sort " + ",".join(user_sorts))
    vs = sorted(sig.var_sorts)
    if vs:
        out.append("varsort " + ",".join(vs))
    return out + [f"op {name} : {print_ustype(spec)}"
                  for name, spec in sorted(sig.user_ops.items())]


# --- structures -------------------------------------------------------------

def _once(table: dict, key, value, what: str):
    """table[key] = value, unless an earlier line declared key."""
    if key in table:
        raise FormatError(f"{what} declared twice")
    table[key] = value


def parse_structure(text: str) -> Structure:
    from .semantics import Structure, make_full_structure
    sorts, var_sorts, ops, rest = _split_decls(text)
    sig = Signature(sorts, var_sorts, ops)
    carriers = {}
    interp_raw = {}
    selected_raw = {}
    for lineno, line in rest:
        head, _, tail = line.partition(" ")
        tail = tail.strip()
        try:
            if head == "carrier":
                sort, sep, vals = tail.partition("=")
                sort = sort.strip()
                if sort not in sig.sorts:
                    raise FormatError(f"unknown sort {sort!r}")
                t = Tokens(_VALUE_TOKEN, vals, FormatError)
                atoms = tuple(t.parse(lambda: t.items(lambda: _value(t, 1))))
                if any(isinstance(a, tuple) for a in atoms):
                    raise FormatError(f"carrier {sort} holds a table")
                if len(set(atoms)) != len(atoms):
                    raise FormatError(f"carrier {sort} repeats an atom")
                if sort == PROP and len(atoms) != 2:
                    raise FormatError(f"carrier {PROP} needs two atoms, false then true")
                _once(carriers, sort, atoms, f"carrier {sort}")
            elif head == "interp":
                # the operation, then an optional '=' and the value
                name = re.match(r"[^\s={]*", tail).group()
                val = tail[len(name):].lstrip().removeprefix("=")
                if not val.strip():
                    raise FormatError(f"interp {name!r} has no value")
                spec = sig.user_ops.get(name)
                if spec is None:
                    raise FormatError(
                        f"{name!r} is a logical symbol, which takes no interp"
                        if name in sig.ops else f"unknown operation {name!r}")
                t = Tokens(_VALUE_TOKEN, val, FormatError)
                raw = t.parse(lambda: _value(t, 2))
                if spec.arity == 0:
                    value = _coerce(raw, spec.result, ())
                else:
                    if not (isinstance(raw, tuple) and raw[0] == "table"):
                        raise FormatError(f"interp for {name!r} must be a table")
                    table = {}
                    for args, v in raw[1]:
                        if len(args) != spec.arity:
                            raise FormatError(f"wrong arity in row for {name!r}")
                        key = tuple(_coerce(a, s, bs)
                                    for a, (s, bs) in zip(args, spec.args))
                        _once(table, key, _coerce(v, spec.result, ()),
                              f"row {key!r} of {name!r}")
                    value = table
                _once(interp_raw, name, value, f"interp {name}")
            elif head == "selected":
                decl, sep, val = tail.partition("=")
                m = re.fullmatch(r"(\w+)\^\((\w+(?:,\w+)*)\)", decl.strip())
                if not m:
                    raise FormatError(f"bad selected declaration {decl!r}")
                gamma, dom = m.group(1), tuple(m.group(2).split(","))
                t = Tokens(_VALUE_TOKEN, val, FormatError)
                tables = t.parse(lambda: t.items(lambda: _coerce(_value(t, 1), gamma, dom)))
                _once(selected_raw, (gamma, dom), frozenset(tables),
                      f"selected {gamma}^({','.join(dom)})")
            else:
                raise FormatError(f"unexpected {head!r}")
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None

    if not selected_raw:
        return make_full_structure(sig, carriers, interp_raw)
    return Structure(sig, carriers, interp_raw, selected_raw)


def _print_table(t: FnTable) -> str:
    rows = []
    for args, v in t.rows:
        if len(args) == 1:
            lhs = quote_atom(args[0])
        else:
            lhs = "(" + ",".join(quote_atom(a) for a in args) + ")"
        rows.append(f"{lhs}->{quote_atom(v)}")
    return "{" + ",".join(rows) + "}"


def _print_value(v) -> str:
    return quote_atom(v) if isinstance(v, str) else _print_table(v)


def print_structure(s: Structure) -> str:
    sig = s.signature
    out = signature_lines(sig)
    for sort in sorted(s.carriers):
        if sort == PROP and s.carriers[sort] == ("0", "1"):
            continue
        out.append(f"carrier {sort} = " +
                   ",".join(quote_atom(a) for a in s.carriers[sort]))
    for name, spec in sorted(sig.user_ops.items()):
        v = s.interp[name]
        if spec.arity == 0:
            out.append(f"interp {name} = {quote_atom(v)}")
        else:
            rows = []
            # key=repr, here and for selected sets, reads FnTable.__repr__
            for args, val in sorted(v.items(), key=repr):
                lhs = "(" + ",".join(_print_value(a) for a in args) + ")"
                rows.append(f"{lhs} -> {quote_atom(val)}")
            out.append(f"interp {name} {{ " + ", ".join(rows) + " }")
    for (gamma, dom), tables in sorted(s.selected.items()):
        decl = f"{gamma}^(" + ",".join(dom) + ")"
        body = ", ".join(_print_table(t) for t in sorted(tables, key=repr))
        out.append(f"selected {decl} = {body}")
    return "\n".join(out) + "\n"


# --- theories ---------------------------------------------------------------

def parse_theory(text: str) -> Theory:
    from .calculus import Theory
    sorts, var_sorts, ops, rest = _split_decls(text)
    sig = Signature(sorts, var_sorts, ops)
    axioms = []
    memo = {}
    for lineno, line in rest:
        head, _, tail = line.partition(" ")
        if head != "axiom":
            raise FormatError(f"line {lineno}: unexpected {head!r}")
        try:
            axioms.append(parse_expr(sig, tail.strip(), memo))
        except ExprError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return Theory(sig, tuple(axioms))


def print_theory(t: Theory) -> str:
    out = signature_lines(t.signature)
    for a in t.axioms:
        out.append("axiom " + print_expr(a))
    return "\n".join(out) + "\n"


# --- proofs -----------------------------------------------------------------

@cache
def rules() -> dict:
    """Rule keyword -> justification class, built on first use."""
    from . import calculus as c
    return {
        "taut": c.Taut, "eqrefl": c.EqRefl, "axiom": c.NonlogicalAxiom,
        "premise": c.Premise, "mp": c.MP, "gen": c.Gen, "forall_elim": c.ForallElim,
        "exists_intro": c.ExistsIntro, "forall_imp_dist": c.ForallImpDist,
        "exists_imp_dist": c.ExistsImpDist, "eqcongr": c.EqCongr,
    }


@cache
def _keywords() -> dict:
    return {cls: kw for kw, cls in rules().items()}


# rules whose arguments are space-separated words; every other rule takes
# one JSON object keyed by its fields
_WORD_RULES = frozenset({"taut", "eqrefl", "axiom", "premise", "mp", "gen"})


def _typed(value, kind):
    """value if it is a kind: str, int, or tuple (read from a JSON list of
    names); any other shape is a TypeError."""
    if kind is tuple and isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    if type(value) is kind:
        return value
    raise TypeError(f"expected {kind.__name__}, got {value!r}")


_LINE = (lambda n: n + 1, lambda w, expr: int(w) - 1)  # 1-based in the text
_NAME = (str, lambda v, expr: _typed(v, str))
_NAMES = (list, lambda v, expr: _typed(v, tuple))
_EXPR = (print_expr, lambda v, expr: expr(v))
_SLOTS = (lambda slots: [[list(bs), print_expr(b)] for bs, b in slots],
          lambda v, expr: tuple((_typed(bs, tuple), expr(b)) for bs, b in v))

# justification field name -> (write, read).  write gives the field's word
# or JSON value; read(value, expr) takes it back, where expr parses an
# expression argument.
_FIELDS = {
    "index": (int, lambda w, expr: int(w)),
    "frm": _LINE, "impl": _LINE,
    "x": _NAME, "op": _NAME,
    "i": (int, lambda v, expr: _typed(v, int)),
    "a": _EXPR, "b1": _EXPR, "b2": _EXPR,
    "xs": _NAMES, "ys": _NAMES, "zs": _NAMES,
    "before": _SLOTS, "after": _SLOTS,
}


def just_to_text(just) -> str:
    keyword = _keywords()[type(just)]
    args = {f.name: _FIELDS[f.name][0](getattr(just, f.name)) for f in fields(just)}
    if keyword in _WORD_RULES:
        return " ".join([keyword, *map(str, args.values())])
    return f"{keyword} {json.dumps(args)}"


def just_from_text(sig: Signature, text: str, memo: dict):
    """The justification written as text; its expression arguments are
    parsed through memo (see parse_expr)."""
    keyword, _, tail = text.strip().partition(" ")
    cls = rules().get(keyword)
    if cls is None:
        raise FormatError(f"unknown rule {keyword!r}")
    names = [f.name for f in fields(cls)]
    expr = partial(parse_expr, sig, memo=memo)
    try:
        if keyword in _WORD_RULES:
            values = tail.split()
            if len(values) != len(names):
                raise ValueError(f"expected {len(names)} words, got {tail.strip()!r}")
        else:
            try:
                d = json.loads(tail)
            except RecursionError:  # json's C decoder recurses once per level
                raise FormatError("input nested too deep") from None
            if type(d) is not dict or d.keys() != set(names):
                raise TypeError(f"expected a JSON object with keys {names}")
            values = [d[n] for n in names]
        return cls(*(_FIELDS[n][1](v, expr) for n, v in zip(names, values)))
    except (TypeError, ValueError) as exc:
        # JSONDecodeError is a ValueError
        raise FormatError(f"bad arguments for {keyword!r}: {exc!r}") from None


# a step up to its first ';', which no expression contains
_STEP = re.compile(r"(\d+)\.\s+(.*)")


def parse_proof(text: str, theory: Theory) -> Proof:
    from .calculus import Proof, ProofLine
    sig = theory.signature
    premises = []
    lines = []
    memo = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        raw = raw.split("#", 1)[0].strip()
        if not raw:
            continue
        try:
            if raw.startswith("premise "):
                if lines:
                    raise FormatError("premises must come first")
                premises.append(parse_expr(sig, raw[len("premise "):], memo))
                continue
            step, semicolon, just_text = raw.partition(";")
            m = _STEP.fullmatch(step)
            if not (m and semicolon):
                raise FormatError("expected '<n>. <formula> ; <rule>'")
            n, formula_text = m.groups()
            if int(n) != len(lines) + 1:
                raise FormatError(f"step numbered {n}, expected {len(lines) + 1}")
            formula = parse_expr(sig, formula_text, memo)
            lines.append(ProofLine(formula, just_from_text(sig, just_text, memo)))
        except (FormatError, ExprError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return Proof(theory, tuple(premises), tuple(lines))


def print_proof(p: Proof) -> str:
    out = ["premise " + print_expr(e) for e in p.premises]
    for i, line in enumerate(p.lines):
        out.append(f"{i + 1}. {print_expr(line.formula)} ; "
                   f"{just_to_text(line.justification)}")
    return "\n".join(out) + "\n"


def save(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)
