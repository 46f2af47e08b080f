"""Finite normal structures and perspective-based evaluation.

A structure assigns a finite carrier to every sort (the formula sort carries
the two truth values), selected function sets M_gamma^sigma to sort/
binder-sort-sequence pairs, and to each operation either a carrier element or
a functional over argument tuples, where a slot binding variables is fed a
function table rather than an element.  Evaluation works at one assignment:
a variable reads it, an operation applies its interpretation, and a binder
slot is fed the table of its body over its binders' carriers.  Under a
perspective (a variable sequence covering the free variables) the value is
the table of these values over the perspective's carriers.

Structure's constructor is the one place a structure is built.  It
completes the carriers and checks that each lists distinct atoms, the
formula sort's two, false then true; that it is given interpretations of
user operations only and that they lie in the carriers; and that every
selected set M_gamma^sigma has a sort gamma and variable sorts sigma and
holds only tables from the carriers of sigma into gamma's.  Every table it
takes, in a selected set or as a binder slot's argument, is total, as in
the paper's models: Structure.is_table, the one test of a table against
the carriers, requires the shared product of sigma's carriers as its keys
and values in gamma's carrier.  The logical symbols take no
interpretation: the constructor gives each its fixed meaning, a small
table for a connective (from signature.CONNECTIVES) or eq_<sort>, and for
forall^a and exists^a a functional defined exactly on M_pi^(a), whose rows
are computed as they are asked for, so no function space is enumerated.
interp shows the user operations only.  Nothing after the constructor has to restore these.  A
structure is full iff it declares no selected set: every selected set is
then the whole function space, and the closure laws (constants,
projections, partial fixing, composition) hold by construction.  Whether
an explicit structure's selected sets are closed is taken as given;
check_closure audits it on request.

A function table (FnTable) keeps its argument tuples sorted, as keys, and its
values aligned with them.  Tables with the same argument tuples share one
keys object, which indexes itself on first use by the contiguous block of
keys that start with each prefix: applying a table reads the one-row block
of its argument tuple, partial fixing slices the block of the fixed
arguments, and the audit composes tables column by column.  Every
total table is built one way: tabulate computes its values in the order of
carrier_product, the shared sorted product of its carriers, which
Structure.product_keys caches per structure; fix and _compose build their
results in the same aligned form.  Only a parsed table is built from a
mapping, whose rows from_map sorts; a structure admits it only if its keys
are then the shared product.

Each structure memoizes evaluation: _value stores the value of an operation
node in the structure's _values, keyed on the node when it is closed and
otherwise on the node and the values the assignment gives its free
variables.  Expressions are hash-consed, so the node part of a key hashes in
O(1).  The memo is sound because a structure never changes after
construction: Structure is frozen, and its constructor copies what it is
given and hands out carriers, interp (each operation's rows too) and
selected as read-only mappings.  A value is stored only once it is computed,
so an evaluation that raised, on a name the structure does not interpret,
stored nothing.  A structure built from another (restrict_structure,
materialize_selected, extend_structure_for_henkin) starts with an empty
memo, and no cache takes part in a structure's ==.
"""
from __future__ import annotations

import itertools
import math
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType

from .signature import (
    PROP, CONNECTIVES, FunlogError, Signature, forall_op, exists_op, eq_op, extends, sorted_vars,
)
from .syntax import Expr, ForeignSignature, fv, in_class, perspective_sorts, print_expr


class SemanticsError(FunlogError):
    pass


class MissingInterpretation(SemanticsError):
    pass


class InterpretationOutOfCarrier(SemanticsError):
    pass


class NotInPerspective(SemanticsError):
    pass


class SelectedSetMiss(SemanticsError):
    pass


class NotAnExtension(SemanticsError):
    pass


class SpaceTooLarge(SemanticsError):
    pass


class _Keys(tuple):
    """A sorted, duplicate-free sequence of argument tuples, the keys of a
    table.  _shared keeps one object per distinct sequence, so tables
    compare keys by identity.  It indexes itself once per prefix length, on
    first use: per prefix, the contiguous block of the tuples that start
    with it (for fix, and for apply, whose prefix is a whole tuple)."""

    def block(self, prefix: tuple):
        """(start, stop, rest): the slice of the tuples that start with
        prefix, and the shared sequence of their remainders; empty when no
        tuple starts with prefix."""
        try:
            return self._blocks[prefix]
        except AttributeError:
            self._blocks, self._indexed = {}, set()
        except KeyError:
            pass
        k, start = len(prefix), 0
        if k not in self._indexed:  # index every prefix of this length, once
            self._indexed.add(k)
            for head, block in itertools.groupby(self, key=lambda args: args[:k]):
                rest = _shared(tuple(args[k:] for args in block))
                self._blocks[head] = (start, start + len(rest), rest)
                start += len(rest)
        return self._blocks.get(prefix, (0, 0, _shared(())))


# Sorted argument-tuple sequence -> its one shared _Keys.  It grows with the
# distinct key sequences a process meets, a few per structure.
_KEYS: dict[tuple, _Keys] = {}


def _shared(ordered: tuple) -> _Keys:
    keys = _KEYS.get(ordered)
    return _KEYS.setdefault(ordered, _Keys(ordered)) if keys is None else keys


def carrier_product(carriers: dict, domain_sorts) -> _Keys:
    """The shared sorted product of the carriers of domain_sorts: the keys
    of every total table over them."""
    return _shared(tuple(itertools.product(*(sorted(carriers[s]) for s in domain_sorts))))


class FnTable:
    """A function from argument tuples to values, stored as the sorted
    argument tuples (keys) and the values aligned with them.  A table over
    the whole carrier product is total; a partial one lists fewer tuples,
    and no structure admits it.  keys is shared by every table with the
    same key sequence, so fix slices a block of it and two tables compare
    keys by identity.  Tables are values: equal fields mean equal tables, the hash
    is computed once, and no field changes after construction."""
    __slots__ = ("domain_sorts", "codomain_sort", "keys", "values", "_hash")

    def __init__(self, domain_sorts: tuple, codomain_sort: str, keys: _Keys,
                 values: tuple):
        self.domain_sorts = domain_sorts
        self.codomain_sort = codomain_sort
        self.keys = keys
        self.values = values
        self._hash = hash((domain_sorts, codomain_sort, values))

    @classmethod
    def from_map(cls, domain_sorts, codomain_sort, mapping, keys=None) -> "FnTable":
        """The one way a table is built: from mapping, the values aligned with
        keys, a shared key sequence; or without keys, from mapping, a dict of
        rows (a parsed table, maybe partial), which are sorted."""
        if keys is None:
            rows = sorted(mapping.items())
            keys, mapping = _shared(tuple(k for k, _ in rows)), tuple(v for _, v in rows)
        return cls(tuple(domain_sorts), codomain_sort, keys, mapping)

    @property
    def rows(self) -> tuple:
        return tuple(zip(self.keys, self.values))

    def apply(self, args) -> str:
        start, stop, _ = self.keys.block(tuple(args))
        if start == stop:
            raise KeyError(args)
        return self.values[start]

    def fix(self, prefix) -> "FnTable":
        """Partial fixing: freeze the first len(prefix) arguments."""
        start, stop, rest = self.keys.block(tuple(prefix))
        return FnTable.from_map(self.domain_sorts[len(prefix):], self.codomain_sort,
                                self.values[start:stop], keys=rest)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not FnTable:
            return NotImplemented
        return (self._hash == other._hash and self.keys is other.keys
                and self.values == other.values
                and self.codomain_sort == other.codomain_sort
                and self.domain_sorts == other.domain_sorts)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        # fileio.print_structure orders tables by this text
        return (f"FnTable(domain_sorts={self.domain_sorts!r}, "
                f"codomain_sort={self.codomain_sort!r}, rows={self.rows!r})")


def tabulate(keys: _Keys, domain_sorts, codomain_sort, fn) -> FnTable:
    """The total table over keys, a carrier product, whose row xs is
    fn(xs), computed in the order of keys."""
    return FnTable.from_map(domain_sorts, codomain_sort, tuple(map(fn, keys)), keys=keys)


def constant_table(domain_sorts, carriers, value, codomain_sort) -> FnTable:
    return tabulate(carrier_product(carriers, domain_sorts), domain_sorts, codomain_sort,
                    lambda args: value)


def projection_table(domain_sorts, carriers, j) -> FnTable:
    return tabulate(carrier_product(carriers, domain_sorts), domain_sorts, domain_sorts[j],
                    lambda args: args[j])


def _carriers_for(sig: Signature, carriers: dict) -> dict:
    """The carrier of every sort: the given nonempty tuple of distinct atom
    names, the formula sort's two atoms, false then true, defaulting to 0,1."""
    cs = {PROP: ("0", "1")}
    for sort in sorted(sig.sorts):
        atoms = tuple(carriers.get(sort, cs.get(sort, ())))
        if not atoms:
            raise MissingInterpretation(f"no carrier for sort {sort!r}")
        if len(set(atoms)) != len(atoms):
            raise InterpretationOutOfCarrier(f"carrier {sort} repeats an atom")
        if sort == PROP and len(atoms) != 2:
            raise InterpretationOutOfCarrier(f"carrier {PROP} needs two atoms, false then true")
        cs[sort] = atoms
    return cs


def _function_space(spaces: dict, carriers: dict, gamma, domain_sorts) -> tuple[FnTable, ...]:
    """Every table from the carriers of domain_sorts into gamma's, enumerated
    once per spaces, the cache of one structure."""
    key = (gamma, tuple(domain_sorts))
    if key not in spaces:
        rows = math.prod(len(carriers[s]) for s in domain_sorts)
        if len(carriers[gamma]) ** rows > 1 << 16:
            raise SpaceTooLarge(f"function space for {key} too large to enumerate")
        keys = carrier_product(carriers, domain_sorts)
        spaces[key] = tuple(FnTable.from_map(domain_sorts, gamma, values, keys=keys)
                            for values in itertools.product(carriers[gamma], repeat=rows))
    return spaces[key]


@dataclass(frozen=True)
class Structure:
    """carriers: per sort, a nonempty tuple of atoms (the formula sort's
    defaults to 0,1, false then true).  interp: per user operation, a
    carrier element (m=0) or a dict from argument tuples to carrier
    elements, a binder slot's argument being a total table over its binder
    sorts; the logical symbols take none.  selected: per (gamma, sigma), a
    set of total tables.  The constructor copies what it is given and
    hands out carriers, interp, each operation's rows and selected
    read-only; no field is rebound after it returns."""
    signature: Signature
    carriers: Mapping[str, tuple[str, ...]]
    interp: Mapping[str, object]
    selected: Mapping[tuple[str, tuple[str, ...]], frozenset[FnTable]] = field(
        default_factory=dict)
    # the full spaces already enumerated over these carriers:
    # make_full_structure adds those it tabulated over
    _spaces: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _products: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # _value's memo: a node's value at an assignment of its free variables
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # every operation's meaning, which evaluation reads: interp's, and the
    # logical symbols' (a read-only mapping's bound __getitem__ is slower)
    _interp: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        init = partial(object.__setattr__, self)
        init("carriers", MappingProxyType(_carriers_for(self.signature, self.carriers)))
        init("selected", MappingProxyType(
            {key: frozenset(tables) for key, tables in self.selected.items()}))
        user = {name: dict(v) if isinstance(v, Mapping) else v
                for name, v in self.interp.items()}
        init("interp", MappingProxyType({name: MappingProxyType(v) if isinstance(v, dict) else v
                                         for name, v in user.items()}))
        _check_in_carriers(self)
        _check_selected(self)
        init("_interp", {**user, **_logical_meanings(self)})

    @property
    def full(self) -> bool:
        return not self.selected

    @property
    def false_atom(self) -> str:
        return self.carriers[PROP][0]

    @property
    def true_atom(self) -> str:
        return self.carriers[PROP][1]

    def product_keys(self, domain_sorts: tuple) -> _Keys:
        """carrier_product over these carriers, cached per structure."""
        keys = self._products.get(domain_sorts)
        if keys is None:
            keys = self._products[domain_sorts] = carrier_product(self.carriers, domain_sorts)
        return keys

    def space_size(self, gamma, domain_sorts) -> int:
        return len(self.carriers[gamma]) ** math.prod(
            len(self.carriers[s]) for s in domain_sorts)

    def full_space(self, gamma, domain_sorts) -> tuple[FnTable, ...]:
        return _function_space(self._spaces, self.carriers, gamma, domain_sorts)

    def selected_tables(self, gamma, domain_sorts):
        """The selected set for (gamma, domain_sorts), or None meaning the
        whole space (full structures and undeclared pairs)."""
        return self.selected.get((gamma, tuple(domain_sorts)))

    def has_table(self, gamma, domain_sorts, tbl: FnTable) -> bool:
        """Whether tbl is in M_gamma^domain_sorts: the declared set, or when
        none is declared, the whole space."""
        domain_sorts = tuple(domain_sorts)
        declared = self.selected.get((gamma, domain_sorts))
        if declared is None:
            return self.is_table(gamma, domain_sorts, tbl)
        return tbl in declared

    def is_table(self, gamma, domain_sorts: tuple, tbl) -> bool:
        """Whether tbl is a table from the carriers of domain_sorts into
        gamma's: of these sorts, over their shared product as keys, with
        its values in gamma's carrier."""
        return (getattr(tbl, "codomain_sort", None) == gamma
                and tbl.domain_sorts == domain_sorts
                and tbl.keys is self.product_keys(domain_sorts)
                and set(tbl.values).issubset(self.carriers[gamma]))


def _check_in_carriers(s: Structure):
    """Raise InterpretationOutOfCarrier unless every interpretation is of a
    user operation and every row of it lies in s's carriers: its value and
    each plain argument in the carrier of its sort, and each binder slot's
    argument a table from the carriers of the slot's binder sorts into the
    carrier of its sort."""
    cs = s.carriers
    for name, value in s.interp.items():
        spec = s.signature.user_ops.get(name)
        if spec is None:
            raise InterpretationOutOfCarrier(
                f"{name!r} is a logical symbol, which takes no interpretation"
                if name in s.signature.ops else f"unknown operation {name!r}")
        for args, v in value.items() if spec.args else [((), value)]:
            if v not in cs[spec.result] or len(args) != spec.arity or not all(
                    s.is_table(sort, bsorts, a) if bsorts else a in cs[sort]
                    for a, (sort, bsorts) in zip(args, spec.args)):
                raise InterpretationOutOfCarrier(
                    f"{name!r}{args or ''} -> {v!r} lies outside the carriers "
                    "or takes a table that lacks a row of their product")


def _check_selected(s: Structure):
    """Raise InterpretationOutOfCarrier, naming the set, unless every
    selected set M_gamma^sigma has a sort gamma and a tuple sigma of
    variable sorts, and holds only tables from the carriers of sigma into
    gamma's."""
    sig = s.signature
    for (gamma, sigma), tables in s.selected.items():
        name = f"selected {gamma}^({','.join(sigma)})"
        if gamma not in sig.sorts or not all(t in sig.var_sorts for t in sigma):
            raise InterpretationOutOfCarrier(
                f"{name} lies outside the signature: it needs a sort and variable sorts")
        for tbl in tables:
            if not s.is_table(gamma, sigma, tbl):
                raise InterpretationOutOfCarrier(
                    f"{name} holds {tbl!r}, which lies outside the carriers "
                    "or lacks a row of their product")


class _Quantifier(dict):
    """The meaning of forall^a (holds = all) or exists^a (holds = any): a
    table of M_pi^(a) maps to true iff holds of its values being true.  A
    row is computed the first time it is asked for; a key that is not a
    table of M_pi^(a) raises KeyError, which evaluation reports as a
    SelectedSetMiss.  The structure is referred to weakly, so that its
    _interp, which holds this dict, makes no cycle with it."""
    __slots__ = ("_structure", "_sorts", "_holds")

    def __init__(self, s: Structure, a: str, holds):
        super().__init__()
        self._structure, self._sorts, self._holds = weakref.ref(s), (a,), holds

    def __missing__(self, args):
        s = self._structure()
        if not s.has_table(PROP, self._sorts, args[0]):
            raise KeyError(args)
        t = s.true_atom
        value = self[args] = t if self._holds(v == t for _, v in args[0].rows) else s.false_atom
        return value


def _logical_meanings(s: Structure) -> dict:
    """Every logical symbol's fixed meaning over s's carriers: a table for
    each connective (its truth function at one row) and eq_<sort>, a
    _Quantifier for forall^a and exists^a."""
    f, t = s.false_atom, s.true_atom
    meaning = {}
    for name, (arity, truth) in CONNECTIVES.items():
        rows = {xs: (f, t)[truth(1, *(x == t for x in xs))]
                for xs in itertools.product((f, t), repeat=arity)}
        meaning[name] = rows if arity else rows[()]
    for a in s.signature.sorts:
        meaning[eq_op(a)] = {(x, y): t if x == y else f
                             for x in s.carriers[a] for y in s.carriers[a]}
    for a in s.signature.var_sorts:
        meaning[forall_op(a)] = _Quantifier(s, a, all)
        meaning[exists_op(a)] = _Quantifier(s, a, any)
    return meaning


def make_full_structure(sig: Signature, carriers: dict, interp: dict) -> Structure:
    """The full structure whose user operations tabulate interp over the
    full spaces.  carriers: as for Structure.  interp: per user operation, a
    carrier element (m=0) or a dict/callable over argument tuples (function
    tables for binder slots); a dict gives exactly the rows of the full
    spaces."""
    cs, spaces, tabulated = _carriers_for(sig, carriers), {}, {}
    for name, spec in sig.user_ops.items():
        if name not in interp:
            raise MissingInterpretation(f"no interpretation for {name!r}")
        given = interp[name]
        if spec.arity == 0:
            tabulated[name] = given
            continue
        slot_ranges = [_function_space(spaces, cs, arg_sort, bsorts) if bsorts else cs[arg_sort]
                       for arg_sort, bsorts in spec.args]
        table = tabulated[name] = {}
        for args in itertools.product(*slot_ranges):
            if isinstance(given, dict) and args not in given:
                raise MissingInterpretation(f"no value for {name!r}{args}")
            table[args] = given[args] if isinstance(given, dict) else given(*args)
        if isinstance(given, dict) and len(given) > len(table):
            args = next(args for args in given if args not in table)
            raise InterpretationOutOfCarrier(
                f"{name!r}{args} -> {given[args]!r} lies outside the full function spaces")
    s = Structure(sig, cs, tabulated)
    s._spaces.update(spaces)
    return s


def _apply_op(s: Structure, op: str, args: tuple) -> str:
    interp = s._interp.get(op)
    if interp is None:
        raise MissingInterpretation(f"no interpretation for {op!r}")
    if not args:
        return interp
    try:
        return interp[args]
    except KeyError:
        raise _miss(op) from None


def _miss(op: str) -> SelectedSetMiss:
    return SelectedSetMiss(
        f"argument tuple outside the domain of {op!r} "
        "(a required table is missing from its selected set)")


def evaluate(s: Structure, e: Expr, p):
    """Value of e under perspective p: a carrier element for the empty
    perspective, otherwise the function table over the perspective carriers
    whose row xs is e's value at the assignment of xs to p."""
    p = tuple(p)
    # a component that is not a variable is reported as such, not as uncovered
    sorts = perspective_sorts(s.signature, p) if p else ()
    if not in_class(e, p):
        raise NotInPerspective(f"{print_expr(e)} not covered by perspective {p}")
    if not p:
        return _value(s, e, {})
    # dict(zip(...)) keeps the rightmost occurrence of a repeated variable
    return tabulate(s.product_keys(sorts), sorts, e.sort,
                    lambda xs: _value(s, e, dict(zip(p, xs))))


def _value(s: Structure, e: Expr, env: dict):
    """Value of e at the assignment env, which covers e's free variables.  A
    slot binding variables is fed the table of its body over the carriers of
    its binder sorts, each row taken at env extended by the binders.

    The value of an operation node is memoized in s._values, keyed on the
    node when it is closed and otherwise on the node and the values env gives
    its free variables, read in the fixed order of the node's fv set.  This
    is sound because a structure never changes after construction, and a
    value is stored only once _apply_op returns: a node whose evaluation
    raised was not stored, and is evaluated afresh."""
    spec = s.signature.ops.get(e.head)
    if spec is None:
        if e.head in env:
            return env[e.head]
        raise ForeignSignature(f"symbol {e.head!r} not in the structure's signature")
    key = (e, *map(env.__getitem__, e.fv)) if e.fv else e
    value = s._values.get(key)
    if value is not None:
        return value
    args = []
    for (binders, body), (_, bsorts) in zip(e.args, spec.args):
        if bsorts:
            args.append(tabulate(
                s.product_keys(bsorts), bsorts, body.sort,
                lambda xs: _value(s, body, {**env, **dict(zip(binders, xs))})))
        else:
            args.append(_value(s, body, env))
    value = s._values[key] = _apply_op(s, e.head, tuple(args))
    return value


def _compose(s: Structure, op: str, sorts: tuple, tables) -> FnTable:
    """Composition through op: the table over sorts whose row xs is op
    applied to each argument table's value at xs, where a binder slot's
    table is instead partially fixed at xs.  It is built column by column
    over the sorted carrier product: every table of a structure is total,
    so a plain slot's column is its table's values."""
    spec = s.signature.ops[op]
    keys = s.product_keys(sorts)
    columns = []
    for (_, binds), g in zip(spec.args, tables):
        columns.append([g.fix(xs) for xs in keys] if binds else g.values)
    interp = s._interp.get(op)
    if interp is None:
        raise MissingInterpretation(f"no interpretation for {op!r}")
    try:
        values = tuple(map(interp.__getitem__, zip(*columns)))
    except KeyError:
        raise _miss(op) from None
    return FnTable.from_map(sorts, spec.result, values, keys=keys)


def satisfies(s: Structure, phi: Expr) -> bool:
    """Truth under every assignment: evaluate over the canonical covering
    perspective (the sorted free variables) and require constant truth."""
    if phi.sort != PROP:
        raise SemanticsError("satisfaction is defined for formulas only")
    p = sorted_vars(fv(phi))
    val = evaluate(s, phi, p)
    if not p:
        return val == s.true_atom
    return all(v == s.true_atom for v in val.values)


def satisfies_theory(s: Structure, t) -> bool:
    """Whether s satisfies every axiom of the theory t (a calculus.Theory)."""
    return all(satisfies(s, a) for a in t.axioms)


def restrict_structure(s: Structure, to: Signature) -> Structure:
    if not extends(to, s.signature):
        raise NotAnExtension("target signature is not a reduct of the structure's")
    interp = {name: v for name, v in s.interp.items() if name in to.ops}
    return Structure(to, s.carriers, interp, s.selected)


# --- closure checking -------------------------------------------------------

@dataclass
class ClosureReport:
    violations: list[str]
    skipped: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok


# The largest full function space, in tables, that check_closure and
# materialize_selected enumerate; check_closure skips (and reports) a larger
# one, and a composition over more than 8 times as many argument tuples.
AUDIT_SPACE = 512


def _sigma_sequences(sig: Signature, cap: int):
    vs = sorted(sig.var_sorts)
    for n in range(1, cap + 1):
        yield from itertools.product(vs, repeat=n)


def check_closure(s: Structure, cap: int = 2) -> ClosureReport:
    """Audit the selected-set laws up to perspective length ``cap``.  Every
    table of s is total (the constructor), so each law is a membership test,
    and a composition fails only where op's functional has no row for a
    composable tuple."""
    sig = s.signature
    report = ClosureReport([], [])

    def tables_of(gamma, dom):
        declared = s.selected_tables(gamma, dom)
        if declared is not None:
            return declared
        if s.space_size(gamma, dom) > AUDIT_SPACE:
            return None
        return s.full_space(gamma, dom)

    for sigma in _sigma_sequences(sig, cap):
        # constants
        for gamma in sig.sorts:
            for w in s.carriers[gamma]:
                tbl = constant_table(sigma, s.carriers, w, gamma)
                if not s.has_table(gamma, sigma, tbl):
                    report.violations.append(
                        f"constant: cst_{w} missing from M_{gamma}^{sigma}")
        # projections
        for j, srt in enumerate(sigma):
            tbl = projection_table(sigma, s.carriers, j)
            if not s.has_table(srt, sigma, tbl):
                report.violations.append(
                    f"projection: pj_{j + 1} missing from M_{srt}^{sigma}")
        # partial fixing: split sigma into a fixed prefix and a remainder
        for gamma in sig.sorts:
            pool = tables_of(gamma, sigma)
            if pool is None:
                report.skipped.append(f"fixing over M_{gamma}^{sigma}")
                continue
            for k in range(1, len(sigma)):
                prefix, rest = sigma[:k], sigma[k:]
                for g in pool:
                    for xs in s.product_keys(prefix):
                        if not s.has_table(gamma, rest, g.fix(xs)):
                            report.violations.append(
                                f"fixing: fixing M_{gamma}^{sigma} at {xs} "
                                f"leaves M_{gamma}^{rest}")
        # composition through every operation
        for op, spec in sig.ops.items():
            if spec.arity == 0:
                continue
            pools = [tables_of(arg_sort, sigma + tuple(bsorts))
                     for arg_sort, bsorts in spec.args]
            if None in pools or math.prod(map(len, pools)) > AUDIT_SPACE * 8:
                report.skipped.append(f"composition through {op} at {sigma}")
                continue
            for gs in itertools.product(*pools):
                try:
                    tbl = _compose(s, op, sigma, gs)
                except SelectedSetMiss:
                    report.violations.append(
                        f"composition: functional of {op} undefined on a "
                        f"composable tuple at {sigma}")
                    continue
                if not s.has_table(spec.result, sigma, tbl):
                    report.violations.append(
                        f"composition: composite through {op} missing from "
                        f"M_{spec.result}^{sigma}")
    return report


def materialize_selected(s: Structure, cap: int = 2) -> Structure:
    """Rewrite a full structure as an explicit one: enumerate every selected
    set of perspective length <= cap as a concrete table set."""
    selected = {}
    for sigma in _sigma_sequences(s.signature, cap):
        for gamma in s.signature.sorts:
            if s.space_size(gamma, sigma) <= AUDIT_SPACE:
                selected[(gamma, sigma)] = frozenset(s.full_space(gamma, sigma))
    return Structure(s.signature, s.carriers, s.interp, selected)
