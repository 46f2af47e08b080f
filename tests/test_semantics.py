import gc
import itertools
import os
import random
import re
import subprocess
import sys
import time
import weakref
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, dataclass, fields, replace

import pytest

from funlog import fileio
from funlog.signature import (
    PROP, CONNECTIVES, Signature, eq_op, exists_op, forall_op, variable_sort,
)
from funlog.syntax import (
    ExprError, Theory, parse_expr, print_expr, ForeignSignature, in_class,
    perspective_sorts,
)
from funlog.subst import fv, substitute1
from funlog.semantics import (
    FnTable, Structure, constant_table, projection_table, make_full_structure,
    evaluate, satisfies, satisfies_theory, restrict_structure, check_closure,
    materialize_selected, MissingInterpretation, InterpretationOutOfCarrier,
    NotInPerspective, SelectedSetMiss, NotAnExtension, SpaceTooLarge,
    SemanticsError, AUDIT_SPACE, ClosureReport, _apply_op, _compose,
    _sigma_sequences,
)
from funlog.gen import (
    rand_structure_signature, rand_full_structure, rand_expr,
    rand_satisfied_theory, suite_closure, _pool,
)
from funlog.henkin import (
    ThOracle, TermModelContext, build_term_structure, enumerate_exprs,
)


def reference_evaluate(s: Structure, e, p):
    """The table evaluator that evaluate replaced, kept as its reference:
    every subexpression is tabulated over the whole perspective, a binder
    slot's body over the perspective extended by the slot's binders, and
    _compose discharges the slot by partial fixing."""
    p = tuple(p)
    if not in_class(e, p):
        raise NotInPerspective(f"{print_expr(e)} not covered by perspective {p}")
    sig = s.signature
    if e.head not in sig.ops and variable_sort(sig, e.head) is None:
        raise ForeignSignature(f"symbol {e.head!r} not in the structure's signature")
    sorts = perspective_sorts(sig, p)
    if not p:
        return _apply_op(s, e.head, tuple(
            reference_evaluate(s, body, binders) for binders, body in e.args))
    if not e.args:
        if variable_sort(sig, e.head) is not None:
            k = max(j for j, u in enumerate(p) if u == e.head)
            return projection_table(sorts, s.carriers, k)
        return constant_table(sorts, s.carriers, _apply_op(s, e.head, ()), e.sort)
    return _compose(s, e.head, sorts, [
        reference_evaluate(s, body, p + binders) for binders, body in e.args])


def outcome(f, s, e, p):
    """f's value, or the class of the evaluation error it raises."""
    try:
        return f(s, e, p)
    except (SemanticsError, ExprError) as exc:
        return type(exc)


def agree_twice(s, cases, *context):
    """evaluate gives the reference's outcome for each (e, p) of cases on s,
    tabulated over s's product keys, in a pass in order and then in one in
    reverse, so that later evaluations read what earlier ones memoized."""
    want = [outcome(reference_evaluate, s, e, p) for e, p in cases]
    for i in [*range(len(cases)), *reversed(range(len(cases)))]:
        e, p = cases[i]
        got = outcome(evaluate, s, e, p)
        assert got == want[i], (*context, print_expr(e), p)
        if isinstance(got, FnTable):
            assert got.keys is s.product_keys(got.domain_sorts)


def random_perspective(rng, sig, e) -> tuple:
    """e's free variables, some of them repeated, and variables e does not
    need, in random order."""
    p = sorted(fv(e))
    p += [rng.choice(p) for _ in range(rng.randint(0, 2))] if p else []
    p += rng.sample(_pool(sig), rng.randint(0, 2))
    rng.shuffle(p)
    return tuple(p)


# --- the tables that the keys/values FnTable replaced -----------------------

@dataclass(frozen=True)
class RefFnTable:
    """The dataclass FnTable that the keys/values table replaced, kept as its
    reference: rows sorted at construction, fix an O(rows) filter and
    re-sort."""
    domain_sorts: tuple[str, ...]
    codomain_sort: str
    rows: tuple[tuple[tuple[str, ...], str], ...]

    def __post_init__(self):
        object.__setattr__(self, "_lookup", dict(self.rows))

    @classmethod
    def from_map(cls, domain_sorts, codomain_sort, mapping) -> "RefFnTable":
        rows = tuple(sorted((tuple(k), v) for k, v in mapping.items()))
        return cls(tuple(domain_sorts), codomain_sort, rows)

    def apply(self, args) -> str:
        return self._lookup[tuple(args)]

    def fix(self, prefix) -> "RefFnTable":
        k = len(prefix)
        prefix = tuple(prefix)
        rows = {args[k:]: v for args, v in self.rows if args[:k] == prefix}
        return RefFnTable.from_map(self.domain_sorts[k:], self.codomain_sort, rows)


RefFnTable.__qualname__ = "FnTable"  # so that its repr is the dataclass form


def reference_compose(s, op, sorts, tables) -> RefFnTable:
    """_compose row by row over the carrier product, as it was."""
    spec = s.signature.ops[op]
    dom = list(itertools.product(*[s.carriers[t] for t in sorts]))
    rows = {}
    for xs in dom:
        args = []
        for (_, binds), g in zip(spec.args, tables):
            args.append(g.fix(xs) if binds else g.apply(xs))
        rows[xs] = _apply_op(s, op, tuple(args))
    return RefFnTable.from_map(sorts, spec.result, rows)


class RefStructure(Structure):
    """A structure whose tables are RefFnTables, which it tests against its
    carriers row by row."""

    def full_space(self, gamma, domain_sorts):
        key = (gamma, tuple(domain_sorts))
        if key not in self._spaces:
            dom = list(itertools.product(*(self.carriers[s] for s in domain_sorts)))
            self._spaces[key] = tuple(
                RefFnTable.from_map(domain_sorts, gamma, dict(zip(dom, values)))
                for values in itertools.product(self.carriers[gamma], repeat=len(dom)))
        return self._spaces[key]

    def is_table(self, gamma, domain_sorts, tbl):
        dom = itertools.product(*(self.carriers[s] for s in domain_sorts))
        return (getattr(tbl, "codomain_sort", None) == gamma
                and tbl.domain_sorts == tuple(domain_sorts)
                and sorted(args for args, _ in tbl.rows) == sorted(dom)
                and all(v in self.carriers[gamma] for _, v in tbl.rows))


def as_reference(s: Structure) -> RefStructure:
    """s with every table, in the interpretation and the selected sets, a
    RefFnTable."""
    def ref(v):
        if isinstance(v, FnTable):
            return RefFnTable.from_map(v.domain_sorts, v.codomain_sort, dict(v.rows))
        return v
    interp = {op: {tuple(map(ref, args)): val for args, val in v.items()}
              if isinstance(v, Mapping) else v for op, v in s.interp.items()}
    selected = {key: frozenset(map(ref, tables)) for key, tables in s.selected.items()}
    return RefStructure(s.signature, dict(s.carriers), interp, selected)


def reference_check_closure(s: RefStructure, cap: int) -> ClosureReport:
    """check_closure as it was, over RefFnTables."""
    sig = s.signature
    report = ClosureReport([], [])

    def tables_of(gamma, dom):
        declared = s.selected_tables(gamma, dom)
        if declared is not None:
            return declared
        if s.space_size(gamma, dom) > AUDIT_SPACE:
            return None
        return s.full_space(gamma, dom)

    def product(sorts):
        return itertools.product(*(s.carriers[t] for t in sorts))

    for sigma in _sigma_sequences(sig, cap):
        for gamma in sig.sorts:
            for w in s.carriers[gamma]:
                tbl = RefFnTable.from_map(sigma, gamma, {xs: w for xs in product(sigma)})
                if not s.has_table(gamma, sigma, tbl):
                    report.violations.append(
                        f"constant: cst_{w} missing from M_{gamma}^{sigma}")
        for j, srt in enumerate(sigma):
            tbl = RefFnTable.from_map(sigma, srt, {xs: xs[j] for xs in product(sigma)})
            if not s.has_table(srt, sigma, tbl):
                report.violations.append(
                    f"projection: pj_{j + 1} missing from M_{srt}^{sigma}")
        for gamma in sig.sorts:
            pool = tables_of(gamma, sigma)
            if pool is None:
                report.skipped.append(f"fixing over M_{gamma}^{sigma}")
                continue
            for k in range(1, len(sigma)):
                prefix, rest = sigma[:k], sigma[k:]
                for g in pool:
                    for xs in product(prefix):
                        if not s.has_table(gamma, rest, g.fix(xs)):
                            report.violations.append(
                                f"fixing: fixing M_{gamma}^{sigma} at {xs} "
                                f"leaves M_{gamma}^{rest}")
        for op, spec in sig.ops.items():
            if spec.arity == 0:
                continue
            pools = [tables_of(arg_sort, sigma + tuple(bsorts))
                     for arg_sort, bsorts in spec.args]
            if any(p is None for p in pools):
                report.skipped.append(f"composition through {op} at {sigma}")
                continue
            total = 1
            for p in pools:
                total *= len(p)
            if total > AUDIT_SPACE * 8:
                report.skipped.append(f"composition through {op} at {sigma}")
                continue
            for gs in itertools.product(*pools):
                try:
                    tbl = reference_compose(s, op, sigma, gs)
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


def audits_agree(s: Structure, cap: int):
    """check_closure and the reference give the same violations, in some
    order (selected sets iterate by hash), and the same skips."""
    got = check_closure(s, cap)
    want = reference_check_closure(as_reference(s), cap)
    assert sorted(got.violations) == sorted(want.violations)
    assert got.skipped == want.skipped
    return got


def reversed_form(s: Structure) -> Structure:
    """s with the carriers of the non-formula sorts in reverse, so that the
    carrier product is not in sorted order."""
    return Structure(
        s.signature, {k: v if k == PROP else v[::-1] for k, v in s.carriers.items()},
        dict(s.interp))


def without_table(s: Structure, key, tbl) -> Structure:
    """s with tbl dropped from the selected set named key."""
    return Structure(s.signature, s.carriers, s.interp,
                     {**s.selected, key: s.selected[key] - {tbl}})


def closure_forms(rng, s: Structure, cap: int):
    """The forms of the full structure s that the differential test audits."""
    yield "full", s
    yield "reversed", reversed_form(s)
    yield "materialized", materialize_selected(s, cap)
    # one table dropped from each selected set, with the interpretation rows
    # that take it, so that compositions miss
    m = materialize_selected(s, cap)
    for key in sorted(m.selected):
        gone = rng.choice(sorted(m.selected[key], key=repr))
        m = Structure(m.signature, m.carriers, {
            op: {args: v for args, v in rows.items() if gone not in args}
            if isinstance(rows, Mapping) else rows for op, rows in m.interp.items()},
            {**m.selected, key: m.selected[key] - {gone}})
    yield "dropped", m


class TestFnTable:
    def test_from_map_apply(self):
        t = FnTable.from_map(("a",), "a", {("0",): "1", ("1",): "0"})
        assert t.apply(("0",)) == "1"
        assert t.rows == ((("0",), "1"), (("1",), "0"))

    def test_rows_canonically_sorted(self):
        rows = {(x, y): x for x in "10" for y in "10"}
        t1 = FnTable.from_map(("a", "a"), "a", rows)
        t2 = FnTable.from_map(("a", "a"), "a", dict(sorted(rows.items())))
        assert t1 == t2 and hash(t1) == hash(t2)
        assert t1.keys is t2.keys
        assert t1.keys == (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
        assert t1.values == ("0", "0", "1", "1")

    def test_fix(self):
        t = FnTable.from_map(("a", "a"), "a",
                             {(x, y): y for x in "01" for y in "01"})
        fixed = t.fix(("0",))
        assert fixed.domain_sorts == ("a",)
        assert fixed.apply(("1",)) == "1"

    def test_helpers(self):
        carriers = {"a": ("0", "1")}
        c = constant_table(("a",), carriers, "1", "a")
        assert all(v == "1" for _, v in c.rows)
        p = projection_table(("a", "a"), carriers, 1)
        assert p.apply(("0", "1")) == "1"

    def test_equality_does_not_rest_on_the_hash(self):
        t1 = FnTable.from_map(("a",), "a", {("0",): "1", ("1",): "0"})
        t2 = FnTable.from_map(("a",), "a", {("0",): "0", ("1",): "0"})
        t3 = FnTable.from_map(("b",), "a", {("0",): "1", ("1",): "0"})
        t2._hash = t3._hash = hash(t1)  # forge a collision
        assert t1 != t2 and t1 != t3

    def test_repr_is_the_dataclass_form(self):
        # fileio.print_structure orders tables and interpretation rows by
        # repr, so the emitted .fls bytes depend on this text
        t = FnTable.from_map(("a",), "a", {("1",): "0", ("0",): "1"})
        assert repr(t) == ("FnTable(domain_sorts=('a',), codomain_sort='a', "
                           "rows=((('0',), '1'), (('1',), '0')))")
        assert repr(t) == repr(RefFnTable.from_map(("a",), "a", dict(t.rows)))

    def test_partial_table_from_fls(self):
        # a parsed table may be partial, but no structure admits one
        text = ("sort a\nvarsort a\nop c : a\ncarrier a = 0,1\ninterp c = 0\n"
                "selected a^(a) = {1->0}, {0->0,1->1}\n")
        with pytest.raises(InterpretationOutOfCarrier, match=re.escape(
                "selected a^(a) holds FnTable(domain_sorts=('a',), codomain_sort='a', "
                "rows=((('1',), '0'),)), which lies outside the carriers or lacks a row")):
            fileio.parse_structure(text)
        s = fileio.parse_structure(text.replace("{1->0}, ", ""))
        total, = s.selected[("a", ("a",))]
        partial = FnTable.from_map(("a",), "a", {("1",): "0"})
        assert partial.apply(("1",)) == "0"
        with pytest.raises(KeyError):
            partial.apply(("0",))
        assert total.keys is s.product_keys(("a",))
        assert partial.keys is not total.keys
        assert not s.has_table("a", ("a",), partial)
        assert not s.is_table("a", ("a",), partial)

    def test_selected_tables_have_their_sets_sorts(self, small_structure):
        s, rows = small_structure, {("0",): "1", ("1",): "0"}
        for table in (FnTable.from_map(("a",), PROP, rows),
                      FnTable.from_map(("a", "a"), "a", {("0", "0"): "1"}),
                      FnTable.from_map((), "a", {(): "0"})):
            with pytest.raises(InterpretationOutOfCarrier, match=r"^selected a\^\(a\) holds"):
                Structure(s.signature, s.carriers, {}, {("a", ("a",)): frozenset({table})})

    def test_a_missing_tuple_is_not_stored(self):
        """A miss at an indexed prefix length answers the shared empty
        block and leaves the index as it was."""
        carrier = [f"keys-test-{i}" for i in range(10)]
        t = FnTable.from_map(("a", "a"), "a", {(x, y): x for x in carrier for y in carrier})
        assert t.apply((carrier[3], carrier[4])) == carrier[3]
        assert len(t.keys._blocks) == 100
        for i in range(50):
            with pytest.raises(KeyError):
                t.apply((carrier[i % 10], f"absent-{i}"))
        assert len(t.keys._blocks) == 100

    def test_fix_of_an_absent_prefix_is_empty(self):
        t = FnTable.from_map(("a", "b"), "a", {("0", "x"): "1", ("0", "y"): "0"})
        empty = t.fix(("1",))
        assert empty.rows == () and empty.domain_sorts == ("b",)
        assert empty == FnTable.from_map(("b",), "a", {})
        assert repr(empty) == repr(RefFnTable.from_map(
            ("a", "b"), "a", dict(t.rows)).fix(("1",)))
        assert t.fix(("0",)).rows == ((("x",), "1"), (("y",), "0"))

    def test_agrees_with_the_reference(self):
        rng = random.Random(5)
        carriers = {"a": ("1", "0"), "b": ("x", "y", "z")}
        for _ in range(300):
            dom = tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            args = list(itertools.product(*(carriers[s] for s in dom)))
            if rng.random() < 0.3:  # a partial table
                args = rng.sample(args, rng.randint(0, len(args)))
            rng.shuffle(args)
            mapping = {xs: rng.choice("01") for xs in args}
            t, r = FnTable.from_map(dom, "a", mapping), RefFnTable.from_map(dom, "a", mapping)
            assert t.rows == r.rows and repr(t) == repr(r)
            for xs in args:
                assert t.apply(xs) == r.apply(xs) == mapping[xs]
            for k in range(len(dom) + 1):
                for xs in itertools.product(*(carriers[s] for s in dom[:k])):
                    assert repr(t.fix(xs)) == repr(r.fix(xs))
            # == and hash agree with the reference's on a second, related table
            other = dict(mapping)
            if other and rng.random() < 0.5:
                xs = rng.choice(sorted(other))
                other[xs] = "1" if other[xs] == "0" else "0"
            t2 = FnTable.from_map(dom, "a", dict(reversed(other.items())))
            r2 = RefFnTable.from_map(dom, "a", other)
            assert (t == t2) == (r == r2) and (t != t2) == (r != r2)
            assert hash(t) == hash(t2) or t != t2
            assert t != r and t != tuple(t.rows)


class TestMakeFullStructure:
    def test_missing_carrier(self, small_sig):
        with pytest.raises(MissingInterpretation):
            make_full_structure(small_sig, {}, {})

    def test_missing_interp(self, small_sig):
        with pytest.raises(MissingInterpretation):
            make_full_structure(small_sig, {"a": ("0",)}, {"ca": "0"})

    def test_out_of_carrier(self, small_sig):
        with pytest.raises(InterpretationOutOfCarrier):
            make_full_structure(
                small_sig, {"a": ("0", "1")},
                {"ca": "2", "cb": "1", "f": lambda v: v})

    def test_pi_carrier_fixed(self, small_structure):
        assert small_structure.carriers[PROP] == ("0", "1")
        assert small_structure.false_atom == "0"
        assert small_structure.true_atom == "1"

    def test_distinguished_filled(self, small_sig, small_structure):
        # interp shows the user operations; the kernel gives the logical
        # symbols their meaning, forall^a on every table of M_pi^(a)
        s = small_structure
        assert set(s.interp) == set(small_sig.user_ops)
        assert _apply_op(s, "imp", ("1", "0")) == "0"
        assert _apply_op(s, eq_op("a"), ("0", "0")) == "1"
        assert [_apply_op(s, forall_op("a"), (tbl,))
                for tbl in s.full_space(PROP, ("a",))] == ["0", "0", "0", "1"]

    @pytest.mark.parametrize("carriers, reason", [
        ({"a": ("x", "x")}, "carrier a repeats an atom"),
        ({"a": ("x",), PROP: ("0",)}, "carrier pi needs two atoms, false then true"),
        ({"a": ("x",), PROP: ("1", "1")}, "carrier pi repeats an atom"),
        ({"a": ("x", "y"), PROP: ("0", "1", "2")}, "carrier pi needs two atoms, false then true"),
    ], ids=["repeat", "pi-one", "pi-repeat", "pi-three"])
    def test_malformed_carrier(self, carriers, reason):
        # the constructor rejects what the .fls reader rejects, in its words
        sig = Signature(["a"], ["a"], {"c": "a"})
        for build in (Structure, make_full_structure):
            with pytest.raises(InterpretationOutOfCarrier, match=f"^{reason}$"):
                build(sig, carriers, {"c": "x"})


# Each connective's truth table, written out by hand.
TRUTH_TABLES = {
    "top": {(): True},
    "bot": {(): False},
    "not": {(False,): True, (True,): False},
    "imp": {(False, False): True, (False, True): True, (True, False): False,
            (True, True): True},
    "and": {(False, False): False, (False, True): False, (True, False): False,
            (True, True): True},
    "or": {(False, False): False, (False, True): True, (True, False): True,
           (True, True): True},
    "iff": {(False, False): True, (False, True): False, (True, False): False,
            (True, True): True},
}


@pytest.mark.parametrize("pi_carrier", ["0,1", "1,0"])
def test_connective_tables(pi_carrier):
    """Every row of every connective's table, on a formula carrier in either
    order: with 1,0 the atom 1 is false."""
    s = fileio.parse_structure(
        f"sort a\nvarsort a\nop c : a\ncarrier a = x\ncarrier pi = {pi_carrier}\n"
        "interp c = x\n")
    false, true = pi_carrier.split(",")
    atom = {False: false, True: true}
    assert (s.false_atom, s.true_atom) == (false, true)
    assert set(TRUTH_TABLES) == set(CONNECTIVES)
    for name, table in TRUTH_TABLES.items():
        if table.keys() != {()}:
            assert s._interp[name].keys() == {tuple(map(atom.get, xs)) for xs in table}, name
        for xs, v in table.items():
            assert _apply_op(s, name, tuple(map(atom.get, xs))) == atom[v], (name, xs)
    assert satisfies(s, parse_expr(s.signature, "top"))
    assert not satisfies(s, parse_expr(s.signature, "bot"))


class TestEvaluate:
    def test_closed_term(self, small_sig, small_structure):
        assert evaluate(small_structure, parse_expr(small_sig, "f(ca)"), ()) == "1"

    def test_projection_rightmost_wins(self, small_sig, small_structure):
        e = parse_expr(small_sig, "v0^a")
        t = evaluate(small_structure, e, ("v0^a", "v0^a"))
        # the second position shadows the first
        assert t.apply(("0", "1")) == "1"
        assert t.apply(("1", "0")) == "0"

    def test_constant_under_perspective(self, small_sig, small_structure):
        t = evaluate(small_structure, parse_expr(small_sig, "ca"), ("v0^a",))
        assert all(v == "0" for _, v in t.rows)

    def test_quantifiers(self, small_sig, small_structure):
        s = small_structure
        assert evaluate(s, parse_expr(
            small_sig, "forall v0^a. eq_a(f(f(v0^a)),v0^a)"), ()) == "1"
        assert evaluate(s, parse_expr(
            small_sig, "forall v0^a. eq_a(f(v0^a),v0^a)"), ()) == "0"
        assert evaluate(s, parse_expr(
            small_sig, "exists v0^a. eq_a(f(v0^a),cb)"), ()) == "1"

    def test_uncovered_variable(self, small_sig, small_structure):
        with pytest.raises(NotInPerspective):
            evaluate(small_structure, parse_expr(small_sig, "f(v0^a)"), ())

    def test_foreign_symbol(self, small_sig, small_structure):
        big = Signature(["a"], ["a"],
                        {"ca": "a", "cb": "a", "f": "(a)a", "extra": "a"})
        for text, p in (("extra", ()), ("f(f(extra))", ()),
                        ("eq_a(f(extra),v0^a)", ("v0^a",)),
                        ("forall v0^a. eq_a(f(v0^a),extra)", ())):
            for _ in range(2):  # a raise is not memoized: it raises again
                with pytest.raises(ForeignSignature):
                    evaluate(small_structure, parse_expr(big, text), p)

    def test_uncovered_under_binder(self, toy_sig, toy_structure):
        e = parse_expr(toy_sig, "f(mu((v0^a): eq_a(v0^a,v1^a)))")
        with pytest.raises(NotInPerspective):
            evaluate(toy_structure, e, ("v0^a",))
        assert evaluate(toy_structure, e, ("v1^a",)).apply(("0",)) == "1"

    def test_deep_quantifier_chain(self, small_sig, small_structure):
        # each level doubles the work: 2^14 evaluations of the body
        e = parse_expr(small_sig, "forall v0^a. " * 14 + "top")
        start = time.perf_counter()
        assert evaluate(small_structure, e, ()) == "1"
        assert time.perf_counter() - start < 3

    def test_mu_toy_values(self, toy_sig, toy_structure):
        # mu picks the first element where its predicate is true, else 1
        s = toy_structure
        for text, want in (("mu((v0^a): eq_a(v0^a,cb))", "1"),
                           ("mu((v0^a): eq_a(v0^a,ca))", "0"),
                           ("mu((v0^a): bot)", "1"),
                           ("f(mu((v1^a): eq_a(f(v1^a),cb)))", "1")):
            assert evaluate(s, parse_expr(toy_sig, text), ()) == want

    def test_mu_toy_open_matches_closed_instances(self, toy_sig, toy_structure):
        # the value at w under perspective (x,) is the closed value of the
        # instance with x replaced by the constant naming w
        s, x = toy_structure, "v0^a"
        names = {"0": parse_expr(toy_sig, "ca"), "1": parse_expr(toy_sig, "cb")}
        for sort in ("a", PROP):
            for e in enumerate_exprs(toy_sig, sort, (x,), 4):
                table = evaluate(s, e, (x,))
                for w, c in names.items():
                    closed = substitute1(toy_sig, e, x, c)
                    assert table.apply((w,)) == evaluate(s, closed, ()), \
                        print_expr(e)


class TestAgainstReference:
    """evaluate gives the reference's value, or raises the same error, and
    tabulates every table over the structure's shared product keys, each
    expression evaluated twice on one structure, under two perspectives."""

    def test_random_structures(self):
        misses = 0
        for seed in range(300):
            rng = random.Random(seed)
            sig = rand_structure_signature(rng)
            s = rand_full_structure(rng, sig, max_carrier=2)
            m = materialize_selected(s, cap=1)
            # drop one argument tuple of a binding functional, or for a
            # quantifier a table of its M_pi^(a), so that some evaluations
            # miss a selected set
            binding = sorted(n for n, spec in sig.ops.items()
                             if any(bs for _, bs in spec.args))
            op = rng.choice(binding)
            if op in sig.user_ops:
                rows = sorted(m.interp[op].items(), key=repr)
                gone = rng.choice(rows)[0]
                m = Structure(m.signature, m.carriers, {
                    **m.interp, op: {args: v for args, v in rows if args != gone}},
                    m.selected)
            else:
                key = (PROP, sig.ops[op].args[0][1])
                m = without_table(m, key, rng.choice(sorted(m.selected[key], key=repr)))
            cases = []
            for _ in range(10):
                e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 3))
                cases += [(e, random_perspective(rng, sig, e)) for _ in range(2)]
            for st in (s, reversed_form(s), m):
                agree_twice(st, cases, seed)
            misses += sum(outcome(evaluate, m, e, p) is SelectedSetMiss for e, p in cases)
        assert misses

    def test_mu_toy_term_structure(self, toy_sig, toy_structure):
        tm = build_term_structure(
            TermModelContext(toy_sig, ThOracle(toy_structure), size_bound=4))
        rng = random.Random(0)
        agree_twice(tm.structure, [
            (e, random_perspective(rng, toy_sig, e)) for sort in ("a", PROP)
            for e in enumerate_exprs(toy_sig, sort, ("v0^a",), 4) for _ in range(2)])


class TestMemo:
    """A structure memoizes the values of nodes; neither its caches nor a
    raise shows through."""

    def test_equality_ignores_the_caches(self, small_sig, small_structure):
        built = make_full_structure(
            small_sig, {"a": ("0", "1")},
            {"ca": "0", "cb": "1", "f": lambda v: "1" if v == "0" else "0"})
        text = fileio.print_structure(small_structure)
        for one, two in ((fileio.parse_structure(text), fileio.parse_structure(text)),
                         (small_structure, built)):
            assert one == two
            e = parse_expr(one.signature, "eq_a(f(v0^a),v1^a)")
            assert evaluate(one, e, ("v0^a", "v1^a")).values == ("0", "1", "1", "0")
            assert one == two

    def test_a_missing_interpretation_is_not_memoized(self, small_structure):
        # s lacks the constants d and e, as a Henkin extension's structure
        # lacks those of later levels: what needs them raises every time
        sig = Signature(["a"], ["a"], {
            "ca": "a", "cb": "a", "f": "(a)a", "d": "a", "e": "a"})
        s = Structure(sig, small_structure.carriers, small_structure.interp)
        on_d, open_d, on_e = (
            (parse_expr(sig, text), p) for text, p in (
                ("eq_a(f(d),cb)", ()), ("eq_a(f(d),v0^a)", ("v0^a",)),
                ("forall v0^a. or(eq_a(v0^a,e),eq_a(f(v0^a),e))", ())))
        assert evaluate(s, parse_expr(sig, "eq_a(f(ca),cb)"), ()) == "1"
        for _ in range(2):
            for e, p in (on_d, open_d, on_e):
                with pytest.raises(MissingInterpretation):
                    evaluate(s, e, p)
        with_d = Structure(sig, s.carriers, {**s.interp, "d": "0"})
        assert evaluate(with_d, *on_d) == "1"
        assert evaluate(with_d, *open_d).values == ("0", "1")
        with pytest.raises(MissingInterpretation):
            evaluate(with_d, *on_e)
        assert evaluate(Structure(sig, s.carriers, {**with_d.interp, "e": "1"}), *on_e) == "1"

    def test_a_structure_is_read_only(self, small_sig, small_structure):
        given = {"ca": "0", "cb": "1", "f": {("0",): "1", ("1",): "0"}}
        carriers = {"a": ("0", "1")}
        s = Structure(small_sig, carriers, given)
        m = materialize_selected(small_structure, cap=1)
        f_ca = parse_expr(small_sig, "f(ca)")
        assert evaluate(s, f_ca, ()) == "1" and evaluate(m, f_ca, ()) == "1"
        # the caller's dicts, not s's
        given["ca"], given["f"][("0",)], carriers["a"] = "1", "0", ("1",)
        for st in (s, m):
            for f in fields(Structure):
                with pytest.raises(FrozenInstanceError):
                    setattr(st, f.name, getattr(st, f.name))
        key = ("a", ("a",))
        for mapping, k, v in ((s.interp, "ca", "1"), (s.interp["f"], ("0",), "0"),
                              (s.carriers, "a", ("1",)), (s.selected, key, frozenset()),
                              (m.selected, key, frozenset())):
            with pytest.raises(TypeError):
                mapping[k] = v
        with pytest.raises(AttributeError):  # a selected set is a frozenset
            m.selected[key].add(projection_table(("a",), m.carriers, 0))
        assert evaluate(s, f_ca, ()) == "1" and evaluate(m, f_ca, ()) == "1"
        assert evaluate(Structure(small_sig, s.carriers, s.interp), f_ca, ()) == "1"

    def test_a_logical_symbol_keeps_its_fixed_meaning(self, small_sig, small_structure):
        """A logical symbol takes no interpretation, not even its fixed
        meaning: the constructor raises, naming it.  It gives each its
        meaning over the structure's own carriers, a third atom included."""
        s, three = small_structure, {"a": ("0", "1", "2")}
        assert satisfies(Structure(small_sig, three, s.interp),
                         parse_expr(small_sig, "forall v0^a. eq_a(v0^a,v0^a)"))
        space = s.full_space(PROP, ("a",))
        for name, given in (
                ("eq_a", {(x, y): "1" if x == y else "0" for x in "01" for y in "01"}),
                ("not", {("0",): "1", ("1",): "0"}),
                ("top", "1"),
                ("forall^a", {(tbl,): "1" if "0" not in tbl.values else "0" for tbl in space}),
                ("exists^a", {(tbl,): "1" if "1" in tbl.values else "0" for tbl in space}),
                ("exists^a", {})):
            with pytest.raises(InterpretationOutOfCarrier, match=re.escape(
                    f"{name!r} is a logical symbol, which takes no interpretation")):
                Structure(small_sig, s.carriers, {**s.interp, name: given})


def reference_quantifiers(s: Structure) -> dict:
    """The tabulated meaning of forall^a and exists^a that the constructor
    filled in before the kernel gave it, kept as its reference: a row for
    each table of M_pi^(a), or of the full space when none is declared."""
    f, t = s.false_atom, s.true_atom
    rows = {}
    for a in s.signature.var_sorts:
        declared = s.selected_tables(PROP, (a,))
        tables = s.full_space(PROP, (a,)) if declared is None else declared
        rows[forall_op(a)] = {(tbl,): t if all(v == t for v in tbl.values) else f
                              for tbl in tables}
        rows[exists_op(a)] = {(tbl,): t if t in tbl.values else f for tbl in tables}
    return rows


def quantifiers_agree(s: Structure):
    """forall^a and exists^a give the reference's row, or miss where it has
    none, on the full space of pi over a, M_pi^(a), each of their tables
    less its first row, and a table into a instead of pi."""
    want = reference_quantifiers(s)
    for a in s.signature.var_sorts:
        probes = {*s.full_space(PROP, (a,)), *(s.selected_tables(PROP, (a,)) or ())}
        probes |= {FnTable.from_map(t.domain_sorts, t.codomain_sort, dict(t.rows[1:]))
                   for t in list(probes)}
        probes.add(constant_table((a,), s.carriers, s.carriers[a][0], a))
        for op in (forall_op(a), exists_op(a)):
            for tbl in sorted(probes, key=repr):
                got = outcome(_apply_op, s, op, (tbl,))
                assert got == want[op].get((tbl,), SelectedSetMiss), (op, tbl)


class TestLogicalSymbols:
    """The logical symbols take their meaning from the kernel, the
    quantifiers theirs on M_pi^(a); interp holds the user operations."""

    def test_quantifiers_agree_with_the_reference(self, toy_sig, toy_structure):
        kinds = set()
        for seed in range(20):
            rng = random.Random(seed)
            sig = rand_structure_signature(rng)
            s = rand_full_structure(rng, sig, max_carrier=2)
            for kind, form in closure_forms(rng, s, 1):
                quantifiers_agree(form)
                kinds.add(kind)
        assert len(kinds) == 4
        tm = build_term_structure(
            TermModelContext(toy_sig, ThOracle(toy_structure), size_bound=4))
        quantifiers_agree(tm.structure)

    def test_replace_builds_the_spaces_anew(self, small_sig, small_structure):
        s = small_structure
        assert len(s.full_space(PROP, ("a",))) == 4
        wider = replace(s, carriers={"a": ("0", "1", "2")}, interp=s.interp)
        assert satisfies(wider, parse_expr(small_sig, "forall v0^a. eq_a(v0^a,v0^a)"))
        assert len(wider.full_space(PROP, ("a",))) == 8

    def test_unknown_operation(self, small_sig):
        with pytest.raises(InterpretationOutOfCarrier, match="unknown operation 'zzz'"):
            Structure(small_sig, {"a": ("0",)}, {"ca": "0", "zzz": "0"})

    def test_no_cycle_through_the_quantifiers(self, small_sig, small_structure):
        # a structure whose quantifiers have rows is freed by its last
        # reference going, without the cycle collector
        s = Structure(small_sig, small_structure.carriers, small_structure.interp)
        assert satisfies(s, parse_expr(small_sig, "exists v0^a. eq_a(f(v0^a),ca)"))
        gone = weakref.ref(s)
        gc.disable()
        try:
            del s
            assert gone() is None
        finally:
            gc.enable()


class TestSatisfies:
    def test_closed(self, small_sig, small_structure):
        assert satisfies(small_structure, parse_expr(small_sig, "eq_a(f(ca),cb)"))
        assert not satisfies(small_structure, parse_expr(small_sig, "eq_a(ca,cb)"))

    def test_open_is_universal(self, small_sig, small_structure):
        assert satisfies(small_structure,
                         parse_expr(small_sig, "eq_a(f(f(v0^a)),v0^a)"))
        assert not satisfies(small_structure,
                             parse_expr(small_sig, "eq_a(f(v0^a),cb)"))

    def test_theory(self, small_sig, small_structure, toy_theory):
        thy = Theory(small_sig, (
            parse_expr(small_sig, "eq_a(f(ca),cb)"),
            parse_expr(small_sig, "forall v0^a. eq_a(f(f(v0^a)),v0^a)")))
        assert satisfies_theory(small_structure, thy)
        bad = Theory(small_sig, (parse_expr(small_sig, "bot"),))
        assert not satisfies_theory(small_structure, bad)


class TestRestrict:
    def test_reduct(self, small_sig, small_structure):
        sub = Signature(["a"], ["a"], {"ca": "a", "cb": "a"})
        r = restrict_structure(small_structure, sub)
        assert "f" not in r.interp
        assert satisfies(r, parse_expr(sub, "exists v0^a. eq_a(v0^a,cb)"))

    def test_foreign_after_restrict(self, small_sig, small_structure):
        sub = Signature(["a"], ["a"], {"ca": "a", "cb": "a"})
        r = restrict_structure(small_structure, sub)
        with pytest.raises(ForeignSignature):
            evaluate(r, parse_expr(small_sig, "f(ca)"), ())

    def test_not_an_extension(self, small_structure):
        other = Signature(["b"], ["b"], {})
        with pytest.raises(NotAnExtension):
            restrict_structure(small_structure, other)


class TestClosure:
    def test_full_structure_closed(self, small_structure):
        rep = check_closure(small_structure, cap=2)
        assert rep.ok, rep.violations

    def test_materialized_closed(self, small_structure):
        m = materialize_selected(small_structure, cap=2)
        assert not m.full
        rep = check_closure(m, cap=2)
        assert rep.ok, rep.violations

    def test_projection_removal_detected(self, small_structure):
        m = materialize_selected(small_structure, cap=1)
        key = ("a", ("a",))
        pj = projection_table(("a",), m.carriers, 0)
        m = without_table(m, key, pj)
        rep = check_closure(m, cap=1)
        assert any(v.startswith("projection:") for v in rep.violations)

    def test_constant_removal_detected(self, small_structure):
        m = materialize_selected(small_structure, cap=1)
        key = (PROP, ("a",))
        c = constant_table(("a",), m.carriers, m.true_atom, PROP)
        m = without_table(m, key, c)
        rep = check_closure(m, cap=1)
        assert any(v.startswith("constant:") for v in rep.violations)

    def test_swap_removal_detected_by_composition(self, small_structure):
        # the swap table is forced by composing a projection through f
        m = materialize_selected(small_structure, cap=1)
        key = ("a", ("a",))
        swap = FnTable.from_map(("a",), "a", {("0",): "1", ("1",): "0"})
        m = without_table(m, key, swap)
        rep = check_closure(m, cap=1)
        assert any(v.startswith("composition:") for v in rep.violations)

    def test_skip_reporting(self):
        sig = Signature(["a"], ["a"], {"c": "a"})
        s = make_full_structure(sig, {"a": tuple(str(i) for i in range(6))}, {"c": "0"})
        rep = check_closure(s, cap=2)
        assert rep.ok
        assert rep.skipped

    def test_has_table_checks_argument_tuples(self, small_structure):
        # two rows with values in the carrier, but not over the carrier
        t = FnTable.from_map(("a",), "a", {("0",): "1", ("7",): "0"})
        assert t not in small_structure.full_space("a", ("a",))
        assert not small_structure.has_table("a", ("a",), t)
        swap = FnTable.from_map(("a",), "a", {("0",): "1", ("1",): "0"})
        assert small_structure.has_table("a", ("a",), swap)

    def test_audit_agrees_with_the_reference(self):
        # cap 1 over 200 seeds; cap 2, where fixing is audited, over 2
        kinds, misses = set(), 0
        for cap, seeds in ((1, range(200)), (2, range(2))):
            for seed in seeds:
                rng = random.Random(seed)
                sig = rand_structure_signature(rng)
                s = rand_full_structure(rng, sig, max_carrier=2)
                for kind, form in closure_forms(rng, s, cap):
                    rep = audits_agree(form, cap)
                    assert rep.ok == (kind in ("full", "reversed", "materialized"))
                    kinds.add(kind)
                    misses += any("undefined" in v for v in rep.violations)
        assert len(kinds) == 4 and misses

    def test_a_partial_selected_table_is_rejected(self):
        # a table of a selected set without its first row: its keys are not
        # the carrier product, so the constructor rejects it, naming the set
        for seed in range(20):
            rng = random.Random(seed)
            sig = rand_structure_signature(rng)
            m = materialize_selected(rand_full_structure(rng, sig, max_carrier=2), 1)
            for (gamma, sigma), tables in sorted(m.selected.items()):
                t = rng.choice(sorted(tables, key=repr))
                part = FnTable.from_map(t.domain_sorts, t.codomain_sort, dict(t.rows[1:]))
                with pytest.raises(InterpretationOutOfCarrier, match=re.escape(
                        f"selected {gamma}^({','.join(sigma)}) holds {part!r}")):
                    Structure(m.signature, m.carriers, m.interp,
                              {**m.selected, (gamma, sigma): tables - {t} | {part}})

    def test_term_structure_audit_agrees_with_the_reference(self, toy_sig, toy_structure):
        tm = build_term_structure(
            TermModelContext(toy_sig, ThOracle(toy_structure), size_bound=4))
        assert audits_agree(tm.structure, 1).ok

    def test_audit_builds_the_same_tables(self, monkeypatch):
        from_map = FnTable.__dict__["from_map"].__func__
        built = [0, 0]

        def counted(cls, domain_sorts, codomain_sort, mapping, **kw):
            built[0] += 1
            built[1] += len(mapping)
            return from_map(cls, domain_sorts, codomain_sort, mapping, **kw)

        monkeypatch.setattr(FnTable, "from_map", classmethod(counted))
        assert suite_closure(4, 0).failures == 0
        assert built == [29_254, 87_026], (
            f"suite_closure(4, 0) built {built[0]} tables of {built[1]} rows, not "
            "29254 of 87026.  perfbench's closure-audit seeds (CLOSURE_POOL) were "
            "chosen by the rows the audit builds, and its traced pass fails when "
            "they leave CLOSURE_ROWS: a memo of fix or _compose first needs a "
            "benchmark change that re-anchors CLOSURE_ROWS and CLOSURE_POOL")

    def test_random_full_structures_closed(self):
        rng = random.Random(3)
        for _ in range(20):
            sig = rand_structure_signature(rng)
            s = rand_full_structure(rng, sig, max_carrier=2)
            assert check_closure(s, cap=2).ok


class TestSpaceGuard:
    def test_space_too_large(self):
        sig = Signature(["a"], ["a"], {"c": "a"})
        s = make_full_structure(sig, {"a": tuple(str(i) for i in range(5))}, {"c": "0"})
        with pytest.raises(SpaceTooLarge):
            s.full_space("a", ("a", "a", "a", "a", "a", "a", "a"))


def test_selected_set_miss():
    sig = Signature(["a"], ["a"], {"c": "a"})
    s = make_full_structure(sig, {"a": ("0", "1")}, {"c": "0"})
    m = materialize_selected(s, cap=1)
    # drop every unary pi table, then quantify over the now-empty set
    m = Structure(sig, m.carriers, m.interp, {**m.selected, (PROP, ("a",)): frozenset()})
    for _ in range(2):  # a miss is not memoized: it raises again
        with pytest.raises(SelectedSetMiss):
            evaluate(m, parse_expr(sig, "forall v0^a. eq_a(v0^a,c)"), ())
    # the reference misses, or not, at the same perspectives
    agree_twice(m, [(parse_expr(sig, text), p)
                    for text in ("forall v0^a. eq_a(v0^a,c)",
                                 "exists v0^a. eq_a(v0^a,v1^a)", "eq_a(v1^a,c)")
                    for p in ((), ("v1^a",), ("v0^a", "v1^a", "v0^a"))])


def test_satisfies_raises_on_a_later_miss():
    # false at v1 = 0, and the quantified table at v1 = 1 is missing: the
    # miss raises rather than reading as "not satisfied"
    sig = Signature(["a"], ["a"], {"c": "a"})
    m = materialize_selected(
        make_full_structure(sig, {"a": ("0", "1")}, {"c": "0"}), cap=1)
    at_one = FnTable.from_map(("a",), PROP, {("0",): "0", ("1",): "1"})
    m = without_table(m, (PROP, ("a",)), at_one)
    assert evaluate(m, parse_expr(sig, "forall v0^a. eq_a(v0^a,c)"), ()) == "0"
    for _ in range(2):  # a miss is not memoized: it raises again
        with pytest.raises(SelectedSetMiss):
            satisfies(m, parse_expr(sig, "forall v0^a. eq_a(v0^a,v1^a)"))


def test_draws_independent_of_hash_seed():
    """A fuzz seed draws the same structures in every process."""
    script = (
        "import hashlib, random\n"
        "from funlog.fileio import print_structure\n"
        "from funlog.gen import rand_structure_signature, rand_full_structure\n"
        "rng, h = random.Random(0), hashlib.sha256()\n"
        "for _ in range(40):\n"
        "    sig = rand_structure_signature(rng)\n"
        "    h.update(print_structure(rand_full_structure(rng, sig)).encode())\n"
        "print(h.hexdigest())\n")
    src = os.path.dirname(os.path.dirname(fileio.__file__))
    digests = {subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
        for seed in ("0", "3")}
    assert len(digests) == 1, digests


def test_eval_invariance_random():
    rng = random.Random(9)
    for _ in range(100):
        sig = rand_structure_signature(rng)
        s = rand_full_structure(rng, sig, max_carrier=2)
        e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 3))
        base = tuple(sorted(fv(e)))
        extras = [u for u in _pool(sig) if u not in base]
        ext = base + (rng.choice(extras),)
        v1 = evaluate(s, e, base)
        # on a copy, whose memo is empty: on s, v2 would read back v1's values
        v2 = evaluate(Structure(s.signature, s.carriers, s.interp, s.selected), e, ext)
        # the memo answers the rows that differ only in the unused variable;
        # the reference, which has none, computes each
        assert v2.rows == reference_evaluate(s, e, ext).rows
        for args, out in v2.rows:
            want = v1.apply(args[:len(base)]) if base else v1
            assert out == want


def test_rand_satisfied_theory_is_satisfied():
    rng = random.Random(21)
    for _ in range(20):
        sig = rand_structure_signature(rng)
        s = rand_full_structure(rng, sig)
        thy = rand_satisfied_theory(rng, s)
        assert satisfies_theory(s, thy)
