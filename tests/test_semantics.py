import random

import pytest

from funlog.signature import PROP, make_signature, eq_op, forall_op
from funlog.syntax import parse_expr, print_expr, ForeignSignature
from funlog.subst import fv, substitute1
from funlog.calculus import Theory
from funlog.semantics import (
    FnTable, Structure, constant_table, projection_table, make_full_structure,
    evaluate, satisfies, satisfies_theory, restrict_structure, check_closure,
    materialize_selected, MissingInterpretation, InterpretationOutOfCarrier,
    NotInPerspective, SelectedSetMiss, NotAnExtension, SpaceTooLarge,
)
from funlog.gen import (
    rand_structure_signature, rand_full_structure, rand_expr,
    rand_satisfied_theory, _pool,
)
from funlog.henkin import enumerate_exprs


class TestFnTable:
    def test_from_map_apply(self):
        t = FnTable.from_map(("a",), "a", {("0",): "1", ("1",): "0"})
        assert t.apply(("0",)) == "1"
        assert t.rows == ((("0",), "1"), (("1",), "0"))

    def test_rows_canonically_sorted(self):
        t1 = FnTable.from_map(("a",), "a", {("1",): "0", ("0",): "1"})
        t2 = FnTable.from_map(("a",), "a", {("0",): "1", ("1",): "0"})
        assert t1 == t2

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

    def test_distinguished_filled(self, small_structure):
        assert small_structure.interp["imp"][("1", "0")] == "0"
        assert small_structure.interp[eq_op("a")][("0", "0")] == "1"
        assert forall_op("a") in small_structure.interp


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
        big = make_signature(["a"], ["a"],
                             {"ca": "a", "cb": "a", "f": "(a)a", "extra": "a"})
        e = parse_expr(big, "extra")
        with pytest.raises(ForeignSignature):
            evaluate(small_structure, e, ())
        with pytest.raises(ForeignSignature):
            evaluate(small_structure, parse_expr(big, "f(f(extra))"), ())

    def test_uncovered_under_binder(self, toy_sig, toy_structure):
        e = parse_expr(toy_sig, "f(mu((v0^a): eq_a(v0^a,v1^a)))")
        with pytest.raises(NotInPerspective):
            evaluate(toy_structure, e, ("v0^a",))
        assert evaluate(toy_structure, e, ("v1^a",)).apply(("0",)) == "1"

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
        sub = make_signature(["a"], ["a"], {"ca": "a", "cb": "a"})
        r = restrict_structure(small_structure, sub)
        assert "f" not in r.interp
        assert satisfies(r, parse_expr(sub, "exists v0^a. eq_a(v0^a,cb)"))

    def test_foreign_after_restrict(self, small_sig, small_structure):
        sub = make_signature(["a"], ["a"], {"ca": "a", "cb": "a"})
        r = restrict_structure(small_structure, sub)
        with pytest.raises(ForeignSignature):
            evaluate(r, parse_expr(small_sig, "f(ca)"), ())

    def test_not_an_extension(self, small_structure):
        other = make_signature(["b"], ["b"], {})
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
        m.selected[key] = m.selected[key] - {pj}
        rep = check_closure(m, cap=1)
        assert any(v.startswith("projection:") for v in rep.violations)

    def test_constant_removal_detected(self, small_structure):
        m = materialize_selected(small_structure, cap=1)
        key = (PROP, ("a",))
        c = constant_table(("a",), m.carriers, m.true_atom, PROP)
        m.selected[key] = m.selected[key] - {c}
        rep = check_closure(m, cap=1)
        assert any(v.startswith("constant:") for v in rep.violations)

    def test_swap_removal_detected_by_composition(self, small_structure):
        # the swap table is forced by composing a projection through f
        m = materialize_selected(small_structure, cap=1)
        key = ("a", ("a",))
        swap = FnTable.from_map(("a",), "a", {("0",): "1", ("1",): "0"})
        m.selected[key] = m.selected[key] - {swap}
        rep = check_closure(m, cap=1)
        assert any(v.startswith("composition:") for v in rep.violations)

    def test_skip_reporting(self):
        sig = make_signature(["a"], ["a"], {"c": "a"})
        s = make_full_structure(sig, {"a": tuple(str(i) for i in range(6))}, {"c": "0"})
        rep = check_closure(s, cap=2)
        assert rep.ok
        assert rep.skipped

    def test_random_full_structures_closed(self):
        rng = random.Random(3)
        for _ in range(20):
            sig = rand_structure_signature(rng)
            s = rand_full_structure(rng, sig, max_carrier=2)
            assert check_closure(s, cap=2).ok


class TestSpaceGuard:
    def test_space_too_large(self):
        sig = make_signature(["a"], ["a"], {"c": "a"})
        s = make_full_structure(sig, {"a": tuple(str(i) for i in range(5))}, {"c": "0"})
        with pytest.raises(SpaceTooLarge):
            s.full_space("a", ("a", "a", "a", "a", "a", "a", "a"))


def test_selected_set_miss():
    sig = make_signature(["a"], ["a"], {"c": "a"})
    s = make_full_structure(sig, {"a": ("0", "1")}, {"c": "0"})
    m = materialize_selected(s, cap=1)
    # drop every unary pi table, then quantify over the now-empty set
    m.selected[(PROP, ("a",))] = frozenset()
    m.interp[forall_op("a")] = {}
    with pytest.raises(SelectedSetMiss):
        evaluate(m, parse_expr(sig, "forall v0^a. eq_a(v0^a,c)"), ())


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
        v2 = evaluate(s, e, ext)
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
