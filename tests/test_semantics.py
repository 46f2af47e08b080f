import os
import random
import subprocess
import sys
import time

import pytest

from funlog import fileio
from funlog.signature import PROP, make_signature, eq_op, forall_op, variable_sort
from funlog.syntax import (
    ExprError, parse_expr, print_expr, ForeignSignature, in_class, perspective_sorts,
)
from funlog.subst import fv, substitute1
from funlog.calculus import Theory
from funlog.semantics import (
    FnTable, Structure, constant_table, projection_table, make_full_structure,
    evaluate, satisfies, satisfies_theory, restrict_structure, check_closure,
    materialize_selected, MissingInterpretation, InterpretationOutOfCarrier,
    NotInPerspective, SelectedSetMiss, NotAnExtension, SpaceTooLarge,
    SemanticsError, _apply_op, _compose,
)
from funlog.gen import (
    rand_structure_signature, rand_full_structure, rand_expr,
    rand_satisfied_theory, _pool,
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


def agree(s, e, p) -> bool:
    return outcome(evaluate, s, e, p) == outcome(reference_evaluate, s, e, p)


def random_perspective(rng, sig, e) -> tuple:
    """e's free variables, some of them repeated, and variables e does not
    need, in random order."""
    p = sorted(fv(e))
    p += [rng.choice(p) for _ in range(rng.randint(0, 2))] if p else []
    p += rng.sample(_pool(sig), rng.randint(0, 2))
    rng.shuffle(p)
    return tuple(p)


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
    """evaluate gives the reference's value, or raises the same error."""

    def test_random_structures(self):
        misses = 0
        for seed in range(300):
            rng = random.Random(seed)
            sig = rand_structure_signature(rng)
            s = rand_full_structure(rng, sig, max_carrier=2)
            m = materialize_selected(s, cap=1)
            # drop one argument tuple of a binding functional, so that some
            # evaluations miss a selected set
            binding = sorted(n for n, spec in sig.ops.items()
                             if any(bs for _, bs in spec.args))
            op = rng.choice(binding)
            rows = sorted(m.interp[op].items(), key=repr)
            gone = rng.choice(rows)[0]
            m.interp[op] = {args: v for args, v in rows if args != gone}
            for _ in range(10):
                e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 3))
                p = random_perspective(rng, sig, e)
                for st in (s, m):
                    assert agree(st, e, p), (seed, print_expr(e), p)
                misses += outcome(evaluate, m, e, p) is SelectedSetMiss
        assert misses

    def test_mu_toy_term_structure(self, toy_sig, toy_structure):
        tm = build_term_structure(
            TermModelContext(toy_sig, ThOracle(toy_structure), size_bound=4))
        s, rng = tm.structure, random.Random(0)
        for sort in ("a", PROP):
            for e in enumerate_exprs(toy_sig, sort, ("v0^a",), 4):
                p = random_perspective(rng, toy_sig, e)
                assert agree(s, e, p), (print_expr(e), p)


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
    # the reference misses, or not, at the same perspectives
    for text in ("forall v0^a. eq_a(v0^a,c)", "exists v0^a. eq_a(v0^a,v1^a)",
                 "eq_a(v1^a,c)"):
        for p in ((), ("v1^a",), ("v0^a", "v1^a", "v0^a")):
            assert agree(m, parse_expr(sig, text), p), (text, p)


def test_satisfies_raises_on_a_later_miss():
    # false at v1 = 0, and the quantified table at v1 = 1 is missing: the
    # miss raises rather than reading as "not satisfied"
    sig = make_signature(["a"], ["a"], {"c": "a"})
    m = materialize_selected(
        make_full_structure(sig, {"a": ("0", "1")}, {"c": "0"}), cap=1)
    at_one = FnTable.from_map(("a",), PROP, {("0",): "0", ("1",): "1"})
    m.interp[forall_op("a")] = {
        args: v for args, v in m.interp[forall_op("a")].items() if args != (at_one,)}
    assert evaluate(m, parse_expr(sig, "forall v0^a. eq_a(v0^a,c)"), ()) == "0"
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
