import random

import pytest

from funlog.signature import Signature, variable_sort
from funlog.syntax import neg, parse_expr, print_expr, var
from funlog.subst import (
    fv, gv, substitutable, substitute, substitute1, SortClash,
)
from funlog.gen import rand_signature, rand_expr, SUBST_CHECKS, _rand_terms_for, _rand_vec
from funlog.syntax import Expr

from conftest import garbage_cycles_left_by


@pytest.fixture
def sig():
    return Signature(
        ["a"], ["a"],
        {"ca": "a", "f": "(a)a", "P": "(a)pi", "mu": "((a)pi)a"})


class TestFreeBound:
    def test_leaves(self, sig):
        assert fv(parse_expr(sig, "v0^a")) == {"v0^a"}
        assert fv(parse_expr(sig, "ca")) == frozenset()
        assert gv(parse_expr(sig, "v0^a")) == frozenset()

    def test_binder_removes(self, sig):
        e = parse_expr(sig, "mu((v0^a): P(f(v0^a)))")
        assert fv(e) == frozenset()
        assert gv(e) == {"v0^a"}

    def test_mixed_occurrence(self, sig):
        # v0^a occurs both bound (inner) and free (outer argument of g-like op)
        e = parse_expr(sig, "eq_a(v0^a,mu((v0^a): P(v0^a)))")
        assert fv(e) == {"v0^a"}
        assert gv(e) == {"v0^a"}

    def test_nested(self, sig):
        e = parse_expr(sig, "mu((v0^a): P(mu((v1^a): eq_a(v2^a,v1^a))))")
        assert fv(e) == {"v2^a"}
        assert gv(e) == {"v0^a", "v1^a"}

    def test_deep_chain(self, sig):
        # past the interpreter's recursion limit; its printed form is ~8 MB
        e = parse_expr(sig, "forall v1^a. eq_a(v1^a,ca)")
        for _ in range(2000):
            e = neg(sig, e)
        assert e.depth > 2000
        assert gv(e) == {"v1^a"}


def reference_gv(e):
    """gv by its inductive definition, recursively."""
    if not e.args:
        return frozenset()
    out = set()
    for binders, body in e.args:
        out |= reference_gv(body) | set(binders)
    return frozenset(out)


@pytest.mark.parametrize("seed", range(5))
def test_gv_as_the_reference(seed):
    rng = random.Random(seed)
    binding = 0
    for _ in range(300):
        s = rand_signature(rng)
        e = rand_expr(s, rng, rng.choice(sorted(s.sorts)), rng.randint(0, 8))
        assert gv(e) == reference_gv(e), print_expr(e)
        binding += bool(gv(e))
    assert binding > 30


class TestSubstitutable:
    def test_vacuous_at_leaves(self, sig):
        d = parse_expr(sig, "f(v1^a)")
        assert substitutable(d, "v0^a", parse_expr(sig, "v0^a"))
        assert substitutable(d, "v0^a", parse_expr(sig, "ca"))

    def test_capture_detected(self, sig):
        d = parse_expr(sig, "f(v1^a)")
        e = parse_expr(sig, "mu((v1^a): P(v0^a))")
        assert not substitutable(d, "v0^a", e)

    def test_shadowed_target_ok(self, sig):
        d = parse_expr(sig, "f(v1^a)")
        e = parse_expr(sig, "mu((v0^a): P(v0^a))")
        assert substitutable(d, "v0^a", e)

    def test_closed_always_fits(self, sig):
        d = parse_expr(sig, "f(ca)")
        e = parse_expr(sig, "mu((v1^a): P(v0^a))")
        assert substitutable(d, "v0^a", e)

    def test_a_shared_body_is_checked_under_each_slot(self, sig):
        """P(v0^a) is one node under two slots; only the second binds v1^a."""
        d = parse_expr(sig, "f(v1^a)")
        for text in ("and(P(v0^a),forall v1^a. P(v0^a))",
                     "and(forall v2^a. P(v0^a),forall v1^a. P(v0^a))"):
            e = parse_expr(sig, text)
            assert not substitutable(d, "v0^a", e)
            assert not reference_substitutable(d, "v0^a", e)

    def test_deep_chain(self, sig):
        # past the interpreter's recursion limit, a capture at the bottom
        d = parse_expr(sig, "f(v1^a)")
        fits, captures = (parse_expr(sig, f"forall {v}. eq_a(v0^a,ca)")
                          for v in ("v2^a", "v1^a"))
        for _ in range(2000):
            fits, captures = neg(sig, fits), neg(sig, captures)
        assert captures.depth > 2000
        assert substitutable(d, "v0^a", fits)
        assert not substitutable(d, "v0^a", captures)


def reference_substitutable(d, x, e):
    """substitutable by its inductive definition, recursively."""
    return all(x in binders or (not fv(d) & set(binders)
                                and reference_substitutable(d, x, body))
               for binders, body in e.args)


@pytest.mark.parametrize("seed", range(5))
def test_substitutable_as_the_reference(seed):
    rng = random.Random(seed)
    verdicts = []
    for _ in range(300):
        s = rand_signature(rng)
        e = rand_expr(s, rng, rng.choice(sorted(s.sorts)), rng.randint(0, 8))
        (x,) = _rand_vec(s, rng, 1)
        (d,) = _rand_terms_for(s, rng, (x,))
        bound = sorted(y for y in gv(e) if variable_sort(s, y) == d.sort)
        if bound and rng.random() < 0.7:
            d = var(s, rng.choice(bound))  # a binder of e may capture it
        got = substitutable(d, x, e)
        assert got == reference_substitutable(d, x, e), print_expr(e)
        verdicts.append(got)
    assert 15 < verdicts.count(False) < 285


class TestSubstitute:
    def test_variable_hit_and_miss(self, sig):
        d = parse_expr(sig, "f(ca)")
        assert substitute1(sig, parse_expr(sig, "v0^a"), "v0^a", d) == d
        assert substitute1(sig, parse_expr(sig, "v1^a"), "v0^a", d) == \
            parse_expr(sig, "v1^a")

    def test_rightmost_wins(self, sig):
        e = parse_expr(sig, "v0^a")
        got = substitute(sig, e, ("v0^a", "v0^a"),
                         (parse_expr(sig, "ca"), parse_expr(sig, "f(ca)")))
        assert got == parse_expr(sig, "f(ca)")

    def test_bound_occurrences_protected(self, sig):
        e = parse_expr(sig, "eq_a(v0^a,mu((v0^a): P(v0^a)))")
        got = substitute1(sig, e, "v0^a", parse_expr(sig, "ca"))
        assert got == parse_expr(sig, "eq_a(ca,mu((v0^a): P(v0^a)))")

    def test_no_renaming_ever(self, sig):
        # the scheme substitutes literally, even into a capturing position
        e = parse_expr(sig, "mu((v1^a): P(v0^a))")
        got = substitute1(sig, e, "v0^a", parse_expr(sig, "f(v1^a)"))
        assert got == parse_expr(sig, "mu((v1^a): P(f(v1^a)))")

    def test_sort_clash(self, sig):
        with pytest.raises(SortClash):
            substitute1(sig, parse_expr(sig, "v0^a"), "v0^a", parse_expr(sig, "top"))
        with pytest.raises(SortClash):
            substitute(sig, parse_expr(sig, "v0^a"), ("v0^a",), ())

    def test_simultaneous_not_sequential(self, sig):
        e = parse_expr(sig, "eq_a(v0^a,v1^a)")
        got = substitute(sig, e, ("v0^a", "v1^a"),
                         (var(sig, "v1^a"), var(sig, "v0^a")))
        assert got == parse_expr(sig, "eq_a(v1^a,v0^a)")


class TestAlphaEquiv:
    """Identity is literal: alpha-equivalent expressions stay distinct."""

    def test_renamed_binder(self, sig):
        e1 = parse_expr(sig, "mu((v0^a): P(v0^a))")
        e2 = parse_expr(sig, "mu((v3^a): P(v3^a))")
        assert e1 != e2  # the kernel itself never identifies these


@pytest.mark.parametrize("check", SUBST_CHECKS, ids=lambda c: c.__name__)
def test_substitution_law_seeded(check):
    rng = random.Random(2024)
    for _ in range(400):
        sig = rand_signature(rng)
        case = check(sig, rng)
        assert case.ok, f"{case.name} failed on {case.detail}"


def test_substitution_composition_vs_simultaneous_differ_when_overlapping(sig):
    # sanity that the laws are not vacuous: sequential application can differ
    # from simultaneous when replacements mention the other target
    e = parse_expr(sig, "eq_a(v0^a,v1^a)")
    sim = substitute(sig, e, ("v0^a", "v1^a"),
                     (var(sig, "v1^a"), var(sig, "v0^a")))
    seq = substitute1(sig, substitute1(sig, e, "v0^a", var(sig, "v1^a")),
                      "v1^a", var(sig, "v0^a"))
    assert sim != seq


def reference_substitute(sig, e, xs, ds):
    """substitute without its shortcut for subtrees free of targets: the
    inductive definition, rebuilding every node."""
    if not e.args:
        for x, d in reversed(list(zip(xs, ds))):
            if x == e.head:
                return d
        return e
    return Expr(e.head, tuple(
        (binders, reference_substitute(sig, body, tuple(xs) + binders,
                                       tuple(ds) + tuple(var(sig, b) for b in binders)))
        for binders, body in e.args), e.sort)


@pytest.mark.parametrize("seed", range(10))
def test_substitute_as_the_reference(seed):
    rng = random.Random(seed)
    changed = 0
    for _ in range(300):
        s = rand_signature(rng)
        e = rand_expr(s, rng, rng.choice(sorted(s.sorts)), rng.randint(0, 8))
        xs = _rand_vec(s, rng, rng.randint(0, 3))
        if rng.random() < 0.5:  # a target that is free in e, when there is one
            xs += tuple(sorted(fv(e)))[:1]
        ds = _rand_terms_for(s, rng, xs)
        got = substitute(s, e, xs, ds)
        assert got is reference_substitute(s, e, xs, ds), print_expr(e)
        changed += got is not e
    assert changed > 30


def test_a_call_leaves_no_reference_cycle(sig):
    """Neither function builds a closure over itself, which every call
    would leave behind as a cycle."""
    e = parse_expr(sig, "eq_a(v1^a,mu((v0^a): P(f(v1^a))))")
    d = parse_expr(sig, "f(v0^a)")
    assert garbage_cycles_left_by(lambda: substitute(sig, e, ("v1^a",), (d,))) == 0
    assert garbage_cycles_left_by(lambda: substitutable(d, "v1^a", e)) == 0
