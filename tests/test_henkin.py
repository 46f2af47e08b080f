import bisect
import itertools

import pytest

from funlog import henkin
from funlog.signature import PROP, Signature, variable_sort
from funlog.syntax import parse_expr, print_expr, size, top, bot, mk_eq, neg
from funlog.subst import fv, gv, substitute
from funlog.calculus import Theory
from funlog.semantics import (
    Structure, evaluate, satisfies, satisfies_theory, restrict_structure, check_closure,
    make_full_structure,
)
from funlog.fileio import print_structure
from funlog.henkin import (
    ThOracle, special_constant, HenkinExtension, henkin_extend,
    saturate_bounded, extend_structure_for_henkin, enumerate_exprs,
    TermModelContext, TermModel, order_key, norm, build_term_structure,
    check_cm_expr, check_ded_sat, OracleUndecided, is_consistent_up_to,
    NotSingleFree, NoRepresentativeInBound,
)

from conftest import garbage_cycles_left_by


@pytest.fixture
def oracle(small_structure):
    return ThOracle(small_structure)


@pytest.fixture
def ctx(small_sig, oracle):
    return TermModelContext(small_sig, oracle, size_bound=4)


class TestThOracle:
    def test_decides_by_satisfaction(self, small_sig, oracle):
        assert oracle.decide(parse_expr(small_sig, "eq_a(f(ca),cb)")) == "provable"
        assert oracle.decide(parse_expr(small_sig, "eq_a(ca,cb)")) == "refutable"
        assert oracle.decide(parse_expr(small_sig, "bot")) == "refutable"


class TestSpecialConstants:
    def test_name_deterministic(self, small_sig):
        phi = parse_expr(small_sig, "eq_a(v0^a,cb)")
        _, n1, _ = special_constant(small_sig, phi, "v0^a")
        _, n2, _ = special_constant(small_sig, phi, "v0^a")
        assert n1 == n2 and n1.startswith("c_") and len(n1) == 14

    def test_axiom_shape(self, small_sig):
        phi = parse_expr(small_sig, "eq_a(v0^a,cb)")
        sig2, name, axiom = special_constant(small_sig, phi, "v0^a")
        assert name in sig2.ops
        assert print_expr(axiom) == (
            f"imp(exists^a((v0^a): eq_a(v0^a,cb)),eq_a({name},cb))")

    def test_extra_free_variable_rejected(self, small_sig):
        phi = parse_expr(small_sig, "eq_a(v0^a,v1^a)")
        with pytest.raises(NotSingleFree):
            special_constant(small_sig, phi, "v0^a")

    def test_non_variable_rejected(self, small_sig):
        with pytest.raises(NotSingleFree):
            special_constant(small_sig, parse_expr(small_sig, "top"), "ca")


def reference_extend_structure(s: Structure, ext: HenkinExtension) -> Structure:
    """The one-constant-at-a-time construction that
    extend_structure_for_henkin replaced, kept as its reference: each
    constant's formula is evaluated in a structure, built by the constructor,
    that interprets every constant before it."""
    sig, interp = ext.theory.signature, dict(s.interp)
    for name, phi, x in ext.constants:
        cur = Structure(sig, s.carriers, interp, s.selected)
        carrier = cur.carriers[variable_sort(sig, x)]
        tbl = evaluate(cur, phi, (x,))
        interp[name] = next(
            (w for w in carrier if tbl.apply((w,)) == cur.true_atom), carrier[0])
    return Structure(sig, s.carriers, interp, s.selected)


class TestHenkinExtend:
    def test_level_zero_identity(self, small_sig):
        thy = Theory(small_sig, (parse_expr(small_sig, "eq_a(f(ca),cb)"),))
        ext = henkin_extend(thy, 0, 3)
        assert ext.theory == thy and ext.constants == () and ext.level_sizes == ()

    def test_one_level_counts(self, small_sig):
        thy = Theory(small_sig, ())
        ext = henkin_extend(thy, 1, 3)
        assert len(ext.constants) == len(ext.theory.axioms)
        assert len(ext.constants) > 0 and ext.level_sizes == (len(ext.constants),)
        # one constant per enumerated (phi, x) pair, each axiom a conditional
        for name, phi, x in ext.constants:
            assert name in ext.theory.signature.ops
            assert fv(phi) <= {x}

    def test_deterministic(self, small_sig):
        thy = Theory(small_sig, ())
        e1 = henkin_extend(thy, 1, 3)
        e2 = henkin_extend(thy, 1, 3)
        assert e1 == e2

    @pytest.mark.parametrize("levels", [1, 2])
    def test_same_as_one_special_constant_at_a_time(self, small_sig, levels):
        thy = Theory(small_sig, (parse_expr(small_sig, "eq_a(f(ca),cb)"),))
        ext = henkin_extend(thy, levels, 3)
        sig, axioms = thy.signature, list(thy.axioms)
        for name, phi, x in ext.constants:
            sig, got, axiom = special_constant(sig, phi, x)
            assert got == name
            axioms.append(axiom)
        assert list(ext.theory.signature.ops.items()) == list(sig.ops.items())
        assert ext.theory.axioms == tuple(axioms)

    def test_extended_structure_models_extension(self, small_sig, small_structure):
        thy = Theory(small_sig, (parse_expr(small_sig, "eq_a(f(ca),cb)"),))
        ext = henkin_extend(thy, 1, 3)
        big = extend_structure_for_henkin(small_structure, ext)
        assert satisfies_theory(big, ext.theory)

    @pytest.mark.parametrize("levels", [1, 2])
    def test_extended_structure_agrees_with_the_reference(
            self, small_sig, small_structure, levels):
        # at level 2 the formulas name level-1 constants, which the level's
        # structure must interpret
        thy = Theory(small_sig, (parse_expr(small_sig, "eq_a(f(ca),cb)"),))
        ext = henkin_extend(thy, levels, 3)
        assert len(ext.level_sizes) == levels and sum(ext.level_sizes) == len(ext.constants)
        big = extend_structure_for_henkin(small_structure, ext)
        ref = reference_extend_structure(small_structure, ext)
        assert big == ref
        assert ([big.interp[name] for name, _, _ in ext.constants]
                == [ref.interp[name] for name, _, _ in ext.constants])

    def test_restriction_recovers_original(self, small_sig, small_structure):
        thy = Theory(small_sig, (parse_expr(small_sig, "eq_a(f(ca),cb)"),))
        ext = henkin_extend(thy, 1, 3)
        big = extend_structure_for_henkin(small_structure, ext)
        back = restrict_structure(big, small_sig)
        for phi in thy.axioms:
            assert satisfies(back, phi)


def reference_saturate_bounded(theory: Theory, candidates, oracle) -> Theory:
    """saturate_bounded as it was, testing membership on the axiom list."""
    axioms = list(theory.axioms)
    for phi in candidates:
        verdict = oracle.decide(phi)
        if verdict == "undecided":
            raise OracleUndecided(f"oracle undecided on {print_expr(phi)}")
        chosen = phi if verdict == "provable" else neg(theory.signature, phi)
        if chosen not in axioms:
            axioms.append(chosen)
    return Theory(theory.signature, tuple(axioms))


class TestSaturate:
    def test_same_as_the_reference(self):
        """A bounded completion over the closed formulas of size at most 3
        of a level-1 extension, witness constants included (a superset of
        scripts/henkin_demo.py's candidates, which are over the source
        signature): the same axioms in the same order, some candidates
        already present."""
        sig = Signature(["a"], ["a"], {"ca": "a", "cb": "a", "f": "(a)a"})
        m = make_full_structure(
            sig, {"a": ("0", "1")},
            {"ca": "0", "cb": "1", "f": lambda v: "1" if v == "0" else "0"})
        ext = henkin_extend(Theory(sig, (parse_expr(sig, "eq_a(f(ca),cb)"),)), 1, 3)
        oracle = ThOracle(extend_structure_for_henkin(m, ext))
        cands = enumerate_exprs(ext.theory.signature, PROP, (), 3)
        want = reference_saturate_bounded(ext.theory, cands, oracle)
        got = saturate_bounded(ext.theory, cands, oracle)
        assert got.signature is want.signature and got.axioms == want.axioms
        assert len(want.axioms) < len(ext.theory.axioms) + len(cands)

    def test_adds_formula_or_negation(self, small_sig, oracle):
        thy = Theory(small_sig, ())
        cands = [parse_expr(small_sig, t)
                 for t in ("eq_a(f(ca),cb)", "eq_a(ca,cb)", "top")]
        sat = saturate_bounded(thy, cands, oracle)
        assert parse_expr(small_sig, "eq_a(f(ca),cb)") in sat.axioms
        assert parse_expr(small_sig, "not(eq_a(ca,cb))") in sat.axioms
        for a in sat.axioms:
            assert oracle.decide(a) == "provable"


class Undecided:
    """An oracle that decides nothing."""

    def decide(self, phi):
        return "undecided"


class TestUndecidedOracle:
    """Every reader of an oracle's verdict raises OracleUndecided naming
    the formula it asked about."""

    def test_each_reader_raises(self, small_sig, small_structure):
        phi = parse_expr(small_sig, "eq_a(f(ca),cb)")
        ctx = TermModelContext(small_sig, Undecided(), size_bound=4)
        tm = TermModel(ctx, small_structure, {})
        theory = Theory(small_sig)
        for call, formula in ((lambda: norm(ctx, phi), phi),
                              (lambda: check_ded_sat(tm, phi), phi),
                              (lambda: saturate_bounded(theory, [phi], Undecided()), phi),
                              (lambda: is_consistent_up_to(theory, Undecided()), bot(small_sig))):
            with pytest.raises(OracleUndecided) as info:
                call()
            assert str(info.value) == f"oracle undecided on {print_expr(formula)}"


class TestEnumeration:
    def test_sizes_within_bound(self, small_sig):
        for e in enumerate_exprs(small_sig, "a", (), 4):
            assert size(e) <= 4 and fv(e) == frozenset()

    def test_sorted_and_unique(self, small_sig):
        es = enumerate_exprs(small_sig, PROP, (), 4)
        keys = [order_key(e) for e in es]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_scope_variables_available(self, small_sig):
        es = enumerate_exprs(small_sig, "a", ("v0^a",), 2)
        assert parse_expr(small_sig, "v0^a") in es
        assert parse_expr(small_sig, "f(v0^a)") in es

    def test_canonical_binder_naming(self, small_sig):
        # binders avoid the scope, so each renaming class appears once
        for e in enumerate_exprs(small_sig, PROP, ("v0^a",), 4):
            assert "v0^a" not in gv(e)

    def test_monotone_in_bound(self, small_sig):
        small = set(enumerate_exprs(small_sig, "a", (), 3))
        big = set(enumerate_exprs(small_sig, "a", (), 4))
        assert small <= big

    def test_a_call_leaves_no_reference_cycle(self, small_sig):
        """The enumeration builds no closure over itself, which every call
        would leave behind as a cycle."""
        assert garbage_cycles_left_by(
            lambda: enumerate_exprs(small_sig, PROP, ("v0^a",), 4)) == 0


class TestNorm:
    def test_formulas_go_to_truth_values(self, small_sig, ctx):
        assert norm(ctx, parse_expr(small_sig, "eq_a(f(ca),cb)")) == top(small_sig)
        assert norm(ctx, parse_expr(small_sig, "eq_a(ca,cb)")) == bot(small_sig)

    def test_terms_get_least_representative(self, small_sig, ctx):
        assert norm(ctx, parse_expr(small_sig, "f(f(ca))")) == \
            parse_expr(small_sig, "ca")
        assert norm(ctx, parse_expr(small_sig, "f(ca)")) == \
            parse_expr(small_sig, "cb")

    def test_idempotent(self, small_sig, ctx):
        for text in ("ca", "f(ca)", "f(f(f(cb)))", "eq_a(ca,ca)"):
            n = norm(ctx, parse_expr(small_sig, text))
            assert norm(ctx, n) == n

    def test_norm_provably_equal(self, small_sig, ctx):
        e = parse_expr(small_sig, "f(f(cb))")
        n = norm(ctx, e)
        assert ctx.oracle.decide(mk_eq(small_sig, n, e)) == "provable"

    def test_open_rejected(self, small_sig, ctx):
        with pytest.raises(Exception):
            norm(ctx, parse_expr(small_sig, "f(v0^a)"))

    def test_no_representative(self, oracle):
        # a sort whose only closed terms exceed the bound: no constants at all
        sig = Signature(["a"], ["a"], {"g": "(a)a"})
        s_ctx = TermModelContext(sig, oracle, size_bound=2)
        with pytest.raises(NoRepresentativeInBound):
            build_term_structure(s_ctx)


class TestTermStructure:
    def test_carriers_are_norms(self, small_sig, ctx):
        tm = build_term_structure(ctx)
        assert tm.structure.carriers["a"] == ("ca", "cb")
        assert tm.structure.carriers[PROP] == ("bot", "top")
        for atom in tm.structure.carriers["a"]:
            n = tm.atom_expr["a"][atom]
            assert print_expr(norm(ctx, n)) == atom

    def test_operations_act_by_norm(self, small_sig, ctx):
        tm = build_term_structure(ctx)
        assert tm.structure.interp["f"][("ca",)] == "cb"
        assert tm.structure.interp["f"][("cb",)] == "ca"

    def test_closure(self, small_sig, ctx):
        tm = build_term_structure(ctx)
        rep = check_closure(tm.structure, cap=1)
        assert rep.ok, rep.violations

    def test_cm_expr_exhaustive(self, small_sig, ctx):
        tm = build_term_structure(ctx)
        for sort in sorted(small_sig.sorts):
            for e in ctx.closed(sort):
                assert check_cm_expr(tm, e, ())
            for e in ctx.scoped(sort, ("v0^a",)):
                xs = ("v0^a",) if "v0^a" in fv(e) else ()
                assert check_cm_expr(tm, e, xs)

    def test_ded_sat_exhaustive(self, small_sig, ctx):
        tm = build_term_structure(ctx)
        for phi in ctx.closed(PROP):
            assert check_ded_sat(tm, phi)

    def test_satisfies_source_theory(self, small_sig, ctx):
        thy = Theory(small_sig, (
            parse_expr(small_sig, "eq_a(f(ca),cb)"),
            parse_expr(small_sig, "forall v0^a. eq_a(f(f(v0^a)),v0^a)")))
        assert satisfies_theory(ThOracle(ctx.oracle.structure).structure, thy)
        tm = build_term_structure(ctx)
        assert satisfies_theory(tm.structure, thy)

    def test_deterministic(self, small_sig, oracle):
        t1 = build_term_structure(TermModelContext(small_sig, oracle, size_bound=4))
        t2 = build_term_structure(TermModelContext(small_sig, oracle, size_bound=4))
        assert t1.structure.carriers == t2.structure.carriers
        assert t1.structure.interp == t2.structure.interp
        assert t1.structure.selected == t2.structure.selected


class DecideOnly:
    """ThOracle without classify, the oracle of reference_norm."""

    def __init__(self, structure):
        self.decide = ThOracle(structure).decide


def reference_norm(ctx, e):
    """norm by its definition, which norm used for an oracle without
    classify: a linear scan that asks decide about the equality of e with
    each closed candidate ordered before it, in order.  Open expressions,
    formulas and cached ones go to norm, which uses no classify for them."""
    if fv(e) or e.sort == PROP or e in ctx.norm_cache:
        return norm(ctx, e)
    candidates = ctx.closed(e.sort)
    before = bisect.bisect_left(candidates, order_key(e), key=order_key)
    result = None
    for a in itertools.islice(candidates, before):
        verdict = ctx.oracle.decide(mk_eq(ctx.signature, a, e))
        if verdict == "undecided":
            raise OracleUndecided(f"oracle undecided on an equality for {print_expr(e)}")
        if verdict == "provable":
            result = a
            break
    if result is None:
        if size(e) > ctx.size_bound:
            raise NoRepresentativeInBound(
                f"no provably equal expression of size <= {ctx.size_bound} for {print_expr(e)}")
        result = e
    ctx.norm_cache[e] = result
    return result


NORM_OF = {ThOracle: norm, DecideOnly: reference_norm}


def _norm_text(ctx, e):
    try:
        return print_expr(henkin.norm(ctx, e))
    except NoRepresentativeInBound:
        return "no representative"


def _term_structure_text(ctx):
    try:
        return print_structure(build_term_structure(ctx).structure)
    except NoRepresentativeInBound:
        return "no representative"


def nested_mu_structure():
    """Element 2 is named only by a nested mu term: mu sends the everywhere
    false predicate to 1 and the predicate true exactly at 1 to 2."""
    sig = Signature(["a"], ["a"], {"ca": "a", "mu": "((a)pi)a"})

    def mu(t):
        true_at = tuple(x for (x,), v in t.rows if v == "1")
        return {(): "1", ("1",): "2"}.get(true_at, "0")
    return make_full_structure(sig, {"a": ("0", "1", "2")}, {"ca": "0", "mu": mu})


def mu_structure(sig, mu_values):
    """The mu toy over {0,1}; mu_values[i] is mu of the predicate whose
    values on 0 and 1 are the binary digits of i."""
    def mu(t):
        return mu_values[int("".join(v for _, v in t.rows), 2)]
    return make_full_structure(
        sig, {"a": ("0", "1")},
        {"ca": "0", "cb": "1", "f": lambda v: "1" if v == "0" else "0", "mu": mu})


class TestClassifyAgainstScan:
    """The classify lookup and the linear decide scan are two ways to the
    same norm; the scan, reference_norm, is the reference.  Where a pipeline
    calls norm, the scan is patched in for it."""

    def assert_same_norms(self, monkeypatch, structure, bound):
        def scanned(f, *args):
            with monkeypatch.context() as m:
                m.setattr(henkin, "norm", reference_norm)
                return f(*args)

        sig = structure.signature
        fast = TermModelContext(sig, ThOracle(structure), size_bound=bound)
        scan = TermModelContext(sig, DecideOnly(structure), size_bound=bound)
        u = ("v0^a",)
        # closed instances of every open expression, including instances
        # past the bound (the largest closed term substituted in)
        fillers = fast.closed("a")[:2] + fast.closed("a")[-1:]
        for sort in sorted(sig.sorts):
            for e in fast.closed(sort):
                assert _norm_text(fast, e) == scanned(_norm_text, scan, e)
            for e in fast.scoped(sort, u):
                for filler in (fillers if fv(e) else fillers[:1]):
                    inst = substitute(sig, e, u, [filler])
                    assert _norm_text(fast, inst) == scanned(_norm_text, scan, inst)
        assert _term_structure_text(TermModelContext(
            sig, ThOracle(structure), size_bound=bound)) == \
            scanned(_term_structure_text, TermModelContext(
                sig, DecideOnly(structure), size_bound=bound))

    def test_small_sig(self, monkeypatch, small_structure):
        self.assert_same_norms(monkeypatch, small_structure, 4)

    @pytest.mark.parametrize("mu_values", ["0101", "0011", "1110", "0000", "1001"])
    def test_mu_toy(self, monkeypatch, toy_sig, mu_values):
        self.assert_same_norms(monkeypatch, mu_structure(toy_sig, mu_values), 4)

    def test_nested_mu(self, monkeypatch):
        self.assert_same_norms(monkeypatch, nested_mu_structure(), 4)

    @pytest.mark.parametrize("oracle_cls", [ThOracle, DecideOnly])
    def test_unenumerated_expression_keeps_its_place(self, oracle_cls):
        # the enumeration names the inner binder v1^a; the shadowing variant
        # is ordered before it, so nothing earlier in its class beats it
        s = nested_mu_structure()
        sig = s.signature
        c = TermModelContext(sig, oracle_cls(s), size_bound=5)
        shadowing = parse_expr(sig, "mu((v0^a): eq_a(mu((v0^a): bot),v0^a))")
        canonical = parse_expr(sig, "mu((v0^a): eq_a(mu((v1^a): bot),v0^a))")
        assert shadowing not in c.closed("a") and canonical in c.closed("a")
        assert NORM_OF[oracle_cls](c, shadowing) == shadowing
        assert NORM_OF[oracle_cls](c, canonical) == canonical

    @pytest.mark.parametrize("oracle_cls", [ThOracle, DecideOnly])
    def test_past_the_bound_finds_representative(self, small_sig, small_structure,
                                                 oracle_cls):
        c = TermModelContext(small_sig, oracle_cls(small_structure), size_bound=4)
        e = parse_expr(small_sig, "f(f(f(f(f(ca)))))")
        assert size(e) > c.size_bound
        assert NORM_OF[oracle_cls](c, e) == parse_expr(small_sig, "cb")

    @pytest.mark.parametrize("oracle_cls", [ThOracle, DecideOnly])
    def test_past_the_bound_without_representative(self, oracle_cls):
        # g climbs 0 -> 1 -> 2 -> 2; within size 2 only 0 and 1 are named
        sig = Signature(["a"], ["a"], {"ca": "a", "g": "(a)a"})
        s = make_full_structure(sig, {"a": ("0", "1", "2")},
                                {"ca": "0", "g": {("0",): "1", ("1",): "2",
                                                  ("2",): "2"}})
        c = TermModelContext(sig, oracle_cls(s), size_bound=2)
        with pytest.raises(NoRepresentativeInBound):
            NORM_OF[oracle_cls](c, parse_expr(sig, "g(g(ca))"))
        wider = TermModelContext(sig, oracle_cls(s), size_bound=3)
        assert NORM_OF[oracle_cls](wider, parse_expr(sig, "g(g(g(ca)))")) == \
            parse_expr(sig, "g(g(ca))")
