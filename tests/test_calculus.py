import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from funlog import calculus
from funlog.signature import (
    PROP, CONNECTIVES, Signature, eq_op, variable_sort,
)
from funlog.syntax import (
    parse_expr, print_expr, var, mk, mk_eq, top, bot, neg, imp, conj, disj,
    iff, forall, exists, forall_chain,
)
from funlog.subst import fv, gv, substitute, substitute1
from funlog.calculus import (
    Theory, Proof, ProofLine, CheckResult, Taut, ForallElim, ExistsIntro,
    ForallImpDist, ExistsImpDist, EqRefl, EqCongr, NonlogicalAxiom, Premise,
    MP, Gen, is_tautology, check_axiom_instance, check_proof, used_axioms,
    reindex_axioms, derive_symmetry, derive_transitivity,
    derive_equality_theorem, derive_equality_rule, deduction_transform,
    sorted_vars, ProofBuilder, TooManyAtoms, SideConditionViolated,
    PremiseNotClosed, SourceProofInvalid,
)
from funlog.gen import rand_signature, rand_expr, rand_proof, _pool
from funlog.henkin import ThOracle, is_consistent_up_to

from conftest import garbage_cycles_left_by


@pytest.fixture
def sig():
    return Signature(
        ["a"], ["a"],
        {"ca": "a", "cb": "a", "f": "(a)a", "P": "(a)pi", "mu": "((a)pi)a"})


@pytest.fixture
def thy(sig):
    return Theory(sig, (
        parse_expr(sig, "eq_a(f(ca),cb)"),
        parse_expr(sig, "forall v0^a. P(v0^a)"),
    ))


class TestTautology:
    def test_basics(self, sig):
        assert is_tautology(parse_expr(sig, "imp(P(ca),P(ca))"))
        assert is_tautology(parse_expr(sig, "or(P(ca),not(P(ca)))"))
        assert is_tautology(parse_expr(sig, "top"))
        assert not is_tautology(parse_expr(sig, "P(ca)"))
        assert not is_tautology(parse_expr(sig, "bot"))

    def test_peirce(self, sig):
        p, q = parse_expr(sig, "P(ca)"), parse_expr(sig, "P(cb)")
        assert is_tautology(imp(sig, imp(sig, imp(sig, p, q), p), p))

    def test_quantified_subformulas_are_atoms(self, sig):
        phi = parse_expr(sig, "imp(forall v0^a. P(v0^a),forall v0^a. P(v0^a))")
        assert is_tautology(phi)
        # the quantifier is opaque: this is NOT a propositional tautology
        assert not is_tautology(
            parse_expr(sig, "imp(forall v0^a. P(v0^a),P(ca))"))

    def test_atom_limit(self, sig):
        phi = parse_expr(sig, "P(ca)")
        for i in range(25):
            phi = disj(sig, phi, parse_expr(sig, f"eq_a(v{i}^a,ca)"))
        with pytest.raises(TooManyAtoms):
            is_tautology(phi)

    def test_exactly_twenty_atoms_decided(self, sig):
        atoms = [parse_expr(sig, f"eq_a(v{i}^a,ca)") for i in range(20)]
        chain = atoms[0]
        for a in atoms[1:]:
            chain = conj(sig, chain, a)
        assert is_tautology(imp(sig, chain, atoms[-1]))
        assert not is_tautology(imp(sig, atoms[-1], chain))

    def test_twenty_one_atoms_raise(self, sig):
        atoms = [parse_expr(sig, f"eq_a(v{i}^a,ca)") for i in range(21)]
        chain = atoms[0]
        for a in atoms[1:]:
            chain = disj(sig, chain, a)
        with pytest.raises(TooManyAtoms, match="21 atoms"):
            is_tautology(imp(sig, chain, chain))

    def test_non_formula_is_not_a_tautology(self, sig):
        assert not is_tautology(parse_expr(sig, "ca"))


def truth_table_tautology(phi):
    """Reference: evaluate phi row by row over every assignment to its
    maximal non-connective subformulas (no bound on their number)."""
    if phi.sort != PROP:
        return False
    atoms = []

    def collect(e):
        if e.head in CONNECTIVES:
            for _, body in e.args:
                collect(body)
        elif e not in atoms:
            atoms.append(e)
    collect(phi)

    def ev(e, env):
        h = e.head
        if h not in CONNECTIVES:
            return env[e]
        bodies = [ev(b, env) for _, b in e.args]
        if h == "top":
            return True
        if h == "bot":
            return False
        if h == "not":
            return not bodies[0]
        if h == "imp":
            return (not bodies[0]) or bodies[1]
        if h == "and":
            return bodies[0] and bodies[1]
        if h == "or":
            return bodies[0] or bodies[1]
        return bodies[0] == bodies[1]  # iff

    return all(ev(phi, dict(zip(atoms, values)))
               for values in itertools.product((False, True), repeat=len(atoms)))


ATOM_TEXTS = (
    "P(ca)", "P(cb)", "P(f(ca))", "eq_a(ca,cb)", "eq_a(f(v0^a),cb)",
    "forall v0^a. P(v0^a)", "forall v1^a. P(v1^a)", "exists v0^a. P(v0^a)",
    "forall v0^a. imp(P(v0^a),P(f(v0^a)))",
)


def rand_connective_formula(sig, rng, atoms, depth):
    """A random formula over the given atoms (repeats likely) built from
    every connective; with no atoms it is built from top and bot alone."""
    if depth <= 0 or rng.random() < 0.2:
        if atoms and rng.random() < 0.8:
            return rng.choice(atoms)
        return rng.choice((top, bot))(sig)
    h = rng.choice(("not", "imp", "and", "or", "iff"))
    a = rand_connective_formula(sig, rng, atoms, depth - 1)
    if h == "not":
        return neg(sig, a)
    b = rand_connective_formula(sig, rng, atoms, depth - 1)
    return {"imp": imp, "and": conj, "or": disj, "iff": iff}[h](sig, a, b)


class TestTautologyAgainstTruthTable:
    """The bit-parallel check and the row-by-row truth table are two ways to
    the same verdict; the truth table is the reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_connective_formulas(self, sig, seed):
        rng = random.Random(seed)
        pool = [parse_expr(sig, t) for t in ATOM_TEXTS]
        verdicts = set()
        for _ in range(400):
            atoms = rng.sample(pool, rng.randint(0, 5))
            phi = rand_connective_formula(sig, rng, atoms, rng.randint(0, 5))
            verdict = is_tautology(phi)
            assert verdict == truth_table_tautology(phi), print_expr(phi)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_formulas(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(20):
            s = rand_signature(rng)
            for _ in range(20):
                phi = rand_expr(s, rng, PROP, rng.randint(0, 4))
                phi = imp(s, phi, disj(s, phi, rand_expr(s, rng, PROP, 2)))
                assert is_tautology(phi) and truth_table_tautology(phi)
                psi = rand_expr(s, rng, PROP, rng.randint(0, 4))
                assert is_tautology(psi) == truth_table_tautology(psi)

    def test_constant_formulas(self, sig):
        t, f = top(sig), bot(sig)
        for phi in (t, f, neg(sig, f), imp(sig, f, f), iff(sig, t, f),
                    conj(sig, t, neg(sig, t)), disj(sig, f, neg(sig, f))):
            assert is_tautology(phi) == truth_table_tautology(phi)

    @pytest.mark.parametrize("levels", (12, 14, 16))
    def test_shared_subformulas(self, sig, levels):
        """and(phi,phi)-style nesting: 2**levels paths to one atom, a few
        distinct nodes."""
        rng = random.Random(levels)
        p, q = parse_expr(sig, "P(ca)"), parse_expr(sig, "forall v0^a. P(v0^a)")
        for _ in range(4):
            phi = rand_connective_formula(sig, rng, [p, q], 2)
            for _ in range(levels):
                op = rng.choice((conj, disj, imp, iff, conj, disj))
                phi = op(sig, phi, phi) if rng.random() < 0.8 else neg(sig, phi)
            cases = (phi, neg(sig, phi), imp(sig, phi, phi))
            verdicts = [is_tautology(psi) for psi in cases]
            assert verdicts == [truth_table_tautology(psi) for psi in cases]
            assert not all(verdicts[:2]) and verdicts[2]  # both verdicts occur

    def test_past_the_recursion_limit(self, sig):
        """2,000-level chains of not and of a quantifier; the quantifier
        chain's cached printed forms hold about 36 MB."""
        p = parse_expr(sig, "P(v0^a)")
        negs = imp(sig, p, p)
        for _ in range(2000):
            negs = neg(sig, negs)
        assert is_tautology(negs) and not is_tautology(neg(sig, negs))
        del negs
        quants = p
        for _ in range(2000):
            quants = forall(sig, "v0^a", quants)
        assert quants.depth > 2000
        assert is_tautology(imp(sig, quants, quants)) and not is_tautology(quants)

    def test_atom_masks(self):
        n = 5
        rows = 1 << n
        for i in range(n):
            m = calculus._atom_mask(i, rows)
            assert [(m >> j) & 1 for j in range(rows)] == \
                [(j >> i) & 1 for j in range(rows)]


class TestAxiomInstances:
    def test_forall_elim(self, sig):
        body = parse_expr(sig, "P(v0^a)")
        a = parse_expr(sig, "f(ca)")
        phi = imp(sig, forall(sig, "v0^a", body), substitute1(sig, body, "v0^a", a))
        assert check_axiom_instance(sig, ForallElim("v0^a", a), phi)

    def test_kernel_bug_is_not_a_rejection(self, sig, monkeypatch):
        body = parse_expr(sig, "P(v0^a)")
        a = parse_expr(sig, "f(ca)")
        phi = imp(sig, forall(sig, "v0^a", body), substitute1(sig, body, "v0^a", a))

        def broken(*args):
            raise RuntimeError("kernel bug")
        monkeypatch.setattr(calculus, "substitute1", broken)
        with pytest.raises(RuntimeError, match="kernel bug"):
            check_axiom_instance(sig, ForallElim("v0^a", a), phi)

    def test_ill_formed_justification_rejected(self, sig):
        # the cited context puts a formula in f's term slot: mk raises a
        # SortMismatch, which is a rejection, not an error
        p = parse_expr(sig, "P(ca)")
        just = EqCongr("f", 0, (), (), (), p, p, (), ())
        assert not check_axiom_instance(sig, just, imp(sig, p, p))

    def test_forall_elim_capture_rejected(self, sig):
        # a's free variable would be captured inside the mu binder
        body = parse_expr(sig, "P(mu((v1^a): eq_a(v0^a,v1^a)))")
        a = parse_expr(sig, "f(v1^a)")
        phi = imp(sig, forall(sig, "v0^a", body),
                  substitute1(sig, body, "v0^a", a))
        assert not check_axiom_instance(sig, ForallElim("v0^a", a), phi)

    def test_exists_intro(self, sig):
        body = parse_expr(sig, "eq_a(v0^a,cb)")
        a = parse_expr(sig, "cb")
        phi = imp(sig, substitute1(sig, body, "v0^a", a), exists(sig, "v0^a", body))
        assert check_axiom_instance(sig, ExistsIntro("v0^a", a), phi)

    def test_imp_dist_side_condition(self, sig):
        psi = parse_expr(sig, "P(ca)")
        chi = parse_expr(sig, "P(v0^a)")
        good = imp(sig, forall(sig, "v0^a", imp(sig, psi, chi)),
                   imp(sig, psi, forall(sig, "v0^a", chi)))
        assert check_axiom_instance(sig, ForallImpDist("v0^a"), good)
        bad_psi = parse_expr(sig, "P(v0^a)")
        bad = imp(sig, forall(sig, "v0^a", imp(sig, bad_psi, chi)),
                  imp(sig, bad_psi, forall(sig, "v0^a", chi)))
        assert not check_axiom_instance(sig, ForallImpDist("v0^a"), bad)

    def test_exists_imp_dist(self, sig):
        psi = parse_expr(sig, "P(ca)")
        chi = parse_expr(sig, "P(v0^a)")
        good = imp(sig, forall(sig, "v0^a", imp(sig, chi, psi)),
                   imp(sig, exists(sig, "v0^a", chi), psi))
        assert check_axiom_instance(sig, ExistsImpDist("v0^a"), good)

    def test_eqrefl_both_forms(self, sig):
        t = parse_expr(sig, "f(v0^a)")
        assert check_axiom_instance(sig, EqRefl(), mk_eq(sig, t, t))
        p = parse_expr(sig, "P(ca)")
        assert check_axiom_instance(sig, EqRefl(), iff(sig, p, p))
        assert not check_axiom_instance(
            sig, EqRefl(), parse_expr(sig, "eq_a(ca,cb)"))

    def test_eqcongr_plain_slot(self, sig):
        a, b, c = (parse_expr(sig, t) for t in ("ca", "cb", "f(ca)"))
        phi = imp(sig, mk_eq(sig, a, b),
                  mk_eq(sig, mk_eq(sig, a, c), mk_eq(sig, b, c)))
        just = EqCongr(eq_op("a"), 0, (), (), (), a, b, (), (((), c),))
        assert check_axiom_instance(sig, just, phi)

    def test_eqcongr_binder_slot(self, sig):
        b1 = parse_expr(sig, "P(v0^a)")
        b2 = parse_expr(sig, "P(f(v0^a))")
        z = "v2^a"
        ante = forall_chain(sig, (z,), mk_eq(
            sig, substitute1(sig, b1, "v0^a", var(sig, z)),
            substitute1(sig, b2, "v0^a", var(sig, z))))
        cons = mk_eq(sig,
                     mk(sig, "mu", ((("v0^a",), b1),)),
                     mk(sig, "mu", ((("v0^a",), b2),)))
        just = EqCongr("mu", 0, ("v0^a",), ("v0^a",), (z,), b1, b2, (), ())
        assert check_axiom_instance(sig, just, imp(sig, ante, cons))

    def test_eqcongr_z_overlap_rejected(self, sig):
        b1 = parse_expr(sig, "eq_a(v0^a,v2^a)")
        b2 = parse_expr(sig, "eq_a(f(v0^a),v2^a)")
        z = "v2^a"  # overlaps fv(b1)
        ante = forall_chain(sig, (z,), mk_eq(
            sig, substitute1(sig, b1, "v0^a", var(sig, z)),
            substitute1(sig, b2, "v0^a", var(sig, z))))
        cons = mk_eq(sig,
                     mk(sig, "mu", ((("v0^a",), b1),)),
                     mk(sig, "mu", ((("v0^a",), b2),)))
        just = EqCongr("mu", 0, ("v0^a",), ("v0^a",), (z,), b1, b2, (), ())
        assert not check_axiom_instance(sig, just, imp(sig, ante, cons))


def quantifier_scheme_cases():
    """Per quantifier scheme: the signature, (justification, formula) pairs
    it must accept, and (case, justification, formula) triples it must
    reject."""
    sig = Signature(["a", "b"], ["a", "b"], {
        "ca": "a", "cb": "b", "f": "(a)a", "P": "(a)pi", "Q": "(b)pi",
        "mu": "((a)pi)a"})

    def p(text):
        return parse_expr(sig, text)

    x, y = "v0^a", "v1^a"
    body, a, ca, cb, vacuous = p("P(f(v0^a))"), p("f(ca)"), p("ca"), p("cb"), p("Q(cb)")
    captures, a_cap = p("P(mu((v1^a): eq_a(v0^a,v1^a)))"), p("f(v1^a)")
    psi, chi, psi_x, psi2 = p("P(ca)"), p("P(v0^a)"), p("P(f(v0^a))"), p("P(f(ca))")

    def forall_elim(b, t):  # forall x B -> B[x<-t]
        return imp(sig, forall(sig, x, b), substitute1(sig, b, x, t))

    def exists_intro(b, t):  # B[x<-t] -> exists x B
        return imp(sig, substitute1(sig, b, x, t), exists(sig, x, b))

    def forall_dist(ps, outer=None):  # forall x (psi -> chi) -> (psi -> forall x chi)
        return imp(sig, forall(sig, x, imp(sig, ps, chi)),
                   imp(sig, outer or ps, forall(sig, x, chi)))

    def exists_dist(ps, outer=None):  # forall x (chi -> psi) -> (exists x chi -> psi)
        return imp(sig, forall(sig, x, imp(sig, chi, ps)),
                   imp(sig, exists(sig, x, chi), outer or ps))

    def swap(phi):
        return imp(sig, phi.args[1][1], phi.args[0][1])

    inst = substitute1(sig, body, x, a)
    cases = {}
    for rule, shape, mirror, other_quantifier in (
            (ForallElim, forall_elim, exists_intro, imp(sig, exists(sig, x, body), inst)),
            (ExistsIntro, exists_intro, forall_elim, imp(sig, inst, forall(sig, x, body)))):
        good = shape(body, a)
        accept = [(rule(x, a), good), (rule(x, ca), shape(vacuous, ca))]
        cases[rule.__name__] = (sig, accept, [
            ("wrong bound variable", rule(y, a), good),
            ("mirror rule's instance", rule(x, a), mirror(body, a)),
            ("the other quantifier", rule(x, a), other_quantifier),
            ("swapped sides", rule(x, a), swap(good)),
            ("a of the wrong sort", rule(x, cb), shape(vacuous, ca)),
            ("capture in a", rule(x, a_cap), shape(captures, a_cap)),
        ])
    for rule, shape, mirror, other_quantifier in (
            (ForallImpDist, forall_dist, exists_dist,
             imp(sig, forall(sig, x, imp(sig, psi, chi)), imp(sig, psi, exists(sig, x, chi)))),
            (ExistsImpDist, exists_dist, forall_dist,
             imp(sig, forall(sig, x, imp(sig, chi, psi)), imp(sig, forall(sig, x, chi), psi)))):
        good = shape(psi)
        cases[rule.__name__] = (sig, [(rule(x), good)], [
            ("wrong bound variable", rule(y), good),
            ("mirror rule's instance", rule(x), mirror(psi)),
            ("the other quantifier", rule(x), other_quantifier),
            ("swapped sides", rule(x), swap(good)),
            ("x free in psi", rule(x), shape(psi_x)),
            ("psi differs across the implication", rule(x), shape(psi, psi2)),
        ])
    return cases


class TestQuantifierSchemes:
    """Accept/reject table for the four quantifier axiom schemes."""

    @pytest.mark.parametrize("rule", ["ForallElim", "ExistsIntro",
                                      "ForallImpDist", "ExistsImpDist"])
    def test_accepts_and_rejects(self, rule):
        sig, good, bad = quantifier_scheme_cases()[rule]
        for just, phi in good:
            assert check_axiom_instance(sig, just, phi), print_expr(phi)
        for case, just, phi in bad:
            assert not check_axiom_instance(sig, just, phi), (case, print_expr(phi))


class TestCheckProof:
    def test_valid_proof(self, sig, thy):
        b = ProofBuilder(thy)
        ax = b.add(thy.axioms[1], NonlogicalAxiom(1))
        inst = b.add(parse_expr(
            sig, "imp(forall v0^a. P(v0^a),P(cb))"), ForallElim("v0^a", parse_expr(sig, "cb")))
        b.mp(ax, inst)
        assert check_proof(b.proof())

    def test_premise_lines(self, sig, thy):
        prem = parse_expr(sig, "P(ca)")
        p = Proof(thy, (prem,), (ProofLine(prem, Premise(0)),))
        assert check_proof(p)
        wrong = Proof(thy, (prem,), (ProofLine(parse_expr(sig, "P(cb)"), Premise(0)),))
        res = check_proof(wrong)
        assert not res and res.line == 0

    def test_broken_mp_reported(self, sig, thy):
        phi = parse_expr(sig, "P(ca)")
        lines = (
            ProofLine(imp(sig, phi, phi), Taut()),
            ProofLine(phi, MP(0, 0)),
        )
        res = check_proof(Proof(thy, (), lines))
        assert not res and res.line == 1 and "implication" in res.reason

    def test_forward_reference_rejected(self, sig, thy):
        phi = parse_expr(sig, "P(ca)")
        lines = (ProofLine(phi, MP(0, 1)),)
        assert not check_proof(Proof(thy, (), lines))

    def test_gen(self, sig, thy):
        b = ProofBuilder(thy)
        t = b.taut(parse_expr(sig, "imp(P(ca),P(ca))"))
        b.gen(t, "v3^a")
        assert check_proof(b.proof())

    def test_non_formula_line_rejected(self, sig, thy):
        res = check_proof(Proof(thy, (), (ProofLine(parse_expr(sig, "ca"), Taut()),)))
        assert not res and res.line == 0

    def test_random_generated_proofs(self):
        rng = random.Random(31)
        for _ in range(100):
            s = rand_signature(rng)
            p = rand_proof(rng, Theory(s, ()))
            assert check_proof(p)


def rejections(sig, thy):
    """The lines check_proof accepts, and name -> (premises, lines, the line
    check_proof must reject, its exact reason).  Each proof opens with a
    valid line.  The congruence cases change one field of an accepted
    instance, and the repeated zs keep the formula _congruence would want
    of them, so that only the check for distinct zs rejects it."""
    p, q = parse_expr(sig, "P(ca)"), parse_expr(sig, "P(cb)")
    ok = ProofLine(imp(sig, p, p), Taut())
    ca, cb = parse_expr(sig, "ca"), parse_expr(sig, "cb")
    f_congr = ProofLine(imp(sig, mk_eq(sig, ca, cb), mk_eq(sig, mk(sig, "f", (((), ca),)),
                                                            mk(sig, "f", (((), cb),)))),
                        EqCongr("f", 0, (), (), (), ca, cb, (), ()))

    def binder_congr(op, zs, xs, b1, b2):
        """The congruence instance of op's binder slot, built as _congruence
        builds the formula it wants."""
        b1, b2 = parse_expr(sig, b1), parse_expr(sig, b2)
        z1, z2 = (substitute(sig, b, xs, [var(sig, z) for z in zs]) for b in (b1, b2))
        return ProofLine(imp(sig, forall_chain(sig, zs, mk_eq(sig, z1, z2)),
                             mk_eq(sig, mk(sig, op, ((xs, b1),)), mk(sig, op, ((xs, b2),)))),
                         EqCongr(op, 0, xs, xs, zs, b1, b2, (), ()))

    mu_congr = binder_congr("mu", ("v1^a",), ("v0^a",), "P(v0^a)", "P(f(v0^a))")
    nu_slot = ("v0^a", "v3^a"), "eq_a(v0^a,v3^a)", "eq_a(v3^a,v0^a)"
    nu_congr = binder_congr("nu", ("v1^a", "v2^a"), *nu_slot)
    repeated = binder_congr("nu", ("v1^a", "v1^a"), *nu_slot)
    wide = parse_expr(sig, "eq_a(v0^a,ca)")
    for i in range(1, 21):
        wide = disj(sig, wide, parse_expr(sig, f"eq_a(v{i}^a,ca)"))

    class Bogus:
        pass

    def one(formula, just, reason, premises=()):
        return premises, (ok, ProofLine(formula, just)), 1, reason

    def congr(line, **change):
        return one(line.formula, dataclasses.replace(line.justification, **change),
                   "not an instance of EqCongr")

    not_an = "not an instance of "
    return (ok, f_congr, mu_congr, nu_congr), {
        "axiom index": one(thy.axioms[0], NonlogicalAxiom(2),
                           "nonlogical axiom index out of range"),
        "axiom differs": one(p, NonlogicalAxiom(0), "formula differs from the cited axiom"),
        "premise index": one(p, Premise(1), "premise index out of range", (p,)),
        "premise differs": one(q, Premise(0), "formula differs from the cited premise", (p,)),
        "mp later": one(p, MP(0, 1), "rule references must be earlier lines"),
        "mp not the implication": one(q, MP(0, 0), "cited line is not the required implication"),
        "gen later": one(forall(sig, "v0^a", ok.formula), Gen(1, "v0^a"),
                         "rule references must be earlier lines"),
        "gen non-variable": one(ok.formula, Gen(0, "ca"), "'ca' is not a variable"),
        "gen wrong formula": one(forall(sig, "v0^a", p), Gen(0, "v0^a"),
                                 "formula is not the generalization of the cited line"),
        "non-formula": one(ca, Taut(), "line formula is not of the formula sort"),
        "too many atoms": one(imp(sig, wide, wide), Taut(), "21 atoms exceed the 20-atom bound"),
        "forall elim no implication": one(p, ForallElim("v0^a", ca), not_an + "ForallElim"),
        "exists intro no implication": one(p, ExistsIntro("v0^a", ca), not_an + "ExistsIntro"),
        "distribution no implication": one(p, ForallImpDist("v0^a"), not_an + "ForallImpDist"),
        "reflexivity not binary": one(top(sig), EqRefl(), not_an + "EqRefl"),
        "congruence unknown op": congr(f_congr, op="g"),
        "congruence slot out of range": congr(f_congr, i=1),
        "congruence repeated zs": one(repeated.formula, repeated.justification,
                                      not_an + "EqCongr"),
        "congruence zs sorts": congr(mu_congr, zs=()),
        "unknown justification": one(p, Bogus(), not_an + "Bogus"),
    }


CHECKER_SIG = Signature(["a"], ["a"], {"ca": "a", "cb": "a", "f": "(a)a", "P": "(a)pi",
                                       "mu": "((a)pi)a", "nu": "((a,a)pi)a"})
CHECKER_THY = Theory(CHECKER_SIG, (parse_expr(CHECKER_SIG, "eq_a(f(ca),cb)"),
                                   parse_expr(CHECKER_SIG, "forall v0^a. P(v0^a)")))
ACCEPTED, REJECTED = rejections(CHECKER_SIG, CHECKER_THY)


class TestCheckerReasons:
    """Every reason check_proof gives, each at the line it rejects."""

    def test_the_unchanged_lines(self):
        assert check_proof(Proof(CHECKER_THY, (), ACCEPTED))

    @pytest.mark.parametrize("name", list(REJECTED))
    def test_reason(self, name):
        premises, lines, line, reason = REJECTED[name]
        assert (check_proof(Proof(CHECKER_THY, premises, lines))
                == CheckResult(False, line, reason))

    @pytest.mark.parametrize("step, reason", [
        ("2. eq_a(f(ca),cb) ; axiom 2", "nonlogical axiom index out of range"),
        ("2. forall v0^a. imp(P(ca),P(ca)) ; gen 2 v0^a",
         "rule references must be earlier lines"),
    ])
    def test_through_the_cli(self, tmp_path, step, reason):
        """funlog check exits 1 and names the file, the step and the reason."""
        flt, flp = tmp_path / "t.flt", tmp_path / "p.flp"
        flt.write_text("sort a\nvarsort a\nop ca : a\nop cb : a\nop f : (a)a\n"
                       "op P : (a)pi\naxiom eq_a(f(ca),cb)\naxiom forall v0^a. P(v0^a)\n")
        flp.write_text(f"1. imp(P(ca),P(ca)) ; taut\n{step}\n")
        src = os.path.dirname(os.path.dirname(calculus.__file__))
        run = subprocess.run(
            [sys.executable, "-m", "funlog.cli", "--json", "check", str(flt), str(flp)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 1, run.stderr
        assert json.loads(run.stdout)["detail"] == f"{flp}:2: {reason}"


class TestDerived:
    def test_symmetry(self, sig, thy):
        a, b = parse_expr(sig, "f(ca)"), parse_expr(sig, "cb")
        p = derive_symmetry(thy, a, b)
        assert check_proof(p)
        assert p.conclusion == imp(sig, mk_eq(sig, a, b), mk_eq(sig, b, a))

    def test_symmetry_at_pi(self, sig, thy):
        a, b = parse_expr(sig, "P(ca)"), parse_expr(sig, "P(cb)")
        p = derive_symmetry(thy, a, b)
        assert check_proof(p)
        assert p.conclusion == imp(sig, iff(sig, a, b), iff(sig, b, a))

    def test_transitivity(self, sig, thy):
        x, y, z = (parse_expr(sig, t) for t in ("ca", "f(cb)", "cb"))
        p = derive_transitivity(thy, x, y, z)
        assert check_proof(p)
        assert p.conclusion == imp(
            sig, mk_eq(sig, x, y), imp(sig, mk_eq(sig, y, z), mk_eq(sig, x, z)))

    def test_equality_theorem_shape(self, sig, thy):
        e = parse_expr(sig, "f(mu((v0^a): eq_a(v1^a,v0^a)))")
        r, s = parse_expr(sig, "f(ca)"), parse_expr(sig, "cb")
        p = derive_equality_theorem(thy, e, "v1^a", r, s, ())
        assert check_proof(p)
        want = imp(sig, mk_eq(sig, r, s),
                   mk_eq(sig, substitute1(sig, e, "v1^a", r),
                         substitute1(sig, e, "v1^a", s)))
        assert p.conclusion == want

    def test_equality_theorem_capture_case(self, sig, thy):
        # r and s mention the very variable the binder uses
        e = parse_expr(sig, "mu((v0^a): eq_a(v1^a,v0^a))")
        r, s = parse_expr(sig, "f(v0^a)"), parse_expr(sig, "v0^a")
        p = derive_equality_theorem(thy, e, "v1^a", r, s, ("v0^a",))
        assert check_proof(p)
        ante = forall(sig, "v0^a", mk_eq(sig, r, s))
        assert p.conclusion.args[0][1] == ante

    def test_equality_theorem_side_condition(self, sig, thy):
        e = parse_expr(sig, "mu((v0^a): eq_a(v1^a,v0^a))")
        r, s = parse_expr(sig, "f(v0^a)"), parse_expr(sig, "v0^a")
        with pytest.raises(SideConditionViolated):
            derive_equality_theorem(thy, e, "v1^a", r, s, ())

    def test_equality_rule(self, sig, thy):
        e = parse_expr(sig, "P(f(v1^a))")
        r, s = parse_expr(sig, "ca"), parse_expr(sig, "f(cb)")
        p = derive_equality_rule(thy, e, "v1^a", r, s)
        assert check_proof(p)
        assert p.premises == (mk_eq(sig, r, s),)
        assert p.conclusion == mk_eq(
            sig, substitute1(sig, e, "v1^a", r), substitute1(sig, e, "v1^a", s))

    @pytest.mark.parametrize("generator", ["theorem", "rule", "deduction"])
    def test_a_call_leaves_no_reference_cycle(self, sig, thy, generator):
        """The induction is a module-level function, not a closure over
        itself, which every call would leave behind as a cycle with the
        builder and its lines."""
        e = parse_expr(sig, "eq_a(f(mu((v1^a): eq_a(v0^a,v1^a))),ca)")
        r, s = parse_expr(sig, "ca"), parse_expr(sig, "cb")
        rule = derive_equality_rule(thy, e, "v0^a", r, s)
        call = {"theorem": lambda: derive_equality_theorem(thy, e, "v0^a", r, s, ()),
                "rule": lambda: derive_equality_rule(thy, e, "v0^a", r, s),
                "deduction": lambda: deduction_transform(rule)}[generator]
        assert garbage_cycles_left_by(call) == 0

    def test_random_equality_theorems(self):
        rng = random.Random(77)
        for _ in range(60):
            s = rand_signature(rng)
            thy = Theory(s, ())
            z = rng.choice(_pool(s))
            e = rand_expr(s, rng, rng.choice(sorted(s.sorts)), rng.randint(0, 4),
                          scope=(z,))
            zsort = variable_sort(s, z)
            r = rand_expr(s, rng, zsort, rng.randint(0, 2))
            t = rand_expr(s, rng, zsort, rng.randint(0, 2))
            ys = sorted_vars(gv(e) & (fv(r) | fv(t)))
            p = derive_equality_theorem(thy, e, z, r, t, ys)
            assert check_proof(p), print_expr(e)


class TestDeduction:
    def test_transform(self, sig, thy):
        prem = parse_expr(sig, "P(ca)")
        b = ProofBuilder(thy, premises=(prem,))
        i = b.add(prem, Premise(0))
        g = b.gen(i, "v0^a")
        t = b.taut(imp(sig, b.formula(g), disj(sig, b.formula(g), bot(sig))))
        b.mp(g, t)
        p = b.proof()
        assert check_proof(p)
        q = deduction_transform(p)
        assert check_proof(q)
        assert q.premises == ()
        assert q.conclusion == imp(sig, prem, p.conclusion)

    def test_requires_closed_premise(self, sig, thy):
        prem = parse_expr(sig, "P(v0^a)")
        p = Proof(thy, (prem,), (ProofLine(prem, Premise(0)),))
        with pytest.raises(PremiseNotClosed):
            deduction_transform(p)

    def test_rejects_invalid_source(self, sig, thy):
        prem = parse_expr(sig, "P(ca)")
        p = Proof(thy, (prem,), (ProofLine(parse_expr(sig, "P(cb)"), Premise(0)),))
        with pytest.raises(SourceProofInvalid):
            deduction_transform(p)

    def test_no_premise(self, sig, thy):
        with pytest.raises(SourceProofInvalid):
            deduction_transform(Proof(thy, (), ()))

    def test_random_roundtrips(self):
        rng = random.Random(13)
        for _ in range(50):
            s = rand_signature(rng)
            thy = Theory(s, ())
            prem = rand_expr(s, rng, PROP, 2)
            while fv(prem):
                prem = rand_expr(s, rng, PROP, 2)
            p = rand_proof(rng, thy, premises=(prem,))
            q = deduction_transform(p)
            assert check_proof(q)
            assert q.conclusion == imp(s, prem, p.conclusion)


class TestCompactnessPlumbing:
    def test_used_axioms_and_reindex(self, sig, thy):
        b = ProofBuilder(thy)
        b.add(thy.axioms[1], NonlogicalAxiom(1))
        b.add(thy.axioms[1], NonlogicalAxiom(1))
        b.add(thy.axioms[0], NonlogicalAxiom(0))
        p = b.proof()
        used = used_axioms(p)
        assert used == (thy.axioms[1], thy.axioms[0])
        q = reindex_axioms(p, used)
        assert q.theory.axioms == used
        assert check_proof(q)

    def test_unused_axioms_dropped(self, sig, thy):
        b = ProofBuilder(thy)
        b.taut(parse_expr(sig, "imp(top,top)"))
        assert used_axioms(b.proof()) == ()


def test_is_consistent_up_to(toy_structure, toy_theory):
    oracle = ThOracle(toy_structure)
    assert is_consistent_up_to(toy_theory, oracle)


def test_theory_rejects_non_formula_axiom(sig):
    with pytest.raises(Exception):
        Theory(sig, (parse_expr(sig, "ca"),))
