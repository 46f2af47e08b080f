import pathlib
import random
from functools import partial

import pytest

from funlog.signature import Signature
from funlog.syntax import Theory, parse_expr
from funlog.calculus import (
    Proof, ProofLine, Premise, MP, Gen, Taut, EqRefl, NonlogicalAxiom,
    ForallElim, ExistsIntro, ForallImpDist, ExistsImpDist, EqCongr, check_proof,
)
from funlog.semantics import evaluate, make_full_structure, materialize_selected, satisfies
from funlog import fileio
from funlog.gen import rand_signature, rand_proof
from funlog.henkin import ThOracle, TermModelContext, build_term_structure


class TestSignatureFormat:
    def test_roundtrip(self):
        sig = Signature(["a", "b"], ["a"],
                        {"c": "a", "g": "((a)b,a)pi"})
        text = "\n".join(fileio.signature_lines(sig))
        assert fileio.parse_theory(text).signature == sig

    def test_random_roundtrip(self):
        rng = random.Random(4)
        for _ in range(50):
            sig = rand_signature(rng)
            text = "\n".join(fileio.signature_lines(sig))
            assert fileio.parse_theory(text).signature == sig

    def test_comments_and_blanks(self):
        sig = fileio.parse_theory("# header\n\nsort a\nvarsort a  # tail\n").signature
        assert "a" in sig.sorts

    def test_bad_line(self):
        with pytest.raises(fileio.FormatError):
            fileio.parse_theory("bogus a")


class TestStructureFormat:
    def test_full_roundtrip(self, small_structure):
        text = fileio.print_structure(small_structure)
        s2 = fileio.parse_structure(text)
        assert fileio.print_structure(s2) == text
        sig = s2.signature
        for t in ("f(ca)", "forall v0^a. eq_a(f(f(v0^a)),v0^a)"):
            e = parse_expr(sig, t)
            assert evaluate(s2, e, ()) == evaluate(small_structure, e, ())

    def test_quoted_atoms(self, small_sig):
        text = """
sort a
varsort a
op ca : a
op cb : a
op f : (a)a
carrier a = "f(x)",plain
interp ca = "f(x)"
interp cb = plain
interp f { ("f(x)") -> plain, (plain) -> "f(x)" }
"""
        s = fileio.parse_structure(text)
        assert s.carriers["a"] == ("f(x)", "plain")
        assert evaluate(s, parse_expr(s.signature, "f(ca)"), ()) == "plain"

    def test_punctuation_in_quoted_atoms_round_trips(self):
        """An interp line is read from its operation name, so an '=' or a
        quote, backslash or comma inside a quoted atom reads back."""
        atoms = ("x=y", 'a"b', "c\\d", "(,)")
        sig = Signature(["a"], ["a"], {"ca": "a", "f": "(a)a", "mu": "((a)pi)a"})
        s = make_full_structure(sig, {"a": atoms}, {
            "ca": "x=y", "f": lambda v: atoms[atoms.index(v) - 1],
            "mu": lambda t: atoms[sum(v == "1" for v in t.values) % 4]})
        for m in (s, materialize_selected(s, cap=1)):
            text = fileio.print_structure(m)
            assert '"x=y"' in text and '"a\\"b"' in text and '"c\\\\d"' in text
            assert fileio.print_structure(fileio.parse_structure(text)) == text

    def test_selected_means_not_full(self, small_structure):
        m = materialize_selected(small_structure, cap=1)
        text = fileio.print_structure(m)
        s2 = fileio.parse_structure(text)
        assert not s2.full
        assert s2.selected == m.selected

    def test_term_structure_roundtrip(self, small_sig, small_structure):
        ctx = TermModelContext(small_sig, ThOracle(small_structure), size_bound=4)
        tm = build_term_structure(ctx)
        text = fileio.print_structure(tm.structure)
        s2 = fileio.parse_structure(text)
        assert fileio.print_structure(s2) == text
        for t in ("eq_a(f(ca),cb)", "exists v0^a. eq_a(f(v0^a),ca)"):
            e = parse_expr(small_sig, t)
            assert satisfies(s2, e) == satisfies(tm.structure, e)

    def test_unknown_op_rejected(self):
        with pytest.raises(fileio.FormatError):
            fileio.parse_structure("sort a\nvarsort a\ncarrier a = 0\ninterp zap = 0")

    def test_bad_table_shape(self):
        with pytest.raises(fileio.FormatError):
            fileio.parse_structure(
                "sort a\nvarsort a\nop c : a\ncarrier a = 0\ninterp c { (0) -> 0 }")


class TestTheoryFormat:
    def test_roundtrip(self, toy_theory):
        text = fileio.print_theory(toy_theory)
        assert fileio.parse_theory(text) == toy_theory

    def test_axiom_parse_error_located(self):
        with pytest.raises(fileio.FormatError, match="line 3"):
            fileio.parse_theory("sort a\nvarsort a\naxiom zap(1)")


class TestProofFormat:
    def test_roundtrip_simple(self, toy_theory):
        sig = toy_theory.signature
        prem = parse_expr(sig, "eq_a(ca,ca)")
        from funlog.calculus import Proof, ProofLine
        p = Proof(toy_theory, (prem,), (
            ProofLine(prem, Premise(0)),
            ProofLine(parse_expr(sig, "imp(eq_a(ca,ca),eq_a(ca,ca))"), Taut()),
            ProofLine(prem, MP(0, 1)),
            ProofLine(parse_expr(sig, "forall v0^a. eq_a(ca,ca)"), Gen(2, "v0^a")),
        ))
        assert check_proof(p)
        out = fileio.print_proof(p)
        q = fileio.parse_proof(out, toy_theory)
        assert q == p

    def test_roundtrip_random_proofs(self):
        rng = random.Random(8)
        for _ in range(40):
            sig = rand_signature(rng)
            thy = Theory(sig, ())
            p = rand_proof(rng, thy)
            out = fileio.print_proof(p)
            q = fileio.parse_proof(out, thy)
            assert q.lines == p.lines
            assert check_proof(q)

    def test_roundtrip_derived(self, toy_theory):
        from funlog.derive import derive_equality_rule
        sig = toy_theory.signature
        e = parse_expr(sig, "mu((v0^a): eq_a(v1^a,v0^a))")
        p = derive_equality_rule(toy_theory, e, "v1^a",
                                 parse_expr(sig, "ca"), parse_expr(sig, "f(cb)"))
        out = fileio.print_proof(p)
        q = fileio.parse_proof(out, toy_theory)
        assert q == p and check_proof(q)

    def test_misnumbered_rejected(self, toy_theory):
        with pytest.raises(fileio.FormatError, match="numbered"):
            fileio.parse_proof("2. top ; taut", toy_theory)

    def test_premise_after_step_rejected(self, toy_theory):
        with pytest.raises(fileio.FormatError):
            fileio.parse_proof("1. top ; taut\npremise top", toy_theory)

    def test_unknown_rule(self, toy_theory):
        with pytest.raises(fileio.FormatError, match="unknown rule"):
            fileio.parse_proof("1. top ; abracadabra", toy_theory)

    def test_every_rule_round_trips(self):
        sig = Signature(["a"], ["a"], {"ca": "a", "f": "(a)a",
                                       "h": "((a)pi,a,(a)a)a"})
        thy = Theory(sig, (parse_expr(sig, "top"),))
        e = partial(parse_expr, sig)
        justs = [
            Taut(), EqRefl(), NonlogicalAxiom(0), Premise(0), MP(0, 2),
            Gen(1, "v0^a"), ForallElim("v0^a", e("f(ca)")),
            ExistsIntro("v1^a", e("ca")), ForallImpDist("v0^a"),
            ExistsImpDist("v1^a"),
            EqCongr("h", 1, (), (), (), e("ca"), e("f(ca)"),
                    ((("v0^a",), e("eq_a(v0^a,ca)")),),
                    ((("v1^a",), e("f(v1^a)")),)),
            EqCongr("h", 2, ("v0^a",), ("v1^a",), ("v2^a",), e("f(v0^a)"),
                    e("f(v1^a)"), ((("v2^a",), e("top")), ((), e("ca"))), ()),
        ]
        assert {type(j) for j in justs} == set(fileio.rules().values())
        p = Proof(thy, (e("top"),), tuple(ProofLine(e("top"), j) for j in justs))
        text = fileio.print_proof(p)
        assert fileio.parse_proof(text, thy) == p
        assert fileio.print_proof(fileio.parse_proof(text, thy)) == text

    @pytest.mark.parametrize("name", ["long.flp", "long_bad.flp", "taut.flp"])
    def test_committed_proofs_reprint_byte_identically(self, name):
        inputs = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
            "inputs" / "check-proof"
        thy = fileio.parse_theory((inputs / "theory.flt").read_text())
        text = (inputs / name).read_text()
        assert fileio.print_proof(fileio.parse_proof(text, thy)) == text
