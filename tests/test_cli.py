import gc
import importlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

from funlog import calculus, fileio, gen
from funlog.cli import main, build_parser, RunReport, UsageError
from funlog.signature import FunlogError, SignatureError
from funlog.syntax import MAX_NESTING, ExprError
from funlog.subst import SortClash
from funlog.calculus import CalculusError
from funlog.semantics import ClosureReport, SemanticsError, check_closure, satisfies_theory
from funlog.henkin import HenkinError

from conftest import garbage_cycles_left_by


TOY_FLS = """\
sort a
varsort a
op ca : a
op cb : a
op f : (a)a
carrier a = 0,1
interp ca = 0
interp cb = 1
interp f { (0) -> 1, (1) -> 0 }
"""

TOY_FLT = """\
sort a
varsort a
op ca : a
op cb : a
op f : (a)a
axiom eq_a(f(ca),cb)
axiom forall v0^a. eq_a(f(f(v0^a)),v0^a)
"""

TOY_FLP = """\
1. eq_a(f(ca),cb) ; axiom 0
2. imp(eq_a(f(ca),cb),or(eq_a(f(ca),cb),bot)) ; taut
3. or(eq_a(f(ca),cb),bot) ; mp 1 2
4. forall v1^a. or(eq_a(f(ca),cb),bot) ; gen 3 v1^a
"""


@pytest.fixture
def files(tmp_path):
    fls = tmp_path / "toy.fls"
    flt = tmp_path / "toy.flt"
    flp = tmp_path / "toy.flp"
    fls.write_text(TOY_FLS)
    flt.write_text(TOY_FLT)
    flp.write_text(TOY_FLP)
    return {"fls": str(fls), "flt": str(flt), "flp": str(flp), "dir": tmp_path}


class TestCheck:
    def test_valid_proof(self, files, capsys):
        assert main(["check", files["flt"], files["flp"]]) == 0
        out = capsys.readouterr().out
        assert "verdict:  ok" in out
        assert "used_axioms" in out

    def test_broken_proof(self, files, capsys):
        bad = files["dir"] / "bad.flp"
        bad.write_text("1. bot ; taut\n")
        assert main(["check", files["flt"], str(bad)]) == 1
        assert "Taut" in capsys.readouterr().out

    def test_unknown_symbol_is_usage_error(self, files, capsys):
        bad = files["dir"] / "bad.flp"
        bad.write_text("1. zap(ca) ; taut\n")
        assert main(["check", files["flt"], str(bad)]) == 2

    @pytest.mark.parametrize("proof", ["", "# nothing\n", "premise top\n"])
    def test_no_steps(self, files, capsys, proof):
        empty = files["dir"] / "empty.flp"
        empty.write_text(proof)
        assert main(["check", files["flt"], str(empty)]) == 2
        assert "no steps" in capsys.readouterr().err

    def test_missing_file(self, files):
        assert main(["check", files["flt"], "/nonexistent.flp"]) == 2

    def test_op_name_not_a_token(self, files, capsys):
        bad = files["dir"] / "bad.flt"
        bad.write_text(TOY_FLT.replace("op cb : a", "op cb : a\nop f g : a"))
        assert main(["check", str(bad), files["flp"]]) == 2
        assert "'f g'" in capsys.readouterr().err

    @pytest.mark.parametrize("step", [
        "forall_elim {}", "forall_elim 5", "mp 1", "axiom x",
        'eqcongr {"op": "f", "i": 0, "xs": 5, "ys": [], "zs": [], "b1": "ca", '
        '"b2": "ca", "before": [], "after": []}',
        'eqcongr {"op": "f", "i": "0", "xs": [], "ys": [], "zs": [], "b1": "ca", '
        '"b2": "ca", "before": [], "after": []}',
        'forall_imp_dist {"x": 5}',
        'eqrefl {"x": 1}', "taut 17", "taut ; junk",
    ])
    def test_malformed_justification(self, files, capsys, step):
        bad = files["dir"] / "bad.flp"
        bad.write_text(TOY_FLP + f"5. top ; {step}\n")
        assert main(["check", files["flt"], str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: line 5: ")

    @pytest.mark.parametrize("step", [
        'forall_elim {"x": "v0^a", "a": "ca", "junk": 1}',
        'forall_imp_dist {"x": "v0^a", "a": "ca"}',
        'forall_elim {"x": "v0^a"}',
    ])
    def test_json_keys_must_be_the_fields(self, files, capsys, step):
        bad = files["dir"] / "bad.flp"
        bad.write_text(TOY_FLP + f"5. top ; {step}\n")
        assert main(["check", files["flt"], str(bad)]) == 2
        rule = step.split()[0]
        assert capsys.readouterr().err.startswith(
            f"error: line 5: bad arguments for {rule!r}: ")

    def test_deep_proof_step(self, files, capsys):
        bad = files["dir"] / "bad.flp"
        bad.write_text("1. " + "not(" * 3000 + "top" + ")" * 3000 + " ; taut\n")
        assert main(["check", files["flt"], str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1: ")

    def test_deep_json_argument(self, files, capsys):
        bad = files["dir"] / "bad.flp"
        bad.write_text('1. top ; eqcongr {"op": ' + "[" * 5000 + "]" * 5000 + "}\n")
        assert main(["check", files["flt"], str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 1: input nested too deep\n"

    def test_deep_theory_axiom(self, files, capsys):
        bad = files["dir"] / "bad.flt"
        bad.write_text(TOY_FLT + "axiom " + "not(" * 3000 + "top" + ")" * 3000 + "\n")
        assert main(["check", str(bad), files["flp"]]) == 2
        assert capsys.readouterr().err.startswith("error: line 8: ")

    @pytest.mark.parametrize("proof, code", [(TOY_FLP, 0), ("1. bot ; taut\n", 1)],
                             ids=["ok", "failed"])
    def test_closed_stdout_is_not_a_traceback(self, files, proof, code):
        # `funlog check ... | head` where head has already exited: stdout is
        # a pipe with no reader before the report is written
        flp = files["dir"] / "p.flp"
        flp.write_text(proof)
        src = os.path.dirname(os.path.dirname(fileio.__file__))
        r, w = os.pipe()
        os.close(r)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "funlog.cli", "--json", "check",
                 files["flt"], str(flp)],
                stdout=w, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(w)
        assert run.returncode == code
        assert run.stderr == ""


class TestEval:
    def test_closed_value(self, files, capsys):
        assert main(["eval", files["fls"], "--expr", "f(ca)"]) == 0
        assert "value: 1" in capsys.readouterr().out

    def test_top_is_true(self, files, capsys):
        assert main(["eval", files["fls"], "--expr", "top"]) == 0
        assert "value: 1" in capsys.readouterr().out

    def test_table(self, files, capsys):
        assert main(["eval", files["fls"], "--expr", "f(v0^a)",
                     "--persp", "v0^a"]) == 0
        assert "'0': '1'" in capsys.readouterr().out

    def test_apply_args(self, files, capsys):
        assert main(["eval", files["fls"], "--expr", "f(v0^a)",
                     "--persp", "v0^a", "--args", "1"]) == 0
        assert "value: 0" in capsys.readouterr().out

    def test_full_structure_keeps_carrier_pi(self, files, capsys):
        fls = files["dir"] / "pi.fls"
        fls.write_text(TOY_FLS.replace("carrier a = 0,1", "carrier a = 0,1\ncarrier pi = f,t"))
        assert main(["eval", str(fls), "--expr", "top"]) == 0
        assert "value: t" in capsys.readouterr().out

    def test_pi_row_over_carrier_pi(self, files, capsys):
        fls = files["dir"] / "pi.fls"
        fls.write_text(TOY_FLS.replace("op f : (a)a", "op f : (a)a\nop p : (a)pi")
                       .replace("carrier a = 0,1", "carrier a = 0,1\ncarrier pi = f,t")
                       + "interp p { (0) -> t, (1) -> f }\n")
        assert main(["eval", str(fls), "--expr", "p(cb)"]) == 0
        assert "value: f" in capsys.readouterr().out

    def test_uncovered_variable(self, files, capsys):
        assert main(["eval", files["fls"], "--expr", "f(v0^a)"]) == 2
        assert "perspective" in capsys.readouterr().err

    def test_a_constant_in_the_perspective(self, files, capsys):
        """A perspective component that is not a variable is named as such,
        before the expression's coverage is checked."""
        assert main(["eval", files["fls"], "--expr", "f(v0^a)", "--persp", "ca"]) == 2
        assert capsys.readouterr() == (
            "", "error: perspective component 'ca' is not a variable\n")

    @pytest.mark.parametrize("point", ["z", "0,1", ","])
    def test_args_not_a_point(self, files, capsys, point):
        assert main(["eval", files["fls"], "--expr", "f(v0^a)",
                     "--persp", "v0^a", "--args", point]) == 2
        assert "not a point" in capsys.readouterr().err

    def test_args_without_a_perspective(self, files, capsys):
        assert main(["eval", files["fls"], "--expr", "ca", "--args", "1"]) == 2
        assert "not a point" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["interp ca", "interp ca =", "interp"])
    def test_interp_without_value(self, files, capsys, line):
        bad = files["dir"] / "bad.fls"
        bad.write_text(TOY_FLS.replace("interp ca = 0", line))
        assert main(["eval", str(bad), "--expr", "ca"]) == 2
        assert "line 7" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["not(" * 600 + "top" + ")" * 600,
                                      "(" * 5000 + "top" + ")" * 5000],
                             ids=["not", "paren"])
    def test_deep_expr(self, files, capsys, expr):
        assert main(["eval", files["fls"], "--expr", expr]) == 2
        assert capsys.readouterr().err == "error: input nested too deep\n"

    @pytest.mark.parametrize("expr, char", [("a" * 1_000_000 + "$", "$"),
                                            ("a^" * 100_000 + "a", "^")],
                             ids=["word-run", "caret-chain"])
    def test_long_stray_input(self, files, capsys, expr, char):
        """The lexer's searches take linear time: a regex that repeats a
        token group backtracks exponentially on such input."""
        t0 = time.perf_counter()
        assert main(["eval", files["fls"], "--expr", expr]) == 2
        assert time.perf_counter() - t0 < 5
        assert capsys.readouterr().err == f"error: unexpected character {char!r}\n"

    def test_incomplete_table(self, files, capsys):
        bad = files["dir"] / "bad.fls"
        bad.write_text(TOY_FLS.replace("(0) -> 1, (1) -> 0", "(0) -> 1"))
        assert main(["eval", str(bad), "--expr", "ca"]) == 2
        assert "no value for 'f'" in capsys.readouterr().err

    def test_nested_table_in_a_row(self, files, capsys):
        bad = files["dir"] / "bad.fls"
        bad.write_text(MU_FLS.replace('({"0"->0,1->0})', '({{0->0}->0,1->0})'))
        assert main(["eval", str(bad), "--expr", "ca"]) == 2
        assert capsys.readouterr().err == "error: line 9: nested tables are not supported\n"

    @pytest.mark.parametrize("old, new, line", [
        ('({"0"->0,1->0}) -> "0"', '({"0"->0,1->0}) -> {0->0}', 9),
        ("carrier a = \"0\",1", "carrier a = {0->{0->0}}", 6),
        ("selected pi^(a) = {0->0,1->0}", "selected pi^(a) = {({0->0})->0}", 10),
    ], ids=["row-value", "carrier", "selected"])
    def test_nested_table_past_the_fixed_levels(self, files, capsys, old, new, line):
        """An interp value nests two table levels, a carrier atom or a
        selected table one, and a row's value none."""
        bad = files["dir"] / "bad.fls"
        assert old in MU_FLS
        bad.write_text(MU_FLS.replace(old, new))
        assert main(["eval", str(bad), "--expr", "ca"]) == 2
        assert capsys.readouterr().err == f"error: line {line}: nested tables are not supported\n"

    def test_deep_table(self, files, capsys):
        bad = files["dir"] / "bad.fls"
        deep = "{(" * 2000 + "0" + ")->0}" * 2000
        bad.write_text(TOY_FLS.replace("interp f { (0) -> 1, (1) -> 0 }", f"interp f {deep}"))
        assert main(["eval", str(bad), "--expr", "ca"]) == 2
        assert capsys.readouterr().err == "error: line 9: nested tables are not supported\n"

    @pytest.mark.parametrize("old, new, line, tok", [
        ("carrier a = 0,1", "carrier a = 0,)", 6, ")"),
        ("(0) -> 1,", "(0) -> ->,", 9, "->"),
        ("interp ca = 0", "interp ca = =", 7, "="),
        ("(1) -> 0 }", "(,) -> 0 }", 9, ","),
        (TOY_FLS, "sort a\nop ca : a\ncarrier a = ), ->\ninterp ca = )\n", 3, ")"),
    ], ids=["paren", "arrow", "equals", "comma", "all-punctuation"])
    def test_unquoted_punctuation_is_no_atom(self, files, capsys, old, new, line, tok):
        """An atom is a word or a quoted string."""
        bad = files["dir"] / "bad.fls"
        assert old in TOY_FLS
        bad.write_text(TOY_FLS.replace(old, new))
        assert main(["eval", str(bad), "--expr", "ca"]) == 2
        assert capsys.readouterr().err == f"error: line {line}: expected an atom, got {tok!r}\n"


class TestSat:
    def test_model(self, files):
        assert main(["sat", files["fls"], files["flt"]]) == 0

    def test_empty_theory(self, files):
        empty = files["dir"] / "empty.flt"
        empty.write_text("sort a\nvarsort a\nop ca : a\nop cb : a\nop f : (a)a\n")
        assert main(["sat", files["fls"], str(empty)]) == 0

    def test_falsum_fails(self, files, capsys):
        bad = files["dir"] / "bad.flt"
        bad.write_text(TOY_FLT.replace("axiom eq_a(f(ca),cb)", "axiom bot"))
        assert main(["sat", files["fls"], str(bad)]) == 1
        assert "axiom 0" in capsys.readouterr().out

    @pytest.mark.parametrize("structure_f, theory_f, axioms, shown", [
        # f(cb) would evaluate as the structure's constant f
        (("op f : a", "interp f = 0"), "op f : (a)a",
         ["eq_a(f(cb),ca)", "eq_a(f(ca),f(cb))"], "'f' is (a)a in the theory but a"),
        # the truth atom 1 would be read as an element of a
        (("op f : (a)a", "interp f { (0) -> 0, (1) -> 0 }"), "op f : (pi)a",
         ["eq_a(f(top),ca)"], "'f' is (pi)a in the theory but (a)a"),
    ], ids=["constant-as-unary", "formula-slot-as-element"])
    def test_an_operation_of_another_ustype(self, files, capsys, structure_f, theory_f,
                                            axioms, shown):
        """sat gives no verdict when an operation of the theory has another
        ustype in the structure: exit 2, naming the operation."""
        fls, flt = files["dir"] / "s.fls", files["dir"] / "t.flt"
        op, interp = structure_f
        fls.write_text(TOY_FLS.replace("op f : (a)a", op)
                       .replace("interp f { (0) -> 1, (1) -> 0 }", interp))
        flt.write_text(TOY_FLT.split("axiom")[0].replace("op f : (a)a", theory_f)
                       + "".join(f"axiom {a}\n" for a in axioms))
        assert main(["sat", str(fls), str(flt)]) == 2
        assert capsys.readouterr().err == f"error: operation {shown} in the structure\n"


def test_twenty_atom_carrier(files, capsys):
    """A quantifier over a 20-atom carrier is defined on its 2^20 tables
    without enumerating them: sat and eval answer."""
    atoms = [str(i) for i in range(20)]
    rows = ", ".join(f"({x}) -> {atoms[(i + 1) % 20]}" for i, x in enumerate(atoms))
    header = "sort a\nvarsort a\nop ca : a\nop f : (a)a\n"
    fls, flt = files["dir"] / "big.fls", files["dir"] / "big.flt"
    fls.write_text(header + f"carrier a = {','.join(atoms)}\ninterp ca = 0\n"
                   f"interp f {{ {rows} }}\n")
    exists = "exists v0^a. eq_a(f(v0^a),ca)"
    flt.write_text(header + "axiom forall v0^a. not(eq_a(f(v0^a),v0^a))\n"
                   f"axiom {exists}\n")
    assert main(["sat", str(fls), str(flt)]) == 0
    assert "verdict:  ok" in capsys.readouterr().out
    assert main(["eval", str(fls), "--expr", exists]) == 0
    out = capsys.readouterr().out
    assert "verdict:  ok" in out and "value: 1" in out


class TestFuzz:
    def test_each_suite_clean(self, capsys):
        for suite in ("subst", "soundness", "closure", "eval-invariance"):
            n = "20" if suite == "closure" else "60"
            assert main(["fuzz", suite, "--n", n, "--seed", "5"]) == 0, suite

    def test_unknown_suite(self, capsys):
        assert main(["fuzz", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_a_failing_law(self, capsys, monkeypatch):
        """A law that fails every case it runs: the suite counts each, keeps
        the first case's detail, and fuzz exits 1."""
        details = []

        def split(sig, rng):
            case = gen.check_split(sig, rng)  # the same draws as the law
            details.append(f"split: {case.detail}")
            return gen.SubstCase(case.name, False, case.detail)

        monkeypatch.setattr(gen, "SUBST_CHECKS", tuple(
            split if check is gen.check_split else check for check in gen.SUBST_CHECKS))
        # 12 cases over five laws: the first two run three each
        assert gen.suite_subst(12, 4) == gen.SuiteResult(12, 3, details[0])
        assert len(details) == 3
        assert main(["--json", "fuzz", "subst", "--n", "12", "--seed", "4"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], doc["cases"], doc["failures"], doc["detail"]) == (
            "fail", 12, 3, details[0])

    def test_a_failing_closure_audit(self, capsys, monkeypatch):
        """An audit that fails every explicit structure: only the cases that
        pass on the full structure and are audited again once materialized
        (every third) fail."""
        def audit(s, cap):
            if s.full:
                return check_closure(s, cap)
            return ClosureReport([f"projection: forged at cap {cap}"], [])

        monkeypatch.setattr(gen, "check_closure", audit)
        assert gen.suite_closure(7, 0) == gen.SuiteResult(7, 3, "projection: forged at cap 2")
        assert main(["fuzz", "closure", "--n", "7", "--seed", "0"]) == 1
        assert "verdict:  fail" in capsys.readouterr().out

    def test_json_and_determinism(self, capsys):
        assert main(["--json", "fuzz", "subst", "--n", "60", "--seed", "3"]) == 0
        doc1 = json.loads(capsys.readouterr().out)
        assert main(["--json", "fuzz", "subst", "--n", "60", "--seed", "3"]) == 0
        doc2 = json.loads(capsys.readouterr().out)
        doc1.pop("seconds"), doc2.pop("seconds")
        assert doc1 == doc2
        assert doc1["verdict"] == "ok" and doc1["cases"] == 60


MU_FLS = """\
sort a
varsort a
op ca : a
op cb : a
op mu : ((a)pi)a
carrier a = "0",1
interp ca = "0"
interp cb = 1
interp mu { ({"0"->0,1->0}) -> "0", ({0->0,1->1}) -> 1, ({0->1,1->0}) -> 0, ({0->1,1->1}) -> 1 }
selected pi^(a) = {0->0,1->0}, {0->0,1->1}, {0->1,1->0}, {0->1,1->1}
"""
SEL = "{0->0,1->1}, {0->1,1->0}"
TOY_EXPLICIT = TOY_FLS + f"selected a^(a) = {SEL}\n"
MU_FULL = MU_FLS[:MU_FLS.index("selected")]


class TestStructureValues:
    """Each carrier, interp and selected value is checked whole, at its line."""

    @pytest.mark.parametrize("text, old, new, line", [
        (TOY_FLS, "carrier a = 0,1", "carrier a = 0,1 x y", 6),
        (TOY_FLS, "interp ca = 0", "interp ca = 0 junk", 7),
        (TOY_FLS, "(1) -> 0 }", "(1) -> 0 } junk", 9),
        (MU_FLS, "{0->1,1->1}\n", "{0->1,1->1} junk\n", 10),
    ], ids=["carrier", "interp", "interp-table", "selected"])
    def test_trailing_text(self, files, capsys, text, old, new, line):
        bad = files["dir"] / "bad.fls"
        bad.write_text(text.replace(old, new))
        assert main(["eval", str(bad), "--expr", "ca"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: line {line}: trailing input from token ")

    @pytest.mark.parametrize("text, old, new, line, reason", [
        (MU_FLS, "carrier a = \"0\",1", "carrier a = \"0\",1\ncarrier pi = 0", 7,
         "carrier pi needs two atoms"),
        (MU_FLS, "carrier a = \"0\",1", "carrier a = \"0\",1\ncarrier pi = 0,1,2", 7,
         "carrier pi needs two atoms"),
        (TOY_FLS, "carrier a = 0,1", "carrier a = 0,1\ncarrier pi = 0,1,2", 7,
         "carrier pi needs two atoms"),
        (MU_FLS, "carrier a = \"0\",1", "carrier a = \"0\",1\ncarrier pi = 1,1", 7,
         "carrier pi repeats an atom"),
        (TOY_FLS, "carrier a = 0,1", "carrier a = 0,0", 6, "carrier a repeats an atom"),
        (TOY_FLS, "carrier a = 0,1", "carrier a = {0->0}", 6, "carrier a holds a table"),
    ], ids=["pi-one-explicit", "pi-three-explicit", "pi-three-full", "pi-repeat",
            "repeat", "table"])
    def test_bad_carrier(self, files, capsys, text, old, new, line, reason):
        bad = files["dir"] / "bad.fls"
        bad.write_text(text.replace(old, new))
        assert main(["eval", str(bad), "--expr", "top"]) == 2
        assert capsys.readouterr().err.startswith(f"error: line {line}: {reason}")

    @pytest.mark.parametrize("decl", ["pi^(a,)", "pi^(,a)", "pi^(a,,)", "pi^()"])
    def test_bad_selected_declaration(self, files, capsys, decl):
        """A selected set's sorts are one or more comma-separated words."""
        bad = files["dir"] / "bad.fls"
        bad.write_text(MU_FLS.replace("selected pi^(a) =", f"selected {decl} ="))
        assert main(["eval", str(bad), "--expr", "ca"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: line 10: bad selected declaration {decl + ' '!r}")

    @pytest.mark.parametrize("text, old, new, line, reason", [
        (TOY_FLS, "interp cb = 1\n", "interp cb = 1\ninterp imp { (0,0) -> 0 }\n", 9,
         "'imp' is a logical symbol"),
        (TOY_EXPLICIT, "interp cb = 1\n", "interp cb = 1\ninterp imp { (0,0) -> 0 }\n", 9,
         "'imp' is a logical symbol"),
        (TOY_FLS, "interp cb = 1\n", "interp cb = 1\ninterp top = 0\n", 9,
         "'top' is a logical symbol"),
        (TOY_EXPLICIT, "interp cb = 1\n", "interp cb = 1\ninterp eq_a { (0,0) -> 0 }\n", 9,
         "'eq_a' is a logical symbol"),
        (MU_FULL, "interp cb = 1\n", "interp cb = 1\ninterp forall^a { ({0->1,1->1}) -> 0 }\n",
         9, "'forall^a' is a logical symbol"),
        (MU_FLS, "interp cb = 1\n", "interp cb = 1\ninterp exists^a { ({0->1,1->1}) -> 0 }\n",
         9, "'exists^a' is a logical symbol"),
        (TOY_FLS, "interp cb = 1\n", "interp cb = 1\ninterp ca = 1\n", 9,
         "interp ca declared twice"),
        (TOY_EXPLICIT, "interp cb = 1\n", "interp cb = 1\ninterp ca = 1\n", 9,
         "interp ca declared twice"),
        (TOY_FLS, "interp ca = 0\n", "interp ca = 0\ncarrier a = 0,1\n", 8,
         "carrier a declared twice"),
        (TOY_EXPLICIT, "interp ca = 0\n", "interp ca = 0\ncarrier a = 0,1\n", 8,
         "carrier a declared twice"),
        (MU_FLS, "interp ca = \"0\"\n", "selected pi^(a) = {0->0,1->0}\ninterp ca = \"0\"\n",
         11, "selected pi^(a) declared twice"),
        (TOY_FLS, "(1) -> 0 }", "(1) -> 0, (1) -> 1 }", 9, "row ('1',) of 'f' declared twice"),
        (TOY_EXPLICIT, "(1) -> 0 }", "(1) -> 0, (1) -> 1 }", 9,
         "row ('1',) of 'f' declared twice"),
        (MU_FLS, "({0->1,1->1})", "({0->1,0->1})", 9, "a table repeats an argument tuple"),
        (TOY_FLS, "op f : (a)a\n", "op f : (a)a\nop f : a\n", 6, "op f declared twice"),
        (TOY_FLT, "op f : (a)a\n", "op f : (a)a\nop f : a\n", 6, "op f declared twice"),
    ], ids=["connective-full", "connective-explicit", "constant-connective", "equality",
            "forall", "exists", "interp-full", "interp-explicit", "carrier-full",
            "carrier-explicit", "selected", "row-full", "row-explicit", "table-row",
            "op-fls", "op-flt"])
    def test_declared_once(self, files, capsys, text, old, new, line, reason):
        """A logical symbol takes no interp line, and no sort, operation,
        selected set or row is declared twice: the last one does not win."""
        if text is TOY_FLT:
            bad = files["dir"] / "bad.flt"
            argvs = (["henkin", str(bad), "--levels", "0"], ["check", str(bad), files["flp"]])
        else:
            bad = files["dir"] / "bad.fls"
            argvs = (["eval", str(bad), "--expr", "ca"], ["sat", str(bad), files["flt"]])
        bad.write_text(text.replace(old, new))
        for argv in argvs:
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith(f"error: line {line}: {reason}")

    @pytest.mark.parametrize("text, old, new, op", [
        (TOY_FLS, "interp ca = 0", "interp ca = 2", "'ca'"),
        (TOY_EXPLICIT, "interp ca = 0", "interp ca = 2", "'ca'"),
        (TOY_FLS, "(0) -> 1", "(0) -> 9", "'f'"),
        (TOY_EXPLICIT, "(0) -> 1", "(0) -> 9", "'f'"),
        (TOY_FLS, "(1) -> 0 }", "(1) -> 0, (5) -> 0 }", "'f'"),
        (TOY_EXPLICIT, "(1) -> 0 }", "(1) -> 0, (5) -> 0 }", "'f'"),
        (MU_FULL, "-> 1 }", "-> 1, ({(0,1)->1}) -> 1 }", "'mu'"),
        (MU_FLS, "-> 1 }", "-> 1, ({(0,1)->1}) -> 1 }", "'mu'"),
        (MU_FULL, "-> 1 }", "-> 1, ({0->1,5->1}) -> 1 }", "'mu'"),
        (MU_FLS, "-> 1 }", "-> 1, ({0->1,5->1}) -> 1 }", "'mu'"),
        (MU_FULL, "-> 1 }", "-> 1, ({0->1,1->2}) -> 1 }", "'mu'"),
        (MU_FLS, "-> 1 }", "-> 1, ({0->1,1->2}) -> 1 }", "'mu'"),
        (TOY_EXPLICIT, SEL, "{0->7,1->1}, {(0,5)->1}", "selected a^(a)"),
        (TOY_EXPLICIT, SEL, "{0->1,1->0}, {0->1,1->7}", "selected a^(a)"),
        (TOY_EXPLICIT, SEL, "{0->1,1->0}, {0->1,5->0}", "selected a^(a)"),
        (TOY_EXPLICIT, SEL, "{0->1,1->0}, {(0,1)->1}", "selected a^(a)"),
        (TOY_EXPLICIT, SEL, "{0->1}, {1->7}", "selected a^(a)"),
        (TOY_EXPLICIT, "a^(a) = " + SEL, "zz^(a) = {0->1}", "selected zz^(a)"),
        (TOY_EXPLICIT, "a^(a) = " + SEL, "a^(pi) = {0->1,1->0}", "selected a^(pi)"),
        (MU_FLS, "{0->1,1->1}\n", "{0->1,1->2}\n", "selected pi^(a)"),
        (TOY_EXPLICIT, SEL, "{0->1}", "selected a^(a)"),
        (MU_FLS, "-> 1 }", "-> 1, ({0->1}) -> 1 }", "'mu'"),
    ], ids=["constant-full", "constant-explicit", "value-full", "value-explicit",
            "argument-full", "argument-explicit", "binder-arity-full", "binder-arity-explicit",
            "binder-argument-full", "binder-argument-explicit", "binder-value-full",
            "binder-value-explicit", "selected-values", "selected-value",
            "selected-argument", "selected-arity", "selected-partial-value",
            "selected-gamma", "selected-sigma", "selected-pi-value", "selected-partial",
            "binder-partial-explicit"])
    def test_value_outside_the_carriers(self, files, capsys, text, old, new, op):
        """Every interpretation lies in the carriers, in full and explicit
        structures alike, and every table of a selected set M_gamma^sigma,
        whose gamma is a sort and sigma variable sorts, or taken by a binder
        slot is total over them; the error names the operation or the set."""
        bad = files["dir"] / "bad.fls"
        bad.write_text(text.replace(old, new))
        for argv in (["eval", str(bad), "--expr", "ca"], ["sat", str(bad), files["flt"]]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {op}") and "outside" in err, err


@pytest.mark.parametrize("argv", [
    ["fuzz", "closure", "--n", "-5"],
    ["henkin", "toy.flt", "--levels", "-1"],
    ["henkin", "toy.flt", "--depth", "-1"],
    ["termmodel", "toy.fls", "--depth", "-1"],
])
def test_negative_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert f"{argv[-1]} is below 0" in capsys.readouterr().err


def test_zero_fuzz_cases_is_ok(capsys):
    assert main(["fuzz", "closure", "--n", "0"]) == 0
    assert "cases:    0" in capsys.readouterr().out


@pytest.mark.parametrize("n, per_law", [(0, [0] * 5), (7, [2, 2, 1, 1, 1])])
def test_subst_fuzz_runs_exactly_n_cases(n, per_law, capsys, monkeypatch):
    # the five laws share the n cases, the first n % 5 laws one more each
    runs = []

    def counted(i, check):
        def run(sig, rng):
            runs.append(i)
            return check(sig, rng)
        return run

    monkeypatch.setattr(gen, "SUBST_CHECKS", tuple(
        counted(i, check) for i, check in enumerate(gen.SUBST_CHECKS)))
    assert main(["--json", "fuzz", "subst", "--n", str(n), "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["cases"] == n
    assert [runs.count(i) for i in range(len(gen.SUBST_CHECKS))] == per_law


DEEP = ["not(" * 3000 + "top" + ")" * 3000, "(" * 3000 + "ca" + ")" * 3000,
        "{(" * 3000 + "0" + ")->0}" * 3000, "{" * 3000]
BAD_USTYPES = ["(a", "((a)pi", "(a,)a", "(pi)b", "(a)(a)a", "a a", "$", "()a", "((pi)a)a"]


def hostile(text: str, rng: random.Random) -> bytes:
    """One mutant of a valid file: a truncation, byte flips, an unbalanced
    parenthesis, 3000-deep nesting, an unterminated quote or a bad ustype."""
    data = text.encode()
    i = rng.randrange(len(data))
    kind = rng.randrange(6)
    if kind == 0:
        return data[:i]
    if kind == 1:
        flipped = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            flipped[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        return bytes(flipped)
    if kind == 2:
        parens = [j for j, b in enumerate(data) if b in b"()"]
        if parens and rng.random() < 0.5:
            j = rng.choice(parens)
            return data[:j] + data[j + 1:]
        return data[:i] + rng.choice([b"(", b")"]) + data[i:]
    if kind == 3:
        lines = text.splitlines(keepends=True)
        j = rng.randrange(len(lines))
        head = lines[j].split(" ", 1)[0]
        lines[j] = lines[j][:len(lines[j]) // 2] + rng.choice(DEEP) + "\n"
        if head in ("axiom", "premise") or head.endswith("."):
            lines.insert(j, f"{head} {rng.choice(DEEP)}\n")
        return "".join(lines).encode()
    if kind == 4 or not text.startswith("sort"):
        return data[:i] + b'"' + data[i:]
    lines = text.splitlines(keepends=True)
    j = rng.choice([j for j, line in enumerate(lines) if line.startswith("op ")])
    lines[j] = lines[j].split(":")[0] + ": " + rng.choice(BAD_USTYPES) + "\n"
    return "".join(lines).encode()


class TestHostileInput:
    """Mutated files never make the CLI raise: the exit code is 0, 1 or 2."""

    @pytest.mark.parametrize("seed", range(4))
    def test_mutated_files(self, files, capsys, seed):
        rng = random.Random(seed)
        d = files["dir"]
        for _ in range(25):
            m = {kind: str(d / f"m.{kind}") for kind in ("fls", "flt", "flp")}
            valid = {"fls": rng.choice([TOY_FLS, MU_FLS]), "flt": TOY_FLT, "flp": TOY_FLP}
            for kind, path in m.items():
                with open(path, "wb") as fh:
                    fh.write(hostile(valid[kind], rng))
            for argv in (["eval", m["fls"], "--expr", "ca"],
                         ["sat", m["fls"], files["flt"]],
                         ["termmodel", m["fls"], "--depth", "2", "--out", str(d / "tm.fls")],
                         ["sat", files["fls"], m["flt"]],
                         ["check", m["flt"], files["flp"]],
                         ["henkin", m["flt"], "--depth", "2", "--out", str(d / "h.flt")],
                         ["check", files["flt"], m["flp"]]):
                assert main(argv) in (0, 1, 2), argv
        capsys.readouterr()


class TestHenkin:
    def test_emits_reparsable_theory(self, files, capsys):
        out = files["dir"] / "ext.flt"
        assert main(["henkin", files["flt"], "--levels", "1", "--depth", "3",
                     "--out", str(out)]) == 0
        ext = fileio.parse_theory(out.read_text())
        assert len(ext.axioms) > 2

    def test_level_zero(self, files):
        out = files["dir"] / "same.flt"
        assert main(["henkin", files["flt"], "--levels", "0", "--depth", "3",
                     "--out", str(out)]) == 0
        assert fileio.parse_theory(out.read_text()) == \
            fileio.parse_theory(TOY_FLT)

    def test_malformed_theory(self, files):
        bad = files["dir"] / "bad.flt"
        bad.write_text("axiom zap\n")
        assert main(["henkin", str(bad)]) == 2


ONE_ATOM_HEADER = "sort a\nvarsort a\nop ca : a\n"


def nested(form: str, depth: int) -> str:
    """A chain of quantifiers over top whose slots nest depth deep, as sugar
    or as printed."""
    if form == "sugar":
        return "forall v0^a. " * (depth - 1) + "top"
    return "forall^a((v0^a): " * (depth - 1) + "top" + ")" * (depth - 1)


class TestNestingBound:
    """An expression nested MAX_NESTING deep gets through every command; one
    level deeper is a parse error.  The carrier has one atom, since each
    quantifier level multiplies the rows of the evaluated table by it."""

    def run_all(self, d, expr):
        (d / "s.fls").write_text(ONE_ATOM_HEADER + "carrier a = 0\ninterp ca = 0\n")
        (d / "t.flt").write_text(ONE_ATOM_HEADER + f"axiom {expr}\n")
        (d / "axiom.flp").write_text(f"1. {expr} ; axiom 0\n")
        (d / "taut.flp").write_text(f"1. {expr} ; taut\n")
        return [main(argv) for argv in (
            ["eval", str(d / "s.fls"), "--expr", expr],
            ["sat", str(d / "s.fls"), str(d / "t.flt")],
            ["check", str(d / "t.flt"), str(d / "axiom.flp")],
            ["check", str(d / "t.flt"), str(d / "taut.flp")],
            ["henkin", str(d / "t.flt"), "--depth", "2", "--out", str(d / "h.flt")])]

    @pytest.mark.parametrize("form", ["sugar", "printed"])
    def test_at_the_bound(self, files, capsys, form):
        assert self.run_all(files["dir"], nested(form, MAX_NESTING)) == [0, 0, 0, 1, 0]

    @pytest.mark.parametrize("form", ["sugar", "printed"])
    def test_one_level_deeper(self, files, capsys, form):
        assert self.run_all(files["dir"], nested(form, MAX_NESTING + 1)) == [2] * 5
        assert capsys.readouterr().err.count("input nested too deep") == 5

    @pytest.mark.parametrize("opening", ["not(", "f(", "forall v0^a. ", "("])
    def test_ten_thousand_levels(self, files, capsys, opening):
        """The parser reads no deeper than the bound, so a chain far past it
        is rejected like one level too many."""
        closing = ")" if opening.endswith("(") else ""
        expr = opening * 10_000 + "top" + closing * 10_000
        assert self.run_all(files["dir"], expr) == [2] * 5
        assert capsys.readouterr().err.count("input nested too deep") == 5

    def test_parentheses_add_no_level(self, files, capsys):
        expr = "((" + nested("printed", MAX_NESTING) + "))"
        assert self.run_all(files["dir"], expr) == [0, 0, 0, 1, 0]

    def test_equation_sugar_adds_a_level(self, files, capsys):
        expr = "forall v0^a. " * (MAX_NESTING - 1) + "ca = ca"
        assert self.run_all(files["dir"], expr) == [2] * 5
        assert capsys.readouterr().err.count("input nested too deep") == 5

    @pytest.mark.parametrize("depth, code", [(MAX_NESTING, 0), (MAX_NESTING + 1, 2)])
    def test_shared_subterm_counts_where_it_recurs(self, files, capsys, depth, code):
        # t reaches 41 slot levels below itself; line 2 reuses it below
        # imp's argument slot and depth - 43 negations
        t = "eq_a(" + "f(" * 40 + "ca" + ")" * 40 + ",ca)"
        n = "not(" * (depth - 43) + t + ")" * (depth - 43)
        flp = files["dir"] / "shared.flp"
        flp.write_text(f"1. imp({t},{t}) ; taut\n2. imp({n},{n}) ; taut\n")
        assert main(["check", files["flt"], str(flp)]) == code
        if code == 2:
            assert capsys.readouterr().err == "error: line 2: input nested too deep\n"


class TestTermmodel:
    def test_pipeline_and_roundtrip(self, files, capsys):
        out = files["dir"] / "tm.fls"
        assert main(["termmodel", files["fls"], "--depth", "4",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "failures: 0" in text
        tm = fileio.parse_structure(out.read_text())
        thy = fileio.parse_theory(TOY_FLT)
        assert satisfies_theory(tm, thy)

    def test_unnamed_element_rejected(self, files, capsys):
        bad = files["dir"] / "bad.fls"
        bad.write_text(TOY_FLS.replace("carrier a = 0,1", "carrier a = 0,1,2")
                       .replace("interp f { (0) -> 1, (1) -> 0 }",
                                "interp f { (0) -> 1, (1) -> 0, (2) -> 2 }"))
        assert main(["termmodel", str(bad), "--depth", "3"]) == 2
        assert "element-not-named" in capsys.readouterr().err


def test_report_stable_view():
    r = RunReport("x", cases=3, seconds=1.25)
    assert "seconds" not in r.stable()


@pytest.mark.parametrize("cmd", [["henkin", "t.flt"], ["termmodel", "s.fls"]])
def test_depth_defaults_to_six(cmd):
    assert build_parser().parse_args(cmd).depth == 6


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as e:
        build_parser().parse_args([])
    assert e.value.code == 2


# One small run of every command and of every fuzz suite; {dir}/bad.* are
# written by broken_files.
SMALL_RUNS = {
    "check-ok": "check {flt} {flp}",
    "check-fail": "check {flt} {dir}/bad.flp",
    "eval-table": "eval {fls} --expr f(v0^a) --persp v0^a",
    "sat-ok": "sat {fls} {flt}",
    "sat-fail": "sat {fls} {dir}/bad.flt",
    "termmodel": "termmodel {fls} --depth 4 --out {dir}/tm.fls",
    "henkin": "henkin {flt} --depth 4 --out {dir}/h.flt",
    **{f"fuzz-{suite}": f"fuzz {suite} --n 20" for suite in gen.SUITES},
}


@pytest.fixture
def broken_files(files):
    (files["dir"] / "bad.flp").write_text("1. bot ; taut\n")
    (files["dir"] / "bad.flt").write_text(
        TOY_FLT.replace("axiom eq_a(f(ca),cb)", "axiom bot"))
    return files


class TestNoReferenceCycles:
    """main runs each command with the cycle collector off, which is sound
    only while reference counting alone frees everything a command drops."""

    def test_the_helper_sees_a_cycle(self):
        def cycle():
            xs = []
            xs.append(xs)
        assert garbage_cycles_left_by(cycle) > 0

    @pytest.mark.parametrize("name", SMALL_RUNS)
    def test_a_command_leaves_no_cycle(self, broken_files, capsys, name):
        # argparse makes its own cycles, once per parser: parse first
        args = build_parser().parse_args(SMALL_RUNS[name].format(**broken_files).split())
        assert garbage_cycles_left_by(lambda: args.fn(args)) == 0

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("proof,code", [
        ("{flp}", 0), ("{dir}/bad.flp", 1), ("{dir}/none.flp", 2)])
    def test_main_restores_the_collector(self, broken_files, capsys, enabled, proof, code):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["check", broken_files["flt"], proof.format(**broken_files)]) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


PACKAGE = pathlib.Path(fileio.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"

# The modules `funlog check` loads, which a check verdict rests on
CHECKER = ("calculus", "cli", "fileio", "signature", "subst", "syntax")
FUZZ = ("cli", "gen", "semantics", "signature", "subst", "syntax")
# command -> the funlog modules it loads
LOADS = {
    "check {flt} {flp}": CHECKER,
    "eval {fls} --expr f(ca)": ("cli", "fileio", "semantics", "signature", "syntax"),
    "sat {fls} {flt}": CHECKER + ("semantics",),
    "henkin {flt} --depth 3 --out {dir}/h.flt": CHECKER + ("semantics", "henkin"),
    "termmodel {fls} --depth 3 --out {dir}/tm.fls": (
        "cli", "fileio", "henkin", "semantics", "signature", "subst", "syntax"),
    "fuzz subst --n 5": FUZZ,
    "fuzz closure --n 0 --seed 0": FUZZ,
    "fuzz eval-invariance --n 5": FUZZ,
    "fuzz soundness --n 5": FUZZ + ("calculus",),
}
# Commands that do not load hashlib, which loads OpenSSL: they name no
# witness constant.
NO_HASHLIB = ("eval {fls} --expr f(ca)", "termmodel {fls} --depth 3 --out {dir}/tm.fls")
# Runs one command, then writes its exit code and the funlog modules loaded,
# and hashlib if it was loaded.
LIST_MODULES = """
import sys
from funlog.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("funlog.") or m == "hashlib"),
      file=sys.stderr)
"""


class TestModulesLoaded:
    """Each command imports the layers it runs.  Counted in a fresh process:
    this one has imported every module."""

    @pytest.mark.parametrize("command", LOADS)
    def test_a_command_loads_its_layers(self, files, command):
        run = subprocess.run(
            [sys.executable, "-c", LIST_MODULES, *command.format(**files).split()],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
        code, *loaded = run.stderr.splitlines()[-1].split()
        assert code == "0", run.stderr
        assert [m for m in loaded if m != "hashlib"] == sorted(
            f"funlog.{m}" for m in LOADS[command])
        if command in NO_HASHLIB:
            assert "hashlib" not in loaded

    def test_the_readme_counts_the_trusted_base(self):
        """The README's "Trusted base" paragraph names the modules check
        loads and their `wc -l` total."""
        modules, lines = re.search(r"`funlog check` loads six modules, (.*?), ([\d,]+) lines",
                                   " ".join(README.read_text().split())).groups()
        assert sorted(re.findall(r"`(\w+)`", modules)) == list(CHECKER)
        assert int(lines.replace(",", "")) == sum(
            (PACKAGE / f"{m}.py").read_bytes().count(b"\n") for m in CHECKER)


def test_every_error_derives_from_funlog_error():
    modules = [importlib.import_module(f"funlog.{p.stem}") for p in sorted(PACKAGE.glob("*.py"))]
    errors = {c for m in modules for c in vars(m).values() if isinstance(c, type)
              and issubclass(c, BaseException) and c.__module__ == m.__name__}
    assert len(errors) > 20
    assert sorted(c.__name__ for c in errors if not issubclass(c, FunlogError)) == []


@pytest.mark.parametrize("root", [SignatureError, ExprError, SortClash, CalculusError,
                                  SemanticsError, HenkinError, fileio.FormatError, UsageError],
                         ids=lambda c: c.__name__)
def test_every_error_root_exits_2(files, capsys, monkeypatch, root):
    """An error of any root that reaches main is reported, exit 2, with no
    traceback."""
    def fail(proof):
        raise root("no verdict")
    monkeypatch.setattr(calculus, "check_proof", fail)
    assert main(["check", files["flt"], files["flp"]]) == 2
    assert capsys.readouterr() == ("", "error: no verdict\n")
