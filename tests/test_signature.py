import random
import re
from dataclasses import FrozenInstanceError, fields

import pytest

from funlog import fileio, gen
from funlog.calculus import Theory
from funlog.henkin import henkin_extend
from funlog.signature import (
    PROP, OpSig, Signature, parse_ustype, print_ustype,
    extends, variable_name, variable_sort, is_variable,
    fresh_vars, forall_op, exists_op, eq_op, distinguished_ops,
    SignatureError, UnknownSort, MalformedUstype, BinderSortNotInVSRT,
)
from funlog.syntax import parse_expr


SORTS = frozenset({"a", "b", PROP})
VSORTS = frozenset({"a", "b"})


# ---------------------------------------------------------------------------
# the signature constructor before it was the only one, for differential
# tests: make_signature, which built one, and validate_signature, which it
# called on a signature that Signature(...) could also build unchecked

_NAME_RE = re.compile(r"\w+")
_OP_NAME_RE = re.compile(r"\w+(?:\^\w+)?")
_VAR_RE = re.compile(r"v(\d+)\^(\w+)")


def reference_validate(sorts, var_sorts, ops) -> list[str]:
    """Empty list iff all signature invariants hold."""
    bad = []
    if PROP not in sorts:
        bad.append(f"distinguished sort {PROP!r} missing")
    if not var_sorts <= sorts:
        bad.append("VSRT not a subset of SRT")
    for sort in sorted(sorts):
        if not _NAME_RE.fullmatch(sort):
            bad.append(f"sort name {sort!r} is not a single word")
    dist = distinguished_ops(sorts, var_sorts)
    for name, spec in dist.items():
        got = ops.get(name)
        if got is None:
            bad.append(f"distinguished symbol {name!r} missing")
        elif got != spec:
            bad.append(f"distinguished ustype mismatch for {name!r}")
    for name, spec in ops.items():
        if _VAR_RE.fullmatch(name):
            bad.append(f"VAR and SOP not disjoint: operation name {name!r} "
                       "has the variable shape v<n>^<sort>")
        elif not _OP_NAME_RE.fullmatch(name):
            bad.append(f"operation name {name!r} is not a single token")
        if spec.result not in sorts:
            bad.append(f"op {name!r}: unknown result sort {spec.result!r}")
        for arg_sort, binders in spec.args:
            if arg_sort not in sorts:
                bad.append(f"op {name!r}: unknown argument sort {arg_sort!r}")
            for b in binders:
                if b not in var_sorts:
                    bad.append(f"op {name!r}: binder sort {b!r} not a variable sort")
    return bad


def reference_signature(sorts=(), var_sorts=(), ops=None):
    """(sorts, var_sorts, ops) of the signature make_signature built: pi
    added to the sorts and the logical symbols to the operations."""
    srt = frozenset(sorts) | {PROP}
    vsrt = frozenset(var_sorts)
    if not vsrt <= srt:
        raise UnknownSort(f"variable sorts {sorted(vsrt - srt)} not declared as sorts")
    all_ops = distinguished_ops(srt, vsrt)
    for name, spec in (ops or {}).items():
        if name in all_ops:
            raise SignatureError(f"operation name {name!r} collides with a logical symbol")
        if isinstance(spec, str):
            spec = parse_ustype(spec, srt, vsrt)
        all_ops[name] = spec
    bad = reference_validate(srt, vsrt, all_ops)
    if bad:
        raise SignatureError("; ".join(bad))
    return srt, vsrt, all_ops


def outcome(build, *decls):
    """(sorts, var_sorts, ops in order) of what build returns, or the class
    and message of the SignatureError it raises."""
    try:
        got = build(*decls)
    except SignatureError as exc:
        return type(exc), str(exc)
    if isinstance(got, Signature):
        got = got.sorts, got.var_sorts, got.ops
    return got[0], got[1], list(got[2].items())


# Declarations that the constructor and the reference both reject.
HOSTILE = [
    (["a"], ["a"], {"imp": "(a)a"}),
    (["a"], ["a"], {"forall^a": "((a)pi)pi"}),
    (["a", "b"], ["a"], {"v0^b": "b", "g": "(b)a"}),
    (["a", "b"], ["a", "b"], {"v0^b": "b", "g": "(b)a"}),
    (["a"], [], {"f g": "a"}), (["a"], [], {"f-g": "a"}), (["a"], [], {"": "a"}),
    (["a"], [], {"f^g^h": "a"}), (["a b"], [], {}), (["a^b"], [], {}),
    (["a"], ["b"], {}),
    (["a"], ["a"], {"f": "(c)a"}), (["a"], ["a"], {"f": "((pi)a)a"}),
    (["a"], ["a"], {"f": "(a"}), (["a"], ["a"], {"f": "a", "g": "(a,)a"}),
    (["a"], [], {"f": OpSig("c"), "g": OpSig("a", (("c", ("a",)),))}),
    (["a", "v1^a"], ["a"], {"v0^a": OpSig("a"), "ok": "a"}),
]


class TestAgainstTheReference:
    def test_hostile_declarations(self):
        for decls in HOSTILE:
            want = outcome(reference_signature, *decls)
            assert isinstance(want[0], type), decls
            assert outcome(Signature, *decls) == want, decls

    @pytest.mark.parametrize("draw", [gen.rand_signature, gen.rand_structure_signature])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_declarations(self, monkeypatch, draw, seed):
        """The declarations gen draws, and each less its first variable sort
        or with a variable-shaped operation added, give the same signature
        or error either way; built with half of their operations, then
        extended by the rest, they give the same operations in order."""
        drawn = []

        def record(*decls):
            drawn.append(decls)
            return Signature(*decls)
        monkeypatch.setattr(gen, "Signature", record)
        rng = random.Random(seed)
        for _ in range(150):
            draw(rng)
        monkeypatch.undo()
        rejected = 0
        for sorts, var_sorts, ops in drawn:
            for decls in ((sorts, var_sorts[1:], ops),
                          (sorts, var_sorts, {**ops, f"v0^{sorts[-1]}": "pi"})):
                got = outcome(Signature, *decls)
                assert got == outcome(reference_signature, *decls), decls
                rejected += isinstance(got[0], type)
            want = outcome(reference_signature, sorts, var_sorts, ops)
            assert outcome(Signature, sorts, var_sorts, ops) == want
            sig, names = Signature(sorts, var_sorts, ops), list(ops)
            half = len(names) // 2
            part = Signature(sorts, var_sorts, {n: ops[n] for n in names[:half]})
            whole = part.extended({n: sig.ops[n] for n in names[half:]})
            assert whole == sig and list(whole.ops.items()) == want[2]
        assert len(drawn) == 150 and rejected > 150


class TestUstype:
    def test_constant(self):
        assert parse_ustype("a", SORTS, VSORTS) == OpSig("a")

    def test_plain_args(self):
        assert parse_ustype("(a,b)pi", SORTS, VSORTS) == OpSig(
            PROP, (("a", ()), ("b", ())))

    def test_binder_arg(self):
        assert parse_ustype("((a)pi)pi", SORTS, VSORTS) == OpSig(
            PROP, ((PROP, ("a",)),))

    def test_mixed(self):
        got = parse_ustype("((a,b)a, b)a", SORTS, VSORTS)
        assert got == OpSig("a", (("a", ("a", "b")), ("b", ())))

    def test_roundtrip(self):
        for text in ["a", "pi", "(a)a", "(a,b)pi", "((a)pi)pi", "((a,b)a,b)a"]:
            op = parse_ustype(text, SORTS, VSORTS)
            assert parse_ustype(print_ustype(op), SORTS, VSORTS) == op

    def test_unknown_sort(self):
        with pytest.raises(UnknownSort):
            parse_ustype("c", SORTS, VSORTS)

    def test_binder_must_be_var_sort(self):
        with pytest.raises(BinderSortNotInVSRT):
            parse_ustype("((pi)a)a", SORTS, VSORTS)

    def test_malformed(self):
        for text in ["", "(a", "(a,)a", "a b", "()a"]:
            with pytest.raises(MalformedUstype):
                parse_ustype(text, SORTS, VSORTS)

    @pytest.mark.parametrize("text, sorts, want", [
        ("a", SORTS, OpSig("a")),
        (" a ", SORTS, OpSig("a")),
        ("zz", SORTS, (UnknownSort, "sort 'zz' not declared")),
        ("a b", SORTS, (MalformedUstype, "trailing input from token 'b' in ustype 'a b'")),
        ("a b", frozenset({"a b", PROP}), (UnknownSort, "sort 'a' not declared")),
    ])
    def test_a_bare_word_as_the_grammar_reads_it(self, text, sorts, want):
        """A declared sort is its own ustype without a scan; anything else,
        a sort declared under a name that is not one word included, gets
        the grammar's result or error."""
        try:
            got = parse_ustype(text, sorts, VSORTS)
        except SignatureError as exc:
            got = type(exc), str(exc)
        assert got == want


class TestSignature:
    def test_distinguished_present(self):
        sig = Signature(["a"], ["a"], {})
        for name in ["top", "bot", "not", "imp", "and", "or", "iff",
                     forall_op("a"), exists_op("a"), eq_op("a"), eq_op(PROP)]:
            assert name in sig.ops

    def test_quantifier_ustype(self):
        sig = Signature(["a"], ["a"], {})
        assert sig.ops[forall_op("a")] == OpSig(PROP, ((PROP, ("a",)),))
        assert sig.ops[eq_op("a")] == OpSig(PROP, (("a", ()), ("a", ())))

    def test_no_quantifier_for_non_var_sort(self):
        sig = Signature(["a"], [], {})
        assert forall_op("a") not in sig.ops
        assert eq_op("a") in sig.ops

    def test_user_ops(self):
        sig = Signature(["a"], ["a"], {"f": "(a)a"})
        assert set(sig.user_ops) == {"f"}
        assert dict(sig.ops_by_result) == {
            "a": (("f", OpSig("a", (("a", ()),))),),
            PROP: tuple((n, s) for n, s in sig.ops.items() if n != "f")}

    def test_name_collision_rejected(self):
        with pytest.raises(SignatureError):
            Signature(["a"], ["a"], {"imp": "(a)a"})

    @pytest.mark.parametrize("var_sorts", [["a"], ["a", "b"]])
    def test_variable_shaped_op_name_rejected(self, var_sorts):
        # whatever the sort: with b not a variable sort, a constant v0^b
        # would still be taken for a free variable by fv
        with pytest.raises(SignatureError, match=r"'v0\^b'"):
            Signature(["a", "b"], var_sorts, {"v0^b": "b", "g": "(b)a"})

    @pytest.mark.parametrize("sorts, ops", [
        (["a"], {"f g": "a"}), (["a"], {"f-g": "a"}), (["a"], {"": "a"}),
        (["a"], {"f^g^h": "a"}), (["a b"], {}), (["a^b"], {}),
    ])
    def test_names_must_be_single_tokens(self, sorts, ops):
        with pytest.raises(SignatureError, match="single"):
            Signature(sorts, [], ops)

    def test_token_shaped_names_accepted(self):
        sig = Signature(["s_1"], ["s_1"], {"f^x": "s_1", "k2": "(s_1)pi"})
        assert set(sig.user_ops) == {"f^x", "k2"}

    def test_var_sort_must_be_sort(self):
        with pytest.raises(UnknownSort):
            Signature(["a"], ["b"], {})

    def test_validate_clean(self):
        decls = ["a"], ["a"], {"f": "(a)a"}
        assert outcome(Signature, *decls) == outcome(reference_signature, *decls)

    @pytest.mark.parametrize("ops", [{"f": "a b"}, {"f": "(a b)pi"}, {"f": "a b", "g": "pi"}])
    def test_a_misnamed_sort_in_a_ustype(self, ops):
        """The sort names are checked before the ustypes are read, so a
        misnamed sort used in a ustype is reported as misnamed, not as
        undeclared.  reference_signature reads the ustypes first, so these
        cases are not in HOSTILE."""
        with pytest.raises(SignatureError) as exc:
            Signature(["a b"], [], ops)
        assert (type(exc.value), str(exc.value)) == (
            SignatureError, "sort name 'a b' is not a single word; "
                            "operation name 'eq_a b' is not a single token")

    def test_rebuilt_from_its_own_fields(self):
        sig = Signature(["a"], ["a"], {"f": "(a)a"})
        again = Signature(sig.sorts, sig.var_sorts, sig.ops)
        assert again == sig and list(again.ops.items()) == list(sig.ops.items())

    def test_validate_catches_missing_distinguished(self):
        """A logical symbol is always present, with its own ustype."""
        sig = Signature(["a"], ["a"], {})
        ops = dict(sig.ops)
        del ops["imp"]
        assert Signature(sig.sorts, sig.var_sorts, ops) == sig
        ops["imp"] = OpSig(PROP, ((PROP, ()),))
        with pytest.raises(SignatureError, match="'imp' collides"):
            Signature(sig.sorts, sig.var_sorts, ops)

    def test_validate_catches_var_op_overlap(self):
        sig = Signature(["a"], ["a"], {})
        ops = dict(sig.ops)
        ops[variable_name("a", 0)] = OpSig("a")
        with pytest.raises(SignatureError, match="disjoint"):
            Signature(sig.sorts, sig.var_sorts, ops)

    def test_a_binder_sort_must_be_a_variable_sort(self):
        sig = Signature(["a", "b"], ["a", "b"], {"mu": "((a)pi)a"})
        with pytest.raises(SignatureError, match="binder sort 'a' not a variable sort"):
            Signature(sig.sorts, {"b"}, sig.ops)


class TestExtended:
    def test_same_as_the_constructor(self):
        sig = Signature(["a"], ["a"], {"f": "(a)a"})
        big = sig.extended({"c": OpSig("a"), "g": OpSig("a", (("a", ("a",)),))})
        want = Signature(["a"], ["a"], {"f": "(a)a", "c": "a", "g": "((a)a)a"})
        assert big == want and list(big.ops.items()) == list(want.ops.items())
        assert list(big.user_ops) == ["f", "c", "g"] and sig.user_ops.keys() == {"f"}

    @pytest.mark.parametrize("new_ops, message", [
        ({"f": OpSig("a")}, "operation 'f' declared twice"),
        ({"imp": OpSig(PROP, ((PROP, ()), (PROP, ())))}, "operation 'imp' declared twice"),
        ({"v3^a": OpSig("a")}, "VAR and SOP not disjoint"),
        ({"f g": OpSig("a")}, "operation name 'f g' is not a single token"),
        ({"c": OpSig("b")}, "op 'c': unknown result sort 'b'"),
        ({"g": OpSig("a", (("b", ()),))}, "op 'g': unknown argument sort 'b'"),
        ({"g": OpSig("a", (("a", ("pi",)),))}, "op 'g': binder sort 'pi' not a variable sort"),
    ])
    def test_rejects(self, new_ops, message):
        sig = Signature(["a"], ["a"], {"f": "(a)a"})
        with pytest.raises(SignatureError, match=re.escape(message)):
            sig.extended({"ok": OpSig("a"), **new_ops})


class TestReadOnly:
    def test_a_signature_is_read_only(self):
        given = {"f": "(a)a"}
        sig = Signature(["a"], ["a"], given)
        given["c"] = "a"  # the caller's dict, not sig's
        assert "c" not in sig.ops
        for f in fields(Signature):
            with pytest.raises(FrozenInstanceError):
                setattr(sig, f.name, getattr(sig, f.name))
        for mapping, key in ((sig.ops, "c"), (sig.user_ops, "c"), (sig.ops_by_result, "a")):
            with pytest.raises(TypeError):
                mapping[key] = OpSig("a")
            with pytest.raises(TypeError):
                del mapping[next(iter(mapping))]
        assert list(sig.user_ops) == ["f"]

    def test_equality_ignores_the_derived_fields(self):
        decls = ["a"], ["a"], {"ca": "a", "f": "(a)a"}
        one, two = Signature(*decls), Signature(*decls)
        assert one == two
        assert one.user_ops and one.ops_by_result
        assert one == two and two == one
        assert one != Signature(["a"], ["a"], {"ca": "a"})

    def test_theory_equality_detects_reparse_drift(self, small_sig):
        ext = henkin_extend(Theory(small_sig, (parse_expr(small_sig, "eq_a(f(ca),cb)"),)), 1, 2)
        text = fileio.print_theory(ext.theory)
        assert ext.theory.signature.user_ops  # read on one side only
        assert fileio.parse_theory(text) == ext.theory
        name = ext.constants[0][0]
        dropped = "\n".join(line for line in text.splitlines()
                            if not line.startswith(f"op {name} "))
        changed = text.replace(f"op {name} : a", f"op {name} : (a)a")
        assert changed != text
        for drifted in (dropped, changed):
            reparsed = fileio.parse_theory(
                "\n".join(line for line in drifted.splitlines() if not line.startswith("axiom")))
            assert reparsed.signature != ext.theory.signature
        assert fileio.parse_theory(text.replace("axiom eq_a(f(ca),cb)", "axiom eq_a(ca,cb)")) \
            != ext.theory


class TestVariables:
    def test_naming(self):
        assert variable_name("a", 3) == "v3^a"

    def test_sort_recognition(self):
        sig = Signature(["a", "b"], ["a"], {})
        assert variable_sort(sig, "v0^a") == "a"
        assert variable_sort(sig, "v0^b") is None  # b is not a variable sort
        assert variable_sort(sig, "f") is None
        assert is_variable(sig, "v12^a")

    def test_fresh_vars_avoid_and_distinct(self):
        got = fresh_vars(("a", "a"), avoid={"v0^a", "v2^a"})
        assert got == ("v1^a", "v3^a")
        assert fresh_vars(("a",), avoid=()) == ("v0^a",)


class TestExtends:
    def test_reflexive(self):
        sig = Signature(["a"], ["a"], {"f": "(a)a"})
        assert extends(sig, sig)

    def test_op_superset(self):
        small = Signature(["a"], ["a"], {"f": "(a)a"})
        big = Signature(["a"], ["a"], {"f": "(a)a", "c": "a"})
        assert extends(small, big)
        assert not extends(big, small)

    def test_sort_mismatch(self):
        s1 = Signature(["a"], ["a"], {})
        s2 = Signature(["a", "b"], ["a"], {})
        assert not extends(s1, s2)
