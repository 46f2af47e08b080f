import pytest

from funlog.signature import (
    PROP, OpSig, Signature, make_signature, parse_ustype, print_ustype,
    validate_signature, extends, variable_name, variable_sort, is_variable,
    fresh_vars, forall_op, exists_op, eq_op, distinguished_ops,
    SignatureError, UnknownSort, MalformedUstype, BinderSortNotInVSRT,
)


SORTS = frozenset({"a", "b", PROP})
VSORTS = frozenset({"a", "b"})


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


class TestSignature:
    def test_distinguished_present(self):
        sig = make_signature(["a"], ["a"], {})
        for name in ["top", "bot", "not", "imp", "and", "or", "iff",
                     forall_op("a"), exists_op("a"), eq_op("a"), eq_op(PROP)]:
            assert name in sig.ops

    def test_quantifier_ustype(self):
        sig = make_signature(["a"], ["a"], {})
        assert sig.ops[forall_op("a")] == OpSig(PROP, ((PROP, ("a",)),))
        assert sig.ops[eq_op("a")] == OpSig(PROP, (("a", ()), ("a", ())))

    def test_no_quantifier_for_non_var_sort(self):
        sig = make_signature(["a"], [], {})
        assert forall_op("a") not in sig.ops
        assert eq_op("a") in sig.ops

    def test_user_ops(self):
        sig = make_signature(["a"], ["a"], {"f": "(a)a"})
        assert set(sig.user_ops()) == {"f"}

    def test_name_collision_rejected(self):
        with pytest.raises(SignatureError):
            make_signature(["a"], ["a"], {"imp": "(a)a"})

    @pytest.mark.parametrize("var_sorts", [["a"], ["a", "b"]])
    def test_variable_shaped_op_name_rejected(self, var_sorts):
        # whatever the sort: with b not a variable sort, a constant v0^b
        # would still be taken for a free variable by fv
        with pytest.raises(SignatureError, match=r"'v0\^b'"):
            make_signature(["a", "b"], var_sorts, {"v0^b": "b", "g": "(b)a"})

    @pytest.mark.parametrize("sorts, ops", [
        (["a"], {"f g": "a"}), (["a"], {"f-g": "a"}), (["a"], {"": "a"}),
        (["a"], {"f^g^h": "a"}), (["a b"], {}), (["a^b"], {}),
    ])
    def test_names_must_be_single_tokens(self, sorts, ops):
        with pytest.raises(SignatureError, match="single"):
            make_signature(sorts, [], ops)

    def test_token_shaped_names_accepted(self):
        sig = make_signature(["s_1"], ["s_1"], {"f^x": "s_1", "k2": "(s_1)pi"})
        assert set(sig.user_ops()) == {"f^x", "k2"}

    def test_var_sort_must_be_sort(self):
        with pytest.raises(UnknownSort):
            make_signature(["a"], ["b"], {})

    def test_validate_clean(self):
        sig = make_signature(["a"], ["a"], {"f": "(a)a"})
        assert validate_signature(sig) == []

    def test_validate_catches_missing_distinguished(self):
        sig = make_signature(["a"], ["a"], {})
        ops = dict(sig.ops)
        del ops["imp"]
        broken = Signature(sig.sorts, sig.var_sorts, ops)
        assert any("imp" in msg for msg in validate_signature(broken))

    def test_validate_catches_var_op_overlap(self):
        sig = make_signature(["a"], ["a"], {})
        ops = dict(sig.ops)
        ops[variable_name("a", 0)] = OpSig("a")
        broken = Signature(sig.sorts, sig.var_sorts, ops)
        assert any("disjoint" in msg for msg in validate_signature(broken))


class TestVariables:
    def test_naming(self):
        assert variable_name("a", 3) == "v3^a"

    def test_sort_recognition(self):
        sig = make_signature(["a", "b"], ["a"], {})
        assert variable_sort(sig, "v0^a") == "a"
        assert variable_sort(sig, "v0^b") is None  # b is not a variable sort
        assert variable_sort(sig, "f") is None
        assert is_variable(sig, "v12^a")

    def test_fresh_vars_avoid_and_distinct(self):
        sig = make_signature(["a"], ["a"], {})
        got = fresh_vars(sig, ("a", "a"), avoid={"v0^a", "v2^a"})
        assert got == ("v1^a", "v3^a")
        assert fresh_vars(sig, ("a",), avoid=()) == ("v0^a",)


class TestExtends:
    def test_reflexive(self):
        sig = make_signature(["a"], ["a"], {"f": "(a)a"})
        assert extends(sig, sig)

    def test_op_superset(self):
        small = make_signature(["a"], ["a"], {"f": "(a)a"})
        big = make_signature(["a"], ["a"], {"f": "(a)a", "c": "a"})
        assert extends(small, big)
        assert not extends(big, small)

    def test_sort_mismatch(self):
        s1 = make_signature(["a"], ["a"], {})
        s2 = make_signature(["a", "b"], ["a"], {})
        assert not extends(s1, s2)
