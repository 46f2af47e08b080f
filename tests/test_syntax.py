import random
import re
import weakref

import pytest

from funlog import fileio, syntax
from funlog.calculus import Theory, derive_equality_rule
from funlog.signature import (
    PROP, Signature, SignatureError, Tokens, is_variable, is_variable_name,
    variable_sort,
)
from funlog.syntax import (
    Expr, var, mk, mk_eq, check_expr, size, parse_expr, print_expr,
    top, bot, neg, conj, forall, exists, forall_chain,
    fv, in_class, perspective_sorts, MAX_NESTING, _PUNCT,
    ExprError, UnknownSymbol, SortMismatch, ArityMismatch, DuplicateBinder,
    AliasAmbiguity, ParseError, ForeignSignature,
)
from funlog.gen import rand_signature, rand_expr


@pytest.fixture
def sig():
    return Signature(
        ["a", "b"], ["a", "b"],
        {"ca": "a", "g": "(a,b)a", "P": "(a)pi", "mu": "((a)pi)a",
         "bind2": "((a,b)pi,a)pi"})


class TestConstruction:
    def test_var_and_sort(self, sig):
        v = var(sig, "v0^a")
        assert v.sort == "a" and v.head == "v0^a" and v.args == ()

    def test_mk_checks_arity(self, sig):
        with pytest.raises(ArityMismatch):
            mk(sig, "P")
        with pytest.raises(ArityMismatch):
            mk(sig, "ca", (((), var(sig, "v0^a")),))

    def test_mk_checks_sorts(self, sig):
        with pytest.raises(SortMismatch):
            mk(sig, "P", (((), top(sig)),))

    def test_mk_checks_binder_sorts(self, sig):
        body = mk(sig, "P", (((), var(sig, "v0^a")),))
        with pytest.raises(SortMismatch):
            mk(sig, "mu", ((("v0^b",), body),))

    def test_duplicate_binder_rejected(self, sig):
        body = top(sig)
        with pytest.raises(DuplicateBinder):
            mk(sig, "bind2", ((("v0^a", "v0^a"), body), ((), var(sig, "v0^a"))))

    def test_unknown_symbol(self, sig):
        with pytest.raises(UnknownSymbol):
            mk(sig, "nosuch")

    def test_check_expr_catches_forged_sort(self, sig):
        e = mk(sig, "P", (((), mk(sig, "ca")),))
        check_expr(sig, e)
        forged = Expr("P", e.args, "a")  # wrong cached sort
        with pytest.raises(SortMismatch):
            check_expr(sig, forged)

    def test_check_expr_foreign(self, sig):
        other = Signature(["c"], ["c"], {"k": "c"})
        with pytest.raises(ForeignSignature):
            check_expr(sig, mk(other, "k"))

    def test_eq_alias(self, sig):
        a = mk(sig, "ca")
        assert mk_eq(sig, a, a).head == "eq_a"
        assert mk_eq(sig, top(sig), bot(sig)).head == "iff"
        with pytest.raises(AliasAmbiguity):
            mk_eq(sig, a, top(sig))

    def test_size(self, sig):
        e = parse_expr(sig, "g(ca,v0^b)")
        assert size(e) == 3


class TestConcreteSyntax:
    def test_print_canonical(self, sig):
        e = forall(sig, "v0^a", mk(sig, "P", (((), var(sig, "v0^a")),)))
        assert print_expr(e) == "forall^a((v0^a): P(v0^a))"

    def test_parse_canonical(self, sig):
        text = "mu((v0^a): and(P(v0^a),P(ca)))"
        assert print_expr(parse_expr(sig, text)) == text

    def test_quantifier_sugar(self, sig):
        assert parse_expr(sig, "forall v0^a. P(v0^a)") == \
            parse_expr(sig, "forall^a((v0^a): P(v0^a))")
        assert parse_expr(sig, "exists v1^b. top") == \
            parse_expr(sig, "exists^b((v1^b): top)")

    def test_eq_sugar(self, sig):
        assert parse_expr(sig, "ca = ca").head == "eq_a"
        assert parse_expr(sig, "top = bot").head == "iff"
        with pytest.raises(AliasAmbiguity):
            parse_expr(sig, "ca = top")

    def test_multi_binder_group(self, sig):
        e = parse_expr(sig, "bind2((v0^a,v1^b): P(v0^a),ca)")
        assert e.args[0][0] == ("v0^a", "v1^b")

    def test_parenthesized_subexpr_not_binder_group(self, sig):
        e = parse_expr(sig, "P((ca))")
        assert e == parse_expr(sig, "P(ca)")

    def test_parse_errors(self, sig):
        for text in ["", "P(", "P(ca))", "nosuch", "forall v0^a P(v0^a)",
                     "ca = ca = ca"]:
            with pytest.raises((ParseError, UnknownSymbol)):
                parse_expr(sig, text)

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(300):
            s = rand_signature(rng)
            e = rand_expr(s, rng, rng.choice(sorted(s.sorts)), rng.randint(0, 5))
            assert parse_expr(s, print_expr(e)) == e


class TestPerspectives:
    def test_variable_needs_component(self, sig):
        v = var(sig, "v0^a")
        assert not in_class(v, ())
        assert in_class(v, ("v0^a",))
        assert in_class(v, ("v1^a", "v0^a", "v1^a"))

    def test_binders_extend(self, sig):
        e = parse_expr(sig, "mu((v0^a): P(v0^a))")
        assert in_class(e, ())
        inner = parse_expr(sig, "mu((v0^a): P(v1^a))")
        assert not in_class(inner, ())
        assert in_class(inner, ("v1^a",))

    def test_in_class_matches_fv(self, sig):
        """in_class reads fv; the inductive table of persp(e) is the
        reference: a variable leaf must be a component of the perspective,
        and each argument slot's binders extend it for the slot's body."""
        def covered(s, e, p: tuple) -> bool:
            if not e.args:
                return e.head in p or not is_variable(s, e.head)
            return all(covered(s, body, p + tuple(binders)) for binders, body in e.args)

        rng = random.Random(5)
        for _ in range(200):
            s = rand_signature(rng)
            e = rand_expr(s, rng, rng.choice(sorted(s.sorts)), rng.randint(0, 5))
            p = tuple(rng.choice(sorted(fv(e)) or ["v0^s0"])
                      for _ in range(rng.randint(0, 4)))
            assert in_class(e, p) == covered(s, e, p)

    def test_perspective_sorts(self, sig):
        assert perspective_sorts(sig, ("v0^a", "v1^b")) == ("a", "b")
        with pytest.raises(UnknownSymbol):
            perspective_sorts(sig, ("ca",))


def test_forall_chain(sig):
    e = forall_chain(sig, ("v0^a", "v1^b"), top(sig))
    assert print_expr(e) == "forall^a((v0^a): forall^b((v1^b): top))"


# ---------------------------------------------------------------------------
# the parse memo, against the parser it replaced

# The expression lexer before syntax.lex: at each step skip whitespace, then
# match one token, or one character that starts none.
_TOKEN = re.compile(r"\s*(?:(\w+(?:\^\w+)?|[(),:.=])|\S)")


def reference_parse_expr(sig, text: str) -> Expr:
    """parse_expr before the memo: every application is parsed and
    validated where it occurs."""
    t = Tokens(_TOKEN, text, ParseError)

    def ahead(k: int):
        """The token k places ahead, or None past the end."""
        i = t.pos + k
        return t.toks[i] if i < len(t.toks) else None

    def word(k: int) -> bool:
        tok = ahead(k)
        return tok is not None and tok not in _PUNCT

    def group_ahead() -> bool:
        k = 1
        while word(k) and ahead(k + 1) == ",":
            k += 2
        return word(k) and ahead(k + 1) == ")" and ahead(k + 2) == ":"

    def binder() -> str:
        v = t.take()
        if not is_variable(sig, v):
            raise ParseError(f"binder {v!r} is not a variable")
        return v

    def bare(parsed: tuple) -> Expr:
        binders, e = parsed
        if binders:
            raise ParseError("a binder group outside an argument slot")
        return e

    depth = 0

    def slot() -> tuple:
        nonlocal depth
        depth += 1
        if depth > MAX_NESTING:
            raise ParseError("input nested too deep")
        binders = ()
        if t.peek() == "(" and group_ahead():
            t.take("(")
            binders = tuple(t.items(binder))
            t.take(")")
            t.take(":")
        if t.peek() in ("forall", "exists") and is_variable(sig, ahead(1) or ""):
            quant = t.take()
            v = t.take()
            t.take(".")
            body = bare(slot())
            if body.sort != PROP:
                raise SortMismatch("quantified body must be a formula")
            e = (forall if quant == "forall" else exists)(sig, v, body)
        else:
            e = unit()
            if t.peek() == "=":
                t.take("=")
                e = mk_eq(sig, e, unit())
        depth -= 1
        return binders, e

    def unit() -> Expr:
        head = t.take()
        if head == "(":
            e = bare(slot())
            t.take(")")
            return e
        if head in _PUNCT:
            raise ParseError(f"unexpected {head!r}")
        if t.peek() != "(":
            return mk(sig, head)
        t.take("(")
        args = t.items(slot)
        t.take(")")
        return mk(sig, head, args)

    return bare(t.parse(slot))


def outcome(parse, s, text):
    """The parsed expression, or the class of the error raised."""
    try:
        return parse(s, text)
    except ExprError as exc:
        return type(exc)


def mutants(text: str, rng: random.Random) -> list[str]:
    """The text with one token dropped, one token repeated, and nested
    one level deeper inside a negation or an equation."""
    toks = _TOKEN.findall(text)
    i = rng.randrange(len(toks))
    return [" ".join(toks[:i] + toks[i + 1:]),
            " ".join(toks[:i + 1] + toks[i:]),
            f"not({text})", f"{text} = {text}"]


class TestParseMemo:
    @pytest.mark.parametrize("seed", range(23, 28))
    def test_same_as_the_reference(self, seed):
        """Every text parses as the reference parses it, or fails with the
        same error class, when parsed twice through one memo shared by all
        texts over one signature."""
        rng = random.Random(seed)
        accepted = rejected = 0
        for _ in range(300):
            s = rand_signature(rng)
            memo = {}
            texts = []
            for _ in range(3):
                e = rand_expr(s, rng, rng.choice(sorted(s.sorts)), rng.randint(0, 5))
                texts += [print_expr(e)] + mutants(print_expr(e), rng)
            for text in texts:
                want = outcome(reference_parse_expr, s, text)
                for _ in range(2):
                    got = outcome(lambda s, text: parse_expr(s, text, memo), s, text)
                    assert got == want, text
                if isinstance(want, Expr):
                    accepted += 1
                else:
                    rejected += 1
        assert accepted > 1000 and rejected > 500

    def test_nesting_bound_exact_on_hits(self):
        """A reused application counts its own depth where it recurs, and so
        does every application parsed around a reuse."""
        s = Signature(["a"], ["a"], {"ca": "a", "f": "(a)a"})
        memo = {}

        def f_nest(k, e):
            return "f(" * k + e + ")" * k

        big = f_nest(60, "ca")
        parse_expr(s, f"eq_a({big},ca)", memo)
        for k in range(45):
            text = f"eq_a({f_nest(k, big)},ca)"
            assert outcome(lambda s, text: parse_expr(s, text, memo), s, text) == \
                outcome(parse_expr, s, text), k

    def test_paren_bound_exact_on_hits(self):
        """A reused application with parenthesized units inside counts its
        parentheses where it recurs: memo and fresh parses give the same
        outcome, and 2 * MAX_NESTING parentheses may be open at once."""
        s = Signature(["a"], ["a"], {"ca": "a", "f": "(a)a"})
        memo = {}
        inner = "f(" + "(" * 60 + "ca" + ")" * 60 + ")"
        assert parse_expr(s, inner, memo) is parse_expr(s, "f(ca)")
        for k in (0, 20, 39, 40, 41, 60, 138, 139, 140):
            for text in ("(" * k + inner + ")" * k, f"eq_a({'(' * k}{inner}{')' * k},ca)"):
                assert outcome(lambda s, text: parse_expr(s, text, memo), s, text) == \
                    outcome(parse_expr, s, text), (k, text)
        assert 2 * MAX_NESTING == 200
        for m in (None, memo, memo):
            assert parse_expr(s, "(" * 200 + "ca" + ")" * 200, m) is parse_expr(s, "ca")
            assert parse_expr(s, "(" * 139 + inner + ")" * 139, m) is parse_expr(s, "f(ca)")
            for text in ("(" * 201 + "ca" + ")" * 201, "(" * 140 + inner + ")" * 140):
                with pytest.raises(ParseError, match="^input nested too deep$"):
                    parse_expr(s, text, m)

    def test_a_hit_with_grouping_parentheses_is_the_fresh_parse(self, monkeypatch):
        """An application with grouping parentheses inside is stored like
        any other, and a hit returns the node a fresh parse builds."""
        s = Signature(["a"], ["a"], {"ca": "a", "f": "(a)a"})
        memo = {}
        e = parse_expr(s, "eq_a(f(((ca))),f((f(ca))))", memo)
        assert {"f ( ( ( ca ) ) )", "f ( ( f ( ca ) ) )"} <= memo.keys()
        fresh = [parse_expr(s, text) for text in ("f(((ca)))", "f((f(ca)))")]
        monkeypatch.setattr(syntax, "mk", lambda *args: pytest.fail("mk called"))
        assert [parse_expr(s, text, memo) for text in ("f(((ca)))", "f((f(ca)))")] == fresh
        assert e.args[0][1] is fresh[0] and e.args[1][1] is fresh[1]

    def test_parse_proof_as_lines_parsed_one_by_one(self, monkeypatch):
        s = Signature(["a"], ["a"], {"ca": "a", "cb": "a", "f": "(a)a",
                                     "mu": "((a)pi)a"})
        thy = Theory(s, ())
        e = parse_expr(s, "f(mu((v0^a): eq_a(f(v1^a),v0^a)))")
        p = derive_equality_rule(thy, e, "v1^a", parse_expr(s, "ca"),
                                 parse_expr(s, "f(cb)"))
        text = fileio.print_proof(p)
        got = fileio.parse_proof(text, thy)
        monkeypatch.setattr(fileio, "parse_expr",
                            lambda s, text, memo=None: reference_parse_expr(s, text))
        assert got == fileio.parse_proof(text, thy) == p

    def test_a_repeated_subformula_is_one_object(self):
        s = Signature(["a"], ["a"], {"ca": "a", "cb": "a", "f": "(a)a"})
        proof = fileio.parse_proof(
            "premise eq_a(f(ca),cb)\n"
            "1. imp(eq_a(f(ca),cb),eq_a(f(ca),cb)) ; taut\n"
            "2. imp(not(eq_a(f(ca),cb)),bot) ; taut\n", Theory(s, ()))
        first = proof.lines[0].formula.args[0][1]
        assert proof.premises[0] is first
        assert proof.lines[0].formula.args[1][1] is first
        assert proof.lines[1].formula.args[0][1].args[0][1] is first

    def test_a_hit_ignores_whitespace(self, monkeypatch):
        """An application is keyed by its tokens, so one memo serves every
        spacing of it: parsing f(ca) after f( ca ) builds no node."""
        s = Signature(["a"], ["a"], {"ca": "a", "f": "(a)a"})
        memo = {}
        e = parse_expr(s, "f( ca )", memo)
        monkeypatch.setattr(syntax, "mk", lambda *args: pytest.fail("mk called"))
        assert parse_expr(s, "f(ca)", memo) is e
        assert len(memo) == 1

    def test_bound_counts_nodes(self):
        """The bound is on the parsed expression's depth in nodes, so
        parentheses add no level and the node a = b builds adds one,
        whether or not the memo holds the chain's applications."""
        s = Signature(["a"], ["a"], {"ca": "a", "f": "(a)a"})

        def chain(depth):
            return "f(" * (depth - 1) + "ca" + ")" * (depth - 1)
        memo = {}
        for m in (None, memo, memo):
            assert parse_expr(s, "((" + chain(MAX_NESTING) + "))", m).depth == MAX_NESTING
            assert parse_expr(s, chain(MAX_NESTING - 1) + " = ca", m).depth == MAX_NESTING
            with pytest.raises(ParseError, match="input nested too deep"):
                parse_expr(s, "not(" + chain(MAX_NESTING - 1) + " = ca)", m)


# ---------------------------------------------------------------------------
# mk, which validates a node once per ustype, against the mk that always did

def reference_mk(sig, head: str, args=()) -> Expr:
    """mk before validate-once: every call checks every clause."""
    args = tuple((tuple(binders), body) for binders, body in args) if args else ()
    spec = sig.ops.get(head)
    if spec is None:
        vsort = variable_sort(sig, head)
        if vsort is None:
            raise UnknownSymbol(f"unknown symbol {head!r}")
        if args:
            raise ArityMismatch(f"variable {head!r} applied to arguments")
        return Expr(head, (), vsort)
    if len(args) != spec.arity:
        raise ArityMismatch(f"{head!r} expects {spec.arity} arguments, got {len(args)}")
    for (binders, body), (arg_sort, binder_sorts) in zip(args, spec.args):
        if body.sort != arg_sort:
            raise SortMismatch(
                f"argument of {head!r}: expected sort {arg_sort!r}, got {body.sort!r}")
        if len(binders) != len(binder_sorts):
            raise ArityMismatch(
                f"{head!r}: binder list {binders} does not match sorts {binder_sorts}")
        if len(set(binders)) != len(binders):
            raise DuplicateBinder(f"{head!r}: repeated variable in binder list {binders}")
        for v, bsort in zip(binders, binder_sorts):
            if variable_sort(sig, v) != bsort:
                raise SortMismatch(f"{head!r}: binder {v!r} is not a variable of sort {bsort!r}")
    return Expr(head, args, spec.result)


def built(build, sig, head, args):
    """The node build returns, or the class of the error it raises."""
    try:
        return build(sig, head, args)
    except ExprError as exc:
        return type(exc)


def mutated(s, args, rng: random.Random) -> tuple:
    """args with one slot changed: its body, its binders (of any sort,
    repeated, one more, or a constant), or the slot dropped or doubled."""
    args = list(args)
    i = rng.randrange(len(args))
    binders, body = args[i]
    pool = [f"v{k}^{srt}" for srt in sorted(s.sorts) for k in range(2)]
    kind = rng.randrange(7)
    if kind == 0:
        body = rand_expr(s, rng, rng.choice(sorted(s.sorts)), rng.randint(0, 1))
    elif kind == 1:
        binders = tuple(rng.choice(pool) for _ in binders) or (rng.choice(pool),)
    elif kind == 2:
        binders += (rng.choice(pool),)
    elif kind == 3:
        binders = binders[:1] * len(binders) if len(binders) > 1 else binders * 2
    elif kind == 4:
        binders = ("k_s0",) * max(1, len(binders))
    elif kind == 5:
        del args[i]
        return tuple(args)
    else:
        args.insert(i, (binders, body))
    args[i] = (binders, body)
    return tuple(args)


class TestValidateOnce:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_as_the_reference(self, seed):
        """Over random signatures, mk returns the node reference_mk returns,
        or raises the same error class, for each node of a random
        expression and each node with one slot mutated; each is first built
        by mk, or forged by Expr(...) with the head's result sort, then
        built under the signature, another random one sharing its operation
        names (not their ustypes), and the signature again.  The signature
        less a variable sort is not a signature: building it raises.  250
        draws of three signatures build and reject at least as many nodes,
        for each seed, as 150 draws of four did."""
        rng = random.Random(seed)
        nodes = errors = 0
        for _ in range(250):
            s, other = rand_signature(rng), rand_signature(rng)
            dropped = rng.choice(sorted(s.var_sorts))
            with pytest.raises(SignatureError, match="not a variable sort"):
                Signature(s.sorts, s.var_sorts - {dropped}, s.ops)
            todo = [rand_expr(s, rng, rng.choice(sorted(s.sorts)), rng.randint(0, 5))]
            while todo:
                e = todo.pop()
                todo.extend(body for _, body in e.args)
                cases = [(e.head, e.args, None)]
                if e.args:
                    args = mutated(s, e.args, rng)
                    cases.append((e.head, args, None))
                    if e.head in s.ops and all(len(slot) == 2 for slot in args):
                        cases.append((e.head, args, Expr(e.head, args, s.ops[e.head].result)))
                for head, args, forged in cases:
                    for sig in (s, other, s):
                        got = built(mk, sig, head, args)
                        assert got == built(reference_mk, sig, head, args), (head, args)
                        nodes += isinstance(got, Expr)
                        errors += not isinstance(got, Expr)
                    del forged
        assert nodes > 1000 and errors > 800, (nodes, errors)

    def test_a_mark_from_another_signature(self):
        """A node validated under one signature is checked again under one
        whose ustype for its head differs; under an equal signature built
        anew it is reused.  No signature lacks a binder's sort as a variable
        sort: building one raises."""
        decls = {"ca": "a", "P": "(a)pi", "mu": "((a)pi)a"}
        s = Signature(["a", "b"], ["a", "b"], decls)
        body = mk(s, "P", (((), var(s, "v0^a")),))
        e = mk(s, "mu", ((("v0^a",), body),))
        q = forall(s, "v0^a", body)
        other = Signature(["a", "b"], ["a", "b"], {**decls, "mu": "((b)pi)a"})
        with pytest.raises(SignatureError, match="'a' not a variable sort"):
            Signature(s.sorts, frozenset({"b"}), s.ops)
        for sig in (other, s, other):
            for node in (e, q):
                assert built(mk, sig, node.head, node.args) == \
                    built(reference_mk, sig, node.head, node.args)
        with pytest.raises(SortMismatch):
            mk(other, "mu", e.args)
        again = Signature(["a", "b"], ["a", "b"], decls)
        assert mk(again, "mu", e.args) is e and mk(again, "forall^a", q.args) is q

    def test_a_forged_node_is_checked(self, sig):
        """A node made by Expr(...) is in the table but carries no mark, so
        mk checks it."""
        a = var(sig, "v0^a")
        dup = Expr("bind2", ((("v0^a", "v0^a"), top(sig)), ((), a)), PROP)
        wrong = Expr("mu", ((("v0^b",), mk(sig, "P", (((), a),))),), "a")
        for forged, error in ((dup, DuplicateBinder), (wrong, SortMismatch)):
            with pytest.raises(error):
                mk(sig, forged.head, forged.args)
            with pytest.raises(error):
                check_expr(sig, forged)
            assert forged.spec is None


# ---------------------------------------------------------------------------
# hash-consing, and the recursive walks the cached fields replaced

def reference_size(e: Expr) -> int:
    return 1 + sum(reference_size(body) for _, body in e.args)


def reference_fv(e: Expr) -> frozenset[str]:
    if not e.args:
        return frozenset({e.head}) if is_variable_name(e.head) else frozenset()
    out = set()
    for binders, body in e.args:
        out |= reference_fv(body) - set(binders)
    return frozenset(out)


def reference_depth(e: Expr) -> int:
    return 1 + max((reference_depth(body) for _, body in e.args), default=0)


def reference_print(e: Expr) -> str:
    if not e.args:
        return e.head
    parts = []
    for binders, body in e.args:
        if binders:
            parts.append("(" + ",".join(binders) + "): " + reference_print(body))
        else:
            parts.append(reference_print(body))
    return e.head + "(" + ",".join(parts) + ")"


class TestHashConsing:
    def test_mk_twice_is_one_object(self, sig):
        args = (((), mk(sig, "ca")), ((), var(sig, "v0^b")))
        assert mk(sig, "g", args) is mk(sig, "g", args)
        assert mk(sig, "ca") is mk(sig, "ca") and var(sig, "v3^a") is var(sig, "v3^a")

    def test_no_walk_recurses(self, sig):
        """Equality, hashing and the cached fields read one node, so they
        work on a chain deeper than Python's recursion limit."""
        assert Expr.__eq__ is object.__eq__ and Expr.__hash__ is object.__hash__
        e = var(sig, "v0^a")
        for _ in range(1500):
            e = mk(sig, "g", (((), e), ((), var(sig, "v0^b"))))
        assert e == e and hash(e) == hash(e) and size(e) == 3001 and e.depth == 1501
        assert fv(e) == {"v0^a", "v0^b"} and print_expr(e).startswith("g(g(")

    def test_two_parses_without_a_shared_memo_are_one_object(self, sig):
        text = "bind2((v0^a,v1^b): and(P(v0^a),P(g(ca,v1^b))),mu((v2^a): P(v2^a)))"
        assert parse_expr(sig, text) is parse_expr(sig, text)
        assert parse_expr(sig, "forall v0^a. P(v0^a)") is \
            forall(sig, "v0^a", mk(sig, "P", (((), var(sig, "v0^a")),)))

    def test_fields_cannot_be_assigned_or_deleted(self, sig):
        e = parse_expr(sig, "P(ca)")
        for field in ("head", "args", "sort", "fv", "size", "depth", "text", "other"):
            with pytest.raises(AttributeError):
                setattr(e, field, None)
            with pytest.raises(AttributeError):
                delattr(e, field)
        assert print_expr(e) == "P(ca)" and e.sort == PROP

    def test_unheld_node_leaves_the_table(self, sig):
        e = parse_expr(sig, "g(g(ca,v9^b),v8^b)")
        key, ref = (e.head, e.args, e.sort), weakref.ref(e)
        assert syntax._TABLE[key]() is e
        del e
        assert ref() is None and key not in syntax._TABLE

    @pytest.mark.parametrize("seed", range(20))
    def test_cached_fields_match_the_recursive_walks(self, seed):
        rng = random.Random(seed)
        nodes = 0
        for _ in range(200):
            s = rand_signature(rng)
            e = rand_expr(s, rng, rng.choice(sorted(s.sorts)), rng.randint(0, 8))
            assert size(e) == reference_size(e)
            assert e.depth == reference_depth(e)
            assert fv(e) == reference_fv(e)
            assert print_expr(e) == reference_print(e)
            nodes += size(e)
        assert nodes > 500


# ---------------------------------------------------------------------------
# the one walk over an expression's distinct nodes, and the recursive check
# it replaced

def reference_nodes(e: Expr, into=None) -> list[Expr]:
    """nodes by recursion: a node at its first visit, then the nodes of the
    bodies of the slots into enters."""
    out = {}

    def visit(node):
        if node not in out:
            out[node] = None
            for binders, body in node.args:
                if into is None or into(node, binders):
                    visit(body)
    visit(e)
    return list(out)


def reference_check_expr(sig, e: Expr) -> None:
    """check_expr before the walk: the node, then each body, recursively."""
    if e.head not in sig.ops and variable_sort(sig, e.head) is None:
        raise ForeignSignature(f"symbol {e.head!r} not in signature")
    rebuilt = mk(sig, e.head, e.args)
    if rebuilt.sort != e.sort:
        raise SortMismatch(f"cached sort {e.sort!r} disagrees with {rebuilt.sort!r}")
    for _, body in e.args:
        reference_check_expr(sig, body)


def check_outcome(check, sig, e):
    """None when check accepts e, else the class and message it raised."""
    try:
        check(sig, e)
    except ExprError as exc:
        return type(exc), str(exc)
    return None


def forged_copy(s, e: Expr, rng: random.Random) -> Expr:
    """e rebuilt bottom-up by Expr(...), each node forged with a small
    chance: a cached sort it does not have, a head in no signature, or a
    binder list with its first variable repeated or of another sort."""
    args = []
    for binders, body in e.args:
        if binders and rng.random() < 0.1:
            other = rng.choice(sorted(s.var_sorts))
            binders = (binders[0],) * len(binders) if len(binders) > 1 else (f"v0^{other}",)
        args.append((binders, forged_copy(s, body, rng)))
    head, sort, r = e.head, e.sort, rng.random()
    if r < 0.05:
        sort = rng.choice(sorted(s.sorts))
    elif r < 0.08:
        head = "zz"
    return Expr(head, tuple(args), sort)


class TestNodes:
    def test_shared_nodes_are_listed_once(self, sig):
        a = mk(sig, "P", (((), mk(sig, "ca")),))
        e = a
        for _ in range(16):
            e = conj(sig, e, e)
        assert size(e) == 3 * 2 ** 16 - 1
        walk = syntax.nodes(e)
        assert walk[0] is e and len(walk) == 18 and walk[-2:] == [a, a.args[0][1]]

    @pytest.mark.parametrize("seed", range(5))
    def test_as_the_reference(self, seed):
        """The same nodes in the same order, entering every slot or only
        the slots that bind nothing."""
        rng = random.Random(seed)
        def unbound(_, binders):
            return not binders
        skipped = 0
        for _ in range(200):
            s = rand_signature(rng)
            e = rand_expr(s, rng, rng.choice(sorted(s.sorts)), rng.randint(0, 8))
            assert syntax.nodes(e) == reference_nodes(e)
            assert syntax.nodes(e, unbound) == reference_nodes(e, unbound)
            skipped += len(syntax.nodes(e)) - len(syntax.nodes(e, unbound))
        assert skipped > 50

    @pytest.mark.parametrize("seed", range(5))
    def test_check_expr_as_the_reference(self, seed):
        """The same verdict, exception class and message as the recursive
        check, on generated expressions and on forged copies of them."""
        rng = random.Random(seed)
        outcomes = set()
        for _ in range(200):
            s = rand_signature(rng)
            e = rand_expr(s, rng, rng.choice(sorted(s.sorts)), rng.randint(0, 8))
            assert check_outcome(check_expr, s, e) is None
            forged = forged_copy(s, e, rng)
            got = check_outcome(check_expr, s, forged)
            assert got == check_outcome(reference_check_expr, s, forged), print_expr(forged)
            outcomes.add(got and got[0])
        assert outcomes >= {None, SortMismatch, ForeignSignature, DuplicateBinder}

    def test_check_expr_past_the_recursion_limit(self, sig):
        """2,000-level chains of not and of a quantifier; the quantifier
        chain's cached printed forms hold about 36 MB."""
        a = var(sig, "v0^a")
        p = mk(sig, "P", (((), a),))
        dup = Expr("bind2", ((("v0^a", "v0^a"), top(sig)), ((), a)), PROP)
        negs, quants, forged = p, p, dup
        for _ in range(2000):
            negs, forged = neg(sig, negs), neg(sig, forged)
        check_expr(sig, negs)
        with pytest.raises(DuplicateBinder):
            check_expr(sig, forged)
        del negs, forged
        for _ in range(2000):
            quants = forall(sig, "v0^a", quants)
        assert quants.depth > 2000
        check_expr(sig, quants)
