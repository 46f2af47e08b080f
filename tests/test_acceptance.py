"""Acceptance gate: one test per release criterion, each a single pass/fail
line in the verbose report, with an explicit wall-time budget.

Criterion 6's universe ("every closed expression of at most 40 nodes") is
astronomically large, so it is split into an exhaustive sweep of everything
within the enumeration bound plus a seeded random sample of expressions up to
40 nodes; see the test body.
"""
import json
import random
import time

from funlog.signature import PROP, Signature, variable_sort
from funlog.syntax import parse_expr, print_expr, size, mk_eq
from funlog.subst import fv, gv
from funlog.calculus import (
    Theory, check_proof, used_axioms, reindex_axioms, derive_symmetry,
    derive_transitivity, derive_equality_theorem, derive_equality_rule,
    deduction_transform, sorted_vars,
)
from funlog.semantics import (
    Structure, make_full_structure, evaluate, satisfies_theory, check_closure,
    materialize_selected, restrict_structure, constant_table, projection_table,
)
from funlog.henkin import (
    ThOracle, TermModelContext, build_term_structure, check_cm_expr,
    check_ded_sat, norm,
)
from funlog.gen import (
    rand_signature, rand_expr, rand_structure_signature, rand_full_structure,
    rand_satisfied_theory, rand_proof, SUBST_CHECKS, _pool,
    suite_soundness, suite_eval_invariance,
)
from funlog import cli


def toy_setup():
    sig = Signature(["a"], ["a"], {"ca": "a", "cb": "a", "f": "(a)a"})
    s = make_full_structure(
        sig, {"a": ("0", "1")},
        {"ca": "0", "cb": "1", "f": lambda v: "1" if v == "0" else "0"})
    thy = Theory(sig, (
        parse_expr(sig, "eq_a(f(ca),cb)"),
        parse_expr(sig, "forall v0^a. eq_a(f(f(v0^a)),v0^a)")))
    return sig, s, thy


def test_criterion_1_substitution_laws_10000_each():
    budget = 60.0
    t0 = time.time()
    rng = random.Random(10_001)
    for check in SUBST_CHECKS:
        for _ in range(10_000):
            sig = rand_signature(rng)
            case = check(sig, rng)
            assert case.ok, f"{case.name} failed on {case.detail}"
    assert time.time() - t0 < budget


def test_criterion_2_derived_proof_generators_1000_each():
    budget = 120.0
    t0 = time.time()
    rng = random.Random(10_002)

    for _ in range(1000):
        sig = rand_signature(rng)
        thy = Theory(sig, ())
        sort = rng.choice(sorted(sig.sorts))
        a = rand_expr(sig, rng, sort, rng.randint(0, 3))
        b = rand_expr(sig, rng, sort, rng.randint(0, 3))
        c = rand_expr(sig, rng, sort, rng.randint(0, 3))
        assert check_proof(derive_symmetry(thy, a, b))
        assert check_proof(derive_transitivity(thy, a, b, c))

    for _ in range(1000):
        sig = rand_signature(rng)
        thy = Theory(sig, ())
        z = rng.choice(_pool(sig))
        zsort = variable_sort(sig, z)
        e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)),
                      rng.randint(0, 4), scope=(z,))
        r = rand_expr(sig, rng, zsort, rng.randint(0, 2))
        s = rand_expr(sig, rng, zsort, rng.randint(0, 2))
        ys = sorted_vars(gv(e) & (fv(r) | fv(s)))
        assert check_proof(derive_equality_theorem(thy, e, z, r, s, ys))

    for _ in range(1000):
        sig = rand_signature(rng)
        thy = Theory(sig, ())
        z = rng.choice(_pool(sig))
        zsort = variable_sort(sig, z)
        e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)),
                      rng.randint(0, 4), scope=(z,))
        r = rand_expr(sig, rng, zsort, rng.randint(0, 2))
        s = rand_expr(sig, rng, zsort, rng.randint(0, 2))
        while fv(r) or fv(s):
            r = rand_expr(sig, rng, zsort, rng.randint(0, 2))
            s = rand_expr(sig, rng, zsort, rng.randint(0, 2))
        assert check_proof(derive_equality_rule(thy, e, z, r, s))

    for _ in range(1000):
        sig = rand_signature(rng)
        thy = Theory(sig, ())
        prem = rand_expr(sig, rng, PROP, 2)
        while fv(prem):
            prem = rand_expr(sig, rng, PROP, 2)
        p = rand_proof(rng, thy, premises=(prem,))
        q = deduction_transform(p)
        assert check_proof(q)

    assert time.time() - t0 < budget


def test_criterion_3_soundness_sweep_1000_triples():
    budget = 180.0
    t0 = time.time()
    res = suite_soundness(1000, 10_003)
    assert res.failures == 0, res.first_detail
    assert res.cases == 1000
    assert time.time() - t0 < budget


def test_criterion_4_closure_audit_and_mutations():
    budget = 60.0
    t0 = time.time()
    rng = random.Random(10_004)
    for _ in range(100):
        sig = rand_structure_signature(rng)
        s = rand_full_structure(rng, sig, max_carrier=2)
        rep = check_closure(s, cap=2)
        assert rep.ok, rep.violations

    # 20 targeted mutations: the report must name the specific violated law
    for i in range(20):
        sig = rand_structure_signature(rng)
        s = rand_full_structure(rng, sig, max_carrier=2)
        m = materialize_selected(s, cap=1)
        srt = rng.choice(sorted(sig.var_sorts))
        if i % 2 == 0:
            key = (srt, (srt,))
            gone = projection_table((srt,), m.carriers, 0)
            want = "projection:"
        else:
            key = (PROP, (srt,))
            gone = constant_table((srt,), m.carriers, m.true_atom, PROP)
            want = "constant:"
        m = Structure(sig, m.carriers, m.interp, {**m.selected, key: m.selected[key] - {gone}})
        rep = check_closure(m, cap=1)
        assert any(v.startswith(want) for v in rep.violations), (want, rep.violations)
    assert time.time() - t0 < budget


def test_criterion_5_eval_agreement_and_invariance_2000():
    budget = 60.0
    t0 = time.time()
    rng = random.Random(10_005)
    for _ in range(1000):
        sig = rand_structure_signature(rng)
        s = rand_full_structure(rng, sig, max_carrier=2)
        m = materialize_selected(s, cap=2)
        e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 3))
        p = tuple(sorted(fv(e)))
        assert evaluate(s, e, p) == evaluate(m, e, p)
    res = suite_eval_invariance(1000, 10_005)
    assert res.failures == 0, res.first_detail
    assert time.time() - t0 < budget


def test_criterion_6_term_model_pipeline():
    budget = 600.0
    t0 = time.time()
    sig, s, thy = toy_setup()
    oracle = ThOracle(s)
    ctx = TermModelContext(sig, oracle, size_bound=5)

    # norm properties, exhaustively within the bound
    for sort in sorted(sig.sorts):
        for e in ctx.closed(sort):
            n = norm(ctx, e)
            assert norm(ctx, n) == n
            if sort != PROP:
                assert oracle.decide(mk_eq(sig, n, e)) == "provable"

    tm = build_term_structure(ctx)
    assert check_closure(tm.structure, cap=1).ok

    # commutation of evaluation with substitution: every in-bound (e, xs)
    for sort in sorted(sig.sorts):
        for scope in ((), ("v0^a",)):
            for e in ctx.scoped(sort, scope):
                xs = tuple(x for x in scope if x in fv(e))
                assert check_cm_expr(tm, e, xs), print_expr(e)

    # provability = satisfaction on every in-bound closed formula
    for phi in ctx.closed(PROP):
        assert check_ded_sat(tm, phi), print_expr(phi)

    # seeded samples up to 40 nodes, past the exhaustive horizon
    rng = random.Random(10_006)
    sampled = 0
    while sampled < 300:
        sort = rng.choice(sorted(sig.sorts))
        e = rand_expr(sig, rng, sort, rng.randint(3, 7))
        if fv(e) or size(e) > 40:
            continue
        sampled += 1
        n = norm(ctx, e)
        assert norm(ctx, n) == n
        assert check_cm_expr(tm, e, ())
        if sort == PROP:
            assert check_ded_sat(tm, e)

    # the term structure is a model of the source theory
    assert satisfies_theory(tm.structure, thy)
    assert satisfies_theory(restrict_structure(tm.structure, sig), thy)
    assert time.time() - t0 < budget


def test_criterion_7_compactness_recheck():
    budget = 60.0
    t0 = time.time()
    rng = random.Random(10_007)
    for _ in range(300):
        sig = rand_structure_signature(rng)
        s = rand_full_structure(rng, sig)
        thy = rand_satisfied_theory(rng, s)
        p = rand_proof(rng, thy)
        assert check_proof(p)
        finite = used_axioms(p)
        assert set(finite) <= set(thy.axioms)
        q = reindex_axioms(p, finite)
        assert len(q.theory.axioms) == len(finite)
        assert check_proof(q)
        assert q.conclusion == p.conclusion
    assert time.time() - t0 < budget


def test_criterion_8_roundtrip_and_determinism(capsys):
    budget = 120.0
    t0 = time.time()

    # parse/print identity on 10,000 random expressions
    rng = random.Random(10_008)
    for _ in range(10_000):
        sig = rand_signature(rng)
        e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 5))
        text = print_expr(e)
        assert parse_expr(sig, text) == e
        assert print_expr(parse_expr(sig, text)) == text

    # norm idempotence on every in-bound closed expression of the toy theory
    sig, s, thy = toy_setup()
    ctx = TermModelContext(sig, ThOracle(s), size_bound=5)
    for sort in sorted(sig.sorts):
        for e in ctx.closed(sort):
            n = norm(ctx, e)
            assert norm(ctx, n) == n

    # identical reports across two runs with the same seed
    docs = []
    for _ in range(2):
        assert cli.main(["--json", "fuzz", "subst", "--n", "300", "--seed", "12"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("seconds")
        docs.append(doc)
    assert docs[0] == docs[1]

    assert time.time() - t0 < budget
