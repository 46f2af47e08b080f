"""Hypothesis-driven properties: the strategies feed seeds into the package's
own deterministic generators, so every failure is replayable from one integer.
"""
import random

from hypothesis import given, settings, strategies as st

from funlog.syntax import parse_expr, print_expr
from funlog.subst import fv, substitute, substitutable, substitute1
from funlog.calculus import check_proof, used_axioms, reindex_axioms
from funlog.semantics import satisfies
from funlog.gen import (
    rand_signature, rand_expr, rand_proof, rand_structure_signature,
    rand_full_structure, SUBST_CHECKS, _pool, _rand_terms_for,
)

seeds = st.integers(min_value=0, max_value=2**48)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_print_parse_identity(seed):
    rng = random.Random(seed)
    sig = rand_signature(rng)
    e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 6))
    assert parse_expr(sig, print_expr(e)) == e


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_substitution_preserves_sort_and_wellformedness(seed):
    from funlog.syntax import check_expr
    rng = random.Random(seed)
    sig = rand_signature(rng)
    e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 5))
    xs = tuple(rng.choice(_pool(sig)) for _ in range(rng.randint(0, 3)))
    ds = _rand_terms_for(sig, rng, xs)
    out = substitute(sig, e, xs, ds)
    assert out.sort == e.sort
    check_expr(sig, out)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_free_variables_after_substitution(seed):
    # fv(e[x <- d]) ⊆ (fv(e) - {x}) ∪ fv(d) when the substitution fits
    rng = random.Random(seed)
    sig = rand_signature(rng)
    e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 5))
    x = rng.choice(_pool(sig))
    (d,) = _rand_terms_for(sig, rng, (x,))
    if not substitutable(d, x, e):
        return
    out = substitute1(sig, e, x, d)
    assert fv(out) <= (fv(e) - {x}) | fv(d)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_substitution_laws(seed):
    rng = random.Random(seed)
    sig = rand_signature(rng)
    for check in SUBST_CHECKS:
        case = check(sig, rng)
        assert case.ok, f"{case.name}: {case.detail}"


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_generated_proofs_check_and_shrink_to_used_axioms(seed):
    rng = random.Random(seed)
    sig = rand_structure_signature(rng)
    s = rand_full_structure(rng, sig, max_carrier=2)
    from funlog.gen import rand_satisfied_theory
    thy = rand_satisfied_theory(rng, s)
    p = rand_proof(rng, thy)
    assert check_proof(p)
    q = reindex_axioms(p, used_axioms(p))
    assert check_proof(q)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_soundness_of_checked_lines(seed):
    rng = random.Random(seed)
    sig = rand_structure_signature(rng)
    s = rand_full_structure(rng, sig, max_carrier=2)
    from funlog.gen import rand_satisfied_theory
    thy = rand_satisfied_theory(rng, s)
    p = rand_proof(rng, thy)
    assert check_proof(p)
    for line in p.lines:
        assert satisfies(s, line.formula), print_expr(line.formula)
