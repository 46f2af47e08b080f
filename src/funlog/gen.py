"""Seeded random generation of signatures, expressions, substitution cases,
structures, theories, and proofs, plus the fuzz suites the CLI exposes.

The expression generator deliberately reuses binder names as free names (and
across nesting levels) so that the substitution laws are exercised on their
capture-protection paths, not just on well-separated instances.  Only the
code that builds and checks proofs imports calculus and derive, as it runs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .signature import (
    PROP, Signature, variable_name, variable_sort,
)
from .syntax import (
    Expr, Theory, mk, var, mk_eq, imp, disj, forall, exists, print_expr, parse_expr,
)
from .subst import fv, gv, substitute, substitute1, substitutable
from .semantics import (
    SemanticsError, Structure, make_full_structure, evaluate, satisfies,
    check_closure, materialize_selected,
)

if TYPE_CHECKING:
    from .calculus import Proof


VAR_POOL = 6


def rand_signature(rng: random.Random) -> Signature:
    sorts = [f"s{i}" for i in range(rng.randint(1, 3))]
    ops = {}
    for s in sorts:
        ops[f"k_{s}"] = s  # a constant per sort keeps generation total
    for i in range(rng.randint(1, 4)):
        result = rng.choice(sorts + [PROP])
        arity = rng.randint(0, 2)
        args = []
        for _ in range(arity):
            arg_sort = rng.choice(sorts + [PROP])
            r = rng.randint(0, 2) if rng.random() < 0.5 else 0
            binders = tuple(rng.choice(sorts) for _ in range(r))
            args.append("(" + ",".join(binders) + ")" + arg_sort if binders else arg_sort)
        ops[f"op{i}"] = "(" + ",".join(args) + ")" + result if args else result
    return Signature(sorts, sorts, ops)


def rand_var(sig: Signature, rng: random.Random, sort: str, scope=()) -> str:
    """A variable of the sort; 30% of the time one already in scope."""
    in_scope = [v for v in scope if variable_sort(sig, v) == sort]
    if in_scope and rng.random() < 0.3:
        return rng.choice(in_scope)
    return variable_name(sort, rng.randrange(VAR_POOL))


def rand_expr(sig: Signature, rng: random.Random, sort: str, depth: int,
              scope=()) -> Expr:
    """A well-sorted expression of the sort with free variables drawn from
    the standard pool; binder names collide with the scope on purpose."""
    scope = tuple(scope)
    leaves = []
    if sort in sig.var_sorts:
        leaves.append(("var", None))
    of_sort = sig.ops_by_result[sort]
    leaves.extend(("const", n) for n, sp in of_sort if sp.arity == 0)
    if depth <= 0 and leaves:
        kind, c = rng.choice(leaves)
        if kind == "var":
            return var(sig, rand_var(sig, rng, sort, scope))
        return mk(sig, c)
    ops = [(n, sp) for n, sp in of_sort if sp.arity > 0]
    if not ops or (leaves and rng.random() < 0.35):
        kind, c = rng.choice(leaves)
        if kind == "var":
            return var(sig, rand_var(sig, rng, sort, scope))
        return mk(sig, c)
    name, spec = rng.choice(ops)
    args = []
    for arg_sort, bsorts in spec.args:
        binders = []
        for bs in bsorts:
            while True:
                v = rand_var(sig, rng, bs, scope)
                if v not in binders:
                    binders.append(v)
                    break
        body = rand_expr(sig, rng, arg_sort, depth - 1, scope + tuple(binders))
        args.append((tuple(binders), body))
    return mk(sig, name, args)


# --- substitution-law cases -------------------------------------------------

@dataclass
class SubstCase:
    name: str
    ok: bool
    detail: str


def _pool(sig):
    return [variable_name(s, i) for s in sorted(sig.var_sorts) for i in range(VAR_POOL)]


def _rand_vec(sig, rng, k):
    """k variables, repetitions permitted."""
    pool = _pool(sig)
    return tuple(rng.choice(pool) for _ in range(k))


def _rand_terms_for(sig, rng, xs, closed=False, avoid_free=()):
    ds = []
    for x in xs:
        s = variable_sort(sig, x)
        for _ in range(50):
            d = rand_expr(sig, rng, s, rng.randint(0, 2))
            if closed and fv(d):
                continue
            if fv(d) & set(avoid_free):
                continue
            ds.append(d)
            break
        else:
            ds.append(mk(sig, f"k_{s}") if f"k_{s}" in sig.ops else var(sig, x))
    return tuple(ds)


def check_redundant_pairs(sig, rng) -> SubstCase:
    e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 6))
    ys = _rand_vec(sig, rng, rng.randint(0, 3))
    # u components: free in e only if also in ys
    allowed = [u for u in _pool(sig) if u in ys or u not in fv(e)]
    us = tuple(rng.choice(allowed) for _ in range(rng.randint(0, 3))) if allowed else ()
    rs = _rand_terms_for(sig, rng, us)
    ss = _rand_terms_for(sig, rng, ys)
    lhs = substitute(sig, e, us + ys, rs + ss)
    rhs = substitute(sig, e, ys, ss)
    return SubstCase("redundant-pairs", lhs == rhs, print_expr(e))


def check_split(sig, rng) -> SubstCase:
    e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 5))
    xs = _rand_vec(sig, rng, rng.randint(0, 2))
    ys = _rand_vec(sig, rng, rng.randint(0, 2))
    closed = rng.random() < 0.5
    rs = _rand_terms_for(sig, rng, xs, closed=closed,
                         avoid_free=set(ys) | gv(e))
    ss = _rand_terms_for(sig, rng, ys)
    lhs = substitute(sig, e, xs + ys, rs + ss)
    step = substitute(sig, e, xs + ys, rs + tuple(var(sig, y) for y in ys))
    rhs = substitute(sig, step, ys, ss)
    return SubstCase("split", lhs == rhs, print_expr(e))


def check_single_pair(sig, rng) -> SubstCase:
    e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 6))
    ys = _rand_vec(sig, rng, rng.randint(0, 3))
    x = rng.choice(list(ys) + _pool(sig)) if ys and rng.random() < 0.5 else rng.choice(_pool(sig))
    (r,) = _rand_terms_for(sig, rng, (x,))
    lhs = substitute(sig, e, (x,) + ys, (r,) + tuple(var(sig, y) for y in ys))
    rhs = e if x in ys else substitute1(sig, e, x, r)
    return SubstCase("single-pair", lhs == rhs, print_expr(e))


def check_identity_pairs(sig, rng) -> SubstCase:
    e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 6))
    xs = _rand_vec(sig, rng, rng.randint(0, 3))
    ys = tuple(y for y in _rand_vec(sig, rng, rng.randint(0, 3)) if y not in xs)
    rs = _rand_terms_for(sig, rng, xs)
    lhs = substitute(sig, e, xs + ys, rs + tuple(var(sig, y) for y in ys))
    rhs = substitute(sig, e, xs, rs)
    return SubstCase("identity-pairs", lhs == rhs, print_expr(e))


def check_closed_commute(sig, rng) -> SubstCase:
    e = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)), rng.randint(0, 6))
    xs = _rand_vec(sig, rng, rng.randint(0, 2))
    ys = tuple(y for y in _rand_vec(sig, rng, rng.randint(0, 2)) if y not in xs)
    cs = _rand_terms_for(sig, rng, xs, closed=True)
    ds = _rand_terms_for(sig, rng, ys, closed=True)
    both = substitute(sig, e, xs + ys, cs + ds)
    one = substitute(sig, substitute(sig, e, xs, cs), ys, ds)
    two = substitute(sig, substitute(sig, e, ys, ds), xs, cs)
    return SubstCase("closed-commute", both == one == two, print_expr(e))


SUBST_CHECKS = (check_redundant_pairs, check_split, check_single_pair,
                check_identity_pairs, check_closed_commute)


# --- structures, theories, proofs -------------------------------------------

def rand_structure_signature(rng: random.Random) -> Signature:
    """Signatures kept small enough for exhaustive finite semantics: binder
    arity at most 1, at most two user sorts."""
    sorts = [f"s{i}" for i in range(rng.randint(1, 2))]
    ops = {}
    for s in sorts:
        ops[f"k_{s}"] = s
    for i in range(rng.randint(1, 3)):
        result = rng.choice(sorts + [PROP])
        arity = rng.randint(1, 2)
        args = []
        for _ in range(arity):
            arg_sort = rng.choice(sorts + [PROP])
            if rng.random() < 0.4:
                args.append(f"({rng.choice(sorts)}){arg_sort}")
            else:
                args.append(arg_sort)
        ops[f"op{i}"] = "(" + ",".join(args) + ")" + result
    return Signature(sorts, sorts, ops)


def rand_full_structure(rng: random.Random, sig: Signature,
                        max_carrier=3) -> Structure:
    carriers = {s: tuple(str(i) for i in range(rng.randint(1, max_carrier)))
                for s in sorted(sig.sorts) if s != PROP}
    interp = {}
    for name, spec in sig.user_ops.items():
        if spec.arity == 0:
            interp[name] = rng.choice(carriers.get(spec.result, ("0", "1")))
        else:
            result_pool = carriers.get(spec.result, ("0", "1"))
            interp[name] = (lambda pool: (lambda *a: rng.choice(pool)))(result_pool)
    # materializing with rng-backed callables stays deterministic per seed
    s = make_full_structure(sig, carriers, interp)
    return s


def rand_satisfied_theory(rng: random.Random, s: Structure) -> Theory:
    """Up to three random formulas the structure satisfies, from 24 draws."""
    sig = s.signature
    axioms = []
    for _ in range(24):
        if len(axioms) >= 3:
            break
        phi = rand_expr(sig, rng, PROP, rng.randint(1, 3))
        try:
            if satisfies(s, phi):
                axioms.append(phi)
        except SemanticsError:
            continue
    return Theory(sig, tuple(axioms))


def rand_proof(rng: random.Random, theory: Theory, premises=()) -> Proof:
    """A random derivation mixing axiom instances, tautologies, detachments
    and generalizations."""
    from .calculus import (
        Premise, NonlogicalAxiom, EqRefl, ForallElim, ExistsIntro, is_tautology, TooManyAtoms,
    )
    from .derive import ProofBuilder
    sig = theory.signature
    b = ProofBuilder(theory, premises)
    pool = []

    def small_formula():
        return rand_expr(sig, rng, PROP, rng.randint(0, 2))

    for i, p in enumerate(premises):
        pool.append(b.add(p, Premise(i)))
    for _ in range(rng.randint(3, 10)):
        move = rng.randrange(7)
        try:
            if move == 0 and theory.axioms:
                i = rng.randrange(len(theory.axioms))
                pool.append(b.add(theory.axioms[i], NonlogicalAxiom(i)))
            elif move == 1:
                t = rand_expr(sig, rng, rng.choice(sorted(sig.sorts)),
                              rng.randint(0, 2))
                pool.append(b.add(mk_eq(sig, t, t), EqRefl()))
            elif move == 2:
                phi, psi = small_formula(), small_formula()
                f = imp(sig, phi, imp(sig, psi, phi))
                if is_tautology(f):
                    pool.append(b.taut(f))
            elif move == 3 and pool:
                src = rng.choice(pool)
                x = rng.choice(_pool(sig))
                pool.append(b.gen(src, x))
            elif move == 4 and pool:
                src = rng.choice(pool)
                phi = b.formula(src)
                psi = small_formula()
                f = imp(sig, phi, disj(sig, phi, psi))
                if is_tautology(f):
                    t = b.taut(f)
                    pool.append(b.mp(src, t))
            elif move == 5:
                x = rng.choice(_pool(sig))
                body = rand_expr(sig, rng, PROP, rng.randint(0, 2), scope=(x,))
                a = rand_expr(sig, rng, variable_sort(sig, x), rng.randint(0, 1))
                if substitutable(a, x, body):
                    f = imp(sig, forall(sig, x, body),
                            substitute1(sig, body, x, a))
                    pool.append(b.add(f, ForallElim(x, a)))
            elif move == 6:
                x = rng.choice(_pool(sig))
                body = rand_expr(sig, rng, PROP, rng.randint(0, 2), scope=(x,))
                a = rand_expr(sig, rng, variable_sort(sig, x), rng.randint(0, 1))
                if substitutable(a, x, body):
                    f = imp(sig, substitute1(sig, body, x, a),
                            exists(sig, x, body))
                    pool.append(b.add(f, ExistsIntro(x, a)))
        except TooManyAtoms:
            continue
    if not b.lines:
        b.taut(parse_expr(sig, "imp(top,top)"))
    return b.proof()


# --- fuzz suites ------------------------------------------------------------

@dataclass
class SuiteResult:
    cases: int
    failures: int
    first_detail: str = ""


def _tally(n: int, details) -> SuiteResult:
    """The result of n cases, given each case's failure detail in order, or
    "" for a case that passed."""
    failed = [d for d in details if d]
    return SuiteResult(n, len(failed), failed[0] if failed else "")


def suite_subst(n: int, seed: int) -> SuiteResult:
    """n cases, split over the five laws: law i runs n // 5 cases, plus one
    if i < n % 5."""
    rng = random.Random(seed)
    per, extra = divmod(n, len(SUBST_CHECKS))
    laws = [check for i, check in enumerate(SUBST_CHECKS) for _ in range(per + (i < extra))]
    cases = (check(rand_signature(rng), rng) for check in laws)
    return _tally(n, ("" if case.ok else f"{case.name}: {case.detail}" for case in cases))


def suite_soundness(n: int, seed: int) -> SuiteResult:
    from .calculus import check_proof
    rng = random.Random(seed)
    details = []
    for _ in range(n):
        sig = rand_structure_signature(rng)
        s = rand_full_structure(rng, sig)
        p = rand_proof(rng, rand_satisfied_theory(rng, s))
        res = check_proof(p)
        if not res:
            details.append(f"generated proof rejected: {res.reason}")
            continue
        bad = next((line.formula for line in p.lines if not satisfies(s, line.formula)), None)
        details.append("" if bad is None else f"unsound line: {print_expr(bad)}")
    return _tally(n, details)


def suite_closure(n: int, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    details = []
    for i in range(n):
        sig = rand_structure_signature(rng)
        s = rand_full_structure(rng, sig, max_carrier=2)
        rep = check_closure(s, cap=2)
        if rep.ok and i % 3 == 0:
            rep = check_closure(materialize_selected(s, cap=2), cap=2)
        details.append("" if rep.ok else rep.violations[0])
    return _tally(n, details)


def suite_eval_invariance(n: int, seed: int) -> SuiteResult:
    """n cases: an expression's table under its sorted free variables and
    under those widened by one or two unused variables must agree.  Within
    the widened evaluation the memo answers every row that differs from an
    earlier one only in the unused variables, so those rows are read back,
    not computed."""
    rng = random.Random(seed)
    details = []
    for _ in range(n):
        sig = rand_structure_signature(rng)
        s = rand_full_structure(rng, sig, max_carrier=2)
        sort = rng.choice(sorted(sig.sorts))
        e = rand_expr(sig, rng, sort, rng.randint(0, 3))
        base = tuple(sorted(fv(e)))
        # appending a repeat of a base variable would shadow it (rightmost
        # occurrence wins), so extend by genuinely new variables only
        extras = [u for u in _pool(sig) if u not in base]
        ext = base + tuple(rng.choice(extras) for _ in range(rng.randint(1, 2)))
        try:
            v1 = evaluate(s, e, base)
            # on a copy, whose memo is empty: on s, v2 would read back v1's
            # values, stored under the same free variables' values
            v2 = evaluate(Structure(s.signature, s.carriers, s.interp, s.selected), e, ext)
        except Exception as exc:
            details.append(f"evaluation error: {exc}")
            continue
        ok = all(out == (v1.apply(args[:len(base)]) if base else v1) for args, out in v2.rows)
        details.append("" if ok else f"perspective extension changed {print_expr(e)}")
    return _tally(n, details)


SUITES = {
    "subst": suite_subst,
    "soundness": suite_soundness,
    "closure": suite_closure,
    "eval-invariance": suite_eval_invariance,
}
