"""Desk-scale Henkin machinery: special constants, bounded saturation, the
norm of closed expressions over a provability oracle, and the term structure.

The unbounded enumeration of the classical construction is replaced by a
deterministic total order on closed expressions — node count first, then the
canonical print string — cut off at a size bound.  Oracles used in practice
are complete theories of finite structures in which every carrier element is
named by a constant; against such an oracle the whole pipeline is executable
and the term structure can be compared against the source structure.

A theory is syntax (funlog.syntax.Theory), so this module never loads
funlog.calculus.  The term-model side does not load hashlib (OpenSSL) either:
the functions that name witness constants import it as they run.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .signature import (
    PROP, FunlogError, Signature, OpSig, fresh_vars, variable_sort,
)
from .syntax import (
    Expr, Theory, mk, var, top, bot, neg, imp, exists, print_expr, size,
)
from .subst import fv, substitute, substitute1
from .semantics import Structure, FnTable, carrier_product, evaluate, satisfies, tabulate


class HenkinError(FunlogError):
    pass


class NotSingleFree(HenkinError):
    pass


class NoRepresentativeInBound(HenkinError):
    pass


class OracleInconsistent(HenkinError):
    pass


class OracleUndecided(HenkinError):
    pass


# --- oracles ----------------------------------------------------------------

# An oracle has decide(formula) -> "provable", "refutable" or "undecided",
# and classify(closed expression) -> a key that two expressions of one sort
# share iff their equality is provable.

class ThOracle:
    """The complete theory of a finite structure: a formula is provable iff
    the structure satisfies it.  Consistent and complete by construction."""

    def __init__(self, structure: Structure):
        self.structure = structure

    def decide(self, phi: Expr) -> str:
        return "provable" if satisfies(self.structure, phi) else "refutable"

    def classify(self, e: Expr) -> str:
        """The value of a closed expression.  Equal values are exactly the
        provable equalities, because ``eq_<sort>`` is interpreted as identity."""
        return evaluate(self.structure, e, ())


def provable(oracle, phi: Expr) -> bool:
    """The oracle's verdict on phi: whether it is "provable"; "undecided"
    raises OracleUndecided."""
    verdict = oracle.decide(phi)
    if verdict == "undecided":
        raise OracleUndecided(f"oracle undecided on {print_expr(phi)}")
    return verdict == "provable"


def is_consistent_up_to(theory: Theory, oracle) -> bool:
    return not provable(oracle, bot(theory.signature))


# --- special constants and saturation ---------------------------------------

def _witness_op(sig: Signature, phi: Expr, x: str, sha256) -> tuple[str, OpSig]:
    """Name and ustype of the witness constant of (phi, x); sha256 is
    hashlib's, which the caller imports once for all its formulas."""
    xsort = variable_sort(sig, x)
    if xsort is None:
        raise NotSingleFree(f"{x!r} is not a variable")
    if not fv(phi) <= {x}:
        raise NotSingleFree(f"free variables {sorted(fv(phi) - {x})} besides {x!r}")
    digest = sha256(f"{print_expr(phi)}|{x}".encode()).hexdigest()[:12]
    return f"c_{digest}", OpSig(xsort)


def _witness_axiom(sig: Signature, phi: Expr, x: str, name: str) -> Expr:
    """exists x phi -> phi[x <- c] for the constant c named name in sig."""
    return imp(sig, exists(sig, x, phi), substitute1(sig, phi, x, mk(sig, name)))


def special_constant(sig: Signature, phi: Expr, x: str) -> tuple[Signature, str, Expr]:
    """Extend sig by the witness constant of (phi, x) and return it together
    with the axiom  exists x phi -> phi[x <- c]."""
    from hashlib import sha256
    name, spec = _witness_op(sig, phi, x, sha256)
    new_sig = sig.extended({name: spec})
    return new_sig, name, _witness_axiom(new_sig, phi, x, name)


@dataclass(frozen=True)
class HenkinExtension:
    """The extended theory and its witness constants, (name, phi, x), level
    by level: level i added level_sizes[i] of them, and its formulas phi
    name only constants of earlier levels."""
    theory: Theory
    constants: tuple[tuple[str, Expr, str], ...]
    level_sizes: tuple[int, ...]


def henkin_extend(theory: Theory, levels: int, size_bound: int) -> HenkinExtension:
    """Iterate the special-constant construction: per level, walk every
    formula with at most one free (canonical) variable within the size bound
    and add its witness constant and axiom."""
    from hashlib import sha256
    sig = theory.signature
    axioms = list(theory.axioms)
    constants: list[tuple[str, Expr, str]] = []
    level_sizes = []
    known: set[tuple[Expr, str]] = set()
    for _ in range(levels):
        batch = []
        for srt in sorted(sig.var_sorts):
            x = fresh_vars((srt,), ())[0]
            for phi in enumerate_exprs(sig, PROP, (x,), size_bound):
                if (phi, x) not in known:
                    known.add((phi, x))
                    batch.append((phi, x))
        ops = [_witness_op(sig, phi, x, sha256) for phi, x in batch]
        sig = sig.extended(dict(ops))
        for (phi, x), (name, _) in zip(batch, ops):
            constants.append((name, phi, x))
            axioms.append(_witness_axiom(sig, phi, x, name))
        level_sizes.append(len(batch))
    return HenkinExtension(Theory(sig, tuple(axioms)), tuple(constants), tuple(level_sizes))


def saturate_bounded(theory: Theory, candidates, oracle) -> Theory:
    """Bounded stand-in for the maximal-consistent-extension construction:
    walk the candidate list, adjoining each formula or its negation according
    to the oracle's verdict."""
    axioms = list(theory.axioms)
    present = set(axioms)
    for phi in candidates:
        chosen = phi if provable(oracle, phi) else neg(theory.signature, phi)
        if chosen not in present:
            present.add(chosen)
            axioms.append(chosen)
    return Theory(theory.signature, tuple(axioms))


def extend_structure_for_henkin(s: Structure, ext: HenkinExtension) -> Structure:
    """Interpret the special constants over the source structure: each one
    names the first carrier element witnessing its formula, or the first
    carrier element if there is none.  A level's formulas name only
    constants of earlier levels, so all of them are evaluated in one
    structure that interprets those; the next level's structure is built
    with the level's constants added."""
    sig, constants = ext.theory.signature, iter(ext.constants)
    cur = Structure(sig, s.carriers, s.interp, s.selected)
    for n in ext.level_sizes:
        interp = dict(cur.interp)
        for name, phi, x in itertools.islice(constants, n):
            carrier = cur.carriers[variable_sort(sig, x)]
            tbl = evaluate(cur, phi, (x,))
            interp[name] = next(
                (w for w in carrier if tbl.apply((w,)) == cur.true_atom), carrier[0])
        cur = Structure(sig, cur.carriers, interp, cur.selected)
    return cur


# --- bounded expression enumeration -----------------------------------------

def _compositions(total: int, parts: int):
    """All ways of writing total as an ordered sum of ``parts`` positives, in
    lexicographic order: one per choice of parts - 1 cut points."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def enumerate_exprs(sig: Signature, sort: str, scope, max_size: int,
                    _memo=None) -> list[Expr]:
    """All expressions of the sort whose free variables lie in ``scope``, of
    node count <= max_size, in size-then-print order.  Binder lists use the
    first variables of the required sorts not present in the enclosing scope,
    so each renaming class contributes one representative."""
    scope = tuple(scope)
    memo = _memo if _memo is not None else {}
    result = []
    for n in range(1, max_size + 1):
        result.extend(sorted(_exact(sig, memo, sort, scope, n), key=print_expr))
    return result


def _exact(sig: Signature, memo: dict, sort: str, scope: tuple, n: int) -> list[Expr]:
    """The expressions of enumerate_exprs with exactly n nodes, memoized
    in memo by (sort, scope as a set, n)."""
    key = (sort, frozenset(scope), n)
    if key in memo:
        return memo[key]
    out = []
    if n == 1:
        for v in scope:
            if variable_sort(sig, v) == sort:
                out.append(var(sig, v))
        for name, spec in sig.ops_by_result[sort]:
            if spec.arity == 0:
                out.append(mk(sig, name))
    else:
        for name, spec in sig.ops_by_result[sort]:
            if not 0 < spec.arity < n:
                continue
            slot_scopes = []
            slot_binders = []
            for arg_sort, bsorts in spec.args:
                binders = fresh_vars(bsorts, scope)
                slot_binders.append(binders)
                slot_scopes.append(scope + binders)
            for sizes in _compositions(n - 1, spec.arity):
                pools = [_exact(sig, memo, a_sort, slot_scopes[i], sizes[i])
                         for i, (a_sort, _) in enumerate(spec.args)]
                for bodies in itertools.product(*pools):
                    out.append(mk(sig, name,
                                  tuple((slot_binders[i], b)
                                        for i, b in enumerate(bodies))))
    memo[key] = out
    return out


# --- the term-model context and norm ----------------------------------------

@dataclass
class TermModelContext:
    signature: Signature
    oracle: object
    size_bound: int  # node-count cutoff of every enumeration
    norm_cache: dict = field(default_factory=dict, init=False)
    _enum_memo: dict = field(default_factory=dict, init=False)
    _closed: dict = field(default_factory=dict, init=False)
    _least_of_class: dict = field(default_factory=dict, init=False)

    def closed(self, sort: str) -> list[Expr]:
        if sort not in self._closed:
            self._closed[sort] = enumerate_exprs(
                self.signature, sort, (), self.size_bound, self._enum_memo)
        return self._closed[sort]

    def least_of_class(self, sort: str) -> dict:
        """Oracle class key -> index in closed(sort) of the class's least
        member."""
        if sort not in self._least_of_class:
            least = {}
            for i, a in enumerate(self.closed(sort)):
                least.setdefault(self.oracle.classify(a), i)
            self._least_of_class[sort] = least
        return self._least_of_class[sort]

    def scoped(self, sort: str, scope) -> list[Expr]:
        return enumerate_exprs(self.signature, sort, scope, self.size_bound,
                               self._enum_memo)


def order_key(e: Expr):
    return (size(e), print_expr(e))


def norm(ctx: TermModelContext, e: Expr) -> Expr:
    """The canonical representative of e's provable-equality class: truth
    value for formulas, otherwise the order-least provably equal closed
    expression within the bound.

    The oracle's ``classify(closed_expr) -> key`` gives two closed
    expressions of one sort equal keys iff their equality is provable, so
    the least candidate of e's class is one dict lookup away; only a
    candidate ordered before e can beat e itself."""
    if fv(e):
        raise HenkinError(f"norm of open expression {print_expr(e)}")
    if e in ctx.norm_cache:
        return ctx.norm_cache[e]
    sig = ctx.signature

    if e.sort == PROP:
        result = top(sig) if provable(ctx.oracle, e) else bot(sig)
        ctx.norm_cache[e] = result
        return result

    candidates = ctx.closed(e.sort)
    i = ctx.least_of_class(e.sort).get(ctx.oracle.classify(e))
    if i is not None and order_key(candidates[i]) < order_key(e):
        result = candidates[i]
    elif size(e) > ctx.size_bound:
        raise NoRepresentativeInBound(
            f"no provably equal expression of size <= {ctx.size_bound} for {print_expr(e)}")
    else:
        result = e
    ctx.norm_cache[e] = result
    return result


# --- term structure ---------------------------------------------------------

@dataclass
class TermModel:
    ctx: TermModelContext
    structure: Structure
    atom_expr: dict[str, dict[str, Expr]]  # sort -> carrier atom -> norm Expr


def _subst_table(ctx: TermModelContext, keys, atom_expr, e: Expr,
                 u: tuple[str, ...], dom_sorts) -> FnTable:
    """The substitution map of (u, e) over keys, the carrier product of
    dom_sorts: carrier tuple -> norm of e[u <- .]."""
    sig = ctx.signature

    def row(cvec):
        inst = substitute(sig, e, u, [atom_expr[s][c] for s, c in zip(dom_sorts, cvec)])
        return print_expr(norm(ctx, inst))
    return tabulate(keys, dom_sorts, e.sort, row)


def build_term_structure(ctx: TermModelContext) -> TermModel:
    """Materialize the term structure: carriers are norms of closed
    expressions, selected sets are substitution maps, operations act by
    build-then-norm on witness expressions."""
    sig = ctx.signature

    carriers: dict[str, tuple[str, ...]] = {}
    atom_expr: dict[str, dict[str, Expr]] = {}
    for sort in sig.sorts:
        if sort == PROP:
            ordered = [bot(sig), top(sig)]
        else:
            ordered = sorted({norm(ctx, e) for e in ctx.closed(sort)}, key=order_key)
        if not ordered:
            raise NoRepresentativeInBound(
                f"no closed expression of sort {sort!r} within the bound")
        carriers[sort] = tuple(print_expr(n) for n in ordered)
        atom_expr[sort] = {print_expr(n): n for n in ordered}

    # selected sets: substitution maps over canonical perspectives, each
    # kept with its witness expression, which the user operations combine
    sigmas = dict.fromkeys([(a,) for a in sorted(sig.var_sorts)] + [
        bsorts for spec in sig.user_ops.values() for _, bsorts in spec.args if bsorts])
    binders = {sigma: fresh_vars(sigma, ()) for sigma in sigmas}
    witnesses: dict[tuple[str, tuple[str, ...]], list[tuple[FnTable, Expr]]] = {}
    for sigma, u in binders.items():
        keys = carrier_product(carriers, sigma)
        for gamma in sig.sorts:
            witnesses[gamma, sigma] = [(_subst_table(ctx, keys, atom_expr, e, u, sigma), e)
                                       for e in ctx.scoped(gamma, u)]

    # user operations: every combination of witnesses, normed; conflicting
    # values for one argument tuple would refute the oracle's consistency
    interp = {}
    for name, spec in sig.user_ops.items():
        if spec.arity == 0:
            interp[name] = print_expr(norm(ctx, mk(sig, name)))
            continue
        slots = [(binders[bsorts], witnesses[arg_sort, bsorts]) if bsorts else
                 ((), [(c, atom_expr[arg_sort][c]) for c in carriers[arg_sort]])
                 for arg_sort, bsorts in spec.args]
        table: dict[tuple, str] = {}
        for combo in itertools.product(*(wits for _, wits in slots)):
            keys = tuple(k for k, _ in combo)
            expr = mk(sig, name, tuple((u, w) for (u, _), (_, w) in zip(slots, combo)))
            value = print_expr(norm(ctx, expr))
            if table.setdefault(keys, value) != value:
                raise OracleInconsistent(
                    f"operation {name!r} not functional on norms at {keys}")
        interp[name] = table
    selected = {key: frozenset(t for t, _ in wits) for key, wits in witnesses.items()}
    return TermModel(ctx, Structure(sig, carriers, interp, selected), atom_expr)


# --- verdicts ---------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""

    def __bool__(self):
        return self.ok


def check_cm_expr(tm: TermModel, e: Expr, xs) -> Verdict:
    """Evaluation in the term structure agrees with substitute-then-norm."""
    ctx = tm.ctx
    xs = tuple(xs)
    val = evaluate(tm.structure, e, xs)
    if not xs:
        want = print_expr(norm(ctx, e))
        got = val if isinstance(val, str) else None
        if got != want:
            return Verdict(False, f"{print_expr(e)}: evaluated {got!r}, norm {want!r}")
        return Verdict(True)
    want = _subst_table(ctx, val.keys, tm.atom_expr, e, xs, val.domain_sorts)
    for cvec, got, normed in zip(val.keys, val.values, want.values):
        if got != normed:
            return Verdict(False,
                           f"{print_expr(e)} at {cvec}: evaluated {got!r}, norm {normed!r}")
    return Verdict(True)


def check_ded_sat(tm: TermModel, phi: Expr) -> Verdict:
    """Provability by the oracle coincides with truth in the term structure."""
    proved = provable(tm.ctx.oracle, phi)
    sat = satisfies(tm.structure, phi)
    if proved != sat:
        verdict = "provable" if proved else "refutable"
        return Verdict(False,
                       f"{print_expr(phi)}: oracle {verdict}, satisfied {sat}")
    return Verdict(True)


def audit_term_model(tm: TermModel) -> tuple[int, int, int, str]:
    """check_cm_expr on every expression in bound over the closed scope and
    over one fresh variable of each variable sort, then check_ded_sat on
    every closed formula in bound: the numbers of cm_expr cases, ded=sat
    cases and failures, and the first failure's detail."""
    ctx, sig = tm.ctx, tm.ctx.signature
    scopes = [()] + [fresh_vars((vs,), ()) for vs in sorted(sig.var_sorts)]
    cm, ded, failed = 0, 0, []
    for sort in sorted(sig.sorts):
        for scope in scopes:
            for e in ctx.scoped(sort, scope):
                cm += 1
                if not (v := check_cm_expr(tm, e, tuple(x for x in scope if x in fv(e)))):
                    failed.append(f"cm_expr: {v.detail}")
    for phi in ctx.closed(PROP):
        ded += 1
        if not (v := check_ded_sat(tm, phi)):
            failed.append(f"ded=sat: {v.detail}")
    return cm, ded, len(failed), failed[0] if failed else ""
