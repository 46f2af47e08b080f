"""Untrusted proof generators: ProofBuilder, symmetry, transitivity, the
equality theorem and rule, the deduction transformation and reindex_axioms.
Each returns an ordinary Proof that only check_proof vouches for; of the
commands, only ``fuzz soundness`` loads this module.
"""
from __future__ import annotations

from .signature import variable_sort, fresh_vars, sorted_vars
from .syntax import Expr, Theory, var, imp, forall, forall_chain, mk_eq, print_expr
from .subst import fv, gv, substitute, substitute1
from .calculus import (
    CalculusError, EqCongr, EqRefl, ForallElim, ForallImpDist, Gen, MP,
    NonlogicalAxiom, Premise, Proof, ProofLine, Taut, _split_imp, check_proof,
)


class SideConditionViolated(CalculusError):
    pass


class PremiseNotClosed(CalculusError):
    pass


class SourceProofInvalid(CalculusError):
    pass


def reindex_axioms(p: Proof, axioms: tuple[Expr, ...]) -> Proof:
    """The same proof stated over a theory with the given axiom list."""
    new_lines = []
    for line in p.lines:
        j = line.justification
        if isinstance(j, NonlogicalAxiom):
            j = NonlogicalAxiom(axioms.index(line.formula))
        new_lines.append(ProofLine(line.formula, j))
    return Proof(Theory(p.theory.signature, axioms), p.premises, tuple(new_lines))


class ProofBuilder:
    def __init__(self, theory: Theory, premises=()):
        self.theory = theory
        self.sig = theory.signature
        self.premises = tuple(premises)
        self.lines: list[ProofLine] = []
        self.avoid: set[str] = set()

    def add(self, formula: Expr, just) -> int:
        self.lines.append(ProofLine(formula, just))
        return len(self.lines) - 1

    def formula(self, idx: int) -> Expr:
        return self.lines[idx].formula

    def taut(self, formula: Expr) -> int:
        return self.add(formula, Taut())

    def mp(self, frm: int, impl: int) -> int:
        lhs, rhs = _split_imp(self.formula(impl))
        assert lhs == self.formula(frm)
        return self.add(rhs, MP(frm, impl))

    def gen(self, frm: int, x: str) -> int:
        return self.add(forall(self.sig, x, self.formula(frm)), Gen(frm, x))

    def detach(self, goal: Expr, *given: int) -> int:
        """From the lines given, p1 ... pn, conclude goal: the tautology
        p1 -> ... -> pn -> goal, then one detachment per line, in order."""
        chain = goal
        for idx in reversed(given):
            chain = imp(self.sig, self.formula(idx), chain)
        cur = self.taut(chain)
        for idx in given:
            cur = self.mp(idx, cur)
        return cur

    def syll(self, h_a: int, a_b: int) -> int:
        """From H->A and A->B conclude H->B."""
        (h, _), (_, b) = _split_imp(self.formula(h_a)), _split_imp(self.formula(a_b))
        return self.detach(imp(self.sig, h, b), h_a, a_b)

    def note_vars(self, *exprs):
        for e in exprs:
            self.avoid |= fv(e) | gv(e)

    def fresh(self, sorts) -> tuple[str, ...]:
        out = fresh_vars(sorts, self.avoid)
        self.avoid |= set(out)
        return out

    def dist_forall(self, idx: int, x: str) -> int:
        """From H -> chi (with x not free in H) conclude H -> forall x chi."""
        sig = self.sig
        h, chi = _split_imp(self.formula(idx))
        assert x not in fv(h)
        g = self.gen(idx, x)
        d = self.add(imp(sig, self.formula(g), imp(sig, h, forall(sig, x, chi))),
                     ForallImpDist(x))
        return self.mp(g, d)

    def proof(self) -> Proof:
        return Proof(self.theory, self.premises, tuple(self.lines))


def _congruence_line(b: ProofBuilder, x: Expr, y: Expr, z: Expr) -> int:
    """Line index of the congruence instance x=y -> (x=z <-> y=z), in the
    first slot of the equality symbol that mk_eq puts at x's sort."""
    sig = b.sig
    xz = mk_eq(sig, x, z)
    return b.add(imp(sig, mk_eq(sig, x, y), mk_eq(sig, xz, mk_eq(sig, y, z))),
                 EqCongr(xz.head, 0, (), (), (), x, y, (), (((), z),)))


def _trans_line(b: ProofBuilder, x: Expr, y: Expr, z: Expr) -> int:
    """Line index of x=y -> (y=z -> x=z), from the congruence line."""
    sig = b.sig
    congr = _congruence_line(b, x, y, z)
    xy, yz, xz = mk_eq(sig, x, y), mk_eq(sig, y, z), mk_eq(sig, x, z)
    return b.detach(imp(sig, xy, imp(sig, yz, xz)), congr)


def derive_symmetry(theory: Theory, a: Expr, b_: Expr) -> Proof:
    """Proof of a=b -> b=a, from the congruence line a=b -> (a=a <-> b=a)."""
    sig = theory.signature
    b = ProofBuilder(theory)
    aa, ab, ba = mk_eq(sig, a, a), mk_eq(sig, a, b_), mk_eq(sig, b_, a)
    step = b.detach(imp(sig, aa, imp(sig, ab, ba)), _congruence_line(b, a, b_, a))
    b.mp(b.add(aa, EqRefl()), step)
    return b.proof()


def derive_transitivity(theory: Theory, x: Expr, y: Expr, z: Expr) -> Proof:
    """Proof of x=y -> (y=z -> x=z)."""
    b = ProofBuilder(theory)
    _trans_line(b, x, y, z)
    return b.proof()


def _elim_chain(b: ProofBuilder, start: Expr, xs, instances) -> int:
    """From the universally quantified ``start`` = forall xs ... , produce the
    line start -> result of instantiating the outermost variables with the
    given expressions, one elimination per step."""
    sig = b.sig
    cur = b.taut(imp(sig, start, start))
    psi = start
    for x, a in zip(xs, instances):
        (binders, body), = psi.args
        assert binders == (x,)
        nxt = substitute1(sig, body, x, a)
        ax = b.add(imp(sig, psi, nxt), ForallElim(x, a))
        cur = b.syll(cur, ax)
        psi = nxt
    return cur


def _eq_theorem(b: ProofBuilder, e: Expr, z: str, r: Expr, s: Expr, ys) -> int:
    """Core induction: line index proving forall ys (r=s) -> e[z<-r]=e[z<-s]."""
    sig = b.sig
    ys = tuple(ys)
    h = forall_chain(sig, ys, mk_eq(sig, r, s))
    b.note_vars(e, r, s)
    b.avoid |= set(ys) | {z}
    idx = _eq_step(b, e, z, r, s, ys, h)
    assert b.formula(idx) == imp(sig, h,
                                 mk_eq(sig, substitute1(sig, e, z, r),
                                       substitute1(sig, e, z, s)))
    return idx


def _eq_step(b: ProofBuilder, e: Expr, z: str, r: Expr, s: Expr, ys: tuple,
             h: Expr) -> int:
    """Line index proving h -> e[z<-r]=e[z<-s], h being forall ys (r=s), by
    induction on e: one congruence step per argument slot that differs."""
    sig = b.sig
    er = substitute1(sig, e, z, r)
    es = substitute1(sig, e, z, s)
    if er == es:
        refl = mk_eq(sig, er, er)
        return b.detach(imp(sig, h, refl), b.add(refl, EqRefl()))
    if not e.args:
        # e is the variable z itself: peel the quantifiers off h
        assert e.head == z
        if not ys:
            return b.taut(imp(sig, h, h))
        return _elim_chain(b, h, ys, [var(sig, y) for y in ys])

    # slot-by-slot chain: rewrite the i-th argument from p_i to q_i
    cur = None
    f_start = er
    f_prev = er
    for i, (binders, a_i) in enumerate(e.args):
        p_i = er.args[i][1]
        q_i = es.args[i][1]
        if p_i == q_i:
            continue
        assert z not in binders
        rec = _eq_step(b, a_i, z, r, s, ys, h)  # h -> p_i = q_i
        chi = mk_eq(sig, p_i, q_i)
        assert b.formula(rec) == imp(sig, h, chi)
        a_idx = rec
        for x in reversed(binders):
            a_idx = b.dist_forall(a_idx, x)  # h -> forall binders chi
        phi_i = forall_chain(sig, binders, chi)

        f_new = Expr(e.head, es.args[:i + 1] + er.args[i + 1:], e.sort)
        step_eq = mk_eq(sig, f_prev, f_new)
        if binders:
            zs = b.fresh(tuple(variable_sort(sig, v) for v in binders))
            elim = _elim_chain(b, phi_i, binders, [var(sig, w) for w in zs])
            inner = mk_eq(sig,
                          substitute(sig, p_i, binders, [var(sig, w) for w in zs]),
                          substitute(sig, q_i, binders, [var(sig, w) for w in zs]))
            assert b.formula(elim) == imp(sig, phi_i, inner)
            for w in reversed(zs):
                elim = b.dist_forall(elim, w)
            ant = forall_chain(sig, zs, inner)
            congr = b.add(imp(sig, ant, step_eq),
                          EqCongr(e.head, i, binders, binders, zs, p_i, q_i,
                                  es.args[:i], er.args[i + 1:]))
            phi_to_step = b.syll(elim, congr)
        else:
            phi_to_step = b.add(imp(sig, chi, step_eq),
                                EqCongr(e.head, i, (), (), (), p_i, q_i,
                                        es.args[:i], er.args[i + 1:]))
        h_to_step = b.syll(a_idx, phi_to_step)  # h -> f_prev = f_new

        if cur is None:
            cur = h_to_step
        else:
            tr = _trans_line(b, f_start, f_prev, f_new)
            cur = b.detach(imp(sig, h, mk_eq(sig, f_start, f_new)), tr, cur, h_to_step)
        f_prev = f_new
    assert f_prev == es
    return cur


def derive_equality_theorem(theory: Theory, e: Expr, z: str, r: Expr, s: Expr,
                            ys) -> Proof:
    """Proof of forall ys (r=s) -> e[z<-r] = e[z<-s]; requires every bound
    variable of e that is free in r=s to appear in ys."""
    sig = theory.signature
    ys = tuple(ys)
    if not gv(e) & fv(mk_eq(sig, r, s)) <= set(ys):
        raise SideConditionViolated(
            "bound variables of e free in r=s must be covered by ys")
    b = ProofBuilder(theory)
    _eq_theorem(b, e, z, r, s, ys)
    return b.proof()


def derive_equality_rule(theory: Theory, e: Expr, z: str, r: Expr, s: Expr) -> Proof:
    """Proof with premise r=s of e[z<-r] = e[z<-s]."""
    sig = theory.signature
    rs = mk_eq(sig, r, s)
    ys = sorted_vars(gv(e) & fv(rs))
    b = ProofBuilder(theory, premises=(rs,))
    prem = b.add(rs, Premise(0))
    for y in reversed(ys):
        prem = b.gen(prem, y)
    thm = _eq_theorem(b, e, z, r, s, ys)
    b.mp(prem, thm)
    return b.proof()


def deduction_transform(p: Proof) -> Proof:
    """Shift the last (closed) premise into the conclusion: from a proof of
    psi under premises (..., phi) produce a proof of phi -> psi under the
    remaining premises."""
    if not p.premises:
        raise SourceProofInvalid("no premise to discharge")
    phi = p.premises[-1]
    if fv(phi):
        raise PremiseNotClosed(f"premise {print_expr(phi)} has free variables")
    res = check_proof(p)
    if not res:
        raise SourceProofInvalid(f"line {res.line}: {res.reason}")

    sig = p.theory.signature
    b = ProofBuilder(p.theory, premises=p.premises[:-1])
    last = len(p.premises) - 1
    mapping: dict[int, int] = {}

    for n, line in enumerate(p.lines):
        chi, just = line.formula, line.justification
        if isinstance(just, Gen):
            mapping[n] = b.dist_forall(mapping[just.frm], just.x)
            continue
        if isinstance(just, Premise) and just.index == last:
            given = ()  # chi is phi: phi -> phi is a tautology
        elif isinstance(just, MP):
            given = (mapping[just.frm], mapping[just.impl])
        else:
            given = (b.add(chi, just),)
        mapping[n] = b.detach(imp(sig, phi, chi), *given)
    return b.proof()
