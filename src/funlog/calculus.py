"""The Hilbert-style calculus: axiom schemes, proof objects, checker, and
derived-proof generators.

Axiom schemes: propositional tautologies, the four quantifier axioms,
reflexivity of equality, and the congruence scheme for every operation, which
quantifies the argument-wise equality over fresh variables substituted into
both binder lists.  Tautologies are recognized semantically by truth table
over the maximal non-connective subformulas (quantified formulas and
equalities are opaque atoms; at most 20 atoms): all 2**n rows are checked at
once, each atom's column an int bitstring and each connective (its truth
function in CONNECTIVES) one big-int operation.  Rules: detachment and
generalization.
Equality at the formula sort is the biconditional throughout.

The generators return ordinary Proof values; nothing they produce is trusted,
everything goes back through check_proof in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter

from .signature import (
    PROP, CONNECTIVES, IFF, IMP, FunlogError, Signature, SignatureError, forall_op,
    exists_op, eq_op, variable_sort, fresh_vars, sorted_vars,
)
from .syntax import (
    Expr, ExprError, Theory, mk, nodes, var, imp, forall, forall_chain, mk_eq, print_expr,
)
from .subst import SortClash, fv, gv, substitutable, substitute, substitute1


class CalculusError(FunlogError):
    pass


class TooManyAtoms(CalculusError):
    pass


class SideConditionViolated(CalculusError):
    pass


class PremiseNotClosed(CalculusError):
    pass


class SourceProofInvalid(CalculusError):
    pass


# --- justifications ---------------------------------------------------------

@dataclass(frozen=True)
class Taut:
    pass


@dataclass(frozen=True)
class ForallElim:
    x: str
    a: Expr


@dataclass(frozen=True)
class ExistsIntro:
    x: str
    a: Expr


@dataclass(frozen=True)
class ForallImpDist:
    x: str


@dataclass(frozen=True)
class ExistsImpDist:
    x: str


@dataclass(frozen=True)
class EqRefl:
    pass


@dataclass(frozen=True)
class EqCongr:
    """Congruence instance: op's slot ``i`` rewritten from binder list xs/body
    b1 to ys/b2, surrounded by the literal argument contexts before/after; the
    antecedent quantifies over zs substituted into both bodies."""
    op: str
    i: int
    xs: tuple[str, ...]
    ys: tuple[str, ...]
    zs: tuple[str, ...]
    b1: Expr
    b2: Expr
    before: tuple[tuple[tuple[str, ...], Expr], ...]
    after: tuple[tuple[tuple[str, ...], Expr], ...]


@dataclass(frozen=True)
class NonlogicalAxiom:
    index: int


@dataclass(frozen=True)
class Premise:
    index: int


@dataclass(frozen=True)
class MP:
    frm: int
    impl: int


@dataclass(frozen=True)
class Gen:
    frm: int
    x: str


@dataclass(frozen=True)
class ProofLine:
    formula: Expr
    justification: object


@dataclass(frozen=True)
class Proof:
    theory: Theory
    premises: tuple[Expr, ...]
    lines: tuple[ProofLine, ...]

    @property
    def conclusion(self) -> Expr:
        return self.lines[-1].formula


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    line: int | None = None
    reason: str | None = None

    def __bool__(self):
        return self.ok


# --- tautology recognition --------------------------------------------------

def _atom_mask(i: int, rows: int) -> int:
    """Truth table of atom i over ``rows`` rows as a bitstring: bit j is bit
    i of j.  Built from one block of 2**i zeros then 2**i ones, doubled by
    shifts (no big-int division)."""
    half = 1 << i
    m = ((1 << half) - 1) << half
    width = half << 1
    while width < rows:
        m |= m << width
        width <<= 1
    return m


MAX_ATOMS = 20  # the most atoms is_tautology decides; 2**20 rows at once


def is_tautology(phi: Expr) -> bool:
    """Truth-table check over the maximal non-connective subformulas, all
    2**n rows at once: each atom's column is an int bitstring and each
    connective's truth function one big-int operation (Knuth, TAOCP 4A §7.1.1-7.1.3),
    once per distinct node of the connective skeleton."""
    if phi.sort != PROP:
        return False
    skeleton = nodes(phi, lambda node, _: node.head in CONNECTIVES)
    atoms = [node for node in skeleton if node.head not in CONNECTIVES]
    n = len(atoms)
    if n > MAX_ATOMS:
        raise TooManyAtoms(f"{n} atoms exceed the {MAX_ATOMS}-atom bound")
    rows = 1 << n
    full = (1 << rows) - 1
    mask = {atom: _atom_mask(i, rows) for i, atom in enumerate(atoms)}
    skeleton.sort(key=attrgetter("depth"))  # bodies first
    for node in skeleton:
        if node not in mask:  # a connective
            _, truth = CONNECTIVES[node.head]
            mask[node] = truth(full, *[mask[body] for _, body in node.args])
    return mask[phi] == full


# --- scheme recognition -----------------------------------------------------

def _split_imp(phi: Expr):
    if phi.head == IMP:
        return phi.args[0][1], phi.args[1][1]
    return None


def _quantified_body(sig: Signature, phi: Expr, quant, x: str):
    """The body of phi if phi is ``quant`` over the variable x, else None;
    quant is forall_op or exists_op."""
    sort = variable_sort(sig, x)
    if sort is None or phi.head != quant(sort):
        return None
    (binders, body), = phi.args
    return body if binders == (x,) else None


def _taut(sig: Signature, just: Taut, phi: Expr) -> bool:
    return is_tautology(phi)


def _instantiation(sig: Signature, just, phi: Expr, quant, side: int) -> bool:
    """ForallElim (side 0): forall x B -> B[x<-a].  ExistsIntro (side 1):
    B[x<-a] -> exists x B.  side is the index of the quantified formula;
    a must be substitutable for x in B (an a of another sort than x makes
    substitute1 raise SortClash: a rejection)."""
    split = _split_imp(phi)
    if split is None:
        return False
    body = _quantified_body(sig, split[side], quant, just.x)
    return (body is not None and substitutable(just.a, just.x, body)
            and split[1 - side] == substitute1(sig, body, just.x, just.a))


def _distribution(sig: Signature, just, phi: Expr, quant, side: int) -> bool:
    """ForallImpDist (side 0): forall x (psi -> chi) -> (psi -> forall x chi).
    ExistsImpDist (side 1): forall x (chi -> psi) -> (exists x chi -> psi).
    side is the index of psi in both implications; x must not be free in psi."""
    split = _split_imp(phi)
    if split is None:
        return False
    body = _quantified_body(sig, split[0], forall_op, just.x)
    inner = None if body is None else _split_imp(body)
    outer = _split_imp(split[1])
    if inner is None or outer is None:
        return False
    psi, chi = inner[side], inner[1 - side]
    return (just.x not in fv(psi) and outer[side] == psi
            and _quantified_body(sig, outer[1 - side], quant, just.x) == chi)


def _reflexivity(sig: Signature, just: EqRefl, phi: Expr) -> bool:
    """a = a, the biconditional being equality at the formula sort."""
    if len(phi.args) != 2:
        return False
    lhs, rhs = phi.args[0][1], phi.args[1][1]
    return phi.head in (IFF, eq_op(lhs.sort)) and lhs == rhs


def _congruence(sig: Signature, just: EqCongr, phi: Expr) -> bool:
    spec = sig.ops.get(just.op)
    if spec is None or not (0 <= just.i < spec.arity):
        return False
    if len(set(just.zs)) != len(just.zs):
        return False
    if set(just.zs) & (fv(just.b1) | fv(just.b2)):
        return False
    bsorts = spec.args[just.i][1]
    for seq in (just.xs, just.ys, just.zs):
        if tuple(variable_sort(sig, v) for v in seq) != bsorts:
            return False
    lhs = mk(sig, just.op, just.before + ((just.xs, just.b1),) + just.after)
    rhs = mk(sig, just.op, just.before + ((just.ys, just.b2),) + just.after)
    inner = mk_eq(sig,
                  substitute(sig, just.b1, just.xs, [var(sig, z) for z in just.zs]),
                  substitute(sig, just.b2, just.ys, [var(sig, z) for z in just.zs]))
    want = imp(sig, forall_chain(sig, just.zs, inner), mk_eq(sig, lhs, rhs))
    return phi == want


# justification type -> recognizer(sig, just, phi) of its axiom scheme
_SCHEMES = {
    Taut: _taut,
    ForallElim: partial(_instantiation, quant=forall_op, side=0),
    ExistsIntro: partial(_instantiation, quant=exists_op, side=1),
    ForallImpDist: partial(_distribution, quant=forall_op, side=0),
    ExistsImpDist: partial(_distribution, quant=exists_op, side=1),
    EqRefl: _reflexivity,
    EqCongr: _congruence,
}


def check_axiom_instance(sig: Signature, just, phi: Expr) -> bool:
    recognize = _SCHEMES.get(type(just))
    if recognize is None or phi.sort != PROP:
        return False
    try:
        return recognize(sig, just, phi)
    except (ExprError, SignatureError, SortClash):
        return False


def check_proof(p: Proof) -> CheckResult:
    sig = p.theory.signature
    for n, line in enumerate(p.lines):
        phi, just = line.formula, line.justification
        if phi.sort != PROP:
            return CheckResult(False, n, "line formula is not of the formula sort")
        if isinstance(just, NonlogicalAxiom):
            if not (0 <= just.index < len(p.theory.axioms)):
                return CheckResult(False, n, "nonlogical axiom index out of range")
            if p.theory.axioms[just.index] != phi:
                return CheckResult(False, n, "formula differs from the cited axiom")
        elif isinstance(just, Premise):
            if not (0 <= just.index < len(p.premises)):
                return CheckResult(False, n, "premise index out of range")
            if p.premises[just.index] != phi:
                return CheckResult(False, n, "formula differs from the cited premise")
        elif isinstance(just, MP):
            if not (0 <= just.frm < n and 0 <= just.impl < n):
                return CheckResult(False, n, "rule references must be earlier lines")
            want = imp(sig, p.lines[just.frm].formula, phi)
            if p.lines[just.impl].formula != want:
                return CheckResult(False, n, "cited line is not the required implication")
        elif isinstance(just, Gen):
            if not (0 <= just.frm < n):
                return CheckResult(False, n, "rule references must be earlier lines")
            if variable_sort(sig, just.x) is None:
                return CheckResult(False, n, f"{just.x!r} is not a variable")
            if phi != forall(sig, just.x, p.lines[just.frm].formula):
                return CheckResult(False, n, "formula is not the generalization of the cited line")
        else:
            try:
                ok = check_axiom_instance(sig, just, phi)
            except TooManyAtoms as exc:
                return CheckResult(False, n, str(exc))
            if not ok:
                return CheckResult(False, n,
                                   f"not an instance of {type(just).__name__}")
    return CheckResult(True)


def used_axioms(p: Proof) -> tuple[Expr, ...]:
    """The finite set of theory axioms the proof actually cites, in order of
    first use; re-checking against exactly these axioms succeeds."""
    seen = []
    for line in p.lines:
        if isinstance(line.justification, NonlogicalAxiom):
            if line.formula not in seen:
                seen.append(line.formula)
    return tuple(seen)


def reindex_axioms(p: Proof, axioms: tuple[Expr, ...]) -> Proof:
    """The same proof stated over a theory with the given axiom list."""
    new_lines = []
    for line in p.lines:
        j = line.justification
        if isinstance(j, NonlogicalAxiom):
            j = NonlogicalAxiom(axioms.index(line.formula))
        new_lines.append(ProofLine(line.formula, j))
    return Proof(Theory(p.theory.signature, axioms), p.premises, tuple(new_lines))


# --- proof construction -----------------------------------------------------

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

    def syll(self, h_a: int, a_b: int) -> int:
        """From H->A and A->B conclude H->B (one tautology, two detachments)."""
        sig = self.sig
        fa, fb = self.formula(h_a), self.formula(a_b)
        (h, _), (_, b) = _split_imp(fa), _split_imp(fb)
        t = self.taut(imp(sig, fa, imp(sig, fb, imp(sig, h, b))))
        step = self.mp(h_a, t)
        return self.mp(a_b, step)

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
    t = b.taut(imp(sig, b.formula(congr), imp(sig, xy, imp(sig, yz, xz))))
    return b.mp(congr, t)


def derive_symmetry(theory: Theory, a: Expr, b_: Expr) -> Proof:
    """Proof of a=b -> b=a, from the congruence line a=b -> (a=a <-> b=a)."""
    sig = theory.signature
    b = ProofBuilder(theory)
    aa, ab, ba = mk_eq(sig, a, a), mk_eq(sig, a, b_), mk_eq(sig, b_, a)
    congr = _congruence_line(b, a, b_, a)
    t = b.taut(imp(sig, b.formula(congr), imp(sig, aa, imp(sig, ab, ba))))
    step = b.mp(congr, t)
    refl = b.add(aa, EqRefl())
    b.mp(refl, step)
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
        refl = b.add(mk_eq(sig, er, er), EqRefl())
        t = b.taut(imp(sig, b.formula(refl), imp(sig, h, b.formula(refl))))
        return b.mp(refl, t)
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
            f_cur = b.formula(cur)
            f_stp = b.formula(h_to_step)
            goal = imp(sig, h, mk_eq(sig, f_start, f_new))
            t = b.taut(imp(sig, b.formula(tr),
                           imp(sig, f_cur, imp(sig, f_stp, goal))))
            m1 = b.mp(tr, t)
            m2 = b.mp(cur, m1)
            cur = b.mp(h_to_step, m2)
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
        if isinstance(just, Premise) and just.index == last:
            mapping[n] = b.taut(imp(sig, phi, phi))
        elif isinstance(just, MP):
            t = b.taut(imp(sig, b.formula(mapping[just.frm]),
                           imp(sig, b.formula(mapping[just.impl]),
                               imp(sig, phi, chi))))
            m1 = b.mp(mapping[just.frm], t)
            mapping[n] = b.mp(mapping[just.impl], m1)
        elif isinstance(just, Gen):
            mapping[n] = b.dist_forall(mapping[just.frm], just.x)
        else:
            base = b.add(chi, just)
            t = b.taut(imp(sig, chi, imp(sig, phi, chi)))
            mapping[n] = b.mp(base, t)
    return b.proof()
