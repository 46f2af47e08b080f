"""The Hilbert-style calculus: axiom schemes, proof objects and the proof
checker, and nothing else (the untrusted proof generators are in derive).

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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter

from .signature import (
    PROP, CONNECTIVES, IFF, IMP, FunlogError, Signature, SignatureError, forall_op,
    exists_op, eq_op, variable_sort,
)
from .syntax import (
    Expr, ExprError, Theory, mk, nodes, var, imp, forall, forall_chain, mk_eq,
)
from .subst import SortClash, fv, substitutable, substitute, substitute1


class CalculusError(FunlogError):
    pass


class TooManyAtoms(CalculusError):
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
    antecedent quantifies over zs substituted into both bodies.  The zs are
    distinct, of the binder sorts, not free in b1 or b2, and substitutable
    for the xs in b1 and for the ys in b2."""
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
    zvars = [var(sig, z) for z in just.zs]
    if not all(substitutable(z, x, just.b1) and substitutable(z, y, just.b2)
               for z, x, y in zip(zvars, just.xs, just.ys)):
        return False
    lhs = mk(sig, just.op, just.before + ((just.xs, just.b1),) + just.after)
    rhs = mk(sig, just.op, just.before + ((just.ys, just.b2),) + just.after)
    inner = mk_eq(sig, substitute(sig, just.b1, just.xs, zvars),
                  substitute(sig, just.b2, just.ys, zvars))
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


def __getattr__(name):
    # the benchmark imports these two from here; this goes when it imports them from derive
    if name in ("deduction_transform", "derive_equality_rule"):
        from . import derive
        return getattr(derive, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
