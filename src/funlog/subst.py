"""Free/bound variables, substitutability, simultaneous substitution.

Substitution follows the inductive definition literally: descending into an
argument slot appends the pairs (binder variable -> itself) to the map, which
protects bound occurrences without ever renaming anything.  At a variable the
rightmost matching pair wins.  ``substitutable(d, x, e)`` is the side
condition used by the quantifier axioms: substituting d for x in e must not
move a free variable of d under a binder that captures it.
"""
from __future__ import annotations

from .signature import Signature, variable_sort, is_variable_name
from .syntax import Expr, var


class SortClash(Exception):
    pass


def fv(e: Expr) -> frozenset[str]:
    """Free variables.  A leaf is a variable or a constant, and only
    variables have names of the variable shape."""
    if not e.args:
        if is_variable_name(e.head):
            return frozenset({e.head})
        return frozenset()
    out = set()
    for binders, body in e.args:
        out |= fv(body) - set(binders)
    return frozenset(out)


def gv(e: Expr) -> frozenset[str]:
    """Bound variables: every binder-list component plus the bodies' own."""
    if not e.args:
        return frozenset()
    out = set()
    for binders, body in e.args:
        out |= gv(body) | set(binders)
    return frozenset(out)


def substitutable(sig: Signature, d: Expr, x: str, e: Expr) -> bool:
    """Subb(d, x, e): vacuously true at leaves; at an operation node each slot
    must either bind x (making the substitution stop there) or recursively
    admit it with no free variable of d captured by the slot's binders."""
    fvd = fv(d)
    def go(e: Expr) -> bool:
        for binders, body in e.args:
            if x in binders:
                continue
            if fvd & set(binders):
                return False
            if not go(body):
                return False
        return True
    return go(e)


def substitute(sig: Signature, e: Expr, xs, ds) -> Expr:
    """e[xs <- ds], simultaneous, rightmost pair winning at a variable."""
    xs = tuple(xs)
    ds = tuple(ds)
    if len(xs) != len(ds):
        raise SortClash("target and replacement lists differ in length")
    for x, d in zip(xs, ds):
        if variable_sort(sig, x) != d.sort:
            raise SortClash(f"cannot substitute sort {d.sort!r} for variable {x!r}")

    def go(e: Expr, xs, ds) -> Expr:
        if not e.args:
            for j in range(len(xs) - 1, -1, -1):
                if xs[j] == e.head:
                    return ds[j]
            return e
        new_args = []
        for binders, body in e.args:
            ext_xs = xs + binders
            ext_ds = ds + tuple(var(sig, b) for b in binders)
            new_args.append((binders, go(body, ext_xs, ext_ds)))
        return Expr(e.head, tuple(new_args), e.sort)

    return go(e, xs, ds)


def substitute1(sig: Signature, e: Expr, x: str, d: Expr) -> Expr:
    return substitute(sig, e, (x,), (d,))


def alpha_equiv(sig: Signature, e1: Expr, e2: Expr) -> bool:
    """Equality up to sort-respecting renaming of bound variables.  Test
    plumbing only; nothing in the kernel identifies expressions this way."""

    def go(e1, e2, env1, env2):
        if len(e1.args) != len(e2.args) or e1.sort != e2.sort:
            return False
        if not e1.args:
            h1, h2 = e1.head, e2.head
            b1, b2 = env1.get(h1), env2.get(h2)
            if b1 is not None or b2 is not None:
                return b1 == h2 and b2 == h1
            return h1 == h2
        if e1.head != e2.head:
            return False
        for (bs1, a1), (bs2, a2) in zip(e1.args, e2.args):
            if len(bs1) != len(bs2):
                return False
            if any(variable_sort(sig, u) != variable_sort(sig, v)
                   for u, v in zip(bs1, bs2)):
                return False
            n1 = dict(env1)
            n2 = dict(env2)
            for u, v in zip(bs1, bs2):
                n1[u] = v
                n2[v] = u
            if not go(a1, a2, n1, n2):
                return False
        return True

    return go(e1, e2, {}, {})
