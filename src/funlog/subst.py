"""Bound variables, substitutability, simultaneous substitution.  Free
variables (``fv``) are defined in syntax, whose class test needs them.

Substitution follows the inductive definition literally: descending into an
argument slot appends the pairs (binder variable -> itself) to the map, which
protects bound occurrences without ever renaming anything.  At a variable the
rightmost matching pair wins.  ``substitutable(d, x, e)`` is the side
condition used by the quantifier axioms: substituting d for x in e must not
move a free variable of d under a binder that captures it.
"""
from __future__ import annotations

from .signature import FunlogError, Signature, variable_sort
from .syntax import Expr, fv, nodes, var


class SortClash(FunlogError):
    pass


def gv(e: Expr) -> frozenset[str]:
    """Bound variables: every binder-list component of every node."""
    return frozenset(v for node in nodes(e) for binders, _ in node.args for v in binders)


def substitutable(d: Expr, x: str, e: Expr) -> bool:
    """Subb(d, x, e): vacuously true at leaves; at an operation node each slot
    must either bind x (making the substitution stop there) or admit it in
    its body with no free variable of d captured by the slot's binders.  So
    every slot of every node reached through slots that do not bind x is
    checked."""
    fvd = fv(d)
    return all(x in binders or fvd.isdisjoint(binders)
               for node in nodes(e, lambda _, binders: x not in binders)
               for binders, _ in node.args)


def substitute(sig: Signature, e: Expr, xs, ds) -> Expr:
    """e[xs <- ds], simultaneous, rightmost pair winning at a variable.  A
    subtree in which no target is free comes back as it is."""
    xs = tuple(xs)
    ds = tuple(ds)
    if len(xs) != len(ds):
        raise SortClash("target and replacement lists differ in length")
    for x, d in zip(xs, ds):
        if variable_sort(sig, x) != d.sort:
            raise SortClash(f"cannot substitute sort {d.sort!r} for variable {x!r}")
    return _substituted(sig, e, xs, ds)


def _substituted(sig: Signature, e: Expr, xs: tuple, ds: tuple) -> Expr:
    if e.fv.isdisjoint(xs):
        return e
    if not e.args:  # a target variable: its rightmost pair wins
        for j in range(len(xs) - 1, -1, -1):
            if xs[j] == e.head:
                return ds[j]
    new_args = []
    for binders, body in e.args:
        ext_xs = xs + binders
        ext_ds = ds + tuple(var(sig, b) for b in binders)
        new_args.append((binders, _substituted(sig, body, ext_xs, ext_ds)))
    return Expr(e.head, tuple(new_args), e.sort)


def substitute1(sig: Signature, e: Expr, x: str, d: Expr) -> Expr:
    return substitute(sig, e, (x,), (d,))

