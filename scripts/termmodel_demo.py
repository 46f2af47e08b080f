#!/usr/bin/env python3
"""End-to-end term-model walkthrough on a two-element structure.

Builds the swap-structure over {0,1}, treats its complete theory as the
provability oracle, materializes the term structure, and audits it: closure
laws, evaluation-vs-substitution commutation, and provable = satisfied on
every in-bound closed formula.
"""
import argparse
import time

from funlog.cli import count, without_cycle_collector
from funlog.signature import Signature
from funlog.syntax import parse_expr, print_expr
from funlog.calculus import Theory
from funlog.semantics import make_full_structure, check_closure, satisfies_theory
from funlog.henkin import (
    ThOracle, TermModelContext, audit_term_model, build_term_structure, norm,
)
from funlog import fileio


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--depth", type=count, default=5)
    ap.add_argument("--out", default="termmodel_demo.fls")
    args = ap.parse_args()

    with without_cycle_collector():  # see funlog.cli
        sig = Signature(["a"], ["a"], {"ca": "a", "cb": "a", "f": "(a)a"})
        m = make_full_structure(
            sig, {"a": ("0", "1")},
            {"ca": "0", "cb": "1", "f": lambda v: "1" if v == "0" else "0"})
        theory = Theory(sig, (
            parse_expr(sig, "eq_a(f(ca),cb)"),
            parse_expr(sig, "forall v0^a. eq_a(f(f(v0^a)),v0^a)")))
        print("source structure satisfies theory:", satisfies_theory(m, theory))

        ctx = TermModelContext(sig, ThOracle(m), size_bound=args.depth)
        t0 = time.time()
        tm = build_term_structure(ctx)
        print(f"term structure built in {time.time() - t0:.2f}s; "
              f"carriers: { {s: list(c) for s, c in tm.structure.carriers.items()} }")

        for text in ("f(f(ca))", "f(cb)", "eq_a(f(ca),cb)"):
            e = parse_expr(sig, text)
            print(f"norm({text}) = {print_expr(norm(ctx, e))}")

        rep = check_closure(tm.structure, cap=1)
        print("closure laws:", "ok" if rep.ok else rep.violations[0])

        cm, ded, bad, _ = audit_term_model(tm)
        print(f"commutation checks: {cm}, provable=satisfied checks: {ded}, "
              f"failures: {bad}")
        print("term structure satisfies theory:",
              satisfies_theory(tm.structure, theory))

        fileio.save(args.out, fileio.print_structure(tm.structure))
        print("emitted", args.out)


if __name__ == "__main__":
    main()
