#!/usr/bin/env python3
"""Witness-constant saturation demo.

Extends a toy theory by one level of special constants, interprets the new
constants over the source structure, and verifies the extended structure
models the extended theory.  Then runs the bounded completion pass against
the structure's theory-oracle.

The completion's candidates are the closed formulas of size at most 3 over
the source signature, 50 of them at any --levels.  Over the extended
signature their number grows with the square of the witness constants: at
--levels 2 there are 3,410 constants, so about 11.6 M equations c = c'
alone, and a run that listed them grew past 7 GB before it was killed.
"""
import argparse

from funlog.cli import count, without_cycle_collector
from funlog.signature import PROP, Signature
from funlog.syntax import parse_expr
from funlog.calculus import Theory
from funlog.semantics import make_full_structure, satisfies_theory, restrict_structure
from funlog.henkin import (
    ThOracle, enumerate_exprs, henkin_extend, extend_structure_for_henkin, saturate_bounded,
    is_consistent_up_to,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--levels", type=count, default=1)
    ap.add_argument("--depth", type=count, default=3)
    args = ap.parse_args()

    with without_cycle_collector():  # see funlog.cli
        sig = Signature(["a"], ["a"], {"ca": "a", "cb": "a", "f": "(a)a"})
        m = make_full_structure(
            sig, {"a": ("0", "1")},
            {"ca": "0", "cb": "1", "f": lambda v: "1" if v == "0" else "0"})
        theory = Theory(sig, (parse_expr(sig, "eq_a(f(ca),cb)"),))

        ext = henkin_extend(theory, args.levels, args.depth)
        print(f"levels={args.levels} depth={args.depth}: "
              f"{len(ext.constants)} witness constants, "
              f"{len(ext.theory.axioms)} axioms")

        big = extend_structure_for_henkin(m, ext)
        print("extended structure models extended theory:",
              satisfies_theory(big, ext.theory))
        print("reduct still models the original theory:",
              satisfies_theory(restrict_structure(big, sig), theory))

        oracle = ThOracle(big)
        print("consistent up to the oracle:",
              is_consistent_up_to(ext.theory, oracle))
        candidates = enumerate_exprs(sig, PROP, (), 3)
        completed = saturate_bounded(ext.theory, candidates, oracle)
        print(f"bounded completion over {len(candidates)} candidates: "
              f"{len(completed.axioms)} axioms")


if __name__ == "__main__":
    main()
