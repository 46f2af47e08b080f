"""Batch command-line front end.

Subcommands: check, eval, sat, fuzz, henkin, termmodel.  Exit status is 0
when the verdict is ok, 1 when a check fails, 2 on usage or parse errors.
Reports print as key/value lines, or as a single JSON document with --json.
Each command imports the layers it runs when it runs: funlog.fileio where
it reads or writes a file, funlog.calculus only where it handles a proof
(check, fuzz soundness); a theory is syntax.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import time
from dataclasses import dataclass, field

from .signature import PROP, FunlogError, print_ustype
from .syntax import parse_expr, print_expr


@dataclass
class RunReport:
    command: str
    verdict: str = "ok"
    cases: int = 0
    failures: int = 0
    detail: str = ""
    extra: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    def stable(self) -> dict:
        """Everything except wall time; two runs with the same inputs and
        seed produce identical stable views."""
        return {"command": self.command, "verdict": self.verdict,
                "cases": self.cases, "failures": self.failures,
                "detail": self.detail, "extra": dict(self.extra)}

    def emit(self, as_json: bool):
        if as_json:
            doc = self.stable()
            doc["seconds"] = round(self.seconds, 3)
            print(json.dumps(doc, indent=2))
            return
        print(f"command:  {self.command}")
        print(f"verdict:  {self.verdict}")
        print(f"cases:    {self.cases}")
        print(f"failures: {self.failures}")
        if self.detail:
            print(f"detail:   {self.detail}")
        for k, v in self.extra.items():
            print(f"{k}: {v}")
        print(f"seconds:  {self.seconds:.3f}")


class UsageError(FunlogError):
    pass


@contextlib.contextmanager
def without_cycle_collector():
    """Run the body with CPython's cycle collector off, then put it back as
    it was.  The kernel makes no reference cycles, so reference counting
    alone frees everything it drops: nodes are interned in a table of weak
    references, a structure's quantifiers point back at it weakly, and the
    recursive helpers are module-level functions, not closures over
    themselves.  With the collector on, each full collection re-walks every
    live node and frees nothing.  A cycle added to the kernel would leak
    for the rest of the process; tests/test_cli.py::TestNoReferenceCycles
    runs every command and fuzz suite and requires zero cyclic garbage."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _read(path) -> str:
    with open(path) as fh:
        return fh.read()


def cmd_check(args) -> RunReport:
    from . import fileio
    from .calculus import check_proof, used_axioms
    rep = RunReport("check")
    theory = fileio.parse_theory(_read(args.theory))
    proof = fileio.parse_proof(_read(args.proof), theory)
    if not proof.lines:
        raise UsageError(f"{args.proof}: the proof has no steps")
    rep.cases = len(proof.lines)
    result = check_proof(proof)
    if result:
        used = used_axioms(proof)
        rep.extra["conclusion"] = print_expr(proof.conclusion)
        rep.extra["used_axioms"] = [print_expr(a) for a in used]
        if proof.premises:
            rep.extra["premises"] = [print_expr(a) for a in proof.premises]
    else:
        rep.verdict = "fail"
        rep.failures = 1
        rep.detail = f"{args.proof}:{(result.line or 0) + 1}: {result.reason}"
    return rep


def cmd_eval(args) -> RunReport:
    from . import fileio
    from .semantics import evaluate
    rep = RunReport("eval")
    s = fileio.parse_structure(_read(args.structure))
    e = parse_expr(s.signature, args.expr)
    persp = tuple(x for x in (args.persp or "").split(",") if x)
    val = evaluate(s, e, persp)
    rep.cases = 1
    if args.args:
        point = tuple(args.args.split(","))
        if not persp or len(point) != len(persp) or any(
                x not in s.carriers[srt] for x, srt in zip(point, val.domain_sorts)):
            raise UsageError(f"--args {args.args!r} is not a point of the "
                             f"carriers of perspective {','.join(persp) or '()'}")
        rep.extra["value"] = val.apply(point)
    elif not persp:
        rep.extra["value"] = val
    else:
        rep.extra["table"] = {",".join(a): v for a, v in val.rows}
    return rep


def cmd_sat(args) -> RunReport:
    from . import fileio
    from .semantics import satisfies
    rep = RunReport("sat")
    s = fileio.parse_structure(_read(args.structure))
    theory = fileio.parse_theory(_read(args.theory))
    for name, spec in theory.signature.user_ops.items():
        if s.signature.ops.get(name, spec) != spec:
            raise UsageError(f"operation {name!r} is {print_ustype(spec)} in the theory but "
                             f"{print_ustype(s.signature.ops[name])} in the structure")
    rep.cases = len(theory.axioms)
    for i, a in enumerate(theory.axioms):
        if not satisfies(s, a):
            rep.verdict = "fail"
            rep.failures += 1
            if not rep.detail:
                rep.detail = f"axiom {i} not satisfied: {print_expr(a)}"
    return rep


def cmd_fuzz(args) -> RunReport:
    from .gen import SUITES
    rep = RunReport(f"fuzz {args.suite}")
    suite = SUITES.get(args.suite)
    if suite is None:
        raise UsageError(f"unknown suite {args.suite!r}; "
                         f"choose from {', '.join(sorted(SUITES))}")
    result = suite(args.n, args.seed)
    rep.cases = result.cases
    rep.failures = result.failures
    rep.detail = result.first_detail
    rep.extra["seed"] = args.seed
    if result.failures:
        rep.verdict = "fail"
    return rep


def cmd_henkin(args) -> RunReport:
    from . import fileio
    from .henkin import henkin_extend
    rep = RunReport("henkin")
    theory = fileio.parse_theory(_read(args.theory))
    ext = henkin_extend(theory, args.levels, args.depth)
    out = args.out or os.path.splitext(args.theory)[0] + ".henkin.flt"
    text = fileio.print_theory(ext.theory)
    fileio.save(out, text)
    reparsed = fileio.parse_theory(text)
    rep.cases = len(ext.constants)
    rep.extra["levels"] = args.levels
    rep.extra["depth"] = args.depth
    rep.extra["constants"] = len(ext.constants)
    rep.extra["axioms"] = len(ext.theory.axioms)
    rep.extra["out"] = out
    if reparsed != ext.theory:
        rep.verdict = "fail"
        rep.detail = "emitted theory did not re-parse identically"
    return rep


def cmd_termmodel(args) -> RunReport:
    from . import fileio
    from .henkin import ThOracle, TermModelContext, build_term_structure, audit_term_model
    rep = RunReport("termmodel")
    s = fileio.parse_structure(_read(args.structure))
    sig = s.signature
    if not s.full:
        raise UsageError("oracle source must be a full structure")
    for sort, atoms in s.carriers.items():
        if sort == PROP:
            continue
        named = {s.interp[c] for c, spec in sig.ops_by_result[sort] if spec.arity == 0}
        unnamed = [a for a in atoms if a not in named]
        if unnamed:
            raise UsageError(
                f"element-not-named: {unnamed[0]!r} of sort {sort!r} is not "
                "the value of any constant")
    ctx = TermModelContext(sig, ThOracle(s), size_bound=args.depth)
    tm = build_term_structure(ctx)

    cm_cases, ded_cases, failures, detail = audit_term_model(tm)

    out = args.out or os.path.splitext(args.structure)[0] + ".termmodel.fls"
    text = fileio.print_structure(tm.structure)
    fileio.save(out, text)
    reparsed = fileio.parse_structure(text)
    if fileio.print_structure(reparsed) != text:
        failures += 1
        detail = detail or "emitted structure did not re-parse identically"

    rep.cases = cm_cases + ded_cases
    rep.failures = failures
    rep.detail = detail
    rep.extra["depth"] = args.depth
    rep.extra["cm_expr_cases"] = cm_cases
    rep.extra["ded_sat_cases"] = ded_cases
    rep.extra["carriers"] = {srt: len(a) for srt, a in tm.structure.carriers.items()}
    rep.extra["out"] = out
    if failures:
        rep.verdict = "fail"
    return rep


def count(text: str) -> int:
    """The value of a count option (--n, --levels, --depth): an integer of
    at least 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is below 0")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="funlog")
    ap.add_argument("--json", action="store_true",
                    help="emit the report as a single JSON document")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="check a proof file against a theory")
    p.add_argument("theory")
    p.add_argument("proof")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("eval", help="evaluate an expression in a structure")
    p.add_argument("structure")
    p.add_argument("--expr", required=True)
    p.add_argument("--persp", default="",
                   help="comma-separated perspective variables")
    p.add_argument("--args", default="",
                   help="carrier elements to apply the resulting table to")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sat", help="check a structure against a theory")
    p.add_argument("structure")
    p.add_argument("theory")
    p.set_defaults(fn=cmd_sat)

    p = sub.add_parser("fuzz", help="run a randomized property suite")
    p.add_argument("suite")
    p.add_argument("--n", type=count, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("henkin", help="emit a witness-saturated theory")
    p.add_argument("theory")
    p.add_argument("--levels", type=count, default=1)
    p.add_argument("--depth", type=count, default=6)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_henkin)

    p = sub.add_parser("termmodel",
                       help="build and audit the term structure of a model")
    p.add_argument("structure")
    p.add_argument("--depth", type=count, default=6)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_termmodel)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    try:
        with without_cycle_collector():
            rep = args.fn(args)
    except (FunlogError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep.seconds = time.perf_counter() - t0
    try:
        rep.emit(args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (e.g. `| head`): drop the rest of the report,
        # and point stdout at devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
