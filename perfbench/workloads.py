"""Seeded inputs for the benchmark workloads, the CLI invocations that
consume them, and the checks on their results.

Every generator is a pure function of the workload seed, and every seed
keeps the workload's size class: the same expression node count, the same
tautology atom counts, the same enumeration depth and the same ``--n``.
Only which concrete tables, constants, literals, expressions and
closure-suite seeds are drawn changes with the seed.  Where a draw's cost
still varies a lot (the mu tables, the long proof, the closure suite),
draws are restricted to fixed windows of deterministic work counts.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

MU_HEADER = ("sort a\nvarsort a\nop ca : a\nop cb : a\nop f : (a)a\n"
             "op mu : ((a)pi)a\n")
TOY_HEADER = "sort a\nvarsort a\nop ca : a\nop cb : a\nop f : (a)a\n"

TERMMODEL_DEPTH = 5
HENKIN_LEVELS = 1
HENKIN_DEPTH = 6
CLOSURE_N = 40
EXPR_NODES = 60          # node count of the equality-rule context expression
MIN_Z_OCCURRENCES = 3    # free occurrences of z in that expression
MIN_MU_BINDERS = 2
PROOF_LINES = (1030, 1070)  # accepted size windows of the long proof
PROOF_NODES = (200_000, 220_000)  # expression nodes over all steps
# printed size of the long proof in bytes, which sets the peak RSS of its
# check (80-89 MiB over 1.41-1.81 MB)
PROOF_BYTES = (1_500_000, 1_650_000)
TRUTH_TABLE = (1_500_000, 2_000_000)  # see truth_table_visits
TAUT_ATOMS = (12, 14, 16)
# Witness constants of the toy signature at HENKIN_LEVELS/HENKIN_DEPTH; they
# depend on the signature and the depth only, not on the axioms.
HENKIN_CONSTANTS = 18076
Z = "v0^a"
F_SHARE = 0.4  # share of f (rather than mu) nodes at sort a

# CLI seeds of `fuzz closure --n 40` whose audit builds a number of table
# rows (FnTable.from_map) inside CLOSURE_ROWS and peaks inside
# CLOSURE_RSS_MIB, so that every benchmark seed audits the same amount of
# closure work; perfbench/closure_pool.py finds them.
CLOSURE_ROWS = (2_400_000, 2_600_000)
CLOSURE_RSS_MIB = (27.3, 27.9)  # peak RSS of the untraced CLI child
CLOSURE_POOL = (41, 50, 51, 110, 132, 133, 144, 165, 168, 171, 194)


WORKLOADS = ("termmodel-mu", "check-proof", "closure-audit", "henkin-emit")
OUT_DIR = "out"


@dataclass
class Invocation:
    """One CLI run.  ``args`` follow ``funlog --json`` and name files
    relative to the run directory, which is the child's working directory;
    ``out`` is the file the run emits, if any."""
    name: str
    args: list[str]
    out: str | None = None


# --- termmodel-mu -----------------------------------------------------------

def mu_structure_text(seed: int) -> str:
    """The `mu` toy over {0,1} with ca=0 and cb=1 (so every element stays
    named); the seed redraws the tables of f and mu.

    mu always sends the two constant predicates to different elements.  At
    depth 5 the 32 such tables make 8171-8701 oracle decisions; of the other
    32, those that send both to 0 make ~7000 and those that send both to 1
    ~9800, so a free draw would change the work by up to 40% with the seed."""
    rng = random.Random(f"termmodel-mu/{seed}")
    f_rows = ", ".join(f"({x}) -> {rng.choice('01')}" for x in "01")
    preds = [(p, q) for p in "01" for q in "01"]
    values = [rng.choice("01") for _ in preds[:-1]]
    values.append("1" if values[0] == "0" else "0")
    mu_rows = ", ".join(f"({{0->{p},1->{q}}}) -> {v}"
                        for (p, q), v in zip(preds, values))
    return (MU_HEADER + "carrier a = 0,1\ninterp ca = 0\ninterp cb = 1\n"
            f"interp f {{ {f_rows} }}\ninterp mu {{ {mu_rows} }}\n")


# --- henkin-emit ------------------------------------------------------------

def toy_theory_text(seed: int) -> str:
    """The `ca,cb,f` toy with two axioms of fixed node counts; the seed
    redraws their constants and orientation."""
    rng = random.Random(f"henkin-emit/{seed}")
    c1, c2 = rng.choice("ab"), rng.choice("ab")
    law = ["f(f(v0^a))", "v0^a"]
    rng.shuffle(law)
    return (TOY_HEADER + f"axiom eq_a(f(c{c1}),c{c2})\n"
            f"axiom forall v0^a. eq_a({law[0]},{law[1]})\n")


# --- check-proof ------------------------------------------------------------

_BINDERS = ("v1^a", "v2^a")
_LEAVES = (Z, Z, Z, Z, "v1^a", "v2^a", "ca", "cb")
_PI_OPS = (("imp", 2), ("and", 2), ("or", 2), ("iff", 2), ("not", 1)) + (
    ("forall^a", 1), ("exists^a", 1)) * 3 + (("eq_a", 2),) * 4


def _compose(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def rand_expr_text(rng, sort: str, n: int) -> str:
    """A random expression of the mu toy with exactly n nodes, printed in
    the canonical syntax.  Binders use v1^a and v2^a only, so every z = v0^a
    leaf is free; binder nodes are weighted up because the equality-rule
    proof grows with the binders above each z."""
    if sort == "a":
        if n == 1:
            return rng.choice(_LEAVES)
        if rng.random() < F_SHARE:
            return f"f({rand_expr_text(rng, 'a', n - 1)})"
        x = rng.choice(_BINDERS)
        return f"mu(({x}): {rand_expr_text(rng, 'pi', n - 1)})"
    if n == 1:
        return rng.choice(("top", "bot"))
    if n == 2:
        return f"not({rand_expr_text(rng, 'pi', 1)})"
    head, arity = rng.choice(_PI_OPS)
    if head in ("forall^a", "exists^a"):
        x = rng.choice(_BINDERS)
        return f"{head}(({x}): {rand_expr_text(rng, 'pi', n - 1)})"
    if arity == 1:
        return f"not({rand_expr_text(rng, 'pi', n - 1)})"
    left, right = _compose(rng, n - 1, 2)
    arg = "a" if head == "eq_a" else "pi"
    return (f"{head}({rand_expr_text(rng, arg, left)},"
            f"{rand_expr_text(rng, arg, right)})")


def _long_proof(seed: int):
    """The equality-rule proof for a seeded context expression, with its
    premise discharged by the deduction transformation.  Draws are retried
    (deterministically) until the expression has enough mu binders and free
    z occurrences and the proof lands in the PROOF_LINES, PROOF_NODES and
    TRUTH_TABLE windows and its printed form in the PROOF_BYTES window.
    Returns (rng, proof, printed proof)."""
    from funlog import fileio
    from funlog.calculus import deduction_transform, derive_equality_rule
    from funlog.syntax import parse_expr, size

    theory = fileio.parse_theory(MU_HEADER)
    sig = theory.signature
    rng = random.Random(f"check-proof/{seed}")
    while True:
        text = rand_expr_text(rng, "pi", EXPR_NODES)
        if text.count("mu(") < MIN_MU_BINDERS or text.count(Z) < MIN_Z_OCCURRENCES:
            continue
        e = parse_expr(sig, text)
        r = parse_expr(sig, f"f({rng.choice(('ca', 'cb'))})")
        s = parse_expr(sig, rng.choice(("ca", "cb")))
        rule = derive_equality_rule(theory, e, Z, r, s)
        # the deduction transformation turns n steps into 3n - 2
        if not PROOF_LINES[0] <= 3 * len(rule.lines) - 2 <= PROOF_LINES[1]:
            continue
        p = deduction_transform(rule)
        nodes = sum(size(line.formula) for line in p.lines)
        if not (PROOF_NODES[0] <= nodes <= PROOF_NODES[1]
                and TRUTH_TABLE[0] <= truth_table_visits(p) <= TRUTH_TABLE[1]):
            continue
        printed = fileio.print_proof(p)
        if PROOF_BYTES[0] <= len(printed) <= PROOF_BYTES[1]:
            return rng, p, printed


def truth_table_visits(p) -> int:
    """Sum over the `taut` steps of 2^atoms * nodes: the work of checking
    them by truth tables, which varies with the seed far more than the
    proof's length does."""
    from funlog.calculus import Taut
    from funlog.syntax import size
    from tracer import count_atoms
    return sum(2 ** count_atoms(line.formula) * size(line.formula)
               for line in p.lines if isinstance(line.justification, Taut))


def long_proof_texts(seed: int):
    """(valid proof, corrupted copy, 1-based step number of the corrupted
    step).  The corrupted step is a `taut` step between 87% and 89% of the
    way through, with its formula negated, so the checker must reject
    exactly that step."""
    from funlog.calculus import Taut

    rng, p, valid = _long_proof(seed)
    late = [i for i, line in enumerate(p.lines)
            if isinstance(line.justification, Taut)
            and 87 * len(p.lines) <= 100 * i < 89 * len(p.lines)]
    bad = rng.choice(late)
    lines = valid.splitlines()
    offset = len(p.premises)
    number, _, rest = lines[offset + bad].partition(". ")
    formula, _, rule = rest.rpartition(" ; ")
    lines[offset + bad] = f"{number}. not({formula}) ; {rule}"
    return valid, "\n".join(lines) + "\n", bad + 1


def _atom_texts(rng, k: int) -> list[str]:
    """k distinct atoms eq_a(vi^a,vj^a), i, j < 4, of three nodes each."""
    pairs = rng.sample([(i, j) for i in range(4) for j in range(4)], k)
    return [f"eq_a(v{i}^a,v{j}^a)" for i, j in pairs]


def _chain(head: str, items: list[str]) -> str:
    out = items[-1]
    for item in reversed(items[:-1]):
        out = f"{head}({item},{out})"
    return out


def taut_proof_text(seed: int) -> str:
    """One `taut` step per entry of TAUT_ATOMS: a conjunction of k signed
    atoms implies one of its literals."""
    rng = random.Random(f"check-proof-taut/{seed}")
    steps = []
    for n, k in enumerate(TAUT_ATOMS, 1):
        lits = [a if rng.random() < 0.5 else f"not({a})"
                for a in _atom_texts(rng, k)]
        steps.append(f"{n}. imp({_chain('and', lits)},{rng.choice(lits)}) ; taut")
    return "\n".join(steps) + "\n"


# --- closure-audit ----------------------------------------------------------

def closure_cli_seed(seed: int) -> int:
    return CLOSURE_POOL[seed % len(CLOSURE_POOL)]


# --- inputs and invocations -------------------------------------------------

def write_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's input files for ``seed`` into ``directory`` and
    return the facts about them that checking needs (``meta``)."""
    files, meta = {}, {}
    if workload == "termmodel-mu":
        files["mu.fls"] = mu_structure_text(seed)
    elif workload == "check-proof":
        valid, bad, step = long_proof_texts(seed)
        files.update({"theory.flt": MU_HEADER, "long.flp": valid,
                      "long_bad.flp": bad, "taut.flp": taut_proof_text(seed)})
        meta["bad_step"] = step
    elif workload == "closure-audit":
        meta["cli_seed"] = closure_cli_seed(seed)
    elif workload == "henkin-emit":
        files["toy.flt"] = toy_theory_text(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for name, text in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)
    return meta


def invocations(workload: str, meta: dict) -> list[Invocation]:
    """The CLI runs of one pass over the workload.  Every size parameter is
    passed explicitly, and every output goes to OUT_DIR."""
    if workload == "termmodel-mu":
        out = f"{OUT_DIR}/mu.termmodel.fls"
        return [Invocation("termmodel", ["termmodel", "mu.fls", "--depth",
                                         str(TERMMODEL_DEPTH), "--out", out], out)]
    if workload == "check-proof":
        return [Invocation(name, ["check", "theory.flt", f"{name}.flp"])
                for name in ("long", "long_bad", "taut")]
    if workload == "closure-audit":
        return [Invocation("closure", ["fuzz", "closure", "--n", str(CLOSURE_N),
                                       "--seed", str(meta["cli_seed"])])]
    if workload == "henkin-emit":
        out = f"{OUT_DIR}/toy.henkin.flt"
        return [Invocation("henkin", ["henkin", "toy.flt", "--levels",
                                      str(HENKIN_LEVELS), "--depth",
                                      str(HENKIN_DEPTH), "--out", out], out)]
    raise ValueError(f"unknown workload {workload!r}")


def units(inv: Invocation, meta: dict, report: dict) -> int:
    """The work unit of one run: audit cases, proof steps checked,
    structures audited or witness constants emitted."""
    extra = report.get("extra", {})
    if inv.name == "termmodel":
        return extra.get("cm_expr_cases", 0) + extra.get("ded_sat_cases", 0)
    if inv.name == "long_bad":
        return meta["bad_step"]
    if inv.name == "henkin":
        return extra.get("constants", 0)
    return report.get("cases", 0)


# --- checking results -------------------------------------------------------

def file_sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def result_of(inv: Invocation, code: int, stdout: str, directory: str) -> dict:
    """The comparable result of a run: exit code, the report without its
    ``seconds`` field, and the sha256 of the emitted file."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        report = {}
    report.pop("seconds", None)
    out_sha = file_sha256(os.path.join(directory, inv.out)) if inv.out else None
    return {"exit": code, "stable": report, "out_sha256": out_sha}


def mismatch(inv: Invocation, meta: dict, result: dict,
             golden: dict | None) -> str | None:
    """Why the result is wrong, or None.  ``golden`` is the recorded result
    for the default seed (None for other seeds); the invariants below hold
    for every seed."""
    if golden is not None and result != golden:
        return f"{inv.name}: differs from the golden result"
    rep = result["stable"]
    extra = rep.get("extra", {})
    want_exit = 1 if inv.name == "long_bad" else 0
    if result["exit"] != want_exit:
        return f"{inv.name}: exit {result['exit']}, expected {want_exit}"
    if inv.name == "long_bad":
        prefix = f"long_bad.flp:{meta['bad_step']}: "
        if rep.get("verdict") != "fail" or not rep.get("detail", "").startswith(prefix):
            return f"long_bad: not rejected at step {meta['bad_step']}"
        return None
    if rep.get("verdict") != "ok" or rep.get("failures") != 0:
        return f"{inv.name}: verdict {rep.get('verdict')!r}"
    if inv.out and result["out_sha256"] is None:
        return f"{inv.name}: no output file"
    if inv.name == "termmodel" and extra.get("carriers") != {"a": 2, "pi": 2}:
        return f"termmodel: carriers {extra.get('carriers')}"
    if inv.name == "closure" and rep.get("cases") != CLOSURE_N:
        return f"closure: {rep.get('cases')} cases"
    if inv.name == "henkin" and extra.get("constants") != HENKIN_CONSTANTS:
        return f"henkin: {extra.get('constants')} constants"
    return None
