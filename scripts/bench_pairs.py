#!/usr/bin/env python3
"""Alternating benchmark pairs: a git revision against the working tree.

    python3 scripts/bench_pairs.py REV WORKLOAD... [--pairs N] [--seed S] [--seconds T]

Run it from anywhere inside the repository.  It extracts REV's files into a
temporary directory (``git archive``), then runs ``perfbench/run.py
--workload W --trace 0`` N times for each workload W in each checkout, each
with its own benchmark files, alternating which side goes first.  For each
workload, in its own block, and for every end-to-end metric that
BENCHMARK.json declares it prints each side's median and quartiles and the
number of pairs the working tree won (ties count for neither side), beside
the gain rule: a win in at least nine pairs of ten, and a median gap wider
than the distance between REV's quartiles.  Each block's header names the
Python version and whether the children write bytecode caches: they inherit
PYTHONDONTWRITEBYTECODE, and without caches every child recompiles
``src/funlog``, which moves ``setup_s`` by about a third.  The run length
defaults to BENCHMARK.json's ``run_seconds``.

After the pairs it makes one traced run (``--trace 1``) per side per
workload, and each block ends with whether each traced run was correct and
every per-layer metric whose unit is not seconds (call counts, counters,
ratios, bytes) that differs between the sides, or ``all counts equal``.
The traced runs always happen; no flag skips them.  The temporary directory
is removed afterwards.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile


def git(root: str, *args: str) -> str:
    return subprocess.run(["git", "-C", root, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_bench(root: str, workload: str, seed: int, seconds: float,
              trace: int = 0) -> dict:
    """One perfbench run in the checkout at root: its last stdout line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> None:
    n = len(runs["parent"])
    for side, results in runs.items():
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"{side}: {n - len(bad)}/{n} runs correct, "
              f"{sum(r['failed'] for r in results)} operations failed "
              f"of {sum(r['attempted'] for r in results)}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        old = [r["metrics"][name]["value"] for r in runs["parent"]]
        new = [r["metrics"][name]["value"] for r in runs["change"]]
        won = sum(b < a if lower else b > a for a, b in zip(old, new))
        oq, nq = quartiles(old), quartiles(new)
        gain = oq[1] - nq[1] if lower else nq[1] - oq[1]
        claim = won * 10 >= 9 * n and gain > oq[2] - oq[0]
        print(f"{name} ({m['unit']}, {m['better']} is better, bound {m['bound']:.0%}): "
              f"parent {oq[1]:.4g} [{oq[0]:.4g}, {oq[2]:.4g}]  "
              f"change {nq[1]:.4g} [{nq[0]:.4g}, {nq[2]:.4g}]  "
              f"median {(nq[1] - oq[1]) / oq[1]:+.1%}  change won {won}/{n} pairs"
              f"{'  (gain rule met)' if claim else ''}")


def compare_counts(traced: dict[str, dict]) -> None:
    """Print each side's traced-run verdict, then every per-layer metric not
    in seconds that differs between the sides, or that all are equal."""
    for side, result in traced.items():
        print(f"traced {side}: {'correct' if result['correct'] else 'NOT correct'}, "
              f"{result['failed']} operations failed")
    old, new = (traced[side]["metrics"] for side in ("parent", "change"))
    moved = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, {}), new.get(name, {})
        if (a.get("unit") or b.get("unit")) != "s" and a.get("value") != b.get("value"):
            moved.append(f"  {name}: parent {a.get('value')}, change {b.get('value')}")
    print("\n".join(["counts that differ:"] + moved) if moved else "all counts equal")


def how_it_ran() -> str:
    no_caches = os.environ.get("PYTHONDONTWRITEBYTECODE", "")
    return (f"Python {platform.python_version()}, children write bytecode caches: "
            f"{'no' if no_caches else 'yes'} (PYTHONDONTWRITEBYTECODE={no_caches!r}, "
            f"sys.flags.dont_write_bytecode={sys.flags.dont_write_bytecode})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("workloads", nargs="+", metavar="workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    rev = git(root, "rev-parse", "--verify", args.rev + "^{commit}")
    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as parent:
        archive = subprocess.run(["git", "-C", root, "archive", rev], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for workload, sides in runs.items():
                for side in order:
                    where = parent if side == "parent" else root
                    sides[side].append(run_bench(where, workload, args.seed, seconds))
                print(f"pair {k + 1}/{args.pairs} {workload}: wall_s parent "
                      f"{sides['parent'][-1]['metrics']['wall_s']['value']:.3f} "
                      f"change {sides['change'][-1]['metrics']['wall_s']['value']:.3f}",
                      file=sys.stderr)
        traced = {w: {side: run_bench(where, w, args.seed, seconds, trace=1)
                      for side, where in (("parent", parent), ("change", root))}
                  for w in runs}
    for workload, sides in runs.items():
        print(f"\n{workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs, "
              f"parent {rev[:10]} against the working tree of {root}")
        print(how_it_ran())
        report(bench["end_to_end"], sides)
        compare_counts(traced[workload])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
