"""Pick the `fuzz closure` CLI seeds that the closure-audit workload draws
from.

The cost of `fuzz closure --n 40 --seed S` varies by a factor of three with
S, because the suite draws random signatures.  So that every benchmark seed
audits the same amount of work, the workload only uses CLI seeds whose audit
builds a number of table rows (rows passed to ``FnTable.from_map``, a
deterministic count) inside CLOSURE_ROWS and whose peak RSS lies inside
CLOSURE_RSS_MIB.  For each CLI seed this script runs the CLI as the
benchmark does: once under the tracer, for the row count, and, if that is
inside the window, once untraced, for the peak RSS.  It prints the seeds
inside both windows; the result is committed as ``CLOSURE_POOL`` in
workloads.py.  The rows depend on the order in which ``funlog.gen`` draws,
so the pool must be chosen again whenever that order changes (the traced
run of closure-audit reports a mismatch then).

    python3 perfbench/closure_pool.py [CLI-SEED ...]   (default: 0 to 199)
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import run
from workloads import CLOSURE_N, CLOSURE_ROWS, CLOSURE_RSS_MIB


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("seeds", type=int, nargs="*", default=range(200))
    args = ap.parse_args()
    os.makedirs(run.WORK, exist_ok=True)
    pool = []
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        runner = run.Runner("closure-audit", 0, tmp, committed=False)
        stats = os.path.join(tmp, "stats.json")
        for s in args.seeds:
            cli_args = ["fuzz", "closure", "--n", str(CLOSURE_N), "--seed", str(s)]
            code, _, _, _, stdout = runner.cli(cli_args, stats)
            if code or json.loads(stdout)["failures"]:
                raise SystemExit(f"seed {s}: exit {code}, {stdout}")
            with open(stats) as fh:
                rows = json.load(fh)["extras"]["from_map.rows"]
            rss = None
            if CLOSURE_ROWS[0] <= rows <= CLOSURE_ROWS[1]:
                rss = runner.cli(cli_args)[3] / 1024
            inside = rss is not None and CLOSURE_RSS_MIB[0] <= rss <= CLOSURE_RSS_MIB[1]
            print(f"{s} {rows} {'-' if rss is None else f'{rss:.2f}'}"
                  f"{' *' if inside else ''}", flush=True)
            if inside:
                pool.append(s)
    print("CLOSURE_POOL =", tuple(pool))
    return 0


if __name__ == "__main__":
    sys.exit(main())
