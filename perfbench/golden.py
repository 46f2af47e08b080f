"""Regenerate the committed default-seed inputs and their golden results.

    python3 perfbench/golden.py [WORKLOAD ...]

For each workload it generates the inputs for workloads.DEFAULT_SEED, runs
one pass of the CLI on them, checks the seed-independent invariants and
writes the inputs plus ``golden.json`` (the generator's ``meta`` and, per
invocation, the exit code, the report without ``seconds`` and the sha256 of
the emitted file) to ``perfbench/inputs/<workload>/``.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def regenerate(workload: str) -> None:
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        runner = run.Runner(workload, workloads.DEFAULT_SEED, tmp, committed=False)
        inputs = sorted(n for n in os.listdir(tmp)
                        if os.path.isfile(os.path.join(tmp, n)))
        runner.one_pass()
        if runner.failures:
            raise SystemExit(f"{workload}: {runner.failures}")
        dest = os.path.join(run.INPUTS, workload)
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        for name in inputs:
            shutil.copy(os.path.join(tmp, name), dest)
        with open(os.path.join(dest, "golden.json"), "w") as fh:
            json.dump({"meta": runner.meta, "results": runner.results}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    print(f"{workload}: {inputs}")


def main(argv=None) -> int:
    for workload in (argv if argv is not None else sys.argv[1:]) or workloads.WORKLOADS:
        regenerate(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
