"""The committed seed-0 benchmark inputs still give their recorded results.

Every CLI run of the four workloads is made in-process on the inputs
committed under ``perfbench/inputs/<workload>/``, and its exit code, its JSON
report without ``seconds`` and the sha256 of any file it emits must equal the
results recorded in that directory's ``golden.json``.  So a byte of drift in
the kernel's output fails here, and not only in perfbench's own self-tests.
The closure-audit workload (``fuzz closure``) reads no input files: it draws
its structures from the CLI seed recorded in its ``golden.json``.
"""
from __future__ import annotations

import json
import pathlib
import sys

import pytest

from funlog.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))
import workloads  # noqa: E402  (perfbench's invocations and result format)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed0_inputs_give_the_golden_results(workload, tmp_path, monkeypatch, capsys):
    inputs = PERFBENCH / "inputs" / workload
    golden = json.loads((inputs / "golden.json").read_text())
    for path in inputs.iterdir():
        if path.name != "golden.json":
            (tmp_path / path.name).symlink_to(path)
    (tmp_path / workloads.OUT_DIR).mkdir()
    monkeypatch.chdir(tmp_path)
    for inv in workloads.invocations(workload, golden["meta"]):
        code = main(["--json", *inv.args])
        result = workloads.result_of(inv, code, capsys.readouterr().out, str(tmp_path))
        assert result == golden["results"][inv.name], inv.name
