"""Self-checks of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run tests run the real workloads and take a few minutes.
"""
from __future__ import annotations

import cProfile
import importlib
import json
import os
import pstats
import subprocess
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, run.SRC)

TIMING = (".self_s", "trace.overhead_s", "untraced.wall_s")

# The functions that do most of each workload's work: together they must
# take over half of the traced pass.
DOMINANT = {
    "termmodel-mu": ("henkin.norm",),
    "check-proof": ("fileio.parse_proof", "calculus.is_tautology"),
    "closure-audit": ("semantics.check_closure",),
    "henkin-emit": ("fileio.parse_theory", "henkin.henkin_extend"),
}


def bench(*args: str) -> dict:
    out = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *args],
                         cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_committed_inputs_are_the_default_seed_inputs(workload, tmp_path):
    runner = run.Runner(workload, workloads.DEFAULT_SEED, str(tmp_path),
                        committed=False)
    committed = os.path.join(run.INPUTS, workload)
    with open(os.path.join(committed, "golden.json")) as fh:
        assert runner.meta == json.load(fh)["meta"]
    names = sorted(n for n in os.listdir(tmp_path) if os.path.isfile(tmp_path / n))
    assert names == sorted(n for n in os.listdir(committed) if n != "golden.json")
    for name in names:
        with open(os.path.join(committed, name)) as fh:
            assert (tmp_path / name).read_text() == fh.read(), name


def test_every_binding_is_wrapped():
    t = tracer.Tracer()
    t.install()
    try:
        originals = {id(getattr(f, "__wrapped__", None)) for f in t.wrappers}
        for layer in tracer.LAYERS:
            mod = importlib.import_module(f"funlog.{layer}")
            for key, value in vars(mod).items():
                assert id(value) not in originals, f"{layer}.{key}"
                if type(value) is dict:
                    for k, v in value.items():
                        assert id(v) not in originals, f"{layer}.{key}[{k!r}]"
    finally:
        t.uninstall()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (bench("--workload", workload, "--trace", "1") for _ in range(2))
    assert first["correct"] and second["correct"]

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if not k.endswith(TIMING)}

    assert counts(first) == counts(second)


def inclusive_s(doc: dict, name: str) -> float:
    """Time spent inside the outermost calls of a function: from its spans
    if it keeps them, else its self time."""
    if name not in tracer.SPANS:
        return doc["metrics"][f"{name}.self_s"]
    total = 0.0
    for inv in doc["spans"]:
        by_id = {span[0]: span for span in inv["spans"]}
        for _, parent, span_name, start, end in inv["spans"]:
            while parent is not None and by_id[parent][2] != name:
                parent = by_id[parent][1]
            if span_name == name and parent is None:
                total += end - start
    return total


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_dominant_layers_do_most_of_the_work(workload):
    bench("--workload", workload, "--trace", "1")
    path = os.path.join(run.WORK, f"trace-{workload}-seed{workloads.DEFAULT_SEED}.json")
    with open(path) as fh:
        doc = json.load(fh)
    share = sum(inclusive_s(doc, f) for f in DOMINANT[workload]) / doc["traced_wall_s"]
    assert share > 0.5, share


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracer_sees_every_function_cprofile_sees(workload, tmp_path):
    """Every listed function that cProfile finds called in the workload has
    nonzero traced calls, so no binding of it was missed."""
    traced = bench("--workload", workload, "--trace", "1")["metrics"]
    runner = run.Runner(workload, workloads.DEFAULT_SEED, str(tmp_path))
    from funlog import cli
    profiled = set()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        for inv in runner.invocations:
            prof = cProfile.Profile()
            prof.runcall(cli.main, ["--json", *inv.args])
            for (path, _, func), row in pstats.Stats(prof).stats.items():
                if "funlog" in path and row[1]:
                    layer = os.path.splitext(os.path.basename(path))[0]
                    profiled.add(f"{layer}.{func}")
    finally:
        os.chdir(cwd)
    for target in tracer.TARGETS:
        if target.startswith("cli."):
            continue
        layer, *_, func = target.split(".")
        if f"{layer}.{func}" in profiled:
            assert traced[f"{target}.calls"]["value"] > 0, target
