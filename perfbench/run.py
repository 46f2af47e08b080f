"""Benchmark of the funlog CLI on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program under test is the checkout's
``src/funlog``, run as users run it, ``python -m funlog.cli --json ...``.
The load is a closed loop with one client: one child process at a time,
each waited for before the next starts.

Workloads (see workloads.py for how the seed draws their inputs):

* ``termmodel-mu``  ``termmodel --depth 5`` on the ``mu`` toy; unit: audit
  cases.  ``henkin.norm`` and ``semantics.evaluate`` do the work.
* ``check-proof``   ``check`` on a ~1000-step equality-rule proof, a copy
  with one late step corrupted (must be rejected at that step) and three
  ``taut`` steps of 12, 14 and 16 atoms; unit: proof steps checked.
  Parsing and ``calculus`` do the work.
* ``closure-audit`` ``fuzz closure --n 40``; unit: structures audited.
  ``semantics.check_closure`` and ``FnTable`` do the work.
* ``henkin-emit``   ``henkin --levels 1 --depth 6`` on the ``ca,cb,f`` toy;
  unit: witness constants.  Printing and re-parsing a 2.5 MB theory and
  ``henkin_extend`` do the work.

With ``--trace 0`` the run repeats passes over the workload's invocations
for about ``--seconds`` seconds and reports, over the passes:

* ``wall_s``       median over passes of the summed child wall times,
                   timed with ``time.perf_counter`` from outside, in
                   reference seconds (below);
* ``work_per_s``   median over passes of work units / ``wall_s``;
* ``peak_rss_mb``  the largest peak RSS of any one child (``os.wait4``);
* ``setup_s``      median wall time, in reference seconds, of fresh CLI
                   processes that do no work (``fuzz closure --n 0``):
                   SETUP_RUNS before the first pass and one after every pass.

Reference seconds.  On a small shared virtual machine (a 2-vCPU Intel Xeon
KVM guest) the speed of one CPU switches, many times a second, between two
modes about 1.75x apart, and the share of time in the slow mode drifts over
minutes, so raw wall times of the same work spread by 30% or more from run
to run.  The benchmark therefore measures the CPU's speed while each child
runs: every PROBE_PERIOD_S it times ``probe``, a ~1-ms block of pure-Python
work (no funlog code), and it takes one probe just before and one just
after the child.  A child's time in reference seconds is its wall time, less
the probes' own time, scaled by PROBE_REF_S over the trimmed mean of its
probes: what it would have taken had the CPU run a probe in PROBE_REF_S
throughout.  A change to funlog moves it in proportion to the raw wall time;
a change of the machine's speed cancels out.  The benchmark process and its
children are pinned to one CPU, so that the probes measure the CPU the child
runs on; the probes preempt the child for about 2% of its time.  The raw
times are logged to standard error, and the traced run reports the raw wall
time of its untraced pass as ``untraced.wall_s``.

With ``--trace 1`` it makes one untraced pass and one traced pass, where each
child runs the CLI under tracer.py, and reports per-layer call counts, self
times and counters (PER_LAYER); the spans and all figures are written to
``.perfbench/trace-<workload>-seed<N>.json``.

Every invocation's result (exit code, JSON report without ``seconds``,
sha256 of the emitted file) is checked: against the committed golden results
for the default seed, and against seed-independent invariants for every
seed.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Children run without FLC_DEPTH_DEFAULT and with PYTHONHASHSEED=0: the
structures ``fuzz closure`` draws depend on set iteration order, so without
a fixed hash seed the same ``--seed`` would audit different amounts of work.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(HERE, "inputs")
WORK = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import TARGETS  # noqa: E402

SETUP_RUNS = 7
MIN_PASSES = 2
# The speed probe: its size in tree nodes, how often it runs while a child
# runs, and its time on the machine the benchmark was tuned on (2-vCPU Intel
# Xeon KVM guest, Python 3.11), the speed that reference seconds refer to.
PROBE_NODES = 400
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 0.0008
SETUP_ARGS = ["fuzz", "closure", "--n", "0", "--seed", "0"]

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("work_per_s", "units/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

# (metric, unit, better) for every per-layer metric of a traced run.  The
# cli.cmd_* functions report only self time: the command body's time not
# attributed to any other wrapped function.
PER_LAYER = tuple(
    [(f"{t}.{kind}", unit, "lower") for t in TARGETS
     for kind, unit in (("calls", "count"), ("self_s", "s"))
     if kind == "self_s" or not t.startswith("cli.")]
    + [
        ("calculus.is_tautology.assignments", "count", "lower"),
        ("calculus.check_axiom_instance.accept_ratio", "ratio", "higher"),
        ("semantics.FnTable.from_map.rows", "count", "lower"),
        ("henkin.norm.hit_ratio", "ratio", "higher"),
        ("henkin.norm.decide_per_miss", "ratio", "lower"),
        ("henkin.norm.provable_ratio", "ratio", "higher"),
        ("henkin.enumerate_exprs.exprs", "count", "lower"),
        ("fileio.bytes_in", "bytes", "lower"),
        ("fileio.bytes_out", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("untraced.wall_s", "s", "lower"),
        ("mismatch_ratio", "ratio", "lower"),
    ])

# Which end-to-end metric, on which workload, each traced function should
# move when it gets faster (written into every trace document).
LAYER_MAP = {
    "syntax.parse_expr": ["wall_s@check-proof", "wall_s@henkin-emit"],
    "syntax.print_expr": ["wall_s@termmodel-mu", "wall_s@henkin-emit"],
    "syntax.size": ["wall_s@termmodel-mu", "wall_s@henkin-emit"],
    "syntax.mk": ["wall_s@*", "peak_rss_mb@henkin-emit"],
    "signature.variable_sort": ["wall_s@check-proof", "wall_s@henkin-emit"],
    "signature.fresh_vars": ["wall_s@check-proof", "wall_s@henkin-emit"],
    "subst.*": ["wall_s@termmodel-mu", "wall_s@check-proof"],
    "calculus.*": ["wall_s@check-proof"],
    "semantics.*": ["wall_s@closure-audit", "wall_s@termmodel-mu"],
    "henkin.*": ["wall_s@termmodel-mu"],
    "henkin.henkin_extend": ["wall_s@henkin-emit"],
    "henkin.special_constant": ["wall_s@henkin-emit"],
    "fileio.parse_proof": ["wall_s@check-proof"],
    "fileio.parse_theory": ["wall_s@check-proof", "wall_s@henkin-emit"],
    "fileio.parse_structure": ["wall_s@check-proof"],
    "fileio.print_theory": ["wall_s@henkin-emit"],
    "gen.*": ["wall_s@closure-audit (data generation, not kernel work)"],
}


class _Node:
    __slots__ = ("op", "args", "key")

    def __init__(self, op, args):
        self.op, self.args = op, args
        self.key = hash((op, args))


def _tree(n: int, seen: dict) -> _Node:
    if n <= 1:
        return _Node("x", ())
    k = n // 2
    node = _Node("f" if n & 1 else "g", (_tree(k, seen), _tree(n - 1 - k, seen)))
    seen[node.key] = seen.get(node.key, 0) + 1
    return node


def _size(node: _Node) -> int:
    return 1 + sum(_size(a) for a in node.args)


def probe() -> float:
    """Wall time of a fixed block of pure-Python work of the kind funlog
    does (small objects, hashing, recursion, dicts, strings)."""
    t0 = time.perf_counter()
    seen: dict = {}
    _size(_tree(PROBE_NODES, seen))
    "".join(sorted(str(k) for k in seen))
    return time.perf_counter() - t0


def speed(samples: list[float]) -> float:
    """Mean probe time, without the highest and lowest 5% (a probe that an
    interrupt or a page fault stretched)."""
    k = len(samples) // 20
    return statistics.fmean(sorted(samples)[k:len(samples) - k])


def pin_to_one_cpu() -> None:
    """Run this process, and so every child it starts, on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("FLC_DEPTH_DEFAULT", None)
    return env


class Runner:
    """Spawns CLI children one at a time in a run directory and checks
    every result."""

    def __init__(self, workload: str, seed: int, directory: str,
                 committed: bool = True):
        self.workload, self.seed, self.dir = workload, seed, directory
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.results: dict = {}  # invocation name -> latest result
        self.golden = None
        if committed and seed == workloads.DEFAULT_SEED:
            src = os.path.join(INPUTS, workload)
            with open(os.path.join(src, "golden.json")) as fh:
                recorded = json.load(fh)
            for name in os.listdir(src):
                if name != "golden.json":
                    shutil.copy(os.path.join(src, name), directory)
            self.meta, self.golden = recorded["meta"], recorded["results"]
        else:
            self.meta = self.generate()
        self.invocations = workloads.invocations(workload, self.meta)
        os.makedirs(os.path.join(directory, workloads.OUT_DIR), exist_ok=True)

    def generate(self) -> dict:
        """Write the inputs for a non-default seed, in a child process so
        that generation sees the same hash seed as the runs."""
        code = ("import json, sys, workloads; print(json.dumps("
                "workloads.write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])))")
        env = dict(self.env, PYTHONPATH=os.pathsep.join((SRC, HERE)))
        out = subprocess.run(
            [sys.executable, "-c", code, self.workload, str(self.seed), self.dir],
            env=env, cwd=self.dir, capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    def spawn(self, argv: list[str]):
        """Run one child to completion, probing the machine's speed while it
        runs: (exit code, wall s, reference s, peak RSS KiB, stdout)."""
        out_path = os.path.join(self.dir, "stdout")
        samples = [probe()]
        with open(out_path, "w") as out, open(os.path.join(self.dir, "stderr"), "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.dir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                fd = os.pidfd_open(proc.pid)
                try:  # readable once the child has exited
                    while not select.select([fd], [], [], PROBE_PERIOD_S)[0]:
                        samples.append(probe())
                finally:
                    os.close(fd)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0 - sum(samples[1:])
        samples.append(probe())
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            return (proc.returncode, wall, wall * PROBE_REF_S / speed(samples),
                    usage.ru_maxrss, fh.read())

    def cli(self, args: list[str], stats: str | None = None):
        if stats is None:
            argv = [sys.executable, "-m", "funlog.cli", "--json", *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), stats,
                    "--", "--json", *args]
        return self.spawn(argv)

    def setup_time(self) -> tuple[float, float]:
        """Wall time and reference time of one fresh CLI process that does
        no work."""
        code, wall, ref, _, stdout = self.cli(SETUP_ARGS)
        self.attempted += 1
        try:
            rep = json.loads(stdout)
        except json.JSONDecodeError:
            rep = {}
        if code or rep.get("verdict") != "ok" or rep.get("cases") != 0:
            self.failures.append(f"setup run: exit {code}")
        return wall, ref

    def one_pass(self, traced: bool = False) -> dict:
        """Run every invocation of the workload once; return the summed wall
        and reference times, the work units, the largest peak RSS and, if
        traced, the list of tracer stats files."""
        wall = ref = units = rss = 0
        stats_files = []
        for inv in self.invocations:
            if inv.out and os.path.exists(os.path.join(self.dir, inv.out)):
                os.remove(os.path.join(self.dir, inv.out))
            stats = None
            if traced:
                stats = os.path.join(self.dir, f"stats-{len(stats_files)}.json")
                stats_files.append(stats)
            code, secs, ref_secs, maxrss, stdout = self.cli(inv.args, stats)
            self.attempted += 1
            result = workloads.result_of(inv, code, stdout, self.dir)
            self.results[inv.name] = result
            golden = self.golden[inv.name] if self.golden else None
            why = workloads.mismatch(inv, self.meta, result, golden)
            if why:
                self.failures.append(why)
            wall += secs
            ref += ref_secs
            units += workloads.units(inv, self.meta, result["stable"])
            rss = max(rss, maxrss)
        return {"wall_s": wall, "ref_s": ref, "units": units, "rss_kib": rss,
                "stats": stats_files}


def measure(runner: Runner, seconds: float):
    """At least MIN_PASSES passes, and more until ``seconds`` have elapsed
    (the last pass may overrun), each followed by one set-up run.  Returns
    the end-to-end metrics and, for the log, the raw and reference times of
    the passes and set-up runs."""
    runner.setup_time()  # untimed warm-up, which writes the bytecode caches
    setup = [runner.setup_time() for _ in range(SETUP_RUNS)]
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.one_pass())
        setup.append(runner.setup_time())
    return {
        "wall_s": (statistics.median(p["ref_s"] for p in passes), "s"),
        "work_per_s": (statistics.median(p["units"] / p["ref_s"] for p in passes),
                       "units/s"),
        "peak_rss_mb": (max(p["rss_kib"] for p in passes) / 1024, "MiB"),
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
    }, {"pass_wall_s": [round(p["wall_s"], 3) for p in passes],
        "pass_ref_s": [round(p["ref_s"], 3) for p in passes],
        "setup_wall_s": [round(t, 3) for t, _ in setup],
        "setup_ref_s": [round(r, 3) for _, r in setup]}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(runner: Runner) -> tuple[dict, dict]:
    """One untraced and one traced pass; per-layer metrics and the trace
    document (metrics plus spans)."""
    plain = runner.one_pass()
    pass_ = runner.one_pass(traced=True)
    calls = dict.fromkeys(TARGETS, 0)
    self_s = dict.fromkeys(TARGETS, 0.0)
    ex: dict = {}
    spans = []
    for i, path in enumerate(pass_["stats"]):
        with open(path) as fh:
            st = json.load(fh)
        for t in TARGETS:
            calls[t] += st["calls"][t]
            self_s[t] += st["self_s"][t]
        for k, v in st["extras"].items():
            ex[k] = ex.get(k, 0) + v
        spans.append({"invocation": runner.invocations[i].name,
                      "spans": st["spans"]})
    m = {}
    for t in TARGETS:
        if not t.startswith("cli."):
            m[f"{t}.calls"] = calls[t]
        m[f"{t}.self_s"] = self_s[t]
    m["calculus.is_tautology.assignments"] = ex["is_tautology.assignments"]
    m["calculus.check_axiom_instance.accept_ratio"] = ratio(
        ex["check_axiom_instance.accepted"], calls["calculus.check_axiom_instance"])
    m["semantics.FnTable.from_map.rows"] = ex["from_map.rows"]
    lo, hi = workloads.CLOSURE_ROWS
    if runner.workload == "closure-audit" and not lo <= ex["from_map.rows"] <= hi:
        # the pool was chosen by this count; it moves if funlog.gen draws
        # differently, and then the workload's size class is lost
        runner.failures.append(
            f"closure: {ex['from_map.rows']} table rows, outside CLOSURE_ROWS "
            "(regenerate CLOSURE_POOL with closure_pool.py)")
    norm_calls = ex["norm.hits"] + ex["norm.misses"]
    m["henkin.norm.hit_ratio"] = ratio(ex["norm.hits"], norm_calls)
    m["henkin.norm.decide_per_miss"] = ratio(ex["norm.decides"], ex["norm.misses"])
    m["henkin.norm.provable_ratio"] = ratio(ex["norm.provable"], ex["norm.decides"])
    m["henkin.enumerate_exprs.exprs"] = ex["enumerate_exprs.exprs"]
    m["fileio.bytes_in"] = ex["bytes_in"]
    m["fileio.bytes_out"] = ex["bytes_out"]
    m["trace.overhead_s"] = pass_["wall_s"] - plain["wall_s"]
    m["untraced.wall_s"] = plain["wall_s"]  # raw seconds, not scaled
    m["mismatch_ratio"] = ratio(len(runner.failures), runner.attempted)
    doc = {"workload": runner.workload, "seed": runner.seed,
           "python": platform.python_version(), "cores": os.cpu_count(),
           "layer_map": LAYER_MAP,
           "untraced_wall_s": plain["wall_s"], "traced_wall_s": pass_["wall_s"],
           "metrics": m, "spans": spans}
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {k: (v, units[k]) for k, v in m.items()}, doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit, so children are killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "funlog", "cli.py")):
        print(f"error: no funlog sources under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=WORK)
    try:
        runner = Runner(args.workload, args.seed, run_dir)
        if args.trace:
            metrics, doc = traced(runner)
            path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
        else:
            metrics, raw = measure(runner, args.seconds)
            print(f"{args.workload} seed {args.seed}: {json.dumps(raw)}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for why in runner.failures[:10]:
        print(f"mismatch: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
