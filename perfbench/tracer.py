"""Per-layer tracing of one funlog CLI run, done from outside the program.

``Tracer.install()`` wraps the public functions listed in TARGETS.  funlog's
modules import each other with ``from .x import f``, so a function is bound
in many module namespaces (and in module-level dicts such as
``gen.SUITES``); every such binding of the same function object is replaced
by the wrapper.  Methods are patched on their class.

Every call is counted.  A call is timed unless it is a direct recursive call
of the function whose frame is innermost, so recursive functions such as
``evaluate``, ``print_expr``, ``fv`` or ``size`` are timed at their
outermost frame only.  Self time is a frame's duration minus the time
covered by the frames of other wrapped functions it called.  Only the
coarse boundaries in SPANS keep a span (id, parent, name, start, end);
everything else is aggregated, so memory stays bounded at millions of calls.

Run as a script, it executes one CLI invocation under the tracer and writes
the counts, self times, extras and spans as JSON:

    python3 perfbench/tracer.py STATS.json -- --json check theory.flt long.flp
"""
from __future__ import annotations

import importlib
import json
import sys
import time

LAYERS = ("signature", "syntax", "subst", "calculus", "semantics", "henkin",
          "fileio", "gen", "cli")

TARGETS = (
    "syntax.parse_expr", "syntax.print_expr", "syntax.mk", "syntax.size",
    "syntax.in_class",
    "signature.variable_sort", "signature.fresh_vars",
    "subst.fv", "subst.substitute", "subst.substitutable",
    "calculus.check_proof", "calculus.check_axiom_instance",
    "calculus.is_tautology",
    "semantics.evaluate", "semantics.satisfies", "semantics.FnTable.from_map",
    "semantics.FnTable.fix", "semantics.FnTable.apply",
    "semantics.Structure.full_space", "semantics.check_closure",
    "semantics.materialize_selected",
    "henkin.norm", "henkin.order_key", "henkin.ThOracle.decide",
    "henkin.enumerate_exprs", "henkin.build_term_structure",
    "henkin.check_cm_expr", "henkin.check_ded_sat", "henkin.henkin_extend",
    "henkin.special_constant",
    "fileio.parse_proof", "fileio.parse_theory", "fileio.parse_structure",
    "fileio.print_theory", "fileio.print_structure", "fileio.save",
    "gen.suite_closure", "gen.rand_structure_signature",
    "gen.rand_full_structure",
    "cli.cmd_check", "cli.cmd_fuzz", "cli.cmd_henkin", "cli.cmd_termmodel",
)

SPANS = frozenset({
    "cli.cmd_check", "cli.cmd_fuzz", "cli.cmd_henkin", "cli.cmd_termmodel",
    "calculus.check_proof",
    "henkin.build_term_structure", "henkin.norm", "semantics.check_closure",
    "henkin.henkin_extend", "fileio.parse_proof", "fileio.parse_theory",
    "fileio.parse_structure", "fileio.print_theory", "fileio.print_structure",
})

# Counters beyond calls and self time; all are deterministic.
EXTRAS = ("is_tautology.assignments", "check_axiom_instance.accepted",
          "from_map.rows", "norm.hits", "norm.misses", "norm.decides",
          "norm.provable", "enumerate_exprs.exprs", "bytes_in", "bytes_out")


def count_atoms(phi) -> int:
    """Distinct maximal non-connective subformulas of phi, found by the
    benchmark's own walk (not the kernel's)."""
    from funlog.signature import CONNECTIVES
    seen, todo = set(), [phi]
    while todo:
        e = todo.pop()
        if e.head in CONNECTIVES:
            todo.extend(body for _, body in e.args)
        else:
            seen.add(e)
    return len(seen)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)
        self.extras = dict.fromkeys(EXTRAS, 0)
        self.active = dict.fromkeys(TARGETS, 0)  # live frames, timed or not
        self.stack = []  # timed frames: [name, covered_by_children, span_id]
        self.spans = []  # (id, parent, name, start, end)
        self.wrappers = []
        self._undo = []  # (setter, key, original), see uninstall()
        self._hooks = {
            "calculus.is_tautology": self._is_tautology,
            "calculus.check_axiom_instance": self._check_axiom_instance,
            "semantics.FnTable.from_map": self._from_map,
            "henkin.norm": self._norm,
            "henkin.ThOracle.decide": self._decide,
            "henkin.enumerate_exprs": self._enumerate_exprs,
            "fileio.parse_proof": self._parse,
            "fileio.parse_theory": self._parse,
            "fileio.parse_structure": self._parse,
            "fileio.save": self._save,
        }

    # --- extras: each hook runs the call and records what it observes ------

    def _is_tautology(self, fn, args, kwargs):
        result = fn(*args, **kwargs)  # raises on too many atoms
        if args[0].sort == "pi":  # other sorts are rejected unevaluated
            self.extras["is_tautology.assignments"] += 2 ** count_atoms(args[0])
        return result

    def _check_axiom_instance(self, fn, args, kwargs):
        ok = fn(*args, **kwargs)
        self.extras["check_axiom_instance.accepted"] += bool(ok)
        return ok

    def _from_map(self, fn, args, kwargs):
        self.extras["from_map.rows"] += len(args[-1])
        return fn(*args, **kwargs)

    def _norm(self, fn, args, kwargs):
        cache = args[0].norm_cache
        before = len(cache)
        result = fn(*args, **kwargs)
        self.extras["norm.hits" if len(cache) == before else "norm.misses"] += 1
        return result

    def _decide(self, fn, args, kwargs):
        verdict = fn(*args, **kwargs)
        if self.active["henkin.norm"]:
            self.extras["norm.decides"] += 1
            self.extras["norm.provable"] += verdict == "provable"
        return verdict

    def _enumerate_exprs(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        self.extras["enumerate_exprs.exprs"] += len(result)
        return result

    def _parse(self, fn, args, kwargs):
        self.extras["bytes_in"] += len(args[0].encode())
        return fn(*args, **kwargs)

    def _save(self, fn, args, kwargs):
        self.extras["bytes_out"] += len(args[1].encode())
        return fn(*args, **kwargs)

    # --- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        calls, active, stack, clock = self.calls, self.active, self.stack, time.perf_counter
        self_s, spans = self.self_s, self.spans
        hook = self._hooks.get(name)
        keep_span = name in SPANS

        def call(*args, **kwargs):
            calls[name] += 1
            active[name] += 1
            try:
                if stack and stack[-1][0] == name:  # direct recursion
                    return hook(fn, args, kwargs) if hook else fn(*args, **kwargs)
                span_id = len(spans) if keep_span else None
                if keep_span:
                    parent = next((f[2] for f in reversed(stack)
                                   if f[2] is not None), None)
                    spans.append(None)  # reserve the id, filled on exit
                frame = [name, 0.0, span_id]
                stack.append(frame)
                t0 = clock()
                try:
                    return hook(fn, args, kwargs) if hook else fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    self_s[name] += (t1 - t0) - frame[1]
                    if stack:
                        stack[-1][1] += t1 - t0
                    if keep_span:
                        spans[span_id] = (span_id, parent, name, t0, t1)
            finally:
                active[name] -= 1

        call.__wrapped__ = fn
        call.__name__ = getattr(fn, "__name__", name)
        call.__qualname__ = getattr(fn, "__qualname__", name)
        call.__doc__ = getattr(fn, "__doc__", None)
        self.wrappers.append(call)
        return call

    def _replace(self, namespace, key, value):
        """Rebind namespace[key] (a class, module or dict) and remember the
        old value."""
        if isinstance(namespace, dict):
            self._undo.append((namespace.__setitem__, key, namespace[key]))
            namespace[key] = value
        else:
            self._undo.append((lambda k, v, ns=namespace: setattr(ns, k, v),
                               key, namespace.__dict__[key]))
            setattr(namespace, key, value)

    def install(self):
        """Import every funlog layer and replace each binding of every
        target function by its wrapper."""
        mods = [importlib.import_module(f"funlog.{m}") for m in LAYERS]
        for target in TARGETS:
            mod_name, *path = target.split(".")
            mod = importlib.import_module(f"funlog.{mod_name}")
            if len(path) == 2:
                cls = getattr(mod, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(target, raw.__func__))
                else:
                    wrapped = self.wrap(target, raw)
                self._replace(cls, path[1], wrapped)
                continue
            original = getattr(mod, path[0])
            wrapper = self.wrap(target, original)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is original:
                                self._replace(value, k, wrapper)

    def uninstall(self):
        """Restore every binding install() replaced."""
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    def stats(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "extras": self.extras,
                "spans": [s for s in self.spans if s is not None]}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py STATS.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from funlog import cli
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump(tracer.stats(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
