"""Spans around the program's public entry points, for the traced run.

``install`` wraps every entry point where it is bound: a function in each
``repro`` module that holds a reference to it (``cosim/session.py`` binds
``compile_system`` at import, so wrapping ``repro.ir.syscompile`` alone
would miss the calls that matter), and a method on its class.  Each call
records a span ``[name, start, end, parent, op]`` in memory; the spans are
written out when the run ends.  A span's self time is its duration minus
the durations of its children, so the self times of all spans of an op
add up to the op's time, and every second of the traced loop belongs to
exactly one layer.  The layer is the span name's prefix, named after the
program's modules.
"""

import importlib
import json
import sys
import time
from collections import defaultdict

#: (module, function, span): wrapped in every ``repro`` module binding it.
FUNCTIONS = (
    ("repro.testkit.models", "generate_system", "testkit.generate_system"),
    ("repro.testkit.oracles", "cosim_fingerprint", "testkit.cosim_fingerprint"),
    ("repro.lint.engine", "lint_model", "lint.lint_model"),
    ("repro.ir.compile", "compile_fsm", "ir.compile_fsm"),
    ("repro.ir.syscompile", "compile_system", "ir.compile_system"),
    ("repro.cosyn.hw_synthesis", "synthesize_hardware",
     "cosyn.synthesize_hardware"),
    ("repro.cosyn.sw_synthesis", "synthesize_software",
     "cosyn.synthesize_software"),
)

#: (module, class, method, span): wrapped on the class.
METHODS = (
    ("repro.testkit.models", "GeneratedSystem", "build_model",
     "testkit.build_model"),
    ("repro.cosim.session", "CosimSession", "build", "cosim.build"),
    ("repro.cosim.session", "CosimSession", "run", "cosim.run"),
    ("repro.cosim.session", "CosimSession", "run_until_software_done",
     "cosim.run"),
    ("repro.sweep.cache", "ArtifactCache", "get", "sweep.cache_get"),
    ("repro.sweep.cache", "ArtifactCache", "put", "sweep.cache_put"),
    ("repro.sweep.service", "SweepService", "run", "sweep.service"),
    ("repro.cosyn.flow", "CosynthesisFlow", "run", "cosyn.flow"),
    ("repro.dse.explorer", "DesignSpaceExplorer", "explore", "dse.explore"),
)

#: Imported before patching, so that every module binding a wrapped
#: function exists when the bindings are replaced.
MODULES = ("repro.sweep", "repro.testkit", "repro.cosim", "repro.cosyn",
           "repro.dse.explorer", "repro.lint", "repro.ir.syscompile")

KERNEL_COUNTS = ("delta_cycles", "process_runs", "time_points")


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        #: ``[name, start, end, parent index or -1, op or None]``.
        self.spans = []
        #: Counts taken at the same boundaries, e.g. kernel statistics.
        self.counts = defaultdict(int)
        #: Calls per span name that raised, in timed ops.
        self.errors = defaultdict(int)
        self.op = None
        self._stack = []

    def call(self, name, func, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return func(*args, **kwargs)
        except BaseException:
            if self.op is not None:
                self.errors[name] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key, amount):
        """Add to a count; only timed ops count, not the warm-up."""
        if self.op is not None:
            self.counts[key] += amount

    def root(self, name, op, func, *args):
        """Run ``func(*args)`` as the root span of op number *op*."""
        self.op = op
        try:
            return self.call(name, func, *args)
        finally:
            self.op = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


def _wrap_function(tracer, name, func):
    def wrapper(*args, **kwargs):
        return tracer.call(name, func, *args, **kwargs)

    wrapper.__wrapped__ = func
    return wrapper


def _wrap_session_run(tracer, name, func):
    # Kernel statistics and tier counters are cumulative per session, and
    # long_cosim restores its sessions between episodes: count the delta
    # of each call.
    def wrapper(session, *args, **kwargs):
        stats = dict(session.simulator.statistics)
        fsm = session.fsm_counters()
        result = tracer.call(name, func, session, *args, **kwargs)
        for key in KERNEL_COUNTS:
            tracer.count("desim." + key, result.statistics[key] - stats[key])
        after = result.fsm_counters
        tracer.count("ir.fused_steps", after["system_compile_hits"]
                     - fsm["system_compile_hits"])
        tracer.count("ir.fallback_steps",
                     after["fallback"] - fsm["fallback"]
                     + after["system_fallback"] - fsm["system_fallback"])
        return result

    return wrapper


def _wrap_cache_get(tracer, name, func):
    def wrapper(cache, key):
        payload = tracer.call(name, func, cache, key)
        tracer.count("sweep.cache_gets", 1)
        tracer.count("sweep.cache_hits", payload is not None)
        return payload

    return wrapper


def _wrap_explore(tracer, name, func):
    def wrapper(explorer, *args, **kwargs):
        report = tracer.call(name, func, explorer, *args, **kwargs)
        tracer.count("dse.evaluated", len(report.scores))
        return report

    return wrapper


_SPECIAL = {
    ("CosimSession", "run"): _wrap_session_run,
    ("CosimSession", "run_until_software_done"): _wrap_session_run,
    ("ArtifactCache", "get"): _wrap_cache_get,
    ("DesignSpaceExplorer", "explore"): _wrap_explore,
}


def install(tracer):
    """Import the program and wrap every entry point; returns *tracer*."""
    for module in MODULES:
        importlib.import_module(module)
    program = [module for name, module in sys.modules.items()
               if name == "repro" or name.startswith("repro.")]
    for module_name, attr, span in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _wrap_function(tracer, span, original)
        for module in program:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
    for module_name, class_name, method, span in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        wrap = _SPECIAL.get((class_name, method), _wrap_function)
        setattr(cls, method, wrap(tracer, span, getattr(cls, method)))
    return tracer


#: Per-layer metrics: name -> (unit, better).  Times are self times in
#: ms per op and counts are per op, unless the unit names another base.
LAYER_METRICS = {
    "testkit.build_model_calls": ("count/op", "lower"),
    "testkit.generate_ms": ("ms/op", "lower"),
    "testkit.fingerprint_ms": ("ms/op", "lower"),
    "lint.calls": ("count/op", "lower"),
    "lint.ms": ("ms/op", "lower"),
    "ir.compile_fsm_calls": ("count/op", "lower"),
    "ir.compile_fsm_ms": ("ms/op", "lower"),
    "ir.compile_system_calls": ("count/op", "lower"),
    "ir.compile_system_ms": ("ms/op", "lower"),
    "ir.compile_system_errors": ("count/op", "lower"),
    "ir.fused_steps": ("count/op", "higher"),
    "ir.fallback_steps": ("count/op", "lower"),
    "cosim.build_ms": ("ms/op", "lower"),
    "cosim.run_ms": ("ms/op", "lower"),
    "desim.delta_cycles": ("count/op", "lower"),
    "desim.process_runs": ("count/op", "lower"),
    "desim.time_points": ("count/op", "lower"),
    "desim.us_per_delta": ("us/delta", "lower"),
    "sweep.service_ms": ("ms/op", "lower"),
    "sweep.cache_get_ms": ("ms/op", "lower"),
    "sweep.cache_put_ms": ("ms/op", "lower"),
    "sweep.cache_hit_ratio": ("ratio", "higher"),
    "cosyn.flow_ms": ("ms/op", "lower"),
    "cosyn.hw_synthesis_ms": ("ms/op", "lower"),
    "cosyn.sw_synthesis_ms": ("ms/op", "lower"),
    "dse.explore_ms": ("ms/op", "lower"),
    "dse.evaluated": ("count/op", "higher"),
    "dse.ms_per_candidate": ("ms/candidate", "lower"),
    "bench.ms": ("ms/op", "lower"),
    "error_rate": ("ratio", "lower"),
    "probe.defect_failures": ("count", "lower"),
    "trace.attributed_pct": ("%", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "host.ref_ms": ("ms", "lower"),
    "host.factor": ("ratio", "lower"),
    "wall.ops_per_s": ("1/s", "higher"),
    "wall.op_p50_ms": ("ms", "lower"),
    "wall.op_p90_ms": ("ms", "lower"),
}


def summarize(tracer, ops, wall_s):
    """Per-layer metrics and layer shares of one traced loop.

    Only spans of timed ops count (the warm-up op carries no op number).
    *wall_s* is the traced loop's wall time.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    own = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    for index, (name, start, end, parent, op) in enumerate(spans):
        if op is None:
            continue
        own[name] += end - start - child[index]
        total[name] += end - start
        calls[name] += 1
    counts = tracer.counts

    def ms(*names):
        return 1000.0 * sum(own[name] for name in names) / ops

    def per_op(value):
        return value / ops

    deltas = counts["desim.delta_cycles"]
    evaluated = counts["dse.evaluated"]
    gets = counts["sweep.cache_gets"]
    metrics = {
        "testkit.build_model_calls": per_op(calls["testkit.build_model"]),
        "testkit.generate_ms": ms("testkit.generate_system"),
        "testkit.fingerprint_ms": ms("testkit.cosim_fingerprint"),
        "lint.calls": per_op(calls["lint.lint_model"]),
        "lint.ms": ms("lint.lint_model"),
        "ir.compile_fsm_calls": per_op(calls["ir.compile_fsm"]),
        "ir.compile_fsm_ms": ms("ir.compile_fsm"),
        "ir.compile_system_calls": per_op(calls["ir.compile_system"]),
        "ir.compile_system_ms": ms("ir.compile_system"),
        "ir.compile_system_errors": per_op(tracer.errors["ir.compile_system"]),
        "ir.fused_steps": per_op(counts["ir.fused_steps"]),
        "ir.fallback_steps": per_op(counts["ir.fallback_steps"]),
        "cosim.build_ms": ms("cosim.build"),
        "cosim.run_ms": ms("cosim.run"),
        "desim.delta_cycles": per_op(deltas),
        "desim.process_runs": per_op(counts["desim.process_runs"]),
        "desim.time_points": per_op(counts["desim.time_points"]),
        "desim.us_per_delta": (1e6 * own["cosim.run"] / deltas
                               if deltas else 0.0),
        "sweep.service_ms": ms("sweep.service"),
        "sweep.cache_get_ms": ms("sweep.cache_get"),
        "sweep.cache_put_ms": ms("sweep.cache_put"),
        "sweep.cache_hit_ratio": (counts["sweep.cache_hits"] / gets
                                  if gets else 0.0),
        "cosyn.flow_ms": ms("cosyn.flow"),
        "cosyn.hw_synthesis_ms": ms("cosyn.synthesize_hardware"),
        "cosyn.sw_synthesis_ms": ms("cosyn.synthesize_software"),
        "dse.explore_ms": ms("dse.explore"),
        "dse.evaluated": per_op(evaluated),
        "dse.ms_per_candidate": (1000.0 * total["dse.explore"] / evaluated
                                 if evaluated else 0.0),
        "bench.ms": ms("bench.op", "bench.check"),
        "trace.attributed_pct": 100.0 * sum(own.values()) / wall_s,
    }
    shares = defaultdict(float)
    for name, seconds in own.items():
        shares[name.split(".")[0]] += 100.0 * seconds / wall_s
    return metrics, dict(sorted(shares.items()))
