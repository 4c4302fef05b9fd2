"""Per-layer timing and counting wrappers, installed from outside the library.

``install`` replaces every public function of the pushopt layer modules with
a wrapper that times and counts its calls, and rebinds each by-name import of
such a function (``pi_norm`` in ``algorithms``, ``costs``, ``harness`` and
``operators``; ``grad_stack`` in ``algorithms`` and ``operators``;
``induced_pi_norm`` in ``network`` and ``operators``; ``symmetric_extremes``
in ``costs``) to the same wrapper.  The library source is not modified.

Calls above the per-round level are kept as spans with their parent span.
Per-round functions run hundreds of thousands of times, so they are only
aggregated in memory.  Everything is written out once, when the run ends.
Self time is a call's inclusive time minus the time spent in wrapped
callees.
"""

import functools
import importlib
import inspect
import os
import threading
import time

LAYERS = ("network", "linalg", "costs", "operators", "algorithms", "harness", "cli")

# called once per algorithm round or per Picard iteration
PER_ROUND = frozenset({
    "algorithms.gp_step",
    "algorithms.pd_step",
    "algorithms.gp_diverged",
    "algorithms.pd_diverged",
    "costs.grad_stack",
    "linalg.pi_norm",
    "operators.gradient_push_operator",
})

TUNER = "harness.tune_pd_stepsize"


class Recorder:
    """Aggregated call statistics, spans and counters of one traced run."""

    def __init__(self):
        self.stats = {}   # name -> [calls, inclusive seconds, seconds in wrapped callees]
        self.counts = {}
        self.spans = []   # (id, name, parent id, start, end)
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def add(self, name, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)

    def to_dict(self):
        return {
            "stats": {k: {"calls": v[0], "s": v[1], "self_s": v[1] - v[2]}
                      for k, v in self.stats.items()},
            "counts": self.counts,
            "spans": [{"id": i, "name": n, "parent": p, "start": a, "end": b}
                      for i, n, p, a, b in self.spans],
        }


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _on_operator_matrix(rec, fn, args, kwargs, result):
    rec.add("operators.operator_matrix.bytes", result.nbytes)


def _on_solve_fixed_point(rec, fn, args, kwargs, result):
    rec.add("operators.solve_fixed_point.iterations", result.iterations)
    rec.peak("operators.solve_fixed_point.iterations_max", result.iterations)


def _on_gp_run(rec, fn, args, kwargs, result):
    rec.add("algorithms.gp_run.rounds", result.final_state.t)


def _on_pd_run(rec, fn, args, kwargs, result):
    start = _bound(fn, args, kwargs)["init"].t
    rec.add("algorithms.pd_run.rounds", result.final_state.t - start)
    if any(frame[0] == TUNER for frame in rec.stack()):
        # the tuner's own qualification rule, read off the returned trace
        first = result.records[0].sum_z_err
        last = result.last().sum_z_err
        useful = not result.diverged and last == last and last < first
        rec.add("harness.tune.candidates", 1)
        rec.add("harness.tune.qualified", int(useful))


def _on_file_write(rec, fn, args, kwargs, result):
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}.bytes"
    rec.add(name, os.path.getsize(_bound(fn, args, kwargs)["path"]))


def _on_parallel_map(rec, fn, args, kwargs, result):
    rec.add("harness.parallel_map.items", len(result))


OBSERVERS = {
    "operators.operator_matrix": _on_operator_matrix,
    "operators.solve_fixed_point": _on_solve_fixed_point,
    "algorithms.gp_run": _on_gp_run,
    "algorithms.pd_run": _on_pd_run,
    "algorithms.trace_to_csv": _on_file_write,
    "harness.write_csv": _on_file_write,
    "harness.parallel_map": _on_parallel_map,
}


def _wrap(rec, name, fn):
    per_round = name in PER_ROUND
    observe = OBSERVERS.get(name)
    stats = rec.stats.setdefault(name, [0, 0.0, 0.0])
    clock = time.perf_counter
    lock = rec._lock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack()
        parent = stack[-1] if stack else None
        span = None
        if not per_round:
            with lock:
                span = len(rec.spans)
                rec.spans.append(None)
        frame = [name, 0.0, span]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            elapsed = end - start
            if parent is not None:
                parent[1] += elapsed
            with lock:
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[1]
                if span is not None:
                    rec.spans[span] = (span, name, parent[2] if parent else None,
                                       start, end)
        if observe is not None:
            observe(rec, fn, args, kwargs, result)
        return result

    return wrapper


def install(rec):
    """Wrap the public functions of every layer, recording into ``rec``."""
    package = importlib.import_module("pushopt")
    modules = {layer: importlib.import_module(f"pushopt.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[obj] = _wrap(rec, f"{layer}.{attr}", obj)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])


# --- per-layer metrics -----------------------------------------------------

# (metric name, unit), in the order they are reported
LAYER_METRICS = [
    # network
    ("network.generate_digraph.s", "s"),
    ("network.is_strongly_connected.calls", "count"),
    ("network.build_mixing_matrix.s", "s"),
    ("network.build_mixing_matrix.self_s", "s"),
    ("network.compute_perron.s", "s"),
    ("network.validate_network.s", "s"),
    # costs
    ("costs.make_ensemble.s", "s"),
    ("costs.make_ensemble.self_s", "s"),
    ("costs.ensemble_minimizer.s", "s"),
    ("costs.grad_stack.calls", "count"),
    ("costs.grad_stack.s", "s"),
    # linalg
    ("linalg.symmetric_extremes.calls", "count"),
    ("linalg.symmetric_extremes.s", "s"),
    ("linalg.spectral_norm.calls", "count"),
    ("linalg.spectral_norm.s", "s"),
    ("linalg.induced_pi_norm.calls", "count"),
    ("linalg.induced_pi_norm.s", "s"),
    ("linalg.pi_norm.calls", "count"),
    ("linalg.pi_norm.s", "s"),
    # operators
    ("operators.certify.s", "s"),
    ("operators.operator_lipschitz.calls", "count"),
    ("operators.operator_lipschitz.s", "s"),
    ("operators.operator_matrix.bytes", "bytes"),
    ("operators.solve_fixed_point.calls", "count"),
    ("operators.solve_fixed_point.s", "s"),
    ("operators.solve_fixed_point.iterations", "count"),
    ("operators.solve_fixed_point.iterations_max", "count"),
    ("operators.gradient_push_operator.calls", "count"),
    ("operators.gradient_push_operator.s", "s"),
    ("operators.estimate_consensus_constants.s", "s"),
    # algorithms
    ("algorithms.pd_run.calls", "count"),
    ("algorithms.pd_run.rounds", "count"),
    ("algorithms.pd_run.s", "s"),
    ("algorithms.pd_run.self_s", "s"),
    ("algorithms.pd_step.calls", "count"),
    ("algorithms.pd_step.s", "s"),
    ("algorithms.pd_step.us_per_call", "us"),
    ("algorithms.gp_run.calls", "count"),
    ("algorithms.gp_run.rounds", "count"),
    ("algorithms.gp_run.s", "s"),
    ("algorithms.gp_run.self_s", "s"),
    ("algorithms.gp_step.s", "s"),
    ("algorithms.gp_step.us_per_call", "us"),
    ("algorithms.hybrid_run.s", "s"),
    ("algorithms.trace_to_csv.s", "s"),
    ("algorithms.trace_to_csv.bytes", "bytes"),
    # harness
    ("harness.run_scenario.s", "s"),
    ("harness.build_network.s", "s"),
    ("harness.build_ensemble.s", "s"),
    ("harness.tune_pd_stepsize.s", "s"),
    ("harness.tune.candidates", "count"),
    ("harness.tune.s_per_candidate", "s"),
    ("harness.tune.useful_ratio", "ratio"),
    ("harness.parallel_map.items", "count"),
    ("harness.parallel_map.s", "s"),
    ("harness.write_csv.s", "s"),
    ("harness.write_csv.bytes", "bytes"),
    ("harness.artifacts_matching", "count"),
    # cli
    ("cli.cli_main.s", "s"),
    ("trace.overhead_s", "s"),
]

# metrics the observers count, rather than call statistics
COUNTERS = frozenset({
    "operators.operator_matrix.bytes",
    "operators.solve_fixed_point.iterations",
    "operators.solve_fixed_point.iterations_max",
    "algorithms.pd_run.rounds",
    "algorithms.gp_run.rounds",
    "algorithms.trace_to_csv.bytes",
    "harness.write_csv.bytes",
    "harness.parallel_map.items",
    "harness.tune.candidates",
})

# metrics summed over several library functions
_SUMS = {"costs.make_ensemble": ("costs.make_case1_ensemble", "costs.make_case2_ensemble")}


def layer_metrics(trace, artifacts_matching, untraced_wall_s):
    """Every LAYER_METRICS value, from one traced run's ``Recorder.to_dict()``."""
    stats, counts = trace["stats"], trace["counts"]

    def stat(name, field):
        parts = _SUMS.get(name, (name,))
        return sum(stats.get(p, {}).get(field, 0) for p in parts)

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "algorithms.pd_step.us_per_call": 1e6 * ratio(stat("algorithms.pd_step", "s"),
                                                      stat("algorithms.pd_step", "calls")),
        "algorithms.gp_step.us_per_call": 1e6 * ratio(stat("algorithms.gp_step", "s"),
                                                      stat("algorithms.gp_step", "calls")),
        "harness.tune.s_per_candidate": ratio(stat(TUNER, "s"),
                                              counts.get("harness.tune.candidates", 0)),
        "harness.tune.useful_ratio": ratio(counts.get("harness.tune.qualified", 0),
                                           counts.get("harness.tune.candidates", 0)),
        "harness.artifacts_matching": artifacts_matching,
        "trace.overhead_s": stat("cli.cli_main", "s") - untraced_wall_s,
    }
    out = {}
    for metric, unit in LAYER_METRICS:
        if metric in derived:
            value = derived[metric]
        elif metric in COUNTERS:
            value = counts.get(metric, 0)
        else:
            name, field = metric.rsplit(".", 1)
            value = stat(name, field)
        out[metric] = {"value": value, "unit": unit}
    return out
