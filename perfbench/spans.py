"""Per-layer tracing for the benchmark, applied from outside the program.

``Recorder.install`` wraps the twinwalk functions listed in ``TARGETS``.  The
modules bind names with ``from ... import``, so a wrapper replaces every
binding of the original function object in every loaded ``twinwalk``
module, not only the defining one.  A target that no longer exists is
reported as absent instead of failing the run, so the benchmark keeps working
while refactors delete or move functions.

Each call records a span ``[name, start, end, parent, counts]`` in memory;
``counts`` holds work counts computed from the call's arguments and result.
``layer_metrics`` turns a list of spans into the ``per_layer`` metrics.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _utf8_len(text) -> int:
    return len(text.encode("utf-8"))


#: (span name, module, function, counter).  A counter maps (args, kwargs,
#: result) to work counts; counts depend only on inputs and outputs, so two
#: traced runs of the same job give identical counts.
TARGETS = (
    ("experiment.run_timeline", "twinwalk.experiment", "run_timeline",
     lambda a, k, r: {"experiment.steps": len(r)}),
    ("experiment.single_walker", "twinwalk.experiment", "single_walker_distribution", None),
    ("experiment.single_walker", "twinwalk.experiment", "symmetry_report", None),
    ("evolution.step", "twinwalk.evolution", "step",
     lambda a, k, r: {"evolution.sites": len(_arg(a, k, 0, "state").amps)}),
    ("evolution.evolve_single", "twinwalk.evolution", "evolve_single",
     lambda a, k, r: {"evolution.evolve_single.snapshots": len(r)}),
    ("measurement.probabilities", "twinwalk.measurement", "outcome_probabilities", None),
    ("measurement.project", "twinwalk.measurement", "post_measurement",
     lambda a, k, r: {"measurement.branch_sites": len(r.amps)}),
    ("entanglement.spectrum", "twinwalk.entanglement", "schmidt_spectrum",
     lambda a, k, r: {
         "entanglement.kept": len(r),
         "entanglement.branch_sites": len(_arg(a, k, 0, "branch").amps),
     }),
    ("entanglement.entropy", "twinwalk.entanglement", "von_neumann_entropy", None),
    ("render.csv", "twinwalk.render", "render_timeline_csv",
     lambda a, k, r: {"render.csv.bytes": _utf8_len(r)}),
    ("render.write", "twinwalk.render", "write_text_atomic",
     lambda a, k, r: {"render.write.bytes": _utf8_len(_arg(a, k, 1, "text"))}),
    ("figures.build", "twinwalk.figures", "build_figure_bundle", None),
    ("figures.write", "twinwalk.figures", "write_figure_bundle", None),
    ("states.norm", "twinwalk.states", "norm", None),
    ("states.parity", "twinwalk.states", "parity_ok", None),
    ("states.distribution", "twinwalk.states", "position_distribution", None),
    ("oracle.dense", "twinwalk.oracle", "dense_evolve",
     lambda a, k, r: {"oracle.dense.elements": int(r.amplitudes.size)}),
    ("oracle.reduced_entropy", "twinwalk.oracle", "reduced_entropy", None),
    ("oracle.path_sum", "twinwalk.oracle", "path_sum_table", None),
    ("verification.run_checks", "twinwalk.verification", "run_checks",
     lambda a, k, r: {
         "verification.checks": len(r),
         "verification.failed_checks": sum(not check.passed for check in r),
     }),
)


class Recorder:
    """Collects spans in memory; one recorder per traced job."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.counter_errors: set[str] = set()
        self._stack: list[int] = []

    def install(self, targets=TARGETS) -> None:
        """Wrap each target at all of its bindings; record missing ones."""
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "twinwalk" or name.startswith("twinwalk."))
        ]
        for span, module_name, function, counter in targets:
            original = getattr(sys.modules.get(module_name), function, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{function}")
                continue
            wrapper = self._wrap(span, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, span, original, counter):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = self.open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(record)
            if counter is not None:
                try:
                    record[4] = counter(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    self.counter_errors.add(span)
            return result

        return wrapper

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "absent": self.absent,
            "counter_errors": sorted(self.counter_errors),
        }


class _Totals:
    """Per-span-name and per-layer sums over one job's spans."""

    def __init__(self, spans: list[list]) -> None:
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        for index, (name, start, end, parent, counts) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.self_time[name.split(".")[0]] += duration - covered[index]
            if not self._nested_in_itself(spans, index):
                self.busy[name] += duration
            if counts:
                self.counts.update(counts)

    @staticmethod
    def _nested_in_itself(spans, index) -> bool:
        name = spans[index][0]
        parent = spans[index][3]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: name, unit, better, value from _Totals.  A layer that did not run on a
#: workload reads 0 there.
PER_LAYER = (
    ("cli.self_s", "s", "lower", lambda t: t.self_time["cli"]),
    ("experiment.run_timeline.calls", "count", "lower",
     lambda t: t.calls["experiment.run_timeline"]),
    ("experiment.run_timeline.busy_s", "s", "lower",
     lambda t: t.busy["experiment.run_timeline"]),
    ("experiment.self_s", "s", "lower", lambda t: t.self_time["experiment"]),
    ("experiment.steps", "count", "lower", lambda t: t.counts["experiment.steps"]),
    ("experiment.single_walker.busy_s", "s", "lower",
     lambda t: t.busy["experiment.single_walker"]),
    ("evolution.step.calls", "count", "lower", lambda t: t.calls["evolution.step"]),
    ("evolution.step.busy_s", "s", "lower", lambda t: t.busy["evolution.step"]),
    ("evolution.sites", "count", "lower", lambda t: t.counts["evolution.sites"]),
    ("evolution.ns_per_site", "ns", "lower",
     lambda t: _ratio(t.busy["evolution.step"] * 1e9, t.counts["evolution.sites"])),
    ("evolution.evolve_single.busy_s", "s", "lower",
     lambda t: t.busy["evolution.evolve_single"]),
    ("evolution.evolve_single.snapshots", "count", "lower",
     lambda t: t.counts["evolution.evolve_single.snapshots"]),
    ("measurement.probabilities.calls", "count", "lower",
     lambda t: t.calls["measurement.probabilities"]),
    ("measurement.probabilities.busy_s", "s", "lower",
     lambda t: t.busy["measurement.probabilities"]),
    ("measurement.project.calls", "count", "lower",
     lambda t: t.calls["measurement.project"]),
    ("measurement.project.busy_s", "s", "lower",
     lambda t: t.busy["measurement.project"]),
    ("measurement.branch_sites", "count", "lower",
     lambda t: t.counts["measurement.branch_sites"]),
    ("measurement.useful_ratio", "ratio", "higher",
     lambda t: _ratio(t.calls["measurement.project"],
                      2 * t.calls["measurement.probabilities"])),
    ("entanglement.spectrum.calls", "count", "lower",
     lambda t: t.calls["entanglement.spectrum"]),
    ("entanglement.spectrum.busy_s", "s", "lower",
     lambda t: t.busy["entanglement.spectrum"]),
    ("entanglement.entropy.calls", "count", "lower",
     lambda t: t.calls["entanglement.entropy"]),
    ("entanglement.entropy.busy_s", "s", "lower",
     lambda t: t.busy["entanglement.entropy"]),
    ("entanglement.kept_ratio", "ratio", "higher",
     lambda t: _ratio(t.counts["entanglement.kept"],
                      t.counts["entanglement.branch_sites"])),
    ("render.csv.busy_s", "s", "lower", lambda t: t.busy["render.csv"]),
    ("render.csv.bytes", "bytes", "lower", lambda t: t.counts["render.csv.bytes"]),
    ("render.write.calls", "count", "lower", lambda t: t.calls["render.write"]),
    ("render.write.busy_s", "s", "lower", lambda t: t.busy["render.write"]),
    ("render.write.bytes", "bytes", "lower", lambda t: t.counts["render.write.bytes"]),
    ("figures.build.busy_s", "s", "lower", lambda t: t.busy["figures.build"]),
    ("figures.self_s", "s", "lower", lambda t: t.self_time["figures"]),
    ("states.norm.calls", "count", "lower", lambda t: t.calls["states.norm"]),
    ("states.norm.busy_s", "s", "lower", lambda t: t.busy["states.norm"]),
    ("states.parity.busy_s", "s", "lower", lambda t: t.busy["states.parity"]),
    ("states.distribution.busy_s", "s", "lower",
     lambda t: t.busy["states.distribution"]),
    ("oracle.dense.calls", "count", "lower", lambda t: t.calls["oracle.dense"]),
    ("oracle.dense.busy_s", "s", "lower", lambda t: t.busy["oracle.dense"]),
    ("oracle.dense.elements", "count", "lower",
     lambda t: t.counts["oracle.dense.elements"]),
    ("oracle.reduced_entropy.calls", "count", "lower",
     lambda t: t.calls["oracle.reduced_entropy"]),
    ("oracle.reduced_entropy.busy_s", "s", "lower",
     lambda t: t.busy["oracle.reduced_entropy"]),
    ("oracle.path_sum.calls", "count", "lower", lambda t: t.calls["oracle.path_sum"]),
    ("oracle.path_sum.busy_s", "s", "lower", lambda t: t.busy["oracle.path_sum"]),
    ("verification.checks", "count", "higher",
     lambda t: t.counts["verification.checks"]),
    ("verification.failed_checks", "count", "lower",
     lambda t: t.counts["verification.failed_checks"]),
    ("verification.self_s", "s", "lower", lambda t: t.self_time["verification"]),
)

#: metrics that must repeat exactly between traced runs of the same inputs
EXACT_UNITS = ("count", "bytes")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every PER_LAYER metric for one traced job."""
    totals = _Totals(spans)
    return {name: value(totals) for name, _, _, value in PER_LAYER}


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several traced jobs of the same inputs.

    Exact counts are taken from the first job, so they stay integers.
    """
    return {
        name: per_job[0][name] if unit in EXACT_UNITS
        else statistics.median(job[name] for job in per_job)
        for name, unit, _, _ in PER_LAYER
    }


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    return {name: v for name, v in metrics.items() if units[name] in EXACT_UNITS}
