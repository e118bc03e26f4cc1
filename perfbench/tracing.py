"""Spans around the public entry points of stickygas, recorded from outside it.

The tracer rebinds every public module-level function of the package in
every stickygas namespace that binds it (so ``cli.sample`` and
``euler_poisson.sample`` both record ``euler_poisson.sample``), plus the
methods in ``METHODS``. Private helpers stay untraced; their time lands in
the self time of the traced caller. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from workloads import BRANCH_TAGS

MODULES = (
    "measure",
    "potentials",
    "euler_poisson",
    "drift",
    "oracle",
    "relax",
    "validate",
    "instances",
    "cli",
)

# (module, class, method, span name)
METHODS = (
    ("measure", "InitialData", "from_atoms", "measure.from_atoms"),
    ("potentials", "PrefixFrame", "__init__", "potentials.frame_build"),
    ("potentials", "PrefixFrame", "argmin", "potentials.argmin"),
    ("potentials", "PrefixFrame", "argmin_grid", "potentials.argmin_grid"),
    ("oracle", "Trajectory", "state_at", "oracle.state_at"),
)

# span name -> (counter name, f(args, result) -> amount added per call)
COUNTERS = {
    "potentials.argmin_grid": (
        "potentials.argmin_grid.cells",
        lambda args, result: len(args[1]) * args[0].P.size,
    ),
    "oracle.simulate_ep": ("oracle.events", lambda args, result: len(result.events)),
    "cli.write_csv": ("cli.csv_bytes", lambda args, result: os.path.getsize(args[0])),
}

# entry points whose call count and inclusive time are reported
ENTRY_POINTS = (
    "measure.from_atoms",
    "potentials.frame_build",
    "potentials.argmin",
    "potentials.argmin_grid",
    "potentials.minimize_Fbar",
    "euler_poisson.sample",
    "euler_poisson.eval_u",
    "euler_poisson.eval_E",
    "euler_poisson.eval_m_grid",
    "euler_poisson.cluster_snapshot",
    "drift.eval_mbar_grid",
    "drift.drift_cluster_snapshot",
    "relax.convergence_study",
    "oracle.simulate_ep",
    "oracle.state_at",
    "oracle.oracle_cdf",
    "validate.check_weak_form",
    "validate.check_oleinik",
    "validate.check_initial_continuity",
    "validate.check_potential_identities",
    "instances.random_instance",
    "instances.sample_times_avoiding_events",
    "cli.main",
    "cli.cmd_solve",
    "cli.cmd_oracle",
    "cli.cmd_compare",
    "cli.cmd_relax",
    "cli.cmd_validate",
    "cli.cmd_plot",
    "cli.write_csv",
)

TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
    "trace.spans": "count",
}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in ENTRY_POINTS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units["potentials.argmin_grid.cells"] = "count"
    units["oracle.events"] = "count"
    units["validate.quadrature_nodes"] = "count"
    units["cli.csv_bytes"] = "B"
    for tag in BRANCH_TAGS:
        units[f"euler_poisson.branch.{tag}"] = "count"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    units.update(TRACE_METRICS)
    return units


class Tracer:
    """Records [name, start, end, parent index] spans of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def _rebind(self, owner, attr, original, new):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"stickygas.{m}") for m in MODULES]
        wrappers = {}
        for namespace in [sys.modules["stickygas"], *modules]:
            for attr, obj in list(vars(namespace).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__name__.startswith("_")
                    or not obj.__module__.startswith("stickygas.")
                ):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(name, obj)
                self._rebind(namespace, attr, obj, wrappers[obj])
        for module, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(f"stickygas.{module}"), cls_name)
            raw = vars(cls)[method]
            if isinstance(raw, classmethod):
                self._rebind(cls, method, raw, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._rebind(cls, method, raw, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts, wall_s: float) -> dict:
    """Per-layer values of one traced command sequence lasting ``wall_s``.

    Module self times plus ``trace.remainder_s`` (time outside every span)
    add up to ``wall_s``.
    """
    selfs = self_times(spans)
    calls = Counter()
    inclusive = defaultdict(float)
    module_self = dict.fromkeys(MODULES, 0.0)
    under_weak_form = [False] * len(spans)
    root_time = 0.0
    for i, ((name, start, end, parent), own) in enumerate(zip(spans, selfs)):
        calls[name] += 1
        inclusive[name] += end - start
        module_self[name.partition(".")[0]] += own
        if parent < 0:
            root_time += end - start
        else:
            under_weak_form[i] = under_weak_form[parent] or spans[parent][0] == "validate.check_weak_form"
    metrics = {}
    for name in ENTRY_POINTS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = inclusive[name]
    for counter, _ in COUNTERS.values():
        metrics[counter] = counts.get(counter, 0)
    metrics["validate.quadrature_nodes"] = sum(
        1 for (name, *_), under in zip(spans, under_weak_form) if under and name == "oracle.state_at"
    )
    for module, value in module_self.items():
        metrics[f"{module}.self_s"] = value
    metrics["trace.remainder_s"] = wall_s - root_time
    metrics["trace.spans"] = len(spans)
    return metrics


def write_spans(path: str, runs) -> None:
    """Write (run_id, spans) pairs as gzip CSV, times relative to each run's first span."""
    with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write("run_id,span_id,name,start_s,end_s,parent_id\n")
        for run_id, spans in runs:
            t0 = spans[0][1] if spans else 0.0
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{run_id},{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
