"""Seeded benchmark of the stickygas command line.

Run from the repository root:

    python3 perfbench/run.py --workload profile_n1000 --seed 0 --seconds 30 --trace 0

One process imports ``stickygas`` from ``src/`` and calls
``stickygas.cli.main([...])`` command by command, repeating the workload's
command sequence while the next repetition still fits in ``--seconds``
(at least once). ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json as reference-speed times (see speed.py); ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics. The last stdout line is the result
object; the line before it holds the run's metadata, per-command times,
work bases and output digests. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import tracing
from speed import SpeedSampler
from workloads import (
    BRANCH_TAGS,
    WORKLOADS,
    OutputCheck,
    baseline_config,
    check_outputs,
    instance_seeds,
    write_config,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 7
# tolerance of the self-time accounting identity, in seconds
ACCOUNTING_TOL_S = 1e-6
# largest share of a traced pass's wall time allowed outside every span
REMAINDER_MAX_FRAC = 0.01


def git_sha(root: str):
    """HEAD commit read from .git without running git; None outside a clone."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _purge_stickygas() -> None:
    for name in [m for m in sys.modules if m == "stickygas" or m.startswith("stickygas.")]:
        del sys.modules[name]


def set_up(workload, seed: int, run_dir: str, sampler: SpeedSampler):
    """Import stickygas, generate, write and load the configs, several times.

    Returns the set-up regions, the cli module and the (path, config) pairs.
    """
    regions = []
    for _ in range(SETUP_REPEATS):
        _purge_stickygas()
        with sampler.region() as region:
            cli = importlib.import_module("stickygas.cli")
            configs = []
            for i, atom_seed in enumerate(instance_seeds(workload, seed)):
                path = os.path.join(run_dir, f"config{i}.json")
                config = baseline_config(workload.n_atoms, atom_seed, extra=workload.extra)
                write_config(path, config)
                cli.load_config(path)
                configs.append((path, config))
        regions.append(region)
    return regions, cli, configs


def run_sequence(cli, workload, configs, out_dir: str, chk: OutputCheck, cmd_times, sampler=None):
    """One pass of the workload's commands on each config, into clean output directories.

    Returns the wall time, and the reference time when a sampler is given.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dirs = [os.path.join(out_dir, str(i)) for i in range(len(configs))]
    for path in out_dirs:
        os.makedirs(path)
    gc.collect()
    with sampler.region() if sampler else contextlib.nullcontext() as region:
        t0 = perf_counter()
        for (config_path, _), out in zip(configs, out_dirs):
            for command in workload.commands:
                c0 = perf_counter()
                try:
                    rc = cli.main([command, "--config", config_path, "--out", out])
                except Exception as exc:  # an uncaught error is one failed operation
                    rc = f"{type(exc).__name__}: {exc}"
                cmd_times[command].append(perf_counter() - c0)
                chk.op(rc == 0, f"{command}: exit {rc}")
        wall = perf_counter() - t0
    return wall, region.ref_s if region else None


def branch_counts(out_dir: str) -> dict:
    """Velocity branch tags in the solve CSVs of every instance, counted per tag."""
    counts = Counter()
    for instance in os.listdir(out_dir):
        for name in os.listdir(os.path.join(out_dir, instance)):
            if name.startswith("solution_t") and name.endswith(".csv"):
                with open(os.path.join(out_dir, instance, name), encoding="utf-8") as fh:
                    col = fh.readline().strip().split(",").index("branch")
                    counts.update(line.rstrip("\n").split(",")[col] for line in fh)
    return {f"euler_poisson.branch.{tag}": counts[tag] for tag in BRANCH_TAGS}


def wiring_problems(workload, metrics: dict, spans) -> list:
    """Entry points the workload must exercise but did not, and bypassed modules that ran."""
    problems = [
        f"wiring: {name} recorded no call" for name in workload.exercised if metrics[f"{name}.calls"] < 1
    ]
    names = {span[0] for span in spans}
    for module in workload.bypassed:
        hit = sorted(n for n in names if n.startswith(module + "."))
        if hit:
            problems.append(f"wiring: bypassed module {module} recorded {hit}")
    return problems


def traced_sequence(cli, workload, configs, out_dir: str, chk: OutputCheck):
    """One traced pass: its wall time, per-layer metrics and spans, with the trace checked."""
    tracer = tracing.Tracer()
    with tracer.installed():
        wall, _ = run_sequence(cli, workload, configs, out_dir, chk, defaultdict(list))
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, wall)
    metrics.update(branch_counts(out_dir))
    # The identity holds by construction (spans nest); it guards the arithmetic.
    # The remainder check fails when the commands run outside a traced cli.main.
    selfs = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES)
    remainder = metrics["trace.remainder_s"]
    if abs(selfs + remainder - wall) > ACCOUNTING_TOL_S:
        chk.expect(False, f"trace: self times {selfs} + remainder do not add up to wall {wall}")
    chk.expect(remainder <= REMAINDER_MAX_FRAC * wall, f"trace: {remainder} s of {wall} s outside every span")
    for problem in wiring_problems(workload, metrics, tracer.spans):
        chk.expect(False, problem)
    return wall, metrics, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="atom seed of the generated instance")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(SRC, "stickygas", "cli.py")):
        print(f"perfbench: no stickygas sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for key in [k for k in os.environ if k.startswith("STICKYGAS_")]:
        del os.environ[key]

    workload = WORKLOADS[args.workload]
    meta = {
        "workload": workload.name,
        "atom_seeds": instance_seeds(workload, args.seed),
        "ensemble_seed": workload.extra.get("seed"),
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
    }
    run_dir = os.path.join(OUT_ROOT, f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    out_dir = os.path.join(run_dir, "out")

    sampler = SpeedSampler()
    try:
        setup_regions, cli, configs = set_up(workload, args.seed, run_dir, sampler)
    except ImportError as exc:
        print(f"perfbench: cannot import stickygas: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: stickygas imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    chk = OutputCheck()
    cmd_times = defaultdict(list)
    walls, ref_walls, traced_walls, layer_runs, span_runs = [], [], [], [], []
    # A traced run sandwiches every traced repetition between untraced
    # ones (U T U T U ...), so a slow first repetition does not bias the
    # overhead estimate.
    plan = itertools.chain([False], itertools.cycle([True, False])) if args.trace else itertools.repeat(False)
    start = perf_counter()
    for traced in plan:
        t0 = perf_counter()
        if not traced:
            wall, ref = run_sequence(
                cli, workload, configs, out_dir, chk, cmd_times, None if args.trace else sampler
            )
            walls.append(wall)
            ref_walls.append(ref)
        else:
            wall, metrics, spans = traced_sequence(cli, workload, configs, out_dir, chk)
            traced_walls.append(wall)
            layer_runs.append(metrics)
            span_runs.append((f"{os.path.basename(run_dir)}-rep{len(span_runs)}", spans))
        check_outputs(workload, configs, out_dir, chk)
        out_of_time = perf_counter() - start + (perf_counter() - t0) > args.seconds
        if out_of_time and not traced and len(traced_walls) >= args.trace:
            break

    if args.trace:
        units = tracing.per_layer_units()
        values = {name: statistics.median(run[name] for run in layer_runs) for name in units if name in layer_runs[0]}
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.untraced_wall_s"] = statistics.median(walls)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        tracing.write_spans(os.path.join(run_dir, "spans.csv.gz"), span_runs)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(ref_walls), "unit": "s"},
            "setup_s": {"value": statistics.median(r.ref_s for r in setup_regions), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    detail = {
        "meta": meta,
        "repetitions": len(walls),
        "raw_wall_s": walls,
        "ref_wall_s": ref_walls,
        "raw_setup_s": [r.wall_s for r in setup_regions],
        "traced_repetitions": len(traced_walls),
        "command_s": {c: {"median": statistics.median(t), "runs": t} for c, t in cmd_times.items()},
        "work": chk.work,
        "failed_ops_frac": chk.failed / chk.attempted,
        "compare_max_err": chk.compare_max_err,
        "problems": chk.problems,
        "known_defects": chk.known_defects,
        "digests": chk.digests,
    }
    correct = chk.failed == 0 and not chk.problems
    result = {"correct": correct, "attempted": chk.attempted, "failed": chk.failed, "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    shutil.rmtree(out_dir, ignore_errors=True)
    for config_path, _ in configs:
        os.remove(config_path)
    for problem in chk.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, decays in chk.known_defects.items():
        if not decays:
            print(f"perfbench: validate: {name} series does not decay (known defect, not counted)", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
