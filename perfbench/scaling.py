"""Scaling probe: `solve` and `oracle` at N = 10^2, 10^3 and 10^4.

Not a workload and not part of the per-change runs; run it on demand from
the repository root:

    python3 perfbench/scaling.py

Each (command, N) pair runs ``stickygas.cli.main`` in its own child
process, one child at a time. ``solve`` evaluates one time (t = 1) on a
101-point grid; ``oracle`` simulates to t = 2. The child caps its own
address space to ``MEM_MB`` with RLIMIT_AS before importing numpy, and the
parent kills it after ``BUDGET_S`` seconds. Every size stays in the table: a
run that does not finish is recorded as ``timeout`` or ``memory``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
SIZES = (100, 1000, 10000)
COMMANDS = ("solve", "oracle")
SEED = 0
BUDGET_S = 90.0
MEM_MB = 2048


def child(command: str, n_atoms: int, workdir: str) -> int:
    """Run one command in this process under the address-space cap; print the outcome."""
    import resource

    cap = MEM_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    try:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from stickygas import cli
        from workloads import baseline_config, write_config

        os.makedirs(workdir, exist_ok=True)
        config_path = os.path.join(workdir, "config.json")
        write_config(config_path, baseline_config(n_atoms, SEED, grid_count=101, times=(1.0,)))
        t0 = time.perf_counter()
        rc = cli.main([command, "--config", config_path, "--out", os.path.join(workdir, "out")])
        seconds = time.perf_counter() - t0
    except MemoryError:
        print(json.dumps({"outcome": "memory"}))
        return 1
    print(json.dumps({"outcome": "ok" if rc == 0 else f"exit {rc}", "seconds": seconds}))
    return 0 if rc == 0 else 1


def probe(command: str, n_atoms: int) -> dict:
    workdir = os.path.join(OUT_ROOT, "scaling", f"{command}-n{n_atoms}-{os.getpid()}")
    env = {k: v for k, v in os.environ.items() if not k.startswith("STICKYGAS_")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    argv = [sys.executable, os.path.abspath(__file__), "--child", command, str(n_atoms), workdir]
    row = {"command": command, "n_atoms": n_atoms, "budget_s": BUDGET_S, "mem_mb": MEM_MB}
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        out, err = proc.communicate(timeout=BUDGET_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        row.update(outcome="timeout", wall_s=time.perf_counter() - t0)
    else:
        lines = out.strip().splitlines()
        try:
            row.update(json.loads(lines[-1]))
        except (IndexError, json.JSONDecodeError):
            outcome = "memory" if "MemoryError" in err else f"error (exit {proc.returncode})"
            row.update(outcome=outcome, stderr_tail=err.strip().splitlines()[-3:])
        row["wall_s"] = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    return row


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        return child(argv[1], int(argv[2]), argv[3])
    if argv:
        print(f"usage: python3 {os.path.relpath(__file__)}  (no arguments)", file=sys.stderr)
        return 2

    rows = []
    for n_atoms in SIZES:
        for command in COMMANDS:
            row = probe(command, n_atoms)
            print(json.dumps(row), flush=True)
            rows.append(row)
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, f"scaling-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "rows": rows}, fh, indent=1)
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
