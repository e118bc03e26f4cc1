"""Seeded workload inputs and the checks on what the program writes for them.

Every workload drives ``stickygas.cli.main`` with one generated config file.
The atoms follow the ROADMAP baseline: N positions U(-10, 10) sorted,
masses U(0.01, 2)/N and velocities U(-2, 2), all drawn in that order from
``numpy.random.default_rng(atom_seed)``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# The acceptance ensemble of the ROADMAP; fixed so that `compare` always
# runs the 200 instances the tier-1 acceptance tests were written against.
ENSEMBLE_SEED = 20260810
BRANCH_TAGS = ("vacuum_right", "vacuum_left", "delta_shock", "characteristic")
# check_initial_continuity passes only if the largest deviations of m, q
# and E from their initial prefix values shrink at every halving of t, with
# 5% slack and an absolute floor. The exact solution does not always do
# that: on about half of the N=100 baseline instances the q or E deviation
# grows by 5-30% at one step, and on about 1 in 60 the m deviation grows
# from t=1/2 to t=1/4 (the oracle layer gives the same values). That
# verdict is a known defect of the check; the benchmark reports each
# series' decay in the run's `known_defects`. What it counts instead is the
# part that must hold: m equals its initial prefix values at every level t
# before any atom can reach a continuity point (see `_frozen_until`).
CONTINUITY_REPORT = "initial_continuity_formula"
CONTINUITY_SLACK = 1.05
CONTINUITY_FLOOR = 1e-13
# |m - m0| allowed at frozen levels, relative to the total mass
FROZEN_MASS_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    n_atoms: int
    commands: tuple
    extra: dict = field(default_factory=dict)
    # configs run per repetition, each with its own atom seed
    instances: int = 1
    # traced entry points that must record at least one call
    exercised: tuple = ()
    # modules that must record no span at all
    bypassed: tuple = ()


_FORMULA_MODULES = ("potentials", "euler_poisson", "drift", "relax")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="profile_n1000",
            n_atoms=1000,
            commands=("solve", "relax", "plot"),
            exercised=(
                "measure.from_atoms",
                "potentials.frame_build",
                "potentials.argmin",
                "potentials.argmin_grid",
                "potentials.minimize_Fbar",
                "euler_poisson.sample",
                "drift.eval_mbar_grid",
                "drift.drift_cluster_snapshot",
                "relax.convergence_study",
                "cli.write_csv",
            ),
            bypassed=("oracle",),
        ),
        Workload(
            name="oracle_n1000",
            n_atoms=1000,
            commands=("oracle",),
            exercised=(
                "measure.from_atoms",
                "oracle.simulate_ep",
                "oracle.state_at",
                "cli.write_csv",
            ),
            bypassed=_FORMULA_MODULES,
        ),
        Workload(
            name="verify_ensemble",
            n_atoms=100,
            commands=("compare", "validate"),
            extra={"n_instances": 200, "seed": ENSEMBLE_SEED},
            # validate's work varies by up to 10% with the N=100 instance;
            # three instances per repetition average that out of wall_s
            instances=3,
            exercised=(
                "measure.from_atoms",
                "potentials.frame_build",
                "potentials.argmin",
                "potentials.argmin_grid",
                "euler_poisson.eval_u",
                "euler_poisson.eval_E",
                "euler_poisson.eval_m_grid",
                "euler_poisson.cluster_snapshot",
                "oracle.simulate_ep",
                "oracle.state_at",
                "oracle.oracle_cdf",
                "validate.check_weak_form",
                "validate.check_oleinik",
                "validate.check_initial_continuity",
                "validate.check_potential_identities",
                "instances.random_instance",
                "instances.sample_times_avoiding_events",
                "cli.write_csv",
            ),
        ),
    )
}


def instance_seeds(workload: Workload, seed: int) -> list:
    """Atom seeds of the workload's instances for the benchmark seed ``seed``."""
    return [workload.instances * seed + i for i in range(workload.instances)]


def baseline_config(n_atoms: int, atom_seed: int, grid_count: int = 1001, times=(0.3, 1.0), extra=None) -> dict:
    """The ROADMAP baseline config for N atoms drawn from ``atom_seed``."""
    rng = np.random.default_rng(atom_seed)
    positions = np.sort(rng.uniform(-10.0, 10.0, size=n_atoms))
    masses = rng.uniform(0.01, 2.0, size=n_atoms) / n_atoms
    velocities = rng.uniform(-2.0, 2.0, size=n_atoms)
    config = {
        "version": 1,
        "atoms": [
            {"position": float(p), "mass": float(m), "velocity": float(v)}
            for p, m, v in zip(positions, masses, velocities)
        ],
        "tau": 0.5,
        "times": [float(t) for t in times],
        "x_grid": {"min": -12.0, "max": 12.0, "count": grid_count},
        "t_end": 2.0,
    }
    config.update(extra or {})
    return config


def write_config(path: str, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)


# -- output checks -------------------------------------------------------------


class OutputCheck:
    """Operation counts and problems found in one command sequence's outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.work = {}
        self.compare_max_err = None
        self.digests = None
        self.known_defects = {}

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def expect(self, ok: bool, what: str) -> None:
        """A structural property of the outputs; not an operation."""
        if not ok:
            self.problems.append(what)


def _read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _floats(rows, key):
    return np.array([float(r[key]) for r in rows])


def file_digests(out_dir: str) -> dict:
    """sha256 of every CSV and SVG file the commands wrote."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith((".csv", ".svg")):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _time_tag(t: float) -> str:
    return format(t, "g").replace("-", "m")


def check_outputs(workload: Workload, configs, out_dir: str, chk: OutputCheck) -> None:
    """Check the files one repetition wrote; their digests must match every other repetition's.

    ``configs`` are (path, config) pairs; instance i wrote into ``out_dir/i``.
    """
    digests = {}
    for i, (_, config) in enumerate(configs):
        out = os.path.join(out_dir, str(i))
        try:
            _check_files(workload, config, out, chk)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            chk.expect(False, f"unreadable output: {type(exc).__name__}: {exc}")
        digests.update({f"{i}/{name}": d for name, d in file_digests(out).items()})
    chk.expect(chk.digests in (None, digests), "outputs differ between repetitions")
    chk.digests = digests


def _check_files(workload: Workload, config: dict, out_dir: str, chk: OutputCheck) -> None:
    """Check every file the workload's commands are documented to write."""
    n_grid = config["x_grid"]["count"]
    times = config["times"]
    total_mass = math.fsum(a["mass"] for a in config["atoms"])
    n_atoms = len(config["atoms"])
    for command in workload.commands:
        if command == "solve":
            for t in times:
                rows = _read_csv(os.path.join(out_dir, f"solution_t{_time_tag(t)}.csv"))
                m = _floats(rows, "m")
                chk.expect(len(rows) == n_grid, f"solve t={t}: {len(rows)} rows, want {n_grid}")
                chk.expect(bool(np.all(np.diff(m) >= 0.0)), f"solve t={t}: m decreases")
                chk.expect(
                    bool(np.all((m >= 0.0) & (m <= total_mass * (1 + 1e-12)))),
                    f"solve t={t}: m outside [0, M]",
                )
                chk.expect(
                    all(r["branch"] in BRANCH_TAGS for r in rows), f"solve t={t}: unknown branch tag"
                )
            chk.work["solve.grid_points_x_times"] = n_grid * len(times)
        elif command == "relax":
            rows = _read_csv(os.path.join(out_dir, "relax_report.csv"))
            errs = np.concatenate([_floats(rows, "err_m"), _floats(rows, "err_u")])
            chk.expect(len(rows) == 10, f"relax: {len(rows)} taus, want 10")
            chk.expect(bool(np.all(np.isfinite(errs))), "relax: non-finite error")
            chk.work["relax.taus"] = len(rows)
        elif command == "plot":
            svgs = [f"solution_t{_time_tag(t)}.svg" for t in times] + ["relax_report.svg"]
            for name in svgs:
                chk.expect(os.path.exists(os.path.join(out_dir, name)), f"plot: {name} missing")
            chk.work["plot.files"] = len(svgs)
        elif command == "oracle":
            events = _read_csv(os.path.join(out_dir, "oracle_events.csv"))
            ev_t = _floats(events, "time")
            chk.expect(bool(np.all(np.diff(ev_t) >= 0.0)), "oracle: event times decrease")
            chk.expect(bool(np.all((ev_t > 0.0) & (ev_t <= config["t_end"]))), "oracle: event outside (0, t_end]")
            for t in times:
                rows = _read_csv(os.path.join(out_dir, f"oracle_t{_time_tag(t)}.csv"))
                lo = [int(r["atom_lo"]) for r in rows]
                hi = [int(r["atom_hi"]) for r in rows]
                mass = math.fsum(float(r["mass"]) for r in rows)
                merged = int(np.sum(ev_t <= t))
                chk.expect(lo[:1] == [0] and hi[-1:] == [n_atoms] and lo[1:] == hi[:-1],
                           f"oracle t={t}: clusters do not partition the atoms")
                chk.expect(abs(mass - total_mass) <= 1e-12 * total_mass, f"oracle t={t}: mass not conserved")
                chk.expect(len(rows) == n_atoms - merged, f"oracle t={t}: {len(rows)} clusters after {merged} merges")
            chk.work["oracle.events"] = len(events)
        elif command == "compare":
            rows = _read_csv(os.path.join(out_dir, "compare.csv"))
            want = len(times) + 5 * config["n_instances"]
            chk.expect(len(rows) == want, f"compare: {len(rows)} rows, want {want}")
            for r in rows:
                chk.op(r["pass"] == "true", f"compare: instance {r['instance']} t={r['time']} failed")
            errs = np.concatenate([_floats(rows, "max_abs_dm"), _floats(rows, "max_abs_du")])
            err = float(np.max(errs))
            chk.compare_max_err = err if chk.compare_max_err is None else max(chk.compare_max_err, err)
            chk.work["compare.rows"] = len(rows)
        elif command == "validate":
            rows = _read_csv(os.path.join(out_dir, "validate_report.csv"))
            reports = {}
            for r in rows:
                reports.setdefault(r["check"], r["pass"] == "true")
            chk.expect(bool(np.all(np.isfinite(_floats(rows, "residual")))), "validate: non-finite residual")
            for name, passed in reports.items():
                if name == CONTINUITY_REPORT:
                    _check_continuity(rows, passed, config, chk)
                else:
                    chk.op(passed, f"validate: {name} failed")
            chk.work["validate.reports"] = len(reports)


def _decays(values) -> bool:
    return all(b <= CONTINUITY_SLACK * a + CONTINUITY_FLOOR for a, b in zip(values[:-1], values[1:]))


def _frozen_until(config: dict) -> float:
    """A time before which no atom can reach a point of the default continuity grid.

    The grid holds the midpoints of atom gaps wider than 1e-9 and points 3
    beyond the outer atoms. Between collisions the oracle's closed form
    moves an atom by at most max|u| t + M t^2 / 4, and no collision can
    happen before atoms have moved half a gap, so below the returned time
    the solution's m is still m0 at every grid point.
    """
    pos = np.array([a["position"] for a in config["atoms"]])
    gaps = np.diff(pos)
    half_gap = 0.5 * min([6.0, *gaps[gaps > 1e-9]])
    u_max = max(abs(a["velocity"]) for a in config["atoms"])
    total_mass = math.fsum(a["mass"] for a in config["atoms"])
    # the root of u_max t + M t^2 = half_gap (M t^2 for M t^2 / 4, as margin)
    return 2.0 * half_gap / (u_max + math.sqrt(u_max * u_max + 4.0 * total_mass * half_gap))


def _check_continuity(rows, passed: bool, config: dict, chk: OutputCheck) -> None:
    """Count m at the frozen levels of the continuity report; record each series' decay."""
    series = {}
    for r in rows:
        if r["check"] == CONTINUITY_REPORT:
            series.setdefault(r["series"], []).append((float(r["level"]), float(r["residual"])))
    chk.expect(set(series) == {"m", "q", "E"}, f"validate: {CONTINUITY_REPORT} has series {sorted(series)}")
    decays = {name: _decays([e for _, e in values]) for name, values in series.items()}
    chk.expect(passed == all(decays.values()), f"validate: {CONTINUITY_REPORT} verdict disagrees with its series")
    t_frozen = _frozen_until(config)
    frozen = [e for t, e in series.get("m", []) if t < t_frozen]
    total_mass = math.fsum(a["mass"] for a in config["atoms"])
    # with atoms closer than about 4e-6, no level of the report is frozen
    if frozen:
        chk.op(max(frozen) <= FROZEN_MASS_TOL * total_mass, f"validate: {CONTINUITY_REPORT} m moved before t={t_frozen:.3g}")
    for name in ("m", "q", "E"):
        key = f"{CONTINUITY_REPORT}.{name}"
        chk.known_defects[key] = chk.known_defects.get(key, True) and decays.get(name, False)
