"""Batch front-end: JSON config in, deterministic CSV and SVG files out.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4
layer-comparison mismatch. Floats are written with 17 significant digits
and files are written atomically (temp file plus rename), so identical
configs and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import potentials, relax, validate
from .errors import ConfigError, NumericError, TauOutOfRange
from .euler_poisson import (
    FormulaSolution,
    cluster_snapshot,
    eval_m_and_clusters_stacked,
    sample,
    speed_bound,
)
from .instances import random_instance, sample_times_avoiding_events
from .measure import InitialData
from .oracle import oracle_cdf, simulate_ep

ENV_PREFIX = "STICKYGAS_"

_CONFIG_KEYS = {
    "version",
    "atoms",
    "tau",
    "times",
    "x_grid",
    "t_end",
    "tau_sequence",
    "relax_time",
    "n_instances",
    "seed",
    "tolerances",
}
_ATOM_KEYS = frozenset({"position", "mass", "velocity"})
_GRID_KEYS = {"min", "max", "count"}
_TOL_KEYS = {"tie", "compare"}


def _finite(value) -> bool:
    """True for a finite int or float that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _count(value) -> bool:
    """True for a nonnegative int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _tolerance(name: str, value) -> float:
    """A tolerance value: a finite, non-boolean number >= 0."""
    if not (_finite(value) and value >= 0):
        raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")
    return float(value)


def _atom_columns(atoms):
    """The position, mass and velocity columns as float64 arrays, or None
    unless every atom is a plain dict with keys _ATOM_KEYS whose values are
    finite ints or floats (not bools), with mass > 0.

    The key sets and value types are checked as sets and the values as one
    array; float64 conversion of an int rounds as float() does.
    """
    if set(map(type, atoms)) != {dict} or set(map(frozenset, atoms)) != {_ATOM_KEYS}:
        return None
    rows = [(atom["position"], atom["mass"], atom["velocity"]) for atom in atoms]
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {float, int}:
        return None
    try:
        columns = np.array(rows, dtype=float).T
    except OverflowError:  # an int beyond the float range
        return None
    if not (np.isfinite(columns).all() and (columns[1] > 0.0).all()):
        return None
    return columns


class RunConfig:
    """Validated run configuration."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if raw.get("version") != 1:
            raise ConfigError("config must declare \"version\": 1")
        atoms = raw.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise ConfigError("measure must be nonempty: provide at least one atom")
        columns = _atom_columns(atoms)
        if columns is None:
            # name the first bad atom; subclasses of dict or float pass here
            columns = pos, mass, vel = [], [], []
            for i, atom in enumerate(atoms):
                if not isinstance(atom, dict) or set(atom) != _ATOM_KEYS:
                    raise ConfigError(f"atom {i} must be an object with keys {sorted(_ATOM_KEYS)}")
                if not all(_finite(atom[key]) for key in _ATOM_KEYS):
                    raise ConfigError(f"atom {i} values must be finite numbers")
                pos.append(float(atom["position"]))
                mass.append(float(atom["mass"]))
                vel.append(float(atom["velocity"]))
                if mass[-1] <= 0.0:
                    raise ConfigError(f"atom {i} mass must be positive")
        tau = raw.get("tau", 1.0)
        if not _finite(tau):
            raise ConfigError("tau must be a finite number")
        times = raw.get("times", [1.0])
        if not isinstance(times, list) or not times:
            raise ConfigError("times must be a nonempty list")
        tags = {}
        for t in times:
            if not (_finite(t) and t >= 0.0):
                raise ConfigError("times must be nonnegative numbers (t=0 emits initial data)")
            tag = _time_tag(t)  # names the output files: distinct times need distinct tags
            if tags.setdefault(tag, t) != t:
                raise ConfigError(f"times {tags[tag]!r} and {t!r} share the file tag t{tag}")
        grid = raw.get("x_grid", {"min": -10.0, "max": 10.0, "count": 101})
        if not isinstance(grid, dict) or set(grid) != _GRID_KEYS:
            raise ConfigError(f"x_grid must be an object with keys {sorted(_GRID_KEYS)}")
        if not (_count(grid["count"]) and grid["count"] >= 2):
            raise ConfigError("x_grid.count must be an integer >= 2")
        if not (_finite(grid["min"]) and _finite(grid["max"])):
            raise ConfigError("x_grid.min and x_grid.max must be finite numbers")
        if not grid["min"] < grid["max"]:
            raise ConfigError("x_grid.min must be below x_grid.max")
        if not math.isfinite(float(grid["max"]) - float(grid["min"])):
            raise ConfigError("x_grid.max - x_grid.min must be a finite number")
        t_end = raw.get("t_end", max(float(t) for t in times) + 1.0)
        if not (_finite(t_end) and t_end > 0.0):
            raise ConfigError("t_end must be a positive number")
        tau_seq = raw.get("tau_sequence", [2.0 ** (-k) for k in range(1, 11)])
        if not isinstance(tau_seq, list) or not all(
            _finite(v) and 0.0 < v <= 1.0 for v in tau_seq
        ):
            raise ConfigError("tau_sequence must be a list of numbers in (0, 1]")
        relax_time = raw.get("relax_time", 1.0)
        if not (_finite(relax_time) and relax_time > 0.0):
            raise ConfigError("relax_time must be a positive number")
        n_instances = raw.get("n_instances", 0)
        if not _count(n_instances):
            raise ConfigError("n_instances must be a nonnegative integer")
        seed = raw.get("seed", 0)
        if not _count(seed):
            raise ConfigError("seed must be a nonnegative integer")
        tols = raw.get("tolerances", {})
        if not isinstance(tols, dict) or set(tols) - _TOL_KEYS:
            raise ConfigError(f"tolerances keys must be among {sorted(_TOL_KEYS)}")

        try:
            self.data = InitialData.from_atoms(*columns, float(tau))
        except ValueError as exc:
            raise ConfigError(f"atoms are invalid: {exc}") from exc
        except TauOutOfRange as exc:
            raise ConfigError(str(exc)) from exc
        self.times = [float(t) for t in times]
        self.x_grid = np.linspace(float(grid["min"]), float(grid["max"]), grid["count"])
        self.t_end = float(t_end)
        self.tau_sequence = [float(v) for v in tau_seq]
        self.relax_time = float(relax_time)
        self.n_instances = n_instances
        self.seed = seed
        self.tol_compare = _tolerance("tolerances.compare", tols.get("compare", 1e-9))
        self.tol_tie = None if "tie" not in tols else _tolerance("tolerances.tie", tols["tie"])


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig(raw)


# -- deterministic file output ------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# `_fmt` for a column whose cells all have this exact type
_COLUMN_FORMATS = {
    float: "%.17g".__mod__,
    int: str,
    bool: {True: "true", False: "false"}.__getitem__,
    str: str,
}


def write_csv(path: str, header, rows) -> None:
    """Write rows of equally many cells, each cell as ``_fmt`` writes it.

    A column whose cells share one exact type in _COLUMN_FORMATS is
    formatted with that type's formatter; any other column (mixed types,
    numpy scalars) goes through ``_fmt`` cell by cell.
    """
    rows = list(rows)
    if len(set(map(len, rows))) > 1:
        raise ValueError("CSV rows must have equally many cells")
    cells = []
    for column in zip(*rows):
        kinds = set(map(type, column))
        fmt = _COLUMN_FORMATS.get(kinds.pop(), _fmt) if len(kinds) == 1 else _fmt
        cells.append(map(fmt, column))
    lines = [",".join(header), *map(",".join, zip(*cells))]
    write_atomic(path, "\n".join(lines) + "\n")


def _time_tag(t: float) -> str:
    return format(t, "g").replace("-", "m")


# -- commands ------------------------------------------------------------------


def cmd_solve(cfg: RunConfig, out: str) -> list:
    written = []
    for t in cfg.times:
        rows = [
            (s.x, s.m, s.q, s.u, s.E, s.branch.value)
            for s in sample(cfg.data, cfg.x_grid, t)
        ]
        path = os.path.join(out, f"solution_t{_time_tag(t)}.csv")
        write_csv(path, ["x", "m", "q", "u", "E", "branch"], rows)
        written.append(path)
    return written


def cmd_oracle(cfg: RunConfig, out: str) -> list:
    traj = simulate_ep(cfg.data, cfg.t_end)
    written = []
    e = traj.event_columns
    path = os.path.join(out, "oracle_events.csv")
    write_csv(
        path,
        ["time", "x", "left_lo", "left_hi", "right_lo", "right_hi", "merged_lo", "merged_hi"],
        zip(e.time, e.position, e.left_lo, e.left_hi, e.right_lo, e.right_hi, e.left_lo, e.right_hi),
    )
    written.append(path)
    for t in cfg.times:
        if t > cfg.t_end:
            continue
        s = traj.state_at(t)
        rows = zip(*(a.tolist() for a in (s.positions, s.masses, s.velocities, s.lo, s.hi)))
        path = os.path.join(out, f"oracle_t{_time_tag(t)}.csv")
        write_csv(path, ["position", "mass", "velocity", "atom_lo", "atom_hi"], rows)
        written.append(path)
    return written


def _compare_cases(cfg: RunConfig, rng):
    """(data, t, xs, trajectory, instance) per compare row, drawn in order.

    The config's instance (instance 0) is simulated to 1.01 x its last
    positive time and read on x_grid; each random instance is drawn, then
    simulated to t = 6, then its five times and its 21 points are drawn.
    """
    base_times = [t for t in cfg.times if t > 0.0]
    if base_times:
        traj = simulate_ep(cfg.data, max(base_times) * 1.01)
        for t in base_times:
            yield cfg.data, t, cfg.x_grid, traj, 0
    for i in range(cfg.n_instances):
        inst = random_instance(rng, n_max=20)
        traj = simulate_ep(inst, 6.0)
        times = sample_times_avoiding_events(rng, 5, 0.1, 5.5, traj.event_times)
        lo = float(inst.measure.positions[0]) - 2.0
        hi = float(inst.measure.positions[-1]) + 2.0
        xs = rng.uniform(lo, hi, size=21)
        for t in times:
            yield inst, t, xs, traj, i + 1


def _segment_max(values, bounds):
    """Per row r, the maximum of values[bounds[r]:bounds[r + 1]] (values >= 0), or 0.0 where it is empty."""
    return np.where(np.diff(bounds) > 0, np.maximum.reduceat(np.append(values, 0.0), bounds[:-1]), 0.0)


def _compare_rows(cases, tol):
    """(instance, t, max |dm|, max |du|, pass) per case (data, t, xs,
    trajectory, instance), a block at a time: no more than one block of cases
    waits for the formula layer, and a block's cases and columns are freed
    before the next block is formed."""
    cases, rows = itertools.tee(cases)
    for formula in eval_m_and_clusters_stacked(case[:3] for case in rows):
        yield from _compare_block(list(itertools.islice(cases, formula[-1].size - 1)), *formula, tol)


def _compare_block(block, m, m_bounds, lo, hi, pos, vel, bounds, tol) -> list:
    """compare's rows of one block as flat columns, each row's maxima per
    segment. Each oracle cluster meets the formula cluster that holds its first
    atom (one searchsorted on row-keyed columns); a row passes when m, the
    velocities and the positions agree within tol and the atom ranges match."""
    states = [traj.state_at(t) for _, t, _, traj, _ in block]
    cdf = np.concatenate([oracle_cdf(state, case[2]) for state, case in zip(states, block)])
    o_lo, o_hi, o_pos, o_vel = (np.concatenate([getattr(s, c) for s in states]) for c in ("lo", "hi", "positions", "velocities"))
    f_count, o_count = np.diff(bounds), np.array([state.lo.size for state in states])
    row, width, o_bounds = np.arange(len(block)), hi.max(initial=0) + 1, np.cumsum([0, *o_count])
    o_row = np.repeat(row, o_count)
    held = np.searchsorted(np.repeat(row, f_count) * width + hi, o_row * width + o_lo, side="right")
    dm, du, dx = (_segment_max(np.abs(f - o), b) for f, o, b in ((m, cdf, m_bounds), (vel[held], o_vel, o_bounds), (pos[held], o_pos, o_bounds)))
    match = f_count == o_count
    f_sel, o_sel = np.repeat(match, f_count), np.repeat(match, o_count)
    differ = (lo[f_sel] != o_lo[o_sel]) | (hi[f_sel] != o_hi[o_sel])
    same = match & (np.bincount(o_row[o_sel][differ], minlength=row.size) == 0)
    passed = (dm <= tol) & (du <= tol) & (dx <= tol) & same
    return list(zip([c[4] for c in block], [c[1] for c in block], dm.tolist(), du.tolist(), passed.tolist()))


def cmd_compare(cfg: RunConfig, out: str, seed: int | None = None) -> tuple:
    seed = cfg.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    rows = list(_compare_rows(_compare_cases(cfg, rng), cfg.tol_compare))
    path = os.path.join(out, "compare.csv")
    write_csv(path, ["instance", "time", "max_abs_dm", "max_abs_du", "pass"], rows)
    return [path], all(row[-1] for row in rows)


def cmd_relax(cfg: RunConfig, out: str) -> list:
    report = relax.convergence_study(
        cfg.data, cfg.relax_time, cfg.x_grid, cfg.tau_sequence
    )
    rows = [(tau, em, eu) for tau, em, eu in report.rows()]
    path = os.path.join(out, "relax_report.csv")
    write_csv(path, ["tau", "err_m", "err_u"], rows)
    return [path]


def _stencil_candidates(cfg: RunConfig, h_max: float):
    """The first five grid points per time at least the margin from every
    cluster; the nearest cluster is one of the two around the point."""
    margin = 2.0 * h_max * (2.0 + speed_bound(cfg.data))
    xs = cfg.x_grid
    points = []
    for t in cfg.times:
        if t - 2.0 * h_max <= 0.0:
            continue
        positions = cluster_snapshot(cfg.data, t).positions
        j = np.searchsorted(positions, xs)
        around = np.concatenate(([-np.inf], positions, [np.inf]))
        far = np.minimum(xs - around[j], around[j + 1] - xs) >= margin
        points += [(x, t) for x in xs[far][:5].tolist()]
    return points


def cmd_validate(cfg: RunConfig, out: str) -> list:
    t_positive = [t for t in cfg.times if t > 0.0]
    window = (0.3 * cfg.t_end, 0.7 * cfg.t_end)
    traj = simulate_ep(cfg.data, window[1] * 1.01)
    pairs = [(float(a), float(b)) for a, b in zip(cfg.x_grid[:-1], cfg.x_grid[1:])]
    reports = [
        validate.check_weak_form(cfg.data, traj, window, refinement_levels=5),
        validate.check_oleinik(cfg.data, t_positive, pairs),
        validate.check_initial_continuity(cfg.data, FormulaSolution(cfg.data)),
    ]
    hs = [1e-2, 1e-3, 1e-4]
    stencils = _stencil_candidates(cfg, max(hs))
    if stencils:
        reports.append(validate.check_potential_identities(cfg.data, stencils, hs))
    rows = []
    for report in reports:
        for name, series, level, residual in report.rows():
            rows.append((name, series, level, residual, report.passed))
    path = os.path.join(out, "validate_report.csv")
    write_csv(path, ["check", "series", "level", "residual", "pass"], rows)
    return [path]


# -- svg ----------------------------------------------------------------------


def _svg_document(width, height, body) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        '<rect width="100%" height="100%" fill="white"/>\n' + body + "</svg>\n"
    )

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _plotted(values, log):
    """Values as plotted on an axis, as float64: log10 of each on a log
    axis (NaN where a value is not > 0), else the values themselves."""
    if log:
        return np.array([math.log10(v) if v > 0 else math.nan for v in values], dtype=float)
    return np.asarray(values, dtype=float)


def _extents(values):
    """(min, max) of the values as Python floats, (0.0, 1.0) if there are
    none. Each is the first of equal values in order, as Python's min and
    max pick it, so the choice between -0.0 and 0.0 follows the points."""
    if not values.size:
        return 0.0, 1.0
    return values[np.argmin(values)].item(), values[np.argmax(values)].item()


def _polyline_svg(series, width=640, height=480, logx=False, logy=False, step=()):
    """Deterministic multi-series line plot; each series scaled to shared extents.

    A log axis plots log10 of each value. A point whose plotted x or y is
    not finite (a NaN or an infinity, or on a log axis a value that is not
    > 0) is left out of both the extents and the plot.
    """
    pad = 50.0
    kept = []
    for label, xs, ys in series:
        x, y = _plotted(xs, logx), _plotted(ys, logy)
        finite = np.isfinite(x) & np.isfinite(y)
        kept.append((label, x[finite], y[finite]))
    x0, x1 = _extents(np.concatenate([np.empty(0), *(x for _, x, _ in kept)]))
    y0, y1 = _extents(np.concatenate([np.empty(0), *(y for _, _, y in kept)]))
    if x1 - x0 == 0.0:
        x1 = x0 + 1.0
    if y1 - y0 == 0.0:
        y1 = y0 + 1.0
    hx, hy = (1.0 if math.isfinite(v1 - v0) else 2.0 for v0, v1 in ((x0, x1), (y0, y1)))

    body = [
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    ]
    for idx, (label, x, y) in enumerate(kept):
        # the operations, in their order, of the same map on Python floats: the
        # same bits (v / 1.0 is v); a span that overflows is mapped by halves
        px = pad + (x / hx - x0 / hx) / (x1 / hx - x0 / hx) * (width - 2 * pad)
        py = height - pad - (y / hy - y0 / hy) / (y1 / hy - y0 / hy) * (height - 2 * pad)
        if label in step:  # a step to each new y at the new x
            px, py = np.repeat(px, 2)[1:], np.repeat(py, 2)[:-1]
        # one % for the whole line, "%.3f" per value as the f-string ".3f" writes it
        xy = np.column_stack((px, py)).ravel().tolist()
        points = ("%.3f,%.3f " * px.size)[:-1] % tuple(xy)
        color = _COLORS[idx % len(_COLORS)]
        body.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        body.append(
            f'<text x="{pad + 6}" y="{pad + 16 + 16 * idx}" font-size="12" fill="{color}">{label}</text>'
        )
    body.append(
        f'<text x="{pad}" y="{height - pad + 20}" font-size="11">x: [{x0:.6g}, {x1:.6g}]'
        f'{" (log10)" if logx else ""}</text>'
    )
    body.append(
        f'<text x="{pad}" y="{pad - 8}" font-size="11">y: [{y0:.6g}, {y1:.6g}]'
        f'{" (log10)" if logy else ""}</text>'
    )
    return _svg_document(width, height, "\n".join(body) + "\n")


def _read_csv(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def cmd_plot(cfg: RunConfig, out: str) -> list:
    written = []
    solution_files = sorted(
        f for f in os.listdir(out) if f.startswith("solution_t") and f.endswith(".csv")
    )
    relax_path = os.path.join(out, "relax_report.csv")
    if not solution_files and not os.path.exists(relax_path):
        raise ConfigError(f"no solution_t*.csv or relax_report.csv found in {out}")
    for fname in solution_files:
        header, rows = _read_csv(os.path.join(out, fname))
        xs = [float(r[0]) for r in rows]
        series = []
        for col in ("m", "q", "u", "E"):
            j = header.index(col)
            series.append((col, xs, [float(r[j]) for r in rows]))
        svg = _polyline_svg(series, step=("m",))
        path = os.path.join(out, fname[:-4] + ".svg")
        write_atomic(path, svg)
        written.append(path)
    if os.path.exists(relax_path):
        header, rows = _read_csv(relax_path)
        taus = [float(r[0]) for r in rows]
        series = [
            ("err_m", taus, [float(r[1]) for r in rows]),
            ("err_u", taus, [float(r[2]) for r in rows]),
        ]
        svg = _polyline_svg(series, logx=True, logy=True)
        path = os.path.join(out, "relax_report.svg")
        write_atomic(path, svg)
        written.append(path)
    return written


# -- entry point ----------------------------------------------------------------


def _env_default(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name, fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stickygas",
        description=(
            "Semi-analytic solver and verification harness for 1D pressureless "
            "self-gravitating gas dynamics with momentum relaxation. Flags may "
            f"be defaulted via environment variables prefixed {ENV_PREFIX} "
            "(e.g. STICKYGAS_OUT, STICKYGAS_SEED)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "oracle", "compare", "relax", "validate", "plot"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument(
            "--out", default=_env_default("OUT", "."), help="output directory"
        )
        p.add_argument(
            "--seed",
            default=_env_default("SEED"),
            help="override the config seed (compare command)",
        )
        p.add_argument(
            "--tol-compare",
            type=float,
            default=None,
            help="override the layer-comparison tolerance",
        )
        p.add_argument(
            "--tol-tie",
            type=float,
            default=None,
            help="override the prefix-sum tie tolerance",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    default_tie = potentials.DEFAULT_TIE_TOL
    try:
        cfg = load_config(args.config)
        if args.seed is not None and not args.seed.isdecimal():
            raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed!r}")
        if args.tol_compare is not None:
            cfg.tol_compare = _tolerance("--tol-compare", args.tol_compare)
        tie = cfg.tol_tie if args.tol_tie is None else _tolerance("--tol-tie", args.tol_tie)
        if tie is not None:
            # every PrefixFrame built during this call reads it; restored below
            potentials.DEFAULT_TIE_TOL = tie
        out = args.out
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        if args.command == "solve":
            cmd_solve(cfg, out)
        elif args.command == "oracle":
            cmd_oracle(cfg, out)
        elif args.command == "compare":
            _, ok = cmd_compare(cfg, out, None if args.seed is None else int(args.seed))
            if not ok:
                print("compare: layers disagree beyond tolerance", file=sys.stderr)
                return 4
        elif args.command == "relax":
            cmd_relax(cfg, out)
        elif args.command == "validate":
            cmd_validate(cfg, out)
        elif args.command == "plot":
            cmd_plot(cfg, out)
    except ConfigError as exc:
        print(f"{args.command}: config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"{args.command}: numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        potentials.DEFAULT_TIE_TOL = default_tie
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
