import ast
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from stickygas import cli, euler_poisson, potentials
from stickygas.cli import main
from stickygas.euler_poisson import cluster_snapshot, eval_m_grid, eval_u
from stickygas.instances import random_instance, sample_times_avoiding_events
from stickygas.measure import ClusterState, InitialData
from stickygas.oracle import oracle_cdf, simulate_ep

TWO_ATOM = {
    "version": 1,
    "atoms": [
        {"position": -1.0, "mass": 0.5, "velocity": 0.0},
        {"position": 1.0, "mass": 0.5, "velocity": 0.0},
    ],
    "tau": 1.0,
    "times": [1.0],
    "x_grid": {"min": -3.0, "max": 3.0, "count": 101},
    "t_end": 6.0,
    "seed": 7,
}


def _compare_one(data, traj, times, xs, tol):
    """compare's (t, max |dm|, max |du|, pass) rows for one instance."""
    cases = ((data, t, xs, traj, None) for t in times)
    return [row[1:] for row in cli._compare_rows(cases, tol)]


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestConfigValidation:
    def test_empty_atoms_exits_2(self, tmp_path, capsys):
        cfg = dict(TWO_ATOM, atoms=[])
        code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "measure must be nonempty" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(TWO_ATOM, extra_knob=1)
        code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        cfg = dict(TWO_ATOM, tolerances={"position": 1e-9})
        code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2

    def test_bad_grid_count(self, tmp_path):
        cfg = dict(TWO_ATOM, x_grid={"min": -1.0, "max": 1.0, "count": 1})
        code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2

    def test_missing_version(self, tmp_path):
        cfg = {k: v for k, v in TWO_ATOM.items() if k != "version"}
        code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2

    def test_unreadable_config(self, tmp_path):
        code = main(["solve", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
        assert code == 2

    def test_out_that_cannot_be_created_exits_2(self, tmp_path, capsys):
        # an --out naming a file, or a path under one, is a config error
        # that names the path, not an OSError from os.makedirs
        config = write_config(tmp_path, TWO_ATOM)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        for out in (blocker, blocker / "sub"):
            assert main(["solve", "--config", config, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and f"cannot create output directory {out}" in err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("oracle", "t_end", math.inf),
            ("oracle", "t_end", 10**400),
            ("solve", "times", [math.inf]),
            ("solve", "times", [math.nan]),
            ("relax", "relax_time", math.inf),
            ("solve", "x_grid", {"min": -math.inf, "max": 1.0, "count": 11}),
            ("solve", "tau", True),
            ("compare", "n_instances", True),
            ("compare", "seed", True),
            ("oracle", "atoms", [{"position": 0.0, "mass": 1.0, "velocity": math.inf}]),
            ("oracle", "atoms", [{"position": 0.0, "mass": 1.0, "velocity": math.nan}]),
            ("solve", "atoms", [{"position": math.inf, "mass": 1.0, "velocity": 0.0}]),
            ("solve", "atoms", [{"position": 0.0, "mass": True, "velocity": 0.0}]),
            ("solve", "atoms", [{"position": "0.5", "mass": 1.0, "velocity": 0.0}]),
            # each end is finite, but max - min overflows and linspace puts
            # NaN in the grid
            ("solve", "x_grid", {"min": -1e308, "max": 1e308, "count": 5}),
            ("relax", "x_grid", {"min": -1e308, "max": 1e308, "count": 5}),
            ("compare", "x_grid", {"min": -1e308, "max": 1e308, "count": 5}),
            ("validate", "x_grid", {"min": -1e308, "max": 1e308, "count": 5}),
        ],
    )
    def test_nonfinite_or_boolean_value_exits_2(self, tmp_path, capsys, command, key, value):
        cfg = dict(TWO_ATOM, **{key: value})
        code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_subnormal_tau_exits_2(self, tmp_path, capsys, command):
        # a subnormal tau has lost bits; solve used to answer after overflow warnings
        cfg = dict(TWO_ATOM, tau=5e-324)
        code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_distinct_times_sharing_a_file_tag_exit_2(self, tmp_path, capsys, command):
        # %g keeps six digits: both times would write *_t0.123457.csv
        cfg = dict(TWO_ATOM, times=[0.1234567, 0.1234568])
        code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "0.1234567" in err and "0.1234568" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_repeated_times_still_allowed(self, tmp_path):
        cfg = dict(TWO_ATOM, times=[1.0, 1, 0.5, 1.0])
        code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["solution_t0.5.csv", "solution_t1.csv"]


class TestSolve:
    def test_mass_column_steps(self, tmp_path):
        code = main(["solve", "--config", write_config(tmp_path, TWO_ATOM), "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "solution_t1.csv")
        assert header == ["x", "m", "q", "u", "E", "branch"]
        ms = [float(r[1]) for r in rows]
        assert sorted(set(ms)) == [0.0, 0.5, 1.0]
        # steps at the characteristic positions +-0.908
        xs = [float(r[0]) for r in rows]
        step_x = [x for x, a, b in zip(xs[1:], ms[:-1], ms[1:]) if b > a]
        assert step_x[0] == pytest.approx(-0.9, abs=0.07)
        assert step_x[1] == pytest.approx(0.96, abs=0.07)

    def test_time_zero_emits_initial_data(self, tmp_path):
        cfg = dict(TWO_ATOM, times=[0.0])
        code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "solution_t0.csv")
        ms = [float(r[1]) for r in rows]
        assert ms[0] == 0.0 and ms[-1] == 1.0


class TestOracleCommand:
    def test_event_log(self, tmp_path):
        code = main(["oracle", "--config", write_config(tmp_path, TWO_ATOM), "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "oracle_events.csv")
        assert len(rows) == 1
        t_ev, x_ev = float(rows[0][0]), float(rows[0][1])
        assert t_ev == pytest.approx(4.9932, abs=1e-3)
        assert x_ev == pytest.approx(0.0, abs=1e-10)
        _, crows = read_csv(tmp_path / "oracle_t1.csv")
        assert len(crows) == 2

    def test_non_finite_gap_data_exits_3(self, tmp_path, capsys):
        # dv = 1e308 - (-1e308) overflows to inf, and the pair's bound lies past t_end
        atoms = [{"position": 0.0, "mass": 0.5, "velocity": -1e308}, {"position": 1.0, "mass": 0.5, "velocity": 1e308}]
        cfg = dict(TWO_ATOM, atoms=atoms, t_end=1.0)
        code = main(["oracle", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 3
        assert "RootBracketFailure: collision gap data not finite" in capsys.readouterr().err


def reference_compare_one(data, times, xs, tol):
    """Compare rows from the instance's own simulation and one frame per field."""
    traj = simulate_ep(data, max(times) * 1.01)
    rows = []
    for t in times:
        state = traj.state_at(t)
        dm = float(
            np.max(np.abs(eval_m_grid(data, xs, t) - oracle_cdf(state, xs)))
        ) if len(xs) else 0.0
        du = 0.0
        us = eval_u(data, state.positions, t)
        for v, (u, _) in zip(state.velocities.tolist(), us):
            du = max(du, abs(u - v))
        rows.append((t, dm, du, bool(dm <= tol and du <= tol)))
    return rows


def assert_compare_matches_reference(data, traj, times, xs):
    got = _compare_one(data, traj, times, xs, 1e-9)
    assert repr(got) == repr(reference_compare_one(data, times, xs, 1e-9))


class TestCompare:
    def test_twenty_seeded_instances_pass(self, tmp_path):
        cfg = dict(TWO_ATOM, n_instances=20)
        code = main(["compare", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "compare.csv")
        assert all(r[-1] == "true" for r in rows)
        assert max(float(r[2]) for r in rows) <= 1e-9

    def test_mismatch_exits_4(self, tmp_path):
        cfg = dict(TWO_ATOM, n_instances=1)
        code = main(
            [
                "compare",
                "--config",
                write_config(tmp_path, cfg),
                "--out",
                str(tmp_path),
                "--tol-compare",
                "1e-18",
            ]
        )
        assert code == 4

    def test_zero_mass_atom_leaves_no_zero_mass_cluster(self, tmp_path):
        # the second atom's mass vanishes in P (1 + 1e-18 == 1): the formula
        # layer holds both atoms in one cluster and answers finite fields,
        # while the oracle resolves the light atom, so compare reports its
        # velocity difference and the split atom ranges (exit 4)
        cfg = dict(
            TWO_ATOM,
            atoms=[
                {"position": 0.0, "mass": 1.0, "velocity": 0.0},
                {"position": 1.0, "mass": 1e-18, "velocity": 0.0},
            ],
            times=[0.1],
            x_grid={"min": -1.0, "max": 2.0, "count": 7},
            t_end=1.0,
        )
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "solution_t0.1.csv")
        assert all(math.isfinite(float(r[3])) for r in rows)
        assert [r[1] for r in rows[3:]] == ["1"] * 4
        # the heavy atom's energy term is 0 * (negative cluster velocity),
        # -0.0, which the prefix sum used to keep
        assert [r[header.index("E")] for r in rows[3:]] == ["0"] * 4
        snap = cluster_snapshot(cli.load_config(path).data, 0.1)
        assert (snap.lo.tolist(), snap.hi.tolist()) == ([0], [2])
        assert np.isfinite(snap.positions).all() and np.isfinite(snap.velocities).all()
        assert main(["compare", "--config", path, "--out", str(tmp_path)]) == 4
        _, rows = read_csv(tmp_path / "compare.csv")
        assert [(r[2], r[4]) for r in rows] == [("0", "false")]
        assert 0.0 < float(rows[0][3]) < 0.1

    def test_one_simulation_per_instance_and_one_frame_per_time(self, tmp_path, monkeypatch):
        # each (instance, t) is one row of a stacked frame; no single frame
        # is built, since no point of these grids falls in a tie window
        n_instances = 10
        sims, frames, stacked = [0], [0], [0]
        simulate, init = cli.simulate_ep, potentials.PrefixFrame.__init__
        stack_init = potentials.FrameStack.__init__

        def counted_simulate(*args):
            sims[0] += 1
            return simulate(*args)

        def counted_init(self, *args):
            frames[0] += 1
            init(self, *args)

        def counted_stack(self, rows):
            stacked[0] += len(rows)
            stack_init(self, rows)

        monkeypatch.setattr(cli, "simulate_ep", counted_simulate)
        monkeypatch.setattr(potentials.PrefixFrame, "__init__", counted_init)
        monkeypatch.setattr(potentials.FrameStack, "__init__", counted_stack)
        cfg = dict(TWO_ATOM, times=[0.5, 1.0], n_instances=n_instances)
        code = main(["compare", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "compare.csv")
        assert len(rows) == 2 + 5 * n_instances
        assert sims[0] == 1 + n_instances
        assert stacked[0] == len(rows)
        assert frames[0] == 0

    def test_no_instances(self, tmp_path):
        # n_instances 0: the config's instance alone, and no row at all
        # when it has no positive time
        for times, count in (([0.5, 1.0], 2), ([0.0], 0)):
            out = tmp_path / f"rows{count}"
            cfg = write_config(tmp_path, dict(TWO_ATOM, times=times, n_instances=0))
            assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
            header, rows = read_csv(out / "compare.csv")
            assert header == ["instance", "time", "max_abs_dm", "max_abs_du", "pass"]
            assert [(r[0], float(r[1]), r[4]) for r in rows] == [("0", t, "true") for t in times[:count]]

    def test_one_row_blocks_write_the_same_file(self, tmp_path, monkeypatch):
        # the block bound changes how many rows share a stacked frame, and
        # nothing that compare writes
        cfg = write_config(tmp_path, dict(TWO_ATOM, times=[0.5, 1.0, 5.5], n_instances=30))
        texts = []
        for bound in (euler_poisson.BLOCK_ELEMENTS, 1):
            monkeypatch.setattr(euler_poisson, "BLOCK_ELEMENTS", bound)
            out = tmp_path / f"bound{bound}"
            assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
            texts.append((out / "compare.csv").read_bytes())
        assert texts[0] == texts[1] and texts[0].count(b"\n") == 1 + 3 + 5 * 30

    def test_rows_match_reference_on_compare_ensemble(self):
        # the draws of `compare` at the acceptance seed, trajectory to 6.0
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            data = random_instance(rng, n_max=20)
            traj = simulate_ep(data, 6.0)
            times = sample_times_avoiding_events(rng, 5, 0.1, 5.5, traj.event_times)
            lo = float(data.measure.positions[0]) - 2.0
            hi = float(data.measure.positions[-1]) + 2.0
            xs = rng.uniform(lo, hi, size=21)
            assert_compare_matches_reference(data, traj, times, xs)

    def test_rows_match_reference_on_near_duplicate_atoms(self):
        # atoms 1e-14*|x| apart: touching clusters stick only if they
        # approach, so the layers hold the same atom ranges on every row
        rng = np.random.default_rng(5)
        for _ in range(20):
            base = rng.uniform(-5.0, 5.0, size=4)
            positions = np.concatenate([base, base * (1.0 + 1e-14)])
            n = positions.size
            data = InitialData.from_atoms(
                positions, rng.uniform(0.01, 2.0, n), rng.uniform(-2.0, 2.0, n), 0.5
            )
            traj = simulate_ep(data, 6.0)
            times = sample_times_avoiding_events(rng, 5, 0.1, 5.5, traj.event_times)
            xs = np.concatenate([positions, rng.uniform(-7.0, 7.0, size=8)])
            for t in times:
                state, snap = traj.state_at(t), cluster_snapshot(data, t)
                assert state.lo.tolist() == snap.lo.tolist()
                assert state.hi.tolist() == snap.hi.tolist()
                rows = _compare_one(data, traj, [t], xs, 1e-9)
                assert repr(rows) == repr(reference_compare_one(data, [t], xs, 1e-9))
                assert rows[0][3] is True

    def test_rows_match_reference_inside_tie_windows(self, monkeypatch):
        # xs at the formula clusters and a few ulps around them, so that xs
        # fall in the hull edges' tie windows and go through the tie rule
        tied = []
        tie_rule = potentials._argmin

        def recorded(P, S, tie_tol, x):
            tied.append(x)
            return tie_rule(P, S, tie_tol, x)

        monkeypatch.setattr(potentials, "_argmin", recorded)
        rng = np.random.default_rng(11)
        for _ in range(30):
            data = random_instance(rng, n_max=8)
            traj = simulate_ep(data, 6.0)
            for t in sample_times_avoiding_events(rng, 3, 0.1, 5.5, traj.event_times):
                pos = cluster_snapshot(data, t).positions
                xs = np.concatenate(
                    [pos, np.nextafter(pos, -np.inf), np.nextafter(pos, np.inf), pos * (1.0 + 1e-12)]
                )
                tied.clear()
                _compare_one(data, traj, [t], xs, 1e-9)
                assert set(tied) & set(xs.tolist())
                assert_compare_matches_reference(data, traj, [t], xs)

    def test_position_only_mismatch_fails(self):
        # oracle clusters shifted by 1e-6 with unchanged velocities: m on a
        # grid far from every cluster and the velocities still agree
        class Shifted:
            def __init__(self, traj):
                self.traj = traj

            def state_at(self, t):
                s = self.traj.state_at(t)
                return ClusterState(t, s.positions + 1e-6, s.masses, s.velocities, s.lo, s.hi)

        rng = np.random.default_rng(12)
        for _ in range(10):
            data = random_instance(rng, n_max=8)
            traj = simulate_ep(data, 6.0)
            times = sample_times_avoiding_events(rng, 3, 0.1, 5.5, traj.event_times)
            pos = data.measure.positions
            xs = [float(pos[0]) - 100.0, float(pos[-1]) + 100.0]
            for (t, dm, du, passed), (_, dm0, du0, passed0) in zip(
                _compare_one(data, Shifted(traj), times, xs, 1e-9),
                _compare_one(data, traj, times, xs, 1e-9),
            ):
                assert (dm, du) == (dm0, du0) and dm <= 1e-9 and du <= 1e-9
                assert passed0 and not passed

    def test_no_velocity_branch_analysis(self, tmp_path, monkeypatch):
        # compare reads cluster velocities off the hull: no branch analysis
        # runs, and the tie rule runs only at points of the compare grids
        branch_calls, tied, grids = [0], set(), []
        velocity, argmin = euler_poisson._velocities, potentials.PrefixFrame.argmin
        compare_rows = cli._compare_rows

        def counted_velocity(*args):
            branch_calls[0] += 1
            return velocity(*args)

        def recorded_ties(self, x):
            tied.add(x)
            return argmin(self, x)

        def recorded_compare(cases, tol):
            def recorded_cases():
                for case in cases:
                    grids.extend(np.asarray(case[2], dtype=float).tolist())
                    yield case

            return compare_rows(recorded_cases(), tol)

        monkeypatch.setattr(euler_poisson, "_velocities", counted_velocity)
        monkeypatch.setattr(potentials.PrefixFrame, "argmin", recorded_ties)
        monkeypatch.setattr(cli, "_compare_rows", recorded_compare)
        cfg = dict(TWO_ATOM, times=[0.5, 1.0, 5.5], n_instances=20)
        code = main(["compare", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 0
        assert branch_calls[0] == 0
        assert tied <= set(grids)


class TestRelaxCommand:
    def test_report_columns_monotone(self, tmp_path):
        cfg = dict(
            TWO_ATOM,
            atoms=[
                {"position": -1.0, "mass": 1.0 / 3.0, "velocity": 0.0},
                {"position": 1.0, "mass": 2.0 / 3.0, "velocity": 0.0},
            ],
            x_grid={"min": -4.0, "max": 4.0, "count": 9},
        )
        code = main(["relax", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "relax_report.csv")
        errs = [float(r[1]) for r in rows]
        assert all(b <= 1.05 * a + 1e-12 for a, b in zip(errs[:-1], errs[1:]))

    def test_tiny_tau_answers_or_exits_3(self, tmp_path, capsys):
        # tau * tau underflows to 0 below about 1.5e-162, which used to raise
        # ZeroDivisionError out of main; the study gives the drift limit
        # there, and a subnormal tau, which has lost bits, exits 3
        cfg = dict(
            TWO_ATOM,
            atoms=[
                {"position": -1.0, "mass": 1.0 / 3.0, "velocity": 0.0},
                {"position": 1.0, "mass": 2.0 / 3.0, "velocity": 0.0},
            ],
            tau_sequence=[1e-200, 1e-300],
        )
        code = main(["relax", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "relax_report.csv")
        assert [float(r[0]) for r in rows] == [1e-200, 1e-300]
        assert all(float(r[1]) <= 1e-12 and float(r[2]) <= 1e-12 for r in rows)
        cfg["tau_sequence"] = [5e-324]
        code = main(["relax", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 3
        assert "TauOutOfRange" in capsys.readouterr().err


class TestValidateCommand:
    def test_report_written(self, tmp_path):
        code = main(["validate", "--config", write_config(tmp_path, TWO_ATOM), "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "validate_report.csv")
        assert header == ["check", "series", "level", "residual", "pass"]
        checks = {r[0] for r in rows}
        assert any(c.startswith("weak_form") for c in checks)
        assert any(c.startswith("oleinik") for c in checks)


class TestPlot:
    def test_svg_emitted(self, tmp_path):
        cfg_path = write_config(tmp_path, TWO_ATOM)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert main(["plot", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "solution_t1.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg ")
        assert "polyline" in svg

    def test_log_axes_drop_points_without_a_log(self):
        # NaN and nonpositive values are left out of the extents and the line
        xs, ys = [1.0, 10.0, math.nan, -1.0], [1e-3, 1e-2, 1e-1, 1.0]
        svg = cli._polyline_svg([("err", xs, ys)], logx=True, logy=True)
        assert "nan" not in svg
        assert "x: [0, 1] (log10)" in svg and "y: [-3, -2] (log10)" in svg
        (points,) = [line for line in svg.splitlines() if "<polyline" in line]
        assert points.count(",") == 2

    def test_missing_inputs_exit_2(self, tmp_path):
        code = main(["plot", "--config", write_config(tmp_path, TWO_ATOM), "--out", str(tmp_path)])
        assert code == 2


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = dict(TWO_ATOM, n_instances=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_path = write_config(tmp_path, cfg)
        for out in (out_a, out_b):
            for command in ("solve", "oracle", "compare", "relax"):
                assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
            assert main(["plot", "--config", cfg_path, "--out", str(out)]) == 0
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seventeen_digit_floats(self, tmp_path):
        cfg_path = write_config(tmp_path, TWO_ATOM)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "solution_t1.csv")
        # round-trip exactness: every float survives parse-format-parse
        for row in rows:
            for cell in row[:5]:
                assert float(cell) == float(format(float(cell), ".17g"))

    def test_csv_cells_equal_fmt_for_every_cell_type(self, tmp_path):
        # the exact-type fast path of write_csv against the isinstance chain of _fmt
        row = [0.1, -0.0, 1e-300, math.inf, 7, -3, True, False,
               np.float64(2.5e-17), np.int64(-12), np.bool_(True), np.bool_(False), "a b"]
        path = tmp_path / "cells.csv"
        cli.write_csv(str(path), ["c"], [row])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["c", ",".join(cli._fmt(v) for v in row)]
        assert lines[1] == "0.10000000000000001,-0,1e-300,inf,7,-3,true,false,2.4999999999999999e-17,-12,true,false,a b"


class TestToleranceOverride:
    def test_tie_override_lasts_one_call(self, tmp_path):
        argv = ["solve", "--config", write_config(tmp_path, TWO_ATOM), "--out", str(tmp_path)]
        assert main(argv + ["--tol-tie", "1e-6"]) == 0
        assert potentials.DEFAULT_TIE_TOL == 1e-12


    @pytest.mark.parametrize(
        "tolerances",
        [
            {"tie": "abc"},
            {"tie": -1.0},
            {"tie": True},
            {"tie": math.inf},
            {"compare": -1.0},
            {"compare": "abc"},
            {"compare": None},
        ],
    )
    def test_bad_config_tolerance_exits_2(self, tmp_path, capsys, tolerances):
        cfg = dict(TWO_ATOM, tolerances=tolerances)
        argv = ["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("solve", ["--tol-tie", "nan"]),
            ("solve", ["--tol-tie", "-1"]),
            ("compare", ["--tol-compare", "-1"]),
            ("compare", ["--tol-compare", "inf"]),
        ],
    )
    def test_bad_tolerance_flag_exits_2(self, tmp_path, capsys, command, flags):
        argv = [command, "--config", write_config(tmp_path, TWO_ATOM), "--out", str(tmp_path)]
        assert main(argv + flags) == 2
        assert "config error" in capsys.readouterr().err
        assert potentials.DEFAULT_TIE_TOL == 1e-12


class TestEnvOverride:
    def test_out_dir_from_env(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("STICKYGAS_OUT", str(target))
        cfg_path = write_config(tmp_path, TWO_ATOM)
        assert main(["solve", "--config", cfg_path]) == 0
        assert (target / "solution_t1.csv").exists()


class TestSeedOverride:
    def test_flag_and_env_seed_equal_the_config_seed(self, tmp_path, monkeypatch):
        cfg = dict(TWO_ATOM, times=[0.5, 1.0], n_instances=2)
        written = []
        cases = ((3, [], None), (7, [], None), (7, ["--seed", "3"], None), (7, [], "3"))
        for i, (seed, flags, env) in enumerate(cases):
            if env is not None:
                monkeypatch.setenv("STICKYGAS_SEED", env)
            out = tmp_path / f"seed{i}"
            path = write_config(tmp_path, dict(cfg, seed=seed), f"seed{i}.json")
            assert main(["compare", "--config", path, "--out", str(out), *flags]) == 0
            written.append((out / "compare.csv").read_bytes())
        assert written[1] != written[0]
        assert written[2] == written[0] and written[3] == written[0]

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_non_integer_env_seed_exits_2(self, tmp_path, monkeypatch, capsys, command):
        # the environment's seed is checked like the config's, by every command
        monkeypatch.setenv("STICKYGAS_SEED", "abc")
        assert main([command, "--config", write_config(tmp_path, TWO_ATOM), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-5", "-1", "1.5", "x"])
    def test_negative_or_non_integer_seed_flag_exits_2(self, tmp_path, capsys, seed):
        # a negative seed is an error, not a silent "no override"
        argv = ["compare", "--config", write_config(tmp_path, TWO_ATOM), "--out", str(tmp_path), "--seed", seed]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err


# -- every public function is reached by a command ------------------------------

# The public functions and methods of the package that none of the six
# commands reaches, each with the reason it stays. Any other unreached public
# definition fails the test below, and so does an entry here that names no
# definition or names one that a command reaches.
UNREACHED = {
    "drift.eval_mbar": "criterion 07 reads mbar at a point; no command computes it",
    "drift.eval_qbar": "criterion 07 and test_q_scaled_converges_to_drift_momentum read qbar; no command computes it",
    "drift.eval_ubar": "the drift velocity convention at a point, which test_drift checks; no command computes it",
    "euler_poisson.eval_m": "the scalar projection of _fields; the commands read grids",
    "euler_poisson.FormulaSolution.states_at": "the weak form on the formula layer; validate runs it on the oracle only",
    "measure.AtomicMeasure.atom_index": "data-model accessor that tests use as a reference",
    "measure.AtomicMeasure.cdf_left": "data-model accessor that tests use as a reference",
    "measure.AtomicMeasure.cdf_right": "data-model accessor that tests use as a reference",
    "measure.AtomicMeasure.mtilde0": "data-model accessor that tests use as a reference",
    "measure.ClusterState.from_atoms": "the t = 0 snapshot; no command takes a snapshot at t = 0",
    "measure.ClusterState.momentum": "data-model accessor that the momentum-decay tests use",
    "oracle.simulate_drift": "the drift oracle; ROADMAP items 3 and 7 wire it into relax",
    "relax.eval_scaled": "the scaled fields at a point; ROADMAP items 3 and 7 wire them",
    "relax.scaled_cluster_snapshot": "the scaled clusters; ROADMAP items 3 and 7 wire them",
    "validate.check_oleinik_states": "the cluster Oleinik check; ROADMAP item 7 runs it on both layers",
}


COMMANDS = ("solve", "oracle", "compare", "relax", "validate", "plot")


def public_definitions() -> dict:
    """(file, first line) -> dotted name of every public module-level function
    and public method of a public class in the package. The first line is the
    first decorator's, as in the function's code object."""
    package = Path(cli.__file__).resolve().parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members = [(node, node.name)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members = [(f, f"{node.name}.{f.name}") for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for fn, name in members:
                if not fn.name.startswith("_"):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    found[(str(path), first)] = f"{path.stem}.{name}"
    return found


def reached_by_commands(tmp_path) -> set:
    """(file, first line) of every code object that runs while the six
    commands run on two small configs: t > 0 with compare instances, and
    t = 0."""
    rng = np.random.default_rng(5)
    atoms = [
        {"position": p, "mass": m, "velocity": v}
        for p, m, v in zip(
            np.sort(rng.uniform(-3.0, 3.0, 12)).tolist(),
            rng.uniform(0.1, 1.0, 12).tolist(),
            rng.uniform(-1.0, 1.0, 12).tolist(),
        )
    ]
    configs = [
        dict(TWO_ATOM, atoms=atoms, tau=0.5, times=[0.5, 1.5], t_end=2.0,
             x_grid={"min": -5.0, "max": 5.0, "count": 41}, tau_sequence=[0.5, 0.1], n_instances=2),
        dict(TWO_ATOM, atoms=atoms[:4], times=[0.0], t_end=1.0,
             x_grid={"min": -5.0, "max": 5.0, "count": 11}, tau_sequence=[0.5], relax_time=0.5),
    ]
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    for i, cfg in enumerate(configs):
        cfg_path = write_config(tmp_path, cfg, f"reach{i}.json")
        out = str(tmp_path / f"reach{i}")
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            codes = [main([command, "--config", cfg_path, "--out", out]) for command in COMMANDS]
        finally:
            sys.setprofile(previous)
        assert codes == [0] * len(COMMANDS)
    return {(os.path.realpath(path), line) for path, line in seen}


def test_commands_reach_every_public_function(tmp_path):
    names = public_definitions()
    reached = reached_by_commands(tmp_path)
    unreached = {name for key, name in names.items() if key not in reached}
    assert {
        "cli.main",
        "potentials.PrefixFrame.argmin_grid",
        "potentials.FrameStack.argmin_grid",
        "euler_poisson.eval_m_and_clusters_stacked",
    } <= set(names.values()) - unreached
    assert unreached - set(UNREACHED) == set(), "reached by no command and not allowlisted"
    assert set(UNREACHED) - set(names.values()) == set(), "allowlisted but not a public definition"
    assert set(UNREACHED) - unreached == set(), "allowlisted but reached by a command"
