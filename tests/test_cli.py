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
from stickygas.drift import drift_cluster_snapshot
from stickygas.errors import ConfigError
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
    return list(zip(*cli._compare_columns(cases, tol)[1:]))


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

    def test_grid_too_big_to_build_exits_2(self, tmp_path, capsys):
        # numpy refuses a 2**62-point grid before it allocates anything; a
        # count it tries and fails to allocate raises MemoryError, which
        # the same guard turns into a config error
        cfg = dict(TWO_ATOM, x_grid={"min": -1.0, "max": 1.0, "count": 2**62})
        code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "x_grid cannot be built" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

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


def late_atom_config(bad_atom, index=998, n_atoms=1000):
    """TWO_ATOM with n_atoms valid atoms, atom `index` replaced by bad_atom."""
    atoms = [{"position": float(i), "mass": 1.0 / n_atoms, "velocity": 0.0} for i in range(n_atoms)]
    atoms[index] = bad_atom
    return dict(TWO_ATOM, atoms=atoms)


KEYS_MESSAGE = "atom 998 must be an object with keys ['mass', 'position', 'velocity']"
VALUES_MESSAGE = "atom 998 values must be finite numbers"
MASS_MESSAGE = "atom 998 mass must be positive"


class TestAtomRejection:
    # the first bad atom is named, with the message of the per-atom checks
    @pytest.mark.parametrize(
        "bad_atom, message",
        [
            ([998.0, 0.001, 0.0], KEYS_MESSAGE),
            ("atom", KEYS_MESSAGE),
            (None, KEYS_MESSAGE),
            ({"position": 998.0, "mass": 0.001}, KEYS_MESSAGE),
            ({"position": 998.0, "mass": 0.001, "velocity": 0.0, "charge": 1.0}, KEYS_MESSAGE),
            ({"position": 998.0, "mass": 0.001, "speed": 0.0}, KEYS_MESSAGE),
            ({"position": 998.0, "mass": True, "velocity": 0.0}, VALUES_MESSAGE),
            ({"position": 998.0, "mass": 0.001, "velocity": False}, VALUES_MESSAGE),
            ({"position": "998", "mass": 0.001, "velocity": 0.0}, VALUES_MESSAGE),
            ({"position": 998.0, "mass": 0.001, "velocity": None}, VALUES_MESSAGE),
            ({"position": math.nan, "mass": 0.001, "velocity": 0.0}, VALUES_MESSAGE),
            ({"position": 998.0, "mass": 0.001, "velocity": -math.inf}, VALUES_MESSAGE),
            ({"position": 10**400, "mass": 0.001, "velocity": 0.0}, VALUES_MESSAGE),
            ({"position": 998.0, "mass": 0.001, "velocity": -(10**309)}, VALUES_MESSAGE),
            ({"position": 998.0, "mass": 0.0, "velocity": 0.0}, MASS_MESSAGE),
            ({"position": 998.0, "mass": -0.0, "velocity": 0.0}, MASS_MESSAGE),
            ({"position": 998.0, "mass": -1, "velocity": 0.0}, MASS_MESSAGE),
            ({"position": 998.0, "mass": -1e-300, "velocity": 0.0}, MASS_MESSAGE),
        ],
    )
    def test_late_bad_atom_message(self, bad_atom, message):
        with pytest.raises(ConfigError) as exc:
            cli.RunConfig(late_atom_config(bad_atom))
        assert str(exc.value) == message

    def test_first_bad_atom_wins(self):
        cfg = late_atom_config({"position": 998.0, "mass": 0.001})
        cfg["atoms"][5] = {"position": 5.0, "mass": 0.0, "velocity": 0.0}
        cfg["atoms"][7] = {"position": 7.0, "mass": math.nan, "velocity": 0.0}
        with pytest.raises(ConfigError, match=r"^atom 5 mass must be positive$"):
            cli.RunConfig(cfg)

    def test_late_bad_atom_from_a_file_exits_2(self, tmp_path, capsys):
        # JSON reads NaN and a 400-digit integer as Python values
        for bad in (math.nan, 10**400):
            cfg = late_atom_config({"position": 998.0, "mass": 0.001, "velocity": bad})
            code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
            assert code == 2
            assert f"config error: {VALUES_MESSAGE}" in capsys.readouterr().err

    def test_int_atoms_equal_their_float_form(self):
        # an int converts to float64 as float() rounds it, beyond 2**53 too
        rng = np.random.default_rng(3)
        ints = [int(v) for v in rng.integers(-(10**6), 10**6, size=300)]
        ints += [2**53 + 1, 2**54 + 2, -(2**63) - 1, 3 * 2**70 + 1, 10**300 + 12345]
        positions = sorted(set(ints))
        masses = [int(m) for m in rng.integers(1, 1000, size=len(positions))]
        masses[:3] = [2**53 + 1, 10**20 + 7, 1]
        velocities = [int(v) for v in rng.integers(-5, 6, size=len(positions))]
        as_ints = [{"position": p, "mass": m, "velocity": v} for p, m, v in zip(positions, masses, velocities)]
        as_floats = [{key: float(value) for key, value in atom.items()} for atom in as_ints]
        mixed = [dict(a, mass=b["mass"]) for a, b in zip(as_ints, as_floats)]
        want = cli.RunConfig(dict(TWO_ATOM, atoms=as_floats)).data
        for atoms in (as_ints, mixed):
            got = cli.RunConfig(dict(TWO_ATOM, atoms=atoms)).data
            for name in ("positions", "masses"):
                assert getattr(got.measure, name).tobytes() == getattr(want.measure, name).tobytes()
            assert got.velocities.tobytes() == want.velocities.tobytes()

    def test_subclassed_atoms_and_values_accepted(self):
        # a dict subclass or a float subclass (a numpy float64) is a valid
        # atom and value, as isinstance says, and gives the same data
        class Atom(dict):
            pass

        atoms = [{"position": float(i), "mass": 0.5 + i, "velocity": -1.0 * i} for i in range(5)]
        want = cli.RunConfig(dict(TWO_ATOM, atoms=atoms)).data
        variants = (
            [Atom(atom) for atom in atoms],
            [{key: np.float64(value) for key, value in atom.items()} for atom in atoms],
        )
        for variant in variants:
            got = cli.RunConfig(dict(TWO_ATOM, atoms=variant)).data
            assert np.array_equal(got.measure.positions, want.measure.positions)
            assert np.array_equal(got.measure.masses, want.measure.masses)
            assert np.array_equal(got.velocities, want.velocities)


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

    def test_no_sample_per_grid_point(self, tmp_path, monkeypatch):
        # solve reads each time's field columns: one SolutionSample of
        # columns per time, and a per-point sample (a scalar x) raises
        original, built = euler_poisson.SolutionSample, []

        def columns_only(x, *fields):
            if not isinstance(x, list):
                raise AssertionError("a SolutionSample per grid point")
            built.append(len(x))
            return original(x, *fields)

        monkeypatch.setattr(euler_poisson, "SolutionSample", columns_only)
        cfg = dict(TWO_ATOM, times=[0.0, 0.5, 1.0])
        assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
        assert built == [101] * 3

    def test_far_finite_point_exits_3(self, tmp_path, capsys):
        # S - x P overflows at x = 8.5e307: the parent wrote m = 0 there,
        # where the mass to the left is all 6, and exited 0 with numpy warnings
        atoms = [{"position": float(p), "mass": float(p + 2), "velocity": 0.0} for p in (-1, 0, 1)]
        cfg = dict(TWO_ATOM, atoms=atoms, tau=0.5, times=[1.0], x_grid={"min": 0.0, "max": 1.7e308, "count": 3})
        code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 3
        assert "PotentialOverflow: x = 8.5e+307 is too far out" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


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

    def test_exits_3_when_no_time_clears_the_events(self, tmp_path, monkeypatch, capsys):
        # a random instance whose events lie 0.0015 apart on [0, 6]: no time clears their margin
        dense = np.linspace(0.0, 6.0, 4001).tolist()
        draw = cli.sample_times_avoiding_events
        monkeypatch.setattr(cli, "sample_times_avoiding_events", lambda rng, n, lo, hi, events: draw(rng, n, lo, hi, dense))
        code = main(["compare", "--config", write_config(tmp_path, dict(TWO_ATOM, n_instances=1)), "--out", str(tmp_path)])
        assert code == 3
        assert "EventMarginExhausted: 100 draws" in capsys.readouterr().err

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
        # is built, since no point of these grids falls in a tie window, and
        # each block's stack builds one hull
        n_instances = 10
        sims, frames, stacked, blocks, hulls = [0], [0], [0], [0], [0]
        simulate, init = cli.simulate_ep, potentials.PrefixFrame.__init__
        stack_init, hull = potentials.FrameStack.__init__, potentials._hull_vertices

        def counted_simulate(*args):
            sims[0] += 1
            return simulate(*args)

        def counted_init(self, *args):
            frames[0] += 1
            init(self, *args)

        def counted_stack(self, rows):
            stacked[0] += len(rows)
            blocks[0] += 1
            stack_init(self, rows)

        def counted_hull(*args):
            hulls[0] += 1
            return hull(*args)

        monkeypatch.setattr(cli, "simulate_ep", counted_simulate)
        monkeypatch.setattr(potentials.PrefixFrame, "__init__", counted_init)
        monkeypatch.setattr(potentials.FrameStack, "__init__", counted_stack)
        monkeypatch.setattr(potentials, "_hull_vertices", counted_hull)
        cfg = dict(TWO_ATOM, times=[0.5, 1.0], n_instances=n_instances)
        code = main(["compare", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "compare.csv")
        assert len(rows) == 2 + 5 * n_instances
        assert sims[0] == 1 + n_instances
        assert stacked[0] == len(rows)
        assert frames[0] == 0
        assert hulls[0] == blocks[0] > 1

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

    class Shifted:
        """An oracle trajectory whose clusters sit 1e-6 to the right."""

        def __init__(self, traj):
            self.traj = traj

        def state_at(self, t):
            s = self.traj.state_at(t)
            return ClusterState(t, s.positions + 1e-6, s.masses, s.velocities, s.lo, s.hi)

    def test_position_only_mismatch_fails(self):
        # oracle clusters shifted by 1e-6 with unchanged velocities: m on a
        # grid far from every cluster and the velocities still agree
        Shifted = self.Shifted
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
        compare_columns = cli._compare_columns

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

            return compare_columns(recorded_cases(), tol)

        monkeypatch.setattr(euler_poisson, "_velocities", counted_velocity)
        monkeypatch.setattr(potentials.PrefixFrame, "argmin", recorded_ties)
        monkeypatch.setattr(cli, "_compare_columns", recorded_compare)
        cfg = dict(TWO_ATOM, times=[0.5, 1.0, 5.5], n_instances=20)
        code = main(["compare", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 0
        assert branch_calls[0] == 0
        assert tied <= set(grids)


def reference_compare_rows(cases, tol):
    """compare's rows as the per-row reference computes them: one formula
    row (eval_m_grid and cluster_snapshot, equal to one stacked row bit
    for bit) and one oracle state per case, and numpy reductions per row."""
    for data, t, xs, traj, instance in cases:
        m, formula = eval_m_grid(data, xs, t), cluster_snapshot(data, t)
        state = traj.state_at(t)
        dm = float(np.max(np.abs(m - oracle_cdf(state, xs)))) if len(xs) else 0.0
        held = np.searchsorted(formula.hi, state.lo, side="right")
        du = float(np.max(np.abs(formula.velocities[held] - state.velocities)))
        dx = float(np.max(np.abs(formula.positions[held] - state.positions)))
        same = np.array_equal(formula.lo, state.lo) and np.array_equal(formula.hi, state.hi)
        yield instance, t, dm, du, bool(dm <= tol and du <= tol and dx <= tol and same)


def ensemble_config(atom_seed, n_atoms=100, n_instances=200):
    """A verify_ensemble-shaped config: the baseline N = 100 atoms drawn from
    ``atom_seed`` (positions U(-10, 10) sorted, masses U(0.01, 2)/N,
    velocities U(-2, 2)), tau 0.5, times 0.3 and 1.0 on a 1001-point grid,
    and 200 random instances."""
    rng = np.random.default_rng(atom_seed)
    positions = np.sort(rng.uniform(-10.0, 10.0, size=n_atoms))
    masses = rng.uniform(0.01, 2.0, size=n_atoms) / n_atoms
    velocities = rng.uniform(-2.0, 2.0, size=n_atoms)
    atoms = [{"position": p, "mass": m, "velocity": v} for p, m, v in zip(positions.tolist(), masses.tolist(), velocities.tolist())]
    return cli.RunConfig(
        dict(TWO_ATOM, atoms=atoms, tau=0.5, times=[0.3, 1.0], t_end=2.0, n_instances=n_instances,
             x_grid={"min": -12.0, "max": 12.0, "count": 1001})
    )


class Repartitioned:
    """An oracle trajectory whose states change their atom ranges: "merge"
    joins the first two clusters, "split" cuts the first cluster of two or
    more atoms in two, "shift" moves the first cluster's last atom into
    the next cluster, and "relabel" gives the last cluster one atom past
    the end (its first atom stays, so it meets the same formula cluster);
    positions and velocities stay the oracle's, and so does the mass at
    every position."""

    def __init__(self, traj, how):
        self.traj, self.how = traj, how

    def state_at(self, t):
        s = self.traj.state_at(t)
        pos, mass, vel, lo, hi = (np.array(c) for c in (s.positions, s.masses, s.velocities, s.lo, s.hi))
        if self.how == "merge" and lo.size > 1:
            w = mass[:2] / mass[:2].sum()
            pos, vel = np.r_[w @ pos[:2], pos[2:]], np.r_[w @ vel[:2], vel[2:]]
            mass, lo, hi = np.r_[mass[:2].sum(), mass[2:]], np.delete(lo, 1), np.delete(hi, 0)
        wide = np.flatnonzero(hi - lo > 1)
        if self.how == "split" and wide.size:
            j = wide[0]
            pos, mass, vel = np.insert(pos, j, pos[j]), np.insert(mass, j, 0.0), np.insert(vel, j, vel[j])
            lo, hi = np.insert(lo, j + 1, lo[j] + 1), np.insert(hi, j, lo[j] + 1)
        if self.how == "shift" and lo.size > 1 and hi[0] - lo[0] > 1:
            hi[0] -= 1
            lo[1] -= 1
        if self.how == "relabel":
            hi[-1] += 1
        return ClusterState(t, pos, mass, vel, lo, hi)


class Heavier:
    """An oracle trajectory whose clusters hold twice their mass."""

    def __init__(self, traj):
        self.traj = traj

    def state_at(self, t):
        s = self.traj.state_at(t)
        return ClusterState(t, s.positions, 2.0 * s.masses, s.velocities, s.lo, s.hi)


def assert_rows_equal_reference(cases, tol=1e-9):
    """The block compare of ``cases`` equals the per-row reference, repr for
    repr; returns the rows."""
    got = list(zip(*cli._compare_columns(iter(cases), tol)))
    assert repr(got) == repr(list(reference_compare_rows(cases, tol)))
    return got


class TestBlockCompareMatchesReference:
    @pytest.mark.parametrize("seed", [0, 17, 5])
    def test_ensemble_configs(self, seed):
        cases = list(cli._compare_cases(ensemble_config(seed), np.random.default_rng(seed)))
        rows = assert_rows_equal_reference(cases)
        assert len(rows) == 2 + 5 * 200 and all(row[-1] for row in rows)

    @pytest.mark.parametrize("bound", [1, 64])
    def test_block_edges_inside_an_instance(self, bound, monkeypatch):
        # a bound of 64 cuts blocks between the five times of one instance
        monkeypatch.setattr(euler_poisson, "BLOCK_ELEMENTS", bound)
        cases = list(cli._compare_cases(ensemble_config(1, n_atoms=12, n_instances=30), np.random.default_rng(3)))
        assert_rows_equal_reference(cases)

    def test_empty_grids_and_single_atoms(self):
        # empty grids first, last and between, and N = 1 instances, in one
        # block; half the oracles hold twice the mass, so that their m
        # differs and an empty grid next to them must still read 0.0
        rng = np.random.default_rng(31)
        cases = []
        for i in range(40):
            data = random_instance(rng, n_max=1 if i % 3 == 0 else 12)
            traj = simulate_ep(data, 6.0)
            xs = rng.uniform(-12.0, 12.0, size=int(rng.integers(1, 25))) if i % 4 in (1, 2) else np.empty(0)
            oracle = Heavier(traj) if i % 8 in (2, 3, 4, 5) else traj
            cases += [(data, t, xs, oracle, i) for t in sample_times_avoiding_events(rng, 2, 0.1, 5.5, traj.event_times)]
        rows = assert_rows_equal_reference(cases)
        assert [row[2] for row, case in zip(rows, cases) if not len(case[2])] == [0.0] * (len(cases) // 2)
        assert [row[-1] for row in rows] == [not isinstance(c[3], Heavier) or not len(c[2]) for c in cases]
        assert max(row[2] for row in rows) > 0.1
        assert assert_rows_equal_reference([cases[-1]])[0][2] == 0.0

    def test_shifted_positions(self):
        rng = np.random.default_rng(12)
        cases = []
        for i in range(10):
            data = random_instance(rng, n_max=8)
            traj = simulate_ep(data, 6.0)
            xs = [float(data.measure.positions[0]) - 100.0, float(data.measure.positions[-1]) + 100.0]
            wrapped = traj if i % 2 else TestCompare.Shifted(traj)
            cases += [(data, t, xs, wrapped, i) for t in sample_times_avoiding_events(rng, 3, 0.1, 5.5, traj.event_times)]
        rows = assert_rows_equal_reference(cases)
        assert [row[-1] for row in rows] == [case[4] % 2 == 1 for case in cases]

    def test_partitions_that_differ(self):
        # rows whose counts differ sit between rows whose counts match, so a
        # misaligned row after them would change its verdict
        rng = np.random.default_rng(13)
        cases, honest = [], []
        for i in range(60):
            data = random_instance(rng, n_max=10)
            traj = simulate_ep(data, 6.0)
            how = ("merge", "split", "shift", "relabel", None)[i % 5]
            xs = rng.uniform(-12.0, 12.0, size=9)
            for t in sample_times_avoiding_events(rng, 3, 0.1, 5.5, traj.event_times):
                cases.append((data, t, xs, Repartitioned(traj, how) if how else traj, i))
                honest.append((data, t, xs, traj, i))
        rows = assert_rows_equal_reference(cases)
        want = assert_rows_equal_reference(honest)
        changed = 0
        for (_, t, _, traj, _), row, base in zip(cases, rows, want):
            moved = False
            if isinstance(traj, Repartitioned):
                a, b = traj.state_at(t), traj.traj.state_at(t)
                moved = a.lo.tolist() != b.lo.tolist() or a.hi.tolist() != b.hi.tolist()
                if traj.how in ("split", "relabel"):  # m and u as before
                    assert row[2:4] == base[2:4]
            changed += moved
            assert row[-1] is not moved and (moved or row == base)
        assert changed > 80 and changed < len(cases) - 30


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_linear_axes_drop_points_that_are_not_finite(self, bad, where, axis):
        # a NaN first used to make the extents [nan, nan], a NaN later to
        # write "x,nan" points, and an infinity to write nan points
        xs, ys = [0.0, 1.0, 2.0, 3.0, 4.0], [0.5, -1.0, 2.0, 0.25, 3.0]
        keep = [i for i in range(5) if i != where]
        (xs if axis == "x" else ys)[where] = bad
        series = [("m", xs, ys), ("q", [0.0, 1.0], [1.0, 2.0])]
        svg = cli._polyline_svg(series, step=("m",))
        assert "nan" not in svg and "inf" not in svg
        clean = [("m", [xs[i] for i in keep], [ys[i] for i in keep]), series[1]]
        assert svg == cli._polyline_svg(clean, step=("m",))

    def test_no_finite_point_plots_unit_extents(self):
        svg = cli._polyline_svg([("m", [math.nan, 1.0], [0.0, math.inf])])
        assert "x: [0, 1]" in svg and "y: [0, 1]" in svg
        assert 'points=""' in svg

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extents_whose_span_overflows(self):
        # y1 - y0 is inf: the last point used to read nan, with numpy's
        # overflow and invalid-value warnings; halves keep the span finite
        svg = cli._polyline_svg([("m", [0.0, 1.0, 2.0], [-1e308, 0.0, 1e308])], step=("m",))
        assert "nan" not in svg and "inf" not in svg
        steps = "50.000,430.000 320.000,430.000 320.000,240.000 590.000,240.000 590.000,50.000"
        assert f'points="{steps}"' in svg and "y: [-1e+308, 1e+308]" in svg
        wide = cli._polyline_svg([("m", [-1.7e308, 1.7e308], [0.0, 1.0])])
        assert 'points="50.000,430.000 590.000,50.000"' in wide and "nan" not in wide

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
        cli.write_csv(str(path), ["c"], [[v] for v in row])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["c", ",".join(cli._fmt(v) for v in row)]
        assert lines[1] == "0.10000000000000001,-0,1e-300,inf,7,-3,true,false,2.4999999999999999e-17,-12,true,false,a b"


# References for the column forms of write_csv and _polyline_svg: the
# per-cell and per-point bodies they replaced.


def reference_csv_text(header, rows) -> str:
    """write_csv's text, cell by cell."""
    fmt = {float: lambda v: format(v, ".17g"), int: str, bool: lambda v: "true" if v else "false"}.get
    lines = [",".join(header)]
    lines.extend(",".join(fmt(type(v), cli._fmt)(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def reference_polyline_svg(series, width=640, height=480, logx=False, logy=False, step=()):
    """_polyline_svg point by point; equal to it where every x and y on a
    linear axis is finite."""
    pad = 50.0

    def scale(v, log):
        return (math.log10(v) if v > 0 else None) if log else v

    kept = []
    for label, xs, ys in series:
        pts = [(scale(x, logx), scale(y, logy)) for x, y in zip(xs, ys)]
        kept.append((label, [(x, y) for x, y in pts if x is not None and y is not None]))
    xs_all = [x for _, pts in kept for x, _ in pts] or [0.0, 1.0]
    ys_all = [y for _, pts in kept for _, y in pts] or [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 - x0 == 0.0:
        x1 = x0 + 1.0
    if y1 - y0 == 0.0:
        y1 = y0 + 1.0

    def mapx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def mapy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    body = [
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    ]
    for idx, (label, pts) in enumerate(kept):
        line, prev = [], None
        for x, y in pts:
            if label in step and prev is not None:
                line.append(f"{mapx(x):.3f},{mapy(prev):.3f}")
            line.append(f"{mapx(x):.3f},{mapy(y):.3f}")
            prev = y
        color = cli._COLORS[idx % len(cli._COLORS)]
        body.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(line)}"/>'
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
    return cli._svg_document(width, height, "\n".join(body) + "\n")


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e-310, 1.7976931348623157e308, 0.1, -1 / 3]


def random_floats(rng, n):
    """Random float64 bit patterns, normal draws and the special values."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64).tolist()
    pool = bits + rng.normal(size=n).tolist() + (rng.normal(size=n) * 1e-310).tolist() + SPECIAL_FLOATS
    return [pool[i] for i in rng.integers(0, len(pool), size=n)]


def random_column(rng, kind, n):
    """n cells of one kind: a plain Python type, a numpy scalar type, or mixed."""
    floats = random_floats(rng, n)
    ints = [int(v) for v in rng.integers(-(2**62), 2**62, size=n)]
    ints[: n // 4] = [v * 10**30 for v in ints[: n // 4]]
    bools = rng.random(n) < 0.5
    cells = {
        "float": floats,
        "int": ints,
        "bool": bools.tolist(),
        "str": [f"s{v}" for v in ints],
        "np.float64": [np.float64(v) for v in floats],
        "np.float32": [np.float32(v) for v in rng.normal(size=n)],
        "np.int64": list(np.array(ints[n // 4:] * 2, dtype=np.int64)[:n]),
        "np.bool_": list(bools),
    }
    if kind == "mixed":
        pools = list(cells.values()) + [[None] * n]
        return [pools[k][i] for i, k in enumerate(rng.integers(0, len(pools), size=n))]
    return cells[kind]


CELL_KINDS = ("float", "int", "bool", "str", "np.float64", "np.float32", "np.int64", "np.bool_", "mixed")


class TestTextOutputMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_csv_bytes(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(1, 60))
        kinds = [CELL_KINDS[k] for k in rng.integers(0, len(CELL_KINDS), size=int(rng.integers(1, 9)))]
        columns = [random_column(rng, kind, n_rows) for kind in kinds]
        header = [f"c{j}" for j in range(len(kinds))]
        want = reference_csv_text(header, zip(*columns))
        path = tmp_path / "cells.csv"
        for form in (columns, [tuple(c) for c in columns], tuple(columns)):
            cli.write_csv(str(path), header, form)
            assert path.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_csv_bytes_per_cell_kind(self, tmp_path, kind):
        rng = np.random.default_rng(CELL_KINDS.index(kind))
        columns = [random_column(rng, kind, 400), random_column(rng, "float", 400)]
        path = tmp_path / "cells.csv"
        cli.write_csv(str(path), ["a", "b"], columns)
        assert path.read_bytes() == reference_csv_text(["a", "b"], zip(*columns)).encode("utf-8")

    def test_csv_without_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        for columns in ([], [[], []], ([], ())):
            cli.write_csv(str(path), ["x", "y"], columns)
            assert path.read_text(encoding="utf-8") == reference_csv_text(["x", "y"], []) == "x,y\n"

    def test_csv_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equally long"):
            cli.write_csv(str(tmp_path / "ragged.csv"), ["x", "y"], [[1.0, 3.0], [2.0]])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", range(8))
    def test_svg_bytes_on_finite_series(self, seed):
        rng = np.random.default_rng(100 + seed)
        series = []
        for label in ("m", "q", "u", "E")[: int(rng.integers(1, 5))]:
            n = int(rng.integers(0, 300))
            xs = np.sort(rng.uniform(-12.0, 12.0, n))
            ys = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8)
            if rng.random() < 0.3:
                ys = np.round(ys)  # repeated values and exact zeros of either sign
                ys[rng.random(n) < 0.2] = -0.0
            series.append((label, xs.tolist(), ys.tolist()))
        flat = rng.random() < 0.2  # one value everywhere: zero extents
        if flat and series:
            series[0] = (series[0][0], series[0][1], [1.5] * len(series[0][1]))
        for step in ((), ("m",), ("m", "E")):
            assert cli._polyline_svg(series, step=step) == reference_polyline_svg(series, step=step)

    @pytest.mark.parametrize(
        "ys",
        [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [-1.0, 0.0, -0.0], [-1.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]],
    )
    def test_svg_extents_keep_the_sign_of_the_first_zero(self, ys):
        for series in ([("m", [-0.0, 0.0, 2.0], ys)], [("m", [], []), ("q", [0.0, -0.0, 0.0], ys)], []):
            assert cli._polyline_svg(series, step=("m",)) == reference_polyline_svg(series, step=("m",))

    @pytest.mark.parametrize("seed", range(6))
    def test_svg_bytes_on_log_series(self, seed):
        # on a log axis both forms drop NaN and values that are not > 0
        rng = np.random.default_rng(200 + seed)
        for logx, logy in ((True, True), (False, True), (True, False)):
            series = []
            for label in ("err_m", "err_u"):
                taus = (2.0 ** -np.arange(1, 11)).tolist()
                errs = (10.0 ** rng.uniform(-16, 2, len(taus))).tolist()
                for values, log in ((taus, logx), (errs, logy)):
                    bad = [0.0, -0.0, -1.0] + [math.nan] * log  # a linear axis keeps finite values
                    for i in rng.integers(0, len(values), size=int(rng.integers(0, 4))).tolist():
                        values[i] = bad[i % len(bad)]
                series.append((label, taus, errs))
            want = reference_polyline_svg(series, logx=logx, logy=logy)
            assert cli._polyline_svg(series, logx=logx, logy=logy) == want

    def test_plot_of_a_solution_file_matches_reference(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(TWO_ATOM, times=[0.0, 0.5, 2.0]))
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        for t in ("0", "0.5", "2"):
            header, rows = read_csv(tmp_path / f"solution_t{t}.csv")
            xs = [float(r[0]) for r in rows]
            series = [(c, xs, [float(r[header.index(c)]) for r in rows]) for c in ("m", "q", "u", "E")]
            assert cli._polyline_svg(series, step=("m",)) == reference_polyline_svg(series, step=("m",))


class TestToleranceOverride:
    def test_tie_override_lasts_one_call(self, tmp_path):
        argv = ["solve", "--config", write_config(tmp_path, TWO_ATOM), "--out", str(tmp_path)]
        assert main(argv + ["--tol-tie", "1e-6"]) == 0
        assert potentials.DEFAULT_TIE_TOL == 1e-12


    def test_tie_override_reaches_the_shock_filter(self, tmp_path):
        # relax builds its one drift frame inside main's override window. At
        # relax_time 5 the drift cluster sits at 1/3 and the scaled one at
        # 1/3 + tau; a grid point 1e-7 right of the drift cluster is kept
        # under the default tie tolerance (err_m = 1 there) and ties, so is
        # dropped, under a tie tolerance of 1e-6
        atoms = [(-1.0, 1.0 / 3.0), (1.0, 2.0 / 3.0)]
        data = InitialData.from_atoms([a for a, _ in atoms], [w for _, w in atoms], [1.0, 1.0], 1.0)
        x0 = float(drift_cluster_snapshot(data.measure, 5.0).positions[0]) + 1e-7
        cfg = dict(
            TWO_ATOM,
            atoms=[{"position": a, "mass": w, "velocity": 1.0} for a, w in atoms],
            relax_time=5.0,
            tau_sequence=[0.5, 0.25],
            x_grid={"min": x0, "max": x0 + 5.0, "count": 2},
        )
        runs = {
            "default": (cfg, []),
            "flag": (cfg, ["--tol-tie", "1e-6"]),
            "config": (dict(cfg, tolerances={"tie": 1e-6}), []),
        }
        err_m = {}
        for name, (run_cfg, flags) in runs.items():
            out = tmp_path / name
            argv = ["relax", "--config", write_config(tmp_path, run_cfg, f"{name}.json"), "--out", str(out)]
            assert main(argv + flags) == 0
            assert potentials.DEFAULT_TIE_TOL == 1e-12
            _, rows = read_csv(out / "relax_report.csv")
            err_m[name] = [float(r[1]) for r in rows]
        assert err_m == {"default": [1.0, 1.0], "flag": [0.0, 0.0], "config": [0.0, 0.0]}

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


class TestCommandLine:
    @pytest.mark.parametrize("argv", [["bogus", "--config", "config.json"], ["solve"], ["solve", "--out", "."]])
    def test_unknown_command_or_missing_config_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "error" in capsys.readouterr().err


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
    "oracle.simulate_drift": "the drift oracle; ROADMAP items 4 and 12 wire it into relax",
    "oracle.Trajectory.events": "the merges as `MergeEvent`s, built on first read; the commands read the event columns",
    "relax.eval_scaled": "the scaled fields at a point; ROADMAP items 4 and 12 wire them",
    "relax.scaled_cluster_snapshot": "the scaled clusters; ROADMAP items 4 and 12 wire them",
    "validate.check_oleinik_states": "the cluster Oleinik check; ROADMAP item 12 runs it on both layers",
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
