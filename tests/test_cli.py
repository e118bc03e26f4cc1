import json
import math
import os

import numpy as np
import pytest

from stickygas import potentials
from stickygas.cli import main

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
        ],
    )
    def test_nonfinite_or_boolean_value_exits_2(self, tmp_path, capsys, command, key, value):
        cfg = dict(TWO_ATOM, **{key: value})
        code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


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
