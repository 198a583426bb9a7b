"""Tests for the command-line front end: config parsing, subcommand
output shapes, overrides, and exit codes."""
import json
import math
import subprocess
import sys
import warnings

import pytest

from entrysolve import Formulation, solve
from entrysolve.cli import (
    ConfigError,
    cmd_curve,
    cmd_solve,
    load_config,
    main,
    parse_config,
)

FLAT = """\
# linear-drift model, sqrt revenue flow
model.kind = gbm
model.alpha = 0.05
model.beta = 0.25

economics.r = 0.1
economics.lambda = 1.0
economics.p = 0.5
economics.K = 1
economics.C = 1

payoff.kind = power
payoff.theta = 0.5
"""

AS_JSON = json.dumps({
    "model": {"kind": "gbm", "alpha": 0.05, "beta": 0.25},
    "economics": {"r": 0.1, "lambda": 1.0, "p": 0.5, "K": 1, "C": 1},
    "payoff": {"kind": "power", "theta": 0.5},
})

SIM_EXTRA = "sim.n_paths = 800\nsim.seed = 5\nsim.dt = 0.05\n"

NEVER_ENTER = FLAT.replace(
    "payoff.kind = power\npayoff.theta = 0.5",
    "payoff.kind = saturating\npayoff.cap = 2.0\npayoff.scale = 0.4")

X_STAR = 5.144979408677143


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_flat_and_json_agree(self):
        assert parse_config(FLAT) == parse_config(AS_JSON)

    def test_numbers_are_typed(self):
        config = parse_config(FLAT + SIM_EXTRA)
        assert config.economics["lambda"] == 1.0
        assert config.sim["n_paths"] == 800
        assert isinstance(config.sim["n_paths"], int)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate config key 'economics.r'"):
            parse_config(FLAT + "economics.r = 0.2\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'economics.q'"):
            parse_config(FLAT + "economics.q = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section 'foo'"):
            parse_config(FLAT + "foo.bar = 1\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("model.kind = gbm\nmodel.alpha\n")

    def test_key_without_section(self):
        with pytest.raises(ConfigError, match="must be 'section.key'"):
            parse_config("alpha = 1\n")

    def test_unparseable_number(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("model.alpha = fast\n")

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{ not json")

    def test_json_section_must_be_object(self):
        with pytest.raises(ConfigError, match="must be an object"):
            parse_config('{"model": 3}')

    def test_json_rejects_bool_for_numeric(self):
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config('{"economics": {"r": true}}')

    def test_json_rejects_number_for_string(self):
        with pytest.raises(ConfigError, match="must be a string"):
            parse_config('{"model": {"kind": 3}}')

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config("/nonexistent/run.cfg")


class TestBuilders:
    def test_gbm_rejects_gamma(self):
        config = parse_config(FLAT + "model.gamma = 0.2\n")
        with pytest.raises(ConfigError, match="model.gamma"):
            config.build_spec()

    def test_custom_kind_needs_library(self):
        config = parse_config(FLAT.replace("gbm", "custom"))
        with pytest.raises(ConfigError, match="library API"):
            config.build_spec()

    def test_unknown_model_kind(self):
        config = parse_config(FLAT.replace("gbm", "heston"))
        with pytest.raises(ConfigError, match="model.kind"):
            config.build_spec()

    def test_missing_economics_key(self):
        config = parse_config(FLAT.replace("economics.p = 0.5\n", ""))
        with pytest.raises(ConfigError, match="'economics.p'"):
            config.build_params()

    def test_payoff_kind_argument_mismatch(self):
        config = parse_config(FLAT + "payoff.cap = 3\n")
        with pytest.raises(ConfigError, match="payoff.cap"):
            config.build_payoff()

    def test_invalid_economics_value(self):
        config = parse_config(FLAT.replace("economics.r = 0.1", "economics.r = -1"))
        with pytest.raises(ConfigError, match="economics"):
            config.build_params()

    def test_sim_defaults(self):
        config = parse_config(FLAT + "sim.n_paths = 50\n")
        sim = config.build_sim(Formulation.THINNED)
        assert (sim.seed, sim.dt, sim.horizon_T) == (0, 0.01, 200.0)
        assert sim.discount_floor == 1e-6

    def test_sim_requires_n_paths(self):
        config = parse_config(FLAT)
        with pytest.raises(ConfigError, match="'sim.n_paths'"):
            config.build_sim(Formulation.FULL)

    def test_formulations(self):
        assert parse_config(FLAT).sim_formulations() == \
            [Formulation.FULL, Formulation.THINNED]
        one = parse_config(FLAT + "sim.formulation = thinned\n")
        assert one.sim_formulations() == [Formulation.THINNED]
        with pytest.raises(ConfigError, match="sim.formulation"):
            parse_config(FLAT + "sim.formulation = quick\n").sim_formulations()

    def test_out_format_precedence(self):
        config = parse_config(FLAT + "output.format = json\n")
        assert config.out_format(None, default="csv") == "json"
        assert config.out_format("csv", default="json") == "csv"
        with pytest.raises(ConfigError, match="output.format"):
            config.out_format("yaml", default="csv")


class TestSolveCommand:
    def test_json_report_round_trips_exactly(self, tmp_path, capsys):
        assert main(["solve", "--config", write(tmp_path, FLAT)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "threshold"
        solution = solve(parse_config(FLAT).build_spec(),
                         parse_config(FLAT).build_params())
        # repr-based serialization keeps every bit of the double
        assert report["x_star"] == solution.x_star
        assert report["c_i1"] == solution.c_i1
        assert report["d_i2"] == solution.d_i2
        assert report["c_a1"] == solution.c_a1
        assert report["diagnostics"]["pasting_gap_value"] < 1e-9
        audit = report["p_independence_audit"]
        assert audit["p_grid"] == [0.2, 0.4, 0.6, 0.8, 1.0]
        assert audit["threshold_spread"] < 1e-6

    def test_csv_format(self, tmp_path, capsys):
        code = main(["solve", "--config", write(tmp_path, FLAT),
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value"
        cells = dict(line.split(",", 1) for line in lines[1:])
        assert cells["mode"] == "threshold"
        assert float(cells["x_star"]) == pytest.approx(X_STAR, rel=1e-12)
        assert "p_independence_audit.threshold_spread" in cells

    def test_never_enter_report(self, tmp_path, capsys):
        assert main(["solve", "--config", write(tmp_path, NEVER_ENTER)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "never_enter"
        assert "x_star" not in report
        assert report["c_i1"] is None
        assert report["p_independence_audit"] is None

    def test_p_list_flag(self, tmp_path, capsys):
        code = main(["solve", "--config", write(tmp_path, FLAT),
                     "--p-list", "0.3,0.9"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_independence_audit"]["p_grid"] == [0.3, 0.9]

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["solve", "--config", write(tmp_path, FLAT),
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["mode"] == "threshold"

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_overflowing_tail_is_exit_3(self, tmp_path, capsys):
        # the speed density overflows in the tail of c_i1's integral; the
        # exit message names it, and numpy warns of nothing before it
        text = (FLAT.replace("alpha = 0.05", "alpha = 0.095")
                .replace("p = 0.5", "p = 1").replace("theta = 0.5", "theta = 1"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--config", write(tmp_path, text)])
        assert code == 3
        assert "integrand is not finite" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("old, new", [
        ("economics.r = 0.1", "economics.r = nan"),
        ("economics.K = 1", "economics.K = inf"),
        ("model.beta = 0.25", "model.beta = nan"),
        ("payoff.theta = 0.5", "payoff.theta = nan")])
    def test_non_finite_value_is_exit_2(self, tmp_path, capsys, old, new):
        code = main(["solve", "--config", write(tmp_path, FLAT.replace(old, new))])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_p_list_is_exit_2(self, tmp_path, capsys):
        code = main(["solve", "--config", write(tmp_path, FLAT),
                     "--p-list", "a,b"])
        assert code == 2
        assert "--p-list" in capsys.readouterr().err

    def test_argparse_rejects_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCurveCommand:
    def test_default_grid_and_columns(self, tmp_path, capsys):
        assert main(["curve", "--config", write(tmp_path, FLAT)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split(",") == [
            "x", "G_i[p=0.5]", "G_a[p=0.5]",
            "branch_lower[p=0.5]", "branch_upper[p=0.5]"]
        # 201 grid points plus the threshold row
        assert len(lines) == 1 + 202
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == sorted(xs)
        assert xs[0] == pytest.approx(X_STAR / 50.0, rel=1e-12)
        assert xs[-1] == pytest.approx(2.0 * X_STAR, rel=1e-12)

    def test_threshold_row_shows_tangency(self, tmp_path, capsys):
        main(["curve", "--config", write(tmp_path, FLAT)])
        lines = capsys.readouterr().out.splitlines()
        star = min((line.split(",") for line in lines[1:]),
                   key=lambda cells: abs(float(cells[0]) - X_STAR))
        x, g_i, g_a, lower, upper = (float(c) for c in star)
        assert x == pytest.approx(X_STAR, rel=1e-12)
        assert lower == pytest.approx(upper, abs=1e-9)
        assert g_a - g_i == pytest.approx(1.0, rel=1e-9)

    def test_explicit_range_and_points(self, tmp_path, capsys):
        code = main(["curve", "--config", write(tmp_path, FLAT),
                     "--x-min", "1.0", "--x-max", "3.0", "--points", "5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 5  # threshold outside range, no extra row

    def test_json_table(self, tmp_path, capsys):
        code = main(["curve", "--config", write(tmp_path, FLAT),
                     "--points", "3", "--x-min", "1.0", "--x-max", "2.0",
                     "--format", "json"])
        assert code == 0
        table = json.loads(capsys.readouterr().out)
        assert table["columns"][0] == "x"
        assert len(table["rows"]) == 3
        assert all(len(row) == len(table["columns"]) for row in table["rows"])

    def test_multiple_p_column_groups(self, tmp_path, capsys):
        code = main(["curve", "--config", write(tmp_path, FLAT),
                     "--points", "4", "--p-list", "0.3,0.6"])
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0].split(",")
        assert len(header) == 1 + 2 * 4
        assert "G_i[p=0.3]" in header and "G_a[p=0.6]" in header

    def test_bad_ranges_are_exit_2(self, tmp_path, capsys):
        base = ["curve", "--config", write(tmp_path, FLAT)]
        assert main(base + ["--x-min", "8.0", "--x-max", "4.0"]) == 2
        assert main(base + ["--x-min", "-1.0", "--x-max", "4.0"]) == 2
        assert main(base + ["--points", "1"]) == 2
        assert main(base + ["--p-list", "0.0,0.5"]) == 2
        capsys.readouterr()

    def test_never_enter_needs_explicit_range(self, tmp_path, capsys):
        assert main(["curve", "--config", write(tmp_path, NEVER_ENTER)]) == 2
        assert "--x-min" in capsys.readouterr().err

    def test_never_enter_with_range(self, tmp_path, capsys):
        code = main(["curve", "--config", write(tmp_path, NEVER_ENTER),
                     "--x-min", "1.0", "--x-max", "4.0", "--points", "3",
                     "--format", "json"])
        assert code == 0
        table = json.loads(capsys.readouterr().out)
        for row in table["rows"]:
            assert row[1] == 0.0      # idle value identically zero
            assert row[3] is None     # branches are nan -> null
            assert row[4] is None


class TestSimulateCommand:
    def test_csv_rows_and_row_order(self, tmp_path, capsys):
        code = main(["simulate", "--config", write(tmp_path, FLAT + SIM_EXTRA),
                     "--multipliers", "0.9,1.0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split(",") == [
            "multiplier", "formulation", "threshold", "mean", "stderr",
            "n_paths", "n_entries_mean", "catastrophe_fraction"]
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("0.9", "full"), ("0.9", "thinned"),
            ("1.0", "full"), ("1.0", "thinned")]
        assert float(rows[2][2]) == pytest.approx(X_STAR, rel=1e-10)
        assert all(r[5] == "800" for r in rows)
        # thinned rows carry no catastrophe statistics
        assert rows[1][7] == "nan" and rows[3][7] == "nan"
        assert float(rows[0][7]) >= 0.0

    def test_json_uses_null_for_nan(self, tmp_path, capsys):
        code = main(["simulate", "--config",
                     write(tmp_path, FLAT + SIM_EXTRA + "sim.formulation = thinned\n"),
                     "--format", "json"])
        assert code == 0
        table = json.loads(capsys.readouterr().out)
        assert len(table["rows"]) == 1
        assert table["rows"][0][7] is None

    def test_config_x0_is_honored(self, tmp_path, capsys):
        code = main(["simulate", "--config",
                     write(tmp_path, FLAT + SIM_EXTRA
                           + "sim.formulation = thinned\nsim.x0 = 6.0\n")])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        # starting above the threshold forces entry on every path
        assert float(row[6]) >= 1.0

    def test_multipliers_must_include_one(self, tmp_path, capsys):
        code = main(["simulate", "--config", write(tmp_path, FLAT + SIM_EXTRA),
                     "--multipliers", "0.9,1.1"])
        assert code == 2
        assert "include 1.0" in capsys.readouterr().err

    def test_never_enter_is_exit_3(self, tmp_path, capsys):
        code = main(["simulate", "--config",
                     write(tmp_path, NEVER_ENTER + SIM_EXTRA)])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_missing_n_paths_is_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", write(tmp_path, FLAT)]) == 2
        assert "sim.n_paths" in capsys.readouterr().err

    def test_infinite_sim_step_is_exit_2(self, tmp_path, capsys):
        code = main(["simulate", "--config",
                     write(tmp_path, FLAT + SIM_EXTRA.replace("0.05", "inf"))])
        assert code == 2
        assert "dt" in capsys.readouterr().err

    def test_seed_and_paths_overrides(self, tmp_path, capsys):
        cfgp = write(tmp_path, FLAT + SIM_EXTRA + "sim.formulation = thinned\n")
        assert main(["simulate", "--config", cfgp, "--paths", "500",
                     "--seed", "9"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[5] == "500"


class TestDirectCommandApi:
    def test_cmd_solve_accepts_parsed_config(self):
        text = cmd_solve(parse_config(FLAT))
        assert json.loads(text)["mode"] == "threshold"

    def test_cmd_curve_validates_points(self):
        with pytest.raises(ConfigError, match="--points"):
            cmd_curve(parse_config(FLAT), points=1)

    def test_logging_env_smoke(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ENTRYSOLVE_LOG", "INFO")
        assert main(["solve", "--config", write(tmp_path, FLAT)]) == 0
        capsys.readouterr()


def test_module_entry_point(tmp_path):
    cfgp = write(tmp_path, FLAT)
    proc = subprocess.run(
        [sys.executable, "-m", "entrysolve.cli", "solve", "--config", cfgp],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mode"] == "threshold"


def test_console_help_mentions_subcommands(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "entrysolve.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("solve", "curve", "simulate"):
        assert name in proc.stdout
