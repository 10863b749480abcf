"""Command-line interface: config parsing, artifacts, and exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

import lcdisc
from lcdisc import _csvrows, cli, discrimination, lightcone, montecarlo
from lcdisc.cli import RunConfig, build_config, fmt, main, parse_config
from lcdisc.errors import ConfigError

GAUSS_ARGS = ["--family", "gaussian", "--k0", "5", "--sigma", "1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_config_basic():
    values = parse_config(
        "# comment line\n"
        "family=gaussian k0=5 sigma=1\n"
        "\n"
        "R_list=0.5,1,2 seed=7\n")
    assert values == {"family": "gaussian", "k0": 5.0, "sigma": 1.0,
                      "R_list": [0.5, 1.0, 2.0], "seed": 7}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config("k0=5\nwavelength=3\n")


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key.*line 1"):
        parse_config("k0=5\nk0=6\n")


def test_parse_config_rejects_malformed_token():
    with pytest.raises(ConfigError, match="line 1.*key=value"):
        parse_config("k0:5\n")
    with pytest.raises(ConfigError, match="invalid value"):
        parse_config("k0=five\n")


def test_build_config_flag_overrides_file():
    config = build_config({"k0": 5.0, "t": 1.0}, {"t": 2.0})
    assert config.k0 == 5.0
    assert config.t == 2.0


@pytest.mark.parametrize("values", [
    {"pi0": 1.5},
    {"strategy": "random"},
    {"format": "xml"},
    {"prob_tol": 0.0},
])
def test_build_config_range_validation(values):
    with pytest.raises(ConfigError):
        build_config(values, {})


def test_scan_time_json(capsys):
    code, out, err = run_cli(capsys, "scan-time", "--R", "2.5")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "scan-time"
    assert doc["result"] == {"R": 2.5, "scan_T": 2.5}
    assert doc["config"]["R"] == "2.5"


def test_ruler_json(capsys):
    code, out, _ = run_cli(capsys, "ruler", "--L1", "2", "--L2", "4",
                           "--observer-x", "0.25")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["min_time"] == 1.5
    assert result["indistinguishable"] is False


def test_amplitude_info_json(capsys, gauss_profile):
    code, out, _ = run_cli(capsys, "amplitude-info", *GAUSS_ARGS,
                           "--n-points", "256")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["norm_const"] == pytest.approx(gauss_profile.norm_const,
                                                 rel=1e-11)
    assert result["k_max"] == pytest.approx(gauss_profile.k_max, rel=1e-11)
    assert result["momentum_norm"] == pytest.approx(1.0, abs=1e-9)
    assert result["momentum_width"] == 1.0
    assert result["default_r_max"] == 10.0
    assert result["grid_r_max"] == 10.0
    assert result["coverage_warning"] is False
    assert 1.2 < result["r99"] < 1.5


def test_dump_density_csv(capsys, gauss_profile):
    code, out, _ = run_cli(capsys, "dump-density", *GAUSS_ARGS,
                           "--r-max", "5", "--n-points", "64")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# lcdisc dump-density"
    assert lines[1].startswith("# config: ")
    assert lines[2] == "r,re_amp,im_amp,density"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 64
    radii = [float(row[0]) for row in rows]
    assert radii[0] == 0.0 and radii[-1] == 5.0
    for row in rows:
        re_amp, im_amp, density = map(float, row[1:])
        assert density == pytest.approx(re_amp ** 2 + im_amp ** 2, rel=1e-9)
    # a grid of subnormal radii, whose every j0 is 1: each row is A(0, t),
    # with no division by a subnormal radius on the way
    code, out, err = run_cli(capsys, "dump-density", *GAUSS_ARGS,
                             "--r-max", "1e-310", "--n-points", "16")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[3:]]
    assert len(rows) == 16
    assert float(rows[-1][0]) == 1e-310
    at_origin = lcdisc.amplitude_on_radii(gauss_profile, [0.0], 0.0)[0]
    for row in rows:
        re_amp, im_amp, density = map(float, row[1:])
        assert math.isfinite(density)
        assert row[1:] == rows[0][1:]
        assert re_amp == pytest.approx(at_origin.real, rel=1e-11)
        assert im_amp == pytest.approx(at_origin.imag, abs=1e-11)


def test_config_echo_reparses(capsys):
    code, out, _ = run_cli(capsys, "dump-density", *GAUSS_ARGS,
                           "--r-max", "5", "--n-points", "64")
    assert code == 0
    echo = out.splitlines()[1].removeprefix("# config: ")
    values = parse_config(echo)
    assert values["family"] == "gaussian"
    assert values["k0"] == 5.0
    assert values["r_max"] == 5.0
    assert values["n_points"] == 64


def test_error_curve_csv_fixed_time(capsys):
    code, out, _ = run_cli(capsys, "error-curve", *GAUSS_ARGS,
                           "--R-list", "0.5,1,2", "--fixed-t", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "R,t_star,p_t,P_e,scan_T,total_T"
    rows = [[float(v) for v in line.split(",")] for line in lines[3:]]
    assert [row[0] for row in rows] == [0.5, 1.0, 2.0]
    p_e = [row[3] for row in rows]
    assert p_e[0] > p_e[1] > p_e[2]
    for row in rows:
        assert row[1] == 0.0  # fixed measurement time
        assert row[4] == row[0]  # scan_T = R
        assert row[5] == row[1] + row[4]


@pytest.mark.parametrize("radius_args,R", [
    (("--R", "1.5"), 1.5),
    (("--R-min", "0.75", "--R-max", "2", "--R-count", "1"), 0.75),
], ids=["single-R", "R-count-1"])
def test_error_curve_csv_one_radius(capsys, radius_args, R):
    # a single --R, and --R-count 1, which takes --R-min alone
    code, out, _ = run_cli(capsys, "error-curve", *GAUSS_ARGS, *radius_args,
                           "--fixed-t", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "R,t_star,p_t,P_e,scan_T,total_T"
    rows = [[float(v) for v in line.split(",")] for line in lines[3:]]
    assert len(rows) == 1
    assert rows[0][0] == R
    assert rows[0][1] == 0.0


def test_error_curve_json(capsys):
    code, out, _ = run_cli(capsys, "error-curve", *GAUSS_ARGS, "--pi0", "0.3",
                           "--R-list", "1,2", "--fixed-t", "0",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["priors"] == {"pi0": 0.3, "pi1": 0.7}
    assert [p["R"] for p in doc["points"]] == [1.0, 2.0]
    for point in doc["points"]:
        assert point["P_e"] == pytest.approx(2 * 0.3 * 0.7 * point["p_t"],
                                             rel=1e-9)


def test_error_curve_zero_radius_row(capsys):
    code, out, _ = run_cli(capsys, "error-curve", *GAUSS_ARGS,
                           "--R-list", "0", "--fixed-t", "0")
    assert code == 0
    rows = out.splitlines()[3:]
    assert len(rows) == 1
    R, t_star, p_t, p_e, scan_T, total_T = (float(v)
                                            for v in rows[0].split(","))
    assert (R, t_star, p_t, scan_T, total_T) == (0.0, 0.0, 1.0, 0.0, 0.0)
    assert p_e == 0.5  # 2 * pi0 * pi1 with even priors


def test_optimal_time_matches_library(capsys, gauss_d10):
    from lcdisc import optimal_measurement_time
    code, out, _ = run_cli(capsys, "optimal-time", *GAUSS_ARGS,
                           "--d", "10", "--R", "2", "--t-lo", "6",
                           "--t-hi", "14", "--t-grid", "12")
    assert code == 0
    result = json.loads(out)["result"]
    best = optimal_measurement_time(gauss_d10, 2.0, (6.0, 14.0), n_grid=12)
    assert result["t_star"] == float(fmt(best.t_star))
    assert result["p_t_star"] == float(fmt(best.p_t_star))


def test_error_curve_radius_grid(capsys):
    code, out, _ = run_cli(capsys, "error-curve", *GAUSS_ARGS,
                           "--R-min", "1", "--R-max", "2", "--R-count", "3",
                           "--fixed-t", "0")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[3:]]
    assert [float(row[0]) for row in rows] == [1.0, 1.5, 2.0]


def test_optimal_time_json(capsys):
    code, out, _ = run_cli(capsys, "optimal-time", *GAUSS_ARGS,
                           "--d", "10", "--R", "2", "--t-lo", "6",
                           "--t-hi", "14", "--t-grid", "12")
    assert code == 0
    result = json.loads(out)["result"]
    assert 9.0 < result["t_star"] < 11.0
    assert result["on_boundary"] is False
    assert result["P_e"] == pytest.approx(0.5 * result["p_t_star"], rel=1e-9)
    assert result["total_T"] == pytest.approx(result["t_star"] + 2.0,
                                              abs=1e-9)


def test_monte_carlo_json_and_trials_csv(capsys, tmp_path):
    trials_path = tmp_path / "trials.csv"
    argv = ["monte-carlo", *GAUSS_ARGS, "--R", "1", "--trials", "1000",
            "--seed", "1", "--trials-csv", str(trials_path)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    estimate = json.loads(out)["estimate"]
    assert estimate["n_trials"] == 1000
    assert estimate["n_errors"] >= 0
    assert 0.0 < estimate["p_t"] < 1.0
    lines = trials_path.read_text().splitlines()
    assert lines[0] == "# lcdisc monte-carlo"
    assert lines[2] == "trial,true_state,rho,inside,outcome,guess,correct"
    assert len(lines) == 1003
    first = lines[3].split(",")
    assert first[0] == "0"
    assert first[1] in ("plus", "minus")
    assert first[4] in ("plus", "minus", "unknown")
    # Byte-identical rerun of the same seeded run.
    rerun_code, rerun_out, _ = run_cli(capsys, *argv)
    assert rerun_code == 0
    assert rerun_out == out
    assert trials_path.read_text().splitlines() == lines


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "scan.json"
    code, out, _ = run_cli(capsys, "scan-time", "--R", "3",
                           "--output", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["result"]["scan_T"] == 3.0


def test_config_file_with_flag_override(capsys, tmp_path):
    config_path = tmp_path / "run.cfg"
    config_path.write_text("R=2\n")
    code, out, _ = run_cli(capsys, "scan-time", "--config", str(config_path),
                           "--R", "3")
    assert code == 0
    assert json.loads(out)["result"]["R"] == 3.0


@pytest.mark.parametrize("argv", [
    ["scan-time"],  # missing R
    ["scan-time", "--R", "-1"],
    ["error-curve", "--family", "gaussian", "--k0", "5", "--sigma", "1"],
    ["error-curve", *GAUSS_ARGS, "--R-list", "1,2", "--R-min", "1"],
    ["error-curve", *GAUSS_ARGS, "--R-list", "1,2", "--pi0", "1.5"],
    ["dump-density", *GAUSS_ARGS, "--kappa", "2", "--r-max", "5"],
    ["dump-density", "--family", "exponential", "--kappa", "2", "--k0", "5"],
    ["dump-density", "--family", "cauchy", "--r-max", "5"],
    ["ruler", "--L1", "2"],  # missing L2
    ["monte-carlo", *GAUSS_ARGS, "--R", "1", "--trials", "10"],
    ["monte-carlo", *GAUSS_ARGS, "--R", "1", "--trials", "1000",
     "--seed", "-1"],
    ["scan-time", "--R", "nope"],
    ["scan-time", "--config", "/nonexistent/path.cfg", "--R", "1"],
    # a NaN tolerance once exited 3 and an infinite one switched off the guard
    ["error-curve", *GAUSS_ARGS, "--R-list", "1", "--fixed-t", "0",
     "--prob-tol", "nan"],
    ["error-curve", *GAUSS_ARGS, "--R-list", "1", "--fixed-t", "0",
     "--prob-tol", "inf"],
    ["amplitude-info", *GAUSS_ARGS, "--n-points", "256", "--amp-tol", "nan"],
    ["error-curve", *GAUSS_ARGS, "--R-min", "1", "--R-max", "2",
     "--R-count", "0"],
])
def test_configuration_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "configuration error" in err


@pytest.mark.parametrize("argv", [
    ["scan-time", "--R", "1", "--output"],
    ["dump-density", *GAUSS_ARGS, "--n-points", "64", "--output"],
    ["monte-carlo", *GAUSS_ARGS, "--R", "1", "--trials", "1000",
     "--trials-csv"],
], ids=["scan-time", "dump-density", "monte-carlo"])
def test_unwritable_output_exits_2(capsys, tmp_path, monkeypatch, argv):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran before the trial CSV was opened")

    monkeypatch.setattr(montecarlo, "estimate_error", no_trials)
    code, out, err = run_cli(capsys, *argv,
                             str(tmp_path / "missing" / "out.txt"))
    assert code == 2
    assert "configuration error" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("command,args", [
    ("scan-time", ["--R", "2.5"]),
    ("dump-density", [*GAUSS_ARGS, "--r-max", "5", "--n-points", "64"]),
])
def test_flags_before_the_subcommand(capsys, command, args):
    after = run_cli(capsys, command, *args)
    before = run_cli(capsys, *args, command)
    split = run_cli(capsys, *args[:2], command, *args[2:])
    assert after[0] == 0 and after[1]
    assert before == after == split


def _assert_usage_error(capsys, argv):
    """Assert that ``argv`` is refused as argparse refused it: a usage line
    and ``lcdisc: error:`` on stderr, then SystemExit(2)."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: lcdisc")
    assert "\nlcdisc: error: " in captured.err


def test_unknown_flag_exits_2(capsys):
    _assert_usage_error(capsys, ["scan-time", "--bogus", "1"])


@pytest.mark.parametrize("argv", [
    ["scan-time", "--sig", "0.8"],  # no prefix abbreviations
    ["scan-time", "--R"],
    ["--R", "1"],
    ["scan-time", "ruler", "--R", "1"],
    ["scan-time", "--R", "1", "-x"],
], ids=["abbreviated", "no-value", "no-command", "two-commands",
        "single-dash"])
def test_malformed_command_lines_exit_2(capsys, argv):
    _assert_usage_error(capsys, argv)


def test_flag_value_forms(capsys):
    spaced = run_cli(capsys, "dump-density", *GAUSS_ARGS, "--r-max", "5",
                     "--n-points", "64")
    joined = run_cli(capsys, "dump-density", "--family=gaussian", "--k0=5",
                     "--sigma=1", "--r-max=5", "--n-points=64")
    repeated = run_cli(capsys, "dump-density", *GAUSS_ARGS, "--r-max", "9",
                       "--n-points", "64", "--r-max", "5")
    assert spaced[0] == 0 and spaced[1]
    assert spaced == joined == repeated


def test_flag_value_may_start_with_a_dash(capsys):
    code, out, _ = run_cli(capsys, "optimal-time", "--family", "exponential",
                           "--kappa", "2", "--d", "3", "--R", "1",
                           "--t-lo", "-1", "--t-hi", "6")
    assert code == 0
    assert json.loads(out)["config"]["t_lo"] == "-1"


@pytest.mark.parametrize("t_lo,t_hi", [("-inf", "6"), ("0", "inf"),
                                       ("nan", "6"), ("0", "nan")])
def test_non_finite_window_end_exits_2(capsys, t_lo, t_hi):
    code, out, err = run_cli(capsys, "optimal-time", "--family",
                             "exponential", "--kappa", "2", "--d", "3",
                             "--R", "1", "--t-lo", t_lo, "--t-hi", t_hi)
    assert code == 2
    assert out == ""
    assert "t_window ends must be finite" in err


def test_help_exits_0_and_lists_every_flag(capsys):
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as excinfo:
            main(["scan-time", flag])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        flags = [line.split()[0] for line in out.splitlines()
                 if line.startswith("  --")]
        assert flags == ["--config"] + [
            "--" + field.name.replace("_", "-")
            for field in dataclasses.fields(RunConfig)]
        assert all(command in out for command in cli.COMMANDS)


_JSON_SCALARS = (
    st.text()
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                       1e308, -1e308])
    | st.integers() | st.integers(min_value=2 ** 64, max_value=2 ** 200)
    | st.booleans() | st.none())
_JSON_DOCUMENTS = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20)


def _round12(value):
    """``value`` with every float in it, in nested dicts and lists too,
    rounded to 12 significant digits, as the JSON writer writes it."""
    if isinstance(value, float):
        return float(fmt(value))
    if isinstance(value, dict):
        return {key: _round12(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_round12(item) for item in value]
    return value


@settings(max_examples=200, deadline=None)
@given(document=_JSON_DOCUMENTS)
@example(document={"": [], "\u00e9\x00\n\"": {}, "a": [[-0.0, 1e308]]})
def test_json_writer_matches_json_dumps(document):
    assert cli._json_text(document) == json.dumps(_round12(document),
                                                  indent=2, sort_keys=True)


def test_numeric_failure_exits_3(capsys):
    # monte-carlo's amp_tol reaches the sampler's radial grid
    for argv in (["amplitude-info", *GAUSS_ARGS, "--n-points", "256",
                  "--amp-tol", "1e-18"],
                 ["monte-carlo", *GAUSS_ARGS, "--R", "1", "--trials", "1000",
                  "--amp-tol", "1e-30"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "numeric failure" in err


def test_huge_fixed_time_exits_3(capsys):
    # 1.7e308 once overflowed the panel width to 0 and exited 2
    for fixed_t in ("1e15", "1.7e308"):
        code, _, err = run_cli(capsys, "error-curve", *GAUSS_ARGS,
                               "--R-list", "1", "--fixed-t", fixed_t)
        assert code == 3
        assert "cap" in err
        # an overflowed panel count is not printed
        assert "inf" not in err


@pytest.mark.parametrize("argv", [
    ["dump-density", *GAUSS_ARGS, "--n-points", "1000000000"],
    ["optimal-time", *GAUSS_ARGS, "--R", "1", "--t-grid", "1000000000"],
    ["error-curve", *GAUSS_ARGS, "--R-min", "1", "--R-max", "2",
     "--R-count", "1000000000"],
    ["error-curve", *GAUSS_ARGS, "--fixed-t", "1", "--R-list",
     ",".join(str(0.001 * (i + 1)) for i in range(cli.MAX_R_COUNT + 1))],
], ids=["n_points", "t_grid", "R_count", "R_list"])
def test_huge_grid_sizes_exit_3(capsys, argv):
    # refused before the grid is allocated
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert "lcdisc: resource limit:" in err
    assert "cap" in err and out == ""


def test_huge_trial_count_exits_3_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the trial count was checked")

    monkeypatch.setattr(montecarlo, "outside_probability", no_work)
    monkeypatch.setattr(montecarlo.DetectionSampler, "for_profile", no_work)
    code, out, err = run_cli(capsys, "monte-carlo", *GAUSS_ARGS, "--d", "1",
                             "--R", "1.5", "--trials", "1000000000000000")
    assert code == 3
    assert "lcdisc: resource limit: n_trials exceeds the cap" in err
    assert out == ""


def test_overflowing_norm_exits_3_without_warning():
    # the norm integral of kappa = 1e300 overflows; it once printed NumPy's
    # "RuntimeWarning: overflow encountered in multiply" before exiting 3
    src = Path(lcdisc.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "lcdisc", "amplitude-info", "--family",
         "exponential", "--kappa", "1e300"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert result.returncode == 3
    assert "numeric failure" in result.stderr
    assert "Warning" not in result.stderr


@pytest.mark.parametrize("argv", [
    ["error-curve", *GAUSS_ARGS, "--R-list", "0.5,1,2", "--fixed-t", "1",
     "--format", "csv"],
    ["dump-density", *GAUSS_ARGS, "--r-max", "5", "--n-points", "40000"],
], ids=["error-curve", "dump-density"])
def test_csv_on_stdout_is_the_file_bytes(tmp_path, argv):
    # a CSV written to stdout is the bytes the same request writes to a
    # file, head and rows in order; dump-density's 40000 rows take three
    # slices of the row builder
    src = Path(lcdisc.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "lcdisc", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True)
    assert result.returncode == 0 and result.stderr == b""
    path = tmp_path / "out.csv"
    assert main([*argv, "--output", str(path)]) == 0
    written = path.read_bytes()
    # the file's config echo names its path
    echo = f" output={path}".encode()
    assert written.count(echo) == 1
    assert result.stdout == written.replace(echo, b"")


NARROW_ARGS = ["--family", "exponential", "--kappa", "0.55", "--d", "2",
               "--t", "1"]


def test_default_radial_grid_widens_to_cover_the_mass(capsys):
    # the default extent, 3 + 10 / 0.55, misses mass of this profile; two
    # doublings reach 84.73
    code, out, _ = run_cli(capsys, "amplitude-info", *NARROW_ARGS)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["default_r_max"] == 21.1818181818
    assert result["grid_r_max"] == 84.7272727273
    assert result["coverage_warning"] is False
    assert result["grid_norm"] == pytest.approx(0.999999927146, abs=1e-11)
    assert result["r99"] == pytest.approx(3.67995171054, rel=1e-10)
    code, out, _ = run_cli(capsys, "dump-density", *NARROW_ARGS)
    assert code == 0
    assert out.splitlines()[-1].split(",")[0] == "84.7272727273"


def test_help_is_independent_of_hash_seed():
    # flags are registered in RunConfig field order, not in set order
    src = Path(lcdisc.__file__).resolve().parent.parent
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        outputs.append(subprocess.run(
            [sys.executable, "-m", "lcdisc", "scan-time", "--help"],
            env=env, capture_output=True, text=True, check=True).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].index("--family") < outputs[0].index("--trials-csv")


def _floats(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for item in node for x in _floats(item)]
    return [node] if isinstance(node, float) else []


# each JSON subcommand: its argv, the key of its result, the record whose
# fields the result holds and the extra keys beside them
_JSON_COMMANDS = {
    "scan-time": (["--R", "2.5"], "result", None, {"R", "scan_T"}),
    "ruler": (["--L1", "2", "--L2", "3.3", "--observer-x", "0.3"],
              "result", lightcone.RulerTiming,
              {"L1", "L2", "observer_position"}),
    "amplitude-info": ([*GAUSS_ARGS, "--t", "1.3", "--n-points", "256"],
                       "result", None,
                       {"norm_const", "k_max", "momentum_norm",
                        "momentum_width", "default_r_max", "grid_r_max",
                        "grid_norm", "coverage_warning", "r99"}),
    "optimal-time": ([*GAUSS_ARGS, "--d", "3", "--R", "1", "--t-hi", "6",
                      "--t-grid", "12", "--pi0", "0.3"],
                     "result", discrimination.OptimalTime,
                     {"P_e", "scan_T", "total_T"}),
    "error-curve": ([*GAUSS_ARGS, "--R-list", "0.5,1.7", "--fixed-t", "0.9",
                     "--pi0", "0.3", "--format", "json"],
                    "points", None,
                    {"R", "t_star", "p_t", "P_e", "scan_T", "total_T"}),
    "monte-carlo": ([*GAUSS_ARGS, "--R", "1", "--t", "0.7", "--trials",
                     "1000"], "estimate", montecarlo.ErrorEstimate, set()),
}


@pytest.mark.parametrize("command", sorted(_JSON_COMMANDS))
def test_json_floats_have_12_digits_and_record_fields(capsys, command):
    args, key, record, extras = _JSON_COMMANDS[command]
    code, out, _ = run_cli(capsys, command, *args)
    assert code == 0
    doc = json.loads(out)
    floats = _floats(doc)
    assert floats and all(x == float(fmt(x)) for x in floats)
    fields = {f.name for f in dataclasses.fields(record)} if record else set()
    results = doc[key] if isinstance(doc[key], list) else [doc[key]]
    for result in results:
        assert set(result) == fields | extras
    assert set(doc) == {"command", "config", key} | (
        {"priors"} if command == "error-curve" else set())


def test_fmt_significant_digits():
    assert fmt(0.9998676918917029) == "0.999867691892"
    assert fmt(2.0) == "2"
    assert fmt(1e-5) == "1e-05"


def test_runconfig_echo_skips_unset():
    items = dict(RunConfig().echo_items())
    assert "family" not in items
    assert items["pi0"] == "0.5"
    assert items["strategy"] == "paper"


# sha256 of the --trials-csv file, of that file without its rho column and
# of the JSON on stdout.  Any change to the randomness contract, the sampler
# or the row format moves the first; the second pins the Philox draws and
# the decisions alone, so a last-bit change in the sampler's grid, which can
# move a radius's twelfth digit, leaves it.  When the offset-map grid moved
# to angle addition, trial 445's rho went 0.8047052240935001 to
# 0.8047052240935, one float apart, and its printed 0.804705224094 to
# ...093; nothing else moved.
FROZEN_MONTE_CARLO = {
    "centred-paper": (
        ["--R", "1", "--t", "0", "--pi0", "0.5", "--strategy", "paper",
         "--seed", "893741986"],
        "aa7aa545d4517afd9a745531d37fc960a907d23a0bd83992aebaa97113cb47c2",
        "fd3272480a0967ac2decc308ee624109d5b0eda08f0c93cd463c14049446459c",
        "b7a227f3697f586ee9199aaf961392842ab81b33796e74dad2ccafd02fe71488"),
    "offset-map": (
        ["--d", "3", "--R", "2.5", "--t", "1", "--pi0", "0.3",
         "--strategy", "map", "--seed", "11"],
        "d733f95406702e66c574680c03fe3f98858eb7de71589eef5aa24f5758eeb45c",
        "a466a6996791684b8f34e716930aa55d49f7f9a61d59509952eed11e09b69e64",
        "b7aa62b05189e9eaddb04837d304e25e1389e545894256395bc89f261b54c39c"),
}


# sha256 of stdout of optimal-time and error-curve, with and without
# --fixed-t: a change to p_t, its search or the P_e formula moves them
EXP_ARGS = ["--family", "exponential", "--kappa", "1"]
FROZEN_ARTIFACTS = {
    "optimal-gaussian-offset": (
        ["optimal-time", *GAUSS_ARGS, "--d", "10", "--R", "2", "--t-lo", "6",
         "--t-hi", "14", "--t-grid", "12", "--format", "json"],
        "ff7854c9081b8f5c228e90a96d094107680f113e2e641f161e990ebd1e317072"),
    "optimal-exponential": (
        ["optimal-time", *EXP_ARGS, "--d", "3", "--R", "2", "--t-lo", "0",
         "--t-hi", "6", "--t-grid", "12", "--pi0", "0.3", "--format", "json"],
        "ce3656c90ef45f5498c12d8d97a78eeaa1eb51b7c2d4f40d8a29e2e5f0d5cc82"),
    "curve-fixed-csv": (
        ["error-curve", *GAUSS_ARGS, "--pi0", "0.3", "--R-list", "0.5,1,2",
         "--fixed-t", "1"],
        "015955fcfc5529b6e8811a462c3cb8183afd425fcef1b933f9e0ca7d559a64ee"),
    "curve-fixed-json": (
        ["error-curve", *GAUSS_ARGS, "--pi0", "0.3", "--R-list", "0.5,1,2",
         "--fixed-t", "1", "--format", "json"],
        "9fe4956d1c14879cc472c7716156965c73d50a036046dab2c5148f3a41e1aace"),
    "curve-search-csv": (
        ["error-curve", *GAUSS_ARGS, "--d", "3", "--R-list", "1,2", "--t-lo",
         "0", "--t-hi", "6", "--t-grid", "8"],
        "f72f1028234f55c2d5ab58f42853f97c10942a8f22f98e7512222cea56403be7"),
    "curve-search-json": (
        ["error-curve", *GAUSS_ARGS, "--d", "3", "--R-list", "1,2", "--t-lo",
         "0", "--t-hi", "6", "--t-grid", "8", "--format", "json"],
        "b2d693a99103ae86a7cd569a96be1f7609f626d25a0fa0b4dcb522d63fb2f26f"),
}


@pytest.mark.parametrize("case", sorted(FROZEN_ARTIFACTS))
def test_frozen_artifact_digests(case, capsys):
    argv, digest = FROZEN_ARTIFACTS[case]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _without_column(text, name):
    """The CSV ``text`` with the column ``name`` dropped from its header and
    rows; comment lines are kept as they are."""
    lines = text.splitlines()
    header = next(line for line in lines if not line.startswith("#"))
    drop = header.split(",").index(name)
    return "".join(
        (line if line.startswith("#") else
         ",".join(cell for i, cell in enumerate(line.split(","))
                  if i != drop)) + "\n"
        for line in lines)


@pytest.mark.parametrize("case", sorted(FROZEN_MONTE_CARLO))
def test_monte_carlo_frozen_digests(case, capsys, tmp_path, monkeypatch):
    args, csv_digest, draws_digest, json_digest = FROZEN_MONTE_CARLO[case]
    # the artifacts echo the config, paths included, so the path is relative
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "monte-carlo", *GAUSS_ARGS, *args,
                           "--trials", "5000", "--format", "json",
                           "--trials-csv", "trials.csv")
    assert code == 0
    trials = (tmp_path / "trials.csv").read_bytes()
    assert hashlib.sha256(trials).hexdigest() == csv_digest
    draws = _without_column(trials.decode(), "rho").encode()
    assert hashlib.sha256(draws).hexdigest() == draws_digest
    assert hashlib.sha256(out.encode()).hexdigest() == json_digest


def test_trials_csv_is_written_batch_by_batch(capsys, tmp_path, monkeypatch):
    # the file grows while the trials run, and its bytes do not depend on
    # the batch size
    argv = ["monte-carlo", *GAUSS_ARGS, "--R", "1", "--t", "0.5",
            "--trials", "5000", "--seed", "4", "--trials-csv", "trials.csv"]
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    whole = (tmp_path / "trials.csv").read_bytes()

    sizes = []
    real_rows = cli._trial_rows

    def trial_rows(batch, write):
        sizes.append((tmp_path / "trials.csv").stat().st_size)
        real_rows(batch, write)

    monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", 1000)
    monkeypatch.setattr(cli, "_trial_rows", trial_rows)
    code, chunked_out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(sizes) == 5
    assert sizes == sorted(set(sizes)) and sizes[-1] < len(whole)
    assert (tmp_path / "trials.csv").read_bytes() == whole
    assert chunked_out == out


@pytest.mark.parametrize("args,exit_code", [
    (["--R", "1", "--trials", "10"], 2),
    (["--R", "-1"], 2),
    (["--R", "1", "--amp-tol", "1e-30"], 3),
], ids=["few-trials", "negative-R", "amp-tol"])
def test_failed_monte_carlo_leaves_no_trial_csv(capsys, tmp_path,
                                                monkeypatch, args, exit_code):
    # a header-only file would read as a finished run with no trials
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "monte-carlo", *GAUSS_ARGS, *args,
                           "--trials-csv", "trials.csv")
    assert code == exit_code
    assert out == ""
    assert not (tmp_path / "trials.csv").exists()


def _trial_rows_oracle(batch):
    """The trial CSV rows of ``batch``, one f-string per row; the reference
    for the row templates of ``cli._trial_rows``."""
    channel = ("minus", "plus")
    columns = zip(range(batch.start, batch.start + batch.rho.size),
                  batch.true_plus.tolist(), batch.rho.tolist(),
                  batch.inside.tolist(), batch.guess_plus.tolist(),
                  batch.correct.tolist())
    return [f"{index},{channel[plus]},{fmt(rho)},{int(inside)},"
            f"{channel[plus] if inside else 'unknown'},{channel[guess]},"
            f"{int(correct)}"
            for index, plus, rho, inside, guess, correct in columns]


def _float_steps(x, steps):
    """The float ``steps`` floats above ``x`` (below if negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# trial 445 of the offset-map case: its radius sits on a 12-digit rounding
# boundary, and one float apart it prints ...094 instead of ...093
_BOUNDARY = 0.8047052240935
# a decimal halfway between two 12-digit numbers, give or take a few floats
_HALFWAY = st.builds(
    lambda digits, exponent, steps: _float_steps(
        float(f"{digits}5e{exponent}"), steps),
    st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-320, 290),
    st.integers(-2, 2))
_RHO = (st.sampled_from([0.0, 1e-300, 1e300, _BOUNDARY,
                         _float_steps(_BOUNDARY, -1),
                         _float_steps(_BOUNDARY, 1)])
        | _HALFWAY | st.floats())


@settings(max_examples=300, deadline=None)
# the index writer's domain: the last of at most 40 trials is below 2^63
@given(start=st.integers(0, 2 ** 63 - 40),
       rows=st.lists(st.tuples(st.integers(0, 7), _RHO), min_size=1,
                     max_size=40))
@example(start=0, rows=list(zip(range(8), [
    0.0, 1e-300, 1e300, _BOUNDARY, _float_steps(_BOUNDARY, -1),
    _float_steps(_BOUNDARY, 1), -0.0, 2.0])))
def test_trial_rows_match_per_row_oracle(start, rows):
    # code 4 true_plus + 2 inside + guess_plus; every code is formatted,
    # the ones a simulation never makes (inside, guess wrong) too
    code = np.array([c for c, _ in rows])
    true_plus, inside, guess_plus = (code & 4) > 0, (code & 2) > 0, \
        (code & 1) > 0
    batch = montecarlo.TrialBatch(
        start=start, true_plus=true_plus,
        rho=np.array([rho for _, rho in rows]),
        cos_theta=np.zeros(code.size), inside=inside, guess_plus=guess_plus,
        correct=guess_plus == true_plus)
    expected = "".join(row + "\n" for row in _trial_rows_oracle(batch))
    chunks = []
    cli._trial_rows(batch, chunks.append)
    assert b"".join(chunks) == expected.encode("ascii")


def _float_rows_oracle(columns):
    """The CSV rows of float columns, one ``fmt`` per cell; the reference
    for ``_csvrows.float_rows``."""
    return "".join(",".join(map(fmt, row)) + "\n" for row in zip(*columns))


# a power of ten give or take a few floats: where log10 rounds across the
# decade and where 12 digits carry into the next one
_NEAR_POWER = st.builds(
    lambda exponent, steps: _float_steps(float(f"1e{exponent}"), steps),
    st.integers(-323, 308), st.integers(-2, 2))
# one sign per column, or each value's own
_SIGNED = (st.floats() | _HALFWAY | _NEAR_POWER |
           st.floats(-1e4, 1e4) | st.floats(1e-6, 1e12))


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(_SIGNED, min_size=k, max_size=k), min_size=1, max_size=50)))
@example(rows=[[math.nan, 0.0, 1e-5, 0.1 + 0.2],
               [math.inf, -0.0, -9.99999999999e-5, _BOUNDARY],
               [-math.inf, 0.0, 1e16, 999999999999.5],
               [5e-324, -0.0, -1.7976931348623157e308, 1e12],
               [-1e-310, 0.0, 2.2250738585072014e-308, 0.0001]])
def test_float_rows_match_per_cell_oracle(rows):
    # the first column falls back to fmt entirely (NaN, infinities,
    # subnormals), the second is zeros, the third exponent notation, the
    # fourth fixed notation with carries and ties
    columns = [np.array(column) for column in zip(*rows)]
    chunks = []
    _csvrows.float_rows(columns, chunks.append)
    assert b"".join(chunks) == _float_rows_oracle(columns).encode("ascii")


def test_float_rows_hold_one_slice_at_a_time():
    # each slice goes to write as it is built, so the traced peak, one
    # slice's temporaries of about 5.7 MB, stays under the 13.2 MB written;
    # a list of the slices and their join would hold twice that
    n = 12 * _csvrows.SLICE_ROWS
    r = np.linspace(0.0, 20.0, n)
    columns = [r, np.cos(r) * np.exp(-r), np.sin(r) * np.exp(-r),
               np.exp(-2.0 * r)]
    sizes = []
    tracemalloc.start()
    try:
        _csvrows.float_rows(columns, lambda data: sizes.append(len(data)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sizes) == 12
    assert peak < sum(sizes)


@pytest.mark.parametrize("start,size", [
    (0, 12), (95, 10), (99_995, 10), (2 ** 53 - 3, 6),
    (0, 3 * _csvrows.SLICE_ROWS + 5),
], ids=["9-10", "99-100", "99999-100000", "2^53", "slices"])
def test_trial_indices_across_digit_counts(start, size):
    # %d of every index: the digit count grows within the batch
    rng = np.random.default_rng(start % 1000)
    code = rng.integers(0, 8, size)
    guess_plus, true_plus = (code & 1) > 0, (code & 4) > 0
    batch = montecarlo.TrialBatch(
        start=start, true_plus=true_plus, rho=rng.uniform(0.0, 12.0, size),
        cos_theta=np.zeros(size), inside=(code & 2) > 0,
        guess_plus=guess_plus, correct=guess_plus == true_plus)
    expected = "".join(row + "\n" for row in _trial_rows_oracle(batch))
    chunks = []
    cli._trial_rows(batch, chunks.append)
    assert b"".join(chunks) == expected.encode("ascii")


EXPO_ARGS = ["--family", "exponential", "--kappa", "0.55", "--d", "2",
             "--R", "1.5", "--t", "1", "--trials", "20000", "--seed", "3"]


def test_monte_carlo_honours_r_max(capsys):
    # 8.5, under this request's default extent 3 + 10 / 0.55, misses mass;
    # given explicitly it is kept
    code, _, err = run_cli(capsys, "monte-carlo", *EXPO_ARGS,
                           "--r-max", "8.5")
    assert code == 3
    assert "lcdisc: invalid state: radial grid misses too much mass" in err
    assert "increase r_max" in err
    code, out, _ = run_cli(capsys, "monte-carlo", *EXPO_ARGS,
                           "--r-max", "60")
    assert code == 0
    estimate = json.loads(out)["estimate"]
    assert abs(estimate["empirical_rate"] - estimate["analytic_rate"]) <= \
        3.0 * estimate["std_err"]


@pytest.mark.parametrize("args", [
    EXPO_ARGS,
    ["--family", "gaussian", "--k0", "2.133", "--sigma", "1.197",
     "--d", "0.974", "--R", "2", "--t", "1.798", "--trials", "20000",
     "--seed", "3"],
], ids=["exponential", "narrow-gaussian"])
def test_monte_carlo_widens_default_grid(capsys, args):
    # the default extent misses mass for both; the sampler widens it 4x for
    # the exponential and 8x for the Gaussian
    code, out, _ = run_cli(capsys, "monte-carlo", *args)
    assert code == 0
    estimate = json.loads(out)["estimate"]
    assert abs(estimate["empirical_rate"] - estimate["analytic_rate"]) <= \
        3.0 * estimate["std_err"]


def test_monte_carlo_is_dilation_invariant(capsys):
    # kappa 2 at R 0.75 and the same case dilated by 1/16; the default grid
    # extent once added 10 kappa to a length, and the second exited 3
    estimates = []
    for kappa, R in (("2", "0.75"), ("0.125", "12")):
        code, out, _ = run_cli(capsys, "monte-carlo", "--family",
                               "exponential", "--kappa", kappa, "--R", R,
                               "--trials", "20000", "--seed", "5")
        assert code == 0
        estimates.append(json.loads(out)["estimate"])
    assert estimates[0] == estimates[1]


_NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
_NEGATIVE = st.floats(max_value=-1e-300).map(repr)

# values outside each monte-carlo field's domain
_FUZZ_BAD = {
    "k0": _NON_FINITE | _NEGATIVE | st.just("0"),
    "sigma": _NON_FINITE | _NEGATIVE | st.just("0"),
    "d": _NON_FINITE | _NEGATIVE,
    "R": _NON_FINITE | _NEGATIVE,
    "t": _NON_FINITE,
    "r-max": _NON_FINITE | _NEGATIVE | st.just("0") | st.just("0.5"),
    "pi0": _NON_FINITE | _NEGATIVE |
    st.floats(min_value=1.0, exclude_min=True).map(repr),
    "seed": st.integers(max_value=-1) | st.integers(min_value=2 ** 128),
    "trials": st.integers(max_value=999),
}


@st.composite
def _monte_carlo_argv(draw):
    values = {
        "k0": repr(draw(st.floats(0.5, 8.0))),
        "sigma": repr(draw(st.floats(0.5, 2.0))),
        "d": repr(draw(st.floats(0.0, 3.0))),
        "R": repr(draw(st.floats(0.0, 3.0))),
        "t": repr(draw(st.floats(-3.0, 3.0))),
        "r-max": draw(st.none() | st.floats(15.0, 30.0).map(repr)),
        "pi0": repr(draw(st.floats(0.0, 1.0))),
        "seed": draw(st.integers(0, 2 ** 128 - 1)),
        "trials": draw(st.integers(1000, 2000)),
        "strategy": draw(st.sampled_from(["paper", "map"])),
    }
    for flag in draw(st.sets(st.sampled_from(sorted(_FUZZ_BAD)),
                             max_size=2)):
        values[flag] = draw(_FUZZ_BAD[flag])
    # --flag=value keeps a value such as -inf from reading as a flag
    return ["monte-carlo", "--family=gaussian"] + [
        f"--{flag}={value}" for flag, value in values.items()
        if value is not None]


_TINY_BALL = ("monte-carlo --family=gaussian --k0=1.0 --sigma=1.0 --d={0!r} "
              "--R={0!r} --t=0.0 --pi0=0.0 --seed=0 --trials=1000")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_monte_carlo_argv())
# drawn by the strategy: at d = R this small the cap weight's u* was 0/0
@example(argv=_TINY_BALL.format(4.0194834632912396e-283).split())
@example(argv=_TINY_BALL.format(2.2250738585072014e-308).split())
def test_fuzz_monte_carlo_exit_codes(argv):
    # the CLI writes its artifacts to stdout's binary buffer
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        estimate = json.loads(out.buffer.getvalue())["estimate"]
        assert 0.0 <= estimate["empirical_rate"] <= 1.0
        assert 0.0 <= estimate["p_t"] <= 1.0
