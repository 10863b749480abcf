"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
whole gate takes 10-12 s on a 2-vCPU Xeon KVM guest, 6-8 s of it the 3D
reference of criterion 3, well under its ten-minute budget.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lcdisc
from lcdisc import (
    Priors,
    estimate_error,
    inside_probability,
    lorentz_factor,
    optimal_measurement_time,
    outside_probability,
    outside_probability_sweep,
    quantile_radius,
    radial_density_grid,
    ruler_min_time,
    scan_time_ball,
    tradeoff_curve,
)

from oracle3d import inside_probability_3d


# the CLI subprocesses import the lcdisc under test, installed or not
_CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(lcdisc.__file__).resolve().parent.parent),
    os.environ.get("PYTHONPATH")])))


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {message}")


def test_criterion_1_zero_radius_error_limit(gauss_profile):
    for pi0 in (0.5, 0.3, 1.0):
        priors = Priors(pi0)
        report = tradeoff_curve(gauss_profile, priors, np.array([0.0]),
                                (0.0, 1.0), fixed_t=0.0)[0]
        expected = 2.0 * priors.pi0 * priors.pi1
        assert abs(report.P_e - expected) <= 1e-12
    _report(1, "P_e at R=0 equals 2*pi0*pi1 to 1e-12 for three priors")


def test_criterion_2_norm_conservation(gauss_profile, expo_profile):
    worst = 0.0
    for profile in (gauss_profile, expo_profile):
        for t in (0.0, 5.0, 20.0):
            grid = radial_density_grid(profile, t)
            worst = max(worst, abs(grid.grid_norm - 1.0))
            assert grid.grid_norm == pytest.approx(1.0, abs=1e-6)
    _report(2, f"radial grid norm is 1 +- 1e-6 for both families at "
               f"t in {{0, 5, 20}} (worst deviation {worst:.2e})")


def test_criterion_3_radial_vs_3d_oracle(gauss_profile, gauss_d3):
    rels = []
    for profile in (gauss_profile, gauss_d3):
        exact = inside_probability(profile, 2.0, 0.0)
        brute = inside_probability_3d(profile, 2.0, 0.0, grid_n=128)
        rel = abs(brute - exact) / exact
        rels.append(rel)
        assert rel <= 1e-3
    _report(3, "3D oracle matches the radial reduction to 1e-3 relative "
               f"at d=0 and d=3 (errors {rels[0]:.2e}, {rels[1]:.2e})")


def test_criterion_4_monotonicity(gauss_profile, gauss_d10):
    p_ts = np.array([outside_probability(gauss_profile, R, 0.0)
                     for R in np.linspace(0.0, 4.0, 20)])
    assert np.all(np.diff(p_ts) <= 1e-9)
    reports = tradeoff_curve(gauss_d10, Priors(0.5),
                             np.array([1.0, 2.0, 4.0, 8.0]), (6.0, 14.0),
                             n_grid=12)
    errors = [r.P_e for r in reports]
    assert all(b - a <= 1e-9 for a, b in zip(errors, errors[1:]))
    _report(4, "p_t non-increasing over 20 radii and P_e non-increasing "
               "along the optimized tradeoff curve")


def test_criterion_5_optimal_time_vs_brute_force(gauss_d10):
    window = (0.0, 20.0)
    best = optimal_measurement_time(gauss_d10, 2.0, window)
    ts = np.linspace(window[0], window[1], 200)
    brute = outside_probability_sweep(gauss_d10, 2.0, ts)
    step = ts[1] - ts[0]
    assert np.all(best.p_t_star <= brute + 1e-12)
    t_brute = ts[int(np.argmin(brute))]
    assert abs(best.t_star - t_brute) <= step
    _report(5, f"optimizer t*={best.t_star:.4f} beats all 200 brute-force "
               f"times and sits within one step of argmin {t_brute:.4f}")


def test_criterion_6_monte_carlo_vs_analytic(gauss_profile):
    n = 100000
    in_domain_errors = 0

    def watch(batch):
        nonlocal in_domain_errors
        in_domain_errors += int(np.count_nonzero(batch.inside &
                                                 ~batch.correct))

    est = estimate_error(gauss_profile, Priors(0.5), 2.0, 0.0, n, seed=1,
                         on_batch=watch)
    assert abs(est.empirical_rate - est.analytic_rate) <= 3.0 * est.std_err
    assert in_domain_errors == 0
    unknown_band = 3.0 * math.sqrt(est.p_t * (1.0 - est.p_t) / n)
    assert abs(est.unknown_rate - est.p_t) <= unknown_band
    _report(6, f"{n} trials: |emp-analytic| = "
               f"{abs(est.empirical_rate - est.analytic_rate):.2e} <= 3 sig, "
               "zero in-domain errors, unknown fraction within 3 sig of p_t")


def test_criterion_7_lightcone_geometry():
    assert ruler_min_time(2.0, 4.0, observer_position=0.5).min_time == 1.0
    for R in (0.0, 1.0, 2.5, 7.0):
        assert scan_time_ball(R) == R
    assert lorentz_factor(0.6) == 0.8
    _report(7, "ruler_min_time(2,4) = 1, scan_time_ball(R) = R, and "
               "lorentz_factor(0.6) = 0.8, all exactly")


def test_criterion_8_causal_front(gauss_profile):
    r99 = quantile_radius(radial_density_grid(gauss_profile, 0.0), 0.99)
    tails = []
    for t in (5.0, 10.0):
        front = r99 + t
        grid = radial_density_grid(gauss_profile, t, r_max=front + 25.0,
                                   n_points=4096)
        r = grid.r_grid
        f = 4.0 * math.pi * r * r * grid.density
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(r))))
        beyond = cum[-1] - np.interp(front, r, cum)
        tails.append(beyond)
        assert beyond <= 0.03
    _report(8, f"mass beyond r99(0)+t is {tails[0]:.4f} (t=5) and "
               f"{tails[1]:.4f} (t=10), within the 0.03 slack")


def test_criterion_9_determinism(tmp_path):
    gauss = ["k0=5", "sigma=1", "family=gaussian"]
    runs = {
        "error-curve": gauss + ["R_list=0.5,1,2", "fixed_t=0"],
        "optimal-time": gauss + ["d=10", "R=2", "t_lo=6", "t_hi=14",
                                 "t_grid=12"],
        "monte-carlo": gauss + ["R=1", "trials=2000", "seed=1"],
        "dump-density": gauss + ["r_max=5", "n_points=64"],
        "scan-time": ["R=2"],
        "ruler": ["L1=2", "L2=4"],
        "amplitude-info": gauss + ["n_points=256"],
    }
    for command, tokens in runs.items():
        # The artifact echoes the resolved config, output paths included, so
        # an identical rerun must write to the very same files.
        out = tmp_path / f"{command}.out"
        trials = tmp_path / f"{command}.csv"
        argv = [sys.executable, "-m", "lcdisc", command,
                "--output", str(out)]
        for token in tokens:
            key, value = token.split("=")
            argv += ["--" + key.replace("_", "-"), value]
        if command == "monte-carlo":
            argv += ["--trials-csv", str(trials)]
        artifacts = []
        for _ in (0, 1):
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=_CLI_ENV)
            assert proc.returncode == 0, proc.stderr
            artifacts.append(out.read_bytes())
            if command == "monte-carlo":
                artifacts.append(trials.read_bytes())
        if command == "monte-carlo":
            assert artifacts[0] == artifacts[2]
            assert artifacts[1] == artifacts[3]
        else:
            assert artifacts[0] == artifacts[1]
    _report(9, "every subcommand reruns to byte-identical artifacts "
               "with identical config and seed")


def test_criterion_9_json_outputs_parse(tmp_path):
    # Adjacent sanity: the determinism artifacts are live documents.
    out = tmp_path / "scan.json"
    proc = subprocess.run(
        [sys.executable, "-m", "lcdisc", "scan-time", "--R", "2",
         "--output", str(out)], capture_output=True, text=True,
        env=_CLI_ENV)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["result"]["scan_T"] == 2.0
