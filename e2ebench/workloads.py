"""The benchmark's workloads: request generation and output checks.

A workload turns the seed into a fixed number of ``lcdisc`` command lines.
The parameters of request i are point i of a Halton sequence, moved along
each axis by a seed-drawn jitter of at most half a cell (1/count), then
mapped onto the workload's parameter box.  The points cover the box evenly
and the jitter keeps each in its own part of it, so every seed gives other
inputs but the same mix of cheap and expensive ones; that is what keeps
medians steady across seeds.  Requests alternate between the two profile
families.

Each workload puts a different layer on the critical path:

* ``optimize``: ``optimal-time``.  A 32-point coarse sweep and about 22
  golden-section p_t calls share one (profile, R), so the optimizer, the j0
  table fill and the gemm dominate.
* ``evaluate``: ``error-curve --fixed-t`` over three sorted radii, with t
  spread over [0, 40].  No optimizer runs and requests share no work; the
  k-node count grows with t, so quadrature density shows here.
* ``montecarlo``: ``monte-carlo --trials-csv``.  The only workload with the
  detection sampler, the fused ``j0_sum`` and CSV emission on the critical
  path; the per-trial loop dominates.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# base 2 is left out: its even-numbered points all lie in [0.5, 1), and the
# even-numbered requests are the Gaussian ones
PRIMES = (3, 5, 7, 11, 13, 17, 19)
# matches lcdisc's default prob_tol, which no request overrides
PROB_TOL = 1e-8
# how many decimal digits of agreement "to 12 digits" allows for values that
# were each rounded to 12 significant digits before being written
REL_12_DIGITS = 1e-11
MC_SIGMAS = 5.0
MC_TRIALS = 10000


@dataclass(frozen=True)
class Request:
    """One command line and what its outputs must satisfy."""

    index: int
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    params: dict


def halton(index: int, base: int) -> float:
    """Radical inverse of ``index + 1`` in ``base``."""
    result, scale, i = 0.0, 1.0, index + 1
    while i > 0:
        scale /= base
        result += scale * (i % base)
        i //= base
    return result


def _reflect(x: float) -> float:
    """Fold a point that left [0, 1) by less than one back inside."""
    if x < 0.0:
        return -x
    if x >= 1.0:
        return math.nextafter(2.0 - x, 0.0)
    return x


def design(seed: int, count: int, dims: int) -> list[list[float]]:
    """``count`` points in [0, 1)^dims: the first ``count`` Halton points,
    each coordinate jittered by up to half of 1/count, drawn from the seed."""
    rng = random.Random(seed)
    return [[_reflect(halton(i, PRIMES[j]) + (rng.random() - 0.5) / count)
             for j in range(dims)]
            for i in range(count)]


def _num(x: float) -> str:
    return format(x, ".6g")


def _lerp(lo: float, hi: float, u: float) -> float:
    return float(_num(lo + (hi - lo) * u))


def _gaussian_args(u_a: float, u_b: float, narrow: bool = False) -> list[str]:
    k0 = _lerp(3.8, 4.2, u_a) if narrow else _lerp(3.5, 4.5, u_a)
    sigma = _lerp(0.75, 0.85, u_b) if narrow else _lerp(0.7, 0.9, u_b)
    return ["--family", "gaussian", "--k0", _num(k0), "--sigma", _num(sigma)]


def _profile_args(index: int, u_a: float, u_b: float,
                  narrow: bool = False) -> list[str]:
    """Gaussian for even ``index``, exponential for odd, with k_max in about
    [7, 10.5], or [8.7, 9.7] when ``narrow``; the cost of a p_t evaluation
    grows as k_max squared."""
    if index % 2 == 0:
        return _gaussian_args(u_a, u_b, narrow)
    kappa = _lerp(0.55, 0.6, u_a) if narrow else _lerp(0.45, 0.6, u_a)
    return ["--family", "exponential", "--kappa", _num(kappa)]


def _optimize(index: int, u: list[float], rng: random.Random) -> Request:
    R = _lerp(0.8, 1.2, u[0])
    d = _lerp(3.0, 4.5, u[3])
    pi0 = _lerp(0.2, 0.8, u[4])
    t_hi = _lerp(d + R + 1.0, d + R + 3.0, u[5])
    out = f"req{index:05d}.json"
    argv = ["optimal-time", *_profile_args(index, u[1], u[2]),
            "--d", _num(d), "--R", _num(R), "--pi0", _num(pi0),
            "--t-lo", "0", "--t-hi", _num(t_hi), "--format", "json",
            "--output", out]
    return Request(index, tuple(argv), (out,),
                   {"R": R, "pi0": pi0, "t_lo": 0.0, "t_hi": t_hi})


def _evaluate(index: int, u: list[float], rng: random.Random) -> Request:
    t = _lerp(0.0, 40.0, u[0])
    d = _lerp(2.0, 4.0, u[3])
    radii = [_lerp(0.7, 0.8, u[4])]
    for _ in range(2):
        radii.append(_lerp(radii[-1] + 0.25, radii[-1] + 0.3, rng.random()))
    pi0 = _lerp(0.2, 0.8, rng.random())
    out = f"req{index:05d}.json"
    # t is the wide axis; the shape and the radii vary little, so that a
    # request's cost follows t and the median request is the same on every seed
    argv = ["error-curve", *_profile_args(index, u[1], u[2], narrow=True),
            "--d", _num(d), "--R-list", ",".join(_num(r) for r in radii),
            "--fixed-t", _num(t), "--pi0", _num(pi0), "--format", "json",
            "--output", out]
    return Request(index, tuple(argv), (out,),
                   {"radii": radii, "t": t, "pi0": pi0})


def _montecarlo(index: int, u: list[float], rng: random.Random) -> Request:
    d = _lerp(1.0, 2.5, u[2])
    R = _lerp(1.0, 2.0, u[3])
    t = _lerp(0.0, 3.0, u[4])
    pi0 = _lerp(0.3, 0.7, u[5])
    seed = rng.randrange(1, 2 ** 31)
    out = f"req{index:05d}.json"
    trials_csv = f"req{index:05d}.csv"
    # Gaussian only: monte-carlo cannot widen the sampler's radial grid, and
    # the default grid misses too much of an exponential profile's mass, so
    # those requests exit 3 without simulating anything
    argv = ["monte-carlo", *_gaussian_args(u[0], u[1]),
            "--d", _num(d), "--R", _num(R), "--t", _num(t), "--pi0",
            _num(pi0), "--trials", str(MC_TRIALS), "--seed", str(seed),
            "--format", "json", "--output", out, "--trials-csv", trials_csv]
    return Request(index, tuple(argv), (out, trials_csv),
                   {"trials": MC_TRIALS})


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_12_DIGITS, abs_tol=1e-300)


def _check_optimize(request: Request, files: dict[str, bytes]) -> list[str]:
    p = request.params
    result = json.loads(files[request.outputs[0]])["result"]
    problems = []
    t_star, p_star = result["t_star"], result["p_t_star"]
    if not 0.0 <= p_star <= 1.0:
        problems.append(f"p_t_star {p_star} outside [0, 1]")
    if not _close(result["P_e"], 2.0 * p["pi0"] * (1.0 - p["pi0"]) * p_star):
        problems.append("P_e != 2 pi0 pi1 p_t_star")
    if not p["t_lo"] <= t_star <= p["t_hi"]:
        problems.append(f"t_star {t_star} outside the window")
    if not _close(result["total_T"], t_star + p["R"]):
        problems.append("total_T != t_star + R")
    return problems


def _check_evaluate(request: Request, files: dict[str, bytes]) -> list[str]:
    p = request.params
    points = json.loads(files[request.outputs[0]])["points"]
    problems = []
    if [pt["R"] for pt in points] != p["radii"]:
        problems.append("radii do not match the request")
    p_ts = [pt["p_t"] for pt in points]
    for pt in points:
        if not 0.0 <= pt["p_t"] <= 1.0:
            problems.append(f"p_t {pt['p_t']} outside [0, 1]")
        if pt["t_star"] != p["t"]:
            problems.append("t_star differs from the fixed t")
        if not _close(pt["P_e"], 2.0 * p["pi0"] * (1.0 - p["pi0"]) *
                      pt["p_t"]):
            problems.append("P_e != 2 pi0 pi1 p_t")
    if any(b > a + PROB_TOL for a, b in zip(p_ts, p_ts[1:])):
        problems.append(f"p_t increases with R: {p_ts}")
    return problems


def _check_montecarlo(request: Request, files: dict[str, bytes]) -> list[str]:
    estimate = json.loads(files[request.outputs[0]])["estimate"]
    text = files[request.outputs[1]].decode("utf-8")
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    problems = []
    if len(rows) != request.params["trials"] or \
            estimate["n_trials"] != request.params["trials"]:
        problems.append(f"{len(rows)} trial rows for "
                        f"{request.params['trials']} trials")
    if sum(row["correct"] == "0" for row in rows) != estimate["n_errors"]:
        problems.append("CSV error count differs from the JSON")
    if sum(row["outcome"] == "unknown" for row in rows) != \
            estimate["n_unknown"]:
        problems.append("CSV unknown count differs from the JSON")
    gap = abs(estimate["empirical_rate"] - estimate["analytic_rate"])
    if gap > MC_SIGMAS * estimate["std_err"]:
        problems.append(f"|empirical - analytic| = {gap} exceeds "
                        f"{MC_SIGMAS} std_err = {estimate['std_err']}")
    return problems


@dataclass(frozen=True)
class Workload:
    count: int
    dims: int
    make: Callable[[int, list[float], random.Random], Request]
    check: Callable[[Request, dict[str, bytes]], list[str]]


# request counts: enough for a tail with 10 samples beyond it, few enough
# that a run times each request several times
WORKLOADS = {
    "optimize": Workload(32, 6, _optimize, _check_optimize),
    "evaluate": Workload(40, 5, _evaluate, _check_evaluate),
    "montecarlo": Workload(32, 6, _montecarlo, _check_montecarlo),
}


def make_requests(workload: str, seed: int) -> list[Request]:
    """A workload's requests; a pure function of the seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    points = design(seed, spec.count, spec.dims)
    return [spec.make(i, u, rng) for i, u in enumerate(points)]
