"""Identification-error calculus for two orthogonal helicity states.

An observer controlling a ball of radius R can distinguish the two channels
perfectly whenever the detector fires inside the ball, so the only source of
error is the inaccessible complement.  With p_t the probability of firing
outside and priors (pi0, pi1):

* posteriors given an outside ("unknown") outcome equal the priors, because
  both states share one spatial density and the p_t factors cancel;
* guessing channel j with probability pi_j (probability matching) then errs
  with probability (pi0 pi1 + pi1 pi0) p_t = 2 pi0 pi1 p_t;
* the in-domain error is exactly zero, so the total identification error is
  P_e = 2 pi0 pi1 p_t.

Guessing the larger prior instead (the MAP rule) errs with min(pi0, pi1) p_t,
which is strictly smaller for skewed priors; it is provided as an optional
strategy for comparison, with probability matching the default.

The measurement time enters only through p_t, so choosing t to minimize p_t
minimizes the error.  The optimizer combines a coarse grid with a
deterministic zoom search, each step one batched sweep across the bracket
around the running minimum, and breaks ties toward the earliest time, since
an earlier measurement gives a shorter total protocol at equal error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from lcdisc.amplitude import MomentumProfile
from lcdisc.errors import InvalidParameterError, ResourceLimitError, as_int
from lcdisc.lightcone import scan_time_ball
from lcdisc.propagation import (
    DEFAULT_PROB_TOL,
    BallQuadrature,
    inside_probability_sweep,
)
from lcdisc.quadrature import EvenGrid

TIME_TOL = 1e-4
_CLIP_WARN = 1e-6
_TIE_EPS = 1e-12
# new times per zoom step; each step narrows the bracket (ZOOM_POINTS + 1) / 2
# times, and all times of one sweep share its j0 tables
ZOOM_POINTS = 16
# most times of the coarse sweep, whose matrices grow with the count
MAX_TIME_GRID = 4096

STRATEGY_PAPER = "paper"
STRATEGY_MAP = "map"
STRATEGIES = (STRATEGY_PAPER, STRATEGY_MAP)


@dataclass(frozen=True)
class Priors:
    """A priori probabilities of the two channels; pi1 is derived as 1 - pi0."""

    pi0: float

    def __post_init__(self):
        if not (math.isfinite(self.pi0) and 0.0 <= self.pi0 <= 1.0):
            raise InvalidParameterError("pi0 must lie in [0, 1]")

    @property
    def pi1(self) -> float:
        return 1.0 - self.pi0


@dataclass(frozen=True)
class OptimalTime:
    """Result of the measurement-time search."""

    t_star: float
    p_t_star: float
    on_boundary: bool


@dataclass(frozen=True)
class DiscriminationReport:
    """One point of the error-versus-time tradeoff.

    ``scan_T`` is the light-cone time R needed to collect outcomes from the
    ball, and ``total_T = t_meas + scan_T`` combines it with the measurement
    start; the two contributions are kept separate in the fields.
    """

    R: float
    t_meas: float
    p_t: float
    P_e: float
    posterior0: float
    posterior1: float
    scan_T: float
    total_T: float


def outside_probability(
    profile: MomentumProfile,
    R: float,
    t: float,
    prob_tol: float = DEFAULT_PROB_TOL,
) -> float:
    """Probability p_t that the detector fires outside the ball."""
    return float(outside_probability_sweep(profile, R, np.array([t]),
                                           prob_tol)[0])


def outside_probability_sweep(
    profile: MomentumProfile,
    R: float,
    t_values: np.ndarray,
    prob_tol: float = DEFAULT_PROB_TOL,
) -> np.ndarray:
    """Vectorized :func:`outside_probability` sharing quadrature tables;
    p_t is clipped at 0, with one warning if it is below -_CLIP_WARN."""
    return _clipped_outside(
        inside_probability_sweep(profile, R, t_values, prob_tol))


def _clipped_outside(p_in: np.ndarray) -> np.ndarray:
    """p_t = 1 - p_in clipped at 0, with one warning, pointing at the
    caller's caller, if it is below -_CLIP_WARN."""
    p_out = 1.0 - p_in
    if np.logical_or.reduce(p_out < -_CLIP_WARN, axis=None):
        warnings.warn(f"probability {p_out.min():.3e} clipped to 0; "
                      "quadrature tolerances may be too loose",
                      stacklevel=3)
    return np.maximum(p_out, 0.0)


def posteriors_on_unknown(priors: Priors) -> tuple[float, float]:
    """Posterior probabilities given an outside outcome.

    Both states produce the same spatial density, so Bayes' rule leaves the
    priors unchanged: the p_t factors cancel exactly.
    """
    return priors.pi0, priors.pi1


def inaccessible_error(priors: Priors, p_t: float) -> float:
    """Error contributed by outside outcomes under probability matching."""
    _check_probability(p_t)
    post0, post1 = posteriors_on_unknown(priors)
    return (priors.pi0 * post1 + priors.pi1 * post0) * p_t


def accessible_error() -> float:
    """Error for outcomes inside the ball: exactly zero.

    The two channels are orthogonal, and the measurement restricted to the
    ball separates them perfectly, so in-domain outcomes never mislead.
    """
    return 0.0


def total_error(priors: Priors, p_t: float) -> float:
    """Total identification error 2 pi0 pi1 p_t (probability matching)."""
    return accessible_error() + inaccessible_error(priors, p_t)


def map_error(priors: Priors, p_t: float) -> float:
    """Error under the MAP guess, min(pi0, pi1) p_t; an extension, not the
    default rule."""
    _check_probability(p_t)
    return min(priors.pi0, priors.pi1) * p_t


def strategy_error(strategy: str, priors: Priors, p_t: float) -> float:
    """Analytic error rate for a named guessing strategy."""
    if strategy == STRATEGY_PAPER:
        return total_error(priors, p_t)
    if strategy == STRATEGY_MAP:
        return map_error(priors, p_t)
    raise InvalidParameterError(
        f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def _check_probability(p_t: float) -> None:
    if not (math.isfinite(p_t) and 0.0 <= p_t <= 1.0):
        raise InvalidParameterError("p_t must lie in [0, 1]")


def optimal_measurement_time(
    profile: MomentumProfile,
    R: float,
    t_window: tuple[float, float],
    n_grid: int = 32,
    prob_tol: float = DEFAULT_PROB_TOL,
) -> OptimalTime:
    """Minimize p_t over a time window.

    All sweeps share one :class:`~lcdisc.propagation.BallQuadrature`
    resolving the window.  A coarse sweep over ``n_grid`` times brackets
    the minimum between the neighbours of the best grid time.  Each zoom
    step then sweeps ZOOM_POINTS times spread evenly inside the bracket, in
    one batched call, and brackets the best time of that finer grid the
    same way, until the bracket is at most TIME_TOL wide.  Every sweep is
    evenly spaced, an :class:`~lcdisc.quadrature.EvenGrid`, so its
    phase coefficients come by doubling.  Among all
    evaluated candidates whose p_t ties the minimum (to 1e-12), the
    earliest time wins.  A minimum sitting on a window boundary triggers a
    warning, since the window may be cutting the true optimum off.
    """
    t_lo, t_hi = (float(t_window[0]), float(t_window[1]))
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise InvalidParameterError("t_window ends must be finite")
    if not t_lo < t_hi:
        raise InvalidParameterError("t_window must satisfy t_lo < t_hi")
    n_grid = as_int("n_grid", n_grid)
    if n_grid < 8:
        raise InvalidParameterError("n_grid must be at least 8")
    if n_grid > MAX_TIME_GRID:
        raise ResourceLimitError(f"n_grid exceeds the cap of {MAX_TIME_GRID}")

    # one quadrature for the whole search: its tables are built once and
    # every sweep below only contracts them
    ball = BallQuadrature(profile, R, max(abs(t_lo), abs(t_hi)), prob_tol)
    coarse = EvenGrid.linspace(t_lo, t_hi, n_grid)
    ts = coarse.nodes
    ps = _clipped_outside(ball.p_in(coarse))
    candidates = list(zip(ts.tolist(), ps.tolist()))
    while True:
        i_min = int(ps.argmin())
        lo, hi = max(i_min - 1, 0), min(i_min + 1, len(ts) - 1)
        if ts[hi] - ts[lo] <= TIME_TOL:
            break
        zoom = EvenGrid.between(ts[lo], ts[hi], ZOOM_POINTS)
        inner = zoom.nodes
        inner_ps = _clipped_outside(ball.p_in(zoom))
        candidates.extend(zip(inner.tolist(), inner_ps.tolist()))
        ts = np.concatenate(([ts[lo]], inner, [ts[hi]]))
        ps = np.concatenate(([ps[lo]], inner_ps, [ps[hi]]))

    p_min = min(p for _, p in candidates)
    t_star, p_star = min(
        (t, p) for t, p in candidates if p <= p_min + _TIE_EPS)
    on_boundary = bool(t_star - t_lo < TIME_TOL or
                       t_hi - t_star < TIME_TOL)
    if on_boundary:
        warnings.warn("optimal time sits on the window boundary; "
                      "the window may be too narrow", stacklevel=2)
    return OptimalTime(t_star=float(t_star), p_t_star=float(p_star),
                       on_boundary=on_boundary)


def build_report(priors: Priors, R: float, t_meas: float,
                 p_t: float) -> DiscriminationReport:
    """Assemble a report from an already-computed p_t."""
    post0, post1 = posteriors_on_unknown(priors)
    scan = scan_time_ball(R)
    return DiscriminationReport(
        R=float(R),
        t_meas=float(t_meas),
        p_t=float(p_t),
        P_e=total_error(priors, p_t),
        posterior0=post0,
        posterior1=post1,
        scan_T=scan,
        total_T=float(t_meas) + scan,
    )


def tradeoff_curve(
    profile: MomentumProfile,
    priors: Priors,
    R_list: np.ndarray,
    t_window: tuple[float, float],
    n_grid: int = 32,
    fixed_t: float | None = None,
    prob_tol: float = DEFAULT_PROB_TOL,
) -> list[DiscriminationReport]:
    """Error report for each ball radius.

    Unless ``fixed_t`` pins the measurement time, t is optimized per radius:
    nothing in the protocol forces one shared t, and any measurement feasible
    at radius R stays feasible at a larger radius, which is what makes the
    resulting curve non-increasing.
    """
    try:
        radii = np.asarray(R_list, dtype=float)
    except (TypeError, ValueError):
        radii = None
    if radii is None or radii.ndim != 1:
        raise InvalidParameterError("R_list must be a 1-D sequence of radii")
    radii = radii.tolist()
    if not radii:
        raise InvalidParameterError("R_list must be nonempty")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvalidParameterError("R_list must be strictly increasing")
    n_grid = as_int("n_grid", n_grid)
    reports = []
    for R in radii:
        if fixed_t is not None:
            t_meas = float(fixed_t)
            p_t = outside_probability(profile, R, t_meas, prob_tol)
        else:
            best = optimal_measurement_time(profile, R, t_window, n_grid,
                                            prob_tol)
            t_meas, p_t = best.t_star, best.p_t_star
        reports.append(build_report(priors, R, t_meas, p_t))
    return reports
