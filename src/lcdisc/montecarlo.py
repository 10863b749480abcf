"""Monte Carlo simulation of the restricted discrimination measurement.

Each trial draws a true channel from the priors, a detector firing position
from the spatial density |A|^2 at the measurement time, and applies the
decision rule: inside the ball the orthogonal channels are identified
perfectly; outside, the outcome is "unknown" and the observer guesses from
the priors (probability matching by default, MAP as an extension).

Randomness contract
-------------------
The generator is Philox4x64-10 (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), keyed with the run seed as the two words
``(seed mod 2^64, seed >> 64)``.  Trial ``i`` reads the stream of numpy's
``Generator(Philox(key=seed, counter=i << 64))``, which leaves 2^64 draws of
headroom per trial.  numpy increments the 256-bit counter before it
generates each block of four 64-bit words, so the trial's words come from
the counter blocks ``(1, i, 0, 0)`` and ``(2, i, 0, 0)`` (least significant
word first).  A word ``w`` becomes the double ``(w >> 11) * 2^-53``.  The
uniforms are consumed in a fixed order:

1. block 1, word 0: channel draw (PLUS when u < pi0),
2. block 1, word 1: detection radius by inverse transform from the cached
   radial CDF,
3. block 1, word 2: cos(theta) = 2u - 1,
4. block 1, word 3: phi = 2 pi u, which the decision rule never needs,
5. block 2, word 0: only when the outcome is unknown under probability
   matching, the guess (state PLUS when u < pi0).

Trials are simulated as arrays, in batches of at most ``CHUNK_TRIALS``, so
memory does not grow with the number of trials.  A trial's draws depend only
on the seed and its index, and the array code does each trial's arithmetic
in the scalar order, so the chunk size never changes a result.  Any
implementation following this contract reproduces the trial sequence bit for
bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from lcdisc.amplitude import MomentumProfile
from lcdisc.discrimination import (
    STRATEGIES,
    STRATEGY_PAPER,
    Priors,
    outside_probability,
    strategy_error,
)
from lcdisc.errors import InvalidParameterError, InvalidStateError
from lcdisc.propagation import (
    DEFAULT_AMP_TOL,
    DEFAULT_PROB_TOL,
    RadialAmplitude,
    default_r_max,
    radial_cell_masses,
    radial_density_grid,
)

DEFAULT_CDF_CELLS = 4096
MIN_TRIALS = 1000
CHUNK_TRIALS = 65536
# times the sampler may double the default grid extent to cover the mass
MAX_EXTENT_DOUBLINGS = 4

_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


class Outcome(enum.Enum):
    """Result classes of the restricted measurement."""

    CHANNEL_PLUS = "plus"
    CHANNEL_MINUS = "minus"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TrialBatch:
    """The consecutive trials ``start, start + 1, ...`` as parallel arrays.

    ``true_plus`` and ``guess_plus`` are True where the channel is
    HelicityChannel.PLUS.  Inside the ball the outcome is the true channel
    and the guess always matches it; outside, the outcome is UNKNOWN and
    the guess comes from the configured strategy.
    """

    start: int
    true_plus: np.ndarray
    rho: np.ndarray
    cos_theta: np.ndarray
    inside: np.ndarray
    guess_plus: np.ndarray
    correct: np.ndarray


@dataclass(frozen=True)
class ErrorEstimate:
    """Aggregated empirical error rate with its analytic prediction."""

    n_trials: int
    n_errors: int
    empirical_rate: float
    analytic_rate: float
    std_err: float
    n_unknown: int
    unknown_rate: float
    p_t: float


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``m * x``."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> _SHIFT32, x & _LOW32
    lo_lo, lo_hi, hi_lo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    carry = (lo_lo >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    hi = (x_hi * m_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) +
          (carry >> _SHIFT32))
    return hi, x * np.uint64(m)


def philox_uniforms(seed: int, index: np.ndarray) -> np.ndarray:
    """Uniforms 1-5 of the trials ``index``, shape ``(5, len(index))``.

    Row j holds uniform j + 1 of the randomness contract; it equals
    ``Generator(Philox(key=seed, counter=i << 64)).random(5)[j]``.
    """
    index = np.asarray(index, dtype=np.uint64)
    n = index.size
    # blocks 1 and 2 of every trial run through the rounds side by side
    zeros = np.zeros(2 * n, dtype=np.uint64)
    ctr = [np.repeat(np.array([1, 2], dtype=np.uint64), n),
           np.tile(index, 2), zeros, zeros]
    k0, k1 = seed & _MASK64, seed >> 64
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ np.uint64(k0), lo1,
               hi0 ^ ctr[3] ^ np.uint64(k1), lo0]
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 = (k1 + _PHILOX_W[1]) & _MASK64
    words = np.stack([ctr[0][:n], ctr[1][:n], ctr[2][:n], ctr[3][:n],
                      ctr[0][n:]])
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


class DetectionSampler:
    """Inverse-transform sampler for the radial detection distribution.

    The CDF of 4 pi rho^2 |A|^2 is cached on the grid once; each draw costs
    one binary search plus linear interpolation inside the cell, so the
    per-trial cost is deterministic (no rejection loops).
    """

    def __init__(self, grid: RadialAmplitude):
        if grid.coverage_warning:
            raise InvalidStateError(
                "radial grid misses too much mass for sampling; "
                "increase r_max")
        r = grid.r_grid
        if r.size < 2 or r[-1] <= r[0]:
            raise InvalidStateError("radial grid is degenerate")
        cell_mass = radial_cell_masses(grid)
        total = float(cell_mass.sum())
        if not (math.isfinite(total) and total > 0.0):
            raise InvalidStateError("radial grid carries no probability mass")
        self._r = r
        self._cdf = np.concatenate(([0.0], np.cumsum(cell_mass))) / total
        self.time_t = grid.time_t

    @classmethod
    def for_profile(
        cls,
        profile: MomentumProfile,
        t: float,
        r_max: float | None = None,
        amp_tol: float = DEFAULT_AMP_TOL,
    ) -> DetectionSampler:
        """Sampler on a grid of DEFAULT_CDF_CELLS cells out to ``r_max``.

        An explicit ``r_max`` is used as given.  Without one the grid starts
        at :func:`~lcdisc.propagation.default_r_max` and doubles its extent,
        at most MAX_EXTENT_DOUBLINGS times, until it covers all but
        COVERAGE_BOUND of the mass.
        """
        grids = 1 + (MAX_EXTENT_DOUBLINGS if r_max is None else 0)
        extent = default_r_max(profile, t) if r_max is None else r_max
        for _ in range(grids):
            grid = radial_density_grid(profile, t, extent,
                                       DEFAULT_CDF_CELLS + 1, amp_tol)
            if not grid.coverage_warning:
                break
            extent *= 2.0
        return cls(grid)

    def radii(self, u: np.ndarray) -> np.ndarray:
        """Radii for an array of uniforms in [0, 1), one per uniform."""
        cdf, r = self._cdf, self._r
        i = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(r) - 2)
        span = cdf[i + 1] - cdf[i]
        frac = np.divide(u - cdf[i], span, out=np.zeros_like(u),
                         where=span > 0.0)
        return r[i] + frac * (r[i + 1] - r[i])


def _simulate(
    sampler: DetectionSampler,
    priors: Priors,
    R: float,
    offset_d: float,
    strategy: str,
    seed: int,
    start: int,
    stop: int,
) -> TrialBatch:
    """Simulate the firings of trials ``start .. stop - 1``.

    The packet center sits at distance ``offset_d`` from the origin; the
    firing at radius rho about that center lands inside the origin ball of
    radius R iff d^2 + rho^2 + 2 d rho cos(theta) <= R^2.
    """
    u = philox_uniforms(seed, np.arange(start, stop, dtype=np.uint64))
    true_plus = u[0] < priors.pi0
    rho = sampler.radii(u[1])
    cos_theta = 2.0 * u[2] - 1.0
    dist_sq = offset_d * offset_d + rho * rho + \
        2.0 * offset_d * rho * cos_theta
    inside = dist_sq <= R * R
    if strategy == STRATEGY_PAPER:
        guess_outside = u[4] < priors.pi0
    else:
        # MAP: larger prior wins, tie broken toward PLUS (state 0)
        guess_outside = priors.pi0 >= priors.pi1
    guess_plus = np.where(inside, true_plus, guess_outside)
    return TrialBatch(start=start, true_plus=true_plus, rho=rho,
                      cos_theta=cos_theta, inside=inside,
                      guess_plus=guess_plus, correct=guess_plus == true_plus)


def run_trials(
    profile: MomentumProfile,
    priors: Priors,
    R: float,
    t: float,
    n_trials: int,
    seed: int,
    strategy: str = STRATEGY_PAPER,
    r_max: float | None = None,
    amp_tol: float = DEFAULT_AMP_TOL,
) -> Iterator[TrialBatch]:
    """Yield the deterministic trial sequence for a seed, in batches of at
    most ``CHUNK_TRIALS`` trials.

    ``r_max`` is the outer radius of the sampler's radial grid; without it
    the grid widens from :func:`lcdisc.propagation.default_r_max` until it
    covers the mass (see :meth:`DetectionSampler.for_profile`).
    """
    if strategy not in STRATEGIES:
        raise InvalidParameterError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if not 0 <= seed < 2 ** 128:
        raise InvalidParameterError("seed must lie in [0, 2**128)")
    sampler = DetectionSampler.for_profile(profile, t, r_max, amp_tol)
    for start in range(0, n_trials, CHUNK_TRIALS):
        yield _simulate(sampler, priors, R, profile.offset_d, strategy, seed,
                        start, min(start + CHUNK_TRIALS, n_trials))


def estimate_error(
    profile: MomentumProfile,
    priors: Priors,
    R: float,
    t: float,
    n_trials: int,
    seed: int,
    strategy: str = STRATEGY_PAPER,
    prob_tol: float = DEFAULT_PROB_TOL,
    r_max: float | None = None,
    amp_tol: float = DEFAULT_AMP_TOL,
    on_batch: Callable[[TrialBatch], None] | None = None,
) -> ErrorEstimate:
    """Empirical error rate over independent trials versus the analytic rate.

    ``on_batch``, when given, observes every batch of trials in order (used
    by the CLI to write a per-trial CSV without a second pass).
    """
    if n_trials < MIN_TRIALS:
        raise InvalidParameterError(
            f"n_trials must be at least {MIN_TRIALS} for a usable estimate")
    p_t = outside_probability(profile, R, t, prob_tol)
    analytic = strategy_error(strategy, priors, p_t)
    n_errors = 0
    n_unknown = 0
    for batch in run_trials(profile, priors, R, t, n_trials, seed, strategy,
                            r_max=r_max, amp_tol=amp_tol):
        # in-domain outcomes identify the channel perfectly by construction
        assert np.all(batch.correct | ~batch.inside)
        n_errors += int(np.count_nonzero(~batch.correct))
        n_unknown += int(np.count_nonzero(~batch.inside))
        if on_batch is not None:
            on_batch(batch)
    return ErrorEstimate(
        n_trials=n_trials,
        n_errors=n_errors,
        empirical_rate=n_errors / n_trials,
        analytic_rate=analytic,
        std_err=math.sqrt(analytic * (1.0 - analytic) / n_trials),
        n_unknown=n_unknown,
        unknown_rate=n_unknown / n_trials,
        p_t=p_t,
    )
