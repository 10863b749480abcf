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

Block 2 is generated only for the trials that read it: under probability
matching the trials outside the ball, under MAP none.  A block depends only
on the seed, the block number and the trial index, so skipping it for the
other trials changes no draw.

Trials are simulated as arrays, in batches of at most ``CHUNK_TRIALS``, so
memory does not grow with the number of trials.  A trial's draws depend only
on the seed and its index, and the array code does each trial's arithmetic
in the scalar order, so the chunk size never changes a result.  Any
implementation following this contract reproduces the trial sequence bit for
bit.
"""

from __future__ import annotations

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
from lcdisc.errors import (
    InvalidParameterError,
    InvalidStateError,
    ResourceLimitError,
    as_int,
)
from lcdisc.propagation import (
    DEFAULT_AMP_TOL,
    DEFAULT_PROB_TOL,
    RadialAmplitude,
    radial_density_grid,
)

DEFAULT_CDF_CELLS = 4096
MIN_TRIALS = 1000
# most trials of one run; 2^30 of them already take over ten minutes at
# the 1.71 M trials/s the trial loop runs
MAX_TRIALS = 1 << 30
CHUNK_TRIALS = 65536

_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


@dataclass(frozen=True)
class TrialBatch:
    """The consecutive trials ``start, start + 1, ...`` as parallel arrays.

    ``true_plus`` and ``guess_plus`` are True where the channel is
    HelicityChannel.PLUS.  Inside the ball the outcome is the true channel
    and the guess always matches it; outside, the outcome is unknown and
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
    """High and low 64-bit words of the 128-bit products ``m * x``.

    The high word is the 32-bit-halves product of Hacker's Delight's
    mulhu: no partial sum below can carry out of 64 bits.
    """
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> _SHIFT32, x & _LOW32
    low = x_lo * m_lo
    mid = x_hi * m_lo
    mid += low >> _SHIFT32
    cross = x_lo * m_hi
    cross += mid & _LOW32
    hi = x_hi * m_hi
    hi += mid >> _SHIFT32
    hi += cross >> _SHIFT32
    return hi, x * np.uint64(m)


def _philox_block(seed: int, index: np.ndarray, block: int) -> np.ndarray:
    """Uniforms of counter block ``block`` of the trials ``index``, shape
    ``(4, len(index))``: row j is word j of the block ``(block, i, 0, 0)``."""
    index = np.asarray(index, dtype=np.uint64)
    # the words that no trial changes stay length-1 arrays, which broadcast,
    # so the first rounds multiply them once, not once per trial; arrays,
    # not scalars, since uint64 scalar arithmetic warns on overflow
    zero = np.zeros(1, dtype=np.uint64)
    ctr = [np.array([block], dtype=np.uint64), index, zero, zero]
    k0, k1 = seed & _MASK64, seed >> 64
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ np.uint64(k0), lo1,
               hi0 ^ ctr[3] ^ np.uint64(k1), lo0]
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 = (k1 + _PHILOX_W[1]) & _MASK64
    words = np.empty((4, index.size), dtype=np.uint64)
    for row, word in zip(words, ctr):
        row[...] = word
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def philox_uniforms(seed: int, index: np.ndarray) -> np.ndarray:
    """Uniforms 1-5 of the trials ``index``, shape ``(5, len(index))``.

    Row j holds uniform j + 1 of the randomness contract; it equals
    ``Generator(Philox(key=seed, counter=i << 64)).random(5)[j]``.
    """
    return np.concatenate([_philox_block(seed, index, 1),
                           _philox_block(seed, index, 2)[:1]])


class DetectionSampler:
    """Inverse-transform sampler for the radial detection distribution.

    The CDF of 4 pi rho^2 |A|^2 is cached on the grid once; a batch of
    draws is sorted and merged with the CDF in one pass, then each draw is
    interpolated linearly inside its cell, so the per-trial cost is
    deterministic (no rejection loops).
    """

    def __init__(self, grid: RadialAmplitude):
        if grid.coverage_warning:
            raise InvalidStateError(
                "radial grid misses too much mass for sampling; "
                "increase r_max")
        r = grid.r_grid
        if r.size < 2 or r[-1] <= r[0]:
            raise InvalidStateError("radial grid is degenerate")
        self._r = r
        # a grid that passes the coverage check has a finite norm of at
        # least 1 - COVERAGE_BOUND
        self._cdf = np.concatenate(
            ([0.0], grid.cell_masses.cumsum())) / grid.grid_norm
        self.time_t = grid.time_t

    @classmethod
    def for_profile(
        cls,
        profile: MomentumProfile,
        t: float,
        r_max: float | None = None,
        amp_tol: float = DEFAULT_AMP_TOL,
    ) -> DetectionSampler:
        """Sampler on a grid of DEFAULT_CDF_CELLS cells out to ``r_max``,
        which without a value widens until it covers the mass (see
        :func:`~lcdisc.propagation.radial_density_grid`)."""
        return cls(radial_density_grid(profile, t, r_max,
                                       DEFAULT_CDF_CELLS + 1, amp_tol))

    def radii(self, u: np.ndarray) -> np.ndarray:
        """Radii for an array of uniforms in [0, 1), one per uniform."""
        cdf, r = self._cdf, self._r
        flat = u.reshape(-1)
        order = flat.argsort()
        i = np.empty(flat.shape, dtype=np.intp)
        i[order] = _cdf_positions(cdf, flat[order])
        i = np.minimum(np.maximum(i - 1, 0), len(r) - 2).reshape(u.shape)
        span = cdf[i + 1] - cdf[i]
        frac = np.divide(u - cdf[i], span, out=np.zeros(u.shape),
                         where=span > 0.0)
        return r[i] + frac * (r[i + 1] - r[i])


def _cdf_positions(cdf: np.ndarray, sorted_u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, sorted_u, side="right")``, the count of CDF
    points at or below each uniform, for ascending ``cdf`` and
    ``sorted_u``, by one merge.

    The uniforms below CDF point j are ``sorted_u[:below[j]]``, so uniform
    m lies at or above exactly the points with below[j] <= m: the counts of
    ``below`` summed up to m.  That is one binary search per CDF point into
    the uniforms, not one per uniform into the CDF.
    """
    below = sorted_u.searchsorted(cdf, side="left")
    counts = np.bincount(below, minlength=sorted_u.size + 1)
    return counts.cumsum()[:sorted_u.size]


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
    index = np.arange(start, stop, dtype=np.uint64)
    u = _philox_block(seed, index, 1)
    true_plus = u[0] < priors.pi0
    rho = sampler.radii(u[1])
    cos_theta = 2.0 * u[2] - 1.0
    dist_sq = offset_d * offset_d + rho * rho + \
        2.0 * offset_d * rho * cos_theta
    inside = dist_sq <= R * R
    if strategy == STRATEGY_PAPER:
        # only the trials outside the ball read block 2
        outside = ~inside
        guess_plus = true_plus.copy()
        guess_plus[outside] = \
            _philox_block(seed, index[outside], 2)[0] < priors.pi0
    else:
        # MAP: larger prior wins, tie broken toward PLUS (state 0)
        guess_plus = np.where(inside, true_plus, priors.pi0 >= priors.pi1)
    return TrialBatch(start=start, true_plus=true_plus, rho=rho,
                      cos_theta=cos_theta, inside=inside,
                      guess_plus=guess_plus, correct=guess_plus == true_plus)


def _check_run(strategy: str, n_trials: int, seed: int) -> tuple[int, int]:
    """The run's arguments checked before any work; ``n_trials`` and
    ``seed`` as ints.  More than MAX_TRIALS trials raise
    :class:`ResourceLimitError`."""
    if strategy not in STRATEGIES:
        raise InvalidParameterError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    n_trials = as_int("n_trials", n_trials)
    if n_trials > MAX_TRIALS:
        raise ResourceLimitError(f"n_trials exceeds the cap of {MAX_TRIALS}")
    seed = as_int("seed", seed)
    if not 0 <= seed < 2 ** 128:
        raise InvalidParameterError("seed must lie in [0, 2**128)")
    return n_trials, seed


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
    the grid widens until it covers the mass (see
    :func:`lcdisc.propagation.radial_density_grid`).
    """
    n_trials, seed = _check_run(strategy, n_trials, seed)
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
    # before the p_t is computed, not only once run_trials starts
    n_trials, _ = _check_run(strategy, n_trials, seed)
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
        assert np.logical_and.reduce(batch.correct | ~batch.inside)
        n_errors += int(np.add.reduce(~batch.correct, dtype=np.intp))
        n_unknown += int(np.add.reduce(~batch.inside, dtype=np.intp))
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
