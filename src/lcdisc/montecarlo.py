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
in the scalar order, so the chunk size never changes a result.  The Philox
rounds run in place on uint64 buffers allocated once per block: the words
that no trial changes go through rounds 1-3 as Python ints, words 0 and 2
then share one (2, n) array and words 1 and 3 another, and only the words
a trial reads become doubles (three of block 1, one of block 2).  Any
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
# most trials of one run; 2^30 of them take about four minutes at the
# 4.5 M trials/s of estimate_error, and nine with a trial CSV of some 50 GB
MAX_TRIALS = 1 << 30
CHUNK_TRIALS = 65536

_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
# trials per pass of the Philox rounds, whose six (2, n) uint64 buffers
# then take 1.5 MiB and stay in cache: on a 2-vCPU Xeon guest (2 MiB of L2
# a core) one 65536-trial block took 6.2-6.4 ms with this bound, 6.8 ms
# with 8192 or 24576 and 9.5 ms unsliced; below 8192 the ufunc calls cost
# more than the cache saves
_PHILOX_SLICE = 16384


@dataclass(frozen=True)
class TrialBatch:
    """The consecutive trials ``start, start + 1, ...`` as parallel arrays.

    ``true_plus`` and ``guess_plus`` are True where the channel is the plus
    channel.  Inside the ball the outcome is the true channel and the guess
    always matches it; outside, the outcome is unknown and the guess comes
    from the configured strategy.
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


# the multipliers of words 0 and 2 as :func:`_round` takes them (high and
# low 32-bit halves, and the whole), each alone and as the columns of a
# stacked round: (M0, M1) while the rows hold words (0, 2), (M1, M0) while
# they hold (2, 0)
_ROW_M = tuple((np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF), np.uint64(m))
               for m in _PHILOX_M)
_COLUMN_M = tuple(
    tuple(np.array([[first], [second]], dtype=np.uint64)
          for first, second in zip(_ROW_M[order], _ROW_M[1 - order]))
    for order in (0, 1))


def _round(x: np.ndarray, m: tuple, other: np.ndarray | None, key,
           hi: np.ndarray, cross: np.ndarray, mid: np.ndarray,
           low: np.ndarray) -> None:
    """The products of one Philox round, in place: ``hi`` becomes the high
    word of ``m * x`` xor ``other`` (unless None) xor ``key``, and ``x``
    the low word.  ``cross``, ``mid`` and ``low`` are scratch.

    The high word is the 32-bit-halves product of Hacker's Delight's
    mulhu: no partial sum below can carry out of 64 bits.
    """
    m_hi, m_lo, m_full = m
    np.right_shift(x, _SHIFT32, out=hi)
    np.bitwise_and(x, _LOW32, out=cross)
    np.multiply(cross, m_lo, out=low)
    np.multiply(hi, m_lo, out=mid)
    np.right_shift(low, _SHIFT32, out=low)
    np.add(mid, low, out=mid)
    np.multiply(cross, m_hi, out=cross)
    np.bitwise_and(mid, _LOW32, out=low)
    np.add(cross, low, out=cross)
    np.multiply(hi, m_hi, out=hi)
    np.right_shift(mid, _SHIFT32, out=mid)
    np.add(hi, mid, out=hi)
    np.right_shift(cross, _SHIFT32, out=cross)
    np.add(hi, cross, out=hi)
    np.multiply(x, m_full, out=x)
    if other is not None:
        np.bitwise_xor(hi, other, out=hi)
    np.bitwise_xor(hi, key, out=hi)


def _philox_block(seed: int, index: np.ndarray, block: int,
                  words: int = 4) -> np.ndarray:
    """Uniforms of counter block ``block`` of the trials ``index``, shape
    ``(words, len(index))``: row j is word j of the block ``(block, i, 0, 0)``.

    A round maps the words (w0, w1, w2, w3) under the round key (k0, k1)
    to (hi(M1 w2) ^ w1 ^ k0, lo(M1 w2), hi(M0 w0) ^ w3 ^ k1, lo(M0 w0)).
    Only word 1 of the counter depends on the trial, so rounds 1-3 take
    the words that do not as Python ints and multiply one word per trial
    each.  Rounds 4-10 hold words 0 and 2 in the rows of one (2, n) array
    and words 1 and 3 in another, both in the order that flips each round:
    the low words of the products, which the multiply leaves in place of
    the first array, are the next round's words 3 and 1.  The rounds run
    on at most ``_PHILOX_SLICE`` trials at a time, in six buffers
    allocated once per call, each ufunc writing into one of them.
    """
    index = np.asarray(index, dtype=np.uint64)
    n = index.size
    k0 = [(seed + r * _PHILOX_W[0]) & _MASK64 for r in range(_PHILOX_ROUNDS)]
    k1 = [((seed >> 64) + r * _PHILOX_W[1]) & _MASK64
          for r in range(_PHILOX_ROUNDS)]
    # rounds 1-3 on the words that no trial changes; round 1 maps
    # (block, i, 0, 0) to (i ^ k0, 0, hi(M0 block) ^ k1, lo(M0 block))
    hi, lo = divmod(_PHILOX_M[0] * block, 1 << 64)
    # round 2: word 2 becomes hi(M0 w0) ^ key_2, words 0 and 1 constants
    key_2 = np.uint64(lo ^ k1[1])
    hi, w1 = divmod(_PHILOX_M[1] * (hi ^ k1[0]), 1 << 64)
    w0 = hi ^ k0[1]
    # round 3: word 0 becomes hi(M1 w2) ^ key_0 and word 2 w3 ^ xor_2;
    # word 3, a constant, is the last
    key_0 = np.uint64(w1 ^ k0[2])
    hi, w3 = divmod(_PHILOX_M[0] * w0, 1 << 64)
    xor_2 = np.uint64(hi ^ k1[2])
    keys = [np.array([[k0[r]], [k1[r]]] if r % 2 else [[k1[r]], [k0[r]]],
                     dtype=np.uint64) for r in range(3, _PHILOX_ROUNDS)]
    uniforms = np.empty((words, n))
    buffers = np.empty((6, 2, min(n, _PHILOX_SLICE)), dtype=np.uint64)
    for start in range(0, n, _PHILOX_SLICE):
        a, b, *scratch = buffers[:, :, :min(n - start, _PHILOX_SLICE)]
        row_scratch = [buffer[0] for buffer in scratch[:3]]
        np.bitwise_xor(index[start:start + _PHILOX_SLICE], np.uint64(k0[0]),
                       out=a[0])
        _round(a[0], _ROW_M[0], None, key_2, b[1], *row_scratch)
        _round(b[1], _ROW_M[1], None, key_0, a[1], *row_scratch)
        np.bitwise_xor(a[0], xor_2, out=a[0])
        b[0].fill(w3)
        # a holds words (2, 0) and b words (3, 1)
        for r, key in enumerate(keys, start=3):
            _round(a, _COLUMN_M[r % 2], b[::-1], key, *scratch)
            a, b, scratch = scratch[0], a, [b, *scratch[1:]]
        # a holds words (0, 2) and b words (1, 3)
        rows = uniforms[:, start:start + _PHILOX_SLICE]
        for words_in, words_out in ((a, rows[0::2]), (b, rows[1::2])):
            words_in = words_in[:len(words_out)]
            np.right_shift(words_in, _SHIFT11, out=words_in)
            np.multiply(words_in, 2.0 ** -53, out=words_out)
    return uniforms


def philox_uniforms(seed: int, index: np.ndarray) -> np.ndarray:
    """Uniforms 1-5 of the trials ``index``, shape ``(5, len(index))``.

    Row j holds uniform j + 1 of the randomness contract; it equals
    ``Generator(Philox(key=seed, counter=i << 64)).random(5)[j]``.
    """
    return np.concatenate([_philox_block(seed, index, 1),
                           _philox_block(seed, index, 2, 1)])


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
        if r.size < 2 or not (r[0] >= 0.0 and
                              np.logical_and.reduce(r[1:] > r[:-1])):
            raise InvalidStateError("radial grid radii must be nonnegative "
                                    "and strictly increasing")
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
    # word 3 of block 1, phi, is never read
    u = _philox_block(seed, index, 1, 3)
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
            _philox_block(seed, index[outside], 2, 1)[0] < priors.pi0
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
