"""Position-space amplitude of a photon wavepacket and ball probabilities.

For a spherically symmetric momentum profile g(k) on the mass shell, the
position amplitude at distance r from the packet center reduces to a single
radial integral,

    A(r, t) = (1/sqrt(pi)) * integral_0^{k_max} k^{3/2} g(k) j0(k r)
              exp(-i k t) dk,

with j0(z) = sin(z)/z.  |A|^2 integrates to 1 over space for a normalized
profile, and the phase exp(-i k t) preserves that norm at every time.

The integrand oscillates with local frequency about max(r, t), so composite
Gauss-Legendre panels are capped at a fraction of the local oscillation
period.  The lower half of the first k panel, [0, w / 2], runs in
u = sqrt(k), where the k^{3/2} branch point at k = 0 becomes the polynomial
2 u^4 du.  A level that splits each coarsest panel into L equal parts puts
16 L nodes on the first panel [0, w] and 8 L on every other one (see
:func:`_k_rule`).  How many panels per period a result needs follows from
its tolerance: every quadrature is evaluated on the ladder DENSITY_LADDER of
densities, coarse to fine, and the first density whose result agrees with
the one below it to within the tolerance is returned.  The largest
difference between those two levels is the error estimate; if no two
neighbouring levels agree, :class:`NumericFailureError` is raised with the
last estimate instead of returning a doubtful number.  Ball probabilities
and amplitudes on radii both climb the whole ladder, from 1 panel per
period, on k rules that split every panel of the 1-panel rule (see
:func:`_k_rule`).  Radii and times may come as an evenly spaced
:class:`~lcdisc.quadrature.EvenGrid`.  On a grid of radii, as the Monte
Carlo sampler and ``dump-density`` use, the amplitude builds no j0 table:
angle addition turns its sums into one real product per ladder level.  A
ball probability at one time builds none either: its sums are such a
product per run of the rho rule.  A sweep of many times fills the rho
rule's j0 tables by the same angle addition.  On every evenly spaced
axis, the grid's radii, the panels of a run of the rho rule and a grid of
times as the optimizer sweeps, sin and cos run on two rows and the other
rows come by doubling (:func:`~lcdisc._kernels.fill_by_doubling`): the
grid's, the tables' and the sums' cos(k x) and sin(k x) / k, and a sweep's
phase coefficients exp(-i k t).

Probabilities over a ball of radius R centered at the origin, with the packet
center a distance d away, use an exact angular reduction: the fraction of the
sphere of radius rho (about the packet center) lying inside the ball is a
closed-form solid-angle weight, so no 3D integration is ever needed.  The
tests check that reduction against a brute-force 3D integral.

NumPy is reached through ufuncs, their reductions and array methods, not
through its Python-level helpers (np.max, np.clip, np.errstate, ...), whose
first call in a request costs more than the arithmetic they wrap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lcdisc._kernels import (
    PanelTable,
    exp_ikx,
    fill_by_doubling,
    weighted_j0_gemm,
    weighted_j0_sum,
)
from lcdisc.amplitude import MomentumProfile
from lcdisc.errors import (
    InvalidParameterError,
    NumericFailureError,
    ResourceLimitError,
    as_int,
)
from lcdisc.quadrature import (
    GAUSS_ORDER,
    EvenGrid,
    PanelRule,
    gauss_panels,
    panel_width,
    piecewise_gauss_panels,
)

DEFAULT_AMP_TOL = 1e-9
DEFAULT_PROB_TOL = 1e-8
COVERAGE_BOUND = 1e-6
# times a default radial grid may double its extent to cover the mass
MAX_EXTENT_DOUBLINGS = 4
# most radii of a radial grid; 2^20 of them already take tens of seconds
MAX_GRID_POINTS = 1 << 20

# panels per oscillation period, coarse to fine; ball probabilities and
# amplitudes climb it from its first level
DENSITY_LADDER = (1.0, 2.0, 4.0, 8.0, 16.0)

_SQRT_PI = math.sqrt(math.pi)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class RadialAmplitude:
    """Amplitude samples on a uniform radial grid about the packet center.

    The record is its samples; the density, the cell masses, the grid norm
    and the coverage flag are derived from them once, when first read.

    Attributes
    ----------
    time_t : float
        Evolution time of the samples.
    r_grid : numpy.ndarray
        Strictly increasing nonnegative radii.
    amp : numpy.ndarray
        Complex A(r, t) on the grid.
    """

    time_t: float
    r_grid: np.ndarray
    amp: np.ndarray

    @functools.cached_property
    def density(self) -> np.ndarray:
        """|amp|^2, elementwise."""
        return np.abs(self.amp) ** 2

    @functools.cached_property
    def cell_masses(self) -> np.ndarray:
        """Trapezoid probability mass 4 pi r^2 |A|^2 dr of each grid cell."""
        r = self.r_grid
        f = 4.0 * math.pi * r * r * self.density
        return 0.5 * (f[1:] + f[:-1]) * (r[1:] - r[:-1])

    @functools.cached_property
    def grid_norm(self) -> float:
        """Trapezoid value of 4 pi * integral r^2 density dr over the grid,
        the sum of the cell masses."""
        return float(np.add.reduce(self.cell_masses))

    @functools.cached_property
    def coverage_warning(self) -> bool:
        """True unless the grid norm is finite and captures at least
        1 - COVERAGE_BOUND of the mass."""
        norm = self.grid_norm
        return not (math.isfinite(norm) and norm >= 1.0 - COVERAGE_BOUND)


def _k_frequency(profile: MomentumProfile, r_peak: float, t: float) -> float:
    """The frequency a k rule resolves: max(r_peak, |t|), but never below
    the profile's own scale 1 / momentum_width, where the shape, not the
    oscillation, sets the panel width."""
    return max(r_peak, abs(t), 1.0 / profile.family.momentum_width)


def _k_rule(profile: MomentumProfile, r_peak: float, t: float,
            panels_per_period: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights in k resolving oscillations up to radius ``r_peak``.

    The rule at the coarsest density, DENSITY_LADDER[0], with its first
    panel [0, w] split at w / 2.  On [0, w / 2] the rule runs in u = sqrt(k),
    where the branch point k^{3/2} dk = 2 u^4 du is a polynomial; [w / 2, w]
    and every other panel stay in k.  Each of these panels, the u panel
    too, is split into L = panels_per_period / DENSITY_LADDER[0] equal
    parts, so [0, w] holds 16 L nodes and no level shares a panel with the
    next: the guard comparing two levels sees the first panel's error too
    (see :mod:`lcdisc.quadrature`).
    """
    width = panel_width(_k_frequency(profile, r_peak, t), DENSITY_LADDER[0])
    coarsest = gauss_panels(0.0, profile.k_max, width)
    parts = round(panels_per_period / DENSITY_LADDER[0])
    # the first panel is [0, w]: its centre and half-width are both w / 2;
    # the u panel [0, sqrt(w / 2)] comes first, then [w / 2, w]
    half = coarsest.half_widths[0]
    root = 0.5 * math.sqrt(half)
    rule = PanelRule(
        np.concatenate(([root, 1.5 * half], coarsest.centres[1:])),
        np.concatenate(([root, 0.5 * half], coarsest.half_widths[1:])),
    ).subdivide(parts)
    k, w = rule.nodes, rule.weights
    u = k[:parts * GAUSS_ORDER]
    # dk = 2 u du, then k = u^2; w first, while u still holds u
    w[:u.size] *= u + u
    u *= u
    return k, w


def _converged(evaluate: Callable[[float], np.ndarray], tol: float,
               what: str) -> tuple[np.ndarray, float, float]:
    """Run ``evaluate(panels_per_period)`` up DENSITY_LADDER to converge.

    Returns the finer result of the first two neighbouring densities whose
    largest difference is at most ``tol``, that difference (the error
    estimate) and the finer density.  Each level's result is reused as the
    coarse side of the next comparison.  The estimate is never below the
    spacing of the finer result's floats, where two converged levels can
    agree to the bit by chance, so a tolerance under it is unreachable.  A
    NaN estimate never passes.
    """
    coarse = evaluate(DENSITY_LADDER[0])
    for panels_per_period in DENSITY_LADDER[1:]:
        fine = evaluate(panels_per_period)
        estimate = float(np.maximum.reduce(
            np.maximum(np.abs(fine - coarse), np.spacing(np.abs(fine))),
            axis=None))
        if estimate <= tol:
            return fine, estimate, panels_per_period
        coarse = fine
    raise NumericFailureError(f"{what} quadrature did not converge",
                              estimate=estimate)


def _envelope(profile: MomentumProfile, k: np.ndarray,
              w: np.ndarray) -> np.ndarray:
    """w k^{3/2} g(k) / sqrt(pi) on the nodes k and weights w of a k rule."""
    return w * np.power(k, 1.5) * profile.magnitude(k) / _SQRT_PI


def _k_side(profile: MomentumProfile, r_peak: float, t: float,
            panels_per_period: float) -> tuple[np.ndarray, np.ndarray]:
    """The k nodes of :func:`_k_rule` and their :func:`_envelope`, both
    read-only.

    They depend on the profile, the level and :func:`_k_frequency` alone,
    not on r_peak and t apart, so the profile keeps the pair last built at
    each level with its frequency and hands it out again while the
    frequency matches: the radii of a fixed-time p_t that all lie inside
    |t| share one k rule per level.  Another frequency rebuilds the
    level's pair and replaces it, so the store holds at most one pair per
    DENSITY_LADDER level.  A slot is read once, as one tuple, so threads
    sharing a profile at most rebuild a pair, and never mix two.
    """
    frequency = _k_frequency(profile, r_peak, t)
    kept = profile._k_sides.get(panels_per_period)
    if kept is not None and kept[0] == frequency:
        return kept[1], kept[2]
    k, w = _k_rule(profile, r_peak, t, panels_per_period)
    envelope = _envelope(profile, k, w)
    k.flags.writeable = envelope.flags.writeable = False
    profile._k_sides[panels_per_period] = (frequency, k, envelope)
    return k, envelope


def _phase_coeffs(envelope: np.ndarray, k: np.ndarray,
                  t: np.ndarray | EvenGrid) -> np.ndarray:
    """Coefficients envelope(k) exp(-i k t), one row per k node and one
    column per time of ``t``.

    For an :class:`EvenGrid` cos and sin run on two rows only, from one
    :func:`~lcdisc._kernels.exp_ikx` call: exp(-i k t_0) at the first
    time and the step w = exp(-i k step).  The envelope is multiplied
    into the first row in place, which gives the bits of an array
    holding that time.  The other columns are products, filled by
    doubling (:func:`~lcdisc._kernels.fill_by_doubling`).  Rows of the
    time-major fill are contiguous; the transpose is copied once, by the
    contraction.  The squares carry |w|'s rounding along, so column i can
    be off by i eps/2 where the direct path is off by eps |k t|.  Every
    coefficient depends on its own k node alone, so the coefficients of
    joined k nodes are those of each part, bit for bit.
    """
    if not isinstance(t, EvenGrid):
        out = exp_ikx(np.negative(t), k).T
        return np.multiply(envelope[:, None], out, out=out)
    first, step = exp_ikx(np.array([-t.nodes[0], -t.step]), k)
    out = np.empty((t.size, k.size), dtype=np.complex128)
    np.multiply(envelope, first, out=out[0])
    return fill_by_doubling(out, step).T


def amplitude_on_radii(
    profile: MomentumProfile,
    r: np.ndarray | EvenGrid,
    t: float,
    amp_tol: float = DEFAULT_AMP_TOL,
) -> np.ndarray:
    """Evaluate A(r, t) at many radii sharing one quadrature rule.

    The radii ``r`` are an array or an :class:`EvenGrid`, whose sums are
    factored by angle addition.  Each level's k nodes and envelope come
    from the profile's store (:func:`_k_side`), shared with every ball
    probability whose k rule resolves the same frequency.

    Raises
    ------
    InvalidParameterError
        If ``t`` is not finite, ``amp_tol`` is not finite and positive, the
        radii have more than one dimension, or a radius is negative or not
        finite.
    NumericFailureError
        If no two neighbouring densities agree to within ``amp_tol``.
    ResourceLimitError
        If ``t`` or a radius is so large that the k rule would need more
        than :data:`~lcdisc.quadrature.MAX_PANELS` panels.
    """
    t = float(t)
    if not math.isfinite(t):
        raise InvalidParameterError("time t must be finite")
    if not (math.isfinite(amp_tol) and amp_tol > 0.0):
        raise InvalidParameterError("amp_tol must be finite and > 0")
    radii = np.asarray(r, dtype=float)
    if radii.ndim > 1:
        raise InvalidParameterError(
            "radii must be one radius or a 1-D array of radii")
    r = r if isinstance(r, EvenGrid) else radii
    if not np.logical_and.reduce(np.isfinite(radii) & (radii >= 0.0),
                                 axis=None):
        raise InvalidParameterError("radii must be finite and nonnegative")
    if radii.size == 0:
        return np.empty(0, dtype=np.complex128)
    r_peak = float(np.maximum.reduce(radii, axis=None))

    def evaluate(panels_per_period: float) -> np.ndarray:
        k, envelope = _k_side(profile, r_peak, t, panels_per_period)
        coeffs = _phase_coeffs(envelope, k, np.array([t])).ravel()
        return weighted_j0_sum(r, k, coeffs)

    # the sampler's amplitudes set the radii of the trial CSV, so a change
    # to this ladder or to the j0 sums can move a radius's twelfth digit
    # there, and with it the CSV digest that tests/test_cli.py freezes
    amp, _, _ = _converged(evaluate, amp_tol, "amplitude")
    return amp


def default_r_max(profile: MomentumProfile, t: float) -> float:
    """Grid extent covering light-speed drift plus dispersion tails.

    The tails are taken as ten of the profile's lengths, 1 /
    ``momentum_width``, so the extent dilates exactly with the profile.
    """
    return profile.offset_d + abs(t) + 10.0 / profile.family.momentum_width


def radial_density_grid(
    profile: MomentumProfile,
    t: float,
    r_max: float | None = None,
    n_points: int = 2048,
    amp_tol: float = DEFAULT_AMP_TOL,
) -> RadialAmplitude:
    """Sample A and |A|^2 on a uniform radial grid of ``n_points`` radii.

    An explicit ``r_max`` is used as given.  Without one the grid starts at
    :func:`default_r_max` and doubles its extent, at most
    MAX_EXTENT_DOUBLINGS times, until it covers all but COVERAGE_BOUND of
    the mass.  The result's trapezoid grid norm and coverage warning tell
    whether the grid still misses more than COVERAGE_BOUND.
    More than MAX_GRID_POINTS radii raise :class:`ResourceLimitError`.
    """
    extent = default_r_max(profile, t) if r_max is None else float(r_max)
    if not (math.isfinite(extent) and extent > 0.0):
        raise InvalidParameterError("r_max must be finite and > 0")
    n_points = as_int("n_points", n_points)
    if n_points < 16:
        raise InvalidParameterError("n_points must be at least 16")
    if n_points > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"n_points exceeds the cap of {MAX_GRID_POINTS}")
    for _ in range(1 + (MAX_EXTENT_DOUBLINGS if r_max is None else 0)):
        radii = EvenGrid.linspace(0.0, extent, n_points)
        grid = RadialAmplitude(
            time_t=float(t), r_grid=radii.nodes,
            amp=amplitude_on_radii(profile, radii, t, amp_tol))
        if not grid.coverage_warning:
            break
        extent *= 2.0
    return grid


def quantile_radius(grid: RadialAmplitude, q: float) -> float:
    """Radius enclosing the fraction ``q`` of the grid's probability mass."""
    if not 0.0 <= q <= 1.0:
        raise InvalidParameterError("quantile must lie in [0, 1]")
    cum = np.concatenate(([0.0], np.cumsum(grid.cell_masses)))
    return float(np.interp(q * cum[-1], cum, grid.r_grid))


def sphere_cap_weight(rho: np.ndarray, R: float, d: float) -> np.ndarray:
    """Fraction of the sphere of radius rho about the packet center that lies
    inside the ball of radius R centered a distance d away.

    Derivation: points on the rho-sphere at polar angle theta from the axis
    joining the two centers sit at distance sqrt(d^2 + rho^2 + 2 d rho u)
    from the ball center, with u = cos(theta).  The point is inside the ball
    iff u <= u* = (R^2 - d^2 - rho^2) / (2 d rho), and the spherical measure
    is uniform in u, so the covered fraction is (1 + u*)/2 clipped to [0, 1].
    The limiting cases are geometric: the whole sphere is inside when
    rho <= R - d, and none of it when rho >= R + d or when the sphere is
    entirely short of the ball (d > R and rho <= d - R).  For d = 0 the
    first two cases alone leave the indicator of rho < R.

    u* is computed only on the spheres that the ball's surface cuts, in
    units of the power of two of max(R, d), so whatever the common scale
    of rho, R and d no square or product there overflows or underflows to
    0/0, and a weight keeps its bits when all three scale by a power of 2.
    """
    rho = np.asarray(rho, dtype=float)
    none = rho >= R + d
    if d > R:
        none |= rho <= d - R
    whole = (rho <= R - d) & ~none
    w = np.array(whole, dtype=float)
    cut = ~(whole | none)
    # max, not R + d, which can overflow
    e = math.frexp(max(R, d))[1]
    rho_cut = np.ldexp(rho[cut], -e)
    R, d = math.ldexp(R, -e), math.ldexp(d, -e)
    u_star = (R * R - d * d - rho_cut * rho_cut) / (2.0 * d * rho_cut)
    w[cut] = np.minimum(np.maximum(0.5 * (1.0 + u_star), 0.0), 1.0)
    return w


def _rho_rule(profile: MomentumProfile, R: float,
              panels_per_period: float) -> PanelRule:
    """Radial panels over the support [max(0, d-R), d+R] of the cap weight.

    Panels never cross the kink of the weight at rho = |R - d|.  rho A is a
    sine transform of k^{1/2} g(k) e^{-ikt} over [0, k_max], so it is
    band-limited to k_max, and the panel width resolves that band.  The
    density |A|^2 reaches 2 k_max, but only through products of the
    profile's values near k_max, below its cut tail.  At 2 panels per
    period of k_max that top frequency turns by pi over a half-panel, where
    the 8-point rule integrates e^{i theta x} on [-1, 1] to 1.7e-10 (4e-15
    at pi/2, 7.5e-6 at 2 pi, the 1-panel level, which the guard compares
    against the 2-panel one).
    """
    d = profile.offset_d
    lo = max(0.0, d - R)
    hi = d + R
    breaks = [lo, hi]
    kink = abs(R - d)
    if lo < kink < hi:
        breaks.insert(1, kink)
    width = panel_width(profile.k_max, panels_per_period)
    return piecewise_gauss_panels(np.array(breaks), width)


def inside_probability(
    profile: MomentumProfile,
    R: float,
    t: float,
    prob_tol: float = DEFAULT_PROB_TOL,
) -> float:
    """Probability that a detection at time t falls inside the ball.

    Computes P_in = 4 pi * integral rho^2 |A(rho, t)|^2 w(rho; R, d) drho
    with the exact solid-angle weight :func:`sphere_cap_weight`, where d is
    the profile's packet-center distance ``offset_d``.
    """
    return float(inside_probability_sweep(profile, R, np.array([t]),
                                          prob_tol)[0])


def inside_probability_sweep(
    profile: MomentumProfile,
    R: float,
    t_values: np.ndarray,
    prob_tol: float = DEFAULT_PROB_TOL,
) -> np.ndarray:
    """Vectorized :func:`inside_probability` over many times.

    This is one :meth:`BallQuadrature.p_in` call on a quadrature whose
    ``t_max`` is the largest ``|t|``: a single time fills no j0 table, and
    many times share each density's table, kept for the call.

    Raises
    ------
    InvalidParameterError
        If ``R`` or the profile's ``offset_d`` is negative or not finite,
        if ``t_values`` has more than one dimension, is empty or holds a
        time that is not finite, or if ``prob_tol`` is not finite and
        positive.
    NumericFailureError
        If no two neighbouring densities agree to within ``prob_tol``.
    ResourceLimitError
        If a time or the ball is so large that a quadrature rule would need
        more than :data:`~lcdisc.quadrature.MAX_PANELS` panels.
    """
    # p_in validates the times; an empty array gives t_max 0 and a NaN
    # time a NaN t_max, which the constructor rejects
    t_max = float(np.maximum.reduce(np.abs(np.asarray(t_values, dtype=float)),
                                    axis=None, initial=0.0))
    return BallQuadrature(profile, R, t_max, prob_tol).p_in(t_values)


@dataclass(frozen=True)
class _Level:
    """What one density of a :class:`BallQuadrature` keeps."""

    # 4 pi w rho^2 cap on the nodes of the rho rule
    weights: np.ndarray
    # j0 on the rho nodes x the nodes of a k rule resolving
    # max(rho_max, t_max), which keeps or streams its blocks
    table: PanelTable
    # w k^{3/2} g(k) / sqrt(pi) on the table's k nodes: read-only, shared
    # through the profile's store
    envelope: np.ndarray


class BallQuadrature:
    """Ball probabilities of one (profile, R) at any times with
    ``|t| <= t_max``.

    Each DENSITY_LADDER level's rho rule, cap weights and k rule are built
    on first use and kept, and its j0 table on the first call of many times,
    so every such call after that costs only the phase coefficients, one
    gemm per level and the reduction.  A call of one time fills no table:
    its sums come by angle addition
    (:func:`~lcdisc._kernels.weighted_j0_gemm`).  The guard's first
    comparison always needs DENSITY_LADDER[0] and [1], so each call fills
    their coefficients once, over the two levels' k nodes and envelopes
    joined end to end (joined once, when the two levels are built), and
    each level contracts its own block of rows; a level above [1] fills
    its own when a call reaches it.

    A level's k rule is the coarsest level's k rule with every panel, its
    u = sqrt(k) panel too, split into density / DENSITY_LADDER[0] equal
    parts (:func:`_k_rule`).  The k rule resolves oscillations up to
    max(rho_max, t_max), which covers every time up to ``t_max``; a later
    time would need a finer k rule, so :meth:`p_in` rejects it.  Its k
    nodes and envelope come from the profile's store (:func:`_k_side`):
    quadratures of one profile whose balls all lie inside ``t_max``, as
    the radii of a fixed-time error curve do, resolve the same frequency
    and share one k rule per level, with the bits of their own.

    Every level a call reaches stays in memory until the quadrature is
    dropped.  Its table keeps its blocks if twice its bytes fit in
    :data:`~lcdisc._kernels.MAX_KEPT_TABLE_BYTES`, and otherwise fills,
    contracts and drops them one at a time on each call of many times, with
    the bits of kept ones (:class:`~lcdisc._kernels.PanelTable`).  Each
    level's table takes at least twice the bytes of the level below, as
    the k nodes double and the rho nodes never shrink, so the tables one
    quadrature keeps stay under the bound.

    Raises
    ------
    InvalidParameterError
        If ``R``, the profile's ``offset_d`` or ``t_max`` is negative or not
        finite, or ``prob_tol`` is not finite and positive.
    """

    def __init__(self, profile: MomentumProfile, R: float, t_max: float,
                 prob_tol: float = DEFAULT_PROB_TOL):
        if not (math.isfinite(R) and R >= 0.0):
            raise InvalidParameterError(
                "ball radius R must be finite and >= 0")
        # a MomentumProfile built without make_profile skips its offset check
        d = profile.offset_d
        if not (math.isfinite(d) and d >= 0.0):
            raise InvalidParameterError("offset_d must be finite and >= 0")
        if not (math.isfinite(t_max) and t_max >= 0.0):
            raise InvalidParameterError(
                "t_max, the largest |t|, must be finite and >= 0")
        if not (math.isfinite(prob_tol) and prob_tol > 0.0):
            raise InvalidParameterError("prob_tol must be finite and > 0")
        self.profile = profile
        self.R = float(R)
        self.t_max = float(t_max)
        self.prob_tol = prob_tol
        self._levels: dict[float, _Level] = {}
        self._first_two: tuple[np.ndarray, np.ndarray, int] | None = None

    def _level(self, panels_per_period: float) -> _Level:
        level = self._levels.get(panels_per_period)
        if level is None:
            profile, R = self.profile, self.R
            d = profile.offset_d
            rule = _rho_rule(profile, R, panels_per_period)
            rho = rule.nodes
            cap = sphere_cap_weight(rho, R, d)
            k, envelope = _k_side(profile, float(np.maximum.reduce(rho)),
                                  self.t_max, panels_per_period)
            level = _Level(
                weights=4.0 * math.pi * rule.weights * rho * rho * cap,
                table=PanelTable(rule, k),
                envelope=envelope)
            self._levels[panels_per_period] = level
        return level

    def _joined(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The k nodes and envelopes of DENSITY_LADDER[0] and [1] joined
        end to end, built with the two levels and kept, and the first
        level's k node count."""
        if self._first_two is None:
            first, second = map(self._level, DENSITY_LADDER[:2])
            self._first_two = (
                np.concatenate((first.table.k, second.table.k)),
                np.concatenate((first.envelope, second.envelope)),
                first.table.k.size)
        return self._first_two

    def p_in(self, t_values: np.ndarray | EvenGrid) -> np.ndarray:
        """Probability that a detection at each time falls inside the ball.

        ``t_values`` is an array of times or an :class:`EvenGrid` sweep,
        whose phase coefficients come by doubling.

        Raises
        ------
        InvalidParameterError
            If ``t_values`` has more than one dimension or is empty, or
            holds a time that is not finite or whose magnitude exceeds
            ``t_max``.
        NumericFailureError
            If no two neighbouring densities agree to within ``prob_tol``.
        ResourceLimitError
            If ``t_max`` or the ball is so large that a quadrature rule
            would need more than :data:`~lcdisc.quadrature.MAX_PANELS`
            panels.
        """
        times = (t_values if isinstance(t_values, EvenGrid)
                 else np.array(t_values, dtype=float, copy=None, ndmin=1))
        t_values = np.asarray(times)
        if t_values.ndim > 1:
            raise InvalidParameterError(
                "t_values must be one time or a 1-D array of times")
        if t_values.size == 0:
            raise InvalidParameterError("t_values must hold at least one time")
        if not np.logical_and.reduce(np.isfinite(t_values), axis=None):
            raise InvalidParameterError("times must be finite")
        if np.maximum.reduce(np.abs(t_values), axis=None) > self.t_max:
            raise InvalidParameterError(
                f"times must satisfy |t| <= t_max = {self.t_max:.6g}")
        d = self.profile.offset_d
        if d + self.R - max(0.0, d - self.R) < _TINY:
            # R = 0, or a ball too small to widen [d - R, d + R] in floating
            # point, or narrower than the smallest normal float, where the
            # probability, of order R^3, underflows: no probability inside
            return np.zeros(t_values.shape)
        # the guard's first comparison needs both of the first two levels,
        # so their coefficients are filled together, one block of rows each
        k, envelope, split = self._joined()
        joined = _phase_coeffs(envelope, k, times)
        first_two = dict(zip(DENSITY_LADDER[:2],
                             (joined[:split], joined[split:])))

        def evaluate(panels_per_period: float) -> np.ndarray:
            level = self._level(panels_per_period)
            coeffs = first_two.get(panels_per_period)
            if coeffs is None:
                coeffs = _phase_coeffs(level.envelope, level.table.k, times)
            amp = weighted_j0_gemm(level.table, level.table.k, coeffs)
            density = amp.real ** 2 + amp.imag ** 2
            return level.weights @ density

        p, _, _ = _converged(evaluate, self.prob_tol, "ball-probability")
        return p
