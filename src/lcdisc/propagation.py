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
period, and the first k panel is graded toward the k^{3/2} branch point at
k = 0.  How many panels per period a result needs follows from its
tolerance: every quadrature is evaluated on the ladder DENSITY_LADDER of
densities, coarse to fine, and the first density whose result agrees with
the one below it to within the tolerance is returned.  The largest
difference between those two levels is the error estimate; if no two
neighbouring levels agree, :class:`NumericFailureError` is raised with the
last estimate instead of returning a doubtful number.  Ball probabilities
and amplitudes on radii both climb the whole ladder, from 1 panel per
period, on k rules that split every panel of the 1-panel rule (see
:func:`_k_rule`).  The amplitude on a uniform radial grid, as the Monte
Carlo sampler and ``dump-density`` use, fills its j0 table by angle
addition, as the ball's rho nodes do.

Probabilities over a ball of radius R centered at the origin, with the packet
center a distance d away, use an exact angular reduction: the fraction of the
sphere of radius rho (about the packet center) lying inside the ball is a
closed-form solid-angle weight, so no 3D integration is ever needed.  A
brute-force 3D Riemann-sum oracle is provided to validate that reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lcdisc._kernels import (
    PanelTable,
    UniformRadii,
    weighted_j0_gemm,
    weighted_j0_sum,
)
from lcdisc.amplitude import MomentumProfile
from lcdisc.errors import (
    InvalidParameterError,
    NumericFailureError,
    ResourceLimitError,
)
from lcdisc.quadrature import (
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
# most bytes of j0 table one BallQuadrature keeps over all its levels, the
# size quadrature.MAX_PANELS lets one streamed 256-row block reach
MAX_KEPT_TABLE_BYTES = 1 << 30

# panels per oscillation period, coarse to fine; ball probabilities and
# amplitudes climb it from its first level
DENSITY_LADDER = (1.0, 2.0, 4.0, 8.0, 16.0)
# halvings of the first k panel toward the k^{3/2} branch point at k = 0;
# the innermost panel, 2^-12 of the first, holds a negligible share
_K_GRADE = 12

_SQRT_PI = math.sqrt(math.pi)
_TINY = float(np.finfo(float).tiny)
# largest oracle grid_n; the oracle costs O(grid_n^3)
_ORACLE_GRID_CAP = 256


@dataclass(frozen=True)
class RadialAmplitude:
    """Amplitude samples on a uniform radial grid about the packet center.

    Attributes
    ----------
    time_t : float
        Evolution time of the samples.
    r_grid : numpy.ndarray
        Strictly increasing nonnegative radii.
    amp : numpy.ndarray
        Complex A(r, t) on the grid.
    density : numpy.ndarray
        |amp|^2, elementwise.
    grid_norm : float
        Trapezoid value of 4 pi * integral r^2 density dr over the grid.
    coverage_warning : bool
        True when the grid captures less than 1 - COVERAGE_BOUND of the mass.
    """

    time_t: float
    r_grid: np.ndarray
    amp: np.ndarray
    density: np.ndarray
    grid_norm: float
    coverage_warning: bool


def _k_rule(profile: MomentumProfile, r_peak: float, t: float,
            panels_per_period: float) -> PanelRule:
    """Quadrature rule in k resolving oscillations up to radius ``r_peak``.

    The rule at the coarsest density, DENSITY_LADDER[0], with every panel,
    graded ones too, split into panels_per_period / DENSITY_LADDER[0] equal
    parts.  So no level shares a graded panel with the next, and the guard
    comparing them sees the first panel's error too (see
    :mod:`lcdisc.quadrature`).
    """
    width = panel_width(max(r_peak, abs(t)), DENSITY_LADDER[0])
    coarsest = gauss_panels(0.0, profile.k_max, width, grade=_K_GRADE)
    return coarsest.subdivide(round(panels_per_period / DENSITY_LADDER[0]))


def _converged(evaluate: Callable[[float], np.ndarray], tol: float,
               what: str, ladder: tuple[float, ...],
               ) -> tuple[np.ndarray, float, float]:
    """Run ``evaluate(panels_per_period)`` up ``ladder`` until converged.

    Returns the finer result of the first two neighbouring densities whose
    largest difference is at most ``tol``, that difference (the error
    estimate) and the finer density.  Each level's result is reused as the
    coarse side of the next comparison.  The estimate is never below the
    spacing of the finer result's floats, where two converged levels can
    agree to the bit by chance, so a tolerance under it is unreachable.  A
    NaN estimate never passes.
    """
    coarse = evaluate(ladder[0])
    for panels_per_period in ladder[1:]:
        fine = evaluate(panels_per_period)
        estimate = float(np.max(np.maximum(np.abs(fine - coarse),
                                           np.spacing(np.abs(fine)))))
        if estimate <= tol:
            return fine, estimate, panels_per_period
        coarse = fine
    raise NumericFailureError(f"{what} quadrature did not converge",
                              estimate=estimate)


def _envelope(profile: MomentumProfile, rule: PanelRule) -> np.ndarray:
    """w k^{3/2} g(k) / sqrt(pi) on the nodes of a k rule."""
    k, w = rule.nodes, rule.weights
    return w * np.power(k, 1.5) * profile.magnitude(k) / _SQRT_PI


def _phase_coeffs(envelope: np.ndarray, k: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
    """Coefficients envelope(k) exp(-i k t), one row per k node and one
    column per time of ``t``."""
    return envelope[:, None] * np.exp(-1j * np.multiply.outer(k, t))


def amplitude_on_radii(
    profile: MomentumProfile,
    r: np.ndarray | UniformRadii,
    t: float,
    amp_tol: float = DEFAULT_AMP_TOL,
) -> np.ndarray:
    """Evaluate A(r, t) at many radii sharing one quadrature rule.

    The radii ``r`` are an array or, for a uniform grid from the origin,
    the :class:`~lcdisc._kernels.UniformRadii` whose j0 table is filled by
    angle addition.

    Raises
    ------
    InvalidParameterError
        If ``t`` is not finite, ``amp_tol`` is not finite and positive, or
        a radius is negative or not finite.
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
    if isinstance(r, UniformRadii):
        radii = r.nodes
    else:
        r = radii = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(radii) & (radii >= 0.0)):
        raise InvalidParameterError("radii must be finite and nonnegative")
    if radii.size == 0:
        return np.empty(0, dtype=np.complex128)
    r_peak = float(radii.max())

    def evaluate(panels_per_period: float) -> np.ndarray:
        rule = _k_rule(profile, r_peak, t, panels_per_period)
        coeffs = _phase_coeffs(_envelope(profile, rule), rule.nodes,
                               np.array([t])).ravel()
        return weighted_j0_sum(r, rule.nodes, coeffs)

    # the sampler's amplitudes set the radii of the trial CSV, so a change
    # to this ladder or to the j0 fill can move a radius's twelfth digit
    # there, and with it the CSV digest that tests/test_cli.py freezes
    amp, _, _ = _converged(evaluate, amp_tol, "amplitude", DENSITY_LADDER)
    return amp


def default_r_max(profile: MomentumProfile, t: float) -> float:
    """Grid extent covering light-speed drift plus dispersion tails."""
    return profile.offset_d + abs(t) + 10.0 / profile.sigma_eff


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
    the mass.  The result records the trapezoid grid norm and flags a
    coverage warning when the grid still misses more than COVERAGE_BOUND.
    More than MAX_GRID_POINTS radii raise :class:`ResourceLimitError`.
    """
    extent = default_r_max(profile, t) if r_max is None else float(r_max)
    if not (math.isfinite(extent) and extent > 0.0):
        raise InvalidParameterError("r_max must be finite and > 0")
    if n_points < 16:
        raise InvalidParameterError("n_points must be at least 16")
    if n_points > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"n_points exceeds the cap of {MAX_GRID_POINTS}")
    for _ in range(1 + (MAX_EXTENT_DOUBLINGS if r_max is None else 0)):
        radii = UniformRadii(extent, int(n_points))
        r_grid = radii.nodes
        amp = amplitude_on_radii(profile, radii, t, amp_tol)
        density = np.abs(amp) ** 2
        grid_norm = float(4.0 * math.pi *
                          np.trapezoid(r_grid * r_grid * density, r_grid))
        covered = grid_norm >= 1.0 - COVERAGE_BOUND
        if covered:
            break
        extent *= 2.0
    return RadialAmplitude(
        time_t=float(t),
        r_grid=r_grid,
        amp=amp,
        density=density,
        grid_norm=grid_norm,
        coverage_warning=not covered,
    )


def radial_cell_masses(grid: RadialAmplitude) -> np.ndarray:
    """Trapezoid probability mass 4 pi r^2 |A|^2 dr of each grid cell."""
    r = grid.r_grid
    f = 4.0 * math.pi * r * r * grid.density
    return 0.5 * (f[1:] + f[:-1]) * np.diff(r)


def quantile_radius(grid: RadialAmplitude, q: float) -> float:
    """Radius enclosing the fraction ``q`` of the grid's probability mass."""
    if not 0.0 <= q <= 1.0:
        raise InvalidParameterError("quantile must lie in [0, 1]")
    cum = np.concatenate(([0.0], np.cumsum(radial_cell_masses(grid))))
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
    """
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u_star = (R * R - d * d - rho * rho) / (2.0 * d * rho)
        w = np.clip(0.5 * (1.0 + u_star), 0.0, 1.0)
    w = np.where(rho <= R - d, 1.0, w)
    w = np.where(rho >= R + d, 0.0, w)
    if d > R:
        w = np.where(rho <= d - R, 0.0, w)
    return w


def _rho_rule(profile: MomentumProfile, R: float, d: float,
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

    All times share one j0 table per density, which makes optimizer
    sweeps far cheaper than repeated scalar calls.  This is one
    :meth:`BallQuadrature.p_in` call on a quadrature whose ``t_max`` is the
    largest ``|t|``.

    Raises
    ------
    InvalidParameterError
        If ``R`` or the profile's ``offset_d`` is negative or not finite,
        if ``t_values`` is empty or holds a time that is not finite, or if
        ``prob_tol`` is not finite and positive.
    NumericFailureError
        If no two neighbouring densities agree to within ``prob_tol``.
    ResourceLimitError
        If a time or the ball is so large that a quadrature rule would need
        more than :data:`~lcdisc.quadrature.MAX_PANELS` panels.
    """
    # p_in validates the times; an empty array gives t_max 0 and a NaN
    # time a NaN t_max, which the constructor rejects
    t_max = float(np.max(np.abs(np.asarray(t_values, dtype=float)),
                         initial=0.0))
    return BallQuadrature(profile, R, t_max, prob_tol,
                          keep_tables=False).p_in(t_values)


@dataclass(frozen=True)
class _Level:
    """What one density of a :class:`BallQuadrature` keeps."""

    # 4 pi w rho^2 cap on the nodes of the rho rule
    weights: np.ndarray
    # j0 on the rho nodes x the k nodes, kept, or the rho rule that the
    # gemm fills it from block by block on every call
    table: PanelTable | PanelRule
    # nodes of a k rule resolving max(rho_max, t_max)
    k: np.ndarray
    # w k^{3/2} g(k) / sqrt(pi) on the k nodes
    envelope: np.ndarray


class BallQuadrature:
    """Ball probabilities of one (profile, R) at any times with
    ``|t| <= t_max``.

    Each DENSITY_LADDER level's rho rule, cap weights, k rule and j0 table
    are built on first use and kept, so every :meth:`p_in` call after the
    first costs only the phase coefficients, one gemm per level and the
    reduction.  A level's k rule is the coarsest level's k rule with every
    panel, graded ones too, split into density / DENSITY_LADDER[0] equal
    parts.  The k rule resolves oscillations up to max(rho_max, t_max),
    which covers every time up to ``t_max``; a later time would need a
    finer k rule, so :meth:`p_in` rejects it.

    Every level a call reaches stays in memory until the quadrature is
    dropped, up to a bound: a level whose table would take ``kept_bytes``,
    the bytes of the tables kept so far, past MAX_KEPT_TABLE_BYTES keeps its
    rules but not its table.  Such a level, and every level with
    ``keep_tables`` False, fills, contracts and drops its table one block
    at a time on each call.  The bound caps memory; it is not a speed
    threshold.

    A quadrature called once should pass False.  Keeping the tables of
    every quadrature, single sweeps' too, raised e2ebench's evaluate
    ``latency_p50_ref`` (seed 1, medians) from 0.379 to 0.392, worse in 4
    of 4 alternating pairs (0.742 to 0.786 at the denser rules this ladder
    replaced).  The cost is minor page faults: a median of 730 per
    evaluate request against 601 streaming at those rules, with e2ebench's
    reference timed around each request.  And a single p_t at R=64 (d=0,
    t=10) would keep 37 MiB (Gaussian k0=5, sigma=1) or 265 MiB
    (exponential kappa=2), where streaming holds one block.

    Raises
    ------
    InvalidParameterError
        If ``R``, the profile's ``offset_d`` or ``t_max`` is negative or not
        finite, or ``prob_tol`` is not finite and positive.
    """

    def __init__(self, profile: MomentumProfile, R: float, t_max: float,
                 prob_tol: float = DEFAULT_PROB_TOL,
                 keep_tables: bool = True):
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
        self.keep_tables = keep_tables
        self.kept_bytes = 0
        self._levels: dict[float, _Level] = {}

    def _level(self, panels_per_period: float) -> _Level:
        level = self._levels.get(panels_per_period)
        if level is None:
            profile, R = self.profile, self.R
            d = profile.offset_d
            rule = _rho_rule(profile, R, d, panels_per_period)
            rho = rule.nodes
            cap = sphere_cap_weight(rho, R, d)
            k_rule = _k_rule(profile, float(rho.max()), self.t_max,
                             panels_per_period)
            k = k_rule.nodes
            table_bytes = rho.nbytes * k.size
            keep = (self.keep_tables and
                    self.kept_bytes + table_bytes <= MAX_KEPT_TABLE_BYTES)
            if keep:
                self.kept_bytes += table_bytes
            level = _Level(
                weights=4.0 * math.pi * rule.weights * rho * rho * cap,
                table=PanelTable.fill(rule, k) if keep else rule,
                k=k,
                envelope=_envelope(profile, k_rule))
            self._levels[panels_per_period] = level
        return level

    def p_in(self, t_values: np.ndarray) -> np.ndarray:
        """Probability that a detection at each time falls inside the ball.

        Raises
        ------
        InvalidParameterError
            If ``t_values`` is empty, or holds a time that is not finite or
            whose magnitude exceeds ``t_max``.
        NumericFailureError
            If no two neighbouring densities agree to within ``prob_tol``.
        ResourceLimitError
            If ``t_max`` or the ball is so large that a quadrature rule
            would need more than :data:`~lcdisc.quadrature.MAX_PANELS`
            panels.
        """
        t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
        if t_values.size == 0:
            raise InvalidParameterError("t_values must hold at least one time")
        if not np.all(np.isfinite(t_values)):
            raise InvalidParameterError("times must be finite")
        if np.max(np.abs(t_values)) > self.t_max:
            raise InvalidParameterError(
                f"times must satisfy |t| <= t_max = {self.t_max:.6g}")
        d = self.profile.offset_d
        if d + self.R - max(0.0, d - self.R) < _TINY:
            # R = 0, or a ball too small to widen [d - R, d + R] in floating
            # point, or narrower than the smallest normal float, where the
            # probability, of order R^3, underflows: no probability inside
            return np.zeros(t_values.shape)

        def evaluate(panels_per_period: float) -> np.ndarray:
            level = self._level(panels_per_period)
            coeffs = _phase_coeffs(level.envelope, level.k, t_values)
            amp = weighted_j0_gemm(level.table, level.k, coeffs)
            density = amp.real ** 2 + amp.imag ** 2
            return level.weights @ density

        p, _, _ = _converged(evaluate, self.prob_tol, "ball-probability",
                             DENSITY_LADDER)
        return p


# boundary cells are subdivided this many times per axis to measure the
# fraction of their volume inside the ball
_ORACLE_SUBCELLS = 8


def oracle_inside_probability_3d(
    profile: MomentumProfile,
    R: float,
    t: float,
    grid_n: int,
) -> float:
    """Brute-force 3D check of :func:`inside_probability`.

    The bounding box of the ball is split into grid_n^3 cells and |A|^2 is
    integrated cell by cell over the portion inside the ball, with the
    amplitude evaluated at each sample point's exact distance from the
    packet center by :func:`amplitude_on_radii`, under its convergence
    guard.  Interior cells use a 2x2x2 Gauss product rule (plain
    cell-center sampling leaves an O(h^2) volume term far above the target
    agreement); cells straddling the sphere are weighted by the fraction of
    their volume inside, counted on an 8^3 subcell grid, and evaluated at
    the centroid of that inside portion, which removes the boundary
    staircase error.  Cost grows as O(grid_n^3), so grid_n is capped at
    256; a larger grid raises :class:`ResourceLimitError`.
    """
    if grid_n < 32:
        raise InvalidParameterError("oracle grid_n must be at least 32")
    if grid_n > _ORACLE_GRID_CAP:
        raise ResourceLimitError(
            f"grid_n={grid_n} exceeds the oracle's cap of {_ORACLE_GRID_CAP}")
    if not (math.isfinite(R) and R >= 0.0):
        raise InvalidParameterError("ball radius R must be finite and >= 0")
    if R == 0.0:
        return 0.0
    d = profile.offset_d
    h = 2.0 * R / grid_n
    axis = -R + (np.arange(grid_n) + 0.5) * h
    sq = axis * axis
    dist = np.sqrt(sq[:, None, None] + sq[None, :, None] + sq[None, None, :])
    half_diag = 0.5 * math.sqrt(3.0) * h
    interior = dist + half_diag <= R
    straddle = np.abs(dist - R) < half_diag

    shape = dist.shape
    cx = np.broadcast_to(axis[:, None, None], shape)[interior]
    cy = np.broadcast_to(axis[None, :, None], shape)[interior]
    cz = np.broadcast_to(axis[None, None, :], shape)[interior]
    gauss = 0.5 * h / math.sqrt(3.0)
    rho = []
    weights = []
    for sx in (-gauss, gauss):
        for sy in (-gauss, gauss):
            for sz in (-gauss, gauss):
                rho.append(np.sqrt((cx + sx) ** 2 + (cy + sy) ** 2 +
                                   (cz + sz - d) ** 2))
                weights.append(np.full(rho[-1].shape, 0.125))

    if np.any(straddle):
        centers = np.stack([np.broadcast_to(axis[:, None, None], shape),
                            np.broadcast_to(axis[None, :, None], shape),
                            np.broadcast_to(axis[None, None, :], shape)],
                           axis=-1)[straddle]
        frac, centroid = _cell_inside_fractions(centers, R, h)
        occupied = frac > 0.0
        weights.append(frac[occupied])
        offset = centroid[occupied] - np.array([0.0, 0.0, d])
        rho.append(np.sqrt(np.sum(offset * offset, axis=1)))

    weights = np.concatenate(weights)
    # the cells' mirror symmetry repeats most radii many times over
    radii, index = np.unique(np.concatenate(rho), return_inverse=True)
    amp = amplitude_on_radii(profile, radii, t)[index]
    return float(h ** 3 * np.dot(weights, amp.real ** 2 + amp.imag ** 2))


def _cell_inside_fractions(centers: np.ndarray, R: float,
                           h: float) -> tuple[np.ndarray, np.ndarray]:
    """Volume fraction of cubic cells inside the origin ball, with the
    centroid of each cell's inside portion.

    Each cell is split into _ORACLE_SUBCELLS^3 subcells and subcell centers
    are tested against the sphere; cells with no inside subcell get
    fraction 0 and their own center as centroid.
    """
    steps = (np.arange(_ORACLE_SUBCELLS) + 0.5) / _ORACLE_SUBCELLS - 0.5
    ox, oy, oz = np.meshgrid(steps * h, steps * h, steps * h, indexing="ij")
    offsets = np.stack([ox.ravel(), oy.ravel(), oz.ravel()], axis=-1)
    n_cells = centers.shape[0]
    frac = np.empty(n_cells)
    centroid = np.empty((n_cells, 3))
    chunk = max(1, (1 << 22) // offsets.shape[0])
    for lo in range(0, n_cells, chunk):
        sl = slice(lo, min(lo + chunk, n_cells))
        points = centers[sl, None, :] + offsets[None, :, :]
        inside = np.sum(points * points, axis=2) <= R * R
        counts = inside.sum(axis=1)
        frac[sl] = counts / offsets.shape[0]
        sums = np.sum(points * inside[:, :, None], axis=1)
        safe = np.maximum(counts, 1)
        centroid[sl] = np.where(counts[:, None] > 0,
                                sums / safe[:, None], centers[sl])
    return frac, centroid
