"""Composite Gauss-Legendre rules for oscillatory radial integrals.

The integrands here look like smooth envelopes times oscillations of a known
maximum frequency (k r and k t in k; in rho, the amplitude's band k_max,
see propagation._rho_rule).  A fixed-order Gauss rule is
exact for polynomials up to degree 2n-1, so capping the panel width at a
fraction of the local oscillation period keeps every panel in the regime
where Gauss-Legendre converges spectrally.  How small a fraction is needed
is left to the caller, which raises the density until two neighbouring
densities agree.

The k integrands carry a factor k^{3/2}, a branch point at k = 0 that no
polynomial resolves; uniform panels then converge only algebraically.  The
k rule (propagation._k_rule) maps the lower half of its first panel by
k = u^2, which turns k^{3/2} dk into the polynomial 2 u^4 du, and keeps
every other panel in k; it refines with :meth:`PanelRule.subdivide`, which
splits every panel, the u panel too, so two densities never share a panel
and their difference sees the first panel's error.

Both rule builders return a :class:`PanelRule`.  On one interval of
:func:`piecewise_gauss_panels` every panel has the same half-width h, so
each node is a panel centre plus one of GAUSS_ORDER fixed offsets h x_g,
and the centres step by 2h.  The rule declares each interval a run of
evenly spaced panels, and the j0 kernels use both to build sin(k rho) by
angle addition, with the centres' sin and cos by doubling.

Panel edges and :class:`EvenGrid` points are np.linspace's, bit for bit,
from its arithmetic without its Python-level call (:func:`even_points`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from lcdisc.errors import InvalidParameterError, ResourceLimitError

GAUSS_ORDER = 8
# the reference rule on [-1, 1], numpy.polynomial.legendre.leggauss(8) bit
# for bit (the tests pin it), written out so that importing lcdisc does not
# import numpy.polynomial; the nodes are antisymmetric to the bit
GAUSS_X = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362])
GAUSS_W = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706])
# most panels on one interval: a k rule this long makes each 256-row j0
# table block of a time sweep 256 x 8 x 2^16 doubles, 1 GiB
MAX_PANELS = 1 << 16


@dataclass(frozen=True)
class PanelRule:
    """A composite Gauss-Legendre rule together with its panel geometry.

    Panel p spans ``centres[p] +- half_widths[p]``; its GAUSS_ORDER nodes are
    ``centres[p] + half_widths[p] * GAUSS_X``, in panel order, and ``size``
    is the node count.

    The panels fall into runs, and ``run_starts`` holds the index of each
    run's first panel, 0 first.  The panels of a run share one half-width h
    and their centres step by 2h, from the run's first centre on.  Spacing
    is declared, never guessed from the centres: without ``run_starts``
    every panel is a run of its own.

    Nodes and weights are computed when first read, so a rule that is only
    subdivided, as the coarsest k rule is, computes neither.
    """

    centres: np.ndarray
    half_widths: np.ndarray
    run_starts: tuple[int, ...] | None = None

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return (self.centres[:, None] +
                self.half_widths[:, None] * GAUSS_X).ravel()

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return (self.half_widths[:, None] * GAUSS_W).ravel()

    @property
    def size(self) -> int:
        return self.centres.size * GAUSS_ORDER

    def runs(self) -> list[tuple[int, int]]:
        """(first, end) panel indices of each run, in panel order."""
        n = self.centres.size
        starts = (range(n) if self.run_starts is None
                  else self.run_starts)
        return list(zip(starts, [*starts[1:], n]))

    def panels(self, lo: int, hi: int) -> PanelRule:
        """Panels lo to hi - 1 as a rule of their own, runs cut at lo."""
        starts = None
        if self.run_starts is not None:
            starts = (0, *(s - lo for s in self.run_starts if lo < s < hi))
        return PanelRule(self.centres[lo:hi], self.half_widths[lo:hi],
                         starts)

    def subdivide(self, parts: int) -> PanelRule:
        """The rule with every panel split into ``parts`` equal panels; for
        one part, the rule itself.

        Raises :class:`ResourceLimitError` when the result would hold more
        than MAX_PANELS panels, before anything is allocated.
        """
        if parts == 1:
            # centres + half * 0 and half / 1 are the rule's own bits
            return self
        if self.centres.size * parts > MAX_PANELS:
            raise ResourceLimitError(
                f"splitting {self.centres.size} panels {parts} ways passes "
                f"the cap of {MAX_PANELS} panels")
        offsets = np.arange(1.0 - parts, parts, 2.0) / parts
        centres = self.centres[:, None] + self.half_widths[:, None] * offsets
        return PanelRule(centres.ravel(),
                         (self.half_widths / parts).repeat(parts))


@dataclass(frozen=True)
class EvenGrid:
    """Evenly spaced points ``nodes`` with their declared spacing ``step``:
    radii, times, or the centres of a run of panels.  The j0 sums, the j0
    tables and the phase coefficients take sin and cos on them by doubling
    from the first point and the step.  :meth:`linspace` and
    :meth:`between` build the np.linspace values bit for bit
    (:func:`even_points`)."""

    nodes: np.ndarray
    step: float

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The points, for NumPy callers that take them as an array."""
        return np.array(self.nodes, dtype=dtype, copy=copy)

    @property
    def size(self) -> int:
        return self.nodes.size

    @classmethod
    def linspace(cls, start: float, stop: float, size: int) -> EvenGrid:
        """The points ``np.linspace(start, stop, size)``, size >= 2."""
        return cls(*even_points(start, stop, size))

    @classmethod
    def between(cls, start: float, stop: float, size: int) -> EvenGrid:
        """The ``size`` points strictly inside [start, stop] that split it
        into size + 1 equal steps, ``np.linspace(start, stop, size + 2)``
        without its ends."""
        nodes, step = even_points(start, stop, size + 2)
        return cls(nodes[1:-1], step)


def even_points(start: float, stop: float,
                size: int) -> tuple[np.ndarray, float]:
    """``np.linspace(start, stop, size)`` bit for bit, size >= 2, and its
    step (stop - start) / (size - 1).

    Point i is i step + start, as np.linspace computes it, and the last
    point is ``stop`` itself.  np.linspace has a second branch for a step
    that underflows to 0 between distinct ends; such a range is rejected
    here instead, with :class:`InvalidParameterError`.
    """
    start, stop = float(start), float(stop)
    step = (stop - start) / (size - 1)
    if step == 0.0 and stop != start:
        raise InvalidParameterError(
            f"[{start:.6g}, {stop:.6g}] is too narrow for {size} evenly "
            "spaced points: the step underflows to 0")
    points = np.arange(float(size))
    points *= step
    points += start
    points[-1] = stop
    return points, step


def panel_width(frequency: float, panels_per_period: float) -> float:
    """Largest allowed panel width for a phase frequency (radians per unit).

    One period spans 2 pi of phase.  The frequency must be positive: the
    rules carry no length of their own, so a caller floors it at a scale of
    its integrand.  The period is split first, so a huge frequency cannot
    overflow a divisor.
    """
    return (2.0 * math.pi / panels_per_period) / frequency


def _panel_count(a: float, b: float, max_width: float) -> int:
    """Number of equal panels no wider than ``max_width`` that split [a, b];
    0 when the interval is empty.  Raises :class:`ResourceLimitError` when
    that number exceeds MAX_PANELS, before anything is allocated."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidParameterError("integration limits must be finite")
    if not max_width > 0.0:
        raise InvalidParameterError("panel width must be positive")
    if b <= a:
        return 0
    count = (b - a) / max_width
    # the count may overflow to inf, so the message names only the cap
    if not count <= MAX_PANELS:
        raise ResourceLimitError(
            f"[{a:.6g}, {b:.6g}] needs more than the cap of {MAX_PANELS} "
            f"panels of width {max_width:.3g}")
    return max(1, math.ceil(count))


def gauss_panels(a: float, b: float, max_width: float) -> PanelRule:
    """Composite Gauss-Legendre rule on [a, b].

    The interval is split into equal panels no wider than ``max_width``.
    An empty interval gets no panels.
    """
    n_panels = _panel_count(a, b, max_width)
    if n_panels == 0:
        return PanelRule(np.empty(0), np.empty(0))
    # never a step of 0: n_panels <= MAX_PANELS = 2^16 splits a normal
    # b - a into steps of at least 2^-1038, and a subnormal one into steps
    # of at least 2^-1074, since max_width >= 2^-1074 caps n_panels at the
    # count of 2^-1074 in b - a
    edges, _ = even_points(a, b, n_panels + 1)
    return PanelRule(0.5 * (edges[1:] + edges[:-1]),
                     0.5 * (edges[1:] - edges[:-1]))


def piecewise_gauss_panels(
    breakpoints: np.ndarray,
    max_width: float,
) -> PanelRule:
    """Composite rule over consecutive intervals given by ``breakpoints``.

    Panels never straddle a breakpoint, so integrands with kinks at the
    breakpoints are still smooth on every panel.  Each interval is split
    into equal panels no wider than ``max_width`` that share one
    half-width exactly, and is declared one run; empty intervals get no
    panels.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise InvalidParameterError("need at least two breakpoints")
    if np.logical_or.reduce(pts[1:] < pts[:-1]):
        raise InvalidParameterError("breakpoints must be sorted ascending")
    centres = [np.empty(0)]
    halves, counts = [], []
    run_starts = []
    total = 0
    for lo, hi in zip(pts[:-1].tolist(), pts[1:].tolist()):
        n_panels = _panel_count(lo, hi, max_width)
        if n_panels == 0:
            continue
        half = 0.5 * (hi - lo) / n_panels
        centres.append(lo + half * np.arange(1.0, 2.0 * n_panels, 2.0))
        halves.append(half)
        counts.append(n_panels)
        run_starts.append(total)
        total += n_panels
    return PanelRule(np.concatenate(centres),
                     np.array(halves).repeat(counts), tuple(run_starts))
