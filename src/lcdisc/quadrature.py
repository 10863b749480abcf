"""Composite Gauss-Legendre rules for oscillatory radial integrals.

The integrands here look like smooth envelopes times oscillations of a known
maximum frequency (k r, k t, or 2 k_max rho).  A fixed-order Gauss rule is
exact for polynomials up to degree 2n-1, so capping the panel width at a
fraction of the local oscillation period keeps every panel in the regime
where Gauss-Legendre converges spectrally.  How small a fraction is needed
is left to the caller, which raises the density until two neighbouring
densities agree.

The k integrands carry a factor k^{3/2}, a branch point at k = 0 that no
polynomial resolves; uniform panels then converge only algebraically.
Halving the first panel repeatedly toward the branch point (``grade``)
leaves every panel but the innermost, tiny one a full panel width away from
the singularity, which restores spectral convergence.

Both rule builders return a :class:`PanelRule`.  On one interval of
:func:`piecewise_gauss_panels` every panel has the same half-width h, so
each node is a panel centre plus one of GAUSS_ORDER fixed offsets h x_g.
The j0 kernels use that to build sin(k rho) by angle addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from lcdisc.errors import InvalidParameterError, ResourceLimitError

GAUSS_ORDER = 8
# the reference rule on [-1, 1], built once: leggauss costs far more than
# mapping it onto panels
GAUSS_X, GAUSS_W = leggauss(GAUSS_ORDER)
# most panels on one interval: a k rule this long makes each 256-row j0
# table block of a time sweep 256 x 8 x 2^16 doubles, 1 GiB
MAX_PANELS = 1 << 16


@dataclass(frozen=True)
class PanelRule:
    """A composite Gauss-Legendre rule together with its panel geometry.

    Panel p spans ``centres[p] +- half_widths[p]``; its GAUSS_ORDER nodes are
    ``centres[p] + half_widths[p] * GAUSS_X``, in panel order, and ``size``
    is the node count.
    """

    centres: np.ndarray
    half_widths: np.ndarray
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        half = self.half_widths[:, None]
        object.__setattr__(
            self, "nodes", (self.centres[:, None] + half * GAUSS_X).ravel())
        object.__setattr__(self, "weights", (half * GAUSS_W).ravel())

    @property
    def size(self) -> int:
        return self.nodes.size


def panel_width(frequency: float, panels_per_period: float) -> float:
    """Largest allowed panel width for a phase frequency (radians per unit).

    One period spans 2 pi of phase; frequencies below 1 count as 1.  The
    period is split first, so a huge frequency cannot overflow a divisor.
    """
    return (2.0 * math.pi / panels_per_period) / max(frequency, 1.0)


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
    if count > MAX_PANELS:
        raise ResourceLimitError(
            f"[{a:.6g}, {b:.6g}] needs {count:.3g} panels of width "
            f"{max_width:.3g}, more than the cap of {MAX_PANELS}")
    return max(1, math.ceil(count))


def gauss_panels(
    a: float,
    b: float,
    max_width: float,
    grade: int = 0,
) -> PanelRule:
    """Composite Gauss-Legendre rule on [a, b].

    The interval is split into equal panels no wider than ``max_width``.
    With ``grade`` > 0 the first panel [a, a + h] is further split at
    a + h / 2^j for j = 1..grade, for integrands with an algebraic branch
    point at ``a``.  An empty interval gets no panels.
    """
    n_panels = _panel_count(a, b, max_width)
    if n_panels == 0:
        return PanelRule(np.empty(0), np.empty(0))
    edges = np.linspace(a, b, n_panels + 1)
    if grade > 0:
        graded = a + (edges[1] - a) * np.ldexp(1.0, -np.arange(grade, 0, -1))
        edges = np.concatenate(([a], graded, edges[1:]))
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
    half-width exactly; empty intervals get no panels.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise InvalidParameterError("need at least two breakpoints")
    if np.any(np.diff(pts) < 0.0):
        raise InvalidParameterError("breakpoints must be sorted ascending")
    centres = [np.empty(0)]
    half_widths = [np.empty(0)]
    for lo, hi in zip(pts[:-1].tolist(), pts[1:].tolist()):
        n_panels = _panel_count(lo, hi, max_width)
        if n_panels == 0:
            continue
        half = 0.5 * (hi - lo) / n_panels
        centres.append(lo + half * np.arange(1.0, 2.0 * n_panels, 2.0))
        half_widths.append(np.full(n_panels, half))
    return PanelRule(np.concatenate(centres), np.concatenate(half_widths))
