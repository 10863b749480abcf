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
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from lcdisc.errors import InvalidParameterError

GAUSS_ORDER = 8
# the reference rule on [-1, 1], built once: leggauss costs far more than
# mapping it onto panels
_GAUSS_X, _GAUSS_W = leggauss(GAUSS_ORDER)


def panel_width(frequency: float, panels_per_period: float) -> float:
    """Largest allowed panel width for a phase frequency (radians per unit).

    One period spans 2 pi of phase; frequencies below 1 count as 1.
    """
    return 2.0 * math.pi / (panels_per_period * max(frequency, 1.0))


def gauss_panels(
    a: float,
    b: float,
    max_width: float,
    grade: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b].

    The interval is split into equal panels no wider than ``max_width``.
    With ``grade`` > 0 the first panel [a, a + h] is further split at
    a + h / 2^j for j = 1..grade, for integrands with an algebraic branch
    point at ``a``.  Returns empty arrays when the interval is empty.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidParameterError("integration limits must be finite")
    if not max_width > 0.0:
        raise InvalidParameterError("panel width must be positive")
    if b <= a:
        return np.empty(0), np.empty(0)
    n_panels = max(1, math.ceil((b - a) / max_width))
    edges = np.linspace(a, b, n_panels + 1)
    if grade > 0:
        graded = a + (edges[1] - a) * np.ldexp(1.0, -np.arange(grade, 0, -1))
        edges = np.concatenate(([a], graded, edges[1:]))
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GAUSS_X[None, :]).ravel()
    weights = (half[:, None] * _GAUSS_W[None, :]).ravel()
    return nodes, weights


def piecewise_gauss_panels(
    breakpoints: np.ndarray,
    max_width: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule over consecutive intervals given by ``breakpoints``.

    Panels never straddle a breakpoint, so integrands with kinks at the
    breakpoints are still smooth on every panel.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise InvalidParameterError("need at least two breakpoints")
    if np.any(np.diff(pts) < 0.0):
        raise InvalidParameterError("breakpoints must be sorted ascending")
    nodes = []
    weights = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        x, w = gauss_panels(lo, hi, max_width)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)
