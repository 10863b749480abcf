"""Graded composite Gauss-Legendre panels for the tests' dense references.

The library's k rule treats the k^{3/2} branch point at k = 0 by a change
of variables (propagation._k_rule).  The dense references resolve it the
other way, by halving the first panel toward the branch point, so a
reference shares no quadrature with the rule it checks.
"""

import math

import numpy as np

from lcdisc.quadrature import PanelRule


def graded_gauss_panels(a: float, b: float, max_width: float,
                        grade: int) -> PanelRule:
    """Equal panels no wider than ``max_width`` on [a, b], from
    np.linspace's edges, with the first panel [a, a + h] further split at
    a + h / 2^j for j = 1..grade."""
    n_panels = max(1, math.ceil((b - a) / max_width))
    edges = np.linspace(a, b, n_panels + 1)
    graded = a + (edges[1] - a) * np.ldexp(1.0, -np.arange(grade, 0, -1))
    edges = np.concatenate(([a], graded, edges[1:]))
    return PanelRule(0.5 * (edges[1:] + edges[:-1]),
                     0.5 * (edges[1:] - edges[:-1]))
