"""Pure NumPy implementation of the j0 kernels.

Matches the compiled backend's contract: j0(z) = sin(z)/z with the series
1 - z^2/6 below ``SMALL_Z``, which is where sin(z)/z starts losing digits
to cancellation and where z = 0 would divide by zero.

:func:`panel_j0_table` fills the table on the nodes of a
:class:`~lcdisc.quadrature.PanelRule` by angle addition.
"""

from __future__ import annotations

import numpy as np

from lcdisc.quadrature import GAUSS_ORDER, GAUSS_X, PanelRule

SMALL_Z = 1e-4
_CHUNK_ROWS = 128


def j0_block(z: np.ndarray) -> np.ndarray:
    """Evaluate j0 elementwise on an array of nonnegative arguments."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(z) / z
    small = z < SMALL_Z
    if np.any(small):
        zs = z[small]
        out[small] = 1.0 - zs * zs / 6.0
    return out


def j0_table(r: np.ndarray, k: np.ndarray) -> np.ndarray:
    return j0_block(np.multiply.outer(r, k))


def _sin_cos(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sin(k x) / k and cos(k x), stacked, on the len(x) x len(k) grid.

    sin(k x) / k is x j0(k |x|), which keeps its limit x as k goes to 0.
    """
    kx = np.multiply.outer(np.abs(x), k)
    out = np.empty((2,) + kx.shape)
    np.multiply(j0_block(kx), x[:, None], out=out[0])
    np.cos(kx, out=out[1])
    return out


def panel_j0_table(rule: PanelRule, k: np.ndarray) -> np.ndarray:
    """j0 table on the nodes of ``rule``, built by angle addition.

    Each node is rho = c + s, a panel centre c plus an offset s = h x_g that
    all panels of half-width h share, so

        sin(k rho) / k = (sin(k c) / k) cos(k s) + cos(k c) (sin(k s) / k),

    and dividing a row by its rho gives j0(k rho).  sin and cos run on the
    panels x k grid and, for each run of panels with one half-width, on the
    GAUSS_ORDER x k grid, not once per table entry.  Gauss nodes of a panel
    of positive width are never 0, so the table entries need no
    small-argument branch; only the sin(k x) / k factors on those small
    grids take one.
    """
    centre = _sin_cos(rule.centres, k)
    half = rule.half_widths
    out = np.empty((half.size, GAUSS_ORDER, k.size))
    starts = np.flatnonzero(np.diff(half, prepend=np.nan)).tolist()
    for lo, hi in zip(starts, [*starts[1:], half.size]):
        # [cos, sin / k] of the offsets, to pair with [sin / k, cos] of
        # the centres; one einsum sums both products without a temporary
        offset = _sin_cos(half[lo] * GAUSS_X, k)[::-1]
        np.einsum("apk,agk->pgk", centre[:, lo:hi], offset, out=out[lo:hi])
    table = out.reshape(rule.size, k.size)
    table /= rule.nodes[:, None]
    return table


def j0_sum(r: np.ndarray, k: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Return out[i] = sum_j coeffs[j] * j0(k[j] * r[i]).

    The real table multiplies the (len(k), 2) float64 view of the complex
    coefficients in one real BLAS product.  A real table times a complex
    vector is first cast to complex and runs many times slower.
    """
    stacked = np.ascontiguousarray(coeffs).view(np.float64).reshape(-1, 2)
    out = np.empty((r.shape[0], 2))
    for lo in range(0, r.shape[0], _CHUNK_ROWS):
        sl = slice(lo, min(lo + _CHUNK_ROWS, r.shape[0]))
        np.matmul(j0_table(r[sl], k), stacked, out=out[sl])
    return out.view(np.complex128).ravel()
