"""Pure NumPy implementation of the j0 kernels.

Matches the compiled backend's contract: j0(z) = sin(z)/z with the series
1 - z^2/6 below ``SMALL_Z``, which is where sin(z)/z starts losing digits
to cancellation and where z = 0 would divide by zero.
"""

from __future__ import annotations

import numpy as np

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
