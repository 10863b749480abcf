"""NumPy kernels for j0-weighted sums, with j0(z) = sin(z)/z.

j0 takes the series 1 - z^2/6 below ``SMALL_Z``, which is where sin(z)/z
starts losing digits to cancellation and where z = 0 would divide by zero.
Every summation order is fixed, so results are deterministic.

:func:`weighted_j0_sum` takes arbitrary radii and fills the j0 table
directly, one np.sin per entry.  :func:`weighted_j0_gemm` takes the nodes of
a :class:`~lcdisc.quadrature.PanelRule`, as time sweeps do, and fills the
table by angle addition from the panel geometry (:func:`panel_j0_table`),
which needs far fewer np.sin calls.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from lcdisc.quadrature import GAUSS_ORDER, GAUSS_X, PanelRule

SMALL_Z = 1e-4
_CHUNK_ROWS = 128
# panels per table block: 256 rows of 8 Gauss nodes each
_GEMM_CHUNK_PANELS = 32


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
    """Direct j0 table, out[i, j] = j0(k[j] * r[i])."""
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


# backend_name, available_backends and _ACTIVE exist for e2ebench, which
# reports the backend and wraps _ACTIVE.j0_table to time the table fill
_ACTIVE = SimpleNamespace(j0_table=panel_j0_table)


def backend_name() -> str:
    return "numpy"


def available_backends() -> tuple[str, ...]:
    return ("numpy",)


def _as_vec(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _check_k(k: np.ndarray) -> np.ndarray:
    k = _as_vec(k)
    if k.size and (k[0] < 0.0 or np.any(np.diff(k) < 0.0)):
        raise ValueError("k nodes must be nonnegative and sorted ascending")
    return k


def weighted_j0_sum(r: np.ndarray, k: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Return out[i] = sum_j coeffs[j] * j0(k[j] * r[i]) as complex128.

    The real table multiplies the (len(k), 2) float64 view of the complex
    coefficients in one real BLAS product.  A real table times a complex
    vector is first cast to complex and runs many times slower.
    """
    r = _as_vec(r)
    k = _check_k(k)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != k.shape:
        raise ValueError("coeffs must have one entry per k node")
    stacked = np.ascontiguousarray(coeffs).view(np.float64).reshape(-1, 2)
    out = np.empty((r.shape[0], 2))
    for lo in range(0, r.shape[0], _CHUNK_ROWS):
        sl = slice(lo, min(lo + _CHUNK_ROWS, r.shape[0]))
        np.matmul(j0_table(r[sl], k), stacked, out=out[sl])
    return out.view(np.complex128).ravel()


def weighted_j0_gemm(r: PanelRule, k: np.ndarray,
                     coeffs: np.ndarray) -> np.ndarray:
    """Batched form: out[i, m] = sum_j coeffs[j, m] * j0(k[j] * r[i]).

    The radii r[i] are the nodes of the :class:`PanelRule` ``r``.  The j0
    table for a block of panels is built once and reused across all columns
    through one real BLAS product, which is what makes time sweeps cheap.
    A C-contiguous complex matrix viewed as float64 is the real matrix whose
    columns alternate real and imaginary parts, so the product with that
    view, viewed back as complex, is the complex result.
    """
    k = _check_k(k)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 2 or coeffs.shape[0] != k.shape[0]:
        raise ValueError("coeffs must have shape (len(k), n_columns)")
    stacked = np.ascontiguousarray(coeffs).view(np.float64)
    out = np.empty((r.size, stacked.shape[1]))
    row = 0
    for lo in range(0, r.centres.size, _GEMM_CHUNK_PANELS):
        hi = lo + _GEMM_CHUNK_PANELS
        block = PanelRule(r.centres[lo:hi], r.half_widths[lo:hi])
        np.matmul(_ACTIVE.j0_table(block, k), stacked,
                  out=out[row:row + block.size])
        row += block.size
    return out.view(np.complex128)
