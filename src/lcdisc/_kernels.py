"""NumPy kernels for j0-weighted sums, with j0(z) = sin(z)/z.

j0 takes the series 1 - z^2/6 below ``SMALL_Z``, which is where sin(z)/z
starts losing digits to cancellation and where z = 0 would divide by zero.
Every summation order is fixed, so results are deterministic.

:func:`weighted_j0_sum` takes arbitrary radii and fills the j0 table
directly, one np.sin per entry.  :func:`weighted_j0_gemm` takes the nodes of
a :class:`~lcdisc.quadrature.PanelRule`, as time sweeps do, and fills the
table by angle addition from the panel geometry (:func:`panel_j0_table`),
which needs far fewer np.sin calls.  A :class:`PanelTable` keeps such a
table, so repeated gemms at the same k nodes only contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator

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


def _contract(tables: Iterator[np.ndarray], n_rows: int,
              coeffs: np.ndarray) -> np.ndarray:
    """``table @ coeffs`` for the j0 tables of consecutive row blocks,
    stacked into ``n_rows`` rows of complex128.

    A C-contiguous complex matrix viewed as float64 is the real matrix whose
    columns alternate real and imaginary parts, so one real BLAS product of
    a j0 table with that view, viewed back as complex, is the complex
    result.  A real table times a complex matrix is first cast to complex
    and runs many times slower.
    """
    stacked = np.ascontiguousarray(coeffs).view(np.float64)
    out = np.empty((n_rows, stacked.shape[1]))
    row = 0
    for table in tables:
        np.matmul(table, stacked, out=out[row:row + table.shape[0]])
        row += table.shape[0]
        del table  # a streamed block is freed before the next is filled
    return out.view(np.complex128)


def weighted_j0_sum(r: np.ndarray, k: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Return out[i] = sum_j coeffs[j] * j0(k[j] * r[i]) as complex128.

    The j0 table is filled directly, one block of rows at a time.
    """
    r = _as_vec(r)
    k = _check_k(k)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != k.shape:
        raise ValueError("coeffs must have one entry per k node")
    tables = (j0_table(r[lo:lo + _CHUNK_ROWS], k)
              for lo in range(0, r.shape[0], _CHUNK_ROWS))
    return _contract(tables, r.shape[0], coeffs[:, None]).ravel()


def _panel_blocks(rule: PanelRule, k: np.ndarray) -> Iterator[np.ndarray]:
    """j0 tables of consecutive blocks of _GEMM_CHUNK_PANELS panels, each
    filled when it is asked for."""
    step = _GEMM_CHUNK_PANELS
    for lo in range(0, rule.centres.size, step):
        block = PanelRule(rule.centres[lo:lo + step],
                          rule.half_widths[lo:lo + step])
        # _ACTIVE.j0_table is looked up per block, where e2ebench wraps it
        yield _ACTIVE.j0_table(block, k)


@dataclass(frozen=True)
class PanelTable:
    """The j0 table of a :class:`PanelRule`'s nodes at fixed k nodes, kept
    as the blocks of _GEMM_CHUNK_PANELS panels that :func:`weighted_j0_gemm`
    would otherwise fill and drop on every call."""

    blocks: tuple[np.ndarray, ...]

    @classmethod
    def fill(cls, rule: PanelRule, k: np.ndarray) -> "PanelTable":
        return cls(tuple(_panel_blocks(rule, _check_k(k))))

    @property
    def size(self) -> int:
        """Row count, the rule's node count."""
        return sum(block.shape[0] for block in self.blocks)


def weighted_j0_gemm(r: PanelRule | PanelTable, k: np.ndarray,
                     coeffs: np.ndarray) -> np.ndarray:
    """Batched form: out[i, m] = sum_j coeffs[j, m] * j0(k[j] * r[i]).

    The radii r[i] are the nodes of the :class:`PanelRule` ``r``.  The j0
    table for a block of panels is built once and reused across all columns
    through one real BLAS product, which is what makes time sweeps cheap.
    A PanelRule's blocks are filled one at a time and each dropped after its
    product; a :class:`PanelTable` ``r``, filled at the nodes ``k``, brings
    its blocks.
    """
    k = _check_k(k)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 2 or coeffs.shape[0] != k.shape[0]:
        raise ValueError("coeffs must have shape (len(k), n_columns)")
    tables = (iter(r.blocks) if isinstance(r, PanelTable)
              else _panel_blocks(r, k))
    return _contract(tables, r.size, coeffs)
