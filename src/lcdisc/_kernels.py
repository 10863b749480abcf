"""NumPy kernels for j0-weighted sums, with j0(z) = sin(z)/z.

j0 takes the series 1 - z^2/6 below ``SMALL_Z``, which is where sin(z)/z
starts losing digits to cancellation and where z = 0 would divide by zero.
Every summation order is fixed, so results are deterministic.

Radii with structure use angle addition: each radius is a centre plus one
of a few offsets that many centres share, so sin and cos run on the
centres and on the offsets, not once per radius and k node.  The nodes of
a :class:`~lcdisc.quadrature.PanelRule` are panel centres plus h x_g, and
their j0 table is filled so (:func:`_angle_sum`, :func:`panel_j0_table`,
which :func:`weighted_j0_gemm` uses, as time sweeps do).  The radii of
an :class:`~lcdisc.quadrature.EvenGrid`, from any nonnegative start, are
block bases plus shared offsets, and :func:`weighted_j0_sum` builds no
table for them: angle addition splits each sum into one real product of a
per-base and a per-offset factor (:func:`_uniform_sum`).  Only arbitrary
radii, as users and the 3D oracle pass, fill the table directly, one
np.sin per entry.  A :class:`PanelTable` keeps a panel table, so repeated
gemms at the same k nodes only contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from lcdisc.quadrature import GAUSS_ORDER, GAUSS_X, EvenGrid, PanelRule

SMALL_Z = 1e-4
# rows per table block of weighted_j0_sum on arbitrary radii
_CHUNK_ROWS = 128
# an even grid's block of radii as (coarse, fine) offset steps, see
# _offset_terms; on 4097-radius sampler grids 16 x 8 summed faster than
# 8 x 8, 16 x 16 and 32 x 8, and within 3% of 8 x 16
_BLOCK_SHAPE = (16, 8)
_BLOCK_ROWS = _BLOCK_SHAPE[0] * _BLOCK_SHAPE[1]
# block bases per gemm of an even grid: a 4097-radius grid is one gemm,
# and larger grids keep their temporaries bounded
_CHUNK_BASES = 64
# panels per table block of weighted_j0_gemm: 256 rows of 8 Gauss nodes each
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


def _angle_sum(centre: np.ndarray, offset: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """sin(k (c + s)) / k on the centres x offsets x k grid, into ``out``.

    ``centre`` and ``offset`` are the :func:`_sin_cos` stacks of the
    centres c and of the offsets s, and by angle addition

        sin(k (c + s)) / k = (sin(k c) / k) cos(k s) + cos(k c) (sin(k s) / k).

    Dividing by c + s gives j0(k (c + s)).  One einsum sums both products
    without a temporary.
    """
    return np.einsum("apk,agk->pgk", centre, offset[::-1], out=out)


def panel_j0_table(rule: PanelRule, k: np.ndarray) -> np.ndarray:
    """j0 table on the nodes of ``rule``, built by angle addition.

    Each node is a panel centre plus an offset h x_g that all panels of
    half-width h share, so sin and cos run on the panels x k grid and, for
    each run of panels with one half-width, on the GAUSS_ORDER x k grid.
    Gauss nodes of a panel of positive width are never 0, so the table
    entries need no small-argument branch; only the sin(k x) / k factors on
    those small grids take one.
    """
    centre = _sin_cos(rule.centres, k)
    half = rule.half_widths
    out = np.empty((half.size, GAUSS_ORDER, k.size))
    starts = np.flatnonzero(np.diff(half, prepend=np.nan)).tolist()
    for lo, hi in zip(starts, [*starts[1:], half.size]):
        _angle_sum(centre[:, lo:hi], _sin_cos(half[lo] * GAUSS_X, k),
                   out=out[lo:hi])
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


def _offset_terms(step: float, k: np.ndarray) -> np.ndarray:
    """The right factor of an even grid's product, shape
    (2 len(k), _BLOCK_ROWS): cos(k s) over sin(k s) / k, one column per
    offset s = step * arange(_BLOCK_ROWS) of a block.

    With (coarse, fine) = _BLOCK_SHAPE, offset fine * i + j steps is a
    coarse offset u = fine * i steps plus a fine one v = j steps, so sin
    and cos run on the coarse + fine offsets only, and by angle addition,
    with S(x) = sin(k x) / k and C(x) = cos(k x),

        S(u + v) = S(u) C(v) + C(u) S(v),
        C(u + v) = C(u) C(v) - k^2 S(u) S(v).
    """
    coarse, fine = _BLOCK_SHAPE
    u = _sin_cos(np.arange(coarse) * (fine * step), k)
    v = _sin_cos(np.arange(fine) * step, k)
    out = np.empty((coarse, fine, 2, k.size))
    _angle_sum(u, v, out=out[:, :, 1])
    u[0] *= -k * k  # [-k^2 S(u), C(u)] against [S(v), C(v)]
    np.einsum("apk,agk->pgk", u, v, out=out[:, :, 0])
    return out.reshape(_BLOCK_ROWS, 2 * k.size).T


def _uniform_sum(grid: EvenGrid, k: np.ndarray,
                 coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] sin(k[j] r) / k[j] at the radii r of ``grid``.

    Each radius is a block base b, the first node plus a whole number of
    blocks, plus one of the block offsets s, and

        sin(k (b + s)) / k = (sin(k b) / k) cos(k s) + cos(k b) (sin(k s) / k),

    so the sums of a block are one real product: a row [sin(k b) / k |
    cos(k b)] times the coefficients' real parts and one times their
    imaginary parts, against :func:`_offset_terms`.  One product covers
    _CHUNK_BASES bases, and no j0 table is built.
    """
    n_bases = -(-grid.size // _BLOCK_ROWS)
    right = _offset_terms(grid.step, k)
    parts = np.stack([coeffs.real, coeffs.imag])[:, None, :]
    out = np.empty((n_bases, _BLOCK_ROWS, 2))
    start, stride = grid.nodes[0], _BLOCK_ROWS * grid.step
    for lo in range(0, n_bases, _CHUNK_BASES):
        bases = np.arange(lo, min(lo + _CHUNK_BASES, n_bases))
        centre = _sin_cos(start + bases * stride, k)
        # C order, so the reshape below is a view, not a copy
        left = np.empty((bases.size, 2, 2, k.size))
        np.multiply(centre.transpose(1, 0, 2)[:, None], parts, out=left)
        prod = left.reshape(2 * bases.size, 2 * k.size) @ right
        # rows (base, re/im) x offset columns to radius-major complex
        out[lo:lo + bases.size] = \
            prod.reshape(bases.size, 2, _BLOCK_ROWS).transpose(0, 2, 1)
    return out.view(np.complex128).reshape(-1)[:grid.size]


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


def weighted_j0_sum(r: np.ndarray | EvenGrid, k: np.ndarray,
                    coeffs: np.ndarray) -> np.ndarray:
    """Return out[i] = sum_j coeffs[j] * j0(k[j] * r[i]) as complex128.

    For the nonnegative radii of an :class:`~lcdisc.quadrature.EvenGrid`
    ``r`` the sums come from real products by angle addition, with no j0
    table (:func:`_uniform_sum`).  For an array of radii the j0 table is
    filled directly and contracted one block of _CHUNK_ROWS rows at a time.
    """
    k = _check_k(k)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != k.shape:
        raise ValueError("coeffs must have one entry per k node")
    if isinstance(r, EvenGrid):
        # sums of sin(k r) / k = r j0(k r): each, but one at r = 0, is
        # divided by its r once; at r = 0 every j0 is 1
        out = _uniform_sum(r, k, coeffs)
        at_0 = r.nodes == 0.0
        np.divide(out, r.nodes, out=out, where=~at_0)
        out[at_0] = coeffs.sum()
        return out
    r = _as_vec(r)
    tables = (j0_table(r[lo:lo + _CHUNK_ROWS], k)
              for lo in range(0, r.size, _CHUNK_ROWS))
    return _contract(tables, r.size, coeffs[:, None]).ravel()


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
