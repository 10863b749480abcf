"""NumPy kernels for j0-weighted sums, with j0(z) = sin(z)/z.

Every path sums or tabulates sin(k x) / k, whose limit at k = 0 is x, and
divides by x once, where the one small-argument rule sits
(:func:`_over_nodes`).  Every summation order is fixed, so results are
deterministic.

np.sin and np.cos run on few rows.  On an evenly spaced axis whose step is
declared, the rows at x_j = first + j step come by doubling
(:func:`fill_by_doubling`): row j is the first row times the step's row
to the j, and each pass multiplies the rows filled so far by the step's
row to the 2^p, so sin and cos run on two rows, not one per point.  Angle
addition then combines such axes: each radius is a point of one axis plus
one of a few offsets that many points share.

- The radii of an :class:`~lcdisc.quadrature.EvenGrid`, from any
  nonnegative start, are block bases plus shared offsets, and
  :func:`weighted_j0_sum` builds no table for them: angle addition splits
  each sum into one real product of a per-base and a per-offset factor
  (:func:`_base_offset_sum`); the bases' factor is filled by doubling, the
  offsets' too.
- The nodes of a :class:`~lcdisc.quadrature.PanelRule` are panel centres
  plus h x_g, and the panels of each declared run step by 2h.  So a run is
  such a product too, with its panels' lower edges, by doubling, as bases
  and the GAUSS_ORDER distances h + h x_g of the nodes from them as
  offsets, whose cos and sin come from the positive half of GAUSS_X and
  from h.  :func:`weighted_j0_gemm` builds no table for one column of
  coefficients, as a p_t at one time has.  For many columns, as time
  sweeps have, it fills the j0 table of a block of panels
  (:func:`panel_j0_table`) by angle addition on the centres and contracts
  every column with it.
- A time sweep's phase coefficients exp(-i k t) come by the same doubling
  (``propagation._phase_coeffs``).

Only a panel rule's many-column contractions fill tables, and arbitrary
radii, as users and the 3D oracle pass, whose sin(k r) / k table takes one
np.sin per entry.  A :class:`PanelTable` keeps a panel table, so repeated
gemms at the same k nodes only contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

from lcdisc.quadrature import GAUSS_ORDER, GAUSS_X, EvenGrid, PanelRule

# below this k |x|, sin(k x) / k = x (1 - (k x)^2 / 6 + ...) is x, and
# j0(k x) is 1, to within eps / 4
_SIN_LIMIT_KX = 1e-8
# rows per table block of weighted_j0_sum on arbitrary radii
_CHUNK_ROWS = 128
# radii per block of an even grid: the offsets' factor has this many columns
_BLOCK_ROWS = 128
# block bases per gemm of an even grid: a 4097-radius grid is one gemm,
# and larger grids keep their temporaries bounded
_CHUNK_BASES = 64
# panels per table block of weighted_j0_gemm: 256 rows of 8 Gauss nodes each
_GEMM_CHUNK_PANELS = 32
# GAUSS_X[_MIRROR:] are the positive Gauss nodes, GAUSS_X[:_MIRROR] their
# negatives in reverse order, to the bit (GAUSS_ORDER is even)
_MIRROR = GAUSS_ORDER // 2


def fill_by_doubling(rows: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Fill rows[j] = rows[0] step^j for 0 < j < len(rows), in place.

    ``rows[0]`` is given.  Each pass multiplies the rows filled so far by
    step^(2^p) into the next ones, then squares the step, so len(rows)
    rows take ceil(log2(len(rows))) passes of one NumPy product each.  For
    unit complex rows the squares carry |step|'s rounding along: row j can
    be off by about j eps / 2 more than a direct evaluation at its point.
    """
    filled = 1
    while filled < len(rows):
        m = min(filled, len(rows) - filled)
        np.multiply(rows[:m], step, out=rows[filled:filled + m])
        filled += m
        if filled < len(rows):
            step = step * step
    return rows


def exp_ikx(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """exp(i k x), one row per x and one column per k.

    cos(k x) and sin(k x) fill the real and imaginary parts: real np.cos
    and np.sin cost less than a complex np.exp, and give its bits.
    """
    kx = np.multiply.outer(x, k)
    out = np.empty(kx.shape, dtype=np.complex128)
    np.cos(kx, out=out.real)
    np.sin(kx, out=out.imag)
    return out


def _sin_over_k(sines: np.ndarray, x: np.ndarray, x_max: float,
                k: np.ndarray) -> np.ndarray:
    """Turn rows sin(k x) into sin(k x) / k, in place, for the points x,
    whose largest |x| is ``x_max``, and k sorted ascending.

    Where k x_max < _SIN_LIMIT_KX, k = 0 among them, sin(k x) / k is its
    limit x to within eps / 4 on every row, and takes it: dividing there
    would be 0/0, or lose digits to a subnormal sin(k x).
    """
    # at x_max = 0 or subnormal, the quotient is inf: every k is below
    n_limit = int(k.searchsorted(
        _SIN_LIMIT_KX / float(x_max) if x_max > 0.0 else math.inf))
    np.divide(sines[:, n_limit:], k[n_limit:], out=sines[:, n_limit:])
    sines[:, :n_limit] = x[:, None]
    return sines


def cos_sin_rows(axis: EvenGrid, k: np.ndarray) -> np.ndarray:
    """cos(k x) and sin(k x) / k at the points x of ``axis``, as the real
    and imaginary parts of an (axis.size, len(k)) complex array, so each
    row viewed as float64 alternates the two.

    The rows exp(i k x_j) = exp(i k x_0) w^j, w = exp(i k step), are filled
    by doubling (:func:`fill_by_doubling`) from two rows of np.cos and
    np.sin, at the first point and at the axis's declared step; then each
    imaginary part is divided by its k.  At k = 0, and wherever k |x| is
    below _SIN_LIMIT_KX, the rows hold the axis's own points, to the bit.
    """
    x = axis.nodes
    # a single point needs no step row
    ends = exp_ikx(np.array([x[0], axis.step][:x.size]), k)
    rows = np.empty((x.size, k.size), dtype=np.complex128)
    rows[0] = ends[0]
    fill_by_doubling(rows, ends[-1])
    _sin_over_k(rows.imag, x, max(abs(x[0]), abs(x[-1])), k)
    return rows


def _gauss_offsets(half: float, k: np.ndarray) -> np.ndarray:
    """cos(k s) + i sin(k s) / k at the offsets s = half * GAUSS_X of a
    panel's nodes from its centre.  np.cos and np.sin run on the positive
    half of GAUSS_X only: cos is even and sin odd, so the other half is the
    mirror, the real parts kept and the imaginary ones negated.  GAUSS_X is
    antisymmetric to the bit, so at k = 0 the mirrored rows still hold the
    offsets themselves."""
    s = half * GAUSS_X[_MIRROR:]
    upper = exp_ikx(s, k)
    _sin_over_k(upper.imag, s, s[-1], k)
    return np.concatenate((np.conj(upper[::-1]), upper))


def _angle_sum(centre: np.ndarray, offset: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """sin(k (c + s)) / k on the centres x offsets x k grid, into ``out``.

    ``centre`` and ``offset`` hold cos(k x) + i sin(k x) / k of the centres
    c and of the offsets s, and by angle addition

        sin(k (c + s)) / k = cos(k c) (sin(k s) / k) + (sin(k c) / k) cos(k s).

    Dividing by c + s gives j0(k (c + s)).  The first product goes
    straight into ``out`` and the second is added to it, the bits that
    np.einsum's sum of the two gives.
    """
    np.multiply(centre.real[:, None], offset.imag, out=out)
    out += centre.imag[:, None] * offset.real
    return out


def _edge_offsets(half: float, k: np.ndarray) -> np.ndarray:
    """cos(k s) + i sin(k s) / k at the offsets s = half + half * GAUSS_X
    of a panel's nodes from its lower edge, all in (0, 2 half).

    With h = half and u the positive half of half * GAUSS_X, the offsets
    are h - u, mirrored into GAUSS_X order, and h + u, and by angle
    addition

        cos(k (h +- u)) = cos(kh) cos(ku) -+ k^2 (sin(kh) / k) (sin(ku) / k),
        sin(k (h +- u)) / k = (sin(kh) / k) cos(ku) +- cos(kh) (sin(ku) / k),

    so np.cos and np.sin run on the four u and on h only, and each product
    serves two offsets.
    """
    x = np.empty(_MIRROR + 1)
    np.multiply(half, GAUSS_X[_MIRROR:], out=x[:-1])
    x[-1] = half
    rows = exp_ikx(x, k)
    _sin_over_k(rows.imag, x, half, k)
    u, h = rows[:-1], rows[-1:]
    cos_cos = h.real * u.real
    sin_sin = (k * k * h.imag) * u.imag
    sin_cos = h.imag * u.real
    cos_sin = h.real * u.imag
    out = np.empty((GAUSS_ORDER, k.size), dtype=np.complex128)
    lower, upper = out[_MIRROR - 1::-1], out[_MIRROR:]
    np.add(cos_cos, sin_sin, out=lower.real)
    np.subtract(sin_cos, cos_sin, out=lower.imag)
    np.subtract(cos_cos, sin_sin, out=upper.real)
    np.add(sin_cos, cos_sin, out=upper.imag)
    return out


def _runs(rule: PanelRule, k: np.ndarray,
          offsets: Callable[[float, np.ndarray], np.ndarray]
          ) -> Iterator[tuple[int, int, float, np.ndarray]]:
    """(first, end, h, offsets(h, k)) for each run of ``rule``: its panel
    indices, its half-width h and its offsets' terms, made once per
    half-width in a row."""
    half = rule.half_widths
    offset_half = offset = None
    for lo, hi in rule.runs():
        h = half[lo]
        if h != offset_half:
            offset_half, offset = h, offsets(h, k)
        yield lo, hi, h, offset


def panel_j0_table(rule: PanelRule, k: np.ndarray) -> np.ndarray:
    """j0 table on the nodes of ``rule``, built by angle addition.

    Each node is a panel centre plus an offset h x_g that all panels of
    half-width h share.  The centres of each run of the rule (see
    :class:`~lcdisc.quadrature.PanelRule`) are an even axis from the run's
    first centre with step 2h, whose cos and sin come by doubling
    (:func:`cos_sin_rows`); the offsets' come from :func:`_gauss_offsets`,
    once per half-width in a row.  Each entry is sin(k x) / k over its
    node x, with no small-argument branch: at k = 0 it is its node over
    itself, 1.  Each row is divided by its node (:func:`_over_nodes`).
    """
    out = np.empty((rule.centres.size, GAUSS_ORDER, k.size))
    for lo, hi, h, offset in _runs(rule, k, _gauss_offsets):
        centres = cos_sin_rows(EvenGrid(rule.centres[lo:hi], 2.0 * h), k)
        _angle_sum(centres, offset, out=out[lo:hi])
    return _over_nodes(out.reshape(rule.size, k.size), rule.nodes, k, 1.0)


# backend_name, available_backends and _ACTIVE exist for e2ebench, which
# reports the backend and wraps _ACTIVE.j0_table to time the table fill
_ACTIVE = SimpleNamespace(j0_table=panel_j0_table)


def backend_name() -> str:
    return "numpy"


def available_backends() -> tuple[str, ...]:
    return ("numpy",)


def _base_offset_sum(bases: EvenGrid, offsets: np.ndarray, k: np.ndarray,
                     coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] sin(k[j] (b + s)) / k[j] for every base b of
    ``bases`` and every offset s, shape (bases.size, len(offsets)).

    ``offsets`` holds cos(k s) + i sin(k s) / k, one row per offset, and

        sin(k (b + s)) / k = (sin(k b) / k) cos(k s) + cos(k b) (sin(k s) / k),

    so the sums of _CHUNK_BASES bases are one real product: per base, a row
    alternating sin(k b) / k and cos(k b) times the coefficients' real parts
    and one times their imaginary parts, against the offsets viewed as
    float64, whose columns alternate cos(k s) and sin(k s) / k.  The bases'
    cos and sin come by doubling (:func:`cos_sin_rows`), and no j0 table is
    built.
    """
    right = offsets.view(np.float64).T
    out = np.empty((bases.size, len(offsets), 2))
    for lo in range(0, bases.size, _CHUNK_BASES):
        rows = cos_sin_rows(
            EvenGrid(bases.nodes[lo:lo + _CHUNK_BASES], bases.step), k)
        n = rows.shape[0]
        # each term times each coefficient part, written straight into its
        # strided place in the left factor
        left = np.empty((n, 2, 2 * k.size))
        for part, c in enumerate((coeffs.real, coeffs.imag)):
            np.multiply(rows.imag, c, out=left[:, part, 0::2])
            np.multiply(rows.real, c, out=left[:, part, 1::2])
        prod = left.reshape(2 * n, 2 * k.size) @ right
        # rows (base, re/im) x offset columns to base-major complex
        out[lo:lo + n] = prod.reshape(n, 2, -1).transpose(0, 2, 1)
    return out.view(np.complex128)[..., 0]


def _uniform_sum(grid: EvenGrid, k: np.ndarray,
                 coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] sin(k[j] r) / k[j] at the radii r of ``grid``.

    Each radius is a block base, the first node plus a whole number of
    blocks of _BLOCK_ROWS radii, plus one of the block offsets
    s = step * j, j < _BLOCK_ROWS, that every block shares
    (:func:`_base_offset_sum`); the offsets' cos and sin come by doubling
    too.
    """
    step = grid.step
    offsets = EvenGrid(step * np.arange(float(_BLOCK_ROWS)), step)
    n_bases = -(-grid.size // _BLOCK_ROWS)
    stride = _BLOCK_ROWS * step
    bases = EvenGrid(grid.nodes[0] + np.arange(n_bases) * stride, stride)
    sums = _base_offset_sum(bases, cos_sin_rows(offsets, k), k, coeffs)
    return sums.reshape(-1)[:grid.size]


def _over_nodes(sums: np.ndarray, x: np.ndarray, k: np.ndarray,
                at_small: complex) -> np.ndarray:
    """Turn the sums, or the table rows, of sin(k x) / k at the points
    x >= 0 into those of j0(k x), in place: each is divided by its x once.

    This is the kernels' one small-argument rule.  Where k_max x <
    _SIN_LIMIT_KX, every j0(k x) is 1 to within eps / 4, so the row is
    ``at_small``, the coefficients' sum for a sum and 1 for a table row,
    and its x, 0 or subnormal among them, is never divided by.
    """
    small = x * (k[-1] if k.size else 0.0) < _SIN_LIMIT_KX
    # the transpose puts the rows last, so x runs along them for sums and
    # tables alike; the division is unmasked, which is faster on a table
    np.divide(sums.T, np.where(small, 1.0, x), out=sums.T)
    sums[small] = at_small
    return sums


def _as_vec(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _check_k(k: np.ndarray) -> np.ndarray:
    k = _as_vec(k)
    if k.size and (k[0] < 0.0 or np.logical_or.reduce(k[1:] < k[:-1])):
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


def _radius_blocks(r: np.ndarray, k: np.ndarray) -> Iterator[np.ndarray]:
    """sin(k r) / k tables of consecutive blocks of _CHUNK_ROWS radii, one
    np.sin per entry, each filled when it is asked for."""
    for lo in range(0, r.size, _CHUNK_ROWS):
        x = r[lo:lo + _CHUNK_ROWS]
        table = np.multiply.outer(x, k)
        yield _sin_over_k(np.sin(table, out=table), x, x.max(), k)


def weighted_j0_sum(r: np.ndarray | EvenGrid, k: np.ndarray,
                    coeffs: np.ndarray) -> np.ndarray:
    """Return out[i] = sum_j coeffs[j] * j0(k[j] * r[i]) as complex128.

    For the nonnegative radii of an :class:`~lcdisc.quadrature.EvenGrid`
    ``r`` the sums come from real products by angle addition, with no
    table (:func:`_uniform_sum`); for an array of them, from the tables of
    :func:`_radius_blocks`.  Each sum is divided by its r once.
    """
    k = _check_k(k)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != k.shape:
        raise ValueError("coeffs must have one entry per k node")
    if isinstance(r, EvenGrid):
        sums, r = _uniform_sum(r, k, coeffs), r.nodes
    else:
        r = _as_vec(r)
        sums = _contract(_radius_blocks(r, k), r.size, coeffs[:, None])[:, 0]
    return _over_nodes(sums, r, k, np.add.reduce(coeffs))


def _panel_sums(rule: PanelRule, k: np.ndarray,
                coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] j0(k[j] x) at the nodes x of ``rule``, with no j0
    table: the lower edges of each run's panels, an even axis of step 2h,
    are the bases of :func:`_base_offset_sum` and the nodes' distances from
    them (:func:`_edge_offsets`) its offsets.

    Bases and offsets are never negative, so where k x is small the two
    products that make sin(k x) / k add up and do not cancel.  From the
    panel centres they would cancel from near h to the nodes near 0.04 h
    of a panel from x = 0, and there lost up to 1.4e-14 of sum |coeffs|.
    """
    out = np.empty((rule.centres.size, GAUSS_ORDER), dtype=np.complex128)
    for lo, hi, h, offset in _runs(rule, k, _edge_offsets):
        edges = EvenGrid(rule.centres[lo:hi] - h, 2.0 * h)
        out[lo:hi] = _base_offset_sum(edges, offset, k, coeffs)
    return _over_nodes(out.reshape(-1), rule.nodes, k, np.add.reduce(coeffs))


def _panel_blocks(rule: PanelRule, k: np.ndarray) -> Iterator[np.ndarray]:
    """j0 tables of consecutive blocks of _GEMM_CHUNK_PANELS panels, each
    filled when it is asked for."""
    step = _GEMM_CHUNK_PANELS
    for lo in range(0, rule.centres.size, step):
        # _ACTIVE.j0_table is looked up per block, where e2ebench wraps it
        yield _ACTIVE.j0_table(rule.panels(lo, lo + step), k)


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
    its blocks.  A PanelRule with one column fills no table: each run's sums
    come from one real product by angle addition (:func:`_panel_sums`), and
    differ from the table's by rounding only.
    """
    k = _check_k(k)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 2 or coeffs.shape[0] != k.shape[0]:
        raise ValueError("coeffs must have shape (len(k), n_columns)")
    if isinstance(r, PanelTable):
        tables = iter(r.blocks)
    elif coeffs.shape[1] == 1:
        # a table that serves one column costs more to fill than it saves
        return _panel_sums(r, k, coeffs[:, 0])[:, None]
    else:
        tables = _panel_blocks(r, k)
    return _contract(tables, r.size, coeffs)
