"""CSV rows built as bytes in NumPy, byte for byte what ``%.12g`` and ``%d``
write.

Each field of a row owns a fixed range of bytes in every row of a (rows,
width) buffer (:class:`RowBuffer`); the bytes a row does not use stay zero,
and dropping every zero byte leaves the ASCII rows, which are written as
bytes, never decoded.  Digits come four at a time from a table of
0000..9999, so a field costs a few array operations per group of four
digits, not a string conversion per value.  Rows are built a slice of at
most ``SLICE_ROWS`` at a time, and each slice goes to the writer as soon
as it is built, so the temporaries are bounded and no CSV is held whole.

A float (:class:`FloatCells`) takes this path only where its 12-digit
rounding is provable; every other value, NaN and the infinities among
them, goes through :func:`fmt` itself.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

SLICE_ROWS = 16384
_GROUP = 10000
_TRAILING = _GROUP
_P_MIN = 297
# the longest text fmt writes, "-2.22507385851e-308"
_FMT_WIDTH = 19


class _Tables(NamedTuple):
    """The builder's lookup tables.

    ``digit_groups[g]`` holds the four ASCII digits of g in 0000..9999, and
    ``digit_groups[_TRAILING + g]`` the same with its trailing zeros as zero
    bytes.  ``pow10[p + _P_MIN]`` is 10**p for p in [-_P_MIN, 308], correctly
    rounded as Python parses it, so exact for 0 <= p <= 22.
    ``exponents[e + _P_MIN]`` is the suffix %g prints for a value of decimal
    exponent e: "e", the sign and two or three digits; none in [-4, 11],
    where %.12g writes fixed notation.
    """

    digit_groups: np.ndarray
    pow10: np.ndarray
    exponents: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The tables, built on first use: a process that writes no CSV does
    not pay for them."""
    # uint16 arithmetic keeps the temporaries small
    group = np.arange(_GROUP, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (group // place % 10).astype(np.uint8) + ord("0")
    digit_groups = np.concatenate(
        [digits, digits * (group % (10 * place) != 0)]).view("V4").ravel()
    pow10 = np.array([float(f"1e{p}") for p in range(-_P_MIN, 309)])
    exponent = np.arange(-_P_MIN, 309)
    size = abs(exponent)
    exponents = np.empty((exponent.size, 5), dtype=np.uint8)
    exponents[:, 0] = ord("e")
    exponents[:, 1] = np.where(exponent < 0, ord("-"), ord("+"))
    exponents[:, 2] = np.where(size >= 100, size // 100 + ord("0"), 0)
    exponents[:, 3] = size // 10 % 10 + ord("0")
    exponents[:, 4] = size % 10 + ord("0")
    exponents[(exponent >= -4) & (exponent <= 11)] = 0
    return _Tables(digit_groups, pow10, exponents.view("V5").ravel())


def fmt(x: float) -> str:
    """Render a float with 12 significant digits."""
    return format(float(x), ".12g")


def byte_table(texts: Iterable[str]) -> np.ndarray:
    """The texts as one zero-padded ``V<width>`` item each."""
    table = np.array(list(texts), dtype=bytes)
    return table.view(f"V{table.itemsize}")


class RowBuffer:
    """``n`` rows of ``width`` bytes, zero until a field is written."""

    def __init__(self, n: int, width: int):
        self._buffer = bytearray(n * width)
        self.bytes = np.frombuffer(self._buffer, dtype=np.uint8).reshape(
            n, width)

    def field(self, offset: int, width: int) -> np.ndarray:
        """Bytes ``offset .. offset + width - 1`` of every row, as one
        ``V<width>`` item per row."""
        return np.ndarray((self.bytes.shape[0],), dtype=f"V{width}",
                          buffer=self.bytes, offset=offset,
                          strides=(self.bytes.shape[1],))

    def data(self) -> bytearray:
        """The rows with every zero byte dropped."""
        return self._buffer.translate(None, b"\0")


def _write_digits(value: np.ndarray, rows: RowBuffer, offset: int,
                  groups: int, trailing: bool = False) -> None:
    """The low ``4 groups`` decimal digits of ``value`` (int64, >= 0), most
    significant first, at ``offset``; with ``trailing``, the zeros after the
    last nonzero digit are zero bytes.  ``value`` is overwritten."""
    digit_groups = _tables().digit_groups
    quotient = np.empty(value.shape, dtype=value.dtype)
    group = np.empty(value.shape, dtype=value.dtype)
    if trailing:
        # the table offset of each value's next group: _TRAILING while every
        # group below it is zero
        shift = np.empty(value.size, dtype=np.intp)
        shift.fill(_TRAILING)
    for k in range(groups):
        np.floor_divide(value, _GROUP, out=quotient)
        np.multiply(quotient, _GROUP, out=group)
        np.subtract(value, group, out=group)
        if trailing:
            zero = group == 0
            group += shift
            shift *= zero
        digit_groups.take(group,
                          out=rows.field(offset + 4 * (groups - 1 - k), 4))
        value, quotient = quotient, value


class FloatCells:
    """``fmt(x)`` of every value of ``x``, byte for byte.

    With e = floor(log10|x|), N = rint(|x| 10^(11-e)) holds the 12
    significant digits.  The two roundings of |x| 10^(11-e) put it within
    2.3e-4 of the exact product, so N is the correctly rounded one when
    that product is more than 1e-3 from a half-integer and 1e11 <= N <
    1e12.  A value in fixed notation (-4 <= e <= 11) is laid out by decimal
    place: sign, integer digits, point and fraction digits, each at the
    same bytes in every row.  One in exponent notation is its mantissa,
    laid out the same way, plus the exponent suffix.  Zeros are "0" and
    "-0"; every other value (NaN, infinities, subnormals, near-ties and
    roundings that carry into the next decade) is formatted by ``fmt``.
    """

    def __init__(self, x: np.ndarray):
        self.x = x
        magnitude = np.abs(x)
        zero = magnitude == 0.0
        # zeros, NaN and the infinities take no logarithm: they are not fast,
        # and their e and digits end up 0
        finite = ~zero & (magnitude < np.inf)
        e = np.log10(magnitude, out=np.zeros(x.shape), where=finite)
        np.floor(e, out=e)
        power = 11.0 - e
        fast = finite & (power >= -_P_MIN) & (power <= 308)
        power[~fast] = 0.0
        magnitude[~fast] = 0.0
        y = magnitude * _tables().pow10[power.astype(np.intp) + _P_MIN]
        digits = np.floor(y)
        y -= digits
        fast &= (digits >= 1e11) & (np.abs(y - 0.5) > 1e-3)
        digits += y > 0.5
        fast &= digits < 1e12
        digits[~fast] = 0.0
        e[~fast] = 0.0
        fast |= zero
        self.fast, self.digits, self.e = fast, digits, e.astype(np.intp)
        fixed = (self.e >= -4) & (self.e <= 11)
        # decimal place of the leading digit in the layout; 0 for a mantissa
        self.place = np.where(fixed, self.e, 0)
        places = self.place[digits > 0.0]
        top, bottom = ((int(np.maximum.reduce(places)),
                        int(np.minimum.reduce(places))) if places.size
                       else (0, 11))
        self.int_groups = max(top, 0) // 4 + 1
        self.frac_groups = -(-(11 - bottom) // 4)
        self.exponent = not np.logical_and.reduce(fixed)
        self.width = max(2 + 4 * (self.int_groups + self.frac_groups)
                         + 5 * self.exponent, _FMT_WIDTH)

    def write(self, rows: RowBuffer, offset: int) -> None:
        place, int_groups = self.place, self.int_groups
        m = rows.bytes
        pow10 = _tables().pow10
        unit = pow10[11 - place + _P_MIN]
        whole = np.floor(self.digits / unit)
        # the fraction digits scaled to 4 frac_groups places, exact: below
        # 1e16 and a multiple of 10 wherever it exceeds 2^53
        fraction = ((self.digits - whole * unit) *
                    pow10[4 * self.frac_groups - 11 + place + _P_MIN])
        fraction = fraction.astype(np.int64)
        np.multiply(np.signbit(self.x), np.uint8(ord("-")), out=m[:, offset])
        _write_digits(whole.astype(np.int64), rows, offset + 1, int_groups)
        # leading zeros of the integer digits; the units digit stays
        top = np.maximum(place, 0)
        for j in range(1, 4 * int_groups):
            column = m[:, offset + 4 * int_groups - j]
            np.multiply(column, top >= j, out=column)
        point = offset + 1 + 4 * int_groups
        np.multiply(fraction != 0, np.uint8(ord(".")), out=m[:, point])
        _write_digits(fraction, rows, point + 1, self.frac_groups,
                      trailing=True)
        if self.exponent:
            _tables().exponents.take(
                self.e + _P_MIN,
                out=rows.field(point + 1 + 4 * self.frac_groups, 5))
        slow = (~self.fast).nonzero()[0]
        if slow.size:
            texts = np.array(list(map(fmt, self.x[slow].tolist())),
                             dtype=f"S{self.width}")
            rows.field(offset, self.width)[slow] = texts.view(
                f"V{self.width}")


def float_rows(columns: Sequence[np.ndarray],
               write: Callable[[bytes], object]) -> None:
    """The CSV rows of the float ``columns``, ``",".join(map(fmt, row))``
    and a newline each, passed to ``write`` as ASCII bytes, one slice at a
    time."""
    for lo in range(0, len(columns[0]), SLICE_ROWS):
        cells = [FloatCells(np.asarray(column[lo:lo + SLICE_ROWS],
                                       dtype=float)) for column in columns]
        rows = RowBuffer(cells[0].x.size, sum(c.width + 1 for c in cells))
        offset = 0
        for cell in cells:
            cell.write(rows, offset)
            offset += cell.width
            rows.bytes[:, offset] = ord(",")
            offset += 1
        rows.bytes[:, -1] = ord("\n")
        write(rows.data())


def index_width(stop: int) -> int:
    """Bytes of the index field of a slice ending before ``stop``."""
    digits = len(str(stop - 1))
    return 4 * -(-digits // 4)


def write_indices(start: int, stop: int, rows: RowBuffer,
                  offset: int) -> None:
    """The integers ``start .. stop - 1`` (>= 0) as ``%d`` writes them, one
    a row, as int64 digit groups: ``stop`` is at most 2^63."""
    width = index_width(stop)
    _write_digits(np.arange(start, stop, dtype=np.int64), rows, offset,
                  width // 4)
    # the indices grow with the row, so those below 10^j are a first run
    # of rows, whose digit of place 10^j is a leading zero
    for j in range(1, width):
        rows.bytes[:min(max(10 ** j - start, 0), stop - start),
                   offset + width - 1 - j] = 0
