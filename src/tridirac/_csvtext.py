"""CSV rows of float and integer columns from numpy array passes, byte
for byte what `'%.16e' % v` writes for a float and `'%d' % i` for an
integer.

A finite double v != 0 is |v| = a, and `'%.16e'` writes the 17-digit
integer D = round(a * 10**(16 - e)), rounded half to even, where
e = floor(log10 a), as `d.dddddddddddddddde±XX`; D = 10**17 carries into
the exponent.  Per element, with no Python loop:

- e: frexp gives a in [2**b, 2**(b + 1)), so e is k = floor(b log10 2)
  or k + 1, and it is k + 1 exactly when a is at least the smallest double
  that is >= 10**(k + 1).
- x = a * 10**(16 - e) = s * 5**j with j = 16 - e and s = a * 2**j, which
  is exact.  5**j is held as a double-double hi + lo, built from Python
  integers by correctly rounded true division; Dekker's two-product (1971)
  gives s * hi = ph + pl exactly.  ph >= 10**16 > 2**53 is an integer, and
  r = pl + s * lo is the rest of x, within 5 * 2**-50 (< 2**-47) of its
  exact value: 2**-50 from rounding s * lo (|s lo| < 12), 2**-49 from the
  sum (|r| < 20), and 2**-49 from the double-double's own error.
- D = ph + round(r).  Where r's distance from the nearest integer is within
  _WINDOW = 2**-40 (128 times that bound) of 1/2, the rounding direction is
  not certain from r; such values (exact ties like 1000000000000000.25 among
  them) and non-finite ones are written by `'%.16e' % v` instead.

The per-exponent constants are computed the first time a table uses that
exponent and kept for the process: at most 633 rows, one per decimal
exponent of a double.  Integers are written from the same table of
four-digit groups as the float digits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_E_MIN = -324  # the decimal exponents of positive doubles are -324 ... 308
_E_ROWS = 633
_WINDOW = 2.0**-40
_ROUND = 1.5 * 2.0**52  # (r + _ROUND) - _ROUND rounds |r| < 2**51 half to even
_SPLIT = 2.0**27 + 1  # Dekker's splitting constant
_BLOCK_VALUES = 4096
_COMMA, _MINUS, _DOT, _ZERO, _E, _NEWLINE = 44, 45, 46, 48, 101, 10  # ASCII

# Row e - _E_MIN: the smallest double >= 10**e; the double-double hi + lo
# of 5**(16 - e) with hi's Dekker halves; 2**(16 - e); and the exponent
# text "+dd"/"-ddd" as sign, hundreds (NUL below 100), tens and units.
# _FILLED[row] says that rows row and row + 1 are filled.
_FILLED = np.zeros(_E_ROWS, dtype=bool)
_SCALE = np.empty((6, _E_ROWS))  # ten, hi, hi's high half, hi's low half, lo, 2**(16 - e)
_EXPONENT = np.empty((_E_ROWS, 4), dtype=np.uint8)


def csv_rows(columns: list) -> str:
    """The CSV lines of equal-length, non-empty float ('f') and integer
    ('i', 'u') columns, each line ending in a newline.  Blocks of about
    _BLOCK_VALUES values go through the pass in turn, which bounds its
    temporary arrays."""
    rows = max(1, _BLOCK_VALUES // len(columns))
    starts = range(0, len(columns[0]), rows)
    return "".join(_block([column[start:start + rows] for column in columns]) for start in starts)


def _block(columns: list) -> str:
    """The CSV lines of one block: every float value of it through one
    `_float_fields` call, then one NUL-padded uint8 matrix of the rows."""
    floats = [column for column in columns if column.dtype.kind == "f"]
    if floats:
        float_blocks = iter(np.split(_float_fields(np.concatenate(floats, dtype=np.float64)), len(floats)))
    blocks = [next(float_blocks) if column.dtype.kind == "f" else _integer_fields(column) for column in columns]
    out = np.empty((len(columns[0]), sum(block.shape[1] + 1 for block in blocks)), dtype=np.uint8)
    left = 0
    for block in blocks:
        right = left + block.shape[1]
        out[:, left:right] = block
        out[:, right] = _COMMA
        left = right + 1
    out[:, -1] = _NEWLINE
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _fill(rows) -> None:
    """Fill rows `rows` and the rows after them from exact integers."""
    for row in rows:
        for e in (row + _E_MIN, row + 1 + _E_MIN):
            num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
            ten = num / den
            p, q = ten.as_integer_ratio()
            if p * den < num * q:
                ten = math.nextafter(ten, math.inf)
            num, den = (5 ** (16 - e), 1) if e <= 16 else (1, 5 ** (e - 16))
            hi = num / den
            p, q = hi.as_integer_ratio()
            lo = (num * q - p * den) / (den * q)
            high = _SPLIT * hi
            high -= high - hi
            text = b"%+03d" % e
            _SCALE[:, e - _E_MIN] = ten, hi, high, hi - high, lo, math.ldexp(1.0, 16 - e)
            _EXPONENT[e - _E_MIN] = np.frombuffer(text[:1] + b"\0" * (4 - len(text)) + text[1:], dtype=np.uint8)
        _FILLED[row] = True


def _decimal(values: np.ndarray):
    """(negative, D, e, undecided) for float64 `values`: '%.16e' % v is
    the sign, the 17 digits of D with a point after the first, 'e' and e
    as "+dd"/"-ddd", for every v where `undecided` is False.  Zeros give
    D = 0, e = 0; non-finite values and those within _WINDOW of a rounding
    tie are undecided."""
    negative = values.view(np.int64) < 0
    a = np.abs(values)
    finite = np.isfinite(a)
    zero = a == 0
    a[zero | ~finite] = 1.0
    b = np.frexp(a)[1] - 1  # a in [2**b, 2**(b + 1))
    e = (b * 78913 >> 18) - _E_MIN  # the row of k = floor(b log10 2), exact for |b| < 1650
    missing = e[~_FILLED[e]]
    if missing.size:
        _fill(set(missing.tolist()))
    e += a >= _SCALE[0][e + 1]
    hi, high, low, lo, pow2 = (row[e] for row in _SCALE[1:])
    # r = ((s_high high - ph) + s_high low + s_low high) + s_low low + s lo
    # for s = a 2**j: the low part of Dekker's two-product plus s lo,
    # computed in place to keep the number of temporary arrays down
    s = a
    s *= pow2
    lo *= s
    ph = s * hi
    s_high = s * _SPLIT
    s_high -= s_high - s
    s -= s_high  # now s_low
    r = s_high * high
    r -= ph
    s_high *= low
    r += s_high
    high *= s
    r += high
    low *= s
    r += low
    r += lo
    n = r + _ROUND
    n -= _ROUND
    r -= n
    undecided = (r >= 0.5 - _WINDOW) | (r <= _WINDOW - 0.5) | ~finite
    digits = ph.astype(np.int64)
    digits += n.astype(np.int64)
    digits[zero] = 0
    carry = digits == 10**17  # as for 1e-305, the double below 10**-305; e = k here, so row e + 1 is filled
    digits[carry] = 10**16
    e += carry
    e[zero] = -_E_MIN
    e += _E_MIN
    return negative, digits, e, undecided


def _float_fields(values: np.ndarray) -> np.ndarray:
    """(n, 24) uint8: row i is '%.16e' % values[i], NUL-padded."""
    negative, digits, e, undecided = _decimal(values)
    out = np.empty((len(values), 24), dtype=np.uint8)
    out[:, 0] = negative * _MINUS
    lead = digits // 10**16
    out[:, 1] = lead + _ZERO
    out[:, 2] = _DOT
    lead *= 10**16
    digits -= lead  # the 16 digits after the point
    groups = _groups()
    for start, power in zip(range(3, 19, 4), (10**12, 10**8, 10**4, 1)):
        group = digits // power
        digits -= group * power
        out[:, start:start + 4].view(np.uint32)[:, 0] = groups[group]
    out[:, 19] = _E
    e -= _E_MIN
    out[:, 20:].view(np.uint32)[:, 0] = _EXPONENT.view(np.uint32)[e, 0]
    for i in np.flatnonzero(undecided).tolist():
        text = b"%.16e" % values[i]
        out[i] = np.frombuffer(text + b"\0" * (24 - len(text)), dtype=np.uint8)
    return out


def _integer_fields(column: np.ndarray) -> np.ndarray:
    """(n, 1 + 4 g) uint8: row i is '%d' % column[i], right-aligned and
    NUL-padded, in g four-digit groups."""
    negative = column < 0
    magnitude = column.astype(np.uint64)
    magnitude[negative] = 0 - magnitude[negative]
    count = -(-len(str(int(magnitude.max()))) // 4)
    out = np.empty((len(column), 1 + 4 * count), dtype=np.uint8)
    out[:, 0] = negative * _MINUS
    groups = _groups()
    for i in range(count):
        head = magnitude // 10 ** (4 * (count - 1 - i))
        index = (head % 10**4).astype(np.intp) + 10**4 * (head < 10**4)
        if i < count - 1:
            index += 10**4 * (head == 0)
        out[:, 1 + 4 * i:5 + 4 * i].view(np.uint32)[:, 0] = groups[index]
    return out


@functools.cache
def _groups() -> np.ndarray:
    """uint32 view of four-byte digit groups: [g] is g as "dddd" and
    [10**4 + g] is g without leading zeros, NUL-padded on the left (0 as
    "0"), for 0 <= g < 10**4; [2 * 10**4] is four NULs."""
    table = np.zeros((2 * 10**4 + 1, 4), dtype=np.uint8)
    digits = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
    for half in (table[: 10**4], table[10**4 : 2 * 10**4]):
        half = half.reshape(10, 10, 10, 10, 4)
        half[..., 0] = digits[:, None, None, None]
        half[..., 1] = digits[:, None, None]
        half[..., 2] = digits[:, None]
        half[..., 3] = digits
    bare = table[10**4 : 2 * 10**4].reshape(10, 10, 10, 10, 4)
    bare[0, ..., 0] = bare[0, 0, ..., 1] = bare[0, 0, 0, :, 2] = 0
    return table.view(np.uint32)[:, 0]
