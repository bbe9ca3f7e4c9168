"""CSV rows and JSON objects of float and integer columns from numpy array
passes, byte for byte what `'%.16e' % v` (CSV) and `float.__repr__` (JSON)
write for a float and `'%d' % i` for an integer.

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

`repr` writes the shortest digit string that reads back as v: in units of
the 17th digit, the multiple of the largest 10**k (k = 0 ... 16, or 17
with a carry into the exponent) that lies in v's rounding interval, the
halfway points x - lower ... x + upper to its neighbours, and of two such
the one nearer x.  For a normal v in [2**b, 2**(b + 1)), upper =
2**(b - 53) * 10**(16 - e) lies in (0.555, 11.1], exact but for hi's
rounding; lower = upper / 2 where v = 2**b with b > -1022, else lower =
upper.  With m = 1 where the interval is narrower than 10 and m = 2
otherwise, it holds at most one multiple of 10**m, the one nearest its
centre; if that one is inside, it is the answer, trailing zeros stripped.
Otherwise the answer is the multiple of 10**(m - 1) nearest x, or the
next one up when that one lies below the interval (an upper side twice as
wide as the lower one), which is then inside.  All of this takes
y = x mod 100, D mod 100 plus r, and the distances from y come within
2**-44 of exact.  A value with a distance within _WINDOW of an interval
end, or with x within _WINDOW of halfway between two multiples of
10**(m - 1), is written by `float.__repr__` instead, as are the subnormal
values, whose interval may span many digits.  The digits are laid out as
repr does: positional for 1e-4 <= |v| < 1e16, always with a point
(`123.0`), and otherwise `d.ddde±XX` with at least two exponent digits.

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
_MINUS, _DOT, _ZERO, _E = np.frombuffer(b"-.0e", dtype=np.uint8)  # ASCII
_REPR_WIDTH = 29  # sign, "0.000", 17 digits and a point, "e", exponent
_ROWS = np.arange(18, dtype=np.int8)
# "0." and up to three zeros before the digits of 1e-4 <= |v| < 1: column
# i is written for exponents at or below _LEADING_EXPONENT[i]
_LEADING = np.frombuffer(b"0.000", dtype=np.uint8)
_LEADING_EXPONENT = np.array([-1, -1, -2, -3, -4])

# Row e - _E_MIN: the smallest double >= 10**e; the double-double hi + lo
# of 5**(16 - e) with hi's Dekker halves; 2**(16 - e); and the exponent
# text "+dd"/"-ddd" as sign, hundreds (NUL below 100), tens and units.
# _FILLED[row] says that rows row and row + 1 are filled.
_FILLED = np.zeros(_E_ROWS, dtype=bool)
_SCALE = np.empty((6, _E_ROWS))  # ten, hi, hi's high half, hi's low half, lo, 2**(16 - e)
_EXPONENT = np.empty((_E_ROWS, 4), dtype=np.uint8)


def csv_rows(columns: list) -> str:
    """The CSV lines of equal-length, non-empty float ('f') and integer
    ('i', 'u') columns, each line ending in a newline."""
    separators = [b""] + [b","] * (len(columns) - 1) + [b"\n"]
    return "".join(_text(_matrix(block, _float_fields, separators)) for block in _blocks(columns))


def json_rows(keys: list, columns: list) -> str:
    """The JSON list, indent 2, of one {key: value} object per row of
    equal-length, non-empty float and integer columns, `keys` being the
    column names as JSON strings; what `json.dumps(..., indent=2)` writes
    for finite values."""
    separators = [b",\n  {\n    " + keys[0].encode() + b": "]
    separators += [b",\n    " + key.encode() + b": " for key in keys[1:]] + [b"\n  }\0\0\0"]
    # the first object opens the list, the last one closes it
    blocks = [_matrix(block, _repr_fields, separators) for block in _blocks(columns)]
    blocks[0][0, :2] = np.frombuffer(b"[\n", dtype=np.uint8)
    blocks[-1][-1, -3:] = np.frombuffer(b"\n]\n", dtype=np.uint8)
    return "".join(map(_text, blocks))


def _blocks(columns: list):
    """The columns in row blocks of about _BLOCK_VALUES float values,
    which bounds the temporary arrays of the float passes."""
    rows = max(1, _BLOCK_VALUES // max(1, sum(column.dtype.kind == "f" for column in columns)))
    for start in range(0, len(columns[0]), rows):
        yield [column[start:start + rows] for column in columns]


def _matrix(columns: list, float_fields, separators: list) -> np.ndarray:
    """The NUL-padded uint8 matrix of one block's rows: separators[i],
    then column i's field, for each column, then separators[-1].  Every
    float value of the block goes through one `float_fields` call."""
    floats = [column for column in columns if column.dtype.kind == "f"]
    if floats:
        float_blocks = iter(np.split(float_fields(np.concatenate(floats, dtype=np.float64)), len(floats)))
    blocks = [next(float_blocks) if column.dtype.kind == "f" else _integer_fields(column) for column in columns]
    row = b"".join(separator + b"\0" * block.shape[1] for separator, block in zip(separators, blocks))
    row = np.frombuffer(row + separators[-1], dtype=np.uint8)
    out = np.empty((len(columns[0]), len(row)), dtype=np.uint8)
    out[:] = row
    left = 0
    for separator, block in zip(separators, blocks):
        left += len(separator)
        out[:, left:left + block.shape[1]] = block
        left += block.shape[1]
    return out


def _text(matrix: np.ndarray) -> str:
    """The matrix's bytes without the NULs, as text."""
    return matrix.tobytes().translate(None, b"\0").decode("ascii")


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


def _rounded(values: np.ndarray):
    """(negative, finite, zero, row, b, m, D, r) for float64 `values`:
    for finite v != 0, |v| * 10**(16 - e) = D + r, where e = row + _E_MIN
    = floor(log10 |v|), D is an integer in [10**16, 10**17] and r, within
    2**-47 of exact, is in [-1/2, 1/2]; |v| = 2 m 2**b with m in [1/2, 1).
    Zeros and non-finite values get 1.0's numbers."""
    negative = values.view(np.int64) < 0
    a = np.abs(values)
    finite = np.isfinite(a)
    zero = a == 0
    a[zero | ~finite] = 1.0
    mantissa, b = np.frexp(a)
    b -= 1  # a in [2**b, 2**(b + 1))
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
    digits = ph.astype(np.int64)
    digits += n.astype(np.int64)
    return negative, finite, zero, e, b, mantissa, digits, r


def _decimal(values: np.ndarray):
    """(negative, D, e, undecided) for float64 `values`: '%.16e' % v is
    the sign, the 17 digits of D with a point after the first, 'e' and e
    as "+dd"/"-ddd", for every v where `undecided` is False.  Zeros give
    D = 0, e = 0; non-finite values and those within _WINDOW of a rounding
    tie are undecided."""
    negative, finite, zero, e, _, _, digits, r = _rounded(values)
    undecided = (r >= 0.5 - _WINDOW) | (r <= _WINDOW - 0.5) | ~finite
    return negative, *_carried(digits, e, zero), undecided


def _carried(digits: np.ndarray, e: np.ndarray, zero: np.ndarray):
    """(D, e) with D = 10**17 carried into the exponent as 10**16, e
    turned from a row into the exponent, and zeros as D = 0, e = 0.  A
    carry only comes with e = k, as for 1e-305, the double below 10**-305,
    so row e + 1 is filled."""
    digits[zero] = 0
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry
    e[zero] = -_E_MIN
    e += _E_MIN
    return digits, e


def _shortest(values: np.ndarray):
    """(negative, D, e, undecided) for float64 `values`: repr(v) writes
    the sign and the 17 digits of D less their trailing zeros, with the
    decimal exponent e, for every v where `undecided` is False.  Zeros
    give D = 0, e = 0; non-finite and subnormal values, and those that a
    test within _WINDOW decides, are undecided."""
    negative, finite, zero, e, b, mantissa, digits, r = _rounded(values)
    # For a normal v the interval reaches h = 2**(b - 53) 10**(16 - e)
    # above x: the double 2**(b - 53 + 16 - e), of biased exponent
    # b + 1310 - row, times hi = 5**(16 - e).  It reaches h / 2 below x
    # where v is a power of two above the smallest normal, else h: it is
    # the centre x + shift, shift = h / 4 or 0, plus or minus radius =
    # h - shift.
    radius = b + np.int64(1310)
    radius -= e
    radius *= 2**52
    radius = radius.view(np.float64)
    radius *= _SCALE[1][e]
    shift = mantissa == 0.5
    shift &= b > -1022
    shift = shift * 0.25
    shift *= radius
    radius -= shift
    undecided = b < -1022  # subnormal
    undecided |= ~finite
    # the radius is 5 exactly for 2**52 <= |v| < 2**53 and otherwise at
    # least 2**-30 away from 5 (checked in exact arithmetic for every
    # decimal and binary exponent), so its rounding cannot move it across
    wide = radius >= 5.0  # m = 2
    base = digits // 100
    base *= 100
    digits -= base
    y = digits + r  # x - base = x mod 100, in [-1/2, 99.5]
    centre = y + shift
    # the multiple of 10**m nearest the centre, inside or not
    q = wide * 90.0
    q += 10.0
    top = centre / q
    top += _ROUND
    top -= _ROUND
    top *= q
    gap = top - centre
    np.abs(gap, out=gap)
    inside = gap <= radius
    gap -= radius
    undecided |= np.abs(gap, out=gap) < _WINDOW
    # the multiple of 10**(m - 1) nearest x, or the one above it when the
    # one below x lies outside
    q *= 0.1
    near = y / q
    near += _ROUND
    near -= _ROUND
    near *= q
    gap = near - y
    tie = np.abs(gap)
    tie -= 0.5 * q
    undecided |= np.abs(tie, out=tie) < _WINDOW
    gap -= shift
    np.abs(gap, out=gap)
    gap -= radius
    q *= gap > 0
    near += q
    undecided |= np.abs(gap, out=gap) < _WINDOW
    base += np.where(inside, top, near).astype(np.int64)
    return negative, *_carried(base, e, zero), undecided


def _float_fields(values: np.ndarray) -> np.ndarray:
    """(n, 24) uint8: row i is '%.16e' % values[i], NUL-padded."""
    negative, digits, e, undecided = _decimal(values)
    out = np.empty((len(values), 24), dtype=np.uint8)
    out[:, 0] = negative * _MINUS
    out[:, 2] = _DOT
    _write_digits(digits, out[:, 1], out[:, 3:19])
    out[:, 19] = _E
    e -= _E_MIN
    out[:, 20:].view(np.uint32)[:, 0] = _EXPONENT.view(np.uint32)[e, 0]
    for i in np.flatnonzero(undecided).tolist():
        text = b"%.16e" % values[i]
        out[i] = np.frombuffer(text + b"\0" * (24 - len(text)), dtype=np.uint8)
    return out


def _repr_fields(values: np.ndarray) -> np.ndarray:
    """(n, _REPR_WIDTH) uint8: row i is repr(values[i]), NUL-padded."""
    negative, digits, e, undecided = _shortest(values)
    chars = np.empty((len(values), 17), dtype=np.uint8)
    groups = _write_digits(digits, chars[:, 0], chars[:, 1:])
    zeros = _trailing_zeros()
    count = zeros[groups[3]]
    for run, group in zip((4, 8, 12), groups[2::-1]):
        count += (count == run) * zeros[group]
    significant = (17 - count).view(np.int8)  # digits less the trailing zeros; 1 for 0.0
    point = (e >= -4) & (e <= 15)  # positional
    exponent = ~point
    # the digit the point follows: e in positional form from 1.0 up, the
    # first where an exponent follows more than one digit, else none
    last = np.where(point & (e >= 0), e, (exponent & (count < 16)) - 1).astype(np.int8)
    keep = _ROWS[:17, None] < np.maximum(significant, last + 2)  # through the digit after the point ("123.0")
    last[last < 0] = 17  # the point past the digits
    digits = chars.T * keep
    # built row by row, as the transpose of the (n, _REPR_WIDTH) field
    field = np.empty((_REPR_WIDTH, len(values)), dtype=np.uint8)
    field[0] = negative * _MINUS
    field[1:6] = (point & (e <= _LEADING_EXPONENT[:, None])) * _LEADING[:, None]
    text = field[6:24]  # the digits up to `last`, the point, the digits after it
    np.multiply(digits, _ROWS[:17, None] <= last, out=text[:17])
    text[17] = 0
    last += 1
    text[1:] += digits * (_ROWS[1:, None] > last)
    text += (_ROWS[:, None] == last) * _DOT
    field[24] = exponent * _E
    e -= _E_MIN
    field[25:] = (_EXPONENT.view(np.uint32)[e, 0] * exponent).view(np.uint8).reshape(-1, 4).T
    out = field.T
    for i, value in zip(np.flatnonzero(undecided).tolist(), values[undecided].tolist()):
        out[i] = np.frombuffer(float.__repr__(value).encode().ljust(_REPR_WIDTH, b"\0"), dtype=np.uint8)
    return out


def _write_digits(digits: np.ndarray, lead_out: np.ndarray, groups_out: np.ndarray) -> list:
    """Write the 17 digits of `digits` (consumed): the first to `lead_out`,
    the other 16 as four four-digit groups to the (n, 16) `groups_out`;
    return the groups."""
    lead = digits // 10**16
    lead_out[:] = lead + _ZERO
    lead *= 10**16
    digits -= lead
    table = _groups()
    groups = []
    for power in (10**12, 10**8, 10**4):
        group = digits // power
        digits -= group * power
        groups.append(group)
    groups.append(digits)
    for i, group in enumerate(groups):
        groups_out[:, 4 * i:4 * i + 4].view(np.uint32)[:, 0] = table[group]
    return groups


def _integer_fields(column: np.ndarray) -> np.ndarray:
    """(n, 1 + 4 g) uint8: row i is '%d' % column[i], right-aligned and
    NUL-padded, in g four-digit groups."""
    negative = column < 0
    magnitude = column.astype(np.uint64)
    np.subtract(0, magnitude, out=magnitude, where=negative)  # modulo 2**64: |i|
    count = -(-len(str(int(magnitude.max()))) // 4)
    out = np.empty((len(column), 1 + 4 * count), dtype=np.uint8)
    out[:, 0] = negative * _MINUS
    groups = _groups()
    for i in range(count):
        head = magnitude // 10 ** (4 * (count - 1 - i))  # the digits through group i
        index = (head - head // 10**4 * 10**4 if i else head).astype(np.intp)  # head < 10**4 at i = 0
        index += 10**4 * (head < 10**4)
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


@functools.cache
def _trailing_zeros() -> np.ndarray:
    """[g] is the number of trailing zeros of g as "dddd", 0 <= g < 10**4."""
    g = np.arange(10**4)
    return sum((g % 10**k == 0).astype(np.uint8) for k in range(1, 5))
