"""The CSV artifact writer: a '# meta: {...}' comment, a header row, then data rows.

Floats are written as ``%.17g``, byte for byte, but formatted in numpy
rather than by one Python call per value.  In fixed notation
(1e-4 <= |x| < 1e16) the 17 significant digits come from the exact
double-double product |x| * 10^k, rounded half to even, and a table by
decimal exponent lays out the sign, integer part, point and fraction.
Every other value (zeros, subnormals, small, huge and non-finite ones) goes
through ``%.17g`` itself.

Each column of a block of rows becomes a matrix of fixed-width fields, one
row per value, padded with NUL bytes.  The fields are joined with ',' and
'\n' columns and the NUL bytes dropped; no field holds a NUL of its own.
The artifact comes out one block at a time, so memory is bounded by the
block, not by the row count: a block of two float columns peaks at about
220 bytes a row.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np


BLOCK_ROWS = 1 << 13  # rows per block, chosen by timing; 1.8 MB at the peak for two float columns
_FIELD_WIDTH = 24  # the longest %.17g of a double, "-2.2250738585072014e-308"
_COLUMNS = np.arange(_FIELD_WIDTH, dtype=np.uint8)
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_POW10 = 10.0 ** np.arange(22)  # exact doubles up to 10^21


def _digit_quads() -> np.ndarray:
    """ASCII of the four-digit groups 0000 .. 9999, one uint32 per group."""
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        quads[..., k] = ascii_digits.reshape((10,) + (1,) * (3 - k))
    return quads.view(np.uint32).reshape(10000)


_QUADS = _digit_quads()
# bytes of a value in the fixed layout: its 17 digits, then the point, '0' and NUL
_DOT, _ZERO, _NUL = 17, 18, 19


def _fixed_layouts() -> np.ndarray:
    """Row e + 4: where each byte of ``%.17g``'s fixed notation comes from,
    for the decimal exponent e in [-4, 15], before trailing zeros are cut."""
    table = np.full((20, _FIELD_WIDTH - 1), _NUL, dtype=np.intp)
    for e in range(-4, 16):
        if e >= 0:  # d0 .. de '.' d(e+1) .. d16
            row = [*range(e + 1), _DOT, *range(e + 1, 17)]
        else:  # '0.', -e - 1 zeros, d0 .. d16
            row = [_ZERO, _DOT, *[_ZERO] * (-e - 1), *range(17)]
        table[e + 4, : len(row)] = row
    return table


_FIXED_LAYOUTS = _fixed_layouts()


def _scaled_digits(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a * 10^(16 - e) rounded half to even to an integer, exactly.

    Dekker's TwoProduct gives the product as hi + lo with no rounding error.
    Where the result has 17 digits, hi >= 2^53 is an even integer, so
    rounding lo alone to even rounds the sum to even.
    """
    b = _POW10[16 - e]
    hi = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fixed_fields(x: np.ndarray) -> np.ndarray:
    """The field matrix of ``%.17g`` of each x, where 1e-4 <= |x| < 1e16.

    There ``%.17g`` is fixed notation: the 17 significant digits d of |x|
    with its decimal exponent e, the point after digit e (or '0.' and
    -e - 1 zeros before the digits when e < 0), and the trailing zeros of
    the fraction cut.
    """
    n = x.size
    a = np.abs(x)
    # log10 rounds, so near a power of ten its guess of e can be one off;
    # d then falls outside [10^16, 10^17), and one step of e puts it back
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), -4, 15)
    d = _scaled_digits(a, e)
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if off.size:
        e[off] += np.where(d[off] < 10**16, -1, 1)
        d[off] = _scaled_digits(a[off], e[off])
    src = np.empty((n, 20), np.uint8)
    lead, rest = np.divmod(d, 10**16)
    src[:, 0] = lead + ord("0")
    groups = np.empty((n, 4), np.int64)
    groups[:, 0], rest = np.divmod(rest, 10**12)
    groups[:, 1], rest = np.divmod(rest, 10**8)
    groups[:, 2], groups[:, 3] = np.divmod(rest, 10**4)
    src[:, 1:17] = _QUADS[groups].view(np.uint8).reshape(n, 16)
    src[:, _DOT], src[:, _ZERO], src[:, _NUL] = ord("."), ord("0"), 0
    trailing_zeros = np.argmin(src[:, 16::-1] == ord("0"), axis=1)
    fraction = 16 - e
    kept = fraction - np.minimum(trailing_zeros, fraction)
    # bytes kept: the sign (or NUL), the integer part, and the point and kept digits if any
    end = 1 + np.where(e >= 0, e + 1, 1) + np.where(kept > 0, kept + 1, 0)
    out = np.empty((n, _FIELD_WIDTH), np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    body = out[:, 1:]
    for k in np.flatnonzero(np.bincount(e + 4, minlength=20)):
        rows = np.flatnonzero(e == k - 4)
        body[rows] = src[rows][:, _FIXED_LAYOUTS[k]]
    # all uint8, for numpy's fast loops
    out *= (_COLUMNS < end.astype(np.uint8)[:, None]).view(np.uint8)
    return out


def _float_fields(x: np.ndarray) -> np.ndarray:
    """The (n, 24) field matrix of ``%.17g`` of each float64 in ``x``."""
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)
    # the other rows go through the numpy path as 1.0 and are overwritten below
    out = _fixed_fields(np.where(fixed, x, 1.0))
    rows = np.flatnonzero(~fixed)
    if rows.size:
        text = np.array(["%.17g" % v for v in x[rows].tolist()], dtype=f"S{_FIELD_WIDTH}")
        out[rows] = text.view(np.uint8).reshape(rows.size, _FIELD_WIDTH)
    return out


def _csv_column(col) -> np.ndarray:
    """A float64 array for a column of floats, else each value's bytes."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return col
    if all(isinstance(v, float) for v in col):
        return np.array(col, dtype=np.float64)
    return np.array([("%.17g" % v if isinstance(v, float) else str(v)).encode() for v in col], dtype=np.bytes_)


def csv_blocks(meta: dict, columns: dict) -> Iterator[bytes]:
    """The CSV artifact of ``meta`` and ``columns`` (lists or numpy arrays), as
    byte blocks: the meta and header lines, then ``BLOCK_ROWS`` rows at a time.

    A float64 array, or a column that holds only floats, is written as
    ``%.17g`` of each value; any other column as ``%.17g`` of its floats and
    ``str`` of its other values.
    """
    cols = [_csv_column(col) for col in columns.values()]
    yield ("# meta: " + json.dumps(meta, sort_keys=True) + "\n" + ",".join(columns) + "\n").encode()
    n = len(cols[0])
    for start in range(0, n, BLOCK_ROWS):
        m = min(BLOCK_ROWS, n - start)
        fields = []
        for col in cols:
            chunk = col[start : start + m]
            fields.append(_float_fields(chunk) if chunk.dtype == np.float64 else chunk.view(np.uint8).reshape(m, -1))
            fields.append(np.full((m, 1), ord(","), np.uint8))
        fields[-1][:] = ord("\n")
        rows = np.concatenate(fields, axis=1).ravel()
        yield rows[rows != 0].tobytes()
