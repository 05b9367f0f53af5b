"""The CSV artifact writer: a '# meta: {...}' comment, a header row, then data rows.

Floats are written as ``%.17g``, byte for byte, but formatted in numpy.  In
fixed notation (1e-4 <= |x| < 1e16) the 17 significant digits come from the
exact double-double product |x| * 10^k, rounded half to even; other values
(zeros, subnormals, small, huge and non-finite ones) go through ``%.17g``.

A field is 24 bytes padded with NUL, built as three little-endian uint64
words: the sign (or NUL) in byte 0, the lead digit in byte 1 and the four
4-digit groups in bytes 2-17.  Tables keyed by the decimal exponent e keep
the bytes before the point (the sign alone when e < 0), move the rest up,
and fill the gap with '.' or with '0.' and -e - 1 zeros; a mask keyed by e
and the trailing zeros clears the bytes past the field's end.

A block's float columns are formatted in one call, in place in one scratch
array, and written with the ',' and '\n' separators into one buffer whose
NUL bytes are then dropped.  With two float columns, the tracemalloc peak of
iterating over ``csv_blocks`` (holding one block at a time) is 300 bytes a
row of ``BLOCK_ROWS``.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np


BLOCK_ROWS = 1 << 13  # rows per block, chosen by timing
_FIELD_WIDTH = 24  # the longest %.17g of a double, "-2.2250738585072014e-308"
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_SCALE = 10.0 ** np.arange(20, 0, -1)  # entry e + 4: 10^(16 - e), an exact double
# each 4-digit group 0000 .. 9999 in ASCII, first digit in the lowest byte, and its trailing zeros
_QUADS, _TRAILING_ZEROS = np.zeros((10, 10, 10, 10, 8), np.uint8), np.zeros((10, 10, 10, 10), np.uint8)
for _k in range(4):
    _QUADS[..., _k] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape((10,) + (1,) * (3 - _k))
    _TRAILING_ZEROS[(...,) + (0,) * (_k + 1)] = _k + 1  # the groups that end in _k + 1 zeros
_QUADS, _TRAILING_ZEROS = _QUADS.view(np.uint64).ravel(), _TRAILING_ZEROS.ravel()


def _word_tables() -> tuple[np.ndarray, ...]:
    """Entry e + 4, for the decimal exponent e in [-4, 15]: the keep-mask, shift
    in bits and constant bytes; entry 17 (e + 4) + t: the mask of a field whose
    17 digits end in t zeros.  Masks and constants are (3, entries) words."""
    layouts, end = [], []
    for e in range(-4, 16):
        kept = 2 + e if e >= 0 else 1  # the sign and the integer digits, or the sign alone
        text = b"." if e >= 0 else b"0." + b"0" * (-e - 1)
        layouts.append((b"\xff" * kept, 8 * len(text), b"\0" * kept + text))
        # 16 - e digits after the point; if all are zeros, the point goes too
        end += [b"\xff" * (18 + len(text) - min(t, 16 - e) - (t >= 16 - e)) for t in range(17)]
    keep, shift, const = zip(*layouts)
    words = lambda fields: np.frombuffer(b"".join(f.ljust(_FIELD_WIDTH, b"\0") for f in fields), np.uint64).reshape(-1, 3).T.copy()
    return words(keep), np.array(shift, np.uint64), words(const), words(end)


_KEEP, _SHIFT, _CONST, _END = _word_tables()


def _scaled_digits(a: np.ndarray, k: np.ndarray, work) -> np.ndarray:
    """a * 10^(20 - k) rounded half to even to an integer, exactly, in an int64
    view of ``work[0]``; a and the five float64 rows of ``work`` are overwritten.
    Dekker's TwoProduct gives the product as hi + lo with no rounding error.
    Where it has 17 digits, hi >= 2^53 is an even integer, so rounding lo
    alone to even rounds the sum to even."""
    lo, b, hi, p, q = work
    np.multiply(a, _SCALE.take(k, out=b, mode="clip"), out=hi)
    p -= np.subtract(np.multiply(a, _SPLIT, out=p), a, out=q)  # a's high half; a - p is its low half
    a -= p
    q -= np.subtract(np.multiply(b, _SPLIT, out=q), b, out=lo)
    b -= q
    np.subtract(np.multiply(p, q, out=lo), hi, out=lo)
    lo += np.multiply(p, b, out=p)
    lo += np.multiply(q, a, out=q)
    lo += np.multiply(a, b, out=a)
    np.copyto(q.view(np.int64), np.rint(lo, out=lo), casting="unsafe")
    np.copyto(lo.view(np.int64), hi, casting="unsafe")
    return np.add(lo.view(np.int64), q.view(np.int64), out=lo.view(np.int64))


def _float_fields(work: np.ndarray) -> np.ndarray:
    """The fields of ``%.17g`` of the float64 values x in ``work[3]``, as the
    words ``work[:3]``; the other rows of the (8, n) uint64 ``work`` are scratch.
    In fixed notation ``%.17g`` is the 17 significant digits d of |x|, the point
    after digit e (or '0.' and -e - 1 zeros first), and no trailing zeros."""
    words, x, k, (s0, s1, s2) = work[:3], work[3].view(np.float64), work[4].view(np.intp), work[5:]
    a, e = s0.view(np.float64), s1.view(np.float64)
    other = ~((np.abs(x, out=a) >= 1e-4) & (a < 1e16))
    special = x[other].tolist()
    np.copyto(a, 1.0, where=other)  # the other values go through as 1.0 and are overwritten below
    # near a power of ten log10's e can be one off; d then leaves [10^16, 10^17), and one step puts it back
    np.floor(np.log10(a, out=e), out=e)
    np.copyto(k, np.clip(e + 4, 0, 19, out=e), casting="unsafe")  # e + 4, the table entry
    d = _scaled_digits(a, k, [e, s2.view(np.float64), *words.view(np.float64)])
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if off.size:
        k[off] += np.where(d[off] < 10**16, -1, 1)
        d[off] = _scaled_digits(np.abs(x[off]), k[off], np.empty((5, off.size)))
    words[:] = 0
    words[0] |= 45 * np.signbit(x).view(np.uint8)
    q, tmp, shifted = s0.view(np.int64), s2, work[3]
    zeros, more = np.zeros(x.size, np.uint8), slice(None)
    for i, (word, bits) in enumerate(((1, 48), (1, 16), (0, 48), (0, 16))):  # where the groups go, last first
        d -= np.multiply(np.floor_divide(d, 10**4, out=q), 10**4, out=tmp.view(np.int64))
        zeros[more] += _TRAILING_ZEROS.take(d[more])
        more = np.flatnonzero(zeros == 4 * i + 4)  # the digits so far are all zeros
        quad = _QUADS.take(d, out=tmp, mode="clip")
        words[word] |= np.left_shift(quad, bits, out=shifted)
        words[word + 1] |= np.right_shift(quad, 64 - bits, out=shifted)  # 0 unless it straddles
        d, q = q, d
    words[0] |= np.bitwise_or(np.left_shift(d, 8, out=d), 0x3000, out=d).view(np.uint64)  # d is the lead digit
    shift, end, carry, tmp = s0, s2.view(np.intp), s1, work[3]
    _SHIFT.take(k, out=shift, mode="clip")
    np.add(np.multiply(k, 17, out=end), zeros, out=end)
    carry[:] = 0
    for j, w in enumerate(words):
        kept = np.bitwise_and(w, _KEEP[j].take(k, out=tmp, mode="clip"), out=tmp)
        w ^= kept  # the bytes that move
        kept |= carry  # and those that moved out of the word before
        np.right_shift(w, np.subtract(64, shift, out=carry), out=carry)
        w <<= shift
        w |= kept
        w |= _CONST[j].take(k, out=tmp, mode="clip")
        w &= _END[j].take(end, out=tmp, mode="clip")
    text = np.array(["%.17g" % v for v in special], dtype=f"S{_FIELD_WIDTH}")
    words[:, other] = text.view(np.uint64).reshape(-1, 3).T
    return words


def _csv_column(col) -> np.ndarray:
    """A float64 array for a column of floats, else each value's bytes, NUL
    padded to whole words, as a (rows, words) array of 8-byte items."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return col
    if all(isinstance(v, float) for v in col):
        return np.array(col, dtype=np.float64)
    text = np.array([("%.17g" % v if isinstance(v, float) else str(v)).encode() for v in col], dtype=np.bytes_)
    return text.astype(f"S{text.itemsize + -text.itemsize % 8}").view("V8").reshape(len(col), -1)


def csv_blocks(meta: dict, columns: dict) -> Iterator[bytes]:
    """The CSV artifact of ``meta`` and ``columns`` (lists or numpy arrays), as
    byte blocks: the meta and header lines, then ``BLOCK_ROWS`` rows at a time.
    A float64 array, or a column that holds only floats, is written as ``%.17g``
    of each value; any other column as ``%.17g`` of its floats and ``str`` of
    its other values."""
    cols = [_csv_column(col) for col in columns.values()]
    yield ("# meta: " + json.dumps(meta, sort_keys=True) + "\n" + ",".join(columns) + "\n").encode()
    floats = [col for col in cols if col.dtype == np.float64]
    widths = [_FIELD_WIDTH if col.dtype == np.float64 else 8 * col.shape[1] for col in cols]
    stops = np.cumsum(widths) + np.arange(len(cols))  # where each field's separator goes
    n, block, k = len(cols[0]), min(len(cols[0]), BLOCK_ROWS), len(floats)
    buffer = np.empty((block, stops[-1] + 1), np.uint8)
    buffer[:, stops] = ord(",")
    buffer[:, -1] = ord("\n")
    arena = np.empty(max(64 * k, buffer.shape[1]) * block, np.uint8)  # the fields' scratch, then the NUL mask
    for start in range(0, n, BLOCK_ROWS):
        m = min(block, n - start)
        work = arena[: 64 * k * m].view(np.uint64).reshape(8, k * m)
        values = work[3].view(np.float64).reshape(m, k)
        for j, col in enumerate(floats):
            values[:, j] = col[start : start + m]
        fields = iter(_float_fields(work).view("V8").reshape(3, m, k).transpose(2, 1, 0))
        rows = buffer[:m]
        for col, stop, width in zip(cols, stops, widths):  # each field as 8-byte items
            rows[:, stop - width : stop].view("V8")[...] = next(fields) if col.dtype == np.float64 else col[start : start + m]
        yield rows[np.not_equal(rows, 0, out=arena[: rows.size].view(bool).reshape(rows.shape))].tobytes()
