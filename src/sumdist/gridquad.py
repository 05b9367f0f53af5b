"""Compensated-summation primitives shared by both grid integrators.

Both reduce each density lattice to its anti-diagonal sums and accumulate
those in ascending order with ``kahan_cumsum``.  All reductions here run in
a fixed serial order, so results are bitwise reproducible.
``antidiagonal_sums`` is correctly rounded: an error-free TwoSum cascade
over whole rows (Ogita, Rump & Oishi, "Accurate sum and dot product", SIAM
J. Sci. Comput. 2005) plus a rigorous bound on what the cascade leaves out
decides most diagonals, and ``math.fsum`` sums the few near-ties again, so
every entry has the bits ``math.fsum`` gives.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["kahan_cumsum", "antidiagonal_sums"]

# unit roundoff of IEEE double precision
_U = 2.0**-53


def kahan_cumsum(values: Iterable[float]) -> list[float]:
    """Kahan-compensated prefix sums of a sequence of Python floats, in order."""
    out = []
    total = comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out.append(total)
    return out


def antidiagonal_sums(matrix: np.ndarray) -> np.ndarray:
    """Correctly rounded sums over anti-diagonals i + j = s of a square matrix.

    Entry ``s`` of the result sums matrix[i][j] with i + j == s, for
    s = 0 .. 2n-2, and has the bits of ``math.fsum`` over that diagonal.

    Lane ``s`` keeps a running sum; row i is added into lanes i .. i+n-1
    with TwoSum, which returns the rounded sum and its exact error, so the
    exact diagonal total is the lane plus the sum of its errors.  The errors
    are summed in ``e`` and their magnitudes in ``a`` by plain addition; a
    lane has at most n terms, so |e - exact error sum| < B = 2 n u a.  If
    ``lane + e`` rounds to the same double at both ends of [e - B, e + B],
    each end widened outward by one ulp, that double is the correctly
    rounded total.  The remaining lanes lie within B of a rounding tie and
    are summed again with ``math.fsum``.  Extra memory is O(n).
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"antidiagonal_sums expects a square matrix, got {m.shape}")
    lanes = np.zeros(2 * n - 1)
    e = np.zeros_like(lanes)
    a = np.zeros_like(lanes)
    total = np.empty(n)
    row_part = np.empty(n)
    err = np.empty(n)
    for i, row in enumerate(m):
        lane = lanes[i : i + n]
        np.add(lane, row, out=total)
        np.subtract(total, lane, out=row_part)
        # err = (lane - (total - row_part)) + (row - row_part)
        np.subtract(total, row_part, out=err)
        np.subtract(lane, err, out=err)
        np.subtract(row, row_part, out=row_part)
        np.add(err, row_part, out=err)
        lane[...] = total
        e[i : i + n] += err
        np.abs(err, out=err)
        a[i : i + n] += err
    # bound underflows to 0 only where a <= 2**-1023 / n; then every error is
    # a multiple of 2**-1074 and e holds their sum exactly
    bound = a * (2.0 * n * _U)
    lo = np.nextafter(e - bound, -np.inf)
    hi = np.nextafter(e + bound, np.inf)
    settled = (bound == 0.0) | (lanes + lo == lanes + hi)
    out = lanes + e
    if not settled.all():
        flipped = np.fliplr(m)
        for s in np.flatnonzero(~settled).tolist():
            out[s] = math.fsum(flipped.diagonal(n - 1 - s).tolist())
    return out
