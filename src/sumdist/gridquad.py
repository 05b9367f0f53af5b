"""Compensated-summation primitives shared by every grid integrator.

All reductions here run in a fixed serial order, so results are bitwise
reproducible.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["KahanAccumulator", "kahan_cumsum_rows", "fsum_matrix", "antidiagonal_sums"]


class KahanAccumulator:
    """Kahan-compensated accumulator over scalars or same-shape vectors."""

    def __init__(self, shape=()):
        self._sum = np.zeros(shape)
        self._comp = np.zeros(shape)

    def add(self, values) -> None:
        y = np.asarray(values, dtype=float) - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t

    @property
    def value(self) -> np.ndarray:
        return self._sum


def kahan_cumsum_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row compensated prefix sums (along axis 1, ascending column)."""
    m = np.asarray(matrix, dtype=float)
    out = np.empty_like(m)
    acc = KahanAccumulator(m.shape[0])
    for j in range(m.shape[1]):
        acc.add(m[:, j])
        out[:, j] = acc.value
    return out


def fsum_matrix(matrix: np.ndarray) -> float:
    """Exactly-rounded sum of all entries (fsum of row fsums)."""
    m = np.asarray(matrix, dtype=float)
    return math.fsum(math.fsum(row) for row in m)


def antidiagonal_sums(matrix: np.ndarray) -> np.ndarray:
    """Exactly-rounded sums over anti-diagonals i + j = s of a square matrix.

    Entry ``s`` of the result sums matrix[i][j] with i + j == s, for
    s = 0 .. 2n-2.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"antidiagonal_sums expects a square matrix, got {m.shape}")
    flipped = np.fliplr(m)
    return np.array(
        [math.fsum(flipped.diagonal(offset)) for offset in range(n - 1, -n, -1)]
    )
