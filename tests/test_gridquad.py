"""Compensated-summation primitives: bitwise agreement with ``math.fsum``.

``antidiagonal_sums`` promises the correctly rounded sum of every
anti-diagonal, so it must match a per-diagonal ``math.fsum`` bit for bit on
inputs chosen to stress the rounding: exact ties, subnormals, cancellation
over a wide dynamic range and diagonals of zeros.
"""

import math

import numpy as np
import pytest

from sumdist.copula import CopulaFamily, spec_from_rho
from sumdist.grid import PAPER_GRID
from sumdist.gridquad import antidiagonal_sums, kahan_cumsum
from sumdist.jointdensity import JointDensityModel, _grid_on_axes


def _fsum_diagonals(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    rows = m.tolist()
    return np.array(
        [math.fsum([rows[i][s - i] for i in range(max(0, s - n + 1), min(s, n - 1) + 1)]) for s in range(2 * n - 1)]
    )


def _assert_bitwise(m: np.ndarray) -> None:
    got = antidiagonal_sums(m)
    want = _fsum_diagonals(m)
    assert got.shape == want.shape == (2 * m.shape[0] - 1,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), np.flatnonzero(got != want)


class TestAntidiagonalSums:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_matrices(self, n):
        rng = np.random.default_rng(n)
        for _ in range(200):
            _assert_bitwise(rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, n)))

    def test_entries_in_order(self):
        m = np.arange(9.0).reshape(3, 3)
        assert antidiagonal_sums(m).tolist() == [0.0, 4.0, 12.0, 12.0, 8.0]

    def test_exact_ties(self):
        # 1 + 2**-53 is halfway between 1 and its successor, and
        # 1 + 2**-52 + 2**-53 halfway between it and the next: the two
        # round in opposite directions under round-half-even
        half_ulp = np.ldexp(1.0, -53)
        for tail in ([half_ulp, 0.0], [np.ldexp(1.0, -52), half_ulp], [half_ulp, np.ldexp(1.0, -106)]):
            m = np.zeros((3, 3))
            m[0, 2], m[1, 1], m[2, 0] = 1.0, *tail
            _assert_bitwise(m)
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            for _ in range(300):
                ints = rng.integers(-8, 9, (n, n)).astype(float)
                _assert_bitwise(np.ldexp(ints, rng.integers(-60, 1, (n, n))))

    def test_subnormals(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 6):
            for _ in range(200):
                ints = rng.integers(-9, 10, (n, n)).astype(float)
                _assert_bitwise(np.ldexp(ints, rng.integers(-1074, -1015, (n, n))))
        _assert_bitwise(np.full((4, 4), 5e-324))

    def test_mixed_signs_wide_range(self):
        rng = np.random.default_rng(13)
        for n in (3, 7, 16):
            for _ in range(100):
                sign = rng.choice([-1.0, 1.0], (n, n))
                _assert_bitwise(sign * 10.0 ** rng.uniform(-17.0, 17.0, (n, n)))

    def test_zero_diagonals(self):
        _assert_bitwise(np.zeros((5, 5)))
        m = np.random.default_rng(14).standard_normal((6, 6))
        i, j = np.indices(m.shape)
        m[(i + j) % 3 == 0] = 0.0
        _assert_bitwise(m)

    def test_refined_grids_of_a_clayton_cell(self):
        model = JointDensityModel(spec_from_rho(CopulaFamily.CLAYTON, 0.9))
        mids = PAPER_GRID.cell_midpoints()
        lower_edges = PAPER_GRID.axis_points()[:-1]
        for xs, ys in ((mids, mids), (mids, lower_edges), (lower_edges, mids)):
            _assert_bitwise(_grid_on_axes(model, xs, ys))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            antidiagonal_sums(np.zeros((2, 3)))


class KahanAccumulator:
    """Kahan-compensated accumulator over numpy scalars: the reference for ``kahan_cumsum``."""

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


def test_kahan_cumsum_matches_accumulator():
    values = (np.random.default_rng(15).standard_normal(500) * 10.0 ** np.arange(-250, 250)).tolist()
    acc = KahanAccumulator()
    want = []
    for v in values:
        acc.add(v)
        want.append(float(acc.value))
    assert np.array_equal(np.array(kahan_cumsum(values)).view(np.int64), np.array(want).view(np.int64))
