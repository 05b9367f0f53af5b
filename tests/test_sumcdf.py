"""Sum-distribution integration tests.

The lattice mode is checked against a literal transcription of the
reference loop on small grids; the refined mode against adaptive 2-D
quadrature (scipy) and the closed-form normal answer for the Gauss family.
``antidiagonal_sums`` is checked bitwise against a literal loop in its
fixed summation order, and against ``math.fsum`` within the error bound of
recursive summation.
"""

import functools
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

import fz_oracle

import sumdist
from sumdist import jointdensity, sumcdf
from sumdist.copula import CopulaFamily, CopulaSpec, spec_from_rho
from sumdist.errors import DomainError, QuantileOutOfRange
from sumdist.grid import PAPER_GRID, GridSpec
from sumdist.jointdensity import _grid_on_axes, joint_pdf, joint_pdf_grid
from sumdist.specfun import std_normal_cdf
from sumdist.sumcdf import (
    TABLE2_RHOS,
    DistributionTable,
    QuantileReport,
    TableMode,
    antidiagonal_sums,
    cdf_paper_exact,
    cdf_refined,
    integrators,
    quantile,
    quantile_sweep,
)

ALL_FAMILIES = list(CopulaFamily)

# unit roundoff of IEEE double precision
U = 2.0**-53


def _diagonals(m: np.ndarray) -> list[list[float]]:
    """The anti-diagonals i + j = s of a square matrix, each in ascending row order."""
    n = m.shape[0]
    rows = m.tolist()
    return [[rows[i][s - i] for i in range(max(0, s - n + 1), min(s, n - 1) + 1)] for s in range(2 * n - 1)]


def _ascending_row_sums(m: np.ndarray) -> np.ndarray:
    """Each anti-diagonal added term by term in ascending row order: the reference for ``antidiagonal_sums``."""
    out = []
    for diagonal in _diagonals(m):
        total = 0.0
        for v in diagonal:
            total += v
        out.append(total)
    return np.array(out)


def _fsum_diagonals(m: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each anti-diagonal."""
    return np.array([math.fsum(d) for d in _diagonals(m)])


def _kahan_add(acc, values):
    """One step of Kahan-compensated summation on (total, compensation)."""
    total, comp = acc
    y = values - comp
    t = total + y
    return t, (t - total) - y


def _stress_matrices(case: str) -> list[np.ndarray]:
    """Matrices chosen to stress a summation: ties, subnormals, cancellation, zeros."""
    if case == "small":
        out = []
        for n in (1, 2, 3):
            rng = np.random.default_rng(n)
            out += [rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, n)) for _ in range(200)]
        return out
    if case == "ties":
        # 1 + 2**-53 is halfway between 1 and its successor, and
        # 1 + 2**-52 + 2**-53 halfway between it and the next: the two
        # round in opposite directions under round-half-even
        half_ulp = np.ldexp(1.0, -53)
        out = []
        for tail in ([half_ulp, 0.0], [np.ldexp(1.0, -52), half_ulp], [half_ulp, np.ldexp(1.0, -106)]):
            m = np.zeros((3, 3))
            m[0, 2], m[1, 1], m[2, 0] = 1.0, *tail
            out.append(m)
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            for _ in range(300):
                ints = rng.integers(-8, 9, (n, n)).astype(float)
                out.append(np.ldexp(ints, rng.integers(-60, 1, (n, n))))
        return out
    if case == "subnormals":
        rng = np.random.default_rng(12)
        out = [np.full((4, 4), 5e-324)]
        for n in (2, 3, 6):
            for _ in range(200):
                ints = rng.integers(-9, 10, (n, n)).astype(float)
                out.append(np.ldexp(ints, rng.integers(-1074, -1015, (n, n))))
        return out
    if case == "mixed_signs":
        rng = np.random.default_rng(13)
        out = []
        for n in (3, 7, 16):
            for _ in range(100):
                sign = rng.choice([-1.0, 1.0], (n, n))
                out.append(sign * 10.0 ** rng.uniform(-17.0, 17.0, (n, n)))
        return out
    if case == "zero_diagonals":
        m = np.random.default_rng(14).standard_normal((6, 6))
        i, j = np.indices(m.shape)
        m[(i + j) % 3 == 0] = 0.0
        return [np.zeros((5, 5)), m]
    assert case == "clayton_cell"
    # Clayton densities at rho = 0.9 on the cell midpoints and the lower
    # cell edges: positive entries over hundreds of orders of magnitude,
    # shaped as the density grids are
    spec = spec_from_rho(CopulaFamily.CLAYTON, 0.9)
    mids = PAPER_GRID.cell_midpoints()
    lower_edges = PAPER_GRID.axis_points()[:-1]
    return [_grid_on_axes(spec, xs, ys) for xs, ys in ((mids, mids), (mids, lower_edges), (lower_edges, mids))]


STRESS_CASES = ["small", "ties", "subnormals", "mixed_signs", "zero_diagonals", "clayton_cell"]


class TestAntidiagonalSums:
    @pytest.mark.parametrize("case", STRESS_CASES)
    def test_adds_each_diagonal_in_ascending_row_order(self, case):
        # the reproducibility contract: a fixed order of additions, so fixed bits
        for m in _stress_matrices(case):
            got = antidiagonal_sums(m)
            want = _ascending_row_sums(m)
            assert got.shape == want.shape == (2 * m.shape[0] - 1,)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), np.flatnonzero(got != want)

    @pytest.mark.parametrize("case", STRESS_CASES)
    def test_within_recursive_summation_bound(self, case):
        # the accuracy contract: a recursive sum of k terms is within
        # (k - 1) u sum|a| of the exact sum (Rump, "Error estimation of
        # floating-point summation and dot product", BIT 2012), and math.fsum
        # within half an ulp, at most u |sum|, of it
        for m in _stress_matrices(case):
            got = antidiagonal_sums(m)
            want = _fsum_diagonals(m)
            diagonals = _diagonals(m)
            terms = np.array([len(d) for d in diagonals])
            mass = np.array([math.fsum(abs(v) for v in d) for d in diagonals])
            bound = (terms - 1) * U * mass + U * np.abs(want)
            assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) - bound)

    def test_entries_in_order(self):
        m = np.arange(9.0).reshape(3, 3)
        assert antidiagonal_sums(m).tolist() == [0.0, 4.0, 12.0, 12.0, 8.0]

    def test_rejects_non_square(self):
        for shape in ((2, 3), (2, 2, 2)):
            with pytest.raises(ValueError, match=rf"square matrix with n >= 1, got shape {re.escape(str(shape))}"):
                antidiagonal_sums(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 0), ()], ids=["0x0", "0-d"])
    def test_rejects_empty_and_scalar(self, shape):
        with pytest.raises(ValueError, match=rf"square matrix with n >= 1, got shape {re.escape(str(shape))}"):
            antidiagonal_sums(np.zeros(shape))

    # row-block heights: the default, every row its own block, and heights
    # that do not divide n (a height above n is one ragged block)
    @pytest.mark.parametrize("height", [None, 1, 2, 7, 500])
    @pytest.mark.parametrize("n", [1, 2, 3, 129, 300])
    def test_row_blocks(self, n, height, monkeypatch):
        if height is not None:
            monkeypatch.setattr(sumcdf, "_REDUCE_CELLS", height * n)
        rng = np.random.default_rng(n)
        m = rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, n))
        want = _ascending_row_sums(m)
        assert np.array_equal(antidiagonal_sums(m).view(np.int64), want.view(np.int64))

    def test_default_blocks_are_ragged(self):
        # the row-block tests above cover a last block shorter than the rest
        for n in (129, 300):
            assert n % (sumcdf._REDUCE_CELLS // n) != 0

    def test_non_contiguous_input(self):
        m = np.random.default_rng(15).standard_normal((57, 57))
        for view in (m[::-1], m.T, m[::2, ::2], m[1:, :-1]):
            assert not view.flags.c_contiguous
            want = _ascending_row_sums(np.ascontiguousarray(view))
            assert np.array_equal(antidiagonal_sums(view).view(np.int64), want.view(np.int64))

    def test_integer_matrix(self):
        m = np.arange(-200, 200).reshape(20, 20)
        got = antidiagonal_sums(m)
        assert got.dtype == np.float64
        assert got.tolist() == _ascending_row_sums(m.astype(float)).tolist()


# block-sized arrays each family's kernel holds at once, numpy's buffers
# included
_KERNEL_BLOCKS = {
    CopulaFamily.GAUSS: 4,
    CopulaFamily.STUDENT_T: 4,
    CopulaFamily.CLAYTON: 5,
    CopulaFamily.GUMBEL: 5,
    CopulaFamily.FRANK: 4,
}


class TestAllocations:
    # tracemalloc sees numpy's buffers; both bounds would fail for a copy of
    # the whole matrix or grid per pass

    def test_antidiagonal_sums_allocates_a_small_fraction_of_the_matrix(self):
        m = np.random.default_rng(16).random((1001, 1001))
        antidiagonal_sums(m[:3, :3])
        tracemalloc.start()
        try:
            antidiagonal_sums(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes / 10

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_square_grid_allocates_the_output_plus_blocks(self, family):
        # in blocks of jointdensity._BLOCK_CELLS float64 entries: the shared
        # weights, and the arrays a kernel holds at once, counting numpy's
        # buffers for the broadcast operands of an outer-product ufunc (up to
        # two, of 8,192 entries each), plus half a block for the axis terms.
        # The out-of-place kernels peaked at 6.2 (t) to 11.9 (Frank) blocks
        # over the output; Gauss's 5.1 is unchanged
        blocks = 1 + _KERNEL_BLOCKS[family] + 0.5
        axis = GridSpec(step=0.025).cell_midpoints()
        spec = spec_from_rho(family, 0.9)
        _grid_on_axes(spec, axis, axis)
        tracemalloc.start()
        try:
            grid = _grid_on_axes(spec, axis, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.shape == (400, 400)
        assert peak <= grid.nbytes + blocks * jointdensity._BLOCK_CELLS * 8


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming on Linux"
)
def test_table2_sweep_keeps_its_heap_resident():
    # glibc hands a freed heap top above its trim threshold back to the
    # system; a sweep whose blocks or grids free that much faults the pages
    # in again for the next one: about 12,300 minor faults per warm Table 2
    # sweep with 16,384-point blocks, out-of-place kernels and a new output
    # grid per cell.  With in-place kernels, 8,192-point blocks and one
    # output grid per shape the sweep takes under 100, with or without
    # compiled bytecode
    code = (
        "import resource\n"
        "from sumdist import TABLE2_RHOS, CopulaFamily, quantile_sweep\n"
        "faults = []\n"
        "for _ in range(2):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    quantile_sweep(list(CopulaFamily), TABLE2_RHOS)\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(faults[1])"
    )
    src = os.path.dirname(os.path.dirname(sumdist.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 1000


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        assert g.n_cells == 200
        assert len(g.axis_points()) == 201
        assert g.axis_points()[0] == -5.0 and g.axis_points()[-1] == 5.0
        assert len(g.z_values()) == 201

    def test_validation(self):
        with pytest.raises(DomainError, match="rounds to 0"):
            GridSpec(half_width=1e-12, step=1.0)  # no cell at all
        with pytest.raises(DomainError):
            GridSpec(step=0.0)
        with pytest.raises(DomainError):
            GridSpec(half_width=5.0, step=0.033)  # lattice does not close
        with pytest.raises(DomainError):
            GridSpec(z_min=2.0, z_max=-2.0)
        with pytest.raises(DomainError):
            GridSpec(z_step=-0.1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"step": 1e-4}, "half_width and step give 100000 cells per axis, above the limit of 8192"),
            ({"half_width": math.inf}, "half_width and step give inf cells per axis"),
            ({"z_min": -1e15, "z_max": 1e15}, "z_min, z_max and z_step give 40000000000000001 z values, above the limit of 16777216"),
            ({"z_max": math.inf}, "give inf z values"),
            ({"z_min": -1e308, "z_max": 1e308}, "give inf z values"),
        ],
    )
    def test_size_limits(self, kwargs, message):
        # decided from the counts: no array is built
        with pytest.raises(DomainError, match=re.escape(message)):
            GridSpec(**kwargs)

    def test_largest_grid_within_the_size_limits(self):
        g = GridSpec(step=5.0 / 4096, z_min=0.0, z_max=2.0**24 - 1.0, z_step=1.0)
        assert g.n_cells == 2**13 and g._z_count() == 2**24
        with pytest.raises(DomainError, match="8194 cells per axis"):
            GridSpec(step=5.0 / 4097)
        with pytest.raises(DomainError, match="16777217 z values"):
            GridSpec(z_min=0.0, z_max=2.0**24, z_step=1.0)

    @pytest.mark.parametrize("z_step, count, last", [(0.35, 29, 4.8), (0.15, 67, 4.9)])
    def test_z_values_stop_at_z_max(self, z_step, count, last):
        # a step that does not divide the range ends at the last point below z_max
        z = GridSpec(z_step=z_step).z_values()
        assert len(z) == count
        assert z[-1] == pytest.approx(last, abs=1e-12) and z[-1] <= 5.0

    def test_z_lattice_indices(self):
        g = GridSpec(half_width=1.0, step=0.5, z_min=-3.0, z_max=1.0, z_step=0.5)
        assert g.z_lattice_indices().tolist() == [-2, -1, 0, 1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("integrate", [cdf_paper_exact, cdf_refined])
    def test_smallest_grid(self, integrate):
        # one cell on each side of 0: a 3 x 3 lattice, 2 x 2 cells
        grid = GridSpec(half_width=1.0, step=1.0, z_min=-3.0, z_max=3.0, z_step=1.0)
        table = integrate(CopulaSpec.gauss(0.5), grid)
        assert table.z_values.tolist() == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        assert np.all(np.isfinite(table.raw_F_values))
        assert 0.0 < table.F_values[-1] <= 1.0

    def test_midpoints(self):
        g = GridSpec(half_width=1.0, step=0.5, z_min=-1.0, z_max=1.0, z_step=0.5)
        assert np.allclose(g.cell_midpoints(), [-0.75, -0.25, 0.25, 0.75])


class TestDistributionTable:
    def test_f_is_derived_from_raw(self):
        # clamped at 0, nondecreasing by a running maximum, capped at 1
        t = DistributionTable(
            z_values=np.array([0.0, 1.0, 2.0, 3.0]),
            raw_F_values=np.array([-1e-13, 0.2, 0.1, 1.0 + 5e-7]),
            spec=CopulaSpec.gauss(0.5),
            mode=TableMode.REFINED,
        )
        assert t.F_values.tolist() == [0.0, 0.2, 0.2, 1.0]
        assert t.raw_F_values.tolist() == [-1e-13, 0.2, 0.1, 1.0 + 5e-7]
        with pytest.raises(ValueError):
            t.F_values[0] = 0.5

    def test_rejects_raw_overshoot(self):
        with pytest.raises(DomainError):
            DistributionTable(
                z_values=np.array([0.0, 1.0]),
                raw_F_values=np.array([0.5, 1.1]),
                spec=CopulaSpec.gauss(0.5),
                mode=TableMode.REFINED,
            )

    def test_rejects_non_finite_raw(self):
        # a NaN compares false with every bound, so it needs its own check
        with pytest.raises(DomainError, match="not finite"):
            DistributionTable(
                z_values=np.array([0.0, 1.0]),
                raw_F_values=np.array([0.5, np.nan]),
                spec=CopulaSpec.frank(138.8),
                mode=TableMode.PAPER_EXACT,
            )

    def test_arrays_read_only(self):
        t = cdf_paper_exact(CopulaSpec.gauss(0.5), GridSpec(half_width=2.0, step=0.5, z_min=-2.0, z_max=2.0, z_step=0.5))
        with pytest.raises(ValueError):
            t.F_values[0] = 0.0


def literal_lattice_reference(spec, grid):
    """Direct transcription of the three-way-branch lattice loop (slow)."""
    xs = grid.axis_points()
    n1 = xs.size
    out = []
    for z in grid.z_values():
        total = 0.0
        for i in range(n1):
            ylimit = z - xs[i]
            if ylimit >= grid.half_width - 1e-9:
                j_top = n1 - 1
            elif ylimit <= -grid.half_width + 1e-9:
                j_top = 0
            else:
                matches = np.flatnonzero(np.abs(xs - ylimit) < 0.001)
                assert matches.size == 1
                j_top = int(matches[0])
            for j in range(j_top + 1):
                total += joint_pdf(spec, float(xs[i]), float(xs[j])) * grid.step * grid.step
        out.append(total)
    return np.array(out)


def per_row_kahan_reference(spec, grid):
    """The per-row Kahan reduction that ``cdf_paper_exact`` replaced: the reference for its sums.

    Each lattice column x_i is summed along y by a Kahan prefix sum, and the
    columns' values at the saturated boundary index are Kahan-summed over i.
    """
    dens = joint_pdf_grid(spec, grid)
    n = grid.n_cells
    m_z = np.rint((grid.z_values() + 2.0 * grid.half_width) / grid.step).astype(int)
    acc = (np.zeros(n + 1), np.zeros(n + 1))
    prefix = np.empty_like(dens)
    for j in range(n + 1):
        acc = _kahan_add(acc, dens[:, j])
        prefix[:, j] = acc[0]
    acc = (np.zeros(m_z.shape), np.zeros(m_z.shape))
    for i in range(n + 1):
        acc = _kahan_add(acc, prefix[i, np.clip(m_z - i, 0, n)])
    return acc[0] * grid.step * grid.step


def _assert_within_summation_bound(got, want, points):
    """|got - want| <= (3N + 8) u want for F from a lattice of N points per axis.

    Both sides sum the same non-negative density values.  Every rounding in
    a sum of non-negative terms scales a partial sum by some 1 + d with
    |d| <= u, so a term carried through k roundings moves F by at most
    k u of its share, and F by at most k u F over all terms (to first
    order).  In ``cdf_paper_exact`` a density value passes through at most
    N - 1 roundings in its anti-diagonal, 2N - 2 in the cumulative sum over
    the 2N - 1 diagonals, one in adding the saturated column and two in
    the products by step, 3N in all.  In ``cdf_refined`` the cell-center
    path is the same (the added triangle term stands in for the saturated
    column).  The triangle D_{m-1}/2 - (D_m - D_{m-2})/12 passes a term of
    D_{m-1} through N - 1 + 1 + 1 + 2 = N + 3 roundings (halving is exact)
    and a term of the stencil's D_m or D_{m-2} through N + 5 <= 3N; the
    stencil's terms carry weight 1/12, and D_m/12 stays below 2% of F/s^2
    on the grids tested here (1.3% at most).  The references round each
    diagonal correctly or Kahan-sum each column (u or 2u), Kahan-sum the
    rest (2u), and round two products (2u); the refined triangle adds three
    more roundings (the difference, / 12 and the subtraction).  So each is
    within 7u F of the exact sum, the two within (3N + 7) u F, and the test
    allows one u more for the second-order terms.  Observed differences are
    about 1e-15.
    """
    got, want = np.asarray(got), np.asarray(want)
    bound = (3 * points + 8) * U * want
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) / want)


class TestPaperExact:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("rho", [0.9, 0.3])
    def test_matches_per_row_reduction(self, family, rho):
        spec = spec_from_rho(family, rho)
        got = cdf_paper_exact(spec).raw_F_values
        _assert_within_summation_bound(got, per_row_kahan_reference(spec, PAPER_GRID), PAPER_GRID.n_cells + 1)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_per_row_reduction_past_both_saturations(self, family):
        # z from -6 to 6 on a [-2, 2] lattice: boundary indices m < 0 and m > 2n
        grid = GridSpec(half_width=2.0, step=0.5, z_min=-6.0, z_max=6.0, z_step=0.5)
        spec = spec_from_rho(family, 0.5)
        got = cdf_paper_exact(spec, grid).raw_F_values
        _assert_within_summation_bound(got, per_row_kahan_reference(spec, grid), grid.n_cells + 1)
        assert got[0] > 0.0 and got[0] == got[3]  # z <= -4.5 keeps the column y_0 whole
        assert got[-1] == got[-4]  # z >= 4.5 keeps every point

    def test_accumulates_in_fixed_order(self):
        # the order of every addition is part of the result: diagonals in
        # ascending order, the saturated column y_0 from x_n down to x_0
        grid = GridSpec(half_width=2.0, step=0.25, z_min=-5.0, z_max=5.0, z_step=0.25)
        spec = spec_from_rho(CopulaFamily.GUMBEL, 0.7)
        dens = joint_pdf_grid(spec, grid)
        n = grid.n_cells
        below, total = [0.0], 0.0
        for d in _ascending_row_sums(dens).tolist():
            total += d
            below.append(total)
        saturated, total = [0.0], 0.0
        for v in dens[::-1, 0].tolist():
            total += v
            saturated.insert(0, total)
        m_z = np.rint((grid.z_values() + 2.0 * grid.half_width) / grid.step).astype(int).tolist()
        want = [(below[min(max(m, -1), 2 * n) + 1] + saturated[min(max(m + 1, 0), n + 1)]) * grid.step * grid.step for m in m_z]
        got = cdf_paper_exact(spec, grid).raw_F_values
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))

    def test_matches_literal_loop_on_small_grids(self):
        grid = GridSpec(half_width=1.5, step=0.5, z_min=-1.5, z_max=1.5, z_step=0.5)
        for spec in [CopulaSpec.gauss(0.5), CopulaSpec.clayton(5.0), CopulaSpec.student_t(0.9, 4.0)]:
            table = cdf_paper_exact(spec, grid)
            ref = literal_lattice_reference(spec, grid)
            assert np.allclose(table.raw_F_values, ref, rtol=0, atol=1e-12)

    def test_gauss_center_value(self):
        table = cdf_paper_exact(CopulaSpec.gauss(0.9))
        k = int(np.argmin(np.abs(table.z_values)))
        assert table.F_values[k] == pytest.approx(0.5, abs=0.01)

    def test_gauss_rho09_lattice_quantiles(self):
        table = cdf_paper_exact(CopulaSpec.gauss(0.9))
        assert quantile(table, 0.99) == pytest.approx(4.53, abs=0.05 + 1e-9)
        assert quantile(table, 0.95) == pytest.approx(3.21, abs=0.05 + 1e-9)

    def test_clayton_rho09_q99(self):
        table = cdf_paper_exact(spec_from_rho(CopulaFamily.CLAYTON, 0.9))
        assert quantile(table, 0.99) == pytest.approx(4.00, abs=0.05 + 1e-9)

    def test_gumbel_rho09_q99(self):
        table = cdf_paper_exact(spec_from_rho(CopulaFamily.GUMBEL, 0.9))
        assert quantile(table, 0.99) == pytest.approx(4.60, abs=0.05 + 1e-9)

    def test_off_lattice_z_rejected(self):
        with pytest.raises(DomainError):
            cdf_paper_exact(CopulaSpec.gauss(0.5), GridSpec(z_min=-5.0, z_max=5.0, z_step=0.07))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_raw_monotone_up_to_float_noise(self, family, rho):
        table = cdf_paper_exact(spec_from_rho(family, rho))
        assert float(np.min(np.diff(table.raw_F_values))) > -1e-9

    def test_first_order_convergence(self):
        for family in ALL_FAMILIES:
            tables = {
                step: cdf_paper_exact(
                    spec_from_rho(family, 0.9),
                    GridSpec(step=step, z_min=-2.0, z_max=2.0, z_step=2.0),
                )
                for step in (0.1, 0.05, 0.025)
            }
            f1 = tables[0.1].raw_F_values
            f2 = tables[0.05].raw_F_values
            f4 = tables[0.025].raw_F_values
            assert np.all(np.abs(f1 - f2) <= 4.0 * np.abs(f2 - f4) + 1e-6)


def centroid_rule_refined_raw(spec, grid):
    """Raw refined F by the rule of ``cdf_refined``, summed more accurately.

    The cell-center grid's anti-diagonal sums are correctly rounded and
    accumulated with Kahan summation; the triangle stencil
    D_{m-1}/2 - (D_m - D_{m-2})/12, with D = 0 off the square and held to
    [0, D_{m-1}], is taken in Python floats.
    """
    n = grid.n_cells
    mids = grid.cell_midpoints()
    diag = _fsum_diagonals(_grid_on_axes(spec, mids, mids)).tolist()
    acc, cum = (0.0, 0.0), []
    for d in diag:
        acc = _kahan_add(acc, d)
        cum.append(acc[0])

    def d_at(k):
        return diag[k] if 0 <= k <= 2 * n - 2 else 0.0

    m_z = np.rint((grid.z_values() + 2.0 * grid.half_width) / grid.step).astype(int)
    raw = []
    for m in m_z.tolist():
        full = cum[min(m - 2, 2 * n - 2)] if m >= 2 else 0.0
        tri = 0.0
        if 0 <= m - 1 <= 2 * n - 2:
            tri = min(max(d_at(m - 1) / 2.0 - (d_at(m) - d_at(m - 2)) / 12.0, 0.0), d_at(m - 1))
        raw.append((full + tri) * grid.step * grid.step)
    return np.array(raw)


# the largest |raw F - F_Z| over z in fz_oracle.ZS, measured and rounded up
# at two digits; the grid modes' own error (lattice bias and truncation),
# not rounding, sets each
ORACLE_BOUNDS = {
    # paper-exact on PAPER_GRID: the lattice reading's bias
    ("paper-exact", 0.05): {
        0.9: {"gauss": 5.2e-3, "clayton": 4.9e-3, "gumbel": 5.2e-3, "frank": 5.0e-3, "t": 5.2e-3},
        0.5: {"gauss": 5.8e-3, "clayton": 5.8e-3, "gumbel": 5.9e-3, "frank": 5.5e-3, "t": 6.1e-3},
        0.1: {"gauss": 6.8e-3, "clayton": 6.8e-3, "gumbel": 6.9e-3, "frank": 6.7e-3, "t": 7.4e-3},
    },
    ("refined", 0.05): {
        0.9: {"gauss": 1.1e-5, "clayton": 1.4e-5, "gumbel": 1.2e-5, "frank": 1.2e-5, "t": 1.1e-5},
        0.5: {"gauss": 1.2e-5, "clayton": 1.3e-5, "gumbel": 1.3e-5, "frank": 1.4e-5, "t": 1.0e-5},
        0.1: {"gauss": 1.1e-5, "clayton": 9.7e-6, "gumbel": 1.1e-5, "frank": 1.1e-5, "t": 8.1e-6},
    },
    ("refined", 0.025): {
        0.9: {"gauss": 3.1e-6, "clayton": 3.2e-6, "gumbel": 3.3e-6, "frank": 3.4e-6, "t": 3.0e-6},
        0.5: {"gauss": 3.3e-6, "clayton": 2.9e-6, "gumbel": 3.5e-6, "frank": 3.9e-6, "t": 2.9e-6},
        0.1: {"gauss": 3.1e-6, "clayton": 2.9e-6, "gumbel": 3.1e-6, "frank": 3.2e-6, "t": 2.3e-6},
    },
}


def _oracle_f_z(family: str, rho: float, z: float) -> float:
    """F_Z(z) from ``fz_oracle``, or for Gauss from its closed form Phi(z / sqrt(2 + 2 rho))."""
    if family == "gauss":
        return float(mpmath.ncdf(mpmath.mpf(z) / mpmath.sqrt(2 + 2 * mpmath.mpf(rho))))
    return float(fz_oracle.POINTS[(family, rho, z)])


class TestAgainstOracle:
    """The grid modes against the frozen F_Z values of ``fz_oracle``, which
    share no formula with sumdist, and against the Gauss closed form."""

    @pytest.mark.parametrize("family", ("gauss",) + fz_oracle.FAMILIES)
    @pytest.mark.parametrize("rho", fz_oracle.RHOS)
    @pytest.mark.parametrize("mode, step", list(ORACLE_BOUNDS))
    def test_within_the_measured_bound(self, family, rho, mode, step):
        spec = spec_from_rho(CopulaFamily(family), rho, fz_oracle.NU)
        if family in ("clayton", "gumbel", "frank"):
            # the oracle's literal theta is this spec's
            assert spec.theta == fz_oracle.THETAS[(family, rho)]
        grid = PAPER_GRID if mode == "paper-exact" else GridSpec(step=step, z_step=step)
        assert grid.step == step
        table = integrators()[TableMode(mode)](spec, grid)
        for z in fz_oracle.ZS:
            (k,) = np.flatnonzero(np.isclose(table.z_values, z, rtol=0, atol=1e-9))
            bound = ORACLE_BOUNDS[(mode, step)][rho][family]
            assert abs(table.raw_F_values[k] - _oracle_f_z(family, rho, z)) <= bound, z

    @pytest.mark.parametrize("rho", fz_oracle.RHOS)
    def test_the_oracle_keeps_its_symmetries(self, rho):
        # Frank and t are radially symmetric, so F_Z(-z) = 1 - F_Z(z)
        for family in ("frank", "t"):
            assert fz_oracle.POINTS[(family, rho, 0.0)] == "0.5"
            low, high = (mpmath.mpf(fz_oracle.POINTS[(family, rho, z)]) for z in (-3.0, 3.0))
            assert abs(low + high - 1) <= mpmath.mpf("1e-25")


class TestRefined:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("rho", [0.9, 0.5, 0.1])
    @pytest.mark.parametrize("step", [0.05, 0.025])
    def test_matches_accurately_summed_reference(self, family, rho, step):
        spec = spec_from_rho(family, rho)
        grid = GridSpec(step=step, z_step=step)
        got = cdf_refined(spec, grid).raw_F_values
        _assert_within_summation_bound(got, centroid_rule_refined_raw(spec, grid), grid.n_cells)

    def test_builds_one_grid_on_the_cell_midpoints(self, monkeypatch):
        calls = []

        def counted(spec, xs, ys):
            calls.append((xs, ys))
            return original(spec, xs, ys)

        original = sumcdf._grid_on_axes
        monkeypatch.setattr(sumcdf, "_grid_on_axes", counted)
        grid = GridSpec(step=0.1, z_step=0.1)
        cdf_refined(spec_from_rho(CopulaFamily.CLAYTON, 0.9), grid)
        assert len(calls) == 1
        ((xs, ys),) = calls
        assert np.array_equal(xs, grid.cell_midpoints())
        assert np.array_equal(ys, grid.cell_midpoints())

    @pytest.mark.parametrize(
        "rho, step, sup", [(-0.99, 0.1, 7.2e-3), (-0.99, 0.05, 2.4e-3), (-0.999, 0.05, 1.2e-2), (-0.999, 0.025, 5.1e-3)]
    )
    def test_under_resolved_tails_keep_the_triangles_non_negative(self, rho, step, sup):
        # Z has sd 0.14 (rho = -0.99) or 0.045 (-0.999), a few steps at most,
        # so the density grows by far more than the stencil's linear term
        # from one anti-diagonal to the next; unheld to [0, D], the lower
        # triangles there go negative and F below -1e-12 in every case.  sup
        # is the measured error, rounded up at two digits
        table = cdf_refined(CopulaSpec.gauss(rho), GridSpec(step=step, z_step=step))
        assert np.min(table.raw_F_values) >= 0.0
        want = ndtr(table.z_values / math.sqrt(2.0 + 2.0 * rho))
        assert np.max(np.abs(table.raw_F_values - want)) <= sup

    @pytest.mark.parametrize("rho, q99", [(0.997, 4.6217), (0.999, 4.6648)])
    def test_frank_near_comonotone(self, rho, q99):
        # theta = 79.4 and 138.8: the Frank kernel's denominator must not cancel
        grid = GridSpec(step=0.025, z_step=0.025)
        table = cdf_refined(spec_from_rho(CopulaFamily.FRANK, rho), grid)
        assert np.all(np.isfinite(table.raw_F_values))
        assert quantile(table, 0.99) == pytest.approx(q99, abs=1e-4)

    def test_gauss_analytic_anchor(self):
        # closed form: Z ~ N(0, sqrt(2 + 2 rho)) for the Gauss copula
        for rho in [0.1, 0.5, 0.9]:
            table = cdf_refined(CopulaSpec.gauss(rho))
            sigma = math.sqrt(2.0 + 2.0 * rho)
            sup = max(
                abs(f - std_normal_cdf(z / sigma))
                for z, f in zip(table.z_values, table.F_values)
            )
            assert sup <= 5e-3

    def test_against_adaptive_quadrature(self):
        from scipy import integrate

        for spec in [CopulaSpec.gauss(0.5), CopulaSpec.clayton(5.0)]:
            table = cdf_refined(spec)
            for z in (-1.0, 0.55, 2.0):
                expected, err = integrate.dblquad(
                    lambda y, x: joint_pdf(spec, x, y),
                    -5.0,
                    5.0,
                    lambda x: -5.0,
                    lambda x, _z=z: min(max(_z - x, -5.0), 5.0),
                    epsabs=1e-10,
                )
                k = int(np.argmin(np.abs(table.z_values - z)))
                assert table.F_values[k] == pytest.approx(expected, abs=5e-5)

    def test_total_mass(self):
        for family in ALL_FAMILIES:
            grid = GridSpec(z_min=9.0, z_max=10.0, z_step=0.5)
            table = cdf_refined(spec_from_rho(family, 0.9), grid)
            assert table.raw_F_values[-1] >= 0.999
            assert table.raw_F_values[-1] >= 0.9999  # z_max = 2 * half_width

    def test_frank_median_symmetry(self):
        table = cdf_refined(spec_from_rho(CopulaFamily.FRANK, 0.9))
        k = int(np.argmin(np.abs(table.z_values)))
        assert table.F_values[k] == pytest.approx(0.5, abs=2e-3)

    @pytest.mark.parametrize("family", [CopulaFamily.GAUSS, CopulaFamily.STUDENT_T, CopulaFamily.FRANK])
    def test_radial_symmetry(self, family):
        # radially symmetric copulas give a symmetric sum distribution
        table = cdf_refined(spec_from_rho(family, 0.9))
        f = table.F_values
        assert np.max(np.abs(f[::-1] - (1.0 - f))) <= 5e-3

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_raw_monotone_up_to_float_noise(self, family, rho):
        table = cdf_refined(spec_from_rho(family, rho))
        assert float(np.min(np.diff(table.raw_F_values))) > -1e-9

    @pytest.mark.parametrize(
        "family,rho",
        [(f, 0.9) for f in ALL_FAMILIES] + [(CopulaFamily.GAUSS, 0.5), (CopulaFamily.CLAYTON, 0.5), (CopulaFamily.CLAYTON, 0.1)],
    )
    def test_second_order_convergence(self, family, rho):
        tables = {
            step: cdf_refined(
                spec_from_rho(family, rho),
                GridSpec(step=step, z_min=-2.0, z_max=2.0, z_step=2.0),
            )
            for step in (0.05, 0.025, 0.0125)
        }
        f1 = tables[0.05].raw_F_values
        f2 = tables[0.025].raw_F_values
        f4 = tables[0.0125].raw_F_values
        assert np.all(np.abs(f1 - f2) <= 4.0 * np.abs(f2 - f4) + 1e-6)


class TestBounds:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_paper_grid_covers_the_quantile_range(self, family):
        for rho in TABLE2_RHOS:
            table = cdf_paper_exact(spec_from_rho(family, rho))
            assert table.F_values[0] <= 0.01
            assert table.F_values[-1] >= 0.98

    @pytest.mark.parametrize(
        "build",
        [
            lambda spec: cdf_paper_exact(spec, PAPER_GRID),
            lambda spec: cdf_refined(spec, GridSpec(step=0.025, z_step=0.025)),
        ],
        ids=["paper_exact", "refined"],
    )
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_inside_makarov_band(self, family, build):
        # whatever the copula, max(2 Phi(z/2) - 1, 0) <= F_Z(z) <= min(2 Phi(z/2), 1)
        # (Makarov); the tables keep at least 0.006 away from either edge
        for rho in TABLE2_RHOS:
            table = build(spec_from_rho(family, rho))
            edge = 2.0 * ndtr(table.z_values / 2.0)
            assert np.all(edge - 1.0 <= table.F_values), rho
            assert np.all(table.F_values <= edge), rho


    @pytest.mark.parametrize("mode", list(TableMode))
    def test_t_nu_range_edges(self, mode):
        # the edges of CopulaSpec's nu range, over the Table 2 rhos in both modes
        build = cdf_paper_exact if mode is TableMode.PAPER_EXACT else cdf_refined
        for rho in TABLE2_RHOS:
            # nu = 0.2: a table (at 0.18 the rho = 0.9 one overshoots 1), inside the band
            table = build(CopulaSpec.student_t(rho, 0.2), GridSpec())
            edge = 2.0 * ndtr(table.z_values / 2.0)
            assert np.all(edge - 1.0 <= table.F_values) and np.all(table.F_values <= edge), rho
        # nu = 1e6: the gap to the Gauss limit is still its 0.0619 / nu (0.0642 at
        # 2e6; 1.1 at 2e7, where rounding error has taken over)
        nu, gaps = 1e6, []
        for rho in TABLE2_RHOS:
            t_values = build(CopulaSpec.student_t(rho, nu), GridSpec()).F_values
            gaps.append(np.max(np.abs(t_values - build(CopulaSpec.gauss(rho), GridSpec()).F_values)))
        assert 0.061 < max(gaps) * nu < 0.063


@functools.lru_cache(maxsize=None)
def _independence_table(mode: TableMode) -> DistributionTable:
    return integrators()[mode](CopulaSpec.gumbel(1.0), PAPER_GRID)


@pytest.mark.parametrize("mode", [TableMode.PAPER_EXACT, TableMode.REFINED])
@pytest.mark.parametrize(
    "spec",
    [*(CopulaSpec.clayton(theta) for theta in (1e-10, 1e-12, 1e-15, 1e-100)), CopulaSpec.frank(-1e-12)],
    ids=lambda s: repr(s.describe()),
)
def test_near_independence_tabulates_independence(spec, mode):
    # at theta = 1e-15 Clayton's closed-form density overshot 1 (raw F 1.0034)
    want = _independence_table(mode)
    got = integrators()[mode](spec, PAPER_GRID)
    assert got.raw_F_values.tobytes() == want.raw_F_values.tobytes()
    assert got.F_values.tobytes() == want.F_values.tobytes()


class TestQuantile:
    def test_lattice_convention(self):
        table = cdf_paper_exact(CopulaSpec.gauss(0.9))
        q = quantile(table, 0.95)
        # exactly a lattice value, and the previous lattice point is below q
        k = int(round((q - table.z_values[0]) / 0.05))
        assert table.z_values[k] == q
        assert table.F_values[k] >= 0.95 > table.F_values[k - 1]

    def test_refined_interpolates(self):
        table = cdf_refined(CopulaSpec.gauss(0.9), GridSpec(step=0.025, z_min=-5.0, z_max=5.0, z_step=0.025))
        q95 = quantile(table, 0.95)
        q99 = quantile(table, 0.99)
        # analytic: 1.6449/2.3263 times sqrt(3.8)
        assert q95 == pytest.approx(3.2064100058418254872, abs=1e-3)
        assert q99 == pytest.approx(4.5348868605519251864, abs=1e-3)

    def test_monotone_in_level(self):
        table = cdf_paper_exact(spec_from_rho(CopulaFamily.GUMBEL, 0.5))
        assert quantile(table, 0.95) < quantile(table, 0.99)

    def test_out_of_range(self):
        table = cdf_paper_exact(CopulaSpec.gauss(0.9))
        with pytest.raises(QuantileOutOfRange):
            quantile(table, 1e-9)
        with pytest.raises(QuantileOutOfRange):
            quantile(table, 1.0 - 1e-12)
        with pytest.raises(DomainError):
            quantile(table, 1.5)


class TestQuantileSweep:
    def test_rho_05_row_reproduces_headline_gaps(self):
        reports = quantile_sweep(
            [CopulaFamily.GAUSS, CopulaFamily.CLAYTON, CopulaFamily.GUMBEL], [0.5]
        )
        row = reports[0]
        q99_cl = row.values["clayton"][1]
        q99_gu = row.values["gumbel"][1]
        q99_ga = row.values["gauss"][1]
        assert q99_cl == pytest.approx(3.55, abs=0.05 + 1e-9)
        assert q99_gu == pytest.approx(4.30, abs=0.05 + 1e-9)
        assert q99_gu - q99_cl == pytest.approx(0.75, abs=0.1)
        assert q99_ga - q99_cl == pytest.approx(0.48, abs=0.1)

    def test_rho_01_gauss_q95(self):
        reports = quantile_sweep([CopulaFamily.GAUSS], [0.1])
        assert reports[0].values["gauss"][0] == pytest.approx(2.44, abs=0.05 + 1e-9)

    def test_q95_increases_with_rho(self):
        reports = quantile_sweep(ALL_FAMILIES, [0.1, 0.5, 0.9], nu=3.0)
        for fam in ALL_FAMILIES:
            q95s = [r.values[fam.value][0] for r in reports]
            assert q95s[0] <= q95s[1] <= q95s[2]
            assert q95s[0] < q95s[2]

    def test_rejects_rho_outside_unit_interval(self):
        with pytest.raises(DomainError):
            quantile_sweep([CopulaFamily.GAUSS], [1.2])

    def test_axes_transformed_once_per_sweep(self, monkeypatch):
        calls = []

        def counted(spec, u):
            calls.append(spec.family)
            return original(spec, u)

        original = jointdensity._axis_coordinate
        monkeypatch.setattr(jointdensity, "_axis_coordinate", counted)
        grid = GridSpec(step=0.2, z_step=0.2)
        rhos = (0.9, 0.5, 0.1)
        counts = []
        for _ in range(2):
            calls.clear()
            reports = quantile_sweep([CopulaFamily.STUDENT_T], rhos, grid=grid, mode=TableMode.REFINED)
            counts.append(len(calls))
        # one axis, the cell midpoints, shared across rho because the t
        # coordinate depends on nu only
        assert counts == [1, 1]
        assert jointdensity._AXIS_MEMO.get() is None
        for rho, report in zip(rhos, reports):
            table = cdf_refined(spec_from_rho(CopulaFamily.STUDENT_T, rho), grid)
            assert report.values["t"] == tuple(quantile(table, q) for q in report.qs)

        calls.clear()
        quantile_sweep(ALL_FAMILIES, rhos, grid=GridSpec(step=0.1, z_step=0.1))
        # one lattice axis per family: the coordinate depends on the family
        assert sorted(f.value for f in calls) == sorted(f.value for f in ALL_FAMILIES)

    def test_mode_routine_is_looked_up_per_call(self, monkeypatch):
        assert integrators() == {TableMode.PAPER_EXACT: cdf_paper_exact, TableMode.REFINED: cdf_refined}
        calls = []

        def counted(spec, grid):
            calls.append(spec.family)
            return cdf_refined(spec, grid)

        monkeypatch.setattr(sumcdf, "cdf_refined", counted)
        grid = GridSpec(step=0.2, z_step=0.2)
        quantile_sweep([CopulaFamily.GAUSS, CopulaFamily.FRANK], [0.5], grid=grid, mode=TableMode.REFINED)
        assert calls == [CopulaFamily.GAUSS, CopulaFamily.FRANK]

    def test_rejects_non_integration_mode(self):
        with pytest.raises(DomainError, match="sweep mode must be an integration mode"):
            quantile_sweep([CopulaFamily.GAUSS], [0.5], mode=TableMode.EMPIRICAL)

    def test_overshoot_error_names_its_cause(self):
        # at step 0.2 the paper-exact lattice overshoots F = 1 near z = 5
        with pytest.raises(DomainError) as info:
            quantile_sweep([CopulaFamily.CLAYTON], [0.9], grid=GridSpec(step=0.2, z_step=0.2))
        theta = spec_from_rho(CopulaFamily.CLAYTON, 0.9).theta
        message = str(info.value)
        assert f"clayton (theta={theta!r}) paper-exact table" in message
        assert "at z=5.0" in message and "beyond 1" in message

    def test_unbracketed_level_names_its_cause(self):
        with pytest.raises(QuantileOutOfRange) as info:
            quantile_sweep([CopulaFamily.GUMBEL], [0.9], [0.995])
        theta = spec_from_rho(CopulaFamily.GUMBEL, 0.9).theta
        message = str(info.value)
        assert f"gumbel (theta={theta!r}) paper-exact table" in message
        assert "on z in [-5.0, 5.0]" in message and "above it" in message

    def test_report_validation(self):
        with pytest.raises(DomainError):
            QuantileReport(rho=0.5, qs=(0.95, 0.99), values={"gauss": (3.0, 2.0)})
