"""Joint density tests: composition consistency, normalization, margins."""

import math

import numpy as np
import pytest
from scipy import stats

from sumdist import jointdensity, specfun
from sumdist.copula import (
    UEPS,
    CopulaFamily,
    CopulaSpec,
    _axis_coordinate,
    _clamp_u,
    _density_from_coords,
    copula_density,
    spec_from_rho,
)
from sumdist.errors import DomainError
from sumdist.grid import GridSpec
from sumdist.jointdensity import joint_pdf, joint_pdf_grid

ALL_FAMILIES = list(CopulaFamily)


def specs_at(rho=0.9, nu=4.0):
    return [spec_from_rho(f, rho, nu) for f in ALL_FAMILIES]


class TestJointPdf:
    def test_gauss_independence_center(self):
        spec = CopulaSpec.gauss(0.0)
        assert joint_pdf(spec, 0.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_gauss_rho09_known_value(self):
        # (1/(2 pi sqrt(0.19))) exp(-0.2/0.38) = 0.21570851451891331624
        spec = CopulaSpec.gauss(0.9)
        assert joint_pdf(spec, 1.0, 1.0) == pytest.approx(0.21570851451891331624, rel=1e-10)

    def test_clayton_center_known_value(self):
        # c_cl(1/2, 1/2; theta=5) / (2 pi) = 0.43031067613975822329
        spec = CopulaSpec.clayton(5.0)
        assert joint_pdf(spec, 0.0, 0.0) == pytest.approx(0.43031067613975822329, rel=1e-10)

    def test_composition_consistency_all_families(self):
        # same code path as copula_density * phi * phi; guards against any
        # later drift between the two evaluation routes
        pts = [(-2.0, 1.0), (0.3, 0.4), (1.5, -1.5), (3.0, 3.0)]
        for spec in specs_at():
            for x, y in pts:
                direct = joint_pdf(spec, x, y)
                composed = (
                    copula_density(spec, specfun.std_normal_cdf(x), specfun.std_normal_cdf(y))
                    * specfun.std_normal_pdf(x)
                    * specfun.std_normal_pdf(y)
                )
                assert direct == pytest.approx(composed, rel=1e-12)

    def test_exchangeability_exact(self):
        for spec in specs_at():
            for x, y in [(0.5, -1.2), (2.0, 3.0), (-4.0, 0.1)]:
                assert joint_pdf(spec, x, y) == joint_pdf(spec, y, x)

    def test_underflow_policy(self):
        spec = CopulaSpec.gauss(0.9)
        assert joint_pdf(spec, 30.0, -30.0) == 0.0

    def test_t_copula_density_positive_and_finite_far_out(self):
        spec = CopulaSpec.student_t(0.9, 4.0)
        v = joint_pdf(spec, 8.0, 8.0)
        assert math.isfinite(v) and v > 0.0

    def test_t_composition_against_direct_ratio(self):
        # independent route: scipy's bivariate t density at the t-quantiles
        # of Phi(x), Phi(y), divided by its univariate t densities
        rho, nu = 0.9, 4.0
        spec = CopulaSpec.student_t(rho, nu)
        bivariate = stats.multivariate_t(loc=[0.0, 0.0], shape=[[1.0, rho], [rho, 1.0]], df=nu)
        for x, y in [(-1.0, 0.5), (0.0, 0.0), (2.0, 1.5), (3.5, -2.0)]:
            q1 = specfun.student_t_inv_cdf(specfun.std_normal_cdf(x), nu)
            q2 = specfun.student_t_inv_cdf(specfun.std_normal_cdf(y), nu)
            direct = (
                bivariate.pdf([q1, q2])
                / (stats.t.pdf(q1, nu) * stats.t.pdf(q2, nu))
                * stats.norm.pdf(x)
                * stats.norm.pdf(y)
            )
            assert joint_pdf(spec, x, y) == pytest.approx(direct, rel=1e-10)


class TestJointPdfGrid:
    def test_matches_scalar_on_small_grid(self):
        # a point is the one entry of its 1 x 1 grid, so the grid and the
        # scalar give the same bits; checked on every fourth row and column,
        # the ends and 0 among them (the branch edges of the normal kernels
        # are in test_specfun.py::TestNormalLanes)
        grid = GridSpec(half_width=5.0, step=0.25)
        axis = grid.axis_points()[::4]
        for spec in specs_at(0.9) + specs_at(0.3):
            g = joint_pdf_grid(spec, grid)
            assert g.shape == (41, 41)
            expected = np.array([[joint_pdf(spec, float(x), float(y)) for y in axis] for x in axis])
            np.testing.assert_array_equal(g[::4, ::4].view(np.int64), expected.view(np.int64), err_msg=spec.family.value)

    @pytest.mark.parametrize("rho", [0.9, 0.3])
    def test_gauss_grid_matches_bivariate_normal(self, rho):
        # an axis point inside the clamp is its own Gauss coordinate, so the
        # rounding of u = Phi(x) near 1, eps / (1 - Phi(5)) = 3.9e-10
        # relative, does not reach it; 7.4e-14 is seen
        grid = GridSpec(half_width=5.0, step=0.25)
        axis = grid.axis_points()
        g = joint_pdf_grid(CopulaSpec.gauss(rho), grid)
        xy = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
        want = stats.multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]]).pdf(xy)
        np.testing.assert_allclose(g, want, rtol=5e-13, atol=0.0)

    def test_gauss_coordinate_is_the_point_inside_the_clamp(self):
        # and a point whose Phi is clamped keeps Phi^-1 of the clamp
        spec = CopulaSpec.gauss(0.9)
        axis = np.linspace(-8.5, 8.5, 69)
        u = _clamp_u(specfun.std_normal_cdf(axis))
        inside = (u > UEPS) & (u < 1.0 - UEPS)
        assert 0 < inside.sum() < axis.size
        coord, _ = jointdensity._axis_terms(spec, axis, {})
        np.testing.assert_array_equal(coord[inside], axis[inside])
        np.testing.assert_array_equal(coord[~inside], specfun.std_normal_inv_cdf(u[~inside]))

    def test_center_value_independence(self):
        grid = GridSpec(half_width=1.0, step=1.0, z_min=-1.0, z_max=1.0, z_step=1.0)
        g = joint_pdf_grid(CopulaSpec.gauss(0.0), grid)
        assert g[1, 1] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
        assert g[0, 0] == pytest.approx(specfun.std_normal_pdf(1.0) ** 2, rel=1e-12)

    def test_symmetric_matrix_on_centered_grid(self):
        # equal axes take the triangle path, so outside the diagonal blocks
        # this holds by construction; the kernels' exchangeability is checked
        # by test_swapping_the_axes_transposes_the_grid and the
        # unblocked_grid comparisons
        grid = GridSpec(half_width=2.0, step=0.25, z_min=-2.0, z_max=2.0, z_step=0.25)
        for spec in specs_at():
            g = joint_pdf_grid(spec, grid)
            assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_normalization_on_reference_lattice(self, family):
        spec = spec_from_rho(family, 0.9)
        g = joint_pdf_grid(spec, GridSpec())
        total = float(g.sum()) * 0.05 * 0.05
        assert 0.999 <= total <= 1.0001

    def test_clayton_fine_grid_normalization(self):
        spec = CopulaSpec.clayton(5.0)
        g = joint_pdf_grid(spec, GridSpec(half_width=5.0, step=0.05))
        total = float(g.sum()) * 0.05 * 0.05
        assert 0.999 <= total <= 1.0001

    def test_t_composition_normalizes_on_fine_grid(self):
        spec = CopulaSpec.student_t(0.9, 4.0)
        grid = GridSpec(half_width=5.0, step=0.025, z_min=-5.0, z_max=5.0, z_step=0.025)
        total = float(joint_pdf_grid(spec, grid).sum()) * 0.025 * 0.025
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_rejects_bad_grid(self):
        spec = CopulaSpec.gauss(0.5)
        with pytest.raises(DomainError):
            GridSpec(half_width=5.0, step=-0.05)
        with pytest.raises(DomainError):
            joint_pdf_grid(spec, "not a grid")


def _reference_coordinate(spec, axis):
    """The kernel coordinate of each axis point.  A Gauss point whose Phi is
    not clamped is its own coordinate, as the library takes it: the round
    trip through Phi and its exact quantile would carry Phi's last bit."""
    u = _clamp_u(specfun.std_normal_cdf(axis))
    coord = _axis_coordinate(spec, u)
    if spec.family is CopulaFamily.GAUSS:
        inside = (u > UEPS) & (u < 1.0 - UEPS)
        coord[inside] = np.asarray(axis, dtype=float)[inside]
    return coord


def unblocked_grid(spec, xs, ys):
    """The density grid in one whole-grid pass: the reference for the row blocks."""
    c1, c2 = _reference_coordinate(spec, xs), _reference_coordinate(spec, ys)
    dens = np.asarray(_density_from_coords(spec, c1[:, None], c2[None, :]), dtype=float)
    weight = np.outer(specfun.std_normal_pdf(xs), specfun.std_normal_pdf(ys))
    out = dens * weight
    out[weight < 1e-300] = 0.0
    return out


EDGE_SPECS = [
    CopulaSpec.clayton(60.0),
    CopulaSpec.gumbel(40.0),
    CopulaSpec.gumbel(1.0),  # independence branch
    CopulaSpec.frank(1e-10),  # independence branch
]
SYMMETRY_SPECS = [spec_from_rho(f, rho) for f in ALL_FAMILIES for rho in (0.9, 0.5, 0.1)] + EDGE_SPECS


class TestGridOnAxes:
    @pytest.mark.parametrize("spec", SYMMETRY_SPECS, ids=lambda s: repr(s.describe()))
    def test_swapping_the_axes_transposes_the_grid(self, spec):
        # the kernels are bitwise exchangeable, which the triangle path of
        # a square grid relies on; a family that is not exchangeable (a
        # rotated copula, say) breaks this
        grid = GridSpec(step=0.05)
        mids, edges = grid.cell_midpoints(), grid.axis_points()[:-1]
        east = jointdensity._grid_on_axes(spec, mids, edges)
        north = jointdensity._grid_on_axes(spec, edges, mids)
        np.testing.assert_array_equal(east, north.T)

    def test_memo_block_shares_one_output_per_shape(self):
        grid = GridSpec(step=0.1)
        mids, edges, points = grid.cell_midpoints(), grid.axis_points()[:-1], grid.axis_points()
        spec = spec_from_rho(CopulaFamily.CLAYTON, 0.9)
        fresh_east = jointdensity._grid_on_axes(spec, mids, edges)
        fresh_center = jointdensity._grid_on_axes(spec, mids, mids)
        assert jointdensity._grid_on_axes(spec, mids, mids) is not fresh_center
        with jointdensity._axis_memo():
            east = jointdensity._grid_on_axes(spec, mids, edges)
            np.testing.assert_array_equal(east, fresh_east)
            # the square path rewrites every entry the east grid left
            center = jointdensity._grid_on_axes(spec, mids, mids)
            assert center is east
            np.testing.assert_array_equal(center, fresh_center)
            assert jointdensity._grid_on_axes(spec, points, points).shape == (101, 101)
            # the caller's copy of a grid outlives the block
            kept = joint_pdf_grid(spec, grid).copy()
        assert joint_pdf_grid(spec, grid) is not joint_pdf_grid(spec, grid)
        np.testing.assert_array_equal(joint_pdf_grid(spec, grid), kept)

    @pytest.mark.parametrize("spec", SYMMETRY_SPECS, ids=lambda s: repr(s.describe()))
    def test_blocks_match_one_pass(self, spec):
        # 201 x 200 points, in blocks of _BLOCK_CELLS // 200 rows (40 at the
        # default); the last block is shorter than the rest
        grid = GridSpec(step=0.05)
        xs, ys = grid.axis_points(), grid.cell_midpoints()
        rows = jointdensity._BLOCK_CELLS // ys.size
        assert 1 < rows < xs.size and xs.size % rows != 0
        np.testing.assert_array_equal(jointdensity._grid_on_axes(spec, xs, ys), unblocked_grid(spec, xs, ys))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize(
        "nx, ny",
        [
            (1, 201),  # a 1-row axis
            (201, 1),  # one column: every row in a single block
            (30, 40),  # fits in one block
            (3, 20000),  # rows wider than a block: one row a block
        ],
    )
    def test_block_shapes(self, family, nx, ny):
        spec = spec_from_rho(family, 0.7)
        xs, ys = np.linspace(-5.0, 5.0, nx), np.linspace(-4.9, 4.9, ny)
        got = jointdensity._grid_on_axes(spec, xs, ys)
        assert got.shape == (nx, ny)
        np.testing.assert_array_equal(got, unblocked_grid(spec, xs, ys))

    def test_many_small_blocks(self, monkeypatch):
        # 7-row blocks over 41 rows: five full blocks and a 6-row remainder
        monkeypatch.setattr(jointdensity, "_BLOCK_CELLS", 7 * 41)
        axis = GridSpec(step=0.25).axis_points()
        for spec in SYMMETRY_SPECS:
            np.testing.assert_array_equal(jointdensity._grid_on_axes(spec, axis, axis), unblocked_grid(spec, axis, axis))


# the extremes of each family's parameter range, for the triangle path
TRIANGLE_SPECS = SYMMETRY_SPECS + [
    CopulaSpec.clayton(200.0),
    CopulaSpec.frank(-12.0),
    spec_from_rho(CopulaFamily.FRANK, 0.999),
    CopulaSpec.student_t(0.9, 0.5),
]


# -- the density kernels as plain expressions, as they were before they
# computed in place; the in-place kernels must give the same bits


def _reference_gauss(rho, z1, z2):
    r2 = 1.0 - rho * rho
    quad = rho * rho * (z1 * z1 + z2 * z2) - 2.0 * rho * (z1 * z2)
    return np.exp(-quad / (2.0 * r2)) / math.sqrt(r2)


def _reference_t(rho, nu, ln_norm, q1, q2):
    r2 = 1.0 - rho * rho
    quad = (q1 * q1 + q2 * q2 - 2.0 * rho * (q1 * q2)) / (nu * r2)
    ln_c = (
        ln_norm
        - 0.5 * (nu + 2.0) * np.log1p(quad)
        + 0.5 * (nu + 1.0) * (np.log1p(q1 * q1 / nu) + np.log1p(q2 * q2 / nu))
    )
    return np.exp(ln_c)


def _reference_clayton(theta, u1, u2):
    # ln s = log1p(expm1(a1) + expm1(a2)), which does not cancel near
    # independence; the max-shifted form where an expm1 overflows, with its
    # e^-m term, below 1e-307 there, dropped: logaddexp
    a1 = -theta * np.log(u1)
    a2 = -theta * np.log(u2)
    with np.errstate(over="ignore"):
        ln_s = np.log1p(np.expm1(a1) + np.expm1(a2))
    ln_s = np.where(np.maximum(a1, a2) > 709.0, np.logaddexp(a1, a2), ln_s)
    ln_c = (
        math.log1p(theta)
        - (1.0 + 2.0 * theta) / theta * ln_s
        - (theta + 1.0) * (np.log(u1) + np.log(u2))
    )
    return np.exp(ln_c)


def _reference_gumbel(theta, u1, u2):
    a = -np.log(u1)
    b = -np.log(u2)
    la = np.log(a)
    lb = np.log(b)
    m = np.maximum(theta * la, theta * lb)
    ln_big_a = m + np.log(np.exp(theta * la - m) + np.exp(theta * lb - m))
    ln_sigma = ln_big_a / theta
    sigma = np.exp(ln_sigma)
    ln_c = (
        -sigma
        + ln_sigma
        + np.log(theta - 1.0 + sigma)
        + (theta - 1.0) * (la + lb)
        - 2.0 * ln_big_a
        + (a + b)
    )
    return np.exp(ln_c)


def _reference_frank(theta, u1, u2):
    t = abs(theta)
    v1 = np.minimum(u1, u2)
    v2 = np.maximum(u1, u2)
    p = -np.expm1(-t * v2)
    q = -np.expm1(-t * (1.0 - v2))
    w = 0.5 * t * (v2 - v1) if theta > 0.0 else 0.5 * t * (v1 + v2 - 1.0)
    a, b = np.where(w >= 0.0, p, q), np.where(w >= 0.0, q, p)
    e = np.exp(-2.0 * np.abs(w))
    return t * -math.expm1(-t) * e / (a + e * b) ** 2


def _reference_density(spec, c1, c2):
    fam = spec.family
    if fam is CopulaFamily.GAUSS:
        return _reference_gauss(spec.rho, c1, c2)
    if fam is CopulaFamily.STUDENT_T:
        return _reference_t(spec.rho, spec.nu, spec._t_log_norm, c1, c2)
    if fam is CopulaFamily.CLAYTON:
        return _reference_clayton(spec.theta, c1, c2)
    if fam is CopulaFamily.GUMBEL:
        if abs(spec.theta - 1.0) <= 1e-9:
            return np.ones_like(np.asarray(c1 * c2, dtype=float))
        return _reference_gumbel(spec.theta, c1, c2)
    if abs(spec.theta) <= 1e-9:
        return np.ones_like(np.asarray(c1 * c2, dtype=float))
    return _reference_frank(spec.theta, c1, c2)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


KERNEL_SPECS = TRIANGLE_SPECS + [CopulaSpec.frank(theta) for theta in (-0.58, -3.3, -138.8, 138.8)]


class TestKernelsInPlace:
    @staticmethod
    def _coords(spec):
        # a lattice and a second axis that runs into the clamp at both ends
        xs = GridSpec(step=0.05).axis_points()
        ys = np.linspace(-8.5, 8.5, 97)
        return [_axis_coordinate(spec, _clamp_u(specfun.std_normal_cdf(a))) for a in (xs, ys)]

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: repr(s.describe()))
    def test_arrays_match_the_plain_expressions(self, spec):
        c1, c2 = self._coords(spec)
        kept1, kept2 = c1.copy(), c2.copy()
        for a, b in ((c1, c2), (c2, c1)):
            got = _density_from_coords(spec, a[:, None], b[None, :])
            want = _reference_density(spec, a[:, None], b[None, :])
            assert got.shape == (a.size, b.size)
            np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=repr(spec.describe()))
        # the arguments are axis arrays shared by every grid of a sweep
        np.testing.assert_array_equal(_bits(c1), _bits(kept1))
        np.testing.assert_array_equal(_bits(c2), _bits(kept2))

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: repr(s.describe()))
    def test_scalars_match_the_plain_expressions(self, spec):
        # a scalar density is a one-point block (see copula.copula_density)
        c1, c2 = self._coords(spec)
        rng = np.random.default_rng(17)
        pairs = [(c1[i : i + 1], c2[j : j + 1]) for i, j in zip(rng.integers(0, c1.size, 1000), rng.integers(0, c2.size, 1000))]
        pairs += [(y, x) for x, y in pairs]
        got = [float(_density_from_coords(spec, x, y)[0]) for x, y in pairs]
        want = [float(_reference_density(spec, x, y)[0]) for x, y in pairs]
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=repr(spec.describe()))

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: repr(s.describe()))
    def test_a_point_has_the_bits_of_its_grid_entry(self, spec):
        c1, c2 = self._coords(spec)
        grid = _density_from_coords(spec, c1[:, None], c2[None, :])
        rng = np.random.default_rng(18)
        for i, j in zip(rng.integers(0, c1.size, 500), rng.integers(0, c2.size, 500)):
            assert _bits(_density_from_coords(spec, c1[i : i + 1], c2[j : j + 1])) == _bits(grid[i, j]), (spec.describe(), i, j)
            if spec.family not in (CopulaFamily.GAUSS, CopulaFamily.STUDENT_T):
                # the Archimedean coordinate is u itself
                assert _bits(copula_density(spec, float(c1[i]), float(c2[j]))) == _bits(grid[i, j])


def _kernel_points(monkeypatch) -> list[int]:
    """Wrap the density kernel that _grid_on_axes calls; the list gets the
    number of points of each call."""
    points = []

    def counted(spec, c1, c2):
        points.append(np.broadcast(c1, c2).size)
        return _density_from_coords(spec, c1, c2)

    monkeypatch.setattr(jointdensity, "_density_from_coords", counted)
    return points


class TestSquareGrid:
    # block heights for each axis size: the default, and patched ones that do
    # and do not divide n (a height above n is one ragged block)
    @pytest.mark.parametrize(
        "n, heights",
        [
            (1, (None, 1, 2)),
            (2, (None, 1, 3)),
            (40, (None, 8, 7)),
            (41, (None, 1, 6)),
            (201, (None, 67, 7)),  # the default height does not divide 201
            (400, (None, 7)),  # the default height divides 400
        ],
        ids=lambda v: str(v) if isinstance(v, int) else "rows=" + "/".join("default" if h is None else str(h) for h in v),
    )
    def test_triangle_matches_one_pass(self, n, heights, monkeypatch):
        axis = np.linspace(-5.0, 5.0, n)
        for spec in TRIANGLE_SPECS:
            want = unblocked_grid(spec, axis, axis)
            for height in heights:
                with monkeypatch.context() as patch:
                    if height is not None:
                        patch.setattr(jointdensity, "_BLOCK_CELLS", height * n)
                    got = jointdensity._grid_on_axes(spec, axis, axis)
                np.testing.assert_array_equal(got, want, err_msg=f"{spec.describe()} rows={height}")

    def test_default_heights_of_the_parametrized_sizes(self):
        # the default case of n = 201 has a ragged last block, that of
        # n = 400 does not
        for n, ragged in ((201, True), (400, False)):
            height = jointdensity._BLOCK_CELLS // n
            assert 1 < height < n and (n % height != 0) == ragged

    def test_equal_axes_evaluate_the_upper_triangle(self, monkeypatch):
        # h-row blocks of an n x n grid: the block from row s evaluates its
        # min(h, n - s) rows on the n - s columns from s on (for h = 20,
        # the default, 84,000 points of 160,000)
        axis = GridSpec(step=0.025).cell_midpoints()
        n, h = axis.size, jointdensity._BLOCK_CELLS // axis.size
        spec = spec_from_rho(CopulaFamily.CLAYTON, 0.9)
        whole = jointdensity._grid_on_axes(spec, axis, axis)
        points = _kernel_points(monkeypatch)
        copy = jointdensity._grid_on_axes(spec, axis, axis.copy())
        assert 1 < h < n
        assert sum(points) == sum(min(h, n - s) * (n - s) for s in range(0, n, h))
        assert sum(points) < 0.6 * n * n
        np.testing.assert_array_equal(copy, whole)

    def test_unequal_axes_evaluate_every_point(self, monkeypatch):
        axis = GridSpec(step=0.025).cell_midpoints()
        spec = spec_from_rho(CopulaFamily.CLAYTON, 0.9)
        points = _kernel_points(monkeypatch)
        jointdensity._grid_on_axes(spec, axis, np.nextafter(axis, np.inf))
        assert sum(points) == 160_000


class TestMarginalRecovery:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_y_integral_returns_normal_margin(self, family):
        # midpoint quadrature of f(x, .) over [-8, 8] against phi(x)
        spec = spec_from_rho(family, 0.9)
        n = 1600
        h = 16.0 / n
        ys = -8.0 + h * (np.arange(n) + 0.5)
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        for x, row in zip(xs, jointdensity._grid_on_axes(spec, xs, ys)):
            total = math.fsum(row) * h
            assert total == pytest.approx(specfun.std_normal_pdf(x), abs=1e-4)


class TestTruncationFrame:
    def test_gauss_frame_maximum_is_closed_form_above_1e_minus_6(self):
        # f(5, y) = phi(5) phi((y - 5 rho) / sqrt(1 - rho^2)) / sqrt(1 - rho^2)
        # peaks at y = 5 rho = 4.5, a lattice point, with value
        # phi(5) phi(0) / sqrt(1 - rho^2) = 1.3607e-6: the density on the
        # frame is not below 1e-6 even for the Gauss copula
        rho = 0.9
        spec = CopulaSpec.gauss(rho)
        axis = np.arange(-5.0, 5.0001, 0.05)
        worst = 0.0
        for e in (-5.0, 5.0):
            for v in axis:
                worst = max(worst, joint_pdf(spec, e, float(v)), joint_pdf(spec, float(v), e))
        closed_form = math.exp(-12.5) / (2.0 * math.pi * math.sqrt(1.0 - rho * rho))
        assert worst == pytest.approx(closed_form, rel=1e-10)
        assert worst > 1e-6

    def test_frame_below_true_bound(self):
        # The largest frame value at rho=0.9 is Clayton's (theta = 4.965)
        # near the lower corner (-5, -5).  There u = v = p = Phi(-5) and
        # u^-theta dominates the 1 in c = (1 + theta) (uv)^(-1-theta)
        # (u^-theta + v^-theta - 1)^(-2-1/theta), so
        # c(p, p) ~ (1 + theta) 2^(-2-1/theta) / p and
        # f(-5, -5) ~ (1 + theta) 2^(-2-1/theta) phi(5)^2 / Phi(-5) ~ 1.0e-5;
        # 1.1e-5 leaves 10% above that.
        axis = np.arange(-5.0, 5.0001, 0.05)
        ends = np.array([-5.0, 5.0])
        for spec in specs_at():
            rows, cols = jointdensity._grid_on_axes(spec, ends, axis), jointdensity._grid_on_axes(spec, axis, ends)
            assert max(rows.max(), cols.max()) < 1.1e-5
