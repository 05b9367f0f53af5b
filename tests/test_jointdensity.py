"""Joint density tests: composition consistency, normalization, margins."""

import math

import numpy as np
import pytest

from sumdist import specfun
from sumdist.copula import CopulaFamily, CopulaSpec, copula_density, spec_from_rho
from sumdist.errors import DomainError
from sumdist.grid import GridSpec
from sumdist.jointdensity import JointDensityModel, joint_pdf, joint_pdf_grid

ALL_FAMILIES = list(CopulaFamily)


def models_at(rho=0.9, nu=4.0):
    return [JointDensityModel(spec_from_rho(f, rho, nu)) for f in ALL_FAMILIES]


class TestJointPdf:
    def test_gauss_independence_center(self):
        m = JointDensityModel(CopulaSpec.gauss(0.0))
        assert joint_pdf(m, 0.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_gauss_rho09_known_value(self):
        # (1/(2 pi sqrt(0.19))) exp(-0.2/0.38) = 0.21570851451891331624
        m = JointDensityModel(CopulaSpec.gauss(0.9))
        assert joint_pdf(m, 1.0, 1.0) == pytest.approx(0.21570851451891331624, rel=1e-10)

    def test_clayton_center_known_value(self):
        # c_cl(1/2, 1/2; theta=5) / (2 pi) = 0.43031067613975822329
        m = JointDensityModel(CopulaSpec.clayton(5.0))
        assert joint_pdf(m, 0.0, 0.0) == pytest.approx(0.43031067613975822329, rel=1e-10)

    def test_composition_consistency_all_families(self):
        # same code path as copula_density * phi * phi; guards against any
        # later drift between the two evaluation routes
        pts = [(-2.0, 1.0), (0.3, 0.4), (1.5, -1.5), (3.0, 3.0)]
        for m in models_at():
            for x, y in pts:
                direct = joint_pdf(m, x, y)
                composed = (
                    copula_density(m.spec, specfun.std_normal_cdf(x), specfun.std_normal_cdf(y))
                    * specfun.std_normal_pdf(x)
                    * specfun.std_normal_pdf(y)
                )
                assert direct == pytest.approx(composed, rel=1e-12)

    def test_exchangeability_exact(self):
        for m in models_at():
            for x, y in [(0.5, -1.2), (2.0, 3.0), (-4.0, 0.1)]:
                assert joint_pdf(m, x, y) == joint_pdf(m, y, x)

    def test_underflow_policy(self):
        m = JointDensityModel(CopulaSpec.gauss(0.9))
        assert joint_pdf(m, 30.0, -30.0) == 0.0

    def test_t_copula_density_positive_and_finite_far_out(self):
        m = JointDensityModel(CopulaSpec.student_t(0.9, 4.0))
        v = joint_pdf(m, 8.0, 8.0)
        assert math.isfinite(v) and v > 0.0

    def test_t_composition_against_direct_ratio(self):
        # independent route: bivariate t density at the t-quantiles of
        # Phi(x), Phi(y), divided by the univariate t densities
        rho, nu = 0.9, 4.0
        m = JointDensityModel(CopulaSpec.student_t(rho, nu))
        for x, y in [(-1.0, 0.5), (0.0, 0.0), (2.0, 1.5), (3.5, -2.0)]:
            q1 = specfun.student_t_inv_cdf(specfun.std_normal_cdf(x), nu)
            q2 = specfun.student_t_inv_cdf(specfun.std_normal_cdf(y), nu)
            direct = (
                specfun.bivariate_t_pdf(q1, q2, rho, nu)
                / (specfun.student_t_pdf(q1, nu) * specfun.student_t_pdf(q2, nu))
                * specfun.std_normal_pdf(x)
                * specfun.std_normal_pdf(y)
            )
            assert joint_pdf(m, x, y) == pytest.approx(direct, rel=1e-10)


class TestJointPdfGrid:
    def test_matches_scalar_on_small_grid(self):
        # the grid's array kernels and the scalar path give identical bits
        grid = GridSpec(half_width=5.0, step=0.25)
        axis = grid.axis_points()
        for m in models_at(0.9) + models_at(0.3):
            g = joint_pdf_grid(m, grid)
            assert g.shape == (41, 41)
            expected = np.array([[joint_pdf(m, float(x), float(y)) for y in axis] for x in axis])
            np.testing.assert_array_equal(g, expected, err_msg=m.spec.family.value)

    def test_center_value_independence(self):
        grid = GridSpec(half_width=1.0, step=1.0, z_min=-1.0, z_max=1.0, z_step=1.0)
        g = joint_pdf_grid(JointDensityModel(CopulaSpec.gauss(0.0)), grid)
        assert g[1, 1] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
        assert g[0, 0] == pytest.approx(specfun.std_normal_pdf(1.0) ** 2, rel=1e-12)

    def test_symmetric_matrix_on_centered_grid(self):
        grid = GridSpec(half_width=2.0, step=0.25, z_min=-2.0, z_max=2.0, z_step=0.25)
        for m in models_at():
            g = joint_pdf_grid(m, grid)
            assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_normalization_on_reference_lattice(self, family):
        m = JointDensityModel(spec_from_rho(family, 0.9))
        g = joint_pdf_grid(m, GridSpec())
        total = float(g.sum()) * 0.05 * 0.05
        assert 0.999 <= total <= 1.0001

    def test_clayton_fine_grid_normalization(self):
        m = JointDensityModel(CopulaSpec.clayton(5.0))
        g = joint_pdf_grid(m, GridSpec(half_width=5.0, step=0.05))
        total = float(g.sum()) * 0.05 * 0.05
        assert 0.999 <= total <= 1.0001

    def test_t_composition_normalizes_on_fine_grid(self):
        m = JointDensityModel(CopulaSpec.student_t(0.9, 4.0))
        grid = GridSpec(half_width=5.0, step=0.025, z_min=-5.0, z_max=5.0, z_step=0.025)
        total = float(joint_pdf_grid(m, grid).sum()) * 0.025 * 0.025
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_rejects_bad_grid(self):
        m = JointDensityModel(CopulaSpec.gauss(0.5))
        with pytest.raises(DomainError):
            GridSpec(half_width=5.0, step=-0.05)
        with pytest.raises(DomainError):
            joint_pdf_grid(m, "not a grid")


class TestMarginalRecovery:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_y_integral_returns_normal_margin(self, family):
        # midpoint quadrature of f(x, .) over [-8, 8] against phi(x)
        m = JointDensityModel(spec_from_rho(family, 0.9))
        n = 1600
        h = 16.0 / n
        ys = -8.0 + h * (np.arange(n) + 0.5)
        for x in [-2.0, -1.0, 0.0, 1.0, 2.0]:
            total = math.fsum(joint_pdf(m, x, float(y)) for y in ys) * h
            assert total == pytest.approx(specfun.std_normal_pdf(x), abs=1e-4)


class TestTruncationFrame:
    def test_gauss_frame_maximum_is_closed_form_above_1e_minus_6(self):
        # f(5, y) = phi(5) phi((y - 5 rho) / sqrt(1 - rho^2)) / sqrt(1 - rho^2)
        # peaks at y = 5 rho = 4.5, a lattice point, with value
        # phi(5) phi(0) / sqrt(1 - rho^2) = 1.3607e-6: the density on the
        # frame is not below 1e-6 even for the Gauss copula
        rho = 0.9
        m = JointDensityModel(CopulaSpec.gauss(rho))
        axis = np.arange(-5.0, 5.0001, 0.05)
        worst = 0.0
        for e in (-5.0, 5.0):
            for v in axis:
                worst = max(worst, joint_pdf(m, e, float(v)), joint_pdf(m, float(v), e))
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
        for m in models_at():
            worst = 0.0
            for e in (-5.0, 5.0):
                for v in axis:
                    worst = max(worst, joint_pdf(m, e, float(v)), joint_pdf(m, float(v), e))
            assert worst < 1.1e-5
