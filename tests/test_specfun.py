"""Special function tests.

Expected values marked as oracle-frozen were computed with mpmath at 40
significant digits (see the exact expressions in comments); the library
itself never touches mpmath.  Each function is checked on arrays against
scipy or mpmath at its accuracy target.  Each function takes a float or an
array, and its value on a float is, bitwise, its value at that element of
an array, checked at the branch edges of its kernel.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm
from scipy.stats import t as t_dist

from sumdist import _tquantile, jointdensity, specfun
from sumdist.copula import UEPS, CopulaFamily, CopulaSpec, spec_from_rho
from sumdist.errors import DomainError
from sumdist.grid import PAPER_GRID, GridSpec
from sumdist.jointdensity import joint_pdf, joint_pdf_grid
from sumdist.specfun import (
    _INV_SQRT_2,
    _reg_incomplete_beta_flat,
    debye1,
    ln_gamma,
    reg_incomplete_beta,
    std_normal_cdf,
    std_normal_inv_cdf,
    std_normal_pdf,
    student_t_cdf,
    student_t_inv_cdf,
    student_t_pdf,
)
from sumdist.sumcdf import TABLE2_RHOS


class TestStdNormalPdf:
    def test_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_at_one(self):
        # mpmath: npdf(1) = 0.2419707245191433498...
        assert std_normal_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-16)

    def test_even_symmetry(self):
        for x in [0.3, 1.0, 2.7, 5.5]:
            assert std_normal_pdf(-x) == std_normal_pdf(x)

    def test_positive(self):
        assert std_normal_pdf(38.0) > 0.0

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            std_normal_pdf(float("nan"))


class TestStdNormalCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_known_values(self):
        # mpmath ncdf, 40 digits
        assert std_normal_cdf(1.0) == pytest.approx(0.84134474606854294859, abs=1e-13)
        assert std_normal_cdf(1.959964) == pytest.approx(0.9750000009035575957, abs=1e-13)
        assert std_normal_cdf(0.5) == pytest.approx(0.69146246127401310364, abs=1e-13)
        assert std_normal_cdf(-3.7) == pytest.approx(1.0779973347738833694e-4, rel=1e-12)

    def test_far_left_tail(self):
        # phi(8)/8 bounds the tail; exact value 6.2209605742717841235e-16
        v = std_normal_cdf(-8.0)
        assert 0.0 < v < 1e-14
        assert v == pytest.approx(6.2209605742717841235e-16, rel=1e-12)

    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    @settings(max_examples=300)
    def test_reflection_sums_to_one(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    @given(st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=200)
    def test_strictly_inside_unit_interval(self, x):
        assert 0.0 < std_normal_cdf(x) < 1.0

    def test_derivative_matches_pdf(self):
        # central difference over moderate x where phi is not denormal-tiny
        h = 1e-5
        for x in [-3.0, -1.5, -0.4, 0.0, 0.7, 2.2, 3.0]:
            fd = (std_normal_cdf(x + h) - std_normal_cdf(x - h)) / (2.0 * h)
            assert fd == pytest.approx(std_normal_pdf(x), rel=1e-6)


class TestStdNormalInvCdf:
    def test_median(self):
        assert std_normal_inv_cdf(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_known_values(self):
        assert std_normal_inv_cdf(0.975) == pytest.approx(1.9599639845400542355, abs=1e-11)
        assert std_normal_inv_cdf(1e-10) == pytest.approx(-6.3613409024040562047, abs=1e-10)
        assert std_normal_inv_cdf(0.3) == pytest.approx(-0.52440051270804078404, abs=1e-12)

    @given(st.floats(min_value=1e-300, max_value=1.0, exclude_max=True))
    @settings(max_examples=300)
    def test_residual_below_contract(self, p):
        x = std_normal_inv_cdf(p)
        assert abs(std_normal_cdf(x) - p) <= 1e-12

    @given(st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=200)
    def test_round_trip_identity(self, x):
        # beyond |x| ~ 5.61 the double rounding of Phi(x) near 1 alone costs
        # ulp(p)/(2 phi(x)) > 1e-9, so the bound widens to that floor there
        p = std_normal_cdf(x)
        quantization = 2.0 * math.ulp(p) / std_normal_pdf(x)
        assert std_normal_inv_cdf(p) == pytest.approx(x, abs=max(1e-9, quantization))

    def test_round_trip_identity_inside_5p5(self):
        for i in range(-55, 56):
            x = i / 10.0
            assert std_normal_inv_cdf(std_normal_cdf(x)) == pytest.approx(x, abs=1e-9)

    def test_monotone(self):
        ps = [0.001, 0.01, 0.2, 0.5, 0.77, 0.99, 0.9999]
        xs = [std_normal_inv_cdf(p) for p in ps]
        assert xs == sorted(xs)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            std_normal_inv_cdf(p)

    @pytest.mark.parametrize("p", [1e-320, 5e-324])
    def test_subnormal_p(self, p):
        x = std_normal_inv_cdf(p)
        assert math.isfinite(x) and x < -37.5
        assert x == pytest.approx(norm.ppf(p), rel=1e-8)

    def test_tiny_p_matches_scipy(self):
        # across the cutoff where std_normal_cdf flushes Phi(x) to 0
        # (p ~ 1.1e-307) and the subnormal range below it
        ps = np.logspace(-323, -290, 2000)
        ps = ps[ps > 0.0]
        want = norm.ppf(ps)
        scalar = np.array([std_normal_inv_cdf(float(p)) for p in ps])
        np.testing.assert_allclose(scalar, want, rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(std_normal_inv_cdf(ps), want, rtol=1e-8, atol=0.0)


    def test_relative_error_against_mpmath_root(self):
        # the last refinement (Acklam's rational and one Halley step) was
        # 1.1e-9 relative off in the upper tail, where e = Phi(x) - p is
        # rounding noise: p = 1 - 5.7e-14, x = 7.42
        rng = np.random.default_rng(7003)
        p = np.concatenate(
            [
                np.logspace(math.log10(5e-324), math.log10(0.5), 300),
                [5e-324, 0.5 - 2.0**-54],
                [1.0 - 10.0**-k for k in range(1, 17)],
                [1.0 - 5.7e-14],
                rng.uniform(0.0, 1.0, 200),
            ]
        )
        x = std_normal_inv_cdf(p)
        want = np.array([_normal_quantile_40(float(v), float(xv)) for v, xv in zip(p, x)])
        np.testing.assert_allclose(x, want, rtol=1e-15, atol=0.0)
        assert np.array_equal(x, [std_normal_inv_cdf(float(v)) for v in p])
        assert std_normal_inv_cdf(0.5) == 0.0

    def test_mirror_and_kernel_to_the_bit(self):
        # for p in [1/2, 1), 1 - p is exact, so Phi^-1(1 - p) = -Phi^-1(p)
        # holds in floating point (Acklam's rational and Halley step broke it
        # on 123,166 of these p); a float's quantile is its array lane, checked
        # on every 1000th p here and at the branch edges in TestNormalLanes
        rng = np.random.default_rng(7004)
        p = np.concatenate(
            [
                rng.uniform(0.5, 1.0, 200_000),
                1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.075), 19_996),
                [0.5, 0.925, 1.0 - math.exp(-25.0), 1.0 - 2.0**-53],
            ]
        )
        upper = std_normal_inv_cdf(p)
        lower = std_normal_inv_cdf(1.0 - p)
        assert np.array_equal(lower, -upper)
        for values, kernel in ((p, upper), (1.0 - p, lower)):
            scalar = np.array([std_normal_inv_cdf(v) for v in values[::1000].tolist()])
            assert np.array_equal(scalar.view(np.int64), kernel[::1000].view(np.int64))


def _normal_quantile_40(p: float, x: float) -> float:
    """The root of Phi(x) = p at 40 digits, by Newton steps from x."""
    with mpmath.workdps(40):
        target, root = mpmath.mpf(p), mpmath.mpf(x)
        for _ in range(6):
            step = (mpmath.ncdf(root) - target) / mpmath.npdf(root)
            root -= step
            if abs(step) <= mpmath.mpf(10) ** -38 * abs(root):
                break
        return float(root)


class TestLnGamma:
    def test_integers(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-13)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_half(self):
        assert ln_gamma(0.5) == pytest.approx(0.57236494292470008707, rel=1e-13)

    def test_known_values(self):
        # mpmath loggamma
        assert ln_gamma(1.5) == pytest.approx(-0.12078223763524522235, rel=1e-13)
        assert ln_gamma(3.7) == pytest.approx(1.4280723266653879219, rel=1e-13)
        assert ln_gamma(12.25) == pytest.approx(18.115669505710892619, rel=1e-13)

    def test_recurrence(self):
        # ln G(a+1) = ln G(a) + ln a
        for a in [0.3, 0.9, 2.4, 17.0]:
            assert ln_gamma(a + 1.0) == pytest.approx(ln_gamma(a) + math.log(a), abs=1e-12)

    @pytest.mark.parametrize("a", [0.0, -1.0, -0.5])
    def test_domain(self, a):
        with pytest.raises(DomainError):
            ln_gamma(a)


class TestRegIncompleteBeta:
    def test_boundaries(self):
        assert reg_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_incomplete_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_case(self):
        assert reg_incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_known_values(self):
        # I_0.25(2, 3) = 0.26171875 exactly (binomial sum)
        assert reg_incomplete_beta(0.25, 2.0, 3.0) == pytest.approx(0.26171875, abs=1e-12)
        # mpmath betainc regularized
        assert reg_incomplete_beta(0.9, 5.0, 0.5) == pytest.approx(0.31664291502001225581, abs=1e-12)
        assert reg_incomplete_beta(0.4, 2.5, 1.5) == pytest.approx(0.17392765793650989613, abs=1e-12)

    @given(
        # dyadic x so that 1 - x is exact and the identity is not polluted
        # by input rounding
        st.integers(min_value=1, max_value=1023),
        st.floats(min_value=0.05, max_value=60.0),
        st.floats(min_value=0.05, max_value=60.0),
    )
    @settings(max_examples=250)
    def test_reflection_identity(self, k, a, b):
        x = k / 1024.0
        lhs = reg_incomplete_beta(x, a, b)
        rhs = 1.0 - reg_incomplete_beta(1.0 - x, b, a)
        assert 0.0 <= lhs <= 1.0
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("x,a,b", [(-0.1, 1, 1), (1.1, 1, 1), (0.5, 0, 1), (0.5, 1, -2)])
    def test_domain(self, x, a, b):
        with pytest.raises(DomainError):
            reg_incomplete_beta(x, a, b)

    def test_continued_fraction_that_does_not_converge_raises(self, monkeypatch):
        # the error names a, b and x of the fraction that ran: below
        # x = (a + 1)/(a + b + 2) the direct one, above it the one on 1 - x
        # with a and b swapped, and of an array its first lane still moving
        monkeypatch.setattr(specfun, "_BETA_MAXIT", 1)
        with pytest.raises(DomainError, match=r"failed to converge \(a=2\.0, b=3\.0, x=0\.25\)$"):
            reg_incomplete_beta(0.25, 2.0, 3.0)
        with pytest.raises(DomainError, match=r"failed to converge \(a=3\.0, b=2\.0, x=0\.25\)$"):
            reg_incomplete_beta(0.75, 2.0, 3.0)
        with pytest.raises(DomainError, match=r"failed to converge \(a=2\.0, b=3\.0, x=0\.3\)$"):
            _reg_incomplete_beta_flat(np.array([1e-300, 0.3, 0.25]), 2.0, 3.0)

    def test_a_side_with_no_lanes_runs_no_fraction(self, monkeypatch):
        # a one-lane call runs one continued fraction, and a call with lanes
        # on both sides of x = (a + 1)/(a + b + 2) one per side
        sizes = []
        fraction = specfun._beta_cf_flat

        def counted(a, b, x):
            sizes.append(x.size)
            return fraction(a, b, x)

        monkeypatch.setattr(specfun, "_beta_cf_flat", counted)
        reg_incomplete_beta(0.25, 2.0, 3.0)
        reg_incomplete_beta(0.75, 2.0, 3.0)
        student_t_cdf(1.5, 4.0)
        assert sizes == [1, 1, 1]
        _reg_incomplete_beta_flat(np.array([0.0, 0.25, 0.75, 0.3, 1.0]), 2.0, 3.0)
        assert sizes[3:] == [2, 1]


class TestStudentTPdf:
    def test_cauchy_at_zero(self):
        assert student_t_pdf(0.0, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_nu4_at_zero(self):
        # Gamma(2.5)/(Gamma(2) sqrt(4 pi)) = 3/8
        assert student_t_pdf(0.0, 4.0) == pytest.approx(0.375, rel=1e-13)

    def test_known_value(self):
        assert student_t_pdf(2.0, 7.0) == pytest.approx(0.063135337302661966681, rel=1e-12)

    @given(st.floats(min_value=-30.0, max_value=30.0), st.sampled_from([0.5, 1.0, 2.0, 4.0, 11.5]))
    @settings(max_examples=200)
    def test_even_and_positive(self, x, nu):
        assert student_t_pdf(x, nu) > 0.0
        assert student_t_pdf(-x, nu) == student_t_pdf(x, nu)

    def test_normalization_against_own_cdf(self):
        # integral over [-50, 50]; true values from mpmath:
        #   nu=1: 0.98726930179805440664 (Cauchy mass truly missing ~1.3e-2)
        #   nu=4: 0.99999904255463430303
        #   nu=10: 0.99999999999975256897
        expected = {1.0: 0.98726930179805440664, 4.0: 0.99999904255463430303, 10.0: 0.99999999999975256897}
        for nu, true_mass in expected.items():
            n = 4000
            h = 100.0 / n
            mids = [-50.0 + (i + 0.5) * h for i in range(n)]
            total = math.fsum(student_t_pdf(x, nu) * h for x in mids)
            assert total == pytest.approx(true_mass, abs=5e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_pdf(0.0, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="student_t_pdf requires finite x, got "):
                student_t_pdf(bad, 4.0)


def _t_lower_tail_oracle(x: float, nu: float) -> float:
    """T_nu(-|x|) from mpmath's regularized incomplete beta at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return float(mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + x * x), regularized=True) / 2)


class TestStudentTCdf:
    def test_symmetry_at_zero(self):
        assert student_t_cdf(0.0, 4.0) == 0.5

    def test_cauchy_closed_form(self):
        assert student_t_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-13)
        for x in [-3.0, -0.5, 0.2, 2.0, 10.0]:
            assert student_t_cdf(x, 1.0) == pytest.approx(0.5 + math.atan(x) / math.pi, abs=1e-12)

    def test_known_values(self):
        # mpmath via regularized incomplete beta
        assert student_t_cdf(2.0, 4.0) == pytest.approx(0.94194173824159220275, abs=1e-11)
        assert student_t_cdf(0.5, 4.0) == pytest.approx(0.67833501840906836288, abs=1e-11)
        assert student_t_cdf(-1.5, 10.0) == pytest.approx(0.082253663222720090425, abs=1e-11)
        assert student_t_cdf(3.0, 2.5) == pytest.approx(0.96371195222548407805, abs=1e-11)

    def test_matches_normal_for_huge_nu(self):
        for i in range(-16, 17):
            x = i / 4.0
            assert student_t_cdf(x, 1e6) == pytest.approx(std_normal_cdf(x), abs=1e-5)

    @given(st.floats(min_value=-20.0, max_value=20.0), st.sampled_from([1.0, 2.0, 4.0, 10.0]))
    @settings(max_examples=200)
    def test_reflection(self, x, nu):
        assert student_t_cdf(x, nu) + student_t_cdf(-x, nu) == pytest.approx(1.0, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_cdf(1.0, -4.0)

    @pytest.mark.parametrize("x, nu", [(-31.3, 1000.0), (-20.0, 1000.0), (-12.0, 200.0), (-5.0, 30.0)])
    def test_lower_tail_inside_sqrt_nu_is_relatively_accurate(self, x, nu):
        # x^2 < nu: 1/2 (1 - I) flushed the first three to 0 and put the
        # last 1.7e-12 off; the direct incomplete beta keeps every digit
        want = _t_lower_tail_oracle(x, nu)
        assert student_t_cdf(x, nu) == pytest.approx(want, rel=1e-13, abs=0.0)
        np.testing.assert_allclose(student_t_cdf(np.array([x, -x]), nu), [want, 1.0 - want], rtol=1e-13, atol=0.0)


class TestStudentTInvCdf:
    def test_median(self):
        assert student_t_inv_cdf(0.5, 7.0) == 0.0

    def test_cauchy_quartile(self):
        assert student_t_inv_cdf(0.75, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_known_values(self):
        assert student_t_inv_cdf(0.975, 4.0) == pytest.approx(2.7764451051977943578, abs=1e-9)
        assert student_t_inv_cdf(0.9, 7.0) == pytest.approx(1.4149239276505084776, abs=1e-10)
        assert student_t_inv_cdf(0.01, 3.0) == pytest.approx(-4.5407028585681335553, abs=1e-9)

    @given(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.sampled_from([0.7, 1.0, 2.0, 4.0, 10.0, 40.0]),
    )
    @settings(max_examples=150)
    def test_residual_below_contract(self, p, nu):
        x = student_t_inv_cdf(p, nu)
        assert abs(student_t_cdf(x, nu) - p) <= 1e-10

    @pytest.mark.parametrize("nus", [[1.0, 2.0, 4.0, 10.0]])
    def test_round_trip_identity(self, nus):
        for nu in nus:
            for i in range(-10, 11):
                x = float(i)
                p = student_t_cdf(x, nu)
                assert student_t_inv_cdf(p, nu) == pytest.approx(x, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_inv_cdf(0.0, 4.0)
        with pytest.raises(DomainError):
            student_t_inv_cdf(0.5, 0.0)

    def test_density_underflow_is_domain_error(self):
        # at nu = 1e-3 the quantile of 0.01 is about -1e1700, beyond every
        # double; the t density underflowed on the way there, and the scalar
        # once divided by zero.  The quantile of 0.3 (-1.1e220) is finite
        with pytest.raises(DomainError, match=r"\(0\.01, nu=0\.001\): the quantile lies beyond"):
            student_t_inv_cdf(0.01, 1e-3)
        with pytest.raises(DomainError, match=r"\(0\.01, nu=0\.001\): the quantile lies beyond"):
            student_t_inv_cdf(np.array([0.3, 0.01]), 1e-3)


def _t_quantile_error(x: float, p: float, nu: float) -> float:
    """Relative error of x as the t quantile of p: one Newton step at 40 digits."""
    with mpmath.workdps(40):
        nu_m, t = mpmath.mpf(nu), abs(mpmath.mpf(x))
        half_tail = mpmath.betainc(nu_m / 2, 0.5, 0, nu_m / (nu_m + t * t), regularized=True) / 2
        cdf = half_tail if x < 0.0 else 1 - half_tail
        log_pdf = (
            mpmath.loggamma((nu_m + 1) / 2)
            - mpmath.loggamma(nu_m / 2)
            - mpmath.log(mpmath.pi * nu_m) / 2
            - (nu_m + 1) / 2 * mpmath.log1p(t * t / nu_m)
        )
        return float(abs((cdf - mpmath.mpf(p)) / mpmath.exp(log_pdf) / mpmath.mpf(x)))


def _t_axis_probabilities() -> dict:
    """Phi of the lattice axes on which the grid modes read the t quantile."""
    refined = GridSpec(step=0.025)
    axes = {
        "paper": PAPER_GRID.axis_points(),
        "refined-lower-edges": refined.axis_points()[:-1],
        "refined-midpoints": refined.cell_midpoints(),
    }
    return {name: std_normal_cdf(axis) for name, axis in axes.items()}


class TestStudentTTails:
    """Both quantiles in both tails, from p = 1e-300 to 1/2."""

    # p = 1/2 gives 0 exactly (TestStudentTInvCdf.test_median)
    _LOG_SPACED = np.geomspace(1e-300, 0.5, 61)[:-1]

    @pytest.mark.parametrize("nu", [0.5, 1.0, 4.0, 30.0])
    def test_quantile_against_scipy_and_oracle(self, nu):
        # at nu = 0.5 the quantile leaves the doubles below p = 2.4e-155
        tiny = self._LOG_SPACED[self._LOG_SPACED > student_t_cdf(-sys.float_info.max, nu)]
        p = np.concatenate([tiny, *_t_axis_probabilities().values()])
        p = p[p != 0.5]
        # a float's quantile is its array lane (TestStudentTLanes)
        got = student_t_inv_cdf(p, nu)
        # scipy's own t.ppf saturates near 4.7e153, where its x * x overflows
        want = t_dist.ppf(p, nu)
        usable = np.abs(want) < 1e150
        np.testing.assert_allclose(got[usable], want[usable], rtol=1e-12, atol=0.0)
        for x, v in zip(got[: tiny.size], tiny):
            assert _t_quantile_error(float(x), float(v), nu) <= 1e-12, (v, x)

    def test_beyond_the_doubles_is_domain_error(self):
        edge = student_t_cdf(-sys.float_info.max, 0.5)
        assert edge == pytest.approx(2.3918971474675e-155, rel=1e-12)
        for p in (0.99 * edge, 1e-200, 1e-300):
            with pytest.raises(DomainError, match=rf"\({p!r}, nu=0\.5\): the quantile lies beyond"):
                student_t_inv_cdf(p, 0.5)
            with pytest.raises(DomainError, match=rf"\({p!r}, nu=0\.5\): the quantile lies beyond"):
                student_t_inv_cdf(np.array([0.3, p]), 0.5)
        # just inside, the quantile is a double near -DBL_MAX
        x = student_t_inv_cdf(1.01 * edge, 0.5)
        assert -sys.float_info.max <= x < -1.7e308
        assert student_t_inv_cdf(np.array([1.01 * edge]), 0.5)[0] == x
        assert _t_quantile_error(x, 1.01 * edge, 0.5) <= 1e-12

    @pytest.mark.parametrize("nu", [0.5, 1.0, 4.0])
    def test_cdf_where_x_squared_overflows(self, nu):
        # the beta argument nu/(nu + x^2) was 0 here, so T was 0 exactly
        x = np.array([-1.4e154, -1e200, -3.2e299, -sys.float_info.max])
        want = [_t_lower_tail_oracle(float(v), nu) for v in x]
        got = np.array([student_t_cdf(float(v), nu) for v in x])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        both = np.concatenate([x, -x])
        _assert_lanes(lambda a: student_t_cdf(a, nu), both)
        assert all(student_t_cdf(float(-v), nu) == 1.0 for v in x)

    def test_cauchy_quantile_at_1e_300(self):
        # 1/(pi p), inside the range where x * x overflows
        x = student_t_inv_cdf(1e-300, 1.0)
        assert x == pytest.approx(-1.0 / (math.pi * 1e-300), rel=1e-13)
        assert student_t_inv_cdf(np.array([1e-300]), 1.0)[0] == x


class TestStudentTQuantilePasses:
    """The quantile's cost is its number of t CDF passes, each one evaluation
    of the t tail (``_t_tail_beta_flat``); at nu = 4 a close start leaves at
    most four on the axes of both grid modes."""

    @staticmethod
    def _counted(monkeypatch, name):
        """The t points of each pass of ``_tquantile.<name>``, from now on."""
        calls = []
        one_pass = getattr(_tquantile, name)

        def counted(*args):
            calls.append(args[0])
            return one_pass(*args)

        monkeypatch.setattr(_tquantile, name, counted)
        return calls

    @pytest.mark.parametrize("name", list(_t_axis_probabilities()))
    def test_array_passes_at_nu_4(self, monkeypatch, name):
        p = _t_axis_probabilities()[name]
        calls = self._counted(monkeypatch, "_t_tail_beta_flat")
        student_t_inv_cdf(p, 4.0)
        assert 1 <= len(calls) <= 4, [t.size for t in calls]

    def test_scalar_passes_at_nu_4(self, monkeypatch):
        calls = self._counted(monkeypatch, "_t_tail_beta_flat")
        for p in _t_axis_probabilities()["paper"]:
            calls.clear()
            student_t_inv_cdf(float(p), 4.0)
            assert len(calls) <= 4, (p, len(calls))

    @pytest.mark.parametrize(
        "nu, p", [(1.01, 8.219740308763492e-250), (1.05, 9.65995177398215e-292), (1.1, 3.1440962049673697e-299)]
    )
    def test_rounding_cycle_stops(self, monkeypatch, nu, p):
        # where ln G nears -700 just above nu = 1, one bit of ln G moves t
        # by 1.0-1.1e-13, above the stop threshold, and the steps cycled
        # between two neighbours of the root for all 60 passes
        calls = self._counted(monkeypatch, "_t_tail_beta_flat")
        x = student_t_inv_cdf(p, nu)
        scalar_passes = len(calls)
        calls.clear()
        assert student_t_inv_cdf(np.array([p]), nu)[0] == x
        assert scalar_passes <= 6 and len(calls) <= 6, (scalar_passes, len(calls))
        assert _t_quantile_error(x, p, nu) <= 1e-12

    @pytest.mark.parametrize("scale", [1e3, 1e-3])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 4.0, 30.0])
    def test_bracket_recovers_a_far_start(self, monkeypatch, nu, scale):
        # a start 10^3 off sends Newton steps out of the bracket, and far in
        # the tail one 10^3 too large underflows G to 0; the bracket's
        # geometric means bring the steps back to the root.  At nu = 0.5 the
        # quantile leaves the doubles below p = 2.4e-155, so the smallest p
        # stay 10^3 above that edge
        p = np.geomspace(1e-300, 0.45, 40)
        p = np.concatenate([p[p > 1e3 * student_t_cdf(-sys.float_info.max, nu)], [0.55, 0.9, 0.999999]])
        want = student_t_inv_cdf(p, nu)
        start_flat = _tquantile._t_start_flat
        monkeypatch.setattr(_tquantile, "_t_start_flat", lambda *args: scale * start_flat(*args))
        np.testing.assert_allclose(student_t_inv_cdf(p, nu), want, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose([student_t_inv_cdf(float(v), nu) for v in p], want, rtol=1e-13, atol=0.0)


def _debye1_oracle(theta: float) -> float:
    """D1 by mpmath quadrature of its defining integral, at 30 digits."""
    with mpmath.workdps(30):
        t = mpmath.mpf(theta)
        # break the range where t/(e^t - 1) bends, so quad resolves each piece
        pts = [0, *(math.copysign(p, theta) for p in (1.0, 10.0, 50.0) if p < abs(theta)), t]
        return float(mpmath.quad(lambda s: s / mpmath.expm1(s) if s else mpmath.mpf(1), pts) / t)


class TestDebye1:
    def test_small_argument_limit(self):
        assert debye1(1e-8) == pytest.approx(1.0, abs=1e-7)

    def test_known_values(self):
        # mpmath quadrature of the defining integral
        assert debye1(1.0) == pytest.approx(0.77750463411224827642, rel=1e-15, abs=0)
        assert debye1(12.0) == pytest.approx(0.13707118265430719226, rel=1e-15, abs=0)
        assert debye1(0.5) == pytest.approx(0.88192715679060552968, rel=1e-15, abs=0)
        assert debye1(5.0) == pytest.approx(0.32087619770014612104, rel=1e-15, abs=0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_against_quadrature_oracle(self, sign):
        # both series, and densely around the switch between them at |theta| = 2
        for theta in np.concatenate([np.geomspace(1e-8, 700.0, 50), np.linspace(1.0, 6.0, 21), [1.999999, 2.000001]]):
            theta = sign * float(theta)
            assert debye1(theta) == pytest.approx(_debye1_oracle(theta), rel=1e-15, abs=0), theta

    def test_negative_argument(self):
        assert debye1(-2.0) == pytest.approx(1.6069472846098100721, rel=1e-15, abs=0)
        # identity D1(-t) = D1(t) + t/2
        for t in [0.5, 1.0, 3.0, 12.0]:
            assert debye1(-t) == pytest.approx(debye1(t) + t / 2.0, rel=1e-15, abs=0)

    def test_finite_at_large_arguments(self):
        # the integral is pi^2/6 once e^(-theta) underflows
        for theta in (709.0, 710.0, 1e4, 1e300):
            assert debye1(theta) == pytest.approx(math.pi**2 / 6.0 / theta, rel=1e-15, abs=0)
            assert debye1(-theta) == pytest.approx(debye1(theta) + theta / 2.0, rel=1e-15, abs=0)

    def test_frank_tau_at_12(self):
        tau = 1.0 - 4.0 / 12.0 * (1.0 - debye1(12.0))
        assert tau == pytest.approx(0.71, abs=5e-3)

    def test_domain(self):
        for bad in (0.0, math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                debye1(bad)


# ---------------------------------------------------------------------------
# each function on arrays, held to its accuracy target against an
# independent oracle (its value on a float is its array lane, below)
# ---------------------------------------------------------------------------

_NUS = (0.5, 1.0, 2.5, 4.0, 30.0, 200.0)
_TINY = 2.0**-1022  # the smallest normal double


def _with_neighbours(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])


def _assert_lanes(f, values) -> None:
    """``f`` keeps the shape of an array, and its value on each element as a
    float is its value at that element of the array, to the bit."""
    values = np.asarray(values, dtype=float)
    expected = np.array([f(float(v)) for v in values.ravel()]).reshape(values.shape)
    got = f(values)
    assert got.shape == values.shape
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def _normal_points() -> np.ndarray:
    rng = np.random.default_rng(7001)
    # branch edges of Phi: |x|/sqrt(2) = 0.46875 (erf/erfc), 4 (erfc
    # rationals) and 26.5 (tail flushed to 0), from both sides
    edges = _with_neighbours([v / _INV_SQRT_2 for v in (0.46875, 4.0, 26.5)])
    return np.concatenate(
        [rng.normal(0.0, 3.0, 60_000), rng.uniform(-40.0, 40.0, 40_000), edges, -edges, [0.0, -0.0]]
    )


def _probability_points() -> np.ndarray:
    rng = np.random.default_rng(7002)
    # branch edges of Phi^-1: |p - 1/2| = 0.425 (central and tail rationals)
    # and min(p, 1 - p) = e^-25 (the two tail rationals)
    edges = _with_neighbours([0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0), 0.5, 1e-300])
    return np.concatenate(
        [
            rng.uniform(0.0, 1.0, 60_000),
            10.0 ** rng.uniform(-300.0, -1.0, 20_000),
            1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 20_000),
            edges,
            [1.0 - 2.0**-53, 1e-320, 5e-324],
            # around Phi(-26.5 sqrt 2), below which std_normal_cdf flushes
            # Phi to 0
            10.0 ** rng.uniform(-323.0, -300.0, 2_000),
            1.1054538321318671e-307 * (1.0 + np.linspace(-1e-5, 1e-5, 2_001)),
        ]
    )


def _t_points(nu: float) -> np.ndarray:
    rng = np.random.default_rng(int(nu * 10))
    # x^2 = 3 nu/(nu + 2) switches between the tail and the core beta argument
    edges = _with_neighbours([math.sqrt(3.0 * nu / (nu + 2.0))])
    return np.concatenate(
        [rng.standard_t(nu, 15_000), rng.uniform(-60.0, 60.0, 2_000), edges, -edges, [0.0, -0.0, 1e200, -1e-200]]
    )


class TestArrayKernels:
    def test_normal_pdf_accuracy(self):
        x = np.append(_normal_points(), 1e200)
        # mpmath on every tenth random point and on every edge point
        x = np.concatenate([x[:100_000:10], x[100_000:]])
        with mpmath.workdps(30):
            want = np.array([float(mpmath.npdf(v)) for v in x])
        # the target relative bound, taken on the smallest normal double
        # where the result is subnormal; x * x overflows at 1e200
        with np.errstate(over="ignore"):
            bound = 1e-15 * (1.0 + x * x) * np.maximum(want, _TINY)
        assert np.all(np.abs(std_normal_pdf(x) - want) <= bound)

    def test_normal_cdf_accuracy(self):
        x = _normal_points()
        np.testing.assert_allclose(std_normal_cdf(x), norm.cdf(x), rtol=0.0, atol=1e-12)
        # the relative target against mpmath, on every tenth random point and
        # on every edge point: the bound above passes any lower-tail value
        # below 1e-12.  The exponent split on the rounded |x|/sqrt(2) had put
        # Phi 1.4e-14 relative off on [-10, -5] and 2e-13 near x = -37
        x = np.concatenate([x[:100_000:10], x[100_000:]])
        with mpmath.workdps(40):
            want = np.array([float(mpmath.ncdf(v)) for v in x])
        got = std_normal_cdf(x)
        # below x = -26.5 sqrt(2), where Phi < 1.106e-307, the tail is returned as 0
        flushed = x < -26.5 / _INV_SQRT_2
        assert np.all(got[flushed] == 0.0) and np.all(want[flushed] < 1.106e-307)
        np.testing.assert_allclose(got[~flushed], want[~flushed], rtol=1e-15, atol=0.0)

    def test_normal_inv_cdf_accuracy(self):
        p = _probability_points()
        x = std_normal_inv_cdf(p)
        np.testing.assert_allclose(norm.cdf(x), p, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("nu", _NUS)
    def test_t_cdf_accuracy(self, nu):
        x = _t_points(nu)
        np.testing.assert_allclose(student_t_cdf(x, nu), t_dist.cdf(x, nu), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("nu", _NUS)
    def test_t_inv_cdf_accuracy(self, nu):
        rng = np.random.default_rng(int(nu * 100))
        # at nu = 0.5 the quantile of 1e-300 is not a double (see TestStudentTTails)
        tiny = 1e-300 if nu >= 1.0 else 1e-150
        p = np.concatenate([rng.uniform(0.0, 1.0, 400), [0.5, 1e-12, 1.0 - 1e-12, tiny, 1.0 - 2.0**-53]])
        x = student_t_inv_cdf(p, nu)
        np.testing.assert_allclose(t_dist.cdf(x, nu), p, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "f",
        [std_normal_pdf, std_normal_cdf, lambda a: student_t_cdf(a, 4.0)],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_raises(self, f, bad):
        with pytest.raises(DomainError):
            f(np.array([0.1, bad, 0.3]))

    @pytest.mark.parametrize(
        "f", [std_normal_inv_cdf, lambda a: student_t_inv_cdf(a, 4.0)]
    )
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_p_outside_unit_interval_raises(self, f, bad):
        with pytest.raises(DomainError):
            f(np.array([0.3, bad]))

    @pytest.mark.parametrize("f", [student_t_cdf, student_t_inv_cdf])
    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan])
    def test_nonpositive_nu_raises(self, f, nu):
        with pytest.raises(DomainError):
            f(np.array([0.3]), nu)


# the functions that take a float or an array, with their other arguments
_ONE_NAME = {
    "std_normal_pdf": (),
    "std_normal_cdf": (),
    "std_normal_inv_cdf": (),
    "student_t_pdf": (4.0,),
    "student_t_cdf": (4.0,),
    "student_t_inv_cdf": (4.0,),
    "reg_incomplete_beta": (2.0, 3.0),
}


class TestOneName:
    @pytest.mark.parametrize("name", list(_ONE_NAME))
    def test_float_in_float_out_shape_in_shape_out(self, name):
        def f(x):
            return getattr(specfun, name)(x, *_ONE_NAME[name])

        for x in (0.3, np.float64(0.3), np.array(0.3), 1e-300):
            assert type(f(x)) is float
        for shape in ((0,), (0, 3), (1,), (2, 1, 3), (3, 4)):
            got = f(np.linspace(0.05, 0.95, math.prod(shape)).reshape(shape))
            assert isinstance(got, np.ndarray) and got.shape == shape
        assert f([0.3, 0.6]).shape == (2,)
        _assert_lanes(f, np.linspace(0.05, 0.95, 12).reshape(3, 4))

    def test_one_name_per_function(self):
        assert sorted(specfun.__all__) == sorted([*_ONE_NAME, "ln_gamma", "debye1"])
        for name in _ONE_NAME:
            assert not hasattr(specfun, f"{name}_array")


# ---------------------------------------------------------------------------
# each Student-t function's value on a float is its kernel's lane: the same
# bits at every branch edge of the kernel, and the same error text
# ---------------------------------------------------------------------------

_LANE_NUS = (0.5, 1.0, 1.5, 2.5, 4.0, 30.0, 200.0, 1e6)


def _t_cdf_edges(nu: float) -> np.ndarray:
    """x at the t CDF kernel's branch edges, both signs, and a few t draws."""
    # w = nu/(nu + x^2) switches from the core to the tail beta at
    # x^2 = 3 nu/(nu + 2), and x * x overflows above sqrt(DBL_MAX)
    edges = _with_neighbours([math.sqrt(3.0 * nu / (nu + 2.0)), math.sqrt(sys.float_info.max)])
    draws = np.random.default_rng(7005).standard_t(nu, 20)
    points = np.concatenate([edges, [0.0, 5e-324, 1e-300, 0.5, 30.0, 1e200, sys.float_info.max], draws])
    return np.concatenate([points, -points])


def _t_quantile_edges(nu: float) -> np.ndarray:
    """p at the t quantile kernel's branch edges, in both tails, and a few uniform draws."""
    setup = _tquantile._TQuantileSetup(nu)
    # the asymptote's start gives way to the line through 0 where its t^2 = 2 nu
    q = [math.exp(-0.5 * nu * math.log(2.0) - setup.log_scale)]
    if nu == 1.0:
        # the Cauchy start switches its form at q = 1/4
        q.append(0.25)
    if setup.hill:
        # Hill's normal expansion gives way to his tail series at
        # y = 0.05 + a, and that to the asymptote at y = 2^-40
        for y in (0.05 + setup.a, _tquantile._HILL_TAIL_MIN):
            q.append(math.exp(0.5 * nu * math.log(y) - math.log(2.0 * setup.d)))
    # below T_nu(-DBL_MAX) the quantile is not a double
    floor = max(1e-300, 1.01 * student_t_cdf(-sys.float_info.max, nu))
    q = _with_neighbours([v for v in q if floor < v < 0.5])
    draws = np.random.default_rng(7006).uniform(0.0, 0.5, 10)
    q = np.concatenate([q, [floor, 1e-200, 1e-30, 1e-12, 0.01, 0.3, 0.5 - 2.0**-54], draws])
    upper = 1.0 - q[q > 1e-16]
    return np.concatenate([q[q >= floor], upper, [0.5, 1.0 - 2.0**-53]])


class TestStudentTLanes:
    @pytest.mark.parametrize("nu", _LANE_NUS)
    def test_cdf_is_the_kernel_lane(self, nu):
        _assert_lanes(lambda a: student_t_cdf(a, nu), _t_cdf_edges(nu))

    @pytest.mark.parametrize("nu", _LANE_NUS)
    def test_quantile_is_the_kernel_lane(self, nu):
        p = _t_quantile_edges(nu)
        _assert_lanes(lambda a: student_t_inv_cdf(a, nu), p)

    @pytest.mark.parametrize("nu", _LANE_NUS)
    def test_pdf_is_the_kernel_lane(self, nu):
        # log1p(x^2/nu) is taken as 2 ln|x| - ln nu where x^2/nu overflows:
        # above sqrt(DBL_MAX nu) for nu < 1, where x * x overflows otherwise
        x = np.concatenate([_t_cdf_edges(nu), _with_neighbours([math.sqrt(sys.float_info.max * min(nu, 1.0))])])
        _assert_lanes(lambda a: student_t_pdf(a, nu), x)

    @pytest.mark.parametrize("a, b", [(2.0, 3.0), (5.0, 0.5), (0.5, 5.0), (2.5, 1.5), (100.0, 0.5), (0.25, 0.5)])
    def test_incomplete_beta_is_the_kernel_lane(self, a, b):
        # the continued fraction runs direct below x = (a + 1)/(a + b + 2)
        # and on 1 - x above it
        x = np.concatenate(
            [_with_neighbours([(a + 1.0) / (a + b + 2.0)]), [0.0, 5e-324, 1e-300, 0.25, 0.5, 0.9, 1.0 - 2.0**-53, 1.0]]
        )
        _assert_lanes(lambda v: reg_incomplete_beta(v, a, b), x)

    def test_each_branch_is_reached(self, monkeypatch):
        # the quantile's point sets reach the tail and core betas and the far
        # tail, and each start: Hill's normal expansion and tail series, the
        # asymptote, the line through 0 and the Cauchy start's two forms
        seen = set()
        tail_beta, start = _tquantile._t_tail_beta_flat, _tquantile._t_start_flat

        def mark(**hits):
            seen.update(name for name, hit in hits.items() if np.any(hit))

        def tail_beta_seen(t, nu):
            g, tail = tail_beta(t, nu)
            with np.errstate(over="ignore"):
                far = np.isinf(t * t)
            mark(tail=tail & ~far, core=~tail, far=far)
            return g, tail

        def start_seen(setup, q, log_q):
            if setup.nu == 1.0:
                mark(cauchy_small=q < 0.25, cauchy_central=q >= 0.25)
                return start(setup, q, log_q)
            hill = np.zeros(q.shape, bool), np.zeros(q.shape, bool)
            if setup.hill:
                with np.errstate(over="ignore"):
                    y = np.exp(setup.hill_log_y(log_q))
                hill = y > 0.05 + setup.a, (y <= 0.05 + setup.a) & (y >= _tquantile._HILL_TAIL_MIN)
            with np.errstate(over="ignore"):
                t = np.exp(np.minimum(setup.log_asymptote(log_q), math.log(_tquantile._DBL_MAX)))
                line = t * t < 2.0 * setup.nu
            rest = ~(hill[0] | hill[1])
            mark(hill_normal=hill[0], hill_series=hill[1], line=rest & line, asymptote=rest & ~line)
            return start(setup, q, log_q)

        monkeypatch.setattr(_tquantile, "_t_tail_beta_flat", tail_beta_seen)
        monkeypatch.setattr(_tquantile, "_t_start_flat", start_seen)
        for nu in _LANE_NUS:
            student_t_inv_cdf(_t_quantile_edges(nu), nu)
        assert seen == {
            "tail", "core", "far", "cauchy_small", "cauchy_central", "hill_normal", "hill_series", "line", "asymptote"
        }

    def test_error_text_is_the_kernels(self):
        # the quantile at nu = 0.5 is not a double below p = 2.4e-155
        cases = [
            (student_t_inv_cdf, 1e-200, (0.5,)),
            (student_t_inv_cdf, 0.0, (4.0,)),
            (student_t_inv_cdf, 0.3, (-1.0,)),
            (student_t_cdf, math.inf, (4.0,)),
            (student_t_cdf, 1.0, (0.0,)),
            (student_t_pdf, math.nan, (4.0,)),
            (reg_incomplete_beta, 1.5, (2.0, 3.0)),
        ]
        messages = [_same_error_on_float_and_array(f, bad, *args) for f, bad, args in cases]
        assert messages[0] == (
            "student_t_inv_cdf(1e-200, nu=0.5): the quantile lies beyond -1.7976931348623157e+308, "
            "so it is not a finite double"
        )
        assert messages[-1] == "reg_incomplete_beta requires x in [0, 1], got 1.5"


def _same_error_on_float_and_array(f, bad, *args) -> str:
    """The text of the ``DomainError`` that ``f`` raises on ``bad``, the same
    for the float and for a one-element array."""
    with pytest.raises(DomainError) as on_float:
        f(bad, *args)
    with pytest.raises(DomainError) as on_array:
        f(np.array([bad]), *args)
    assert str(on_float.value) == str(on_array.value)
    return str(on_float.value)


# ---------------------------------------------------------------------------
# each normal function's value on a float is its kernel's lane too, and
# joint_pdf is its grid entry: the same bits at every branch edge, and the
# same error text
# ---------------------------------------------------------------------------

_DBL_MAX = sys.float_info.max


def _normal_cdf_edges() -> np.ndarray:
    """x at Phi's branch edges, |x|/sqrt(2) = 0.46875 (erf/erfc), 4 (the
    erfc rationals) and 26.5 (tail flushed to 0), with neighbours, both
    signs and both zeros."""
    edges = _with_neighbours([v / _INV_SQRT_2 for v in (0.46875, 4.0, 26.5)])
    draws = np.random.default_rng(7007).normal(0.0, 4.0, 30)
    points = np.concatenate([edges, [0.0, 5e-324, 1e-300, 1.0, 38.0, 1e200, _DBL_MAX], draws])
    return np.concatenate([points, -points])


def _normal_quantile_edges() -> np.ndarray:
    """p at Phi^-1's branch edges, |p - 1/2| = 0.425 (central and tail
    rationals), r = 5 (the two tail rationals, p = e^-25 and 1 - e^-25) and
    p = 1/2, with neighbours, and subnormal p."""
    edges = _with_neighbours([0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0), 0.5, _TINY])
    draws = np.random.default_rng(7008).uniform(0.0, 1.0, 30)
    return np.concatenate([edges, [5e-324, 1e-320, 1e-300, 1e-30, 1.0 - 2.0**-53], draws])


# the point sets reach each branch on both sides of each edge
def _cdf_branches(x):
    ay = np.abs(x * _INV_SQRT_2)
    return [ay <= 0.46875, (ay > 0.46875) & (ay <= 4.0), (ay > 4.0) & (ay <= 26.5), ay > 26.5]


def _quantile_branches(p):
    q = np.abs(p - 0.5)
    with np.errstate(divide="ignore"):
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    return [q <= 0.425, (q > 0.425) & (r <= 5.0), (q > 0.425) & (r > 5.0)]


# the specs of the joint_pdf lanes: every family at the Table 2 rho, and the
# strongest dependence the grid modes are asked about
_JOINT_SPECS = [spec_from_rho(family, rho) for family in CopulaFamily for rho in TABLE2_RHOS] + [
    CopulaSpec.clayton(200.0),
    CopulaSpec.gumbel(40.0),
    CopulaSpec.frank(-138.8),
    CopulaSpec.student_t(0.99, 0.5),
]


class TestNormalLanes:
    def test_cdf_is_the_kernel_lane(self):
        x = _normal_cdf_edges()
        assert all(branch.any() for branch in _cdf_branches(x))
        _assert_lanes(std_normal_cdf, x)

    def test_pdf_is_the_kernel_lane(self):
        # x * x overflows above sqrt(DBL_MAX), where the density is 0
        x = np.concatenate([_normal_cdf_edges(), _with_neighbours([math.sqrt(_DBL_MAX), -math.sqrt(_DBL_MAX)])])
        _assert_lanes(std_normal_pdf, x)

    def test_quantile_is_the_kernel_lane(self):
        p = _normal_quantile_edges()
        assert all(branch.any() for branch in _quantile_branches(p))
        _assert_lanes(std_normal_inv_cdf, p)

    def test_error_text_is_the_kernels(self):
        cases = [
            (std_normal_pdf, math.nan),
            (std_normal_pdf, -math.inf),
            (std_normal_cdf, math.inf),
            (std_normal_cdf, math.nan),
            (std_normal_inv_cdf, 0.0),
            (std_normal_inv_cdf, 1.0),
            (std_normal_inv_cdf, -0.2),
            (std_normal_inv_cdf, math.nan),
        ]
        messages = [_same_error_on_float_and_array(f, bad) for f, bad in cases]
        assert messages[2] == "std_normal_cdf requires finite x, got inf"
        assert messages[4] == "std_normal_inv_cdf requires 0 < p < 1, got 0.0"

    @pytest.mark.parametrize("spec", _JOINT_SPECS, ids=lambda s: "-".join(f"{v}" for v in s.describe().values()))
    def test_joint_pdf_is_its_grid_entry(self, spec):
        # the lattice holds (+-30, -+30) and (8, 8), where phi(x) phi(y) is
        # below the underflow floor or near it; the second axis straddles the
        # clamp, u = Phi(x) = 1e-12 and 1 - 1e-12, with neighbours
        grid = GridSpec(half_width=30.0, step=2.0)
        axis = grid.axis_points()
        eight = int(np.flatnonzero(axis == 8.0)[0])
        clamp = _with_neighbours([std_normal_inv_cdf(UEPS), -std_normal_inv_cdf(UEPS)])
        cases = [
            (axis, joint_pdf_grid(spec, grid), [(0, -1), (-1, 0), (0, 0), (-1, -1), (eight, eight)]),
            (clamp, jointdensity._grid_on_axes(spec, clamp, clamp), [(i, j) for i in range(6) for j in range(6)]),
        ]
        for xs, values, pairs in cases:
            for i, j in pairs:
                got = joint_pdf(spec, float(xs[i]), float(xs[j]))
                assert math.isfinite(got) and got >= 0.0
                assert _bits(got) == _bits(values[i, j]), (xs[i], xs[j])
        assert joint_pdf(spec, 30.0, -30.0) == joint_pdf(spec, -30.0, 30.0) == 0.0


def _bits(value) -> int:
    return int(np.float64(value).view(np.int64))
