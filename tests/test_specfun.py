"""Special function tests: the scalar functions and their array kernels.

Expected values marked as oracle-frozen were computed with mpmath at 40
significant digits (see the exact expressions in comments); the library
itself never touches mpmath.  The array kernels are checked bit for bit
against the scalar functions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdist.errors import DomainError
from sumdist.specfun import (
    _INV_SQRT_2,
    _P_LOW,
    bivariate_t_pdf,
    debye1,
    ln_gamma,
    reg_incomplete_beta,
    std_normal_cdf,
    std_normal_cdf_array,
    std_normal_inv_cdf,
    std_normal_inv_cdf_array,
    std_normal_pdf,
    std_normal_pdf_array,
    student_t_cdf,
    student_t_cdf_array,
    student_t_inv_cdf,
    student_t_inv_cdf_array,
    student_t_pdf,
)


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


class TestBivariateTPdf:
    def test_center_independence(self):
        # Gamma(3)/(Gamma(2) pi 4) = 1/(2 pi)
        assert bivariate_t_pdf(0.0, 0.0, 0.0, 4.0) == pytest.approx(0.15915494309189533577, rel=1e-13)

    def test_known_values(self):
        assert bivariate_t_pdf(1.0, -0.5, 0.3, 5.0) == pytest.approx(0.059797757996174642547, rel=1e-12)
        assert bivariate_t_pdf(1.2, -0.3, 0.6, 2.5) == pytest.approx(0.032861606930388219209, rel=1e-12)

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-0.95, max_value=0.95),
        st.sampled_from([1.0, 2.5, 4.0, 8.0]),
    )
    @settings(max_examples=200)
    def test_exchangeable_and_positive(self, x, y, rho, nu):
        v = bivariate_t_pdf(x, y, rho, nu)
        assert v > 0.0
        assert bivariate_t_pdf(y, x, rho, nu) == v

    def test_box_mass(self):
        # mass over [-40, 40]^2 for nu=4, rho=0.5; oracle via 1-D conditional
        # reduction with adaptive quadrature: 0.9999959511288078
        n = 1200
        h = 80.0 / n
        mids = [-40.0 + (i + 0.5) * h for i in range(n)]
        rows = []
        for x in mids:
            rows.append(math.fsum(bivariate_t_pdf(x, y, 0.5, 4.0) for y in mids) * h * h)
        total = math.fsum(rows)
        assert total == pytest.approx(0.9999959511288078, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            bivariate_t_pdf(0.0, 0.0, 1.0, 4.0)
        with pytest.raises(DomainError):
            bivariate_t_pdf(0.0, 0.0, 0.5, -1.0)


class TestDebye1:
    def test_small_argument_limit(self):
        assert debye1(1e-8) == pytest.approx(1.0, abs=1e-7)

    def test_known_values(self):
        # mpmath quadrature of the defining integral
        assert debye1(1.0) == pytest.approx(0.77750463411224827642, abs=1e-12)
        assert debye1(12.0) == pytest.approx(0.13707118265430719226, abs=1e-12)
        assert debye1(0.5) == pytest.approx(0.88192715679060552968, abs=1e-12)
        assert debye1(5.0) == pytest.approx(0.32087619770014612104, abs=1e-12)

    def test_negative_argument(self):
        assert debye1(-2.0) == pytest.approx(1.6069472846098100721, abs=1e-12)
        # identity D1(-t) = D1(t) + t/2
        for t in [0.5, 1.0, 3.0, 12.0]:
            assert debye1(-t) == pytest.approx(debye1(t) + t / 2.0, abs=1e-11)

    def test_frank_tau_at_12(self):
        tau = 1.0 - 4.0 / 12.0 * (1.0 - debye1(12.0))
        assert tau == pytest.approx(0.71, abs=5e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            debye1(0.0)


# ---------------------------------------------------------------------------
# array kernels: bitwise equal to the scalar functions
# ---------------------------------------------------------------------------

_NUS = (0.5, 1.0, 2.5, 4.0, 30.0, 200.0)


def _with_neighbours(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])


def _assert_bitwise(kernel, scalar, values) -> None:
    values = np.asarray(values, dtype=float)
    expected = np.array([scalar(float(v)) for v in values.ravel()]).reshape(values.shape)
    got = kernel(values)
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
    edges = _with_neighbours([_P_LOW, 1.0 - _P_LOW, 0.5, 1e-300])
    return np.concatenate(
        [
            rng.uniform(0.0, 1.0, 60_000),
            10.0 ** rng.uniform(-300.0, -1.0, 20_000),
            1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 20_000),
            edges,
            [1.0 - 2.0**-53],
        ]
    )


def _t_points(nu: float) -> np.ndarray:
    rng = np.random.default_rng(int(nu * 10))
    # x^2 = nu switches between the tail and the core beta argument
    edges = _with_neighbours([math.sqrt(nu)])
    return np.concatenate(
        [rng.standard_t(nu, 15_000), rng.uniform(-60.0, 60.0, 2_000), edges, -edges, [0.0, -0.0, 1e200, -1e-200]]
    )


class TestArrayKernels:
    def test_normal_pdf_bitwise(self):
        _assert_bitwise(std_normal_pdf_array, std_normal_pdf, np.append(_normal_points(), 1e200))

    def test_normal_cdf_bitwise(self):
        _assert_bitwise(std_normal_cdf_array, std_normal_cdf, _normal_points())

    def test_normal_inv_cdf_bitwise(self):
        _assert_bitwise(std_normal_inv_cdf_array, std_normal_inv_cdf, _probability_points())

    @pytest.mark.parametrize("nu", _NUS)
    def test_t_cdf_bitwise(self, nu):
        _assert_bitwise(
            lambda a: student_t_cdf_array(a, nu), lambda v: student_t_cdf(v, nu), _t_points(nu)
        )

    @pytest.mark.parametrize("nu", _NUS)
    def test_t_inv_cdf_bitwise(self, nu):
        rng = np.random.default_rng(int(nu * 100))
        p = np.concatenate([rng.uniform(0.0, 1.0, 400), [0.5, 1e-12, 1.0 - 1e-12, 1e-300, 1.0 - 2.0**-53]])
        _assert_bitwise(
            lambda a: student_t_inv_cdf_array(a, nu), lambda v: student_t_inv_cdf(v, nu), p
        )

    @pytest.mark.parametrize(
        "kernel",
        [std_normal_pdf_array, std_normal_cdf_array, lambda a: student_t_cdf_array(a, 4.0)],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_raises(self, kernel, bad):
        with pytest.raises(DomainError):
            kernel(np.array([0.1, bad, 0.3]))

    @pytest.mark.parametrize(
        "kernel", [std_normal_inv_cdf_array, lambda a: student_t_inv_cdf_array(a, 4.0)]
    )
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_p_outside_unit_interval_raises(self, kernel, bad):
        with pytest.raises(DomainError):
            kernel(np.array([0.3, bad]))

    @pytest.mark.parametrize("kernel", [student_t_cdf_array, student_t_inv_cdf_array])
    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan])
    def test_nonpositive_nu_raises(self, kernel, nu):
        with pytest.raises(DomainError):
            kernel(np.array([0.3]), nu)

    @pytest.mark.parametrize(
        "kernel, scalar",
        [
            (std_normal_pdf_array, std_normal_pdf),
            (std_normal_cdf_array, std_normal_cdf),
            (std_normal_inv_cdf_array, std_normal_inv_cdf),
            (lambda a: student_t_cdf_array(a, 4.0), lambda v: student_t_cdf(v, 4.0)),
            (lambda a: student_t_inv_cdf_array(a, 4.0), lambda v: student_t_inv_cdf(v, 4.0)),
        ],
    )
    def test_shape_kept(self, kernel, scalar):
        assert kernel(np.empty(0)).shape == (0,)
        assert kernel(np.empty((0, 3))).shape == (0, 3)
        _assert_bitwise(kernel, scalar, np.linspace(0.05, 0.95, 12).reshape(3, 4))
