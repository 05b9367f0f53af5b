"""Copula CDF/density and dependence-conversion tests.

Oracle values: mpmath (40 digits) for closed forms and Debye-based
conversions; for the elliptical CDFs, scipy's Owen's T (the closed-form
bivariate normal CDF) and a 30-digit mpmath integral over the t quantile.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdist import copula
from sumdist.copula import (
    CopulaFamily,
    CopulaSpec,
    copula_cdf,
    copula_density,
    spec_from_rho,
    tau_from_pearson_rho,
    tau_from_theta,
    theta_from_tau,
)
from sumdist import specfun
from sumdist.errors import DomainError
from sumdist.sumcdf import TABLE2_RHOS

ALL_FAMILIES = list(CopulaFamily)


def example_specs(rho=0.9, nu=4.0):
    """One spec per family, parameters derived from a common Pearson rho."""
    return [spec_from_rho(f, rho, nu) for f in ALL_FAMILIES]


class TestCopulaSpecValidation:
    def test_gauss_requires_rho_in_open_interval(self):
        with pytest.raises(DomainError):
            CopulaSpec.gauss(1.0)
        with pytest.raises(DomainError):
            CopulaSpec.gauss(-1.0)
        CopulaSpec.gauss(0.999)

    def test_t_requires_positive_nu(self):
        with pytest.raises(DomainError):
            CopulaSpec.student_t(0.5, 0.0)
        CopulaSpec.student_t(0.5, 0.5)

    def test_clayton_theta_positive(self):
        with pytest.raises(DomainError):
            CopulaSpec.clayton(0.0)
        with pytest.raises(DomainError):
            CopulaSpec.clayton(-1.0)

    def test_gumbel_theta_at_least_one(self):
        with pytest.raises(DomainError):
            CopulaSpec.gumbel(0.99)
        CopulaSpec.gumbel(1.0)

    def test_frank_theta_nonzero(self):
        with pytest.raises(DomainError):
            CopulaSpec.frank(0.0)
        CopulaSpec.frank(-3.0)

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda v: CopulaSpec.student_t(0.5, v), "nu"),
            (CopulaSpec.clayton, "theta"),
            (CopulaSpec.gumbel, "theta"),
            (CopulaSpec.frank, "theta"),
        ],
        ids=["t", "clayton", "gumbel", "frank"],
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_rejected(self, make, name, value):
        with pytest.raises(DomainError, match=name):
            make(value)

    @pytest.mark.parametrize("make", [CopulaSpec.clayton, CopulaSpec.gumbel, CopulaSpec.frank])
    def test_theta_bound(self, make):
        assert make(1e300).theta == 1e300
        for theta in (math.nextafter(1e300, math.inf), 1e301, 1e308):
            with pytest.raises(DomainError, match=r"requires \|theta\| <= 1e\+300, got "):
                make(theta)
        if make is CopulaSpec.frank:
            assert make(-1e300).theta == -1e300
            with pytest.raises(DomainError, match=r"requires \|theta\| <= 1e\+300, got -1e\+301"):
                make(-1e301)

    @pytest.mark.parametrize(
        "spec",
        [CopulaSpec.clayton(1e300), CopulaSpec.gumbel(1e300), CopulaSpec.frank(1e300), CopulaSpec.frank(-1e300)],
        ids=["clayton", "gumbel", "frank", "frank_negative"],
    )
    def test_cdf_and_density_finite_at_the_theta_bound(self, spec):
        # tier-1 turns an overflow warning into an error
        for u1 in (1e-300, 1e-12, 0.3, 0.5, 1.0 - 1e-12):
            for u2 in (1e-300, 1e-12, 0.3, 0.5, 1.0 - 1e-12):
                assert math.isfinite(copula_cdf(spec, u1, u2))
                assert math.isfinite(copula_density(spec, u1, u2))

    def test_clayton_cdf_at_the_theta_bound(self):
        # at theta = 1e306 this overflowed and returned 0; the copula is
        # all but comonotone, so C is min(u1, u2)
        assert copula_cdf(CopulaSpec.clayton(1e300), 1e-300, 0.5) == pytest.approx(1e-300, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.2, 1e6])
    def test_t_nu_range_edges_accepted(self, nu):
        assert CopulaSpec.student_t(0.5, nu).nu == nu

    @pytest.mark.parametrize(
        "nu", [math.nextafter(0.2, 0.0), math.nextafter(1e6, math.inf), 1e-3, 0.01, 1e9, 1e300]
    )
    def test_t_nu_outside_range_rejected(self, nu):
        # below 0.2 and above 1e6 the tables fail or lose accuracy (see copula._T_NU_MIN)
        with pytest.raises(DomainError, match=r"requires 0\.2 <= nu <= 1e\+06, got "):
            CopulaSpec.student_t(0.5, nu)

    def test_irrelevant_parameters_rejected(self):
        with pytest.raises(DomainError):
            CopulaSpec(CopulaFamily.GAUSS, rho=0.5, theta=2.0)
        with pytest.raises(DomainError):
            CopulaSpec(CopulaFamily.CLAYTON, rho=0.5, theta=2.0)
        with pytest.raises(DomainError):
            CopulaSpec(CopulaFamily.GAUSS, rho=0.5, nu=4.0)


class TestDependenceConversions:
    def test_tau_from_rho_known_values(self):
        assert tau_from_pearson_rho(0.0) == 0.0
        assert tau_from_pearson_rho(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
        # (2/pi) asin(0.9) = 0.7128674137425874585
        assert tau_from_pearson_rho(0.9) == pytest.approx(0.7128674137425874585, abs=1e-15)

    def test_tau_from_rho_domain(self):
        with pytest.raises(DomainError):
            tau_from_pearson_rho(1.0)

    def test_theta_targets_for_rho_09(self):
        # Pearson 0.9 pipeline: theta_cl 4.9654, theta_gu 3.4827, theta_fr 12.0254
        tau = tau_from_pearson_rho(0.9)
        assert theta_from_tau(CopulaFamily.CLAYTON, tau) == pytest.approx(4.9654232773392452626, abs=1e-10)
        assert theta_from_tau(CopulaFamily.GUMBEL, tau) == pytest.approx(3.4827116386696226313, abs=1e-10)
        assert theta_from_tau(CopulaFamily.FRANK, tau) == pytest.approx(12.025352559529375231, rel=1e-14, abs=0)

    def test_tau_from_theta_known_values(self):
        assert tau_from_theta(CopulaFamily.CLAYTON, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert tau_from_theta(CopulaFamily.GUMBEL, 1.0) == 0.0
        # mpmath Debye: tau(12) = 0.71235706088476906409
        assert tau_from_theta(CopulaFamily.FRANK, 12.0) == pytest.approx(0.71235706088476906409, abs=1e-10)

    @pytest.mark.parametrize(
        "family,thetas",
        [
            (CopulaFamily.CLAYTON, [0.1, 0.5, 2.0, 5.0, 20.0]),
            (CopulaFamily.GUMBEL, [1.01, 1.5, 3.5, 10.0]),
            (CopulaFamily.FRANK, [-20.0, -5.0, -0.5, 0.5, 3.0, 12.0, 35.0]),
        ],
    )
    def test_theta_tau_round_trip(self, family, thetas):
        for theta in thetas:
            tau = tau_from_theta(family, theta)
            assert theta_from_tau(family, tau) == pytest.approx(theta, rel=1e-8, abs=1e-8)

    def test_tau_zero(self):
        # Gumbel's theta = 1 is independence, inside the family; Clayton and
        # Frank reach independence only in the limit
        assert theta_from_tau(CopulaFamily.GUMBEL, 0.0) == 1.0
        for family in (CopulaFamily.CLAYTON, CopulaFamily.FRANK):
            with pytest.raises(DomainError, match="needs tau"):
                theta_from_tau(family, 0.0)
        for family in (CopulaFamily.CLAYTON, CopulaFamily.GUMBEL):
            with pytest.raises(DomainError, match="needs tau"):
                theta_from_tau(family, -0.1)

    def test_frank_negative_tau_antisymmetry(self):
        assert theta_from_tau(CopulaFamily.FRANK, -0.4) == pytest.approx(
            -theta_from_tau(CopulaFamily.FRANK, 0.4), rel=1e-10
        )

    def test_elliptical_families_rejected(self):
        with pytest.raises(DomainError):
            theta_from_tau(CopulaFamily.GAUSS, 0.5)
        with pytest.raises(DomainError):
            tau_from_theta(CopulaFamily.STUDENT_T, 2.0)


def _frank_tau_oracle(theta) -> "mpmath.mpf":
    """Frank's tau = 1 - 4 (1 - D1(theta)) / theta, with D1 by mpmath quadrature."""
    t = mpmath.mpf(theta)
    pts = [0, *(math.copysign(p, theta) for p in (1.0, 10.0, 50.0) if p < abs(theta)), t]
    d1 = mpmath.quad(lambda s: s / mpmath.expm1(s) if s else mpmath.mpf(1), pts) / t
    return 1 - 4 / t * (1 - d1)


class TestFrankInversion:
    @pytest.mark.parametrize("theta", [1e-6, -1e-6, 1e-4, 1e-2, 0.5, 1.99, 2.01])
    def test_tau_against_oracle(self, theta):
        # below |theta| = 2 the series, above it 1 - 4 (1 - D1) / theta
        with mpmath.workdps(30):
            expected = float(_frank_tau_oracle(theta))
        assert tau_from_theta(CopulaFamily.FRANK, theta) == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("theta", [1000.0, -1000.0, 1e4])
    def test_tau_at_extreme_theta(self, theta):
        tau = tau_from_theta(CopulaFamily.FRANK, theta)
        assert math.isfinite(tau)
        with mpmath.workdps(30):
            assert tau == pytest.approx(float(_frank_tau_oracle(theta)), rel=0, abs=1e-15)

    @pytest.mark.parametrize("rho", [0.993, 0.995, 0.999])
    def test_high_rho_round_trips(self, rho):
        spec = spec_from_rho(CopulaFamily.FRANK, rho)
        tau = tau_from_pearson_rho(rho)
        assert tau_from_theta(CopulaFamily.FRANK, spec.theta) == pytest.approx(tau, rel=1e-14, abs=0)

    @pytest.mark.parametrize("rho", TABLE2_RHOS)
    def test_table2_theta_is_the_exact_root(self, rho):
        tau = tau_from_pearson_rho(rho)
        theta = theta_from_tau(CopulaFamily.FRANK, tau)
        with mpmath.workdps(30):
            root = mpmath.findroot(lambda t: _frank_tau_oracle(t) - tau, theta)
            assert theta == pytest.approx(float(root), rel=1e-14, abs=0)

    def test_table2_newton_steps(self, monkeypatch):
        # one D1 evaluation per Newton step
        calls = []
        debye1 = specfun.debye1
        monkeypatch.setattr(specfun, "debye1", lambda theta: calls.append(theta) or debye1(theta))
        for rho in TABLE2_RHOS:
            calls.clear()
            spec_from_rho(CopulaFamily.FRANK, rho)
            assert 1 <= len(calls) <= 8, (rho, calls)

    @pytest.mark.parametrize("tau", [1e-12, 1e-6, 1e-4, 2e-3, 0.05, 0.5, 1.0 - 1e-9])
    def test_round_trip_across_tau(self, tau):
        theta = theta_from_tau(CopulaFamily.FRANK, tau)
        with mpmath.workdps(40):
            assert float(_frank_tau_oracle(theta)) == pytest.approx(tau, rel=1e-14, abs=0)

    @pytest.mark.parametrize("tau", [1.2e-4, 1.7e-4, 2e-4, 1e-3, 1e-2, 0.05])
    def test_theta_above_the_series_switch(self, tau):
        # theta from about 1e-3 up: the residual 4 (1 - D1)/theta - (1 - tau),
        # where 1 - D1 ~ theta/4 cancels, put theta 1.4e-9 off at
        # tau = 1.2e-4 and 1.2e-13 off at 1e-2; below theta = 0.5 the
        # residual takes tau(theta) from D1's series
        theta = theta_from_tau(CopulaFamily.FRANK, tau)
        with mpmath.workdps(40):
            root = mpmath.findroot(lambda t: _frank_tau_oracle(t) - tau, theta)
            assert theta == pytest.approx(float(root), rel=1e-15, abs=0)



def _gauss_cdf_owens_t(rho, u1, u2):
    """Bivariate normal CDF at the normal quantiles of u1, u2 by Owen's T:
    Phi2(h, k) = (Phi(h) + Phi(k)) / 2 - T(h, a_h) - T(k, a_k) - beta, for
    h, k != 0 (Owen 1956)."""
    from scipy import special

    h, k = special.ndtri(u1), special.ndtri(u2)
    r = math.sqrt(1.0 - rho * rho)
    beta = 0.0 if h * k > 0.0 else 0.5
    return float(
        0.5 * (special.ndtr(h) + special.ndtr(k))
        - special.owens_t(h, (k - rho * h) / (h * r))
        - special.owens_t(k, (h - rho * k) / (k * r))
        - beta
    )


def _t_cdf_oracle(rho, nu, u1, u2):
    """t copula CDF at 30 digits: the integral over x up to T_nu^-1(u1) of
    t_nu(x) T_{nu+1}((b - rho x) sqrt((nu + 1) / ((nu + x^2)(1 - rho^2)))),
    b = T_nu^-1(u2), with the t CDF from mpmath's incomplete beta."""
    with mpmath.workdps(30):
        rho, nu = mpmath.mpf(rho), mpmath.mpf(nu)

        def cdf(x, df):
            half = mpmath.betainc(df / 2, 0.5, 0, df / (df + x * x), regularized=True) / 2
            return half if x < 0 else 1 - half

        def pdf(x):
            c = mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(mpmath.pi * nu) * mpmath.gamma(nu / 2))
            return c * (1 + x * x / nu) ** (-(nu + 1) / 2)

        def quantile(p):
            return mpmath.findroot(lambda x: cdf(x, nu) - p, specfun.student_t_inv_cdf(p, float(nu)))

        a, b = quantile(u1), quantile(u2)
        scale = mpmath.sqrt((nu + 1) / (1 - rho * rho))
        pts = [-mpmath.inf, *(p for p in (-1e6, -1e3, -30, -3) if p < a), a]
        c = mpmath.quad(lambda x: pdf(x) * cdf((b - rho * x) * scale / mpmath.sqrt(nu + x * x), nu + 1), pts)
        return float(c)


class TestCopulaCdf:
    def test_gumbel_at_one_is_independence(self):
        assert copula_cdf(CopulaSpec.gumbel(1.0), 0.3, 0.7) == pytest.approx(0.21, abs=1e-12)

    def test_uniform_margin_property_all_families(self):
        for spec in example_specs():
            assert copula_cdf(spec, 0.42, 1.0) == 0.42
            assert copula_cdf(spec, 1.0, 0.42) == 0.42
            assert copula_cdf(spec, 0.0, 0.6) == 0.0

    def test_uniform_margins_on_grid(self):
        us = (np.arange(1, 100) / 100.0).tolist()
        for spec in example_specs():
            tol = 1e-12 if spec.family not in (CopulaFamily.GAUSS, CopulaFamily.STUDENT_T) else 1e-13
            for u in us:
                assert abs(copula_cdf(spec, u, 1.0) - u) <= tol

    def test_clayton_closed_form(self):
        # (4 + 4 - 1)^(-1/2)
        assert copula_cdf(CopulaSpec.clayton(2.0), 0.5, 0.5) == pytest.approx(
            0.37796447300922722721, rel=1e-13
        )

    def test_gumbel_frank_closed_forms(self):
        assert copula_cdf(CopulaSpec.gumbel(3.5), 0.4, 0.7) == pytest.approx(
            0.39621407086630876741, rel=1e-13
        )
        assert copula_cdf(CopulaSpec.frank(12.0), 0.4, 0.7) == pytest.approx(
            0.39783190212805721875, rel=1e-12
        )

    def test_gauss_quadrature_against_orthant_formula(self):
        # C(1/2, 1/2) = 1/4 + asin(rho) / (2 pi), any elliptical copula
        for rho in [0.9, 0.5, -0.3]:
            expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert copula_cdf(CopulaSpec.gauss(rho), 0.5, 0.5) == pytest.approx(expected, rel=0, abs=1e-13)
            assert copula_cdf(CopulaSpec.student_t(rho, 4.0), 0.5, 0.5) == pytest.approx(expected, rel=0, abs=1e-13)

    def test_gauss_quadrature_spot_values(self):
        # scipy multivariate_normal oracle
        assert copula_cdf(CopulaSpec.gauss(0.5), 0.3, 0.7) == pytest.approx(0.26690384886736307, abs=5e-8)
        assert copula_cdf(CopulaSpec.gauss(-0.4), 0.2, 0.8) == pytest.approx(0.1237942352878575, abs=5e-8)

    @pytest.mark.parametrize(
        "rho, u1, u2",
        [
            (0.5, 0.3, 0.7),
            (-0.4, 0.2, 0.8),
            *((rho, u1, u2) for rho in (0.999, -0.95) for u1, u2 in [(0.3, 0.6), (0.4, 0.45), (0.8, 0.9)]),
            *((rho, u, 0.6) for rho in (0.9, 0.999, -0.95) for u in (1e-10, 1e-300, 1.0 - 1e-6)),
            (0.999, 1.0 - 1e-6, 1.0 - 1e-6),
            (-0.95, 1e-10, 1.0 - 1e-6),
            (0.5, 1e-300, 1e-200),
            # h's step between 0 and 1 is about sqrt(1 - rho^2) wide in z
            (1.0 - 1e-6, 0.3, 0.3),
            (-1.0 + 1e-6, 0.3, 0.7),
            (-0.9999, 0.7, 0.8),
        ],
    )
    def test_gauss_against_owens_t(self, rho, u1, u2):
        assert copula_cdf(CopulaSpec.gauss(rho), u1, u2) == pytest.approx(
            _gauss_cdf_owens_t(rho, u1, u2), rel=0, abs=1e-13
        )

    def test_t_quadrature_spot_values(self):
        # 1-D conditional-reduction oracle (adaptive quadrature); the second
        # value is 2.3e-12 above the 30-digit oracle of test_t_against_mpmath
        assert copula_cdf(CopulaSpec.student_t(0.9, 4.0), 0.5, 0.5) == pytest.approx(
            0.42821685343564697, abs=5e-12
        )
        assert copula_cdf(CopulaSpec.student_t(0.5, 4.0), 0.3, 0.7) == pytest.approx(
            0.26142783673014414, abs=5e-12
        )
        assert copula_cdf(CopulaSpec.student_t(0.5, 3.0), 0.25, 0.65) == pytest.approx(
            0.21097475414554231, abs=5e-12
        )

    @pytest.mark.parametrize(
        "rho, nu, u1, u2",
        [
            (0.9, 0.5, 0.3, 0.6),
            (0.9, 1.0, 0.3, 0.6),
            (0.9, 3.0, 0.3, 0.6),
            (0.9, 4.0, 0.3, 0.6),
            (0.5, 4.0, 0.3, 0.7),
            (0.999, 0.5, 0.8, 0.95),
            (-0.6, 1.0, 0.05, 0.9),
            (-0.95, 3.0, 0.7, 0.8),
            (0.5, 1.0, 1e-6, 0.3),
        ],
    )
    def test_t_against_mpmath(self, rho, nu, u1, u2):
        assert copula_cdf(CopulaSpec.student_t(rho, nu), u1, u2) == pytest.approx(
            _t_cdf_oracle(rho, nu, u1, u2), rel=0, abs=1e-13
        )

    @pytest.mark.parametrize("u", [1e-4, 1e-8, 1e-12, 1e-20])
    def test_t_small_u_is_relatively_accurate(self, u):
        # the t quantile once solved T(x) = 1 - u to an absolute 1e-13: this
        # was 1.5e-12, 2.3e-9 and 2.4e-6 relative off at the first three u
        assert copula_cdf(CopulaSpec.student_t(0.5, 4.0), u, 0.3) == pytest.approx(
            _t_cdf_oracle(0.5, 4.0, u, 0.3), rel=1e-13, abs=0
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            copula_cdf(CopulaSpec.gauss(0.5), -0.1, 0.5)
        with pytest.raises(DomainError):
            copula_cdf(CopulaSpec.gauss(0.5), 0.5, 1.1)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_elliptical_cdf_bounds_and_symmetry(self, u1, u2):
        for spec in [
            CopulaSpec.gauss(0.9),
            CopulaSpec.gauss(-0.95),
            CopulaSpec.student_t(0.9, 4.0),
            CopulaSpec.student_t(-0.5, 1.0),
        ]:
            v = copula_cdf(spec, u1, u2)
            upper = min(u1, u2)
            # the rounded lower bound can cross the upper one: at (1.0, 0.3),
            # 1.0 + 0.3 - 1.0 = 0.30000000000000004, and C = 0.3 exactly
            assert min(max(0.0, u1 + u2 - 1.0), upper) <= v <= upper
            assert copula_cdf(spec, u2, u1) == v

    @given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=60)
    def test_archimedean_cdf_bounds_and_symmetry(self, u1, u2):
        for spec in [CopulaSpec.clayton(5.0), CopulaSpec.gumbel(3.5), CopulaSpec.frank(12.0)]:
            v = copula_cdf(spec, u1, u2)
            assert 0.0 <= v <= min(u1, u2) + 1e-12
            assert copula_cdf(spec, u2, u1) == pytest.approx(v, rel=1e-14, abs=1e-15)


CLAYTON_POINTS = [(0.3, 0.7), (0.01, 0.99), (1e-8, 0.5), (0.999, 0.9999), (1e-12, 1e-12), (0.5, 0.5)]


def _clayton_oracle(theta, u1, u2):
    """Clayton C and c at 50 digits: s = u1^-theta + u2^-theta - 1,
    C = s^(-1/theta), c = (1 + theta) (u1 u2)^(-theta - 1) s^(-2 - 1/theta)."""
    with mpmath.workdps(50):
        t, a, b = mpmath.mpf(theta), mpmath.mpf(u1), mpmath.mpf(u2)
        s = a**-t + b**-t - 1
        return s ** (-1 / t), (1 + t) * (a * b) ** (-t - 1) * s ** (-2 - 1 / t)


# Archimedean specs within copula._INDEP_TOL of independence.  The closed
# forms fail there: Clayton at 1e-20 gave C(0.3, 0.7) = 0.3, at 1e-15 a
# density 20% off 1; Frank at 1e-300 a NaN density
NEAR_INDEPENDENCE = [
    *(CopulaSpec.clayton(theta) for theta in (1e-9, 1e-10, 1e-12, 1e-15, 1e-20, 1e-100)),
    CopulaSpec.gumbel(1.0 + 5e-10),
    *(CopulaSpec.frank(theta) for theta in (1e-9, 1e-10, -1e-12, 1e-300)),
]


class TestIndependence:
    @pytest.mark.parametrize("spec", NEAR_INDEPENDENCE, ids=lambda s: repr(s.describe()))
    def test_density_is_one_and_cdf_the_product(self, spec):
        assert copula._independent(spec)
        for u1, u2 in [(0.3, 0.7), (0.3, 0.6), (1e-12, 0.5), (0.999, 0.001), (0.5, 0.5)]:
            assert copula_density(spec, u1, u2) == 1.0
            assert copula_cdf(spec, u1, u2) == u1 * u2
        assert copula_cdf(spec, 0.3, 0.7) == pytest.approx(0.21, rel=1e-15)

    def test_one_tolerance_for_the_three_families(self):
        tol = copula._INDEP_TOL
        inside = [CopulaSpec.clayton(tol), CopulaSpec.gumbel(1.0 + 0.9 * tol), CopulaSpec.frank(tol), CopulaSpec.frank(-tol)]
        outside = [CopulaSpec.clayton(2 * tol), CopulaSpec.gumbel(1.0 + 2 * tol), CopulaSpec.frank(2 * tol), CopulaSpec.frank(-2 * tol)]
        assert all(copula._independent(spec) for spec in inside)
        assert not any(copula._independent(spec) for spec in outside)
        # the elliptical families are never routed: Gauss at rho = 0 is
        # independence by its own formula, t at rho = 0 is not independence
        assert not copula._independent(CopulaSpec.gauss(0.0))
        assert not copula._independent(CopulaSpec.student_t(0.0))

    @pytest.mark.parametrize("theta", [2e-9, 1e-8, 1e-7, 1e-6])
    def test_clayton_just_outside_stays_near_independence(self, theta):
        # the closed form, not the rule.  The max-shifted generator sum that
        # both once used cancelled, up to 2e-16 / theta relative (8.5e-8 in C
        # and 8.0e-8 in c at theta = 2e-9); log1p(expm1(a1) + expm1(a2)) does not
        spec = CopulaSpec.clayton(theta)
        for u1, u2 in CLAYTON_POINTS:
            want_cdf, want_density = _clayton_oracle(theta, u1, u2)
            assert copula_cdf(spec, u1, u2) == pytest.approx(want_cdf, rel=5e-14, abs=0), (u1, u2)
            assert copula_density(spec, u1, u2) == pytest.approx(want_density, rel=5e-14, abs=0), (u1, u2)


class TestGeneratorSums:
    @pytest.mark.parametrize(
        "theta, cdf_bound, density_bound",
        # no worse than the max-shifted sum on every lane, whose worst C / c
        # errors on these points were 4.9e-15 / 1.3e-14, 1.8e-15 / 7.2e-14 and
        # 1.8e-15 / 1.3e-12 (c carries (theta + 1) ln u)
        [(4.965423277339248, 5e-15, 1.4e-14), (60.0, 2e-15, 7.5e-14), (200.0, 2e-15, 1.4e-12)],
    )
    def test_clayton_at_strong_dependence(self, theta, cdf_bound, density_bound):
        spec = CopulaSpec.clayton(theta)
        for u1, u2 in CLAYTON_POINTS:
            want_cdf, want_density = _clayton_oracle(theta, u1, u2)
            # where the true value is a normal double
            if want_cdf >= 2.0**-1022:
                assert copula_cdf(spec, u1, u2) == pytest.approx(float(want_cdf), rel=cdf_bound, abs=0), (u1, u2)
            if 2.0**-1022 <= want_density <= 2.0**1023:
                assert copula_density(spec, u1, u2) == pytest.approx(float(want_density), rel=density_bound, abs=0), (u1, u2)

    @pytest.mark.parametrize(
        "spec, name",
        [(CopulaSpec.clayton(4.965), "_clayton_log_s"), (CopulaSpec.clayton(200.0), "_clayton_log_s"), (CopulaSpec.gumbel(3.48), "_gumbel_log_a")],
    )
    def test_density_and_cdf_share_the_generator_sum(self, monkeypatch, spec, name):
        calls = []
        inner = getattr(copula, name)
        monkeypatch.setattr(copula, name, lambda *args: calls.append(args) or inner(*args))
        copula_density(spec, 0.3, 0.7)
        assert len(calls) == 1
        copula_cdf(spec, 0.3, 0.7)
        assert len(calls) == 2

    def test_clayton_sum_takes_the_max_shifted_form_where_expm1_overflows(self):
        # a = -theta ln u around the switch at 709; a lane of each form in one block
        ln_u = np.array([-700.0, -709.0, -709.5, -720.0, -1e-12])
        got = copula._clayton_log_s(1.0, ln_u[:, None], ln_u[None, :])
        for i, a1 in enumerate(-ln_u):
            for j, a2 in enumerate(-ln_u):
                with mpmath.workdps(50):
                    want = mpmath.log(mpmath.expm1(a1) + mpmath.expm1(a2) + 1)
                assert got[i, j] == pytest.approx(float(want), rel=1e-15), (a1, a2)


FRANK_THETAS = [1e-6, 1.0, 12.03, 40.0, 79.4, 138.8, 800.0, 1e300]
FRANK_POINTS = [
    (1e-10, 1e-10), (1e-10, 0.5), (0.01, 0.99), (0.1, 0.2), (0.3, 0.6), (0.45, 0.5),
    (0.5, 0.5), (0.3, 0.7), (0.6, 0.7), (0.9, 0.95), (0.999, 0.9999),
]


def _frank_cdf_oracle(theta, u1, u2):
    """Frank C = -ln(1 + X) / theta, X = expm1(-theta u1) expm1(-theta u2) / expm1(-theta),
    at 400 digits (at 60, 1 + X cancels near (1, 1) at theta = 138.8).  For
    theta = 1e300, with 1 + X expanded: (e^(-theta u1) + e^(-theta u2) -
    e^-theta - e^(-theta (u1 + u2))) / (1 - e^-theta)."""
    with mpmath.workdps(400):
        t, a, b = mpmath.mpf(theta), mpmath.mpf(u1), mpmath.mpf(u2)
        if abs(t) <= 1000:
            return -mpmath.log1p(mpmath.expm1(-t * a) * mpmath.expm1(-t * b) / mpmath.expm1(-t)) / t
        n = mpmath.exp(-t * a) + mpmath.exp(-t * b) - mpmath.exp(-t) - mpmath.exp(-t * (a + b))
        return -mpmath.log(n / -mpmath.expm1(-t)) / t


class TestFrankCdf:
    @pytest.mark.parametrize("theta", [sign * theta for theta in FRANK_THETAS for sign in (1.0, -1.0)])
    def test_against_400_digit_reference(self, theta):
        spec = CopulaSpec.frank(theta)
        for u1, u2 in FRANK_POINTS:
            got = copula_cdf(spec, u1, u2)
            assert max(0.0, u1 + u2 - 1.0) <= got <= min(u1, u2), (u1, u2)
            assert copula_cdf(spec, u2, u1) == got
            want = _frank_cdf_oracle(theta, u1, u2)
            # where the true C is a normal double
            if want >= 2.0**-1022:
                assert got == pytest.approx(float(want), rel=1e-13, abs=0), (u1, u2)

    def test_strong_dependence(self):
        # the quotient form rounded X towards -1 here: C(0.45, 0.5) was
        # 0.450546, above min(u1, u2)
        assert copula_cdf(CopulaSpec.frank(80.0), 0.45, 0.5) == pytest.approx(0.449773, abs=1e-6)
        # and log1p(-1) raised a math domain error, on the diagonal from
        # theta = 74.9 (rho = 0.9966) on
        for spec in [spec_from_rho(CopulaFamily.FRANK, 0.999), CopulaSpec.frank(75.0)]:
            for u1, u2 in [(0.3, 0.6), (0.5, 0.5), (0.9, 0.9)]:
                assert max(0.0, u1 + u2 - 1.0) <= copula_cdf(spec, u1, u2) <= min(u1, u2)

    @given(
        st.floats(min_value=-1e300, max_value=1e300).filter(lambda t: abs(t) > 1e-9),
        st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
        st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_never_raises_and_stays_in_the_frechet_bounds(self, theta, u1, u2):
        got = copula_cdf(CopulaSpec.frank(theta), u1, u2)
        assert max(0.0, u1 + u2 - 1.0) <= got <= min(u1, u2)
        assert copula_cdf(CopulaSpec.frank(theta), u2, u1) == got


class TestCopulaDensity:
    def test_clayton_known_value(self):
        # (1+2) * (0.5^-2 + 0.5^-2 - 1)^(-5/2) * 0.25^-3 = 192 * 7^(-5/2)
        assert copula_density(CopulaSpec.clayton(2.0), 0.5, 0.5) == pytest.approx(
            1.4810036493422781148, rel=1e-12
        )

    def test_gauss_rho_zero_is_one(self):
        for u1, u2 in [(0.1, 0.9), (0.5, 0.5), (0.33, 0.77)]:
            assert copula_density(CopulaSpec.gauss(0.0), u1, u2) == pytest.approx(1.0, rel=1e-12)

    def test_gumbel_at_one_is_independence(self):
        assert copula_density(CopulaSpec.gumbel(1.0), 0.3, 0.6) == 1.0

    def test_known_values(self):
        assert copula_density(CopulaSpec.gumbel(3.5), 0.4, 0.7) == pytest.approx(
            0.47010389856368749142, rel=1e-12
        )
        assert copula_density(CopulaSpec.frank(12.0), 0.4, 0.7) == pytest.approx(
            0.31126160246332178109, rel=1e-11
        )

    @given(
        st.floats(min_value=0.005, max_value=0.995),
        st.floats(min_value=0.005, max_value=0.995),
    )
    @settings(max_examples=60)
    def test_exchangeability_all_families(self, u1, u2):
        for spec in example_specs():
            assert copula_density(spec, u1, u2) == copula_density(spec, u2, u1)

    def test_boundary_raises(self):
        for spec in example_specs():
            with pytest.raises(DomainError):
                copula_density(spec, 0.0, 0.5)
            with pytest.raises(DomainError):
                copula_density(spec, 0.5, 1.0)

    def test_interior_clamp_is_silent(self):
        # values between 0 and the clamp bound evaluate at the clamp
        spec = CopulaSpec.clayton(5.0)
        assert copula_density(spec, 1e-14, 0.5) == copula_density(spec, 1e-12, 0.5)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_density_matches_mixed_partial_of_cdf(self, family):
        # central finite difference of C at interior points
        spec = spec_from_rho(family, 0.9)
        h = 1e-4
        grid = [0.15, 0.3, 0.5, 0.7, 0.85]
        for u1 in grid:
            for u2 in grid:
                fd = (
                    copula_cdf(spec, u1 + h, u2 + h)
                    - copula_cdf(spec, u1 + h, u2 - h)
                    - copula_cdf(spec, u1 - h, u2 + h)
                    + copula_cdf(spec, u1 - h, u2 - h)
                ) / (4.0 * h * h)
                assert fd == pytest.approx(copula_density(spec, u1, u2), rel=1e-3)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_density_normalizes_to_one(self, family):
        # midpoint quadrature over the clamped unit square; 4000 cells per
        # axis are needed to resolve the integrable corner singularities of
        # the tail-dependent families to the 1e-3 tolerance
        spec = spec_from_rho(family, 0.9)
        n = 4000
        eps = 1e-6
        step = (1.0 - 2.0 * eps) / n
        mids = eps + step * (np.arange(n) + 0.5)
        from sumdist.copula import _axis_coordinate, _density_from_coords

        coords = _axis_coordinate(spec, mids)
        total = 0.0
        block = 250
        for lo in range(0, n, block):
            c1 = coords[lo : lo + block][:, None]
            total += float(np.sum(_density_from_coords(spec, c1, coords[None, :])))
        assert total * step * step == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("theta", [0.3, 12.0, 51.37, 79.42, 138.8, 800.0, -0.3, -12.0, -51.37, -800.0])
    def test_frank_matches_high_precision_density(self, theta):
        # near u1 + u2 = 1 and near u1 = u2, where the textbook denominator
        # e^-theta - 1 + (e^(-theta u1) - 1)(e^(-theta u2) - 1) cancels; the
        # oracle evaluates it with 50 digits to spare beyond the cancellation
        points = [
            (0.5, 0.5), (0.3, 0.7), (0.49, 0.51 + 1e-12), (0.2, 0.8 - 1e-9), (0.05, 0.95),
            (0.1, 0.1 + 1e-9), (0.7, 0.7), (0.9, 0.9 - 1e-12), (0.25, 0.25 + 1e-6),
        ]
        spec = CopulaSpec.frank(theta)
        for u1, u2 in points:
            with mpmath.workdps(50 + int(abs(theta))):
                t, a, b = mpmath.mpf(theta), mpmath.mpf(u1), mpmath.mpf(u2)
                g, g1, g2 = mpmath.expm1(-t), mpmath.expm1(-t * a), mpmath.expm1(-t * b)
                want = float(-t * g * mpmath.exp(-t * (a + b)) / (g + g1 * g2) ** 2)
            got = copula_density(spec, u1, u2)
            # relative to the smallest normal double where the density is
            # subnormal (theta = 800 at (0.05, 0.95))
            assert abs(got - want) <= 1e-13 * max(abs(want), 2.0**-1022), (u1, u2)
            assert copula_density(spec, u2, u1) == got

    def test_large_theta_stability(self):
        # log-space kernels must not overflow at the clamp corner
        for spec in [CopulaSpec.clayton(50.0), CopulaSpec.gumbel(50.0), CopulaSpec.frank(50.0)]:
            v = copula_density(spec, 1e-12, 1e-12)
            assert math.isfinite(v) and v >= 0.0
            v = copula_density(spec, 1.0 - 1e-12, 1.0 - 1e-12)
            assert math.isfinite(v) and v >= 0.0
