"""Sampler tests: RNG determinism, family constructions, rank estimators.

Statistical assertions run at fixed, pre-registered seeds; distributional
oracles (Kolmogorov-Smirnov, Kendall tau) come from scipy.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sumdist import specfun
from sumdist.copula import CopulaFamily, CopulaSpec, spec_from_rho, tau_from_pearson_rho
from sumdist.errors import DomainError
from sumdist.sampler import (
    RandomSource,
    SampleSet,
    _chunk_gauss,
    _chunk_student_t,
    _correlated_normal_pair,
    _frank_conditional,
    _frank_invert,
    empirical_cdf,
    estimate_spearman_rho,
    estimate_tau,
    sample_copula,
    sample_sum,
)

SEED = 20240817
ALL_FAMILIES = list(CopulaFamily)


@functools.lru_cache(maxsize=None)
def copula_sample_1e5(family: CopulaFamily) -> np.ndarray:
    return sample_copula(spec_from_rho(family, 0.9, 4.0), 10**5, RandomSource(SEED))


@functools.lru_cache(maxsize=None)
def normal_margin_sample_1e5(family: CopulaFamily) -> SampleSet:
    return sample_sum(spec_from_rho(family, 0.9, 4.0), 10**5, RandomSource(SEED))


class TestRandomSource:
    def test_reproducible(self):
        a = RandomSource(123).uniform_block(64)
        b = RandomSource(123).uniform_block(64)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RandomSource(123, stream=0).uniform_block(64)
        b = RandomSource(123, stream=1).uniform_block(64)
        assert not np.array_equal(a, b)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=257))
    @settings(max_examples=40)
    def test_scalar_matches_block(self, seed, count):
        r1 = RandomSource(seed)
        r2 = RandomSource(seed)
        scalars = np.array([r1.uniform() for _ in range(count)])
        assert np.array_equal(scalars, r2.uniform_block(count))

    def test_normal_scalar_matches_block(self):
        r1, r2 = RandomSource(99), RandomSource(99)
        scalars = np.array([r1.normal() for _ in range(256)])
        assert np.array_equal(scalars, r2.normal_block(256))

    def test_uniform_strictly_inside_unit_interval(self):
        u = RandomSource(5).uniform_block(10**5)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_uniform_moments(self):
        u = RandomSource(11).uniform_block(10**6)
        assert u.mean() == pytest.approx(0.5, abs=2e-3)
        assert u.var() == pytest.approx(1.0 / 12.0, abs=2e-3)

    def test_normal_moments(self):
        z = RandomSource(13).normal_block(10**6)
        assert z.mean() == pytest.approx(0.0, abs=5e-3)
        assert z.var() == pytest.approx(1.0, abs=5e-3)

    def test_gamma_moments(self):
        g = RandomSource(17).gamma_block(2.5, 2 * 10**5)
        assert g.mean() == pytest.approx(2.5, abs=0.02)
        assert g.var() == pytest.approx(2.5, abs=0.05)
        g = RandomSource(19).gamma_block(0.4, 2 * 10**5)
        assert g.mean() == pytest.approx(0.4, abs=0.01)

    def test_seed_validation(self):
        with pytest.raises(DomainError):
            RandomSource(-1)
        with pytest.raises(DomainError):
            RandomSource(2**64)
        with pytest.raises(DomainError):
            RandomSource(1, stream=-1)


class TestSampleCopula:
    def test_single_pair_reproducible(self):
        spec = CopulaSpec.gauss(0.9)
        a = sample_copula(spec, 1, RandomSource(7))
        b = sample_copula(spec, 1, RandomSource(7))
        assert a.shape == (1, 2)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_deterministic_by_seed(self, family):
        spec = spec_from_rho(family, 0.9, 4.0)
        a = sample_copula(spec, 2000, RandomSource(SEED))
        b = sample_copula(spec, 2000, RandomSource(SEED))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_full_chunk_prefix_stability(self, family):
        # samples come from fixed 65536-pair substream blocks, so any run
        # must begin with exactly the one-full-chunk run's output
        from sumdist.sampler import CHUNK_PAIRS

        spec = spec_from_rho(family, 0.9, 4.0)
        short = sample_copula(spec, CHUNK_PAIRS, RandomSource(SEED))
        long = sample_copula(spec, CHUNK_PAIRS + 777, RandomSource(SEED))
        assert np.array_equal(short, long[:CHUNK_PAIRS])

    def test_values_in_open_unit_square(self):
        for family in ALL_FAMILIES:
            uv = copula_sample_1e5(family)
            assert uv.min() > 0.0 and uv.max() < 1.0

    def test_independence_tau_near_zero(self):
        uv = sample_copula(CopulaSpec.gauss(0.0), 10**5, RandomSource(SEED))
        assert abs(estimate_tau(uv)) <= 0.01

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_tau_matches_target(self, family):
        tau = estimate_tau(copula_sample_1e5(family))
        assert tau == pytest.approx(tau_from_pearson_rho(0.9), abs=0.02)

    def test_gumbel_upper_tail_clustering(self):
        uv = sample_copula(spec_from_rho(CopulaFamily.GUMBEL, 0.9), 5000, RandomSource(SEED))
        upper = np.mean((uv[:, 0] > 0.95) & (uv[:, 1] > 0.95)) / 0.05
        lower = np.mean((uv[:, 0] < 0.05) & (uv[:, 1] < 0.05)) / 0.05
        assert upper > lower

    def test_clayton_lower_tail_clustering(self):
        uv = sample_copula(spec_from_rho(CopulaFamily.CLAYTON, 0.9), 5000, RandomSource(SEED))
        upper = np.mean((uv[:, 0] > 0.95) & (uv[:, 1] > 0.95)) / 0.05
        lower = np.mean((uv[:, 0] < 0.05) & (uv[:, 1] < 0.05)) / 0.05
        assert lower > upper

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            sample_copula(CopulaSpec.gauss(0.5), 0, RandomSource(1))


class TestFrankInversion:
    def test_residual_below_contract(self):
        theta = 12.025352559529375
        rng = RandomSource(SEED)
        u1 = rng.uniform_block(20000)
        v = rng.uniform_block(20000)
        u2 = _frank_invert(theta, u1, v)
        resid = np.abs(_frank_conditional(theta, u1, u2) - v)
        assert float(resid.max()) <= 1e-10

    def test_negative_theta(self):
        rng = RandomSource(3)
        u1 = rng.uniform_block(2000)
        v = rng.uniform_block(2000)
        u2 = _frank_invert(-5.0, u1, v)
        resid = np.abs(_frank_conditional(-5.0, u1, u2) - v)
        assert float(resid.max()) <= 1e-10


class TestSampleSum:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_margins_pass_ks(self, family):
        ss = normal_margin_sample_1e5(family)
        bound = 1.95 / math.sqrt(ss.n)
        for col in (0, 1):
            assert stats.kstest(ss.pairs[:, col], "norm").statistic <= bound

    def test_single_pair(self):
        ss = sample_sum(CopulaSpec.gauss(0.9), 1, RandomSource(7))
        again = sample_sum(CopulaSpec.gauss(0.9), 1, RandomSource(7))
        assert ss.pairs.shape == (1, 2)
        assert np.array_equal(ss.pairs, again.pairs)

    def test_gauss_sum_standard_deviation(self):
        ss = sample_sum(CopulaSpec.gauss(0.9), 10**6, RandomSource(SEED))
        assert float(ss.sums().std()) == pytest.approx(math.sqrt(3.8), abs=0.01)

    def test_frank_sum_upper_quantile(self):
        ss = sample_sum(spec_from_rho(CopulaFamily.FRANK, 0.9), 10**6, RandomSource(SEED))
        s = np.sort(ss.sums())
        assert s[int(0.99 * ss.n) - 1] == pytest.approx(4.20, abs=0.05)

    def test_provenance_recorded(self):
        ss = normal_margin_sample_1e5(CopulaFamily.CLAYTON)
        assert ss.seed == SEED and ss.n == 10**5
        assert ss.spec.family is CopulaFamily.CLAYTON


class TestArrayTransforms:
    """The array kernels give the bits of the scalar per-element loops."""

    @staticmethod
    def _assert_bitwise(got, expected):
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_sample_sum_matches_scalar_quantile_loop(self, family):
        spec = spec_from_rho(family, 0.9, 4.0)
        uv = sample_copula(spec, 3000, RandomSource(SEED))
        expected = np.array([[specfun.std_normal_inv_cdf(float(u)) for u in row] for row in uv])
        self._assert_bitwise(sample_sum(spec, 3000, RandomSource(SEED)).pairs, expected)

    def test_gauss_chunk_matches_scalar_cdf_loop(self):
        spec = CopulaSpec.gauss(0.9)
        x, y = _correlated_normal_pair(RandomSource(SEED, 3), spec.rho, 3000)
        expected = np.array([[specfun.std_normal_cdf(float(a)), specfun.std_normal_cdf(float(b))] for a, b in zip(x, y)])
        self._assert_bitwise(_chunk_gauss(spec, RandomSource(SEED, 3), 3000), expected)

    @pytest.mark.parametrize("nu", [1.5, 4.0])
    def test_student_t_chunk_matches_scalar_cdf_loop(self, nu):
        spec = CopulaSpec.student_t(0.9, nu)
        rng = RandomSource(SEED, 3)
        x, y = _correlated_normal_pair(rng, spec.rho, 3000)
        scale = np.sqrt(nu / rng.chi_square_block(nu, 3000))
        expected = np.array(
            [[specfun.student_t_cdf(float(a), nu), specfun.student_t_cdf(float(b), nu)] for a, b in zip(x * scale, y * scale)]
        )
        self._assert_bitwise(_chunk_student_t(spec, RandomSource(SEED, 3), 3000), expected)


class TestEmpiricalCdf:
    def test_single_pair(self):
        ss = SampleSet(
            pairs=np.array([[0.3, -0.3]]), spec=CopulaSpec.gauss(0.5), seed=0, n=1
        )
        table = empirical_cdf(ss, [0.0, 1.0])
        assert table.F_values[0] == 1.0
        assert table.F_values[-1] == 1.0

    def test_reaches_one_beyond_max_sum(self):
        ss = normal_margin_sample_1e5(CopulaFamily.GUMBEL)
        table = empirical_cdf(ss, [float(ss.sums().max()) + 1.0])
        assert table.F_values[0] == 1.0

    def test_center_value_gauss(self):
        ss = sample_sum(CopulaSpec.gauss(0.9), 10**6, RandomSource(SEED))
        table = empirical_cdf(ss, [0.0])
        assert table.F_values[0] == pytest.approx(0.5, abs=0.002)

    def test_nondecreasing(self):
        ss = normal_margin_sample_1e5(CopulaFamily.STUDENT_T)
        table = empirical_cdf(ss, np.linspace(-6, 6, 121))
        assert np.all(np.diff(table.F_values) >= 0.0)


class TestEstimateTau:
    def test_perfectly_concordant(self):
        pairs = np.column_stack([np.arange(50.0), np.arange(50.0)])
        assert estimate_tau(pairs) == 1.0

    def test_perfectly_discordant(self):
        pairs = np.column_stack([np.arange(50.0), -np.arange(50.0)])
        assert estimate_tau(pairs) == -1.0

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = rng.integers(0, 8, 400).astype(float)
            b = (0.5 * a + rng.integers(0, 8, 400)).astype(float)
            mine = estimate_tau(np.column_stack([a, b]))
            ref = stats.kendalltau(a, b).statistic
            assert mine == pytest.approx(ref, abs=1e-13)

    def test_matches_scipy_continuous(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=3000)
        b = 0.7 * a + rng.normal(size=3000)
        assert estimate_tau(np.column_stack([a, b])) == pytest.approx(
            stats.kendalltau(a, b).statistic, abs=1e-13
        )

    def test_gauss_rho09_sample(self):
        tau = estimate_tau(copula_sample_1e5(CopulaFamily.GAUSS))
        assert tau == pytest.approx(0.713, abs=0.01)

    def test_accepts_sample_set(self):
        ss = normal_margin_sample_1e5(CopulaFamily.GAUSS)
        assert estimate_tau(ss) == estimate_tau(ss.pairs)

    def test_too_small(self):
        with pytest.raises(DomainError):
            estimate_tau(np.array([[1.0, 2.0]]))


class TestEstimateSpearman:
    def test_comonotone(self):
        pairs = np.column_stack([np.arange(40.0), np.arange(40.0) ** 3])
        assert estimate_spearman_rho(pairs) == pytest.approx(1.0, abs=1e-14)

    def test_independence_near_zero(self):
        uv = sample_copula(CopulaSpec.gauss(0.0), 10**5, RandomSource(SEED))
        assert abs(estimate_spearman_rho(uv)) <= 0.01

    def test_gauss_rho09_matches_elliptical_identity(self):
        # (6/pi) asin(rho/2) = 0.89145613168010021198 for rho = 0.9
        rho_s = estimate_spearman_rho(copula_sample_1e5(CopulaFamily.GAUSS))
        assert rho_s == pytest.approx(0.89145613168010021198, abs=0.01)

    def test_matches_scipy(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=2000)
        b = 0.4 * a + rng.normal(size=2000)
        assert estimate_spearman_rho(np.column_stack([a, b])) == pytest.approx(
            stats.spearmanr(a, b).statistic, abs=1e-12
        )

    def test_too_small(self):
        with pytest.raises(DomainError):
            estimate_spearman_rho(np.array([[1.0, 2.0]]))


class TestSampleSetValidation:
    def test_shape_checked(self):
        with pytest.raises(DomainError):
            SampleSet(pairs=np.zeros((3, 2)), spec=CopulaSpec.gauss(0.5), seed=0, n=4)

    def test_pairs_read_only(self):
        ss = sample_sum(CopulaSpec.gauss(0.5), 10, RandomSource(1))
        with pytest.raises(ValueError):
            ss.pairs[0, 0] = 9.9
