"""Sampler tests: RNG determinism, family constructions, rank estimators.

Statistical assertions run at fixed, pre-registered seeds; distributional
oracles (Kolmogorov-Smirnov, Kendall tau) come from scipy.
"""

import functools
import itertools
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special
from scipy import stats

from sumdist import sampler, specfun
from sumdist.copula import CopulaFamily, CopulaSpec, spec_from_rho, tau_from_pearson_rho, tau_from_theta
from sumdist.errors import DomainError
from sumdist.sampler import (
    CHUNK_PAIRS,
    _GOLDEN,
    _MIX_1,
    _MIX_2,
    RandomSource,
    SampleSet,
    _chunk_gauss,
    _chunk_student_t,
    _correlated_normal_pair,
    _frank_inverse,
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

    @pytest.mark.parametrize("top", [2**53 - 1, 2**53 - 2, 2**52, 0])
    def test_extreme_draws_stay_inside_unit_interval(self, top):
        # the state whose next output has top 53 bits `top`: undo the
        # splitmix64 finaliser (two xor-shift/multiply rounds and a xor-shift)
        mask = 2**64 - 1

        def unshift(z, k):
            x = z
            for _ in range(64 // k + 1):
                x = z ^ (x >> k)
            return x

        z = unshift((top << 11) | 0x5A5, 31)
        z = unshift(z * pow(_MIX_2, -1, 2**64) & mask, 27)
        z = unshift(z * pow(_MIX_1, -1, 2**64) & mask, 30)
        want = min((top + 0.5) * 2.0**-53, 1.0 - 2.0**-53)
        r1, r2 = RandomSource(1), RandomSource(1)
        r1._state = r2._state = (z - _GOLDEN) & mask
        assert r1.next_uint64() >> 11 == top
        r1._state = r2._state
        assert r1.uniform() == want
        assert r2.uniform_block(1)[0] == want
        assert 0.0 < want < 1.0

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

    def test_log_gamma_at_small_shape(self):
        # G U^(1/shape) underflows at shape 1/200; its log, log G + log(U) / shape, does not
        logs = RandomSource(23).log_gamma_block(1.0 / 200.0, 10**5)
        assert np.all(np.isfinite(logs))
        assert np.count_nonzero(np.exp(logs) == 0.0) > 1000
        # the log of Gamma(k) has mean digamma(k): -200.58 at k = 1/200
        assert logs.mean() == pytest.approx(float(scipy_special.digamma(1.0 / 200.0)), rel=0.02)
        # below shape 1, gamma_block takes its variates from there
        np.testing.assert_array_equal(RandomSource(29).gamma_block(0.4, 1000), np.exp(RandomSource(29).log_gamma_block(0.4, 1000)))

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

    @pytest.mark.parametrize("draw", [sample_copula, sample_sum])
    def test_n_above_the_size_limit(self, monkeypatch, draw):
        # the count decides before any array exists: np.empty is reached at
        # the limit and not above it.  Never run these n unpatched
        class Reached(Exception):
            pass

        def no_array(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(np, "empty", no_array)
        with pytest.raises(Reached):
            draw(CopulaSpec.gauss(0.5), sampler.MAX_PAIRS, RandomSource(1))
        for n in (sampler.MAX_PAIRS + 1, 10**15):
            with pytest.raises(DomainError, match=f"got n = {n} pairs, above the limit of {sampler.MAX_PAIRS}$"):
                draw(CopulaSpec.gauss(0.5), n, RandomSource(1))

    @pytest.mark.parametrize("family", [CopulaFamily.CLAYTON, CopulaFamily.GUMBEL])
    @pytest.mark.parametrize("theta", [60.0, 200.0])
    def test_strong_dependence(self, family, theta):
        # the frailties in linear space underflowed from about theta = 60 on:
        # at theta = 200, 57,200 Clayton draws of 10^6 were 0, and Gumbel's
        # were 7,168 zeros and 73,858 ones, with RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            uv = sample_copula(CopulaSpec(family, theta=theta), 10**6, RandomSource(0))
        assert 0.0 < uv.min() and uv.max() < 1.0
        # every tenth pair, from every chunk
        assert estimate_tau(uv[::10]) == pytest.approx(tau_from_theta(family, theta), abs=0.002)

    def test_independence_draws_one_layout(self):
        # uniform pairs, in draw order, from each chunk's substream, for
        # every Archimedean family at independence
        n = CHUNK_PAIRS + 777
        want = np.concatenate(
            [RandomSource(SEED).substream(k).uniform_block(2 * m).reshape(m, 2) for k, m in enumerate((CHUNK_PAIRS, 777))]
        )
        for spec in (
            CopulaSpec.gumbel(1.0),
            CopulaSpec.gumbel(1.0 + 5e-10),
            *(CopulaSpec.clayton(theta) for theta in (1e-10, 1e-12, 1e-15, 1e-100)),
            CopulaSpec.frank(1e-10),
            CopulaSpec.frank(-1e-300),
        ):
            np.testing.assert_array_equal(sample_copula(spec, n, RandomSource(SEED)), want, err_msg=repr(spec.describe()))
            # and the normal margins are their normal quantiles
            np.testing.assert_array_equal(
                sample_sum(spec, n, RandomSource(SEED)).pairs, specfun.std_normal_inv_cdf_array(want), err_msg=repr(spec.describe())
            )

    def test_clayton_near_independence_stays_inside(self):
        # at theta = 1e-12 the frailty construction drew u = 1.0, and the
        # normal quantile of the margins then failed
        pairs = sample_sum(CopulaSpec.clayton(1e-12), 70000, RandomSource(1)).pairs
        assert np.all(np.isfinite(pairs))

    @pytest.mark.parametrize("bad", [0.0, 1.0, math.nan])
    def test_draw_outside_the_open_square_is_a_domain_error(self, monkeypatch, bad):
        def rounded(spec, rng, m):
            uv = np.full((m, 2), 0.5)
            uv[m // 2, 1] = bad
            return uv

        monkeypatch.setitem(sampler._CHUNK_GENERATORS, CopulaFamily.GUMBEL, rounded)
        with pytest.raises(DomainError, match=rf"gumbel copula sampling failed for theta=3\.5: a draw of {bad!r} lies outside \(0, 1\)"):
            sample_copula(CopulaSpec.gumbel(3.5), 100, RandomSource(1))


def _frank_exact(theta: float):
    """Frank's conditional h(w | u) = dC/du and its inverse in 600-digit
    decimal arithmetic, exact for float inputs and for either sign of theta
    (decimal exponentials do not overflow).  With a = e^(-theta u),
    h(w | u) = a (e^(-theta w) - 1) / (e^-theta - 1 + (a - 1)(e^(-theta w) - 1)) and
    h^-1(v | u) = -log((a (1 - v) + v e^-theta) / (a (1 - v) + v)) / theta.
    """
    th = Decimal(theta)

    def a_of(u):
        return (-th * Decimal(u)).exp()

    def conditional(u, w):
        with localcontext() as ctx:
            ctx.prec = 600
            a, b = a_of(u), (-th * Decimal(w)).exp()
            return float(a * (b - 1) / ((-th).exp() - 1 + (a - 1) * (b - 1)))

    def inverse(u, v):
        with localcontext() as ctx:
            ctx.prec = 600
            a, p = a_of(u), Decimal(v)
            return float(-((a * (1 - p) + p * (-th).exp()) / (a * (1 - p) + p)).ln() / th)

    return conditional, inverse


def _frank_inputs(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Random (u1, v) plus the corners and edges of the uniform range."""
    rng = RandomSource(seed)
    lo, hi = 2.0**-54, 1.0 - 2.0**-53  # smallest and largest uniform draws
    u1 = np.concatenate([rng.uniform_block(count), [lo, lo, hi, hi, 0.5, lo, hi, 0.5]])
    v = np.concatenate([rng.uniform_block(count), [lo, hi, lo, hi, 0.5, 0.5, 0.5, lo]])
    return u1, v


class TestFrankInversion:
    @pytest.mark.parametrize("theta", [1e-6, 0.5, 5.0, 12.025352559529375, 35.0, 200.0, 1000.0, -5.0, -800.0])
    def test_matches_decimal_oracle(self, theta):
        _, inverse = _frank_exact(theta)
        u1, v = _frank_inputs(SEED, 12)
        exact = np.array([inverse(a, b) for a, b in zip(u1, v)])
        assert float(np.abs(_frank_inverse(theta, u1, v) - exact).max()) <= 1e-15

    @staticmethod
    def _check_residual(theta):
        conditional, _ = _frank_exact(theta)
        u1, v = _frank_inputs(3, 12)
        u2 = _frank_inverse(theta, u1, v)
        residual = max(abs(conditional(a, w) - b) for a, w, b in zip(u1, u2, v))
        # h rises in w with slope at most |theta| / (1 - e^-|theta|), the
        # largest Frank density, so a u2 within 1e-15 of exact keeps h within
        # that many 1e-15 of v (plus the rounding of h to a float)
        slope = abs(theta) / -math.expm1(-abs(theta))
        assert residual <= slope * 1e-15 + 2.0**-53

    def test_residual_below_contract(self):
        self._check_residual(12.025352559529375)

    def test_negative_theta(self):
        self._check_residual(-5.0)

    @pytest.mark.parametrize("theta", [35.0, 200.0])
    def test_tau_at_high_theta(self, theta):
        # high theta is where an inexact inverse shows: a bisection on the
        # float h gave tau 0.569 at theta = 200, against 0.980
        uv = sample_copula(CopulaSpec.frank(theta), 20000, RandomSource(SEED))
        assert estimate_tau(uv) == pytest.approx(tau_from_theta(CopulaFamily.FRANK, theta), abs=0.01)


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
    """The sampler's margin transforms meet the special functions' accuracy
    targets against scipy, and agree with the scalar per-element loops to the
    bound that ``test_specfun`` measures for each kernel."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_sample_sum_applies_normal_quantile(self, family):
        spec = spec_from_rho(family, 0.9, 4.0)
        n = CHUNK_PAIRS + 3000
        uv = sample_copula(spec, n, RandomSource(SEED))
        pairs = sample_sum(spec, n, RandomSource(SEED)).pairs
        np.testing.assert_allclose(stats.norm.cdf(pairs), uv, rtol=0.0, atol=1e-12)
        if family is CopulaFamily.GAUSS:
            # the margins are each substream's correlated normal pairs, with
            # no round trip through Phi (which loses up to about 1e-11
            # relative above x = 4.75), and sample_copula holds their Phi
            normals = np.concatenate(
                [
                    np.column_stack(_correlated_normal_pair(RandomSource(SEED).substream(k), spec.rho, m))
                    for k, m in enumerate((CHUNK_PAIRS, 3000))
                ]
            )
            np.testing.assert_array_equal(pairs, normals)
            np.testing.assert_array_equal(uv, specfun.std_normal_cdf_array(normals))
        else:
            # the kernel is the scalar to the bit
            expected = np.array([[specfun.std_normal_inv_cdf(u) for u in row] for row in uv[::20].tolist()])
            np.testing.assert_array_equal(pairs[::20], expected)

    def test_gauss_chunk_applies_normal_cdf(self):
        spec = CopulaSpec.gauss(0.9)
        x, y = _correlated_normal_pair(RandomSource(SEED, 3), spec.rho, 3000)
        got = _chunk_gauss(spec, RandomSource(SEED, 3), 3000)
        np.testing.assert_allclose(got, stats.norm.cdf(np.column_stack([x, y])), rtol=0.0, atol=1e-12)
        expected = np.array([[specfun.std_normal_cdf(float(a)), specfun.std_normal_cdf(float(b))] for a, b in zip(x, y)])
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("nu", [1.5, 4.0])
    def test_student_t_chunk_applies_t_cdf(self, nu):
        spec = CopulaSpec.student_t(0.9, nu)
        rng = RandomSource(SEED, 3)
        x, y = _correlated_normal_pair(rng, spec.rho, 3000)
        scale = np.sqrt(nu / rng.chi_square_block(nu, 3000))
        got = _chunk_student_t(spec, RandomSource(SEED, 3), 3000)
        xy = np.column_stack([x * scale, y * scale])
        np.testing.assert_allclose(got, stats.t.cdf(xy, nu), rtol=0.0, atol=1e-10)
        expected = np.array([[specfun.student_t_cdf(float(a), nu) for a in row] for row in xy])
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)


class TestEmpiricalCdf:
    def test_single_pair(self):
        ss = SampleSet(pairs=np.array([[0.3, -0.3]]), spec=CopulaSpec.gauss(0.5), seed=0)
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

    def test_matches_scipy_with_duplicated_pairs_and_infinities(self):
        rng = np.random.default_rng(7)
        base = np.column_stack([rng.integers(0, 5, 40), rng.normal(size=40).round(1)]).astype(float)
        base[rng.integers(0, 40, 6), 0] = np.inf
        base[rng.integers(0, 40, 6), 1] = -np.inf
        for _ in range(5):
            pairs = base[rng.integers(0, 40, 300)]  # whole pairs repeat
            ref = stats.kendalltau(pairs[:, 0], pairs[:, 1]).statistic
            assert estimate_tau(pairs) == pytest.approx(ref, abs=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=40))
    def test_equals_pairwise_count(self, points):
        # concordant minus discordant, and the ties, counted pair by pair: the
        # same integers in the same formula give the same double
        pairs = np.array(points, dtype=float)
        pairs[pairs == 3] = np.inf
        pairs[pairs == -3] = -np.inf
        total = len(pairs) * (len(pairs) - 1) // 2
        score = ties_x = ties_y = ties_both = 0
        for (x1, y1), (x2, y2) in itertools.combinations(pairs.tolist(), 2):
            dx, dy = (x2 > x1) - (x2 < x1), (y2 > y1) - (y2 < y1)
            score += dx * dy
            ties_x += dx == 0
            ties_y += dy == 0
            ties_both += dx == dy == 0
        if ties_x == total or ties_y == total:
            with pytest.raises(DomainError, match="all pairs tied in one coordinate"):
                estimate_tau(pairs)
            return
        expected = score / (math.sqrt(float(total - ties_x)) * math.sqrt(float(total - ties_y)))
        assert estimate_tau(pairs) == expected

    @pytest.mark.parametrize("column", [0, 1])
    def test_all_tied_in_one_coordinate(self, column):
        pairs = np.column_stack([np.arange(6.0), np.arange(6.0)])
        pairs[:, column] = 2.5
        with pytest.raises(DomainError, match="tau undefined: all pairs tied in one coordinate"):
            estimate_tau(pairs)

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

    def test_matches_scipy_with_ties(self):
        # tied values share the mean of their ranks
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = rng.integers(0, 8, 400).astype(float)
            b = (0.5 * a + rng.integers(0, 8, 400)).astype(float)
            b[rng.integers(0, 400, 20)] = np.inf
            assert estimate_spearman_rho(np.column_stack([a, b])) == pytest.approx(
                stats.spearmanr(a, b).statistic, abs=1e-13
            )

    def test_constant_ranks(self):
        pairs = np.column_stack([np.arange(6.0), np.full(6, -np.inf)])
        with pytest.raises(DomainError, match="spearman rho undefined: constant ranks"):
            estimate_spearman_rho(pairs)

    def test_too_small(self):
        with pytest.raises(DomainError):
            estimate_spearman_rho(np.array([[1.0, 2.0]]))


@pytest.mark.parametrize("estimator", [estimate_tau, estimate_spearman_rho])
class TestRankInputs:
    def test_nan_pair_is_rejected(self, estimator):
        pairs = np.array([[1.0, 2.0], [np.nan, 1.0], [3.0, 0.5], [2.0, np.nan]])
        with pytest.raises(DomainError, match=r"pair 1 is \(nan, 1\.0\): NaN cannot be ranked"):
            estimator(pairs)

    def test_infinities_are_ranked(self, estimator):
        pairs = np.array([[-np.inf, 1.0], [0.0, 2.0], [np.inf, np.inf], [1.0, -np.inf]])
        assert estimator(pairs) == estimator(np.array([[-9.0, 1.0], [0.0, 2.0], [9.0, 9.0], [1.0, -9.0]]))


class TestSampleSetValidation:
    def test_shape_checked(self):
        with pytest.raises(DomainError, match=r"\(n, 2\) array, got shape \(3, 3\)"):
            SampleSet(pairs=np.zeros((3, 3)), spec=CopulaSpec.gauss(0.5), seed=0)
        assert SampleSet(pairs=np.zeros((3, 2)), spec=CopulaSpec.gauss(0.5), seed=0).n == 3

    @pytest.mark.parametrize(
        "pairs, named",
        [([[np.nan, 0.0], [1.0, 1.0]], r"pair 0 is \(nan, 0\.0\)"), ([[1.0, 1.0], [np.inf, -np.inf]], r"pair 1 is \(inf, -inf\)")],
        ids=["nan-coordinate", "inf-minus-inf"],
    )
    def test_nan_sum_is_rejected(self, pairs, named):
        # both used to give an empirical CDF stuck at 0.5, at z = 5 and at z = 1e300
        with pytest.raises(DomainError, match=named + ": its sum is NaN"):
            SampleSet(pairs=np.array(pairs), spec=CopulaSpec.gauss(0.5), seed=0)

    def test_infinite_coordinate_with_finite_partner_is_accepted(self):
        ss = SampleSet(pairs=np.array([[np.inf, 1.0], [1.0, 1.0]]), spec=CopulaSpec.gauss(0.5), seed=0)
        assert empirical_cdf(ss, [5.0]).F_values[0] == 0.5
        assert empirical_cdf(ss, [np.inf]).F_values[0] == 1.0

    def test_pairs_read_only(self):
        ss = sample_sum(CopulaSpec.gauss(0.5), 10, RandomSource(1))
        with pytest.raises(ValueError):
            ss.pairs[0, 0] = 9.9
