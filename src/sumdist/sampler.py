"""Copula sampling with normal margins, plus Monte Carlo estimators.

The generator is a SplitMix64 stream: state advances by the golden-ratio
increment 0x9E3779B97F4A7C15 and each output is the finalizer
(xor-shift/multiply with 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
Independent substreams are keyed by hashing (seed, stream) through the same
finalizer, which drops each stream at an effectively random phase of the
2^64 cycle.  Uniform doubles take the top 53 bits, offset by half a unit in
the last place; the top draw, which rounds to 1, becomes the largest double
below 1, so every draw is strictly inside (0, 1).

Samplers draw in fixed, documented order and consume fixed-size chunks from
dedicated substreams (one per 65536 output pairs), so a sample set depends
only on (spec, seed, n) - never on chunking or vectorization.

Family constructions:

* Gauss: 2x2 Cholesky of the correlation matrix applied to a normal pair;
  with normal margins the pair itself is the draw, with no round trip
  through Phi and its quantile.
* Student-t: the Gauss pair scaled by sqrt(nu / chi-square_nu).
* Clayton: gamma(1/theta) frailty mixing of exponentials.
* Gumbel: positive-stable frailty of index 1/theta via the
  Chambers-Mallows-Stuck sine construction.
* Frank: closed-form inversion of the conditional distribution dC/du1.

The Clayton and Gumbel frailties are taken in log space, where they cannot
underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import specfun
from .copula import CopulaFamily, CopulaSpec, _independent
from .errors import DomainError

if TYPE_CHECKING:  # only empirical_cdf needs sumcdf, and imports it when called
    from .sumcdf import DistributionTable

__all__ = [
    "RandomSource",
    "SampleSet",
    "sample_copula",
    "sample_sum",
    "empirical_cdf",
    "estimate_tau",
    "estimate_spearman_rho",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_STREAM_SALT = 0xD1342543DE82EF95

# The most pairs one sample may hold, checked before any array exists.  The
# pairs are 16 bytes each, so 2^25 of them make 0.54 GB, the size of the
# largest density grid GridSpec admits; the sums and the CSV rows come on
# top.  The largest samples the tests draw, 10^6 pairs, sit far below; an n
# of 10^15 would ask numpy for 16 PB.
MAX_PAIRS = 2**25
# one substream per this many output pairs; fixed so the substream layout
# depends only on n
CHUNK_PAIRS = 1 << 16
# the elementwise stages after the draws (the Gauss copula's Phi, the t
# copula's T_nu, the normal margins' Phi^-1) run over this many pairs at a
# time, chosen by timing: each temporary is 128 KB, and Phi peaks at 1.0 MB
# and Phi^-1 at 0.8 MB a block, against 13 MB for a whole chunk.  Every
# stage works lane by lane, so no result depends on it.
BLOCK_PAIRS = 1 << 13

_INV_2_53 = 2.0 ** -53
# the largest double below 1; the top draw, (2^53 - 1/2) * 2^-53, rounds to 1
_BELOW_ONE = 1.0 - _INV_2_53
_LN2 = math.log(2.0)


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
    return z ^ (z >> 31)


class RandomSource:
    """Deterministic SplitMix64 stream, splittable by a stream counter."""

    def __init__(self, seed: int, stream: int = 0):
        if not (0 <= seed <= _MASK64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        if stream < 0:
            raise DomainError(f"stream counter must be nonnegative, got {stream!r}")
        self.seed = seed
        self.stream = stream
        self._state = _mix64(_mix64(seed) ^ ((_STREAM_SALT * (stream + 1)) & _MASK64))
        self._cached_normal: float | None = None

    def substream(self, k: int) -> "RandomSource":
        """Independent stream keyed by this source's seed and counter k."""
        return RandomSource(self.seed, self.stream + k)

    # -- scalar draws --------------------------------------------------------
    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """Uniform double strictly inside (0, 1) from the top 53 bits."""
        return min(((self.next_uint64() >> 11) + 0.5) * _INV_2_53, _BELOW_ONE)

    def normal(self) -> float:
        """Standard normal via Box-Muller; the second value is cached."""
        if self._cached_normal is not None:
            z = self._cached_normal
            self._cached_normal = None
            return z
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        self._cached_normal = r * math.sin(angle)
        return r * math.cos(angle)

    # -- vectorized block draws (same sequence as the scalar path) -----------
    def uniform_block(self, count: int) -> np.ndarray:
        ticks = np.arange(1, count + 1, dtype=np.uint64)
        states = np.uint64(self._state) + ticks * np.uint64(_GOLDEN)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        z = states
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
        z = z ^ (z >> np.uint64(31))
        return np.minimum(((z >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53, _BELOW_ONE)

    def normal_block(self, count: int) -> np.ndarray:
        """``count`` normals consuming whole Box-Muller pairs.

        Blocks ignore the scalar path's cache; callers use either the scalar
        or the block interface on one stream, not both interleaved.
        """
        pairs = (count + 1) // 2
        u = self.uniform_block(2 * pairs)
        r = np.sqrt(-2.0 * np.log(u[0::2]))
        angle = 2.0 * math.pi * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(angle)
        z[1::2] = r * np.sin(angle)
        return z[:count]

    def log_gamma_block(self, shape: float, count: int) -> np.ndarray:
        """Logs of Gamma(shape, 1) variates, drawn as :meth:`gamma_block` draws them.

        Below shape 1 a variate is G U^(1/shape) with G ~ Gamma(shape + 1),
        and its log is log G + log(U) / shape: the power underflows to 0
        at small shapes (for U below 4e-6 at shape 1/60), its log does not.
        """
        if shape <= 0.0:
            raise DomainError(f"gamma shape must be positive, got {shape!r}")
        if shape < 1.0:
            return np.log(self.gamma_block(shape + 1.0, count)) + np.log(self.uniform_block(count)) / shape
        return np.log(self.gamma_block(shape, count))

    def gamma_block(self, shape: float, count: int) -> np.ndarray:
        """Gamma(shape, 1) variates, Marsaglia-Tsang squeeze-rejection.

        Rejected lanes redraw in later rounds, in lane order, so output is a
        pure function of the stream position.  Below shape 1 they are the
        exponentials of :meth:`log_gamma_block`.
        """
        if shape <= 0.0:
            raise DomainError(f"gamma shape must be positive, got {shape!r}")
        if shape < 1.0:
            return np.exp(self.log_gamma_block(shape, count))
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(count)
        remaining = np.arange(count)
        while remaining.size:
            k = remaining.size
            x = self.normal_block(k)
            u = self.uniform_block(k)
            v = (1.0 + c * x) ** 3
            positive = v > 0.0
            with np.errstate(invalid="ignore"):
                squeeze = u < 1.0 - 0.0331 * x**4
                full = np.log(u) < 0.5 * x * x + d * (1.0 - v + np.log(np.where(positive, v, 1.0)))
            accept = positive & (squeeze | full)
            out[remaining[accept]] = d * v[accept]
            remaining = remaining[~accept]
        return out

    def chi_square_block(self, nu: float, count: int) -> np.ndarray:
        return 2.0 * self.gamma_block(0.5 * nu, count)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """(x, y) pairs with N(0,1) margins plus their generation provenance."""

    pairs: np.ndarray  # shape (n, 2)
    spec: CopulaSpec
    seed: int

    def __post_init__(self):
        p = np.asarray(self.pairs, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2:
            raise DomainError(f"pairs must be an (n, 2) array, got shape {p.shape}")
        # a NaN sum (a NaN coordinate, or inf + -inf) has no place in the
        # sorted sums, so the empirical CDF would never reach 1
        with np.errstate(invalid="ignore"):
            nan_sums = np.isnan(p[:, 0] + p[:, 1])
        if nan_sums.any():
            k = int(np.argmax(nan_sums))
            raise DomainError(f"pair {k} is ({float(p[k, 0])!r}, {float(p[k, 1])!r}): its sum is NaN")
        p.setflags(write=False)
        object.__setattr__(self, "pairs", p)

    @property
    def n(self) -> int:
        return self.pairs.shape[0]

    def sums(self) -> np.ndarray:
        return self.pairs[:, 0] + self.pairs[:, 1]


# ---------------------------------------------------------------------------
# per-family chunk generators (uniform pairs on (0,1)^2)
# ---------------------------------------------------------------------------


def _blockwise(transform, pairs: np.ndarray) -> np.ndarray:
    """``pairs`` with the elementwise ``transform`` applied in place, ``BLOCK_PAIRS`` rows at a time."""
    for start in range(0, pairs.shape[0], BLOCK_PAIRS):
        block = pairs[start : start + BLOCK_PAIRS]
        block[:] = transform(block)
    return pairs


def _correlated_normal_pair(rng: RandomSource, rho: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    z = rng.normal_block(2 * m)
    x = z[0::2]
    y = rho * x + math.sqrt(1.0 - rho * rho) * z[1::2]
    return x, y


def _gauss_normals(spec: CopulaSpec, rng: RandomSource, m: int) -> np.ndarray:
    """The Gauss copula's correlated normal pairs: its draws with N(0, 1) margins."""
    return np.column_stack(_correlated_normal_pair(rng, spec.rho, m))


def _chunk_gauss(spec: CopulaSpec, rng: RandomSource, m: int) -> np.ndarray:
    return _blockwise(specfun.std_normal_cdf, _gauss_normals(spec, rng, m))


def _chunk_student_t(spec: CopulaSpec, rng: RandomSource, m: int) -> np.ndarray:
    x, y = _correlated_normal_pair(rng, spec.rho, m)
    # CopulaSpec's floor nu >= 0.2 keeps every chi-square draw above about
    # 1e-186, so the scale stays finite
    scale = np.sqrt(spec.nu / rng.chi_square_block(spec.nu, m))
    return _blockwise(lambda b: specfun.student_t_cdf(b, spec.nu), np.column_stack([x * scale, y * scale]))


def _log_exponentials(rng: RandomSource, m: int) -> np.ndarray:
    """log E for m pairs of independent unit exponentials E, as an (m, 2) array."""
    return np.log(-np.log(rng.uniform_block(2 * m))).reshape(m, 2)


def _chunk_clayton(spec: CopulaSpec, rng: RandomSource, m: int) -> np.ndarray:
    # u = (1 + E / V)^(-1/theta) with a gamma(1/theta) frailty V, in log
    # space: V underflows at large theta, and E / V overflows
    theta = spec.theta
    log_frailty = rng.log_gamma_block(1.0 / theta, m)
    log_ratio = _log_exponentials(rng, m)
    log_ratio -= log_frailty[:, None]
    u = np.logaddexp(0.0, log_ratio, out=log_ratio)  # log(1 + E / V)
    u /= -theta
    return np.exp(u, out=u)


def _chunk_gumbel(spec: CopulaSpec, rng: RandomSource, m: int) -> np.ndarray:
    # u = exp(-(E / S)^alpha), alpha = 1/theta, with a positive-stable S of
    # Laplace transform exp(-t^alpha) by the Chambers-Mallows-Stuck sine
    # construction, in log space: sin(angle)^theta underflows at large theta
    theta = spec.theta
    alpha = 1.0 / theta
    u = rng.uniform_block(2 * m)
    angle = math.pi * u[0::2]
    log_w = np.log(-np.log(u[1::2]))
    log_stable = np.log(np.sin(alpha * angle)) - theta * np.log(np.sin(angle))
    log_stable += (theta - 1.0) * (np.log(np.sin((1.0 - alpha) * angle)) - log_w)
    v = _log_exponentials(rng, m)
    v -= log_stable[:, None]
    v *= alpha
    np.exp(v, out=v)  # (E / S)^alpha
    np.negative(v, out=v)
    return np.exp(v, out=v)


def _frank_inverse(theta: float, u1: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The u2 with h(u2 | u1) = v, where h = dC/du1 is Frank's conditional.

    Closed form (Aas et al., IME 2009), evaluated in log space so that no
    exponential of theta*u1 or theta can overflow.  For theta > 0,
    theta*u2 = log(a(1-v) + v) - log(a(1-v) + v e^-theta) with a = e^(-theta u1),
    each term a logaddexp of logs.  Where that gap is at most ln 2 the two
    logs nearly cancel, and the equivalent
    -log1p(v expm1(-theta) / (a - v expm1(-theta u1))) keeps full accuracy;
    it is evaluated on those lanes only, since on the others a can
    underflow and the log1p argument reach -1.  Negative theta reflects
    through C_-theta(u, w) = u - C_theta(u, 1 - w).
    """
    log_v, log_1mv = np.log(v), np.log1p(-v)
    reflect = theta < 0.0
    if reflect:
        # 1 - v rounds, so its log is taken from v
        theta, v, log_v, log_1mv = -theta, 1.0 - v, log_1mv, log_v
    tu = theta * u1
    log_w = log_1mv - tu  # log((1 - v) a)
    gap = np.logaddexp(log_v, log_w) - np.logaddexp(log_v - theta, log_w)
    near = gap <= _LN2
    tu_near, v_near = tu[near], v[near]
    gap[near] = -np.log1p(v_near * math.expm1(-theta) / (np.exp(-tu_near) - v_near * np.expm1(-tu_near)))
    u2 = gap / theta
    return 1.0 - u2 if reflect else u2


def _chunk_frank(spec: CopulaSpec, rng: RandomSource, m: int) -> np.ndarray:
    u1 = rng.uniform_block(m)
    v = rng.uniform_block(m)
    return np.column_stack([u1, _frank_inverse(spec.theta, u1, v)])


def _chunk_independent(spec: CopulaSpec, rng: RandomSource, m: int) -> np.ndarray:
    return rng.uniform_block(2 * m).reshape(m, 2)


_CHUNK_GENERATORS = {
    CopulaFamily.GAUSS: _chunk_gauss,
    CopulaFamily.STUDENT_T: _chunk_student_t,
    CopulaFamily.CLAYTON: _chunk_clayton,
    CopulaFamily.GUMBEL: _chunk_gumbel,
    CopulaFamily.FRANK: _chunk_frank,
}


def _draw(spec: CopulaSpec, n: int, rng: RandomSource, generate, uniform: bool = True) -> np.ndarray:
    """n pairs from ``generate``, chunk k from ``rng.substream(k)``: the one
    chunk loop, and the one check of n, of :func:`sample_copula` and
    :func:`sample_sum`.  ``uniform`` chunks must lie inside (0, 1)^2."""
    if n < 1:
        raise DomainError(f"sampling requires n >= 1 pairs, got n = {n!r}")
    if n > MAX_PAIRS:
        raise DomainError(f"sampling got n = {n!r} pairs, above the limit of {MAX_PAIRS}")
    pairs = np.empty((n, 2))
    for k, start in enumerate(range(0, n, CHUNK_PAIRS)):
        m = min(CHUNK_PAIRS, n - start)
        chunk = pairs[start : start + m]
        chunk[:] = generate(spec, rng.substream(k), m)
        lo, hi = float(chunk.min()), float(chunk.max())
        if uniform and not (0.0 < lo and hi < 1.0):
            params = ", ".join(f"{name}={value!r}" for name, value in spec.describe().items() if name != "family")
            bad = hi if 0.0 < lo else lo
            raise DomainError(f"{spec.family.value} copula sampling failed for {params}: a draw of {bad!r} lies outside (0, 1)")
    return pairs


def sample_copula(spec: CopulaSpec, n: int, rng: RandomSource) -> np.ndarray:
    """n pairs on (0,1)^2 distributed by the copula of ``spec``.

    Pair block k (of 65536 pairs) is generated from ``rng.substream(k)``;
    output order is by block then within-block draw order.  At independence
    (see ``copula._independent``) every family draws the same pairs of
    uniforms.  A draw that rounds to 0 or 1 is a ``DomainError``.
    """
    generate = _chunk_independent if _independent(spec) else _CHUNK_GENERATORS[spec.family]
    return _draw(spec, n, rng, generate)


def sample_sum(spec: CopulaSpec, n: int, rng: RandomSource) -> SampleSet:
    """(x, y) pairs with standard normal margins and copula dependence.

    The Gauss family draws normal pairs and :func:`sample_copula` returns
    their Phi, so its margins are those pairs, from the same substreams.
    Every other family's are the normal quantiles of :func:`sample_copula`'s
    uniforms, taken in place, ``BLOCK_PAIRS`` pairs at a time, so the
    kernel's temporaries stay in cache whatever n is.
    """
    if spec.family is CopulaFamily.GAUSS:
        pairs = _draw(spec, n, rng, _gauss_normals, uniform=False)
    else:
        pairs = _blockwise(specfun.std_normal_inv_cdf, sample_copula(spec, n, rng))
    return SampleSet(pairs=pairs, spec=spec, seed=rng.seed)


def empirical_cdf(samples: SampleSet, z_values) -> DistributionTable:
    """Empirical distribution of x + y evaluated at the given z grid."""
    from .sumcdf import DistributionTable, TableMode

    if samples.n < 1:
        raise DomainError("empirical_cdf requires a nonempty sample set")
    zs = np.asarray(z_values, dtype=float)
    sums = np.sort(samples.sums())
    f = np.searchsorted(sums, zs, side="right") / samples.n
    return DistributionTable(z_values=zs, raw_F_values=f, spec=samples.spec, mode=TableMode.EMPIRICAL)


# ---------------------------------------------------------------------------
# rank statistics
# ---------------------------------------------------------------------------


def _as_pairs(data) -> np.ndarray:
    arr = np.asarray(data.pairs if isinstance(data, SampleSet) else data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError(f"expected an (n, 2) array of pairs, got shape {arr.shape}")
    # NaN has no rank; +-inf orders like any other value
    nan_rows = np.isnan(arr).any(axis=1)
    if nan_rows.any():
        k = int(np.argmax(nan_rows))
        raise DomainError(f"pair {k} is ({float(arr[k, 0])!r}, {float(arr[k, 1])!r}): NaN cannot be ranked")
    return arr


def _run_lengths(same: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal values in a sorted sequence, where
    ``same[k]`` says whether value k + 1 equals value k."""
    return np.diff(np.flatnonzero(np.concatenate(([True], ~same, [True]))))


def _tied_pairs(same: np.ndarray) -> int:
    lengths = _run_lengths(same)
    return int(np.sum(lengths * (lengths - 1) // 2))


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for integer ranks in [0, n)."""
    n = ranks.size
    index = np.arange(n)
    merged = ranks
    inversions = 0
    width = 1
    while width < n:
        pair = index // (2 * width)
        keys = pair * n + merged
        right = (index // width) % 2 == 1
        # pairs before p hold p * width left keys (their blocks are whole)
        not_above = np.searchsorted(keys[~right], keys[right], side="right") - pair[right] * width
        inversions += int(np.sum(width - not_above))
        merged = np.sort(keys) - pair * n
        width *= 2
    return inversions


def estimate_tau(data) -> float:
    """Sample Kendall's tau (tau-b).

    With the pairs sorted by x, then y, the pairs of pairs tied in x, in y
    and in both are sums of L(L - 1)/2 over runs of equal values, and the
    discordant ones are the inversions of y's ranks.  Those are counted by
    Knight's bottom-up merge (W. R. Knight, "A computer method for
    calculating Kendall's tau with ungrouped data", JASA 61, 1966), one
    whole-array pass per level: at width w each aligned block of w ranks is
    sorted, and block 2p + 1 merges into block 2p.  Keyed p * n + rank
    (below n^2), all left blocks form one sorted array, so one searchsorted
    finds the left ranks each right rank passes, and one sort merges.
    """
    pairs = _as_pairs(data)
    n = pairs.shape[0]
    if n < 2:
        raise DomainError(f"estimate_tau requires n >= 2, got {n}")
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    x = pairs[order, 0]
    y = pairs[order, 1]
    y_sorted = np.sort(y)
    same_x = x[1:] == x[:-1]
    total = n * (n - 1) // 2
    ties_x = _tied_pairs(same_x)
    ties_y = _tied_pairs(y_sorted[1:] == y_sorted[:-1])
    ties_both = _tied_pairs(same_x & (y[1:] == y[:-1]))
    discordant = _inversions(np.searchsorted(y_sorted, y))
    concordant_minus_discordant = total - ties_x - ties_y + ties_both - 2 * discordant
    denom = math.sqrt(float(total - ties_x)) * math.sqrt(float(total - ties_y))
    if denom == 0.0:
        raise DomainError("tau undefined: all pairs tied in one coordinate")
    return concordant_minus_discordant / denom


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    lengths = _run_lengths(sorted_vals[1:] == sorted_vals[:-1])
    # the run at sorted positions i .. j shares the rank (i + j)/2 + 1, where
    # i + j = 2 * (j + 1) - length - 1
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (2 * np.cumsum(lengths) - lengths - 1) + 1.0, lengths)
    return ranks


def estimate_spearman_rho(data) -> float:
    """Sample Spearman rank correlation (average ranks for ties)."""
    pairs = _as_pairs(data)
    n = pairs.shape[0]
    if n < 2:
        raise DomainError(f"estimate_spearman_rho requires n >= 2, got {n}")
    r1 = _average_ranks(pairs[:, 0])
    r2 = _average_ranks(pairs[:, 1])
    r1 -= r1.mean()
    r2 -= r2.mean()
    denom = math.sqrt(float(np.dot(r1, r1)) * float(np.dot(r2, r2)))
    if denom == 0.0:
        raise DomainError("spearman rho undefined: constant ranks")
    return float(np.dot(r1, r2)) / denom
