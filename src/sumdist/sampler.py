"""Copula sampling with normal margins, plus Monte Carlo estimators.

The generator is a SplitMix64 stream: state advances by the golden-ratio
increment 0x9E3779B97F4A7C15 and each output is the finalizer
(xor-shift/multiply with 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
Independent substreams are keyed by hashing (seed, stream) through the same
finalizer, which drops each stream at an effectively random phase of the
2^64 cycle.  Uniform doubles take the top 53 bits, offset by half a unit in
the last place, so every draw is strictly inside (0, 1).

Samplers draw in fixed, documented order and consume fixed-size chunks from
dedicated substreams (one per 65536 output pairs), so a sample set depends
only on (spec, seed, n) - never on chunking, threading, or vectorization.

Family constructions:

* Gauss: 2x2 Cholesky of the correlation matrix applied to a normal pair.
* Student-t: the Gauss pair scaled by sqrt(nu / chi-square_nu).
* Clayton: gamma(1/theta) frailty mixing of exponentials.
* Gumbel: positive-stable frailty of index 1/theta via the
  Chambers-Mallows-Stuck sine construction.
* Frank: conditional-distribution inversion of dC/du1 by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .copula import CopulaFamily, CopulaSpec
from .errors import DomainError
from .sumcdf import DistributionTable, TableMode, _clamp_monotone

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

# one substream per this many output pairs; fixed so the substream layout
# depends only on n, never on worker count
CHUNK_PAIRS = 1 << 16

_INV_2_53 = 2.0 ** -53


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
        return ((self.next_uint64() >> 11) + 0.5) * _INV_2_53

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
        return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53

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

    def gamma_block(self, shape: float, count: int) -> np.ndarray:
        """Gamma(shape, 1) variates, Marsaglia-Tsang squeeze-rejection.

        Rejected lanes redraw in later rounds, in lane order, so output is a
        pure function of the stream position.
        """
        if shape <= 0.0:
            raise DomainError(f"gamma shape must be positive, got {shape!r}")
        if shape < 1.0:
            base = self.gamma_block(shape + 1.0, count)
            boost = self.uniform_block(count) ** (1.0 / shape)
            return base * boost
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
    n: int

    def __post_init__(self):
        p = np.asarray(self.pairs, dtype=float)
        if p.shape != (self.n, 2):
            raise DomainError(f"pairs must have shape ({self.n}, 2), got {p.shape}")
        p.setflags(write=False)
        object.__setattr__(self, "pairs", p)

    def sums(self) -> np.ndarray:
        return self.pairs[:, 0] + self.pairs[:, 1]


# ---------------------------------------------------------------------------
# per-family chunk generators (uniform pairs on (0,1)^2)
# ---------------------------------------------------------------------------


def _correlated_normal_pair(rng: RandomSource, rho: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    z = rng.normal_block(2 * m)
    x = z[0::2]
    y = rho * x + math.sqrt(1.0 - rho * rho) * z[1::2]
    return x, y


def _chunk_gauss(spec: CopulaSpec, rng: RandomSource, m: int) -> np.ndarray:
    x, y = _correlated_normal_pair(rng, spec.rho, m)
    return specfun.std_normal_cdf_array(np.column_stack([x, y]))


def _chunk_student_t(spec: CopulaSpec, rng: RandomSource, m: int) -> np.ndarray:
    x, y = _correlated_normal_pair(rng, spec.rho, m)
    w = rng.chi_square_block(spec.nu, m)
    # at small nu a chi-square draw can underflow to 0, or to a subnormal
    # for which nu / w overflows; the scaled pair would then be infinite
    smallest = float(w.min())
    if smallest == 0.0 or math.isinf(spec.nu / smallest):
        raise DomainError(
            f"t copula sampling failed for nu={spec.nu!r}: a chi-square draw of {smallest!r} "
            "is too small to scale the normal pair by sqrt(nu / w)"
        )
    scale = np.sqrt(spec.nu / w)
    return specfun.student_t_cdf_array(np.column_stack([x * scale, y * scale]), spec.nu)


def _chunk_clayton(spec: CopulaSpec, rng: RandomSource, m: int) -> np.ndarray:
    theta = spec.theta
    frailty = rng.gamma_block(1.0 / theta, m)
    e = -np.log(rng.uniform_block(2 * m))
    u1 = (1.0 + e[0::2] / frailty) ** (-1.0 / theta)
    u2 = (1.0 + e[1::2] / frailty) ** (-1.0 / theta)
    return np.column_stack([u1, u2])


def _chunk_gumbel(spec: CopulaSpec, rng: RandomSource, m: int) -> np.ndarray:
    theta = spec.theta
    if abs(theta - 1.0) <= 1e-9:
        u = rng.uniform_block(2 * m)
        return np.column_stack([u[0::2], u[1::2]])
    alpha = 1.0 / theta
    u = rng.uniform_block(2 * m)
    angle = math.pi * u[0::2]
    w = -np.log(u[1::2])
    # positive-stable S with Laplace transform exp(-t^alpha)
    stable = (np.sin(alpha * angle) / np.sin(angle) ** (1.0 / alpha)) * (
        np.sin((1.0 - alpha) * angle) / w
    ) ** ((1.0 - alpha) / alpha)
    e = -np.log(rng.uniform_block(2 * m))
    u1 = np.exp(-((e[0::2] / stable) ** alpha))
    u2 = np.exp(-((e[1::2] / stable) ** alpha))
    return np.column_stack([u1, u2])


def _frank_conditional(theta: float, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """h(u2 | u1) = dC/du1 for the Frank copula."""
    g = math.expm1(-theta)
    g2 = np.expm1(-theta * u2)
    return np.exp(-theta * u1) * g2 / (g + np.expm1(-theta * u1) * g2)


def _frank_invert(theta: float, u1: np.ndarray, v: np.ndarray, iterations: int = 60) -> np.ndarray:
    """Solve h(u2 | u1) = v for u2 by bisection on (1e-12, 1 - 1e-12)."""
    lo = np.full_like(u1, 1e-12)
    hi = np.full_like(u1, 1.0 - 1e-12)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = _frank_conditional(theta, u1, mid) < v
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _chunk_frank(spec: CopulaSpec, rng: RandomSource, m: int) -> np.ndarray:
    theta = spec.theta
    u1 = rng.uniform_block(m)
    v = rng.uniform_block(m)
    if abs(theta) <= 1e-9:
        return np.column_stack([u1, v])
    return np.column_stack([u1, _frank_invert(theta, u1, v)])


_CHUNK_GENERATORS = {
    CopulaFamily.GAUSS: _chunk_gauss,
    CopulaFamily.STUDENT_T: _chunk_student_t,
    CopulaFamily.CLAYTON: _chunk_clayton,
    CopulaFamily.GUMBEL: _chunk_gumbel,
    CopulaFamily.FRANK: _chunk_frank,
}


def sample_copula(spec: CopulaSpec, n: int, rng: RandomSource) -> np.ndarray:
    """n pairs on (0,1)^2 distributed by the copula of ``spec``.

    Pair block k (of 65536 pairs) is generated from ``rng.substream(k)``;
    output order is by block then within-block draw order.
    """
    if n < 1:
        raise DomainError(f"sample_copula requires n >= 1, got {n!r}")
    generate = _CHUNK_GENERATORS[spec.family]
    blocks = []
    for k, start in enumerate(range(0, n, CHUNK_PAIRS)):
        m = min(CHUNK_PAIRS, n - start)
        blocks.append(generate(spec, rng.substream(k), m))
    return np.vstack(blocks)


def sample_sum(spec: CopulaSpec, n: int, rng: RandomSource) -> SampleSet:
    """(x, y) pairs with standard normal margins and copula dependence.

    The uniform pairs of :func:`sample_copula` are pushed through the normal
    quantile transform, one block of pairs at a time so the kernel's
    temporaries stay bounded for large n.
    """
    pairs = sample_copula(spec, n, rng)
    for start in range(0, n, CHUNK_PAIRS):
        block = pairs[start : start + CHUNK_PAIRS]
        block[:] = specfun.std_normal_inv_cdf_array(block)
    return SampleSet(pairs=pairs, spec=spec, seed=rng.seed, n=n)


def empirical_cdf(samples: SampleSet, z_values) -> DistributionTable:
    """Empirical distribution of x + y evaluated at the given z grid."""
    if samples.n < 1:
        raise DomainError("empirical_cdf requires a nonempty sample set")
    zs = np.asarray(z_values, dtype=float)
    sums = np.sort(samples.sums())
    f = np.searchsorted(sums, zs, side="right") / samples.n
    return DistributionTable(
        z_values=zs,
        F_values=_clamp_monotone(f),
        raw_F_values=f,
        spec=samples.spec,
        mode=TableMode.EMPIRICAL,
        grid=None,
    )


# ---------------------------------------------------------------------------
# rank statistics
# ---------------------------------------------------------------------------


def _as_pairs(data) -> np.ndarray:
    if isinstance(data, SampleSet):
        return np.asarray(data.pairs, dtype=float)
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError(f"expected an (n, 2) array of pairs, got shape {arr.shape}")
    return arr


def _merge_count_inversions(values: list) -> int:
    """Inversions of a sequence via bottom-up merge sort, O(n log n)."""
    n = len(values)
    arr = values
    buf = [0.0] * n
    inversions = 0
    width = 1
    while width < n:
        for lo in range(0, n - width, 2 * width):
            mid = lo + width
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if arr[j] < arr[i]:
                    inversions += mid - i
                    buf[k] = arr[j]
                    j += 1
                else:
                    buf[k] = arr[i]
                    i += 1
                k += 1
            buf[k:hi] = arr[i:mid] if i < mid else arr[j:hi]
            arr[lo:hi] = buf[lo:hi]
        width *= 2
    return inversions


def _tied_pair_count(sorted_values: np.ndarray) -> int:
    total = 0
    run = 1
    for a, b in zip(sorted_values, sorted_values[1:]):
        if b == a:
            run += 1
        else:
            total += run * (run - 1) // 2
            run = 1
    total += run * (run - 1) // 2
    return total


def estimate_tau(data) -> float:
    """Sample Kendall's tau (tau-b) by merge-sort concordance counting."""
    pairs = _as_pairs(data)
    n = pairs.shape[0]
    if n < 2:
        raise DomainError(f"estimate_tau requires n >= 2, got {n}")
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    x = pairs[order, 0]
    y = pairs[order, 1]
    total = n * (n - 1) // 2
    ties_x = _tied_pair_count(x)
    ties_y = _tied_pair_count(np.sort(y))
    # pairs tied in both coordinates
    both_order = np.lexsort((y, x))
    ties_both = 0
    run = 1
    for k in range(1, n):
        if x[both_order[k]] == x[both_order[k - 1]] and y[both_order[k]] == y[both_order[k - 1]]:
            run += 1
        else:
            ties_both += run * (run - 1) // 2
            run = 1
    ties_both += run * (run - 1) // 2
    discordant_ish = _merge_count_inversions(list(y))
    concordant_minus_discordant = total - ties_x - ties_y + ties_both - 2 * discordant_ish
    denom = math.sqrt(float(total - ties_x)) * math.sqrt(float(total - ties_y))
    if denom == 0.0:
        raise DomainError("tau undefined: all pairs tied in one coordinate")
    return concordant_minus_discordant / denom


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
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
