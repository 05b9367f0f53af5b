"""Special functions built from elementary operations only: scalars and array kernels.

Everything here is implemented from scratch on ``math`` (exp, log, log1p,
sqrt, asin, pow) and numpy; no external math library is used.  All functions
are pure, stateless and deterministic and may be called concurrently without
restriction.  Domain violations raise :class:`DomainError` instead of
returning NaN.

Accuracy targets (validated against a high-precision reference in the test
suite):

* ``std_normal_pdf``      relative error <= 1e-15 (1 + x^2) down to 2.2e-308
* ``std_normal_cdf``      absolute error <= 1e-12 (Cody's rational erfc)
* ``std_normal_inv_cdf``  relative error <= 1e-15, both tails (Wichura AS241)
* ``student_t_cdf``       relative error <= 2e-13 on T_nu(-|x|) for nu <= 1e3
  (the regularized incomplete beta on the side that needs no 1 - I; the
  leading tail term where x * x overflows); 1e-12 at nu = 1e4 and 1e-10 at
  nu = 1e6, where the beta's front carries nu/2 times the rounding of its x
* ``student_t_inv_cdf``   relative error <= 1e-12 for 1e-300 <= p <= 1 - 1e-16 and
  nu <= 1e4; 2e-11 at nu = 1e6 (Newton on the lower tail from Hill's start)
* ``ln_gamma``            relative error <= 1e-13 (Lanczos, g = 7)
* ``reg_incomplete_beta`` absolute error <= 1e-12 (Lentz continued fraction)
* ``debye1``              relative error <= 1e-15 (Bernoulli and exponential series)

The Student-t targets hold for the scalar and its array kernel alike: they
are one implementation (below).

Array kernels.  ``std_normal_pdf_array``, ``std_normal_cdf_array``,
``std_normal_inv_cdf_array``, ``student_t_cdf_array`` and
``student_t_inv_cdf_array`` map an array of any shape elementwise and raise
``DomainError`` where the scalar would.  The Student-t family has one
implementation, on arrays: ``student_t_cdf``, ``student_t_inv_cdf``,
``student_t_pdf`` and ``reg_incomplete_beta`` check their arguments, with
the kernel's error text, and run the kernel on a one-element array, so each
returns its kernel's lane to the bit.  A one-lane call costs several times
what a ``math`` chain would (about 0.5 ms for the quantile); no command
makes one, since the grid modes and the sampler call the kernels on whole
axes, and the scalar ``copula_cdf`` and ``copula_density`` of the t copula
make one or two per call.  The normal scalars stay on ``math``, where the tests call them over
a million times: the pdf and CDF kernels run their scalar's rationals and
branches with numpy's exp, which differs from ``math``'s in the last bit
for some arguments, so they agree with the scalar to a few units of 1e-16
relative but not always to the last bit.  The normal quantile's one log is
numpy's in the scalar too (a ufunc on a float costs about as much as
``math.log``), so it and its kernel agree to the bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "std_normal_pdf",
    "std_normal_cdf",
    "std_normal_inv_cdf",
    "std_normal_pdf_array",
    "std_normal_cdf_array",
    "std_normal_inv_cdf_array",
    "student_t_pdf",
    "student_t_cdf",
    "student_t_inv_cdf",
    "student_t_cdf_array",
    "student_t_inv_cdf_array",
    "ln_gamma",
    "reg_incomplete_beta",
    "debye1",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def _flat(x) -> tuple[np.ndarray, tuple]:
    arr = np.asarray(x, dtype=float)
    return arr.ravel(), arr.shape


def _lane(x) -> np.ndarray:
    """``x`` as the one lane of a kernel's input."""
    return np.array([x], dtype=float)


def _require(ok: np.ndarray, flat: np.ndarray, message: str) -> None:
    """Raise ``DomainError`` naming the first element where ``ok`` is false."""
    if not ok.all():
        raise DomainError(f"{message}, got {float(flat[~ok][0])!r}")


# ---------------------------------------------------------------------------
# error function (Cody's rational Chebyshev approximations)
# ---------------------------------------------------------------------------

# |x| <= 0.46875
_ERF_A = (
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)
# 0.46875 < |x| <= 4
_ERF_C = (
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERF_D = (
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)
# |x| > 4
_ERF_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_ERF_Q = (
    2.56852019228982242e00,
    1.87295284992346047e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)
_INV_SQRT_PI = 5.6418958354775628695e-1


def _erfc_mid(y, escale):
    """erfc(y) for 0.46875 < y <= 4, given escale = exp(-y^2)."""
    num = _ERF_C[8] * y
    den = y
    for i in range(7):
        num = (num + _ERF_C[i]) * y
        den = (den + _ERF_D[i]) * y
    return escale * (num + _ERF_C[7]) / (den + _ERF_D[7])


def _erfc_far(y, escale):
    """erfc(y) for 4 < y <= 26.5, given escale = exp(-y^2)."""
    z = 1.0 / (y * y)
    num = _ERF_P[5] * z
    den = z
    for i in range(4):
        num = (num + _ERF_P[i]) * z
        den = (den + _ERF_Q[i]) * z
    r = z * (num + _ERF_P[4]) / (den + _ERF_Q[4])
    return escale * (_INV_SQRT_PI - r) / y


# above this y, erfc(y) < 2.2e-307 is returned as 0
_ERFC_CUTOFF = 26.5


def _erfc_positive(y: float) -> float:
    """erfc(y) for y >= 0.46875; callers handle the small-|y| erf branch."""
    if y > _ERFC_CUTOFF:
        return 0.0
    # split exp(-y^2) so the large-argument exponential keeps full precision
    ysq = math.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    escale = math.exp(-ysq * ysq) * math.exp(-delta)
    if y <= 4.0:
        return _erfc_mid(y, escale)
    return _erfc_far(y, escale)


def _erf_small(x):
    """erf(x) for |x| <= 0.46875 (odd by construction)."""
    z = x * x
    num = _ERF_A[4] * z
    den = z
    for i in range(3):
        num = (num + _ERF_A[i]) * z
        den = (den + _ERF_B[i]) * z
    return x * (num + _ERF_A[3]) / (den + _ERF_B[3])


def std_normal_pdf(x: float) -> float:
    """Density of N(0, 1): exp(-x^2/2) / sqrt(2 pi)."""
    if not math.isfinite(x):
        raise DomainError(f"std_normal_pdf requires finite x, got {x!r}")
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def std_normal_cdf(x: float) -> float:
    """Distribution function of N(0, 1).

    Evaluated as erfc(|x|/sqrt(2))/2 on the tail side, which keeps full
    relative accuracy in the far tails and makes Phi(x) + Phi(-x) == 1 hold
    exactly in floating point.
    """
    if not math.isfinite(x):
        raise DomainError(f"std_normal_cdf requires finite x, got {x!r}")
    y = x * _INV_SQRT_2
    ay = abs(y)
    if ay <= 0.46875:
        return 0.5 + 0.5 * _erf_small(y)
    tail = 0.5 * _erfc_positive(ay)
    return tail if x < 0.0 else 1.0 - tail


# Wichura's PPND16 (AS241, Applied Statistics 37, 1988): three (7, 7)
# rationals, each listed as its numerator's eight coefficients from the
# constant term up, then its denominator's seven above the constant 1.
# Central, in r = 0.180625 - q^2 for |q| = |p - 1/2| <= 0.425
_PPND_CENTRAL = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3, 1.3731693765509461125e4,
    4.5921953931549871457e4, 6.7265770927008700853e4, 3.3430575583588128105e4, 2.5090809287301226727e3,
    4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3, 2.1213794301586595867e4,
    3.9307895800092710610e4, 2.8729085735721942674e4, 5.2264952788528545610e3,
)
# tails, in r - 1.6 for r = sqrt(-ln min(p, 1 - p)) <= 5
_PPND_NEAR = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0, 3.64784832476320460504e0,
    1.27045825245236838258e0, 2.41780725177450611770e-1, 2.27238449892691845833e-2, 7.74545014278341407640e-4,
    2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1, 1.48103976427480074590e-1,
    1.51986665636164571966e-2, 5.47593808499534494600e-4, 1.05075007164441684324e-9,
)
# and in r - 5 for r > 5 (min(p, 1 - p) below 1.4e-11)
_PPND_FAR = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0, 2.96560571828504891230e-1,
    2.65321895265761230930e-2, 1.24266094738807843860e-3, 2.71155556874348757815e-5, 2.01033439929228813265e-7,
    5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2, 7.86869131145613259100e-4,
    1.84631831751005468180e-5, 1.42151175831644588870e-7, 2.04426310338993978564e-15,
)


def _ppnd_ratio(c, r):
    """One of the ``_PPND_*`` rationals at r (a float or an array), by Horner's rule."""
    a0, a1, a2, a3, a4, a5, a6, a7, b1, b2, b3, b4, b5, b6, b7 = c
    return (((((((a7 * r + a6) * r + a5) * r + a4) * r + a3) * r + a2) * r + a1) * r + a0) / (
        ((((((b7 * r + b6) * r + b5) * r + b4) * r + b3) * r + b2) * r + b1) * r + 1.0
    )


def std_normal_inv_cdf(p: float) -> float:
    """Quantile function of N(0, 1) for p strictly inside (0, 1).

    Wichura's AS241 in one rational pass, within 1e-15 relative in both
    tails, down to the smallest subnormal p.  The tails are reached through
    min(p, 1 - p), which is exact for p >= 1/2, so Phi^-1(1 - p) is
    -Phi^-1(p) to the bit there.  The log is numpy's, which is the array
    kernel's, so the scalar and the kernel agree to the bit.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"std_normal_inv_cdf requires 0 < p < 1, got {p!r}")
    q = p - 0.5
    if abs(q) <= 0.425:
        return q * _ppnd_ratio(_PPND_CENTRAL, 0.180625 - q * q)
    r = math.sqrt(-np.log(min(p, 1.0 - p)))
    x = _ppnd_ratio(_PPND_NEAR, r - 1.6) if r <= 5.0 else _ppnd_ratio(_PPND_FAR, r - 5.0)
    return math.copysign(x, q)


def _erfc_positive_flat(y: np.ndarray) -> np.ndarray:
    """:func:`_erfc_positive` for each element of ``y``."""
    out = np.zeros_like(y)
    live = y <= _ERFC_CUTOFF
    y = y[live]
    ysq = np.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    escale = np.exp(-ysq * ysq) * np.exp(-delta)
    mid = y <= 4.0
    far = ~mid
    res = np.empty_like(y)
    res[mid] = _erfc_mid(y[mid], escale[mid])
    res[far] = _erfc_far(y[far], escale[far])
    out[live] = res
    return out


def _std_normal_cdf_flat(x: np.ndarray) -> np.ndarray:
    y = x * _INV_SQRT_2
    ay = np.abs(y)
    out = np.empty_like(x)
    small = ay <= 0.46875
    out[small] = 0.5 + 0.5 * _erf_small(y[small])
    big = ~small
    tail = 0.5 * _erfc_positive_flat(ay[big])
    out[big] = np.where(x[big] < 0.0, tail, 1.0 - tail)
    return out


def std_normal_pdf_array(x) -> np.ndarray:
    """:func:`std_normal_pdf` of each element of ``x``, in the shape of ``x``."""
    flat, shape = _flat(x)
    _require(np.isfinite(flat), flat, "std_normal_pdf requires finite x")
    # x * x overflows to inf for huge finite x, as a Python float does
    with np.errstate(over="ignore"):
        arg = -0.5 * flat * flat
    return (np.exp(arg) / _SQRT_2PI).reshape(shape)


def std_normal_cdf_array(x) -> np.ndarray:
    """:func:`std_normal_cdf` of each element of ``x``, in the shape of ``x``."""
    flat, shape = _flat(x)
    _require(np.isfinite(flat), flat, "std_normal_cdf requires finite x")
    return _std_normal_cdf_flat(flat).reshape(shape)


def std_normal_inv_cdf_array(p) -> np.ndarray:
    """:func:`std_normal_inv_cdf` of each element of ``p``, in the shape of ``p``.

    The central rational runs on every lane, which costs less than picking
    the central ones out; on the tail lanes, where the tails' rationals then
    overwrite it, its denominator stays above 0.002, so it is finite there.
    """
    flat, shape = _flat(p)
    _require((flat > 0.0) & (flat < 1.0), flat, "std_normal_inv_cdf requires 0 < p < 1")
    q = flat - 0.5
    x = q * _ppnd_ratio(_PPND_CENTRAL, 0.180625 - q * q)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        pt = flat[tail]
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        mag = _ppnd_ratio(_PPND_NEAR, r - 1.6)
        far = r > 5.0
        if far.any():
            mag[far] = _ppnd_ratio(_PPND_FAR, r[far] - 5.0)
        # np.where, not np.copysign: copysign's first call faults in 128 KB
        x[tail] = np.where(q[tail] < 0.0, -mag, mag)
    return x.reshape(shape)


# ---------------------------------------------------------------------------
# gamma / beta machinery
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def ln_gamma(a: float) -> float:
    """Natural log of the gamma function for a > 0 (Lanczos, g = 7, n = 9)."""
    if not (a > 0.0) or not math.isfinite(a):
        raise DomainError(f"ln_gamma requires a > 0, got {a!r}")
    if a < 0.5:
        # reflection keeps the Lanczos series in its accurate range
        return math.log(math.pi / math.sin(math.pi * a)) - ln_gamma(1.0 - a)
    z = a - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, 9):
        x += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t + math.log(x)


# Stirling tail: S(z) = sum B_2n / (2n(2n-1) z^(2n-1)); truncation < 2e-15 for z >= 20
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)


def _stirling_tail(z: float) -> float:
    zi = 1.0 / z
    z2 = zi * zi
    s = _STIRLING[3]
    for c in (_STIRLING[2], _STIRLING[1], _STIRLING[0]):
        s = s * z2 + c
    return s * zi


def _ln_gamma_ratio(a: float, b: float) -> float:
    """ln Gamma(a+b) - ln Gamma(a) without cancellation, for a >= 20, b >= 0.

    Direct subtraction of two O(a ln a) values loses ~a*eps absolute accuracy,
    which matters for the incomplete-beta front factor at large degrees of
    freedom.  The Stirling form keeps every term O(b ln a).
    """
    return (
        (a - 0.5) * math.log1p(b / a)
        + b * math.log(a + b)
        - b
        + _stirling_tail(a + b)
        - _stirling_tail(a)
    )


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b), switching to the cancellation-free ratio for large args."""
    hi, lo = (a, b) if a >= b else (b, a)
    if hi >= 20.0:
        return ln_gamma(lo) - _ln_gamma_ratio(hi, lo)
    return ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)


_BETA_EPS = 1e-16
_BETA_FPMIN = 1e-300
_BETA_MAXIT = 600


def _floor_abs(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _BETA_FPMIN, _BETA_FPMIN, v)


def _beta_cf_flat(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz) at each
    element of ``x``; a lane leaves the loop once its step's factor is
    within ``_BETA_EPS`` of 1."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    lane = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 / _floor_abs(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        if not lane.size:
            return out
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _floor_abs(1.0 + aa * d)
        c = _floor_abs(1.0 + aa / c)
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _floor_abs(1.0 + aa * d)
        c = _floor_abs(1.0 + aa / c)
        de = d * c
        h = h * de
        done = np.abs(de - 1.0) <= _BETA_EPS
        out[lane[done]] = h[done]
        live = ~done
        lane, x, c, d, h = lane[live], x[live], c[live], d[live], h[live]
    if lane.size:
        raise DomainError(
            f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={float(x[0])})"
        )
    return out


def _reg_incomplete_beta_flat(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """:func:`reg_incomplete_beta` for each element of ``x`` in [0, 1]."""
    out = np.where(x == 1.0, 1.0, 0.0)
    inner = (x > 0.0) & (x < 1.0)
    if not inner.any():
        return out
    x = x[inner]
    ln_front = a * np.log(x) + b * np.log1p(-x) - _ln_beta(a, b)
    front = np.exp(ln_front)
    direct = x < (a + 1.0) / (a + b + 2.0)
    mirrored = ~direct
    res = np.empty_like(x)
    res[direct] = front[direct] * _beta_cf_flat(a, b, x[direct]) / a
    res[mirrored] = 1.0 - front[mirrored] * _beta_cf_flat(b, a, 1.0 - x[mirrored]) / b
    out[inner] = res
    return out


def reg_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], a > 0, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"reg_incomplete_beta requires a, b > 0, got a={a!r}, b={b!r}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"reg_incomplete_beta requires x in [0, 1], got {x!r}")
    return float(_reg_incomplete_beta_flat(_lane(x), a, b)[0])


# ---------------------------------------------------------------------------
# Student-t family
# ---------------------------------------------------------------------------


def _t_log_normalizer(nu: float) -> float:
    """Log of the t density's constant, Gamma((nu + 1)/2) / (Gamma(nu/2) sqrt(pi nu))."""
    return ln_gamma(0.5 * (nu + 1.0)) - ln_gamma(0.5 * nu) - 0.5 * math.log(math.pi * nu)


def _t_log_pdf_flat(x: np.ndarray, nu: float) -> np.ndarray:
    """Log of the t density at each element of ``x``; where x^2/nu overflows,
    log1p(x^2/nu) is 2 ln|x| - ln nu."""
    with np.errstate(over="ignore"):
        q = x * x / nu
    huge = np.isinf(q)
    log1p_q = np.log1p(q)
    log1p_q[huge] = 2.0 * np.log(np.abs(x[huge])) - math.log(nu)
    return _t_log_normalizer(nu) - 0.5 * (nu + 1.0) * log1p_q


def student_t_pdf(x: float, nu: float) -> float:
    """Density of the Student-t distribution with nu > 0 degrees of freedom."""
    if not (nu > 0.0):
        raise DomainError(f"student_t_pdf requires nu > 0, got {nu!r}")
    if not math.isfinite(x):
        raise DomainError(f"student_t_pdf requires finite x, got {x!r}")
    return float(np.exp(_t_log_pdf_flat(_lane(x), nu))[0])


def _t_log_tail_scale(nu: float) -> float:
    """ln(nu B(nu/2, 1/2)), the scale of the t tail's leading term."""
    return math.log(nu) + _ln_beta(0.5 * nu, 0.5)


def _t_log_far_tail(log_ax, nu: float):
    """ln T_nu(-|x|) from ln|x| (a float or an array), where x * x overflows.

    The tail is (nu/x^2)^(nu/2) / (nu B(nu/2, 1/2)) times 1 + O(nu/x^2), and
    nu/x^2 is below 1e-308 nu there.
    """
    return 0.5 * nu * (math.log(nu) - 2.0 * log_ax) - _t_log_tail_scale(nu)


def _t_tail_beta_flat(t: np.ndarray, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """(G, tail) at each element of ``t`` >= 0: G = 2 T_nu(-t) where tail,
    else 1 - 2 T_nu(-t).

    With w = nu/(nu + t^2) and a = nu/2, G is the one incomplete beta whose
    continued fraction runs direct, so T_nu(-t) keeps full relative accuracy
    on both sides and no 1 - I cancels: G = I_w(a, 1/2) where
    w < (a + 1)/(a + 5/2), else G = I_{1-w}(1/2, a).  Where t * t overflows
    (t above 1.3e154) w is below every double, and the tail is taken in logs
    (``_t_log_far_tail``).
    """
    with np.errstate(over="ignore"):
        tsq = t * t
    w = nu / (nu + tsq)
    tail = w < (0.5 * nu + 1.0) / (0.5 * nu + 2.5)
    huge = np.isinf(tsq)
    direct = tail & ~huge
    core = ~tail
    g = np.empty_like(t)
    if huge.any():
        g[huge] = 2.0 * np.exp(_t_log_far_tail(np.log(t[huge]), nu))
    g[direct] = _reg_incomplete_beta_flat(w[direct], 0.5 * nu, 0.5)
    tc = tsq[core]
    g[core] = _reg_incomplete_beta_flat(tc / (nu + tc), 0.5, 0.5 * nu)
    return g, tail


def _student_t_cdf_flat(x: np.ndarray, nu: float) -> np.ndarray:
    g, tail = _t_tail_beta_flat(np.abs(x), nu)
    lower = 0.5 * np.where(tail, g, 1.0 - g)
    return np.where(x < 0.0, lower, 1.0 - lower)


def student_t_cdf(x: float, nu: float) -> float:
    """Distribution function of the Student-t with nu > 0 degrees of freedom.

    T_nu(-|x|) comes from the one incomplete beta of ``_t_tail_beta_flat``
    that holds it to full relative accuracy, G/2 on the tail side and
    (1 - G)/2 on the core side, and the symmetric halves are stitched at
    x = 0.  The value is the one lane of :func:`student_t_cdf_array`.
    """
    if not (nu > 0.0):
        raise DomainError(f"student_t_cdf requires nu > 0, got {nu!r}")
    if not math.isfinite(x):
        raise DomainError(f"student_t_cdf requires finite x, got {x!r}")
    return float(_student_t_cdf_flat(_lane(x), nu)[0])


def student_t_cdf_array(x, nu: float) -> np.ndarray:
    """:func:`student_t_cdf` of each element of ``x``, in the shape of ``x``."""
    if not (nu > 0.0):
        raise DomainError(f"student_t_cdf requires nu > 0, got {nu!r}")
    flat, shape = _flat(x)
    _require(np.isfinite(flat), flat, "student_t_cdf requires finite x")
    return _student_t_cdf_flat(flat, nu).reshape(shape)


def student_t_inv_cdf(p: float, nu: float) -> float:
    """Quantile function of the Student-t, within 1e-12 relative.

    Solves T_nu(-t) = q for the lower-tail probability q = min(p, 1 - p),
    which is exact for p >= 1/2, so both tails keep their relative accuracy
    down to p = 1e-300.  Newton steps with the analytic density start from
    Hill's approximation (a tail asymptote or a line through 0 below
    nu = 1 and the asymptote far in the tails, the Cauchy quantile at
    nu = 1) and stop at a relative step of 1e-13; a bracket catches steps
    that leave it.  At nu = 4 that takes three passes of the t CDF's
    ``_t_tail_beta_flat``, which keeps T_nu(-t) relatively accurate (see
    ``sumdist._tquantile``).  Where the quantile is not a finite double
    (at nu = 0.5, for p below about 2.4e-155), a ``DomainError`` names p
    and nu.  The value is the one lane of :func:`student_t_inv_cdf_array`.
    """
    if not (nu > 0.0):
        raise DomainError(f"student_t_inv_cdf requires nu > 0, got {nu!r}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"student_t_inv_cdf requires 0 < p < 1, got {p!r}")
    from ._tquantile import student_t_inv_cdf_flat

    return float(student_t_inv_cdf_flat(_lane(p), nu)[0])


def student_t_inv_cdf_array(p, nu: float) -> np.ndarray:
    """:func:`student_t_inv_cdf` of each element of ``p``, in the shape of ``p``.

    Each pass of the Newton steps evaluates the t CDF on the lanes still
    moving.
    """
    if not (nu > 0.0):
        raise DomainError(f"student_t_inv_cdf requires nu > 0, got {nu!r}")
    flat, shape = _flat(p)
    _require((flat > 0.0) & (flat < 1.0), flat, "student_t_inv_cdf requires 0 < p < 1")
    from ._tquantile import student_t_inv_cdf_flat

    return student_t_inv_cdf_flat(flat, nu).reshape(shape)


# ---------------------------------------------------------------------------
# Debye function D1
# ---------------------------------------------------------------------------


# c_k = B_2k / ((2k + 1) (2k)!) for k = 1 .. 15 (B_2 = 1/6, B_4 = -1/30, ...):
# D1(t) = 1 - t/4 + sum_k c_k t^(2k).  The series converges for |t| < 2 pi;
# on |t| < 2 the first omitted term is below 2e-17 of D1
_DEBYE1_BERNOULLI = (
    0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06, -9.185773074661964e-08,
    1.8978869988971e-09, -4.0647616451442256e-11, 8.921691020456452e-13, -1.9939295860721074e-14,
    4.518980029619918e-16, -1.0356517612181247e-17, 2.395218621026187e-19, -5.581785874325009e-21,
    1.3091507554183213e-22, -3.0874198024267403e-24, 7.315975652702203e-26,
)
_DEBYE1_SWITCH = 2.0
_PI2_6 = math.pi * math.pi / 6.0


def _debye1_series(t2: float) -> float:
    """S = sum_k c_k t^(2k-2) at t2 = t^2: D1(t) = 1 - t/4 + t2 S, and
    Frank's Kendall tau is 4 t S."""
    p = 0.0
    for c in reversed(_DEBYE1_BERNOULLI):
        p = p * t2 + c
    return p


def debye1(theta: float) -> float:
    """Debye function D1(theta) = (1/theta) * integral_0^theta t/(e^t - 1) dt.

    Defined for theta != 0 (both signs).  For |theta| < 2 the Bernoulli
    series; otherwise the integral is pi^2/6 - sum_k e^(-k t) (t/k + 1/k^2)
    at t = |theta|, summed until a term falls below 1e-17 of the sum, and
    D1(-t) = D1(t) + t/2 gives negative theta.
    """
    if theta == 0.0 or not math.isfinite(theta):
        raise DomainError(f"debye1 requires finite theta != 0, got {theta!r}")
    t = abs(theta)
    if t < _DEBYE1_SWITCH:
        t2 = theta * theta
        return 1.0 - 0.25 * theta + t2 * _debye1_series(t2)
    q = math.exp(-t)
    qk = q
    tail = 0.0
    k = 1
    while True:
        term = qk * (t / k + 1.0 / (k * k))
        tail += term
        if term <= 1e-17 * tail:
            break
        k += 1
        qk *= q
    d1 = (_PI2_6 - tail) / t
    return d1 if theta > 0.0 else d1 + 0.5 * t
