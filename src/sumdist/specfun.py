"""Special functions built from elementary operations only: scalars and array kernels.

Everything here is implemented from scratch on top of ``math`` (exp, log,
log1p, sqrt, asin, pow); no external math library is used.  All functions
are pure, stateless and deterministic and may be called concurrently without
restriction.  Domain violations raise :class:`DomainError` instead of
returning NaN.

Accuracy targets (validated against a high-precision reference in the test
suite):

* ``std_normal_cdf``      absolute error <= 1e-12 (Cody's rational erfc)
* ``std_normal_inv_cdf``  |Phi(x) - p| <= 1e-12 (Acklam + one Halley step)
* ``student_t_cdf``       absolute error <= 1e-10 (regularized incomplete beta)
* ``ln_gamma``            relative error <= 1e-13 (Lanczos, g = 7)
* ``reg_incomplete_beta`` absolute error <= 1e-12 (Lentz continued fraction)
* ``debye1``              absolute error <= 1e-10 (adaptive Simpson)

Array kernels.  ``std_normal_pdf_array``, ``std_normal_cdf_array``,
``std_normal_inv_cdf_array``, ``student_t_cdf_array`` and
``student_t_inv_cdf_array`` take an array of any shape and return, for every
element, the same bits as the scalar function, and raise ``DomainError``
where it would.  They share the pure-arithmetic cores with the scalars (the
erf and erfc rationals, Acklam's polynomials); each lane takes the scalar's
branch, and the iterative ones (the incomplete-beta continued fraction, the
Newton quantile) leave their loop at the iteration where the scalar would.
numpy supplies only +, -, *, /, sqrt, floor, abs and comparisons, which are
correctly rounded everywhere.  exp, log and log1p still come from ``math``,
one element at a time: numpy's vectorized exp and log are not libm's and
differ from it in the last bit for some arguments, which would change the
tables and samples built on these functions.

The scalar functions remain for scalar callers, where a one-element array
would cost far more than the scalar call, and as the tests' reference.
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
    "bivariate_t_pdf",
    "ln_gamma",
    "reg_incomplete_beta",
    "debye1",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def _elementwise(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` applied to each element of the 1-D array ``a``."""
    return np.fromiter(map(fn, a.tolist()), float, a.size)


def _flat(x) -> tuple[np.ndarray, tuple]:
    arr = np.asarray(x, dtype=float)
    return arr.ravel(), arr.shape


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


def _erfc_positive(y: float) -> float:
    """erfc(y) for y >= 0.46875; callers handle the small-|y| erf branch."""
    if y > 26.5:
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


# Acklam's rational approximation for the inverse normal CDF.
_INV_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_INV_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_INV_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_INV_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425


def _acklam_tail(q):
    """Acklam's lower-tail rational in q = sqrt(-2 ln p); negate for the upper tail."""
    return (
        ((((_INV_C[0] * q + _INV_C[1]) * q + _INV_C[2]) * q + _INV_C[3]) * q + _INV_C[4]) * q + _INV_C[5]
    ) / ((((_INV_D[0] * q + _INV_D[1]) * q + _INV_D[2]) * q + _INV_D[3]) * q + 1.0)


def _acklam_central(q):
    """Acklam's central rational in q = p - 1/2."""
    r = q * q
    return (
        (((((_INV_A[0] * r + _INV_A[1]) * r + _INV_A[2]) * r + _INV_A[3]) * r + _INV_A[4]) * r + _INV_A[5]) * q
    ) / (((((_INV_B[0] * r + _INV_B[1]) * r + _INV_B[2]) * r + _INV_B[3]) * r + _INV_B[4]) * r + 1.0)


def _acklam(p: float) -> float:
    if p < _P_LOW:
        return _acklam_tail(math.sqrt(-2.0 * math.log(p)))
    if p > 1.0 - _P_LOW:
        # IEEE division rounds symmetrically, so -(n / d) == (-n) / d
        return -_acklam_tail(math.sqrt(-2.0 * math.log(1.0 - p)))
    return _acklam_central(p - 0.5)


def std_normal_inv_cdf(p: float) -> float:
    """Quantile function of N(0, 1) for p strictly inside (0, 1).

    Acklam's rational approximation (~1e-9) sharpened by one Halley step on
    ``std_normal_cdf``, which brings |Phi(x) - p| below 1e-12.  This function
    sits in the hot path of the t-copula density grid, hence a fixed-cost
    refinement instead of a root-finding loop.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"std_normal_inv_cdf requires 0 < p < 1, got {p!r}")
    x = _acklam(p)
    # Halley refinement: e = Phi(x) - p, u = e / phi(x)
    e = std_normal_cdf(x) - p
    u = e * _SQRT_2PI * math.exp(0.5 * x * x)
    if math.isfinite(u):
        x = x - u / (1.0 + 0.5 * x * u)
    return x


def _erfc_positive_flat(y: np.ndarray) -> np.ndarray:
    """:func:`_erfc_positive` for each element of ``y``."""
    out = np.zeros_like(y)
    live = y <= 26.5
    y = y[live]
    ysq = np.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    escale = _elementwise(math.exp, -ysq * ysq) * _elementwise(math.exp, -delta)
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
    return (_elementwise(math.exp, arg) / _SQRT_2PI).reshape(shape)


def std_normal_cdf_array(x) -> np.ndarray:
    """:func:`std_normal_cdf` of each element of ``x``, in the shape of ``x``."""
    flat, shape = _flat(x)
    _require(np.isfinite(flat), flat, "std_normal_cdf requires finite x")
    return _std_normal_cdf_flat(flat).reshape(shape)


def std_normal_inv_cdf_array(p) -> np.ndarray:
    """:func:`std_normal_inv_cdf` of each element of ``p``, in the shape of ``p``."""
    flat, shape = _flat(p)
    _require((flat > 0.0) & (flat < 1.0), flat, "std_normal_inv_cdf requires 0 < p < 1")
    x = np.empty_like(flat)
    low = flat < _P_LOW
    high = flat > 1.0 - _P_LOW
    central = ~(low | high)
    x[low] = _acklam_tail(np.sqrt(-2.0 * _elementwise(math.log, flat[low])))
    x[high] = -_acklam_tail(np.sqrt(-2.0 * _elementwise(math.log, 1.0 - flat[high])))
    x[central] = _acklam_central(flat[central] - 0.5)
    e = _std_normal_cdf_flat(x) - flat
    u = e * _SQRT_2PI * _elementwise(math.exp, 0.5 * x * x)
    step = np.isfinite(u)
    xs, us = x[step], u[step]
    x[step] = xs - us / (1.0 + 0.5 * xs * us)
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


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        de = d * c
        h *= de
        if abs(de - 1.0) <= _BETA_EPS:
            return h
    raise DomainError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def _floor_abs(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _BETA_FPMIN, _BETA_FPMIN, v)


def _beta_cf_flat(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """:func:`_beta_cf` for each element of ``x``.

    Every lane runs the scalar's modified Lentz steps and leaves the loop at
    the iteration where the scalar would return.
    """
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
    ln_front = a * _elementwise(math.log, x) + b * _elementwise(math.log1p, -x) - _ln_beta(a, b)
    front = _elementwise(math.exp, ln_front)
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
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _ln_beta(a, b)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


# ---------------------------------------------------------------------------
# Student-t family
# ---------------------------------------------------------------------------


def student_t_pdf(x: float, nu: float) -> float:
    """Density of the Student-t distribution with nu > 0 degrees of freedom."""
    if not (nu > 0.0):
        raise DomainError(f"student_t_pdf requires nu > 0, got {nu!r}")
    if not math.isfinite(x):
        raise DomainError(f"student_t_pdf requires finite x, got {x!r}")
    ln_c = ln_gamma(0.5 * (nu + 1.0)) - ln_gamma(0.5 * nu) - 0.5 * math.log(math.pi * nu)
    return math.exp(ln_c - 0.5 * (nu + 1.0) * math.log1p(x * x / nu))


def student_t_cdf(x: float, nu: float) -> float:
    """Distribution function of the Student-t with nu > 0 degrees of freedom.

    Uses the standard transformation to the regularized incomplete beta with
    the symmetric halves stitched at x = 0.
    """
    if not (nu > 0.0):
        raise DomainError(f"student_t_cdf requires nu > 0, got {nu!r}")
    if not math.isfinite(x):
        raise DomainError(f"student_t_cdf requires finite x, got {x!r}")
    if x == 0.0:
        return 0.5
    xsq = x * x
    if xsq >= nu:
        # tail side small: evaluate directly for full relative accuracy
        half_tail = 0.5 * reg_incomplete_beta(nu / (nu + xsq), 0.5 * nu, 0.5)
    else:
        # keep the beta argument below 1/2 so no internal reflection with a
        # cancellation-prone 1 - x is needed
        half_tail = 0.5 * (1.0 - reg_incomplete_beta(xsq / (nu + xsq), 0.5, 0.5 * nu))
    return half_tail if x < 0.0 else 1.0 - half_tail


def student_t_inv_cdf(p: float, nu: float) -> float:
    """Quantile function of the Student-t: x with |T_nu(x) - p| <= 1e-10.

    Safeguarded Newton iteration on ``student_t_cdf`` with the analytic
    density as derivative; the bracket is grown geometrically first.
    """
    if not (nu > 0.0):
        raise DomainError(f"student_t_inv_cdf requires nu > 0, got {nu!r}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"student_t_inv_cdf requires 0 < p < 1, got {p!r}")
    if p == 0.5:
        return 0.0
    # solve in the upper half and mirror
    pu = p if p > 0.5 else 1.0 - p
    lo, hi = 0.0, 2.0
    while student_t_cdf(hi, nu) < pu:
        lo = hi
        hi *= 4.0
        if hi > 1e300:  # pragma: no cover - unreachable for p in (0,1)
            break
    x = 0.5 * (lo + hi)
    for _ in range(200):
        f = student_t_cdf(x, nu) - pu
        if f > 0.0:
            hi = x
        else:
            lo = x
        if abs(f) <= 1e-13:
            break
        step = f / student_t_pdf(x, nu)
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x = x_new
    return x if p > 0.5 else -x


def _student_t_pdf_flat(x: np.ndarray, nu: float) -> np.ndarray:
    ln_c = ln_gamma(0.5 * (nu + 1.0)) - ln_gamma(0.5 * nu) - 0.5 * math.log(math.pi * nu)
    with np.errstate(over="ignore"):
        q = x * x / nu
    return _elementwise(math.exp, ln_c - 0.5 * (nu + 1.0) * _elementwise(math.log1p, q))


def _student_t_cdf_flat(x: np.ndarray, nu: float) -> np.ndarray:
    # x == 0 needs no branch of its own: it takes the I_0 = 0 path to 0.5
    with np.errstate(over="ignore"):
        xsq = x * x
    half_tail = np.empty_like(x)
    tail = xsq >= nu
    core = ~tail
    half_tail[tail] = 0.5 * _reg_incomplete_beta_flat(nu / (nu + xsq[tail]), 0.5 * nu, 0.5)
    xc = xsq[core]
    half_tail[core] = 0.5 * (1.0 - _reg_incomplete_beta_flat(xc / (nu + xc), 0.5, 0.5 * nu))
    return np.where(x < 0.0, half_tail, 1.0 - half_tail)


def student_t_cdf_array(x, nu: float) -> np.ndarray:
    """:func:`student_t_cdf` of each element of ``x``, in the shape of ``x``."""
    if not (nu > 0.0):
        raise DomainError(f"student_t_cdf requires nu > 0, got {nu!r}")
    flat, shape = _flat(x)
    _require(np.isfinite(flat), flat, "student_t_cdf requires finite x")
    return _student_t_cdf_flat(flat, nu).reshape(shape)


def student_t_inv_cdf_array(p, nu: float) -> np.ndarray:
    """:func:`student_t_inv_cdf` of each element of ``p``, in the shape of ``p``.

    Each lane runs the scalar's bracket growth and safeguarded Newton steps
    and stops where the scalar would.
    """
    if not (nu > 0.0):
        raise DomainError(f"student_t_inv_cdf requires nu > 0, got {nu!r}")
    flat, shape = _flat(p)
    _require((flat > 0.0) & (flat < 1.0), flat, "student_t_inv_cdf requires 0 < p < 1")
    pu = np.where(flat > 0.5, flat, 1.0 - flat)
    lo = np.zeros_like(flat)
    hi = np.full_like(flat, 2.0)
    act = np.flatnonzero(flat != 0.5)
    grow = act
    while grow.size:
        grow = grow[_student_t_cdf_flat(hi[grow], nu) < pu[grow]]
        lo[grow] = hi[grow]
        hi[grow] *= 4.0
        grow = grow[hi[grow] <= 1e300]
    x = 0.5 * (lo + hi)
    for _ in range(200):
        if not act.size:
            break
        xa = x[act]
        f = _student_t_cdf_flat(xa, nu) - pu[act]
        above = f > 0.0
        hi[act[above]] = xa[above]
        lo[act[~above]] = xa[~above]
        live = ~(np.abs(f) <= 1e-13)
        act, xa, f = act[live], xa[live], f[live]
        x_new = xa - f / _student_t_pdf_flat(xa, nu)
        la, ha = lo[act], hi[act]
        outside = ~((la < x_new) & (x_new < ha))
        x_new[outside] = 0.5 * (la[outside] + ha[outside])
        moved = x_new != xa
        act = act[moved]
        x[act] = x_new[moved]
    x = np.where(flat > 0.5, x, -x)
    x[flat == 0.5] = 0.0
    return x.reshape(shape)


def bivariate_t_pdf(x: float, y: float, rho: float, nu: float) -> float:
    """Bivariate Student-t density with correlation rho and nu > 0 dof.

    gamma((nu+2)/2) / (gamma(nu/2) pi nu sqrt(1-rho^2))
        * [1 + (x^2 - 2 rho x y + y^2) / (nu (1 - rho^2))]^(-(nu+2)/2)
    """
    if not (nu > 0.0):
        raise DomainError(f"bivariate_t_pdf requires nu > 0, got {nu!r}")
    if not (-1.0 < rho < 1.0):
        raise DomainError(f"bivariate_t_pdf requires |rho| < 1, got {rho!r}")
    r2 = 1.0 - rho * rho
    ln_c = (
        ln_gamma(0.5 * (nu + 2.0))
        - ln_gamma(0.5 * nu)
        - math.log(math.pi * nu)
        - 0.5 * math.log(r2)
    )
    # grouped so that swapping x and y gives the bitwise-identical result
    q = (x * x + y * y - 2.0 * rho * (x * y)) / (nu * r2)
    return math.exp(ln_c - 0.5 * (nu + 2.0) * math.log1p(q))


# ---------------------------------------------------------------------------
# Debye function D1
# ---------------------------------------------------------------------------


def _debye_integrand(t: float) -> float:
    # t/(e^t - 1) has a removable singularity at 0; switch to the Taylor
    # value below 1e-8 to avoid 0/0
    if abs(t) < 1e-8:
        return 1.0 - 0.5 * t
    return t / math.expm1(t)


def _adaptive_simpson(f, a: float, b: float, fa: float, fm: float, fb: float, whole: float, tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0:  # pragma: no cover - depth generous for smooth integrand
        return left + right
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adaptive_simpson(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def debye1(theta: float) -> float:
    """Debye function D1(theta) = (1/theta) * integral_0^theta t/(e^t - 1) dt.

    Defined for theta != 0 (both signs); adaptive Simpson quadrature with
    absolute tolerance well below the 1e-10 contract.
    """
    if theta == 0.0 or not math.isfinite(theta):
        raise DomainError(f"debye1 requires finite theta != 0, got {theta!r}")
    f = _debye_integrand
    a, b = 0.0, theta
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    integral = _adaptive_simpson(f, a, b, fa, fm, fb, whole, 1e-13 * max(1.0, abs(theta)), 60)
    return integral / theta
