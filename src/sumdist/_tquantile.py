"""The Student-t quantile of :mod:`sumdist.specfun`, one array kernel.

``specfun.student_t_inv_cdf`` checks its arguments and calls
``student_t_inv_cdf_flat`` on the flattened elements, a float's as a
one-element array, so a float's quantile is its lane in any array to the
bit.  It imports this module on its first call.  Only commands with a t
axis run the quantile, so ``import sumdist.cli`` does not compile it:
every invocation compiles the modules it imports, and without bytecode
that cost shows in start-up time and peak memory.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .specfun import (
    _std_normal_inv_cdf_flat,
    _t_log_far_tail,
    _t_log_normalizer,
    _t_log_pdf_flat,
    _t_log_tail_scale,
    _t_tail_beta_flat,
)

# The quantile solves T_nu(-t) = q for t = |x| > 0 by Newton steps from a
# closed-form start.  Each pass is one evaluation of the t tail,
# ``specfun._t_tail_beta_flat``, the t CDF's own: the incomplete beta G that
# holds T_nu(-t) to full relative accuracy, with G = 2 T_nu(-t) on the tail
# side and 1 - 2 T_nu(-t) on the core side.  The step is Newton's on
# ln G - ln G*, G* = 2q or 1 - 2q, with the analytic density.
#
# Hill's start ("Algorithm 396: Student's t-quantiles", CACM 1970) divides
# by nu - 1/2, and its constant d changes sign below nu = 3/4; it serves
# above nu = 1.  Below, and where Hill's tail series would take the
# reciprocal of a vanishing (2 d q)^(2/nu), the start is the tail asymptote
# t = sqrt(nu) (q nu B(nu/2, 1/2))^(-1/nu), which is 110 times too large at
# q = 0.499 and nu = 0.5; where its t^2 < 2 nu, the start is the line
# (1/2 - q)/t_nu(0), which never overshoots.  At nu = 1 the start is the
# Cauchy quantile, which is exact.  A relative step of 1e-13 stops the
# iteration, widened by nu 2^-51: the beta's front carries nu/2 times the
# rounding of w, and at nu = 1e6 smaller steps never settle.  A step below
# 1e-12 that does not shrink is rounding too: just above nu = 1, where ln G
# nears -700, one bit of it moves t by ~1.1e-13 and t cycles round the root.
_HILL_TAIL_MIN = 2.0**-40
_T_REL_STEP = 1e-13
_T_NOISE_STEP = 1e-12
_T_MAXIT = 60
_LN2 = math.log(2.0)
_DBL_MAX = float.fromhex("0x1.fffffffffffffp+1023")


class _TQuantileSetup:
    """Constants of the quantile at one nu."""

    def __init__(self, nu: float):
        self.nu = nu
        self.log_scale = _t_log_tail_scale(nu)
        # ln T_nu(-DBL_MAX): the quantile of a smaller q is not a double
        self.log_q_min = _t_log_far_tail(math.log(_DBL_MAX), nu)
        self.density_at_0 = math.exp(_t_log_normalizer(nu))
        # the beta's front carries nu/2 times the rounding of w
        self.rel_step = _T_REL_STEP + nu * 2.0**-51
        self.hill = nu > 1.0
        if self.hill:
            a = 1.0 / (nu - 0.5)
            b = 48.0 / (a * a)
            c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
            d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * nu
            self.a, self.b, self.c, self.d = a, b, c, d

    def log_asymptote(self, log_q):
        """ln t of the tail asymptote at ln q."""
        return 0.5 * math.log(self.nu) - (log_q + self.log_scale) / self.nu

    def hill_log_y(self, log_q):
        """ln y, y = (2 d q)^(2/nu), which picks Hill's branch."""
        return 2.0 / self.nu * (math.log(2.0 * self.d) + log_q)

    def hill_normal(self, z):
        """a w^2 of Hill's expansion about z = Phi^-1(q); t = sqrt(nu expm1(a w^2))."""
        nu, a, b, c, d = self.nu, self.a, self.b, self.c, self.d
        if nu < 5.0:
            c = c + 0.3 * (nu - 4.5) * (z + 0.6)
        c = (((0.05 * d * z - 5.0) * z - 7.0) * z - 2.0) * z + b + c
        zsq = z * z
        w = (((((0.4 * zsq + 6.3) * zsq + 36.0) * zsq + 94.5) / c - zsq - 3.0) / b + 1.0) * z
        return a * w * w

    def hill_tail(self, y):
        """t^2/nu of Hill's series in y."""
        nu, d = self.nu, self.d
        return (
            (1.0 / (((nu + 6.0) / (nu * y) - 0.089 * d - 0.822) * (nu + 2.0) * 3.0) + 0.5 / (nu + 4.0)) * y - 1.0
        ) * (nu + 1.0) / (nu + 2.0) + 1.0 / y

    def not_finite(self, p: float) -> DomainError:
        bound = -_DBL_MAX if p < 0.5 else _DBL_MAX
        return DomainError(
            f"student_t_inv_cdf({p!r}, nu={self.nu!r}): the quantile lies beyond {bound!r}, "
            "so it is not a finite double"
        )


def _t_start_flat(setup: _TQuantileSetup, q: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """The start of the Newton steps on t = |x| at each lower-tail probability q."""
    nu = setup.nu
    if nu == 1.0:
        with np.errstate(over="ignore"):
            return np.where(q < 0.25, np.minimum(1.0 / np.tan(math.pi * q), _DBL_MAX), np.tan(math.pi * (0.5 - q)))
    t = np.exp(np.minimum(setup.log_asymptote(log_q), math.log(_DBL_MAX)))
    with np.errstate(over="ignore"):
        central = t * t < 2.0 * nu
    t[central] = (0.5 - q[central]) / setup.density_at_0
    if setup.hill:
        with np.errstate(over="ignore"):
            y = np.exp(setup.hill_log_y(log_q))
        normal = y > 0.05 + setup.a
        series = ~normal & (y >= _HILL_TAIL_MIN)
        t[normal] = np.sqrt(nu * np.expm1(setup.hill_normal(_std_normal_inv_cdf_flat(q[normal]))))
        t[series] = np.sqrt(nu * setup.hill_tail(y[series]))
    return t


def student_t_inv_cdf_flat(p: np.ndarray, nu: float) -> np.ndarray:
    """The t quantile of each element of the 1-D ``p``, all inside (0, 1).

    Behind :func:`sumdist.specfun.student_t_inv_cdf`, which checks the
    arguments.  Each lane runs the start, the Newton steps and the bracket,
    and stops by the rule above.
    """
    x = np.zeros_like(p)
    act = np.flatnonzero(p != 0.5)
    if not act.size:
        return x
    setup = _TQuantileSetup(nu)
    pa = p[act]
    q = np.where(pa < 0.5, pa, 1.0 - pa)
    log_q = np.log(q)
    beyond = log_q < setup.log_q_min
    if beyond.any():
        raise setup.not_finite(float(pa[beyond][0]))
    log_tail_target, log_core_target = log_q + _LN2, np.log1p(-2.0 * q)
    t = _t_start_flat(setup, q, log_q)
    lo = np.zeros_like(t)
    hi = np.full_like(t, _DBL_MAX)
    last_step = np.full_like(t, math.inf)
    lane = np.arange(act.size)
    for _ in range(_T_MAXIT):
        g, tail = _t_tail_beta_flat(t, nu)
        sign = np.where(tail, 1.0, -1.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_g = np.log(g)
            r = sign * (log_g - np.where(tail, log_tail_target, log_core_target))
            t_new = t + r * t * np.exp(log_g - _LN2 - _t_log_pdf_flat(t, nu) - np.log(t))
        below = r > 0.0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        outside = ~((lo <= t_new) & (t_new <= hi))
        if outside.any():
            lo_o, hi_o = lo[outside], hi[outside]
            t_new[outside] = np.where(lo_o > 0.0, np.sqrt(lo_o) * np.sqrt(hi_o), 0.5 * hi_o)
        step = np.abs(t_new - t)
        done = (step <= setup.rel_step * t_new) | ((last_step <= step) & (step <= _T_NOISE_STEP * t_new))
        x[act[lane[done]]] = t_new[done]
        live = ~done
        lane, t, lo, hi, last_step = lane[live], t_new[live], lo[live], hi[live], step[live]
        log_tail_target, log_core_target = log_tail_target[live], log_core_target[live]
        if not lane.size:
            break
    x[act[lane]] = t
    return np.where(p < 0.5, -x, x)
