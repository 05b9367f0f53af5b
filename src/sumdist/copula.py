"""Bivariate copulas: CDFs, densities, and dependence-parameter conversions.

Five families are supported: Gauss, Student-t, Clayton, Gumbel, Frank.
Archimedean CDFs and all densities are closed forms.  The Gauss/t copulas
have no closed-form CDF; C(u1, u2) is the 1-D integral over w in
(0, min(u1, u2)] of the closed-form conditional CDF h(max(u1, u2) | w),
taken with a fixed tanh-sinh rule whose nodes are computed at import.

The density kernels take arrays only, so grids need no per-point Python; a
scalar density is a one-point block, with the bits of the grid entry.  One
predicate, ``_independent``, routes Archimedean independence.  Clayton's
generator sum ln s and Gumbel's ln A each have one array function, which
the family's density kernel and its CDF (a one-point block) both call;
Frank's CDF takes the base of the density's denominator where its quotient
form would round towards log1p(-1).  Every CDF is held to the
Frechet-Hoeffding bounds.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError

__all__ = [
    "CopulaFamily",
    "CopulaSpec",
    "DEFAULT_NU",
    "UEPS",
    "copula_cdf",
    "copula_density",
    "tau_from_pearson_rho",
    "theta_from_tau",
    "tau_from_theta",
    "spec_from_rho",
]

# clamp bound for density arguments: Clayton u^(-theta) and Gumbel ln(u)
# diverge at the boundary, and the normal-margin pipeline underflows anyway
UEPS = 1e-12

# a Clayton or Frank theta within this distance of 0, or a Gumbel theta
# within it of 1, is independence (see _independent)
_INDEP_TOL = 1e-9

# the t copula's nu where none is given (the reference Table 2 states none)
DEFAULT_NU = 4.0

# the t copula's nu range.  Over the Table 2 rhos, on the default grid, both
# table modes give valid tables from nu = 0.19 up; at 0.18 the rho = 0.9
# table overshoots 1 (by 6.6e-4), which sets the floor.  Lower, the
# overshoot grows (0.05 at nu = 0.1, 0.33 at 0.05), though the t quantile
# of the lattice axes stays finite down to nu = 0.03 (up to 1e207 there,
# whose square overflows in the t kernel); from 0.02 down that quantile is
# not a double and raises a DomainError.  Up to nu = 1e6 the largest gap
# between each table and the Gauss table (its nu -> infinity limit) is
# 0.0619 / nu to within 1e-9; above, rounding error takes over: 5e-8 more
# at nu = 2e7, 2e-6 at 1e9, and at 1e12 the tables overshoot 1
_T_NU_MIN, _T_NU_MAX = 0.2, 1e6

# the largest Archimedean |theta|: from about 1e306 on, -theta ln u and
# theta ln(-ln u) overflow at the clamp u = 1e-300
_THETA_MAX = 1e300

# below this tau, Frank's theta = 9 tau (1 + 0.81 tau^2) to within 1.3e-4 theta^4
# relative, which is under 2e-16 for theta < 1e-3
_FRANK_SERIES_TAU = 1e-3 / 9.0
# below this theta, the Newton residual for Frank's theta takes tau(theta)
# from D1's series: 1 - D1 ~ theta/4 cancels there (1.4e-9 relative error
# in theta at tau = 1.2e-4 through the complement)
_FRANK_SERIES_THETA = 0.5


class CopulaFamily(enum.Enum):
    """The five supported copula families."""

    GAUSS = "gauss"
    STUDENT_T = "t"
    CLAYTON = "clayton"
    GUMBEL = "gumbel"
    FRANK = "frank"


_ELLIPTICAL = frozenset({CopulaFamily.GAUSS, CopulaFamily.STUDENT_T})


@dataclass(frozen=True)
class CopulaSpec:
    """A validated copula family plus its parameters.

    Exactly the parameters relevant to the family may be set:

    * Gauss: ``rho`` in (-1, 1)
    * Student-t: ``rho`` in (-1, 1) and ``nu`` in [0.2, 1e6]
    * Clayton: ``theta`` in (0, 1e300]
    * Gumbel: ``theta`` in [1, 1e300]
    * Frank: ``theta`` != 0 with ``|theta|`` <= 1e300
    """

    family: CopulaFamily
    rho: float | None = None
    nu: float | None = None
    theta: float | None = None

    def __post_init__(self):
        fam = self.family
        if not isinstance(fam, CopulaFamily):
            raise DomainError(f"family must be a CopulaFamily, got {fam!r}")
        if fam in _ELLIPTICAL:
            if self.theta is not None:
                raise DomainError(f"{fam.value} copula takes no theta parameter")
            if self.rho is None or not (-1.0 < self.rho < 1.0):
                raise DomainError(f"{fam.value} copula requires -1 < rho < 1, got {self.rho!r}")
            if fam is CopulaFamily.STUDENT_T:
                if self.nu is None or not (self.nu > 0.0):
                    raise DomainError(f"t copula requires nu > 0, got {self.nu!r}")
                if math.isinf(self.nu):
                    raise DomainError(f"t copula requires a finite nu, got {self.nu!r}")
                if not (_T_NU_MIN <= self.nu <= _T_NU_MAX):
                    raise DomainError(f"t copula requires {_T_NU_MIN:g} <= nu <= {_T_NU_MAX:g}, got {self.nu!r}")
            elif self.nu is not None:
                raise DomainError("gauss copula takes no nu parameter")
        else:
            if self.rho is not None or self.nu is not None:
                raise DomainError(f"{fam.value} copula takes only theta, not rho/nu")
            th = self.theta
            if th is None:
                raise DomainError(f"{fam.value} copula requires theta")
            if fam is CopulaFamily.CLAYTON and not (0.0 < th < math.inf):
                raise DomainError(f"clayton copula requires finite theta > 0, got {th!r}")
            if fam is CopulaFamily.GUMBEL and not (1.0 <= th < math.inf):
                raise DomainError(f"gumbel copula requires finite theta >= 1, got {th!r}")
            if fam is CopulaFamily.FRANK and (th == 0.0 or not math.isfinite(th)):
                raise DomainError(f"frank copula requires finite theta != 0, got {th!r}")
            if abs(th) > _THETA_MAX:
                raise DomainError(f"{fam.value} copula requires |theta| <= {_THETA_MAX:g}, got {th!r}")

    # -- convenience constructors ------------------------------------------
    @staticmethod
    def gauss(rho: float) -> "CopulaSpec":
        return CopulaSpec(CopulaFamily.GAUSS, rho=rho)

    @staticmethod
    def student_t(rho: float, nu: float = DEFAULT_NU) -> "CopulaSpec":
        return CopulaSpec(CopulaFamily.STUDENT_T, rho=rho, nu=nu)

    @staticmethod
    def clayton(theta: float) -> "CopulaSpec":
        return CopulaSpec(CopulaFamily.CLAYTON, theta=theta)

    @staticmethod
    def gumbel(theta: float) -> "CopulaSpec":
        return CopulaSpec(CopulaFamily.GUMBEL, theta=theta)

    @staticmethod
    def frank(theta: float) -> "CopulaSpec":
        return CopulaSpec(CopulaFamily.FRANK, theta=theta)

    @functools.cached_property
    def _t_log_norm(self) -> float:
        # once per spec, not once per density block
        return _t_log_norm_of(self.rho, self.nu)

    def describe(self) -> dict:
        """Family tag and its parameters, for output metadata."""
        out = {"family": self.family.value}
        if self.rho is not None:
            out["rho"] = self.rho
        if self.nu is not None:
            out["nu"] = self.nu
        if self.theta is not None:
            out["theta"] = self.theta
        return out


def _independent(spec: CopulaSpec) -> bool:
    """Whether theta is within ``_INDEP_TOL`` of independence (Clayton and Frank
    0, Gumbel 1), where the density is 1, the CDF u1 u2 and the samples
    independent.  The closed forms fail there: Clayton's cancel, Frank's is 0/0."""
    if spec.family in _ELLIPTICAL:
        return False
    return abs(spec.theta - (1.0 if spec.family is CopulaFamily.GUMBEL else 0.0)) <= _INDEP_TOL


# ---------------------------------------------------------------------------
# dependence-measure conversions
# ---------------------------------------------------------------------------


def tau_from_pearson_rho(rho: float) -> float:
    """Kendall's tau of an elliptical copula: tau = (2/pi) arcsin(rho)."""
    if not (-1.0 < rho < 1.0):
        raise DomainError(f"tau_from_pearson_rho requires -1 < rho < 1, got {rho!r}")
    return 2.0 / math.pi * math.asin(rho)


def tau_from_theta(family: CopulaFamily, theta: float) -> float:
    """Kendall's tau of an Archimedean copula as a function of theta."""
    if family is CopulaFamily.CLAYTON:
        if not (theta > 0.0):
            raise DomainError(f"clayton requires theta > 0, got {theta!r}")
        return theta / (theta + 2.0)
    if family is CopulaFamily.GUMBEL:
        if not (theta >= 1.0):
            raise DomainError(f"gumbel requires theta >= 1, got {theta!r}")
        return 1.0 - 1.0 / theta
    if family is CopulaFamily.FRANK:
        if theta == 0.0:
            raise DomainError("frank requires theta != 0")
        if abs(theta) < specfun._DEBYE1_SWITCH:
            # 1 - D1 ~ theta/4 would cancel; D1's series gives
            # tau = 4 theta sum_k c_k theta^(2k-2) directly
            return 4.0 * theta * specfun._debye1_series(theta * theta)
        return 1.0 - 4.0 / theta * (1.0 - specfun.debye1(theta))
    raise DomainError(f"tau_from_theta is defined for Archimedean families only, got {family!r}")


def _frank_theta_from_tau(tau: float) -> float:
    """Solve tau(theta) = tau on the positive branch by safeguarded Newton.

    tau(theta) = 1 - 4 (1 - D1(theta)) / theta lies below its small-theta
    asymptote theta/9 and above its large-theta one, 1 - 4/theta, so the root
    lies in [9 tau, 4 / (1 - tau)].  Newton starts from the end whose
    asymptote fits tau (the lower below tau = 1/2) and bisects whenever a
    step leaves the shrinking bracket.
    """
    if tau < _FRANK_SERIES_TAU:
        # tau = theta/9 - theta^3/900 + O(theta^5), inverted
        return 9.0 * tau * (1.0 + 0.81 * tau * tau)
    c = 1.0 - tau
    lo, hi = 9.0 * tau, 4.0 / c
    theta = lo if tau < 0.5 else hi
    step = math.inf
    for _ in range(100):
        d1 = specfun.debye1(theta)
        # f = (1 - tau(theta)) - (1 - tau) = tau - tau(theta), which decreases
        # in theta; the complement keeps its relative accuracy as tau
        # approaches 1, and D1's series tau(theta) = 4 theta S(theta^2) keeps
        # it at small theta
        if theta < _FRANK_SERIES_THETA:
            f = tau - 4.0 * theta * specfun._debye1_series(theta * theta)
        else:
            f = 4.0 * (1.0 - d1) / theta - c
        if f > 0.0:
            lo = theta
        else:
            hi = theta
        # f' = -tau'(theta) = -(4/theta^2) (1 - 2 D1 + theta/(e^theta - 1)),
        # from D1' = 1/(e^theta - 1) - D1/theta
        slope = -4.0 / (theta * theta) * (1.0 - 2.0 * d1 + theta * math.exp(-theta) / -math.expm1(-theta))
        new = theta - f / slope
        if not (lo <= new <= hi):
            new = 0.5 * (lo + hi)
        prev, step = step, abs(new - theta)
        # convergence is quadratic, so after a step of 1e-9 relative the new
        # point is exact to rounding; a step that does not shrink is rounding
        # noise in f, which small theta amplifies
        if step <= 1e-9 * new or step >= prev:
            return new
        theta = new
    return theta  # pragma: no cover - the steps shrink or the loop returns


def theta_from_tau(family: CopulaFamily, tau: float) -> float:
    """Archimedean parameter theta matching a Kendall's tau target."""
    if family is CopulaFamily.CLAYTON:
        if not (0.0 < tau < 1.0):
            raise DomainError(f"clayton needs tau in (0, 1), got {tau!r}")
        return 2.0 * tau / (1.0 - tau)
    if family is CopulaFamily.GUMBEL:
        # tau = 0 is theta = 1, independence, which the family includes
        if not (0.0 <= tau < 1.0):
            raise DomainError(f"gumbel needs tau in [0, 1), got {tau!r}")
        return 1.0 / (1.0 - tau)
    if family is CopulaFamily.FRANK:
        if not (-1.0 < tau < 1.0) or tau == 0.0:
            raise DomainError(f"frank needs tau in (-1, 1) \\ {{0}}, got {tau!r}")
        if tau < 0.0:
            # tau(-theta) = -tau(theta)
            return -_frank_theta_from_tau(-tau)
        return _frank_theta_from_tau(tau)
    raise DomainError(f"theta_from_tau is defined for Archimedean families only, got {family!r}")


def spec_from_rho(family: CopulaFamily, rho: float, nu: float = DEFAULT_NU) -> CopulaSpec:
    """Build a spec from a Pearson rho target.

    Elliptical families take rho directly; Archimedean parameters are derived
    through the rank-correlation pipeline rho -> tau -> theta.
    """
    if family is CopulaFamily.GAUSS:
        return CopulaSpec.gauss(rho)
    if family is CopulaFamily.STUDENT_T:
        return CopulaSpec.student_t(rho, nu)
    tau = tau_from_pearson_rho(rho)
    return CopulaSpec(family, theta=theta_from_tau(family, tau))


# ---------------------------------------------------------------------------
# density kernels on broadcastable arrays of clamped coordinates.  The first
# operation allocates the result; later steps work in place, in the order of
# the plain expressions (same bits), never in the arguments (shared axes)
# ---------------------------------------------------------------------------


def _axis_coordinate(spec: CopulaSpec, u):
    """Per-axis transform feeding the density kernel (scalar or array ``u``).

    Arrays go through the array kernels, scalars through the scalar
    functions, and each scalar agrees with its kernel to the bit (the t
    scalar is the kernel's one lane).  The normal quantile is within 1e-15
    relative; the t quantile is within 1e-12 relative for u and 1 - u down
    to 1e-300, and raises ``DomainError`` where it is not a finite double
    (nu = 0.5, u below 2.4e-155).
    """
    if spec.family is CopulaFamily.GAUSS:
        if np.ndim(u):
            return specfun.std_normal_inv_cdf_array(u)
        return specfun.std_normal_inv_cdf(u)
    if spec.family is CopulaFamily.STUDENT_T:
        if np.ndim(u):
            return specfun.student_t_inv_cdf_array(u, spec.nu)
        return specfun.student_t_inv_cdf(u, spec.nu)
    return u


def _gauss_kernel(rho, z1, z2):
    r2 = 1.0 - rho * rho
    # exp(-quad / (2 r2)) / sqrt(r2), quad = rho^2 (z1^2 + z2^2) - 2 rho z1 z2
    quad = z1 * z1 + z2 * z2
    quad *= rho * rho
    cross = z1 * z2
    cross *= 2.0 * rho
    quad -= cross
    np.negative(quad, out=quad)
    quad /= 2.0 * r2
    np.exp(quad, out=quad)
    quad /= math.sqrt(r2)
    return quad


def _t_log_norm_of(rho, nu):
    """Log of the t copula density's constant factor."""
    r2 = 1.0 - rho * rho
    # log of gamma((nu+2)/2) / (gamma(nu/2) pi nu sqrt(1-rho2)); the
    # denominator constant is the squared univariate normalizer
    ln_num_c = (
        specfun.ln_gamma(0.5 * (nu + 2.0))
        - specfun.ln_gamma(0.5 * nu)
        - math.log(math.pi * nu)
        - 0.5 * math.log(r2)
    )
    return ln_num_c - 2.0 * specfun._t_log_normalizer(nu)


def _t_kernel(rho, nu, ln_norm, q1, q2):
    r2 = 1.0 - rho * rho
    # quad = (q1^2 + q2^2 - 2 rho q1 q2) / (nu r2)
    quad = q1 * q1 + q2 * q2
    cross = q1 * q2
    cross *= 2.0 * rho
    quad -= cross
    quad /= nu * r2
    # ln c = ln_norm - (nu + 2)/2 log1p(quad) + (nu + 1)/2 (log1p(q1^2 / nu) + log1p(q2^2 / nu))
    ln_c = np.log1p(quad, out=quad)
    ln_c *= 0.5 * (nu + 2.0)
    np.subtract(ln_norm, ln_c, out=ln_c)
    margins = np.add(np.log1p(q1 * q1 / nu), np.log1p(q2 * q2 / nu), out=cross)
    margins *= 0.5 * (nu + 1.0)
    ln_c += margins
    return np.exp(ln_c, out=ln_c)


# expm1 is finite up to ln(DBL_MAX) = 709.78, and two of its values sum finitely
_EXPM1_MAX = 709.0


def _clayton_log_s(theta, ln_u1, ln_u2):
    """ln s, with s = u1^-theta + u2^-theta - 1 Clayton's generator sum, on
    broadcastable arrays of ln u.

    With a_i = -theta ln u_i it is log1p(expm1(a1) + expm1(a2)), which does
    not cancel near independence.  Where an a_i passes ``_EXPM1_MAX`` (theta
    above about 26 at the clamp), the lane takes the max-shifted form
    m + ln(e^(a1 - m) + e^(a2 - m) - e^-m), m = max(a1, a2), whose e^-m is
    then below 1e-307 and drops out: logaddexp(a1, a2).
    """
    a1 = -theta * ln_u1
    a2 = -theta * ln_u2
    ln_s = np.add(np.expm1(np.minimum(a1, _EXPM1_MAX)), np.expm1(np.minimum(a2, _EXPM1_MAX)))
    np.log1p(ln_s, out=ln_s)
    if max(a1.max(), a2.max()) > _EXPM1_MAX:
        np.copyto(ln_s, np.logaddexp(a1, a2), where=np.maximum(a1, a2) > _EXPM1_MAX)
    return ln_s


def _clayton_kernel(theta, u1, u2):
    # evaluated in log space: u^(-theta) overflows already for
    # theta ~ 50 at the clamp boundary
    l1 = np.log(u1)
    l2 = np.log(u2)
    # ln c = log1p(theta) - (1 + 2 theta) / theta ln s - (theta + 1) (log u1 + log u2)
    ln_c = _clayton_log_s(theta, l1, l2)
    ln_c *= (1.0 + 2.0 * theta) / theta
    np.subtract(math.log1p(theta), ln_c, out=ln_c)
    term = np.add(l1, l2)
    term *= theta + 1.0
    ln_c -= term
    return np.exp(ln_c, out=ln_c)


def _gumbel_log_a(theta, la, lb):
    """ln A, with A = (-ln u1)^theta + (-ln u2)^theta Gumbel's generator sum,
    on broadcastable arrays of la = ln(-ln u1) and lb = ln(-ln u2): the
    max-shifted m + ln(e^(theta la - m) + e^(theta lb - m)), m the larger
    exponent."""
    ln_big_a = np.maximum(theta * la, theta * lb)
    term = theta * la - ln_big_a
    np.exp(term, out=term)
    other = theta * lb - ln_big_a
    np.exp(other, out=other)
    term += other
    np.log(term, out=term)
    ln_big_a += term
    return ln_big_a


def _gumbel_kernel(theta, u1, u2):
    a = -np.log(u1)
    b = -np.log(u2)
    la = np.log(a)
    lb = np.log(b)
    ln_big_a = _gumbel_log_a(theta, la, lb)
    # ln c = -sigma + ln sigma + log(theta - 1 + sigma) + (theta - 1) (la + lb)
    #        - 2 ln A + (a + b), with ln sigma = ln A / theta; ln sigma - sigma
    #        is -sigma + ln sigma to the bit
    ln_c = np.divide(ln_big_a, theta)
    sigma = np.exp(ln_c)
    ln_c -= sigma
    sigma += theta - 1.0
    ln_c += np.log(sigma, out=sigma)
    term = np.add(la, lb, out=sigma)
    term *= theta - 1.0
    ln_c += term
    ln_big_a *= 2.0
    ln_c -= ln_big_a
    ln_c += np.add(a, b, out=ln_big_a)
    return np.exp(ln_c, out=ln_c)


def _frank_base(theta, u1, u2):
    """e^(-2|w|) and the base D = A + e^(-2|w|) B of the Frank density's
    denominator (see ``_frank_kernel``), as two new arrays."""
    t = abs(theta)
    v2 = np.maximum(u1, u2)
    w = np.minimum(u1, u2)
    if theta > 0.0:
        np.subtract(v2, w, out=w)
    else:
        w += v2
        w -= 1.0
    w *= 0.5 * t
    p = v2 * -t
    np.expm1(p, out=p)
    np.negative(p, out=p)
    q = np.subtract(1.0, v2, out=v2)
    q *= -t
    np.expm1(q, out=q)
    np.negative(q, out=q)
    ahead = w >= 0.0
    a = np.where(ahead, p, q)
    b = p
    np.copyto(b, q, where=ahead)
    e = np.abs(w, out=w)
    e *= -2.0
    np.exp(e, out=e)
    b *= e
    b += a
    return e, b


def _frank_kernel(theta, u1, u2):
    # c = theta (1 - e^-theta) e^(-theta (u1 + u2)) / D^2, D a sum of two terms
    # with the sign of theta.  With t = |theta|, P = 1 - e^(-t u2), Q = 1 - e^(-t (1 - u2))
    # and w = t (u2 - u1) / 2 (theta > 0) or t (u1 + u2 - 1) / 2 (theta < 0), it is
    # t (1 - e^-t) e^(-2|w|) / (A + e^(-2|w|) B)^2 with (A, B) = (P, Q) for w >= 0,
    # else (Q, P): free of cancellation and overflow.  Taking (u1, u2) as
    # (min, max) keeps the kernel bitwise symmetric.
    t = abs(theta)
    e, d = _frank_base(theta, u1, u2)
    d **= 2
    e *= t * -math.expm1(-t)
    e /= d
    return e


def _density_from_coords(spec: CopulaSpec, c1, c2) -> np.ndarray:
    """The density on broadcastable coordinate arrays; ones at independence."""
    if _independent(spec):
        return np.ones(np.broadcast_shapes(c1.shape, c2.shape))
    fam = spec.family
    if fam is CopulaFamily.GAUSS:
        return _gauss_kernel(spec.rho, c1, c2)
    if fam is CopulaFamily.STUDENT_T:
        return _t_kernel(spec.rho, spec.nu, spec._t_log_norm, c1, c2)
    if fam is CopulaFamily.CLAYTON:
        return _clayton_kernel(spec.theta, c1, c2)
    if fam is CopulaFamily.GUMBEL:
        return _gumbel_kernel(spec.theta, c1, c2)
    return _frank_kernel(spec.theta, c1, c2)


def _density_at(spec: CopulaSpec, c1: float, c2: float) -> float:
    """The copula density at one point of kernel coordinates, evaluated as a
    one-point block: for equal coordinates, the bits of a grid entry."""
    return float(_density_from_coords(spec, np.array([c1]), np.array([c2]))[0])


def _clamp_u(u):
    if np.ndim(u):
        return np.clip(u, UEPS, 1.0 - UEPS)
    return min(max(u, UEPS), 1.0 - UEPS)


def copula_density(spec: CopulaSpec, u1: float, u2: float) -> float:
    """Copula density c(u1, u2) for u strictly inside the unit square.

    Inputs are clamped to [1e-12, 1 - 1e-12] before evaluation; exact 0 and 1
    are domain errors because several families diverge there.
    """
    if not (0.0 < u1 < 1.0 and 0.0 < u2 < 1.0):
        raise DomainError(f"copula_density requires u in (0, 1) strictly, got ({u1!r}, {u2!r})")
    return _density_at(spec, _axis_coordinate(spec, _clamp_u(u1)), _axis_coordinate(spec, _clamp_u(u2)))


# ---------------------------------------------------------------------------
# copula CDFs
# ---------------------------------------------------------------------------


def _clayton_cdf(theta: float, u1: float, u2: float) -> float:
    ln_s = _clayton_log_s(theta, np.log([u1]), np.log([u2]))
    return math.exp(-float(ln_s[0]) / theta)


def _gumbel_cdf(theta: float, u1: float, u2: float) -> float:
    la, lb = np.log(-np.log([[u1], [u2]]))
    ln_big_a = _gumbel_log_a(theta, la, lb)
    return math.exp(-math.exp(float(ln_big_a[0]) / theta))


def _log_expm1(s: float) -> float:
    """ln(e^s - 1) for s >= 0, without overflow for large s; -inf at 0."""
    if s > 1.0:
        return s + math.log1p(-math.exp(-s))
    return math.log(math.expm1(s)) if s > 0.0 else -math.inf


def _frank_cdf(theta: float, u1: float, u2: float) -> float:
    """C = -log1p(X) / theta, X = expm1(-theta u1) expm1(-theta u2) / expm1(-theta).

    For theta > 0, X lies in [-1, 0) and rounds towards -1 as theta grows;
    from X <= -1/2 on, 1 + X = e^(-theta v1) D / (1 - e^-theta), with
    v1 = min(u1, u2) and D the base of the density's denominator
    (``_frank_base``), a sum of two positive terms.  For theta < 0, X > 0
    and ln X is a sum of ln expm1 terms that stay finite for any theta.
    """
    if theta < 0.0:
        t = -theta
        ln_x = (_log_expm1(t * u1) + _log_expm1(t * u2)) - _log_expm1(t)
        # ln(1 + X) = logaddexp(0, ln X)
        return (max(ln_x, 0.0) + math.log1p(math.exp(-abs(ln_x)))) / t
    x = math.expm1(-theta * u1) * math.expm1(-theta * u2) / math.expm1(-theta)
    if x > -0.5:
        return -math.log1p(x) / theta
    _, d = _frank_base(theta, np.array([u1]), np.array([u2]))
    return min(u1, u2) - (math.log(d[0]) - math.log1p(-math.exp(-theta))) / theta


def _tanh_sinh_rule(step: float, reach: float):
    """Nodes and weights of the tanh-sinh rule on (0, 1).

    The nodes are x = 1 / (1 + e^(-pi sinh t)) at t = k * step, |t| <= reach.
    """
    t = step * np.arange(-round(reach / step), round(reach / step) + 1)
    x = 1.0 / (1.0 + np.exp(-math.pi * np.sinh(t)))
    # dx/dt = pi cosh(t) x (1 - x), and 1 - x(t) = x(-t) without cancellation
    return x, step * math.pi * np.cosh(t) * x * x[::-1]


# 151 nodes, the outermost 2.1e-14 from either end.  Step 0.04 resolves the
# conditional's step function to 3e-14 up to |rho| = 1 - 1e-6 (0.05 gives 1e-11)
_TS_NODES, _TS_WEIGHTS = _tanh_sinh_rule(0.04, 3.0)


def _conditional_integral(spec: CopulaSpec, u: float, v: float) -> float:
    """C(u, v) = integral over w in (0, u] of h(v | w), for u <= v.

    h(v | w) = dC(w, v)/dw is the conditional CDF of V given U = w in closed
    form (Aas, Czado, Frigessi & Bakken, IME 2009).  On the coordinates
    x = F^-1(w), y = F^-1(v) it is

    * Gauss: Phi((y - rho x) / sqrt(1 - rho^2))
    * t:     T_{nu+1}((y - rho x) sqrt((nu + 1) / ((nu + x^2)(1 - rho^2))))

    It lies in [0, 1], so the nodes, which stop 2.1e-14 u short of either
    end, leave out less than 4.3e-14 u.
    """
    # u times the first node underflows below u = 2.4e-310, and the t
    # quantile leaves the doubles below T_nu(-DBL_MAX) (1.8e-309 at nu = 1,
    # 2.4e-155 at nu = 0.5); the nodes below either floor read h there
    w_min = math.ulp(0.0)
    if spec.family is CopulaFamily.STUDENT_T:
        w_min = max(w_min, 2.0 * specfun.student_t_cdf(-sys.float_info.max, spec.nu))
    x = _axis_coordinate(spec, np.maximum(u * _TS_NODES, w_min))
    y = _axis_coordinate(spec, max(v, w_min))
    rho = spec.rho
    r2 = 1.0 - rho * rho
    if spec.family is CopulaFamily.GAUSS:
        h = specfun.std_normal_cdf_array((y - rho * x) / math.sqrt(r2))
    else:
        nu = spec.nu
        # hypot keeps nu + x^2 from overflowing where the quantile is huge
        arg = (y - rho * x) / np.hypot(math.sqrt(nu), x) * math.sqrt((nu + 1.0) / r2)
        h = specfun.student_t_cdf_array(arg, nu + 1.0)
    return u * float(_TS_WEIGHTS @ h)


def _elliptical_cdf(spec: CopulaSpec, u1: float, u2: float) -> float:
    """Gauss/t copula CDF as a 1-D integral of the conditional CDF h.

    With u = min(u1, u2) and v = max(u1, u2), h(v | w) steps between 0 and 1
    across x = y / rho, over a width of about sqrt(1 - rho^2).  For
    u + v <= 1 that step lies beyond w = u or just below it, where the
    tanh-sinh nodes cluster; for u + v > 1 it can fall mid-range, so
    radial symmetry, C(u, v) = u + v - 1 + C(1 - v, 1 - u), moves those
    cases below the line.  Ordering the arguments first makes
    C(u1, u2) == C(u2, u1) exactly.
    """
    u, v = min(u1, u2), max(u1, u2)
    if u + v > 1.0:
        return u + v - 1.0 + _conditional_integral(spec, 1.0 - v, 1.0 - u)
    return _conditional_integral(spec, u, v)


def copula_cdf(spec: CopulaSpec, u1: float, u2: float) -> float:
    """Copula CDF C(u1, u2) on the closed unit square."""
    if not (0.0 <= u1 <= 1.0 and 0.0 <= u2 <= 1.0):
        raise DomainError(f"copula_cdf requires u in [0, 1], got ({u1!r}, {u2!r})")
    if u1 == 0.0 or u2 == 0.0:
        return 0.0
    if u1 == 1.0:
        return u2
    if u2 == 1.0:
        return u1
    if _independent(spec):
        return u1 * u2
    fam = spec.family
    if fam is CopulaFamily.CLAYTON:
        c = _clayton_cdf(spec.theta, u1, u2)
    elif fam is CopulaFamily.GUMBEL:
        c = _gumbel_cdf(spec.theta, u1, u2)
    elif fam is CopulaFamily.FRANK:
        c = _frank_cdf(spec.theta, u1, u2)
    else:
        c = _elliptical_cdf(spec, u1, u2)
    # Frechet-Hoeffding bounds, which rounding may cross by an ulp
    return min(max(c, u1 + u2 - 1.0, 0.0), u1, u2)
