"""Bivariate copulas: CDFs, densities, and dependence-parameter conversions.

Five families are supported: Gauss, Student-t, Clayton, Gumbel, Frank.
Archimedean CDFs and all densities are closed forms; the Gauss/t CDFs are
evaluated by midpoint-grid integration of the corresponding bivariate
density over the quantile-mapped rectangle (the same compensated grid
machinery the sum-distribution integrator uses).

Density evaluation is routed through array-capable kernels so that grid
builders can evaluate whole lattices without per-point Python overhead; the
public scalar operations wrap the same kernels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError
from .gridquad import fsum_matrix

__all__ = [
    "CopulaFamily",
    "CopulaSpec",
    "DependenceSummary",
    "UEPS",
    "copula_cdf",
    "copula_density",
    "tau_from_pearson_rho",
    "theta_from_tau",
    "tau_from_theta",
    "summarize_dependence",
    "spec_from_rho",
]

# clamp bound for density arguments: Clayton u^(-theta) and Gumbel ln(u)
# diverge at the boundary, and the normal-margin pipeline underflows anyway
UEPS = 1e-12

# parameters within this distance of the independence value route to the
# exact independence density (avoids 0/0 in the Gumbel/Frank formulas)
_INDEP_TOL = 1e-9

_FRANK_THETA_BRACKET = (1e-6, 50.0)


class CopulaFamily(enum.Enum):
    """The five supported copula families."""

    GAUSS = "gauss"
    STUDENT_T = "t"
    CLAYTON = "clayton"
    GUMBEL = "gumbel"
    FRANK = "frank"


_ARCHIMEDEAN = frozenset({CopulaFamily.CLAYTON, CopulaFamily.GUMBEL, CopulaFamily.FRANK})
_ELLIPTICAL = frozenset({CopulaFamily.GAUSS, CopulaFamily.STUDENT_T})


@dataclass(frozen=True)
class CopulaSpec:
    """A validated copula family plus its parameters.

    Exactly the parameters relevant to the family may be set:

    * Gauss: ``rho`` in (-1, 1)
    * Student-t: ``rho`` in (-1, 1) and ``nu`` > 0
    * Clayton: ``theta`` > 0
    * Gumbel: ``theta`` >= 1
    * Frank: ``theta`` != 0
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
            elif self.nu is not None:
                raise DomainError("gauss copula takes no nu parameter")
        else:
            if self.rho is not None or self.nu is not None:
                raise DomainError(f"{fam.value} copula takes only theta, not rho/nu")
            th = self.theta
            if th is None:
                raise DomainError(f"{fam.value} copula requires theta")
            if fam is CopulaFamily.CLAYTON and not (th > 0.0):
                raise DomainError(f"clayton copula requires theta > 0, got {th!r}")
            if fam is CopulaFamily.GUMBEL and not (th >= 1.0):
                raise DomainError(f"gumbel copula requires theta >= 1, got {th!r}")
            if fam is CopulaFamily.FRANK and (th == 0.0 or not math.isfinite(th)):
                raise DomainError(f"frank copula requires finite theta != 0, got {th!r}")

    # -- convenience constructors ------------------------------------------
    @staticmethod
    def gauss(rho: float) -> "CopulaSpec":
        return CopulaSpec(CopulaFamily.GAUSS, rho=rho)

    @staticmethod
    def student_t(rho: float, nu: float = 4.0) -> "CopulaSpec":
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
        return 1.0 - 4.0 / theta * (1.0 - specfun.debye1(theta))
    raise DomainError(f"tau_from_theta is defined for Archimedean families only, got {family!r}")


def _frank_theta_from_tau(tau: float) -> float:
    """Solve tau(theta) = tau on the positive branch by secant/bisection."""
    lo, hi = _FRANK_THETA_BRACKET
    f_lo = tau_from_theta(CopulaFamily.FRANK, lo) - tau
    f_hi = tau_from_theta(CopulaFamily.FRANK, hi) - tau
    if f_lo > 0.0 or f_hi < 0.0:
        raise DomainError(
            f"frank tau {tau!r} outside the invertible range "
            f"({tau_from_theta(CopulaFamily.FRANK, lo):.3e}, {tau_from_theta(CopulaFamily.FRANK, hi):.4f})"
        )
    for _ in range(200):
        # secant proposal, safeguarded by the bracket
        denom = f_hi - f_lo
        mid = hi - f_hi * (hi - lo) / denom if denom != 0.0 else 0.5 * (lo + hi)
        if not (lo < mid < hi):
            mid = 0.5 * (lo + hi)
        f_mid = tau_from_theta(CopulaFamily.FRANK, mid) - tau
        if abs(f_mid) <= 1e-10:
            return mid
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)  # pragma: no cover - bracket always collapses


def theta_from_tau(family: CopulaFamily, tau: float) -> float:
    """Archimedean parameter theta matching a Kendall's tau target."""
    if family is CopulaFamily.CLAYTON:
        if not (0.0 < tau < 1.0):
            raise DomainError(f"clayton needs tau in (0, 1), got {tau!r}")
        return 2.0 * tau / (1.0 - tau)
    if family is CopulaFamily.GUMBEL:
        if not (0.0 < tau < 1.0):
            raise DomainError(f"gumbel needs tau in (0, 1), got {tau!r}")
        return 1.0 / (1.0 - tau)
    if family is CopulaFamily.FRANK:
        if not (-1.0 < tau < 1.0) or tau == 0.0:
            raise DomainError(f"frank needs tau in (-1, 1) \\ {{0}}, got {tau!r}")
        if tau < 0.0:
            # tau(-theta) = -tau(theta)
            return -_frank_theta_from_tau(-tau)
        return _frank_theta_from_tau(tau)
    raise DomainError(f"theta_from_tau is defined for Archimedean families only, got {family!r}")


@dataclass(frozen=True)
class DependenceSummary:
    """All dependence parameters induced by one Pearson rho."""

    pearson_rho: float
    kendall_tau: float
    theta_clayton: float
    theta_gumbel: float
    theta_frank: float


def summarize_dependence(rho: float) -> DependenceSummary:
    """Pearson rho -> Kendall tau -> Archimedean thetas, in one record."""
    tau = tau_from_pearson_rho(rho)
    if not (0.0 < tau < 1.0):
        raise DomainError(f"dependence summary needs rho in (0, 1), got rho={rho!r}")
    return DependenceSummary(
        pearson_rho=rho,
        kendall_tau=tau,
        theta_clayton=theta_from_tau(CopulaFamily.CLAYTON, tau),
        theta_gumbel=theta_from_tau(CopulaFamily.GUMBEL, tau),
        theta_frank=theta_from_tau(CopulaFamily.FRANK, tau),
    )


def spec_from_rho(family: CopulaFamily, rho: float, nu: float = 4.0) -> CopulaSpec:
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
# density kernels (array-capable; inputs already validated and clamped)
# ---------------------------------------------------------------------------


def _axis_coordinate(spec: CopulaSpec, u):
    """Per-axis transform feeding the density kernel (scalar or array ``u``).

    Arrays go through the array kernels, scalars through the scalar
    functions; both give the same bits for the same value.
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
    quad = rho * rho * (z1 * z1 + z2 * z2) - 2.0 * rho * (z1 * z2)
    return np.exp(-quad / (2.0 * r2)) / math.sqrt(r2)


def _t_kernel(rho, nu, q1, q2):
    r2 = 1.0 - rho * rho
    # log of gamma((nu+2)/2) / (gamma(nu/2) pi nu sqrt(1-rho2)); the
    # denominator constant is the squared univariate normalizer
    ln_num_c = (
        specfun.ln_gamma(0.5 * (nu + 2.0))
        - specfun.ln_gamma(0.5 * nu)
        - math.log(math.pi * nu)
        - 0.5 * math.log(r2)
    )
    ln_den_c = 2.0 * (
        specfun.ln_gamma(0.5 * (nu + 1.0)) - specfun.ln_gamma(0.5 * nu) - 0.5 * math.log(math.pi * nu)
    )
    quad = (q1 * q1 + q2 * q2 - 2.0 * rho * (q1 * q2)) / (nu * r2)
    ln_c = (
        ln_num_c
        - ln_den_c
        - 0.5 * (nu + 2.0) * np.log1p(quad)
        + 0.5 * (nu + 1.0) * (np.log1p(q1 * q1 / nu) + np.log1p(q2 * q2 / nu))
    )
    return np.exp(ln_c)


def _clayton_kernel(theta, u1, u2):
    # evaluated in log space: u^(-theta) overflows already for
    # theta ~ 50 at the clamp boundary
    a1 = -theta * np.log(u1)
    a2 = -theta * np.log(u2)
    m = np.maximum(a1, a2)
    ln_s = m + np.log(np.exp(a1 - m) + np.exp(a2 - m) - np.exp(-m))
    ln_c = (
        math.log1p(theta)
        - (1.0 + 2.0 * theta) / theta * ln_s
        - (theta + 1.0) * (np.log(u1) + np.log(u2))
    )
    return np.exp(ln_c)


def _gumbel_kernel(theta, u1, u2):
    a = -np.log(u1)
    b = -np.log(u2)
    la = np.log(a)
    lb = np.log(b)
    m = np.maximum(theta * la, theta * lb)
    ln_big_a = m + np.log(np.exp(theta * la - m) + np.exp(theta * lb - m))
    ln_sigma = ln_big_a / theta
    sigma = np.exp(ln_sigma)
    ln_c = (
        -sigma
        + ln_sigma
        + np.log(theta - 1.0 + sigma)
        + (theta - 1.0) * (la + lb)
        - 2.0 * ln_big_a
        + (a + b)
    )
    return np.exp(ln_c)


def _frank_kernel(theta, u1, u2):
    # combined form of the two-term density: -theta g e^(-theta(u1+u2)) /
    # (g + g1 g2)^2 with g = e^(-theta) - 1, g_i = e^(-theta u_i) - 1.
    # Frank is radially symmetric, c(u1, u2) = c(1-u1, 1-u2); evaluating on
    # the u1 + u2 <= 1 side keeps g + g1 g2 away from its large-theta
    # cancellation near the upper corner.
    reflect = u1 + u2 > 1.0
    v1 = np.where(reflect, 1.0 - u1, u1)
    v2 = np.where(reflect, 1.0 - u2, u2)
    g = math.expm1(-theta)
    g1 = np.expm1(-theta * v1)
    g2 = np.expm1(-theta * v2)
    denom = g + g1 * g2
    return -theta * g * np.exp(-theta * (v1 + v2)) / (denom * denom)


def _density_from_coords(spec: CopulaSpec, c1, c2):
    """Density kernel on transformed coordinates (scalars or arrays)."""
    fam = spec.family
    if fam is CopulaFamily.GAUSS:
        return _gauss_kernel(spec.rho, c1, c2)
    if fam is CopulaFamily.STUDENT_T:
        return _t_kernel(spec.rho, spec.nu, c1, c2)
    if fam is CopulaFamily.CLAYTON:
        return _clayton_kernel(spec.theta, c1, c2)
    if fam is CopulaFamily.GUMBEL:
        if abs(spec.theta - 1.0) <= _INDEP_TOL:
            return np.ones_like(np.asarray(c1 * c2, dtype=float))
        return _gumbel_kernel(spec.theta, c1, c2)
    if abs(spec.theta) <= _INDEP_TOL:
        return np.ones_like(np.asarray(c1 * c2, dtype=float))
    return _frank_kernel(spec.theta, c1, c2)


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
    u1 = _clamp_u(u1)
    u2 = _clamp_u(u2)
    c1 = _axis_coordinate(spec, u1)
    c2 = _axis_coordinate(spec, u2)
    return float(_density_from_coords(spec, c1, c2))


# ---------------------------------------------------------------------------
# copula CDFs
# ---------------------------------------------------------------------------


def _clayton_cdf(theta: float, u1: float, u2: float) -> float:
    a1 = -theta * math.log(u1)
    a2 = -theta * math.log(u2)
    m = max(a1, a2)
    ln_s = m + math.log(math.exp(a1 - m) + math.exp(a2 - m) - math.exp(-m))
    return math.exp(-ln_s / theta)


def _gumbel_cdf(theta: float, u1: float, u2: float) -> float:
    la = math.log(-math.log(u1))
    lb = math.log(-math.log(u2))
    m = max(theta * la, theta * lb)
    ln_big_a = m + math.log(math.exp(theta * la - m) + math.exp(theta * lb - m))
    return math.exp(-math.exp(ln_big_a / theta))


def _frank_cdf(theta: float, u1: float, u2: float) -> float:
    if abs(theta) <= _INDEP_TOL:
        return u1 * u2
    if u1 + u2 > 1.0:
        # survival identity of the radially symmetric Frank copula; avoids
        # cancellation near (1, 1) for large theta
        return u1 + u2 - 1.0 + _frank_cdf(theta, 1.0 - u1, 1.0 - u2)
    g = math.expm1(-theta)
    return -math.log1p(math.expm1(-theta * u1) * math.expm1(-theta * u2) / g) / theta


# integrand mass below this marginal probability is ignored when truncating
# the elliptical quadrature domain
_ELLIPTICAL_TAIL = 1e-8
_GAUSS_BOUND = 8.5
_T_BOUND_CAP = 150.0
_ELLIPTICAL_TARGET_STEP = 0.025
_ELLIPTICAL_MAX_CELLS = 2000


def _elliptical_cdf(spec: CopulaSpec, u1: float, u2: float) -> float:
    """Gauss/t copula CDF by midpoint integration of the bivariate density
    over (-infty, quantile]^2, truncated to a finite square.

    Two midpoint passes at h and h/2 are Richardson-combined, removing the
    leading h^2 error term.  For the t family the truncation bound follows
    the nu-dependent tail quantile but is capped; below nu ~ 2 the cap limits
    absolute accuracy to about 1e-3 (heavy tails cannot be covered by a
    uniform grid).
    """
    if spec.family is CopulaFamily.GAUSS:
        lower = -_GAUSS_BOUND
        a = specfun.std_normal_inv_cdf(u1)
        b = specfun.std_normal_inv_cdf(u2)
    else:
        lower = max(specfun.student_t_inv_cdf(_ELLIPTICAL_TAIL, spec.nu), -_T_BOUND_CAP)
        a = specfun.student_t_inv_cdf(u1, spec.nu)
        b = specfun.student_t_inv_cdf(u2, spec.nu)
    upper = -lower
    a = min(a, upper)
    b = min(b, upper)
    if a <= lower or b <= lower:
        return 0.0

    rho = spec.rho
    r2 = 1.0 - rho * rho
    if spec.family is CopulaFamily.GAUSS:
        ln_c = -math.log(2.0 * math.pi) - 0.5 * math.log(r2)
    else:
        nu = spec.nu
        ln_c = (
            specfun.ln_gamma(0.5 * (nu + 2.0))
            - specfun.ln_gamma(0.5 * nu)
            - math.log(math.pi * nu)
            - 0.5 * math.log(r2)
        )

    def mass(nx: int, ny: int) -> float:
        hx = (a - lower) / nx
        hy = (b - lower) / ny
        x = (lower + hx * (np.arange(nx) + 0.5))[:, None]
        y = (lower + hy * (np.arange(ny) + 0.5))[None, :]
        quad = x * x + y * y - 2.0 * rho * (x * y)
        if spec.family is CopulaFamily.GAUSS:
            dens = np.exp(ln_c - quad / (2.0 * r2))
        else:
            dens = np.exp(ln_c - 0.5 * (spec.nu + 2.0) * np.log1p(quad / (spec.nu * r2)))
        return fsum_matrix(dens) * hx * hy

    def cells(limit: float) -> int:
        n = int(math.ceil((limit - lower) / _ELLIPTICAL_TARGET_STEP))
        return min(max(n, 100), _ELLIPTICAL_MAX_CELLS)

    nx, ny = cells(a), cells(b)
    coarse = mass(nx, ny)
    fine = mass(2 * nx, 2 * ny)
    return min((4.0 * fine - coarse) / 3.0, 1.0)


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
    fam = spec.family
    if fam is CopulaFamily.CLAYTON:
        return _clayton_cdf(spec.theta, u1, u2)
    if fam is CopulaFamily.GUMBEL:
        return _gumbel_cdf(spec.theta, u1, u2)
    if fam is CopulaFamily.FRANK:
        return _frank_cdf(spec.theta, u1, u2)
    return _elliptical_cdf(spec, u1, u2)
