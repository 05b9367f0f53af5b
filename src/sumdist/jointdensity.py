"""Copula-induced bivariate densities with standard normal margins.

The joint density is the composition c(Phi(x), Phi(y)) * phi(x) * phi(y);
one code path serves all five families, with the copula density evaluated
through the family kernels of :mod:`sumdist.copula`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import specfun
from .copula import CopulaSpec, _axis_coordinate, _clamp_u, _density_from_coords
from .errors import DomainError
from .grid import GridSpec

__all__ = ["JointDensityModel", "joint_pdf", "joint_pdf_grid"]

# below this product of marginal densities the joint density is returned as
# exactly 0, preventing denormal noise in grid sums
_UNDERFLOW_FLOOR = 1e-300


@dataclass(frozen=True)
class JointDensityModel:
    """Joint density of (X, Y) with N(0,1) margins under a given copula."""

    spec: CopulaSpec


def joint_pdf(model: JointDensityModel, x: float, y: float) -> float:
    """Density f(x, y) = c(Phi(x), Phi(y)) phi(x) phi(y)."""
    phi_product = specfun.std_normal_pdf(x) * specfun.std_normal_pdf(y)
    if phi_product < _UNDERFLOW_FLOOR:
        return 0.0
    spec = model.spec
    c1 = _axis_coordinate(spec, _clamp_u(specfun.std_normal_cdf(x)))
    c2 = _axis_coordinate(spec, _clamp_u(specfun.std_normal_cdf(y)))
    return float(_density_from_coords(spec, c1, c2)) * phi_product


def _grid_on_axes(model: JointDensityModel, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Joint density on the outer product of two axis-point arrays.

    The per-axis transforms run once per axis through the array kernels of
    :mod:`sumdist.specfun`, so an n x n grid costs O(n) special-function
    evaluations plus vectorized elementary operations.
    """
    spec = model.spec
    c1 = _axis_coordinate(spec, _clamp_u(specfun.std_normal_cdf_array(xs)))[:, None]
    c2 = _axis_coordinate(spec, _clamp_u(specfun.std_normal_cdf_array(ys)))[None, :]
    dens = np.asarray(_density_from_coords(spec, c1, c2), dtype=float)
    weight = np.outer(specfun.std_normal_pdf_array(xs), specfun.std_normal_pdf_array(ys))
    out = dens * weight
    out[weight < _UNDERFLOW_FLOOR] = 0.0
    return out


def joint_pdf_grid(model: JointDensityModel, grid: GridSpec) -> np.ndarray:
    """Joint density over the grid lattice, x-major ascending.

    Entry ``[i][j]`` is ``joint_pdf(x_i, y_j)`` with ``x_i`` and ``y_j``
    running over the lattice points of ``grid`` (both endpoints included).
    """
    if not isinstance(grid, GridSpec):
        raise DomainError(f"joint_pdf_grid requires a GridSpec, got {grid!r}")
    axis = grid.axis_points()
    return _grid_on_axes(model, axis, axis)
