"""Copula-induced bivariate densities with standard normal margins.

The joint density is the composition c(Phi(x), Phi(y)) * phi(x) * phi(y);
one code path serves all five families, with the copula density evaluated
through the family kernels of :mod:`sumdist.copula`.

A density grid is filled in blocks of whole rows, about ``_BLOCK_CELLS``
points each.  Every block has its own kernel call, weights and underflow
floor, so each elementwise pass of a kernel works on cache-sized
temporaries; the entries are the same bits as one whole-grid pass.  The
kernels compute in place in a few block-sized arrays, and the weights of
every block share one buffer, so a block allocates little.  The block size
is set by heap residency as well as by cache: what a block frees must not
let the C allocator hand the top of the heap back to the system, or every
block faults those pages in again.

Every family is exchangeable, c(u, v) = c(v, u), and its kernel is bitwise
symmetric in its arguments, so a grid whose two axes are equal is a
symmetric matrix.  Such a grid is evaluated on its upper triangle only, and
the rest is mirrored from it; the entries are still the bits of the
whole-grid pass.  A family that is not exchangeable (a rotated copula,
say) must not take that path.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

from . import specfun
from .copula import UEPS, CopulaFamily, CopulaSpec, _axis_coordinate, _clamp_u, _density_at, _density_from_coords
from .errors import DomainError
from .grid import GridSpec

__all__ = ["joint_pdf", "joint_pdf_grid"]

# below this product of marginal densities the joint density is returned as
# exactly 0, preventing denormal noise in grid sums
_UNDERFLOW_FLOOR = 1e-300

# points per density block.  Each float64 kernel temporary (64 KiB) stays in
# cache, where a whole 400 x 400 grid does not.  The size also bounds what a
# block frees: at 16,384 points a Table 2 sweep freed enough for the C
# allocator to hand the top of the heap back to the system and fault it in
# again (270 to 3,200 minor faults per warm sweep; under 100 at 8,192).  At
# 4,096 the 400-wide rows of a refined sweep pay the per-block overhead (7%
# slower)
_BLOCK_CELLS = 8192

# the per-axis terms of the open _axis_memo block, or None
_AXIS_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("sumdist_axis_memo", default=None)


def joint_pdf(spec: CopulaSpec, x: float, y: float) -> float:
    """Density f(x, y) = c(Phi(x), Phi(y)) phi(x) phi(y) of (X, Y) with N(0,1)
    margins under the copula of ``spec``, c from a one-point block."""
    phi_product = specfun.std_normal_pdf(x) * specfun.std_normal_pdf(y)
    if phi_product < _UNDERFLOW_FLOOR:
        return 0.0
    c1 = _point_coordinate(spec, x, _clamp_u(specfun.std_normal_cdf(x)))
    c2 = _point_coordinate(spec, y, _clamp_u(specfun.std_normal_cdf(y)))
    return _density_at(spec, c1, c2) * phi_product


def _point_coordinate(spec: CopulaSpec, x, u):
    """Kernel coordinate of the normal-margin point(s) ``x``, whose clamped Phi is ``u``.

    That is ``_axis_coordinate(spec, u)``, except for the Gauss family, whose
    coordinate Phi^-1(u) is ``x`` itself wherever u is not clamped.  There
    the point is taken as is: the round trip would carry Phi's last-bit
    rounding (scalar and array Phi differ by one ulp at x = -4.75) through
    the exact quantile, and the density's slope amplifies it.  Clamped
    points keep Phi^-1(u).
    """
    if spec.family is not CopulaFamily.GAUSS:
        return _axis_coordinate(spec, u)
    inside = (u > UEPS) & (u < 1.0 - UEPS)
    if np.ndim(x):
        return np.where(inside, x, _axis_coordinate(spec, u))
    return float(x) if inside else _axis_coordinate(spec, u)


@contextlib.contextmanager
def _axis_memo():
    """Share per-axis terms and output arrays among the density grids built
    inside the block.

    An axis transformed once is reused by every later grid in the block.
    The grids of one shape are written into one array, so a grid built in
    the block holds until the next grid of its shape is built; a sweep
    reduces each grid before it builds the next, and keeps the same heap
    pages from cell to cell.  Everything is dropped when the block exits, so
    nothing is cached across calls of the library's entry points.
    """
    token = _AXIS_MEMO.set({})
    try:
        yield
    finally:
        _AXIS_MEMO.reset(token)


def _axis_terms(spec: CopulaSpec, axis: np.ndarray, memo: dict) -> tuple[np.ndarray, np.ndarray]:
    """Copula coordinate (see ``_point_coordinate``) and phi of each axis
    point, computed once per ``memo``.

    The coordinate depends on the family and nu only, never on rho or
    theta, so cells of one sweep that share them share it.
    """
    points = axis.tobytes()
    if points not in memo:
        u = _clamp_u(specfun.std_normal_cdf_array(axis))
        memo[points] = (u, specfun.std_normal_pdf_array(axis))
    key = (spec.family, spec.nu, points)
    if key not in memo:
        memo[key] = _point_coordinate(spec, axis, memo[points][0])
    return memo[key], memo[points][1]


def _grid_on_axes(spec: CopulaSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Joint density on the outer product of two axis-point arrays.

    The per-axis transforms run through the array kernels of
    :mod:`sumdist.specfun`, once per distinct axis, and inside an open
    :func:`_axis_memo` block once for all the grids built in it.  So an
    n x n grid costs at most O(n) special-function evaluations plus
    vectorized elementary operations.  The grid is built in blocks of
    ``max(1, _BLOCK_CELLS // len(ys))`` rows.  Outside such a block the
    grid is a new array; inside it, the block's array for its shape.

    When ``xs`` and ``ys`` hold the same bits, the grid is symmetric: each
    block of rows is evaluated on the columns from its first row on only,
    and the part right of its diagonal square is mirrored into the rows
    below it.  This relies on the kernels being bitwise exchangeable (see
    the module docstring); a non-exchangeable family must take the full
    path.
    """
    memo = _AXIS_MEMO.get()
    if memo is None:
        memo = {}
    c1, pdf_x = _axis_terms(spec, np.asarray(xs, dtype=float), memo)
    c2, pdf_y = _axis_terms(spec, np.asarray(ys, dtype=float), memo)
    # axes with equal bytes share their memo entries
    square = c1 is c2
    key = ("grid", c1.size, c2.size)
    if key not in memo:
        memo[key] = np.empty((c1.size, c2.size))
    out = memo[key]
    rows = max(1, _BLOCK_CELLS // max(c2.size, 1))
    # every block's weights go into one buffer
    weights = np.empty(min(rows, c1.size) * c2.size)
    for start in range(0, c1.size, rows):
        block = slice(start, start + rows)
        cols = slice(start if square else 0, None)
        target = out[block, cols]
        weight = np.multiply(pdf_x[block, None], pdf_y[None, cols], out=weights[: target.size].reshape(target.shape))
        # the kernel's result is freed before the next block's kernel runs
        np.multiply(_density_from_coords(spec, c1[block, None], c2[None, cols]), weight, out=target)
        target[weight < _UNDERFLOW_FLOOR] = 0.0
        if square:
            # the block's own square on the diagonal is filled; mirror the
            # columns right of it, which share no memory with their target
            # (numpy would copy an overlapping source first)
            right = slice(start + rows, None)
            out[right, block] = out[block, right].T
    return out


def joint_pdf_grid(spec: CopulaSpec, grid: GridSpec) -> np.ndarray:
    """Joint density over the grid lattice, x-major ascending.

    Entry ``[i][j]`` is ``joint_pdf(x_i, y_j)`` with ``x_i`` and ``y_j``
    running over the lattice points of ``grid`` (both endpoints included).
    The array is the caller's, except inside an open :func:`_axis_memo`
    block (a sweep's paper-exact cells), where it is the block's array for
    its shape.
    """
    if not isinstance(grid, GridSpec):
        raise DomainError(f"joint_pdf_grid requires a GridSpec, got {grid!r}")
    axis = grid.axis_points()
    return _grid_on_axes(spec, axis, axis)
