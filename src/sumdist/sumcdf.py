"""Distribution of Z = X + Y by double integration over the truncated square.

Two integration modes are provided:

* ``PAPER_EXACT`` replicates the reference lattice algorithm verbatim: the
  density is evaluated at lattice points, each inner column sums every
  lattice point up to and including the boundary y = z - x (saturating at
  the lattice ends), and every point carries the full cell weight.  The
  convention has an O(step) bias but reproduces the reference quantile
  tables on their own grid.

* ``REFINED`` integrates cell midpoints over whole cells below the boundary
  line, plus the lower-left triangle of each cell the line crosses, for
  second-order convergence.  It builds one grid, at the cell centers, with
  anti-diagonal sums D_k.  A triangle's centroid lies (s/6, s/6) below and
  left of its cell center, and central differences along the diagonals give
  the gradient there, so the crossed diagonal k holds
  s^2 [D_k/2 - (D_{k+1} - D_{k-1})/12] (D = 0 off the square), kept within
  [0, s^2 D_k] where the density outruns that linear term (an under-resolved
  tail, as Gauss rho = -0.99 at step 0.05); no Table 2 cell reaches either end.

Every family's kernel is bitwise exchangeable, so a grid with equal axes
(paper-exact's lattice, refined's cell centers) is symmetric, and the
density layer evaluates its upper triangle only (:mod:`sumdist.jointdensity`).

Both modes reduce their density grid to its anti-diagonal sums (the
boundary line is an anti-diagonal) and accumulate them in ascending order;
paper-exact mode adds the lower saturation, a suffix sum of the column y_0.
Every sum is a plain recursive sum in a fixed order, so tables are bitwise
reproducible; its rounding error, at most (n - 1) u of the summed mass for
n terms, is far below the lattice error of either mode.  The anti-diagonal
sums take the rows in blocks, each added in one numpy reduction that keeps
the ascending row order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .copula import DEFAULT_NU, CopulaFamily, CopulaSpec, spec_from_rho
from .errors import DomainError
from .errors import QuantileOutOfRange  # a DomainError: callers catch the root type
from .grid import GridSpec, PAPER_GRID
from .jointdensity import joint_pdf_grid, _axis_memo, _grid_on_axes

__all__ = [
    "TableMode",
    "DistributionTable",
    "QuantileReport",
    "cdf_paper_exact",
    "cdf_refined",
    "integrators",
    "quantile",
    "quantile_sweep",
    "TABLE2_RHOS",
]

TABLE2_RHOS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)


class TableMode(enum.Enum):
    PAPER_EXACT = "paper-exact"
    REFINED = "refined"
    # produced by the sampling oracle, not by an integration routine
    EMPIRICAL = "empirical"


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """(z, F(z)) pairs plus the configuration that produced them.

    A producer gives only ``raw_F_values``, its unclamped sums, which must
    be finite and within [-1e-12, 1 + 1e-6].  ``F_values`` is derived from
    them: clamped below at 0, made nondecreasing by a running maximum, and
    capped at 1.
    """

    z_values: np.ndarray
    raw_F_values: np.ndarray
    spec: CopulaSpec
    mode: TableMode
    grid: GridSpec | None = None
    F_values: np.ndarray = field(init=False)

    def __post_init__(self):
        z = np.asarray(self.z_values, dtype=float)
        raw = np.asarray(self.raw_F_values, dtype=float)
        if z.ndim != 1 or z.shape != raw.shape:
            raise DomainError("z_values and raw_F_values must be 1-D and equally long")
        if z.size < 1 or not np.all(np.diff(z) > 0.0):
            raise DomainError("z_values must be nonempty and strictly ascending")
        if not np.all(np.isfinite(raw)):
            k = int(np.argmin(np.isfinite(raw)))
            raise DomainError(
                f"raw F={float(raw[k])!r} at z={float(z[k])!r} in the {_label(self.spec, self.mode)}: "
                "the density is not finite somewhere on the grid"
            )
        low, high = int(np.argmin(raw)), int(np.argmax(raw))
        if raw[low] < -1e-12 or raw[high] > 1.0 + 1e-6:
            over, under = float(raw[high]) - 1.0, -float(raw[low])
            k, miss, edge = (high, over, 1) if over >= under else (low, under, 0)
            raise DomainError(
                f"raw F values outside [0, 1 + 1e-6] in the {_label(self.spec, self.mode)}: "
                f"F={float(raw[k])!r} at z={float(z[k])!r}, {miss:.3g} beyond {edge} "
                "(a finer grid step shrinks the lattice error)"
            )
        f = np.minimum(np.maximum.accumulate(np.maximum(raw, 0.0)), 1.0)
        for arr in (z, raw, f):
            arr.setflags(write=False)
        object.__setattr__(self, "z_values", z)
        object.__setattr__(self, "raw_F_values", raw)
        object.__setattr__(self, "F_values", f)


def _label(spec: CopulaSpec, mode: TableMode) -> str:
    """'clayton (theta=4.96...) paper-exact table', for error messages."""
    params = ", ".join(f"{k}={v!r}" for k, v in spec.describe().items() if k != "family")
    return f"{spec.family.value} ({params}) {mode.value} table"


# entries per block of rows in antidiagonal_sums: its skewed buffer, under
# 80 KB, stays in cache and, allocated once per call, below the size the C
# allocator maps fresh from the system (128 KiB by default), so it reuses
# resident heap as the density blocks do
_REDUCE_CELLS = 8192


def antidiagonal_sums(matrix: np.ndarray) -> np.ndarray:
    """Sums over the anti-diagonals i + j = s of a square matrix, s = 0 .. 2n-2.

    Each entry is the recursive sum of its diagonal in ascending row order,
    starting from 0.  The rows are taken in blocks of ``r`` (about
    ``_REDUCE_CELLS`` entries): a block is copied into a buffer of r + 1
    rows, skewed so that its row k starts k columns in and padded with
    zeros, below a first row holding the running sums of the diagonals it
    touches.  Reducing that buffer along axis 0 adds its rows in ascending
    order, and the zeros around the skew leave a sum unchanged, as a running
    sum is never -0.  One buffer, allocated per call, serves every block.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"antidiagonal_sums expects a square matrix with n >= 1, got shape {m.shape}")
    n = m.shape[0]
    out = np.zeros(2 * n - 1)
    rows = min(n, max(1, _REDUCE_CELLS // n))
    # one flat buffer for every block: its first (r + 1) * width entries are
    # the rows of the reduction, and its entries from width on, read with a
    # row stride of width + 1, hold the skewed block
    flat = np.empty((rows + 1) * (n + rows - 1) + rows)
    for start in range(0, n, rows):
        r = min(rows, n - start)
        width = n + r - 1
        buffer = flat[: (r + 1) * width].reshape(r + 1, width)
        skew = flat[width : (r + 1) * width + r].reshape(r, width + 1)
        buffer[0] = out[start : start + width]
        skew[:, :n] = m[start : start + r]
        skew[:, n:] = 0.0
        np.add.reduce(buffer, axis=0, out=out[start : start + width])
    return out


def cdf_paper_exact(spec: CopulaSpec, grid: GridSpec = PAPER_GRID) -> DistributionTable:
    """F_Z by the verbatim lattice algorithm (see module docstring)."""
    dens = joint_pdf_grid(spec, grid)
    n = grid.n_cells  # lattice has n + 1 points per axis
    # column x_i sums y_j for j <= m - i, where z = -2h + m*step, saturated at
    # the lattice ends; the lower saturation still keeps the point j = 0.  So
    # F(z_m) = sum_{i+j <= m} d[i, j] + sum_{i > m} d[i, 0]
    below = np.concatenate(([0.0], np.cumsum(antidiagonal_sums(dens))))
    saturated = np.concatenate((np.cumsum(dens[::-1, 0])[::-1], [0.0]))
    zs = grid.z_values()
    m_z = grid.z_lattice_indices()
    raw = below[np.clip(m_z, -1, 2 * n) + 1] + saturated[np.clip(m_z + 1, 0, n + 1)]
    raw = raw * grid.step * grid.step
    return DistributionTable(z_values=zs, raw_F_values=raw, spec=spec, mode=TableMode.PAPER_EXACT, grid=grid)


def cdf_refined(spec: CopulaSpec, grid: GridSpec = PAPER_GRID) -> DistributionTable:
    """F_Z by midpoint cells plus centroid-rule triangles on the boundary cells."""
    n = grid.n_cells
    mids = grid.cell_midpoints()
    diag = antidiagonal_sums(_grid_on_axes(spec, mids, mids))
    # cells with i + j <= m - 2 lie fully below the line y = z - x; cells
    # with i + j == m - 1 are crossed corner-to-corner and keep their
    # lower-left triangle (module docstring).  Both are padded with a zero
    # for the lines below the square, and tri also above it
    full = np.concatenate(([0.0], np.cumsum(diag)))
    padded = np.concatenate(([0.0], diag, [0.0]))
    tri = np.clip(diag / 2.0 - (padded[2:] - padded[:-2]) / 12.0, 0.0, diag)
    tri = np.concatenate(([0.0], tri, [0.0]))
    zs = grid.z_values()
    m_z = grid.z_lattice_indices()
    raw = (full[np.clip(m_z - 1, 0, 2 * n - 1)] + tri[np.clip(m_z, 0, 2 * n)]) * grid.step * grid.step
    return DistributionTable(z_values=zs, raw_F_values=raw, spec=spec, mode=TableMode.REFINED, grid=grid)


def quantile(table: DistributionTable, q: float) -> float:
    """Quantile of the tabulated distribution.

    Lattice modes (paper-exact, empirical) return the smallest tabulated z
    with F(z) >= q; refined mode interpolates linearly between the
    bracketing points.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"quantile requires q in (0, 1), got {q!r}")
    f = table.F_values
    z = table.z_values
    if q <= f[0] or q > f[-1]:
        below = q <= f[0]
        miss = float(f[0] - q if below else q - f[-1])
        raise QuantileOutOfRange(
            f"q={q!r} not bracketed by the {_label(table.spec, table.mode)}: "
            f"F range [{float(f[0])!r}, {float(f[-1])!r}] on z in [{float(z[0])!r}, {float(z[-1])!r}], "
            f"q lies {miss:.3g} {'below' if below else 'above'} it (widen the z range)"
        )
    k = int(np.searchsorted(f, q, side="left"))
    if table.mode is TableMode.REFINED:
        f0, f1 = f[k - 1], f[k]
        return float(z[k - 1] + (q - f0) * (z[k] - z[k - 1]) / (f1 - f0))
    return float(z[k])


@dataclass(frozen=True)
class QuantileReport:
    """Quantiles of F_Z for one correlation level across copula families."""

    rho: float
    qs: tuple[float, ...]
    values: Mapping[str, tuple[float, ...]]  # family tag -> quantiles, aligned with qs

    def __post_init__(self):
        for fam, vals in self.values.items():
            if len(vals) != len(self.qs):
                raise DomainError(f"{fam}: got {len(vals)} quantiles for {len(self.qs)} levels")
            # lattice quantiles of close levels can coincide
            if any(b < a for a, b in zip(vals, vals[1:])):
                raise DomainError(f"{fam}: quantiles must not decrease as the level rises, got {vals!r}")


def integrators() -> dict[TableMode, Callable[[CopulaSpec, GridSpec], DistributionTable]]:
    """The F_Z routine of each integration mode, read from the module on each
    call, so that a wrapper set on ``cdf_paper_exact`` or ``cdf_refined`` is used."""
    return {TableMode.PAPER_EXACT: cdf_paper_exact, TableMode.REFINED: cdf_refined}


def _sweep_cell(
    family: CopulaFamily, rho: float, qs: Sequence[float], nu: float, grid: GridSpec, mode: TableMode
) -> tuple[float, ...]:
    spec = spec_from_rho(family, rho, nu)
    integrate = integrators().get(mode)
    if integrate is None:
        raise DomainError(f"sweep mode must be an integration mode, got {mode!r}")
    table = integrate(spec, grid)
    return tuple(quantile(table, q) for q in qs)


def quantile_sweep(
    families: Sequence[CopulaFamily],
    rhos: Sequence[float],
    qs: Sequence[float] = (0.95, 0.99),
    nu: float = DEFAULT_NU,
    grid: GridSpec = PAPER_GRID,
    mode: TableMode = TableMode.PAPER_EXACT,
) -> list[QuantileReport]:
    """Quantile matrix over (family, rho) cells.

    Archimedean parameters are derived from each rho through the rank
    correlation pipeline (rho -> tau -> theta).  The cells share each
    lattice axis's normal terms and copula coordinates for the duration of
    the call.
    """
    families = list(families)
    rhos = [float(r) for r in rhos]
    qs = tuple(sorted(float(q) for q in qs))
    for r in rhos:
        if not (0.0 < r < 1.0):
            raise DomainError(f"sweep rho values must lie in (0, 1), got {r!r}")
    reports = []
    with _axis_memo():
        for rho in rhos:
            values = {fam.value: _sweep_cell(fam, rho, qs, nu, grid, mode) for fam in families}
            reports.append(QuantileReport(rho=rho, qs=qs, values=values))
    return reports
