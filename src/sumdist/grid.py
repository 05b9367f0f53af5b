"""Discretization parameters for the truncated integration domain."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["GridSpec", "PAPER_GRID"]

_LATTICE_TOL = 1e-9

# Size limits, checked from the counts before any array exists.  A density
# grid holds (n_cells + 1)^2 float64 values: 2^13 cells per axis make 0.54 GB,
# where the step 1e-4 on [-5, 5] would ask for 80 GB.  The table holds one F
# per z, and a z array of 2^24 values is 134 MB.  The finest grids the tests
# and the benchmark run (step 0.025: 400 cells, 401 z values) sit far below both.
_MAX_CELLS = 2**13
_MAX_Z_VALUES = 2**24


@dataclass(frozen=True)
class GridSpec:
    """Square truncation domain [-half_width, half_width]^2 with uniform step.

    Defaults reproduce the reference configuration: a 10 x 10 square with
    step 0.05 and the same lattice for the sum variable z.
    """

    half_width: float = 5.0
    step: float = 0.05
    z_min: float = -5.0
    z_max: float = 5.0
    z_step: float = 0.05

    def __post_init__(self):
        if not self.step > 0.0:
            raise DomainError(f"step must be positive, got {self.step!r}")
        if not self.half_width > 0.0:
            raise DomainError(f"half_width must be positive, got {self.half_width!r}")
        ratio = self.half_width / self.step
        if not 2.0 * ratio < _MAX_CELLS + 0.5:  # also where the ratio overflows to inf
            raise DomainError(f"half_width and step give {2.0 * ratio:.6g} cells per axis, above the limit of {_MAX_CELLS}")
        if abs(ratio - round(ratio)) > _LATTICE_TOL:
            raise DomainError(
                f"half_width/step = {ratio!r} must be an integer so the lattice closes exactly"
            )
        if round(ratio) < 1:
            raise DomainError(
                f"half_width/step = {ratio!r} rounds to 0: the lattice needs at least one cell on each side of 0"
            )
        if not self.z_min < self.z_max:
            raise DomainError(f"need z_min < z_max, got {self.z_min!r} >= {self.z_max!r}")
        if not self.z_step > 0.0:
            raise DomainError(f"z_step must be positive, got {self.z_step!r}")
        z_steps = (self.z_max - self.z_min) / self.z_step  # inf where the range overflows
        if not z_steps + _LATTICE_TOL < _MAX_Z_VALUES:
            count = self._z_count() if math.isfinite(z_steps) else math.inf
            raise DomainError(f"z_min, z_max and z_step give {count} z values, above the limit of {_MAX_Z_VALUES}")

    @property
    def n_cells(self) -> int:
        """Number of cells per axis (lattice has n_cells + 1 points)."""
        return int(round(2.0 * self.half_width / self.step))

    def axis_points(self) -> np.ndarray:
        """Lattice points -h, -h + step, ..., h (both endpoints included)."""
        return -self.half_width + self.step * np.arange(self.n_cells + 1)

    def cell_midpoints(self) -> np.ndarray:
        return -self.half_width + self.step * (np.arange(self.n_cells) + 0.5)

    def _z_count(self) -> int:
        return math.floor((self.z_max - self.z_min) / self.z_step + _LATTICE_TOL) + 1

    def z_values(self) -> np.ndarray:
        """z_min, z_min + z_step, ..., up to z_max and never beyond it."""
        return self.z_min + self.z_step * np.arange(self._z_count())

    def z_lattice_indices(self) -> np.ndarray:
        """Each z as an integer multiple of step above -2*half_width.

        Both integration modes rely on the boundary line y = z - x passing
        exactly through lattice points, which requires (z + 2h)/step to be an
        integer for every z in the grid.  The first two z are checked before
        the z array is built: they carry the offset z_min and the stride
        z_step, so a grid off the lattice is mostly rejected at no cost in
        memory.  They are computed as ``z_values`` computes them, so the same
        grids pass, and the error names the first z off the lattice either
        way.  A stride so small that z_min + z_step rounds back to z_min
        passes that check, so z_step/step must also be a positive integer
        wherever there is a second z.
        """
        count = self._z_count()
        self._lattice_indices(self.z_min + self.z_step * np.arange(min(2, count)))
        ratio = self.z_step / self.step
        on_lattice = 0.5 <= ratio < math.inf and abs(ratio - round(ratio)) <= _LATTICE_TOL * ratio
        if count > 1 and not on_lattice:
            raise DomainError(f"z_step/step = {ratio!r} must be a positive integer so every z stays on the x/y lattice")
        return self._lattice_indices(self.z_values())

    def _lattice_indices(self, zs: np.ndarray) -> np.ndarray:
        ratio = (zs + 2.0 * self.half_width) / self.step
        m = np.rint(ratio)
        off = np.abs(ratio - m) > _LATTICE_TOL * np.maximum(1.0, np.abs(m))
        if off.any():
            raise DomainError(
                "z values must be commensurate with the x/y lattice: "
                f"(z + 2*half_width)/step must be integral, got offender near z={float(zs[np.argmax(off)])!r}"
            )
        return m.astype(int)


PAPER_GRID = GridSpec()
