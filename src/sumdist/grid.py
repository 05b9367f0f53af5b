"""Discretization parameters for the truncated integration domain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["GridSpec", "PAPER_GRID"]

_LATTICE_TOL = 1e-9


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

    @property
    def n_cells(self) -> int:
        """Number of cells per axis (lattice has n_cells + 1 points)."""
        return int(round(2.0 * self.half_width / self.step))

    def axis_points(self) -> np.ndarray:
        """Lattice points -h, -h + step, ..., h (both endpoints included)."""
        return -self.half_width + self.step * np.arange(self.n_cells + 1)

    def cell_midpoints(self) -> np.ndarray:
        return -self.half_width + self.step * (np.arange(self.n_cells) + 0.5)

    def z_values(self) -> np.ndarray:
        count = int(round((self.z_max - self.z_min) / self.z_step)) + 1
        return self.z_min + self.z_step * np.arange(count)

    def z_lattice_indices(self) -> np.ndarray:
        """Each z as an integer multiple of step above -2*half_width.

        Both integration modes rely on the boundary line y = z - x passing
        exactly through lattice points, which requires (z + 2h)/step to be an
        integer for every z in the grid.
        """
        zs = self.z_values()
        ratio = (zs + 2.0 * self.half_width) / self.step
        m = np.rint(ratio)
        if np.any(np.abs(ratio - m) > _LATTICE_TOL * np.maximum(1.0, np.abs(m))):
            raise DomainError(
                "z values must be commensurate with the x/y lattice: "
                f"(z + 2*half_width)/step must be integral, got offender near z={float(zs[np.argmax(np.abs(ratio - m))])!r}"
            )
        return m.astype(int)


PAPER_GRID = GridSpec()
