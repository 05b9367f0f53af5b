"""Command-line front-end: distributions, quantiles, density grids, samples.

Artifacts are written atomically (temp file + rename) as CSV or JSON; every
artifact embeds the full configuration needed to regenerate it (family,
parameters, grid, mode, seed, version).  A one-line summary with a SHA-256
checksum of the output bytes goes to standard output.

CSV floats are written as ``%.17g``, byte for byte, but formatted in numpy
rather than by one Python call per value (see ``csvwriter``).

The parser is the standard library's ``argparse``, so a run imports no
package but numpy.  Importing this module loads only ``copula``, ``specfun``
and ``errors``; each command imports the rest of what it runs when it runs:
the integration modules (``grid``, ``jointdensity``, ``sumcdf``) for
``dist``, ``quantile``, ``density`` and the sweeps, the sampler for
``sample``, and the CSV writer for CSV output.

``run`` is the process entry of the ``sumdist`` script and of ``python -m
sumdist.cli``: it calls ``main`` and then freezes the garbage collector's
heap, so that the collections of interpreter shutdown skip the objects the
operating system is about to reclaim anyway.  ``main`` itself never freezes,
so an in-process call leaves the collector as it found it.

Exit codes: 2 for flag/validation errors, whose message names the flag, 1 for
numerical failures (for example a quantile level the table does not bracket).
Either prints ``Error: <message>`` to standard error.  Only a check that names
a flag makes a ``DomainError`` a usage error; ``main`` reports any other.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import sys
import tempfile
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .copula import DEFAULT_NU, CopulaFamily, CopulaSpec, spec_from_rho
from .errors import DomainError

if TYPE_CHECKING:  # the commands that build a grid import it when they run
    from .grid import GridSpec

_FAMILIES = {f.value: f for f in CopulaFamily}
# the values of the ``sumcdf.TableMode`` members that ``sumcdf.integrators``
# serves, the default first: listed here so the parser loads no integration code
_MODES = ("paper-exact", "refined")


class CommandError(Exception):
    """A numerical failure: exit status 1."""
    exit_code = 1


class UsageError(CommandError):
    """An invalid flag, or combination of flags: exit status 2."""
    exit_code = 2


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that raises ``UsageError`` instead of exiting.  Help is ``--help``
    alone, options are never abbreviated, and ``-1e15``, ``-.5`` or ``-inf`` is a value."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def parse_args(self, args=None, namespace=None):
        namespace, extra = self.parse_known_args(args, namespace)
        if extra:
            raise UsageError(f"No such option: {extra[0].split('=')[0]}" if extra[0][0] == "-" else f"Got unexpected extra argument ({extra[0]})")
        return namespace

    def error(self, message):
        raise UsageError(message)


def _build_spec(copula: str, rho: float | None, theta: float | None, nu: float | None) -> CopulaSpec:
    family = _FAMILIES[copula]
    if family in (CopulaFamily.GAUSS, CopulaFamily.STUDENT_T):
        if theta is not None:
            raise UsageError(f"--theta is not a {copula} copula parameter")
        if rho is None:
            raise UsageError(f"--rho is required for the {copula} copula")
        if family is CopulaFamily.GAUSS and nu is not None:
            raise UsageError("--nu applies to the t copula only")
    else:
        # Archimedean: exactly one of --theta / --rho (the latter via the rank-correlation pipeline)
        if nu is not None:
            raise UsageError("--nu applies to the t copula only")
        if (rho is None) == (theta is None):
            raise UsageError(f"{copula} copula needs exactly one of --rho or --theta")
    if family is CopulaFamily.GAUSS:
        return _flagged("--rho", CopulaSpec.gauss, rho)
    if family is CopulaFamily.STUDENT_T:
        # rho first, beside a valid nu, so that each error names its own flag
        _flagged("--rho", CopulaSpec.student_t, rho)
        return _flagged("--nu", CopulaSpec.student_t, rho, DEFAULT_NU if nu is None else nu)
    if theta is not None:
        return _flagged("--theta", CopulaSpec, family, theta=theta)
    return _flagged("--rho", spec_from_rho, family, rho)


def _flagged(flag: str, build, *args, **kwargs) -> CopulaSpec:
    """``build(*args, **kwargs)``, with a ``DomainError`` as a usage error that names ``flag``."""
    try:
        return build(*args, **kwargs)
    except DomainError as exc:
        raise UsageError(f"Invalid value for '{flag}': {exc}")


def _build_grid(half_width, step, z_min, z_max, z_step) -> GridSpec:
    """The grid of the flags, with every z on the x/y lattice, as the integration modes need."""
    from .grid import GridSpec

    try:
        grid = GridSpec(half_width=half_width, step=step, z_min=z_min, z_max=z_max, z_step=z_step)
        grid.z_lattice_indices()
        return grid
    except DomainError as exc:
        raise UsageError(f"invalid grid: {exc}")


def _output_path(path: str) -> str:
    """An ``--output`` that is no directory or read-only file, in a directory that takes the
    temp file and the rename: checked as the flags are parsed, before any table is built."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise argparse.ArgumentTypeError(f"{path!r} is not writable")
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"{path!r} is not in an existing directory")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"{path!r} is in a directory that is not writable")
    return path


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _unit_interval(flag: str, values: Sequence[float]) -> tuple[float, ...]:
    for v in values:
        if not (0.0 < v < 1.0):
            raise UsageError(f"Invalid value for {flag!r}: values must lie in (0, 1), got {v!r}")
    return tuple(values)


def _serialize(meta: dict, columns: dict, fmt: str) -> Iterator[bytes]:
    """The artifact's bytes, in blocks.  CSV: '# meta: {...}' comment, header
    row, then data rows; JSON: object with 'meta' and 'data'.  Both
    round-trip losslessly.

    Columns are lists or numpy arrays.  In CSV, a float64 array or a column
    that holds only floats is written as ``%.17g`` of each value, any other
    column as ``%.17g`` of its floats and ``str`` of its other values.  The
    bytes are exactly those of ``%.17g`` applied to one value at a time, but
    ``csvwriter`` formats the floats in numpy, a block of rows at a time.
    JSON is one block.
    """
    if fmt == "json":
        data = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in columns.items()}
        payload = {"meta": meta, "data": data}
        return iter([(json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()])
    from .csvwriter import csv_blocks  # only CSV output needs it; kept out of the CLI import

    return csv_blocks(meta, columns)


def _write_artifact(blocks: Iterable[bytes], path: str) -> str:
    """Write the byte blocks to ``path`` as they come, through a temp file
    and a rename, and return the SHA-256 of their concatenation."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    digest = hashlib.sha256()
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sumdist-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for block in blocks:
                digest.update(block)
                handle.write(block)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def _emit(meta: dict, columns: dict, fmt: str, output: str | None, default_name: str) -> None:
    path = output or f"{default_name}.{fmt}"
    digest = _write_artifact(_serialize(meta, columns, fmt), path)
    brief = " ".join(f"{k}={v}" for k, v in meta.items() if k not in ("version", "command"))
    print(f"{meta['command']} {brief} rows={len(next(iter(columns.values())))} sha256={digest[:16]} -> {path}")


def _spec_meta(command: str, spec: CopulaSpec, **extra) -> dict:
    return {"command": command, "version": __version__, **spec.describe(), **extra}


def _lattice_meta(grid: GridSpec) -> dict:
    return {"half_width": grid.half_width, "step": grid.step}


def _grid_meta(grid: GridSpec) -> dict:
    return {**_lattice_meta(grid), "z_min": grid.z_min, "z_max": grid.z_max, "z_step": grid.z_step}


def _compute_table(spec, grid, mode):
    from .sumcdf import TableMode, integrators

    return integrators()[TableMode(mode)](spec, grid)


def dist(copula, rho, theta, nu, half_width, step, z_min, z_max, z_step, mode, fmt, output):
    """Tabulate the distribution function of Z = X + Y."""
    spec = _build_spec(copula, rho, theta, nu)
    grid = _build_grid(half_width, step, z_min, z_max, z_step)
    table = _compute_table(spec, grid, mode)
    meta = _spec_meta("dist", spec, mode=mode, **_grid_meta(grid))
    _emit(meta, {"z": table.z_values, "F": table.F_values}, fmt, output, f"dist_{copula}")


def quantile_cmd(copula, rho, theta, nu, half_width, step, z_min, z_max, z_step, mode, levels, fmt, output):
    """Extract quantiles of Z = X + Y."""
    levels = _unit_interval("--q", levels or (0.95, 0.99))
    spec = _build_spec(copula, rho, theta, nu)
    grid = _build_grid(half_width, step, z_min, z_max, z_step)
    table = _compute_table(spec, grid, mode)
    from .sumcdf import quantile

    values = [quantile(table, q) for q in levels]
    meta = _spec_meta("quantile", spec, mode=mode, **_grid_meta(grid))
    _emit(meta, {"q": list(levels), "value": values}, fmt, output, f"quantile_{copula}")


def density(copula, rho, theta, nu, half_width, step, fmt, output):
    """Tabulate the joint density on the x/y lattice (x-major ascending)."""
    spec = _build_spec(copula, rho, theta, nu)
    from .grid import GridSpec
    from .jointdensity import joint_pdf_grid

    try:
        grid = GridSpec(half_width=half_width, step=step)
    except DomainError as exc:
        raise UsageError(f"invalid grid: {exc}")
    matrix = joint_pdf_grid(spec, grid)
    axis = grid.axis_points()
    xs, ys = np.repeat(axis, axis.size), np.tile(axis, axis.size)
    meta = _spec_meta("density", spec, **_lattice_meta(grid))
    _emit(meta, {"x": xs, "y": ys, "f": matrix.ravel()}, fmt, output, f"density_{copula}")


def quantile_sweep(families, rhos, qs, nu, grid, mode):
    """``sumcdf.quantile_sweep``, with the integration modules imported on the first sweep."""
    from .sumcdf import quantile_sweep as sweep_cells

    return sweep_cells(families, rhos, qs, nu=nu, grid=grid, mode=mode)


def sample_sum(spec: CopulaSpec, n: int, rng):
    """``sampler.sample_sum``, with the sampler imported on the first draw."""
    from .sampler import sample_sum as draw

    return draw(spec, n, rng)


def sample(copula, rho, theta, nu, n, seed, fmt, output):
    """Draw (x, y) pairs with N(0,1) margins and copula dependence."""
    spec = _build_spec(copula, rho, theta, nu)
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    from .sampler import MAX_PAIRS, RandomSource  # only sampling needs it; kept out of the CLI import

    if n > MAX_PAIRS:  # before any array exists
        raise UsageError(f"--n asks for {n} pairs, above the limit of {MAX_PAIRS}")
    try:
        rng = RandomSource(seed)
    except DomainError as exc:
        raise UsageError(f"--seed invalid: {exc}")
    sample_set = sample_sum(spec, n, rng)
    meta = _spec_meta("sample", spec, n=n, seed=seed)
    _emit(meta, {"x": sample_set.pairs[:, 0], "y": sample_set.pairs[:, 1]}, fmt, output, f"sample_{copula}")


def _level_name(q: float) -> str:
    """Column name of quantile level ``q``: ``q95`` for 0.95, ``q99.5`` for 0.995.

    The name spells q in percent with every decimal digit of its shortest
    repr, so distinct levels get distinct names.
    """
    from decimal import Decimal  # only sweeps need it; kept out of the CLI import

    percent = (Decimal(repr(q)) * 100).normalize()
    if percent == percent.to_integral_value():
        return f"q{int(percent):02d}"
    return f"q{percent:f}"


def sweep(families, rhos, qs, nu, half_width, step, z_min, z_max, z_step, mode, fmt, output):
    """Quantile matrix over (family, rho) cells."""
    rhos, qs = _unit_interval("--rhos", rhos), _unit_interval("--qs", qs)
    try:
        fams = [_FAMILIES[name.strip()] for name in families.split(",")]
    except KeyError as exc:
        raise UsageError(f"--families contains an unknown family: {exc}")
    if len(set(qs)) != len(qs):
        raise UsageError(f"--qs lists a level more than once: {','.join(map(repr, qs))}")
    if CopulaFamily.STUDENT_T in fams:
        # a bad --nu is a flag error, caught before any cell runs
        _flagged("--nu", CopulaSpec.student_t, rhos[0], nu)
    grid = _build_grid(half_width, step, z_min, z_max, z_step)
    from .sumcdf import TableMode

    reports = quantile_sweep(fams, rhos, qs, nu=nu, grid=grid, mode=TableMode(mode))
    q_names = [_level_name(q) for q in sorted(qs)]
    columns: dict[str, list] = {"rho": [], "family": [], **{name: [] for name in q_names}}
    for report in reports:
        for fam in fams:
            columns["rho"].append(report.rho)
            columns["family"].append(fam.value)
            for name, value in zip(q_names, report.values[fam.value]):
                columns[name].append(value)
    meta = {"command": "sweep", "version": __version__, "families": [f.value for f in fams], "rhos": list(rhos),
            "qs": sorted(qs), "nu": nu, "mode": mode, **_grid_meta(grid)}
    _emit(meta, columns, fmt, output, "sweep")


def reproduce_table2(nu, fmt, output):
    """The 9 x 5 x 2 quantile matrix (q95/q99 per family per rho)."""
    from .sumcdf import TABLE2_RHOS, TableMode

    sweep(families="gauss,t,clayton,gumbel,frank", rhos=tuple(TABLE2_RHOS), qs=(0.95, 0.99), nu=nu, half_width=5.0,
          step=0.05, z_min=-5.0, z_max=5.0, z_step=0.05, mode=TableMode.PAPER_EXACT.value, fmt=fmt, output=output or f"table2.{fmt}")


def _parser(prog: str | None = None) -> argparse.ArgumentParser:
    """The ``sumdist`` parser.  Each command is a subparser whose ``func`` default
    is the command's function, which ``main`` calls with the options as keywords."""
    parser = _Parser(prog=prog or "sumdist", description="Distribution of the sum of two dependent standard normal variables.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}", help="Show the version and exit.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def options(*parents):  # a parent parser: a group of options that several commands share
        return argparse.ArgumentParser(add_help=False, parents=parents)

    def command(name, func, *parents):
        sub = commands.add_parser(name, parents=parents, help=func.__doc__, description=func.__doc__)
        sub.set_defaults(func=func)
        return sub

    copula = options()
    copula.add_argument("--copula", choices=sorted(_FAMILIES), required=True, help="Copula family.")
    copula.add_argument("--rho", type=float, help="Pearson correlation (gauss/t; Archimedean via rank pipeline).")
    copula.add_argument("--theta", type=float, help="Archimedean copula parameter (exclusive with --rho).")
    copula.add_argument("--nu", type=float, help=f"Degrees of freedom (t copula only, default {DEFAULT_NU:g}).")
    lattice = options()
    lattice.add_argument("--half-width", type=float, default=5.0, help="Truncation half-width (default: %(default)s).")
    lattice.add_argument("--step", type=float, default=0.05, help="Integration step (default: %(default)s).")
    grid = options(lattice)
    for flag, default in (("--z-min", -5.0), ("--z-max", 5.0), ("--z-step", 0.05)):
        grid.add_argument(flag, type=float, default=default, help="(default: %(default)s)")
    mode = options()
    mode.add_argument("--mode", choices=_MODES, default=_MODES[0], help="(default: %(default)s)")
    output = options()
    output.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv", help="(default: %(default)s)")
    output.add_argument("--output", type=_output_path, help="Output path (default: derived from the command).")

    command("dist", dist, copula, grid, mode, output)
    command("quantile", quantile_cmd, copula, grid, mode, output).add_argument(
        "--q", dest="levels", metavar="Q", type=float, action="append", help="Quantile level in (0, 1), repeatable (default: 0.95 and 0.99).")
    command("density", density, copula, lattice, output)
    draw = command("sample", sample, copula, output)
    draw.add_argument("--n", type=int, required=True, help="Number of (x, y) pairs.")
    draw.add_argument("--seed", type=int, default=0, help="64-bit generator seed (default: %(default)s).")
    cells = command("sweep", sweep, grid, mode, output)
    cells.add_argument("--families", default="gauss,t,clayton,gumbel,frank", help="Comma-separated family list (default: %(default)s).")
    cells.add_argument("--rhos", type=_float_list, default="0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2,0.1", help="Comma-separated correlation levels (default: %(default)s).")
    cells.add_argument("--qs", type=_float_list, default="0.95,0.99", help="Comma-separated quantile levels (default: %(default)s).")
    cells.add_argument("--nu", type=float, default=DEFAULT_NU, help="t copula degrees of freedom (default: %(default)s).")
    command("reproduce-table2", reproduce_table2, output).add_argument(
        "--nu", type=float, default=DEFAULT_NU, help="t copula degrees of freedom (the reference table does not state its value; default: %(default)s).")
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None, standalone_mode: bool = True) -> None:
    """Run one ``sumdist`` command on ``args`` (default: ``sys.argv[1:]``).  A failure, a
    ``DomainError`` among them, prints ``Error: <message>`` and exits with its status, or with
    ``standalone_mode=False`` is raised as a ``CommandError``."""
    try:
        try:
            options = vars(_parser(prog_name).parse_args(args))
            options.pop("func")(**options)
        except DomainError as exc:
            raise CommandError(str(exc)) from exc
    except CommandError as exc:
        if not standalone_mode:
            raise
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)


def run() -> None:
    """The process entry: ``main()`` on ``sys.argv``, then ``gc.freeze()`` on the way out,
    whether the command returns, exits or raises.  The frozen objects are left out of the
    collections at interpreter shutdown; the process ends, and its memory goes, right after."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
