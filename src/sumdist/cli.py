"""Command-line front-end: distributions, quantiles, density grids, samples.

Artifacts are written atomically (temp file + rename) as CSV or JSON; every
artifact embeds the full configuration needed to regenerate it (family,
parameters, grid, mode, seed, version).  A one-line summary with a SHA-256
checksum of the output bytes goes to standard output.

CSV floats are written as ``%.17g``, byte for byte, but formatted in numpy
rather than by one Python call per value (see ``csvwriter``).

Modules only some commands need are imported when those commands run: the
CSV writer, and the sampler, which only ``sample`` uses.

Exit codes: 2 for flag/validation errors, 1 for numerical failures (for
example a quantile level the table does not bracket).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Iterable, Iterator

import click
import numpy as np

from . import __version__
from .copula import DEFAULT_NU, CopulaFamily, CopulaSpec, spec_from_rho
from .errors import DomainError, QuantileOutOfRange
from .grid import GridSpec
from .jointdensity import joint_pdf_grid
from .sumcdf import TABLE2_RHOS, TableMode, integrators, quantile, quantile_sweep

_FAMILIES = {f.value: f for f in CopulaFamily}


def _build_spec(copula: str, rho: float | None, theta: float | None, nu: float | None) -> CopulaSpec:
    family = _FAMILIES[copula]
    if family in (CopulaFamily.GAUSS, CopulaFamily.STUDENT_T):
        if theta is not None:
            raise click.UsageError(f"--theta is not a {copula} copula parameter")
        if rho is None:
            raise click.UsageError(f"--rho is required for the {copula} copula")
        if family is CopulaFamily.GAUSS and nu is not None:
            raise click.UsageError("--nu applies to the t copula only")
    else:
        # Archimedean: exactly one of --theta / --rho (the latter via the
        # rank-correlation pipeline)
        if nu is not None:
            raise click.UsageError("--nu applies to the t copula only")
        if (rho is None) == (theta is None):
            raise click.UsageError(f"{copula} copula needs exactly one of --rho or --theta")
    try:
        if family is CopulaFamily.GAUSS:
            return CopulaSpec.gauss(rho)
        if family is CopulaFamily.STUDENT_T:
            return CopulaSpec.student_t(rho, DEFAULT_NU if nu is None else nu)
        if theta is not None:
            return CopulaSpec(family, theta=theta)
        return spec_from_rho(family, rho)
    except DomainError as exc:
        raise click.UsageError(str(exc))


def _build_grid(half_width, step, z_min, z_max, z_step) -> GridSpec:
    """The grid of the flags, with every z on the x/y lattice, as the integration modes need."""
    try:
        grid = GridSpec(half_width=half_width, step=step, z_min=z_min, z_max=z_max, z_step=z_step)
        grid.z_lattice_indices()
        return grid
    except DomainError as exc:
        raise click.UsageError(f"invalid grid: {exc}")


def _copula_options(fn):
    fn = click.option("--copula", type=click.Choice(sorted(_FAMILIES)), required=True, help="Copula family.")(fn)
    fn = click.option("--rho", type=float, default=None, help="Pearson correlation (gauss/t; Archimedean via rank pipeline).")(fn)
    fn = click.option("--theta", type=float, default=None, help="Archimedean copula parameter (exclusive with --rho).")(fn)
    fn = click.option("--nu", type=float, default=None, help=f"Degrees of freedom (t copula only, default {DEFAULT_NU:g}).")(fn)
    return fn


def _lattice_options(fn):
    fn = click.option("--half-width", type=float, default=5.0, show_default=True, help="Truncation half-width.")(fn)
    fn = click.option("--step", type=float, default=0.05, show_default=True, help="Integration step.")(fn)
    return fn


def _grid_options(fn):
    fn = _lattice_options(fn)
    fn = click.option("--z-min", type=float, default=-5.0, show_default=True)(fn)
    fn = click.option("--z-max", type=float, default=5.0, show_default=True)(fn)
    fn = click.option("--z-step", type=float, default=0.05, show_default=True)(fn)
    return fn


def _output_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)(fn)
    fn = click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None, help="Output path (default: derived from the command).")(fn)
    return fn


def _mode_option(fn):
    return click.option(
        "--mode",
        type=click.Choice([mode.value for mode in integrators()]),
        default=TableMode.PAPER_EXACT.value,
        show_default=True,
    )(fn)


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
    click.echo(f"{meta['command']} {brief} rows={len(next(iter(columns.values())))} sha256={digest[:16]} -> {path}")


def _spec_meta(command: str, spec: CopulaSpec, **extra) -> dict:
    meta = {"command": command, "version": __version__}
    meta.update(spec.describe())
    meta.update(extra)
    return meta


def _lattice_meta(grid: GridSpec) -> dict:
    return {"half_width": grid.half_width, "step": grid.step}


def _grid_meta(grid: GridSpec) -> dict:
    return {**_lattice_meta(grid), "z_min": grid.z_min, "z_max": grid.z_max, "z_step": grid.z_step}


def _compute_table(spec, grid, mode):
    try:
        return integrators()[TableMode(mode)](spec, grid)
    except DomainError as exc:
        raise click.ClickException(str(exc))


@click.group()
@click.version_option(__version__)
def main():
    """Distribution of the sum of two dependent standard normal variables."""


@main.command()
@_copula_options
@_grid_options
@_mode_option
@_output_options
def dist(copula, rho, theta, nu, half_width, step, z_min, z_max, z_step, mode, fmt, output):
    """Tabulate the distribution function of Z = X + Y."""
    spec = _build_spec(copula, rho, theta, nu)
    grid = _build_grid(half_width, step, z_min, z_max, z_step)
    table = _compute_table(spec, grid, mode)
    meta = _spec_meta("dist", spec, mode=mode, **_grid_meta(grid))
    _emit(meta, {"z": table.z_values, "F": table.F_values}, fmt, output, f"dist_{copula}")


def _unit_interval_levels(_ctx, _param, values: tuple[float, ...]) -> tuple[float, ...]:
    for v in values:
        if not (0.0 < v < 1.0):
            raise click.BadParameter(f"values must lie in (0, 1), got {v!r}")
    return values


@main.command(name="quantile")
@_copula_options
@_grid_options
@_mode_option
@click.option("--q", "levels", type=float, multiple=True, default=(0.95, 0.99), show_default=True, callback=_unit_interval_levels, help="Quantile levels in (0, 1) (repeatable).")
@_output_options
def quantile_cmd(copula, rho, theta, nu, half_width, step, z_min, z_max, z_step, mode, levels, fmt, output):
    """Extract quantiles of Z = X + Y."""
    spec = _build_spec(copula, rho, theta, nu)
    grid = _build_grid(half_width, step, z_min, z_max, z_step)
    table = _compute_table(spec, grid, mode)
    try:
        values = [quantile(table, q) for q in levels]
    except (QuantileOutOfRange, DomainError) as exc:
        raise click.ClickException(str(exc))
    meta = _spec_meta("quantile", spec, mode=mode, **_grid_meta(grid))
    _emit(meta, {"q": list(levels), "value": values}, fmt, output, f"quantile_{copula}")


@main.command()
@_copula_options
@_lattice_options
@_output_options
def density(copula, rho, theta, nu, half_width, step, fmt, output):
    """Tabulate the joint density on the x/y lattice (x-major ascending)."""
    spec = _build_spec(copula, rho, theta, nu)
    try:
        grid = GridSpec(half_width=half_width, step=step)
    except DomainError as exc:
        raise click.UsageError(f"invalid grid: {exc}")
    matrix = joint_pdf_grid(spec, grid)
    axis = grid.axis_points()
    n1 = axis.size
    xs = np.repeat(axis, n1)
    ys = np.tile(axis, n1)
    meta = _spec_meta("density", spec, **_lattice_meta(grid))
    _emit(meta, {"x": xs, "y": ys, "f": matrix.ravel()}, fmt, output, f"density_{copula}")


def sample_sum(spec: CopulaSpec, n: int, rng):
    """``sampler.sample_sum``, with the sampler imported on the first draw."""
    from .sampler import sample_sum as draw

    return draw(spec, n, rng)


@main.command()
@_copula_options
@click.option("--n", type=int, required=True, help="Number of (x, y) pairs.")
@click.option("--seed", type=int, default=0, show_default=True, help="64-bit generator seed.")
@_output_options
def sample(copula, rho, theta, nu, n, seed, fmt, output):
    """Draw (x, y) pairs with N(0,1) margins and copula dependence."""
    spec = _build_spec(copula, rho, theta, nu)
    if n < 1:
        raise click.UsageError(f"--n must be >= 1, got {n}")
    from .sampler import RandomSource  # only sampling needs it; kept out of the CLI import

    try:
        rng = RandomSource(seed)
    except DomainError as exc:
        raise click.UsageError(f"--seed invalid: {exc}")
    try:
        sample_set = sample_sum(spec, n, rng)
    except DomainError as exc:
        raise click.ClickException(str(exc))
    meta = _spec_meta("sample", spec, n=n, seed=seed)
    _emit(
        meta,
        {"x": sample_set.pairs[:, 0], "y": sample_set.pairs[:, 1]},
        fmt,
        output,
        f"sample_{copula}",
    )


def _unit_interval_list(ctx, param, value):
    try:
        values = tuple(float(v) for v in value.split(","))
    except ValueError:
        raise click.BadParameter(f"expected a comma-separated list of numbers, got {value!r}")
    return _unit_interval_levels(ctx, param, values)


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


@main.command()
@click.option("--families", default="gauss,t,clayton,gumbel,frank", show_default=True, help="Comma-separated family list.")
@click.option("--rhos", callback=_unit_interval_list, default="0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2,0.1", show_default=True, help="Comma-separated correlation levels.")
@click.option("--qs", callback=_unit_interval_list, default="0.95,0.99", show_default=True, help="Comma-separated quantile levels.")
@click.option("--nu", type=float, default=DEFAULT_NU, show_default=True, help="t copula degrees of freedom.")
@_grid_options
@_mode_option
@_output_options
def sweep(families, rhos, qs, nu, half_width, step, z_min, z_max, z_step, mode, fmt, output):
    """Quantile matrix over (family, rho) cells."""
    try:
        fams = [_FAMILIES[name.strip()] for name in families.split(",")]
    except KeyError as exc:
        raise click.UsageError(f"--families contains an unknown family: {exc}")
    if len(set(qs)) != len(qs):
        raise click.UsageError(f"--qs lists a level more than once: {','.join(map(repr, qs))}")
    if CopulaFamily.STUDENT_T in fams:
        # a bad --nu is a flag error, caught before any cell runs
        try:
            CopulaSpec.student_t(rhos[0], nu)
        except DomainError as exc:
            raise click.BadParameter(str(exc), param_hint="--nu")
    grid = _build_grid(half_width, step, z_min, z_max, z_step)
    table_mode = TableMode(mode)
    try:
        reports = quantile_sweep(fams, rhos, qs, nu=nu, grid=grid, mode=table_mode)
    except (DomainError, QuantileOutOfRange) as exc:
        raise click.ClickException(str(exc))
    columns: dict[str, list] = {"rho": [], "family": []}
    q_names = [_level_name(q) for q in sorted(qs)]
    for name in q_names:
        columns[name] = []
    for report in reports:
        for fam in fams:
            columns["rho"].append(report.rho)
            columns["family"].append(fam.value)
            for name, value in zip(q_names, report.values[fam.value]):
                columns[name].append(value)
    meta = {
        "command": "sweep",
        "version": __version__,
        "families": [f.value for f in fams],
        "rhos": list(rhos),
        "qs": sorted(qs),
        "nu": nu,
        "mode": mode,
    }
    meta.update(_grid_meta(grid))
    _emit(meta, columns, fmt, output, "sweep")


@main.command(name="reproduce-table2")
@click.option("--nu", type=float, default=DEFAULT_NU, show_default=True, help="t copula degrees of freedom (the reference table does not state its value).")
@_output_options
@click.pass_context
def reproduce_table2(ctx, nu, fmt, output):
    """The 9 x 5 x 2 quantile matrix (q95/q99 per family per rho)."""
    ctx.invoke(
        sweep,
        families="gauss,t,clayton,gumbel,frank",
        rhos=tuple(TABLE2_RHOS),
        qs=(0.95, 0.99),
        nu=nu,
        half_width=5.0,
        step=0.05,
        z_min=-5.0,
        z_max=5.0,
        z_step=0.05,
        mode=TableMode.PAPER_EXACT.value,
        fmt=fmt,
        output=output or f"table2.{fmt}",
    )


if __name__ == "__main__":
    main()
