"""Command-line front-end: distributions, quantiles, density grids, samples.

Artifacts are written atomically (temp file + rename) as CSV or JSON; every
artifact embeds the full configuration needed to regenerate it (family,
parameters, grid, mode, seed, version).  A one-line summary with a SHA-256
checksum of the output bytes goes to standard output.

Exit codes: 2 for flag/validation errors, 1 for numerical failures (for
example a quantile level the table does not bracket).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import click
import numpy as np

from . import __version__
from .copula import CopulaFamily, CopulaSpec, spec_from_rho
from .errors import DomainError, QuantileOutOfRange
from .grid import GridSpec
from .jointdensity import JointDensityModel, joint_pdf_grid
from .sampler import RandomSource, sample_sum
from .sumcdf import TABLE2_RHOS, TableMode, cdf_paper_exact, cdf_refined, quantile, quantile_sweep

_FAMILIES = {f.value: f for f in CopulaFamily}
_FLOAT_FMT = "%.17g"


def _worker_count() -> int:
    env = os.environ.get("SUMDIST_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise click.UsageError(f"SUMDIST_THREADS must be an integer, got {env!r}")
        if n < 1:
            raise click.UsageError(f"SUMDIST_THREADS must be >= 1, got {n}")
        return n
    return min(4, os.cpu_count() or 1)


def _build_spec(copula: str, rho: float | None, theta: float | None, nu: float | None) -> CopulaSpec:
    family = _FAMILIES[copula]
    if family in (CopulaFamily.GAUSS, CopulaFamily.STUDENT_T):
        if theta is not None:
            raise click.UsageError(f"--theta is not a {copula} copula parameter")
        if rho is None:
            raise click.UsageError(f"--rho is required for the {copula} copula")
        if family is CopulaFamily.GAUSS:
            if nu is not None:
                raise click.UsageError("--nu applies to the t copula only")
            return CopulaSpec.gauss(rho)
        return CopulaSpec.student_t(rho, 4.0 if nu is None else nu)
    # Archimedean: exactly one of --theta / --rho (the latter via the
    # rank-correlation pipeline)
    if nu is not None:
        raise click.UsageError("--nu applies to the t copula only")
    if (rho is None) == (theta is None):
        raise click.UsageError(f"{copula} copula needs exactly one of --rho or --theta")
    try:
        if theta is not None:
            return CopulaSpec(family, theta=theta)
        return spec_from_rho(family, rho)
    except DomainError as exc:
        raise click.UsageError(str(exc))


def _build_grid(half_width, step, z_min, z_max, z_step) -> GridSpec:
    try:
        return GridSpec(half_width=half_width, step=step, z_min=z_min, z_max=z_max, z_step=z_step)
    except DomainError as exc:
        raise click.UsageError(f"invalid grid: {exc}")


def _copula_options(fn):
    fn = click.option("--copula", type=click.Choice(sorted(_FAMILIES)), required=True, help="Copula family.")(fn)
    fn = click.option("--rho", type=float, default=None, help="Pearson correlation (gauss/t; Archimedean via rank pipeline).")(fn)
    fn = click.option("--theta", type=float, default=None, help="Archimedean copula parameter (exclusive with --rho).")(fn)
    fn = click.option("--nu", type=float, default=None, help="Degrees of freedom (t copula only, default 4).")(fn)
    return fn


def _grid_options(fn):
    fn = click.option("--half-width", type=float, default=5.0, show_default=True, help="Truncation half-width.")(fn)
    fn = click.option("--step", type=float, default=0.05, show_default=True, help="Integration step.")(fn)
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
        type=click.Choice([TableMode.PAPER_EXACT.value, TableMode.REFINED.value]),
        default=TableMode.PAPER_EXACT.value,
        show_default=True,
    )(fn)


def _fmt_float(v: float) -> str:
    return _FLOAT_FMT % (v,)


def _serialize(meta: dict, columns: dict[str, list], fmt: str) -> bytes:
    """CSV: '# meta: {...}' comment, header row, then data rows;
    JSON: object with 'meta' and 'data'.  Both round-trip losslessly."""
    if fmt == "json":
        payload = {"meta": meta, "data": columns}
        return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()
    names = list(columns)
    rows = zip(*(columns[name] for name in names))
    lines = ["# meta: " + json.dumps(meta, sort_keys=True)]
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(_fmt_float(v) if isinstance(v, float) else str(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def _write_artifact(data: bytes, path: str) -> str:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sumdist-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return hashlib.sha256(data).hexdigest()


def _emit(meta: dict, columns: dict[str, list], fmt: str, output: str | None, default_name: str) -> None:
    path = output or f"{default_name}.{fmt}"
    digest = _write_artifact(_serialize(meta, columns, fmt), path)
    brief = " ".join(f"{k}={v}" for k, v in meta.items() if k not in ("version", "command"))
    click.echo(f"{meta['command']} {brief} rows={len(next(iter(columns.values())))} sha256={digest[:16]} -> {path}")


def _spec_meta(command: str, spec: CopulaSpec, **extra) -> dict:
    meta = {"command": command, "version": __version__}
    meta.update(spec.describe())
    meta.update(extra)
    return meta


def _grid_meta(grid: GridSpec) -> dict:
    return {
        "half_width": grid.half_width,
        "step": grid.step,
        "z_min": grid.z_min,
        "z_max": grid.z_max,
        "z_step": grid.z_step,
    }


def _compute_table(spec, grid, mode):
    try:
        if mode == TableMode.REFINED.value:
            return cdf_refined(spec, grid)
        return cdf_paper_exact(spec, grid)
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
    _emit(meta, {"z": table.z_values.tolist(), "F": table.F_values.tolist()}, fmt, output, f"dist_{copula}")


@main.command(name="quantile")
@_copula_options
@_grid_options
@_mode_option
@click.option("--q", "levels", type=float, multiple=True, default=(0.95, 0.99), show_default=True, help="Quantile levels (repeatable).")
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
@_grid_options
@_output_options
def density(copula, rho, theta, nu, half_width, step, z_min, z_max, z_step, fmt, output):
    """Tabulate the joint density on the grid lattice (x-major ascending)."""
    spec = _build_spec(copula, rho, theta, nu)
    grid = _build_grid(half_width, step, z_min, z_max, z_step)
    matrix = joint_pdf_grid(JointDensityModel(spec), grid)
    axis = grid.axis_points()
    n1 = axis.size
    xs = np.repeat(axis, n1)
    ys = np.tile(axis, n1)
    meta = _spec_meta("density", spec, **_grid_meta(grid))
    _emit(meta, {"x": xs.tolist(), "y": ys.tolist(), "f": matrix.ravel().tolist()}, fmt, output, f"density_{copula}")


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
        {"x": sample_set.pairs[:, 0].tolist(), "y": sample_set.pairs[:, 1].tolist()},
        fmt,
        output,
        f"sample_{copula}",
    )


def _float_list(_ctx, _param, value):
    try:
        return tuple(float(v) for v in value.split(","))
    except ValueError:
        raise click.UsageError(f"expected a comma-separated list of numbers, got {value!r}")


@main.command()
@click.option("--families", default="gauss,t,clayton,gumbel,frank", show_default=True, help="Comma-separated family list.")
@click.option("--rhos", callback=_float_list, default="0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2,0.1", show_default=True, help="Comma-separated correlation levels.")
@click.option("--qs", callback=_float_list, default="0.95,0.99", show_default=True, help="Comma-separated quantile levels.")
@click.option("--nu", type=float, default=4.0, show_default=True, help="t copula degrees of freedom.")
@_grid_options
@_mode_option
@_output_options
def sweep(families, rhos, qs, nu, half_width, step, z_min, z_max, z_step, mode, fmt, output):
    """Quantile matrix over (family, rho) cells; parallel across cells."""
    try:
        fams = [_FAMILIES[name.strip()] for name in families.split(",")]
    except KeyError as exc:
        raise click.UsageError(f"--families contains an unknown family: {exc}")
    grid = _build_grid(half_width, step, z_min, z_max, z_step)
    table_mode = TableMode(mode)
    try:
        reports = quantile_sweep(fams, rhos, qs, nu=nu, grid=grid, mode=table_mode, max_workers=_worker_count())
    except (DomainError, QuantileOutOfRange) as exc:
        raise click.ClickException(str(exc))
    columns: dict[str, list] = {"rho": [], "family": []}
    q_names = [f"q{int(round(q * 100)):02d}" for q in sorted(qs)]
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
@click.option("--nu", type=float, default=4.0, show_default=True, help="t copula degrees of freedom (the reference table does not state its value).")
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
