"""CLI contract tests: flags, exit codes, serialization round-trips."""

import argparse
import ast
import contextlib
import decimal
import functools
import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
import traceback
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumdist
from sumdist import __version__, cli, csvwriter, jointdensity, sampler, sumcdf
from sumdist.cli import _serialize, main
from sumdist.copula import CopulaFamily, CopulaSpec
from sumdist.csvwriter import BLOCK_ROWS
from sumdist.grid import GridSpec
from sumdist.sampler import CHUNK_PAIRS
from sumdist.errors import DomainError
from sumdist.sumcdf import TableMode, cdf_paper_exact, quantile_sweep


class Result(NamedTuple):
    exit_code: int
    output: str


class Runner:
    """Runs the command line in this process, as a shell would see it:
    standard output and standard error captured together, and the exit
    status of a ``SystemExit``, or 1 for an uncaught exception, whose
    traceback then goes to the output."""

    def invoke(self, cli_main, args) -> Result:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            try:
                cli_main(args)
                code = 0
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            except Exception:
                traceback.print_exc()
                code = 1
        return Result(code, buffer.getvalue())


@pytest.fixture()
def runner():
    return Runner()


def read_csv(path):
    meta = None
    rows = []
    header = None
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# meta: "):
                meta = json.loads(line[len("# meta: "):])
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


class TestDist:
    def test_csv_shape_and_meta(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        result = runner.invoke(
            main,
            ["dist", "--copula", "gauss", "--rho", "0.9", "--mode", "paper-exact", "--output", str(out)],
        )
        assert result.exit_code == 0, result.output
        meta, header, rows = read_csv(out)
        assert header == ["z", "F"]
        assert len(rows) == 201
        assert meta["family"] == "gauss" and meta["rho"] == 0.9
        assert meta["version"] == __version__
        assert "sha256=" in result.output

    def test_csv_round_trips_losslessly(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        result = runner.invoke(
            main, ["dist", "--copula", "clayton", "--theta", "5.0", "--output", str(out)]
        )
        assert result.exit_code == 0, result.output
        _, _, rows = read_csv(out)
        table = cdf_paper_exact(CopulaSpec.clayton(5.0), GridSpec())
        parsed = np.array([[float(a), float(b)] for a, b in rows])
        assert np.array_equal(parsed[:, 0], table.z_values)
        assert np.array_equal(parsed[:, 1], table.F_values)

    def test_json_payload(self, runner, tmp_path):
        out = tmp_path / "d.json"
        result = runner.invoke(
            main,
            ["dist", "--copula", "frank", "--rho", "0.5", "--format", "json", "--output", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert set(payload) == {"meta", "data"}
        assert len(payload["data"]["z"]) == 201
        assert payload["meta"]["command"] == "dist"
        # derived theta recorded so the run can be regenerated exactly
        assert "theta" in payload["meta"]


class TestValidation:
    def test_archimedean_mutual_exclusion(self, runner):
        result = runner.invoke(main, ["dist", "--copula", "clayton", "--rho", "0.5", "--theta", "2.0"])
        assert result.exit_code == 2
        assert "--rho" in result.output and "--theta" in result.output

    def test_archimedean_requires_a_parameter(self, runner):
        result = runner.invoke(main, ["dist", "--copula", "gumbel"])
        assert result.exit_code == 2

    def test_gauss_rejects_theta(self, runner):
        result = runner.invoke(main, ["dist", "--copula", "gauss", "--theta", "2.0"])
        assert result.exit_code == 2
        assert "--theta" in result.output

    def test_nu_for_t_only(self, runner):
        result = runner.invoke(main, ["dist", "--copula", "clayton", "--rho", "0.5", "--nu", "4"])
        assert result.exit_code == 2
        assert "--nu" in result.output

    def test_invalid_theta_range(self, runner):
        result = runner.invoke(main, ["dist", "--copula", "gumbel", "--theta", "0.5"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args, flag, message",
        [
            (["dist", "--copula", "gauss", "--rho", "1.0"], "--rho", "requires -1 < rho < 1, got 1.0"),
            (["dist", "--copula", "gauss", "--rho", "nan"], "--rho", "requires -1 < rho < 1, got nan"),
            (["dist", "--copula", "t", "--rho", "1.5"], "--rho", "requires -1 < rho < 1, got 1.5"),
            (["dist", "--copula", "t", "--rho", "0.5", "--nu", "-1"], "--nu", "requires nu > 0, got -1.0"),
            (["sample", "--copula", "gauss", "--rho", "-1", "--n", "5"], "--rho", "requires -1 < rho < 1, got -1.0"),
            (["sweep", "--families", "t", "--nu", "-2"], "--nu", "requires nu > 0, got -2.0"),
            (["reproduce-table2", "--nu", "nan"], "--nu", "requires nu > 0, got nan"),
            # before, these exited 1 after RuntimeWarnings in the kernels
            (["dist", "--copula", "t", "--rho", "0.5", "--nu", "1e-3"], "--nu", "requires 0.2 <= nu <= 1e+06, got 0.001"),
            (["dist", "--copula", "t", "--rho", "0.5", "--nu", "0.1"], "--nu", "requires 0.2 <= nu <= 1e+06, got 0.1"),
            (["dist", "--copula", "t", "--rho", "0.5", "--nu", "2e6"], "--nu", "requires 0.2 <= nu <= 1e+06, got 2000000.0"),
            (["dist", "--copula", "t", "--rho", "0.5", "--nu", "1e300"], "--nu", "requires 0.2 <= nu <= 1e+06, got 1e+300"),
            (["sample", "--copula", "t", "--rho", "0.5", "--nu", "0.01", "--n", "5"], "--nu", "requires 0.2 <= nu <= 1e+06, got 0.01"),
            (["sweep", "--families", "t", "--nu", "2e6"], "--nu", "requires 0.2 <= nu <= 1e+06, got 2000000.0"),
            (["dist", "--copula", "clayton", "--theta", "-1"], "--theta", "requires finite theta > 0, got -1.0"),
            (["dist", "--copula", "gumbel", "--theta", "0.5"], "--theta", "requires finite theta >= 1, got 0.5"),
            (["dist", "--copula", "frank", "--theta", "0"], "--theta", "requires finite theta != 0, got 0.0"),
            # beyond |theta| = 1e300 the generator sums overflow
            (["dist", "--copula", "clayton", "--theta", "1e301"], "--theta", "requires |theta| <= 1e+300, got 1e+301"),
            (["dist", "--copula", "gumbel", "--theta", "1e308"], "--theta", "requires |theta| <= 1e+300, got 1e+308"),
            (["sample", "--copula", "frank", "--theta", "-1e301", "--n", "5"], "--theta", "requires |theta| <= 1e+300, got -1e+301"),
        ],
    )
    def test_invalid_elliptical_parameters(self, runner, args, flag, message):
        # the name covers the Archimedean thetas too: every copula parameter
        # error names its flag, with the range CopulaSpec checks
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{flag}': " in result.output
        assert message in result.output
        assert "Traceback" not in result.output

    def test_theta_at_the_bound_is_accepted(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        result = runner.invoke(main, ["dist", "--copula", "clayton", "--theta", "1e300", "--output", str(out)])
        assert result.exit_code == 0, result.output
        # Gumbel's tables at such theta overshoot, which is a numerical failure
        result = runner.invoke(main, ["dist", "--copula", "gumbel", "--theta", "1e300", "--output", str(out)])
        assert result.exit_code == 1, result.output
        assert "raw F values outside [0, 1 + 1e-6]" in result.output

    @pytest.mark.parametrize(
        "spec, mode, step, miss",
        [
            # strong negative dependence: the density's ridge along y = -x is
            # narrower than the lattice, and F overshoots 1 near the top
            (CopulaSpec.frank(-138.8), "paper-exact", 0.05, "0.00819 beyond 1"),
            (CopulaSpec.frank(-138.8), "refined", 0.05, "0.00819 beyond 1"),
            (CopulaSpec.frank(-138.8), "refined", 0.025, "8.33e-06 beyond 1"),
            (CopulaSpec.gauss(-0.999), "refined", 0.1, "0.0386 beyond 1"),
        ],
        ids=["frank-paper-exact", "frank-refined-0.05", "frank-refined-0.025", "gauss-refined-0.1"],
    )
    def test_strong_negative_dependence_overshoot(self, runner, tmp_path, spec, mode, step, miss):
        parameter = "rho" if spec.family == CopulaFamily.GAUSS else "theta"
        label = f"{spec.family.value} ({parameter}={getattr(spec, parameter)!r}) {mode} table"
        with pytest.raises(DomainError) as info:
            sumcdf.integrators()[TableMode(mode)](spec, GridSpec(step=step, z_step=step))
        assert label in str(info.value) and miss in str(info.value)
        args = ["dist", "--copula", spec.family.value, f"--{parameter}", str(getattr(spec, parameter)), "--mode", mode]
        result = runner.invoke(main, [*args, "--step", str(step), "--z-step", str(step), "--output", str(tmp_path / "d.csv")])
        assert result.exit_code == 1, result.output
        assert label in result.output and miss in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["dist", "--copula", "t", "--rho", "0.5", "--nu", "inf"], "requires a finite nu, got inf"),
            (["dist", "--copula", "gumbel", "--theta", "inf"], "requires finite theta >= 1, got inf"),
            (["dist", "--copula", "clayton", "--theta", "inf"], "requires finite theta > 0, got inf"),
            (["sample", "--copula", "t", "--rho", "0.5", "--nu", "inf", "--n", "5"], "requires a finite nu, got inf"),
            (["sweep", "--families", "t", "--nu", "inf"], "requires a finite nu, got inf"),
        ],
    )
    def test_non_finite_parameters(self, runner, args, message):
        # before, these ran into the kernels and exited 1 with internal messages
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["quantile", "--copula", "clayton", "--rho", "-0.5"], "clayton needs tau in (0, 1)"),
            (["quantile", "--copula", "clayton", "--rho", "0"], "clayton needs tau in (0, 1), got 0.0"),
            (["quantile", "--copula", "frank", "--rho", "0"], "frank needs tau in (-1, 1) \\ {0}, got 0.0"),
            (["quantile", "--copula", "gumbel", "--rho", "-0.2"], "gumbel needs tau in [0, 1)"),
            (["dist", "--copula", "frank", "--rho", "1.5"], "requires -1 < rho < 1, got 1.5"),
            (["sample", "--copula", "clayton", "--rho", "-0.5", "--n", "5"], "clayton needs tau in (0, 1)"),
        ],
    )
    def test_archimedean_rho_errors_name_the_flag(self, runner, args, message):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--rho': " in result.output
        assert message in result.output
        assert "Traceback" not in result.output

    def test_gumbel_rho_zero_is_theta_one(self, runner, tmp_path):
        # tau = 0 is theta = 1, independence, which the Gumbel family includes
        outputs = []
        for flags in (["--rho", "0"], ["--theta", "1"]):
            out = tmp_path / f"q{len(outputs)}.csv"
            result = runner.invoke(main, ["quantile", "--copula", "gumbel", *flags, "--output", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_sweep_ignores_nu_without_t(self, runner, tmp_path):
        args = ["sweep", "--families", "gauss", "--rhos", "0.5", "--nu", "-2", "--output", str(tmp_path / "s.csv")]
        assert runner.invoke(main, args).exit_code == 0

    def test_bad_grid(self, runner):
        result = runner.invoke(
            main, ["dist", "--copula", "gauss", "--rho", "0.5", "--step", "0.033"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["dist", "--copula", "gauss", "--rho", "0.5", "--z-step", "0.03"],
            ["dist", "--copula", "gauss", "--rho", "0.5", "--z-min", "-5.02"],
            ["quantile", "--copula", "clayton", "--rho", "0.5", "--mode", "refined", "--z-step", "0.03"],
            ["sweep", "--families", "gauss", "--rhos", "0.5", "--z-step", "0.07"],
        ],
    )
    def test_z_grid_off_the_lattice(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        # a plain float, not a numpy repr
        assert re.search(r"offender near z=-?\d+\.\d+\n", result.output), result.output

    def test_z_grid_off_the_lattice_builds_no_z_array(self, runner, monkeypatch):
        # ten million z: z_min and z_min + z_step decide before any z array
        # is built (this took 493 MB on the way to the same exit)
        def no_z_array(grid):
            raise AssertionError(f"z array of {grid} built")

        monkeypatch.setattr(GridSpec, "z_values", no_z_array)
        result = runner.invoke(main, ["dist", "--copula", "gauss", "--rho", "0.5", "--z-step", "1e-6"])
        assert result.exit_code == 2, result.output
        assert (
            "invalid grid: z values must be commensurate with the x/y lattice: "
            "(z + 2*half_width)/step must be integral, got offender near z=-4.999999\n"
        ) in result.output

    def test_z_stride_below_the_rounding_of_z_min_builds_no_z_array(self, runner, monkeypatch):
        # z_min + 1e-16 rounds to z_min, so the first two z sit on the
        # lattice; this asked numpy for a z array of 711 PiB and exited 1
        def no_z_array(grid):
            raise AssertionError(f"z array of {grid} built")

        monkeypatch.setattr(GridSpec, "z_values", no_z_array)
        # a range of 1e-9 keeps the z count (1e7) under the size limit, which
        # [-5, 5] at this stride exceeds (test_grid_above_the_size_limit)
        args = ["dist", "--copula", "gauss", "--rho", "0.5", "--z-max", "-4.999999999", "--z-step", "1e-16"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert (
            "invalid grid: z_step/step = 1.9999999999999998e-15 must be a positive integer "
            "so every z stays on the x/y lattice\n"
        ) in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["dist", "--copula", "gauss", "--rho", "0.5", "--step", "1e-4"], "half_width and step give 100000 cells per axis"),
            (["density", "--copula", "gauss", "--rho", "0.5", "--step", "1e-4"], "half_width and step give 100000 cells per axis"),
            (["sweep", "--families", "gauss", "--rhos", "0.5", "--half-width", "1e300"], "half_width and step give 4e+301 cells per axis"),
            (["dist", "--copula", "gauss", "--rho", "0.5", "--z-min", "-1e15", "--z-max", "1e15"], "z_min, z_max and z_step give 40000000000000001 z values"),
            (["dist", "--copula", "gauss", "--rho", "0.5", "--z-step", "1e-16"], "z_min, z_max and z_step give 100000000000000001 z values"),
            (["quantile", "--copula", "gauss", "--rho", "0.5", "--z-max", "inf"], "z_min, z_max and z_step give inf z values"),
        ],
        ids=["dist-step", "density-step", "sweep-half-width", "z-range", "z-step", "z-max-inf"],
    )
    def test_grid_above_the_size_limit(self, runner, monkeypatch, args, message):
        # the counts decide before any array exists.  Never run these
        # unpatched: the step 1e-4 alone asks for an 80 GB density grid
        def no_array(*args, **kwargs):
            raise AssertionError("an array of the grid was built")

        for owner, name in [(GridSpec, "axis_points"), (GridSpec, "z_values"), (jointdensity, "joint_pdf_grid")]:
            monkeypatch.setattr(owner, name, no_array)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"invalid grid: {message}, above the limit of " in result.output

    @pytest.mark.parametrize(
        "output, denied, problem",
        [
            ("d", None, "is a directory"),
            ("x.csv", "x.csv", "is not writable"),
            ("missing/x.csv", None, "is not in an existing directory"),
            ("x.csv/y.csv", None, "is not in an existing directory"),
            ("d/x.csv", "d", "is in a directory that is not writable"),
        ],
        ids=["directory", "read-only-file", "missing-directory", "file-as-directory", "read-only-directory"],
    )
    def test_unwritable_output_is_usage_error(self, runner, tmp_path, monkeypatch, output, denied, problem):
        # checked as the flags are parsed.  A missing directory used to fail
        # in tempfile.mkstemp, with a traceback, after the table was built
        (tmp_path / "d").mkdir()
        (tmp_path / "x.csv").write_bytes(b"old")
        before = sorted(tmp_path.rglob("*"))

        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(cli, "_compute_table", no_table)
        if denied is not None:
            # os.access grants root every write, so the denial is simulated
            access, path = os.access, str(tmp_path / denied)
            monkeypatch.setattr(os, "access", lambda p, mode, **kw: os.path.abspath(p) != path and access(p, mode, **kw))
        result = runner.invoke(main, ["dist", "--copula", "gauss", "--rho", "0.5", "--output", str(tmp_path / output)])
        assert result.exit_code == 2, result.output
        assert f"argument --output: {str(tmp_path / output)!r} {problem}\n" in result.output
        assert "Traceback" not in result.output
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "x.csv").read_bytes() == b"old"

    @pytest.mark.parametrize("mode", ["paper-exact", "refined"])
    def test_grid_without_cells(self, runner, tmp_path, mode):
        # half_width/step rounds to 0: no lattice cell at all
        out = tmp_path / "d.csv"
        args = ["dist", "--copula", "gauss", "--rho", "0.5", "--half-width", "1e-12", "--step", "1"]
        args += ["--z-min", "-1", "--z-max", "1", "--z-step", "1", "--mode", mode, "--output", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "rounds to 0" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--z-min", "--z-max", "--z-step"])
    def test_density_takes_no_z_flags(self, runner, tmp_path, flag):
        # the density lattice is x/y only
        args = ["density", "--copula", "gauss", "--rho", "0.5", "--step", "0.5", flag, "0.5"]
        result = runner.invoke(main, [*args, "--output", str(tmp_path / "d.csv")])
        assert result.exit_code == 2
        assert re.search(f"No such option:? '?{flag}'?", result.output), result.output

    @pytest.mark.parametrize("level", ["1.5", "0", "nan"])
    def test_quantile_level_outside_unit_interval(self, runner, tmp_path, level):
        # rejected before any table is built, like sweep --qs
        out = tmp_path / "q.csv"
        args = ["quantile", "--copula", "gauss", "--rho", "0.9", "--q", "0.95", "--q", level, "--output", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--q': values must lie in (0, 1)" in result.output
        assert not out.exists()

    def test_clayton_near_independence(self, runner, tmp_path):
        # rho = 1e-15 gives theta = 1.27e-15, independence: the closed-form
        # density overshot 1 there and the command exited 1
        rows = []
        for spec_args in (["--copula", "clayton", "--rho", "1e-15"], ["--copula", "gumbel", "--theta", "1"]):
            out = tmp_path / "q.csv"
            result = runner.invoke(main, ["quantile", *spec_args, "--output", str(out)])
            assert result.exit_code == 0, result.output
            rows.append(read_csv(out)[2])
        assert rows[0] == rows[1]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["dist", "--copula", "t"], "--rho is required for the t copula"),
            (["dist", "--copula", "gauss"], "--rho is required for the gauss copula"),
            (["dist", "--copula", "gauss", "--rho", "0.5", "--nu", "4"], "--nu applies to the t copula only"),
        ],
    )
    def test_elliptical_flag_errors(self, runner, args, message):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.output == f"Error: {message}\n"

    def test_sweep_level_out_of_range_is_numerical_failure(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        args = ["sweep", "--families", "gumbel", "--rhos", "0.9", "--qs", "0.999", "--output", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.output.startswith(
            "Error: q=0.999 not bracketed by the gumbel (theta=3.482711638669624) paper-exact table: "
        ), result.output
        assert "Traceback" not in result.output
        assert not out.exists()
        # an in-process call raises it, as a numerical failure
        with pytest.raises(cli.CommandError, match=r"^q=0\.999 not bracketed by the gumbel") as info:
            main(args=args, prog_name="sumdist", standalone_mode=False)
        assert not isinstance(info.value, cli.UsageError) and info.value.exit_code == 1

    def test_quantile_out_of_range_is_numerical_failure(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "quantile",
                "--copula",
                "gauss",
                "--rho",
                "0.9",
                "--q",
                "0.9999999",
                "--output",
                str(tmp_path / "q.csv"),
            ],
        )
        assert result.exit_code == 1


class TestSample:
    def test_rerun_byte_identical(self, runner, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            result = runner.invoke(
                main,
                ["sample", "--copula", "clayton", "--rho", "0.9", "--n", "5000", "--seed", "7", "--output", str(out)],
            )
            assert result.exit_code == 0, result.output
        assert a.read_bytes() == b.read_bytes()

    def test_meta_carries_seed(self, runner, tmp_path):
        out = tmp_path / "s.json"
        result = runner.invoke(
            main,
            ["sample", "--copula", "gauss", "--rho", "0.3", "--n", "10", "--seed", "42", "--format", "json", "--output", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["meta"]["seed"] == 42
        assert payload["meta"]["n"] == 10
        assert len(payload["data"]["x"]) == 10

    def test_n_must_be_positive(self, runner):
        result = runner.invoke(main, ["sample", "--copula", "gauss", "--rho", "0.3", "--n", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("n", [sampler.MAX_PAIRS + 1, 10**15])
    def test_n_above_the_size_limit(self, runner, tmp_path, monkeypatch, n):
        # the count decides before any array exists.  Never run these
        # unpatched: 10^15 pairs once asked numpy for 16 PB, and exited 1
        # with a traceback
        def no_array(*args, **kwargs):
            raise AssertionError("an array of the sample was built")

        monkeypatch.setattr(np, "empty", no_array)
        out = tmp_path / "s.csv"
        result = runner.invoke(main, ["sample", "--copula", "gauss", "--rho", "0.5", "--n", str(n), "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert f"--n asks for {n} pairs, above the limit of {sampler.MAX_PAIRS}" in result.output
        assert not out.exists()

    def test_bad_seed_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["sample", "--copula", "gauss", "--rho", "0.3", "--n", "10", "--seed", "-1", "--output", str(tmp_path / "s.csv")]
        )
        assert result.exit_code == 2
        assert "--seed invalid" in result.output

    def test_numerical_failure_is_not_blamed_on_seed(self, runner, tmp_path, monkeypatch):
        # a t copula draw that saturates to 0, caught by sample_copula's range check
        monkeypatch.setitem(sampler._CHUNK_GENERATORS, CopulaFamily.STUDENT_T, lambda spec, rng, m: np.zeros((m, 2)))
        out = tmp_path / "s.csv"
        result = runner.invoke(
            main,
            ["sample", "--copula", "t", "--rho", "0.5", "--nu", "0.5", "--n", "2000", "--seed", "1", "--output", str(out)],
        )
        assert result.exit_code == 1
        assert "nu=0.5" in result.output
        assert "--seed" not in result.output
        assert not out.exists()

    # a sample set is a pure function of (spec, seed, n), and so are its bytes.
    # The first six were re-pinned when the array kernels of specfun took exp,
    # log and log1p from numpy instead of math (the normal quantile, and for
    # t the t CDF): at most 1.8e-15 relative, on 20 to 120 of the 4000 values.
    # n = 70000 crosses the 65536-pair chunk and the CSV row blocks; those
    # five are the bytes of the whole-chunk sampler and writer, which the
    # blocked ones keep.  The Clayton and Gumbel ones were re-pinned when
    # their frailties went to log space: at n = 70000 that moved 30% to 41%
    # of the values, by at most 8.5e-13 (Clayton) and 2.0e-14 (Gumbel).  The
    # two t ones were re-pinned when the t CDF took the quantile's side rule
    # for its incomplete beta, which moved it only where 3 nu/(nu + 2) < x^2
    # < nu: at n = 70000, 4.9% of the values moved, by at most 1.7e-15.
    # All eleven were re-pinned when the normal quantile became Wichura's
    # AS241 in one rational pass, and the Gauss margins became the drawn
    # normal pairs themselves: 74% to 81% of the values moved, most in the
    # upper tail, where the former Halley step was up to 1.1e-9 relative
    # off; the largest move was 2.9e-10 (5.3e-11 relative, Clayton at
    # n = 70000, x = 5.53), and the Gauss ones, which the Phi round trip
    # carried, moved by at most 2.5e-12
    @pytest.mark.parametrize(
        "args, digest",
        [
            (["--copula", "gauss", "--rho", "0.9", "--n", "2000"], "c370a91496bb4962a7e0221048be90c54f80b079e341c1971c6b0983106e3c24"),
            (["--copula", "t", "--rho", "0.9", "--n", "2000"], "1aada19c242f2b3247e378dd49ba3348bbe6d22981d1de0d19d2714e86ea5ac0"),
            (["--copula", "clayton", "--rho", "0.9", "--n", "2000"], "c9a6f6b62fda72221078642035875cc8c826e5224f010412818e516f6db34cdb"),
            (["--copula", "gumbel", "--rho", "0.9", "--n", "2000"], "2d33941a8f17ee691bb423a692a3ee735e44703ef862b54445d24deef39e93fa"),
            # re-pinned earlier when Frank's theta became the exact root of
            # tau(theta); with the former theta 12.025352564014565 the bytes
            # were as before
            (["--copula", "frank", "--rho", "0.9", "--n", "2000"], "c4e55ab99315de2917427dc1a1792841d5a21858bfa36428a537b2d80fa9f23f"),
            (
                ["--copula", "gumbel", "--rho", "0.5", "--n", "2000", "--format", "json"],
                "4a2a1612e07cc05c4a9346d7d4e1f87f08612198363f605244ab0173e9524910",
            ),
            (["--copula", "gauss", "--rho", "0.9", "--n", "70000"], "b58126d7c623fa36a7deffe63438ce0d1e21a89a11c8a4417cd322ab3850444b"),
            (["--copula", "t", "--rho", "0.9", "--n", "70000"], "c829ce20c75936e33a94f142da71a9237dcdf7dcd5fef7af5ae493ee24a9ab33"),
            (["--copula", "clayton", "--rho", "0.9", "--n", "70000"], "a3a19b61e30d402836fd6f0fd1e76af9813950d1f97a492f4b8ff09c07e07e4f"),
            (["--copula", "gumbel", "--rho", "0.9", "--n", "70000"], "acb9deb33ba7a6f28cd4eb1c949f65d5803fdd64e31614cbbd7d34848940e21a"),
            (["--copula", "frank", "--rho", "0.9", "--n", "70000"], "8a429bc8c566496cea451f42e72be6fa1d70266d2448109943a02bfe90c744c0"),
        ],
        ids=["gauss", "t", "clayton", "gumbel", "frank", "json", "gauss-70000", "t-70000", "clayton-70000", "gumbel-70000", "frank-70000"],
    )
    def test_artifact_bytes_pinned(self, runner, tmp_path, args, digest):
        out = tmp_path / "s.out"
        result = runner.invoke(main, ["sample", *args, "--seed", "7", "--output", str(out)])
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("copula", ["clayton", "gumbel"])
    def test_strong_dependence(self, runner, tmp_path, copula):
        # theta = 200 drew exact 0s (and 1s for Gumbel), and the normal
        # quantile of the margins failed with exit 1
        out = tmp_path / "s.csv"
        result = runner.invoke(main, ["sample", "--copula", copula, "--theta", "200", "--n", "20000", "--output", str(out)])
        assert result.exit_code == 0, result.output
        _, _, rows = read_csv(out)
        pairs = np.array(rows, dtype=float)
        assert np.all(np.isfinite(pairs))
        assert np.corrcoef(pairs.T)[0, 1] > 0.99

    def test_draw_outside_the_open_square_is_a_numerical_failure(self, runner, tmp_path, monkeypatch):
        monkeypatch.setitem(sampler._CHUNK_GENERATORS, CopulaFamily.CLAYTON, lambda spec, rng, m: np.zeros((m, 2)))
        out = tmp_path / "s.csv"
        result = runner.invoke(main, ["sample", "--copula", "clayton", "--theta", "60", "--n", "100", "--output", str(out)])
        assert result.exit_code == 1
        assert "clayton copula sampling failed for theta=60.0: a draw of 0.0 lies outside (0, 1)" in result.output
        assert not out.exists()

    def test_frank_strong_negative_dependence(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        result = runner.invoke(
            main, ["sample", "--copula", "frank", "--theta", "-800", "--n", "1000", "--output", str(out)]
        )
        assert result.exit_code == 0, result.output
        _, _, rows = read_csv(out)
        pairs = np.array(rows, dtype=float)
        assert pairs.shape == (1000, 2) and np.all(np.isfinite(pairs))
        # close to countermonotone: y = -x up to the copula's spread
        assert np.corrcoef(pairs.T)[0, 1] < -0.99


def _sample_run(copula, n, chunk, out):
    """The pairs that ``sumdist sample`` draws in substreams of ``chunk``
    pairs, and the CSV bytes it writes to ``out``."""
    drawn = []

    def recording(*args):
        drawn.append(sampler.sample_sum(*args))
        return drawn[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "sample_sum", recording)
        patch.setattr(sampler, "CHUNK_PAIRS", chunk)
        args = ["sample", "--copula", copula, "--rho", "0.9", "--n", str(n), "--seed", "7", "--output", str(out)]
        result = Runner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return drawn[0].pairs, out.read_bytes()


@functools.lru_cache(maxsize=None)
def _default_sample_run(copula, n, chunk):
    with tempfile.TemporaryDirectory() as directory:
        return _sample_run(copula, n, chunk, pathlib.Path(directory) / "s.csv")


class TestBlockSize:
    """The elementwise stages work lane by lane, so neither the sampler's
    block of pairs nor the writer's block of rows moves a bit."""

    # blocks of 4099 pairs straddle the chunk boundary at 65536.  Small
    # blocks cost one kernel call each: a block of one pair runs on 1000
    # pairs, and blocks of 7 straddle a chunk boundary of 4096 pairs, set
    # in both runs (at 65536 the five families took 30 s)
    @pytest.mark.parametrize(
        "block, n, chunk",
        [
            pytest.param(1, 1000, CHUNK_PAIRS, id="1-1000"),
            pytest.param(7, 4096 + 777, 4096, id="7-4873"),
            pytest.param(4099, CHUNK_PAIRS + 777, CHUNK_PAIRS, id=f"4099-{CHUNK_PAIRS + 777}"),
        ],
    )
    @pytest.mark.parametrize("copula", ["gauss", "t", "clayton", "gumbel", "frank"])
    def test_sample_independent_of_block_size(self, monkeypatch, tmp_path, copula, block, n, chunk):
        want_pairs, want_bytes = _default_sample_run(copula, n, chunk)
        monkeypatch.setattr(sampler, "BLOCK_PAIRS", block)
        monkeypatch.setattr(csvwriter, "BLOCK_ROWS", block)
        pairs, data = _sample_run(copula, n, chunk, tmp_path / "s.csv")
        assert pairs.tobytes() == want_pairs.tobytes()
        assert data == want_bytes


class TestDensity:
    def test_grid_rows_x_major(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        result = runner.invoke(
            main,
            [
                "density", "--copula", "gauss", "--rho", "0.0",
                "--half-width", "1", "--step", "1",
                "--output", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        _, header, rows = read_csv(out)
        assert header == ["x", "y", "f"]
        assert len(rows) == 9
        # x-major: x constant within each block of 3
        xs = [float(r[0]) for r in rows]
        assert xs == [-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        center = float(rows[4][2])
        assert center == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)

    def test_artifact_bytes_pinned(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        result = runner.invoke(
            main, ["density", "--copula", "clayton", "--rho", "0.9", "--step", "0.1", "--output", str(out)]
        )
        assert result.exit_code == 0, result.output
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        # re-pinned when specfun's array kernels took exp and log from numpy:
        # Phi and phi of the axis moved 1004 of the 10201 densities, by at most
        # 4.9e-16 relative.  Re-pinned again when the command dropped its z
        # flags: the meta line lost z_min, z_max and z_step, and the data rows
        # kept their bytes.  Re-pinned when the Clayton generator sum became
        # log1p(expm1(a1) + expm1(a2)), which does not cancel near
        # independence: 1458 of the 10201 densities moved, by at most 2.9e-14
        # relative, the kernel's own rounding at this theta (1.3e-14 against
        # 50-digit mpmath on either side)
        assert digest == "de9dd33ec7d0c1034af65da5f08db90528faf5a3ccfb6e8881372649559be09e"


def _csv(meta, columns):
    """The CSV artifact's bytes, joined from ``_serialize``'s blocks."""
    return b"".join(_serialize(meta, columns, "csv"))


def _serialize_per_value(meta, columns):
    """The CSV writer that formats value by value: the reference for ``_serialize``."""
    names = list(columns)
    lines = ["# meta: " + json.dumps(meta, sort_keys=True), ",".join(names)]
    for row in zip(*(columns[name] for name in names)):
        lines.append(",".join("%.17g" % (v,) if isinstance(v, float) else str(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


class TestSerialize:
    META = {"command": "test", "version": __version__}

    @pytest.mark.parametrize("existing", [b"the bytes of an earlier run\n", None], ids=["replace", "create"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, existing):
        # a block that fails after the first leaves the target as it was
        # and removes the temp file the blocks went to
        target = tmp_path / "a.csv"
        if existing is not None:
            target.write_bytes(existing)

        def blocks():
            yield b"first block\n"
            raise RuntimeError("the second block failed")

        with pytest.raises(RuntimeError, match="the second block failed"):
            cli._write_artifact(blocks(), str(target))
        assert not list(tmp_path.glob(".sumdist-*.tmp"))
        if existing is None:
            assert not target.exists()
        else:
            assert target.read_bytes() == existing

    @pytest.mark.parametrize(
        "columns",
        [
            # the sweep layout: a str column among float columns
            {"rho": [0.9, 0.5], "family": ["gauss", "clayton"], "q95": [3.2000000000000011, 2.65], "q99.5": [4.0, 3.75]},
            # numpy scalars, ints and special values, alone and mixed
            {"x": [np.float64(0.1), np.float64(-0.0), 1.0 / 3.0], "y": [math.nan, math.inf, -math.inf]},
            {"k": [1, 2, 3], "v": [0.5, np.float64(-0.0), 7]},
            {"z": [np.float64(1e-300), 2.5e300, -0.0], "n": [np.int64(4), True, None]},
            # one row, zero rows
            {"q": [0.95], "value": [3.2000000000000011]},
            {"x": [], "y": []},
        ],
        ids=["sweep", "specials", "ints", "numpy", "one-row", "no-rows"],
    )
    def test_matches_per_value_writer(self, columns):
        assert _csv(self.META, columns) == _serialize_per_value(self.META, columns)

    # the writer formats floats in numpy; each test below holds its bytes to
    # those of %.17g applied to one value at a time

    def _assert_float_bytes(self, values):
        x = np.asarray(values, dtype=np.float64)
        want = "".join("%.17g\n" % v for v in x.tolist()).encode()
        header = _csv(self.META, {"v": []})
        assert _csv(self.META, {"v": x}) == header + want

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        # every bit pattern equally likely, both signs: mostly beyond 1e16 or below 1e-4
        self._assert_float_bytes(rng.integers(0, 2**64, 3 * 10**5, dtype=np.uint64).view(np.float64))
        # the exponent drawn from 2^-15 .. 2^55, around the fixed-notation range
        sign = rng.integers(0, 2, 10**6, dtype=np.uint64) << np.uint64(63)
        exponent = rng.integers(1023 - 15, 1023 + 56, 10**6, dtype=np.uint64) << np.uint64(52)
        self._assert_float_bytes((sign | exponent | rng.integers(0, 2**52, 10**6, dtype=np.uint64)).view(np.float64))

    @given(st.lists(st.floats(), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_floats(self, values):
        self._assert_float_bytes(values)

    def test_neighbours_of_powers_of_ten(self):
        # 50 doubles either side of 10^k; where log10 rounds across the power,
        # the first guess of the decimal exponent is one off
        powers = np.array([10.0**k for k in range(-6, 19)])
        x = (powers.view(np.int64)[:, None] + np.arange(-50, 51)).view(np.float64).ravel()
        self._assert_float_bytes(np.concatenate([x, -x, [1e-4, 1e16]]))

    def test_half_way_ties_round_to_even(self):
        # x = odd / 2^(17 - e) in [10^e, 10^(e+1)): x * 10^(16 - e) = odd * 5^(16 - e) / 2
        # lies exactly half-way between two 17-digit integers
        rng = np.random.default_rng(7)
        values = []
        for e in range(-4, 16):
            scale = 2 ** (17 - e)
            lo, hi = math.ceil(10.0**e * scale) // 2, min(10 ** (e + 1) * scale, 2**53) // 2
            values.append((2 * rng.integers(lo, hi, 500) + 1) / scale)
        x = np.concatenate(values)
        self._assert_float_bytes(np.concatenate([x, -x]))

    def test_integers_powers_of_two_and_specials(self):
        ints = [*range(-1000, 1001), 2**53 - 1, 2**53, 2**53 + 2, *np.random.default_rng(3).integers(0, 2**53, 1000).tolist()]
        powers = [2.0**k for k in range(-1074, 1024)]
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
        self._assert_float_bytes([*map(float, ints), *powers, *(-v for v in powers), *specials])

    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_row_blocks(self, n):
        rng = np.random.default_rng(n)
        columns = {"x": rng.standard_normal(n), "k": list(range(n)), "y": (1e-6 * rng.standard_normal(n)).tolist()}
        want = _serialize_per_value(self.META, {**columns, "x": columns["x"].tolist()})
        assert _csv(self.META, columns) == want

    # the values that leave fixed notation, and the neighbours of its ends
    EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, *(
        (np.array([1e-4, 1e16]).view(np.int64)[:, None] + np.arange(-2, 3)).view(np.float64).ravel().tolist()
    )]

    @pytest.mark.parametrize("block", [1, 7, 4099])
    @pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "f")], ids=["sample", "density"])
    def test_edge_values_across_blocks(self, monkeypatch, block, names):
        monkeypatch.setattr(csvwriter, "BLOCK_ROWS", block)
        rng = np.random.default_rng(block)
        n = 2 * block + 20
        values = rng.standard_normal((n, len(names)))  # row-major, as the sample's pairs
        edges = [*self.EDGES, *(-v for v in self.EDGES)]
        # the rows either side of each block boundary, each column a different edge value
        rows = sorted({r for b in range(block, n, block) for r in range(b - 3, b + 3) if 0 <= r < n})
        for c in range(len(names)):
            for i, r in enumerate(rows):
                values[r, c] = edges[(i + 7 * c) % len(edges)]
        columns = {name: values[:, c] for c, name in enumerate(names)}
        assert _csv(self.META, columns) == _serialize_per_value(self.META, {k: v.tolist() for k, v in columns.items()})

    @pytest.mark.parametrize("block", [1, 7, 4099])
    def test_sweep_layout_across_blocks(self, monkeypatch, block):
        # str and mixed columns keep their bytes, NUL padded to whole words
        # and dropped; names of 1, 7, 8 and 17 bytes straddle the word size
        monkeypatch.setattr(csvwriter, "BLOCK_ROWS", block)
        n = 2 * block + 3
        rng = np.random.default_rng(n)
        families = ["t", "clayton", "gumbel-8", "frank-with-17-ch"]
        columns = {
            "rho": rng.uniform(0, 1, n).tolist(),
            "family": [families[i % 4] for i in range(n)],
            "q95": [self.EDGES[i % len(self.EDGES)] if i % 3 == 0 else float(v) for i, v in enumerate(rng.standard_normal(n))],
            "n": [[7, None, True, 2**70, 0.5, np.float64(-0.0)][i % 6] for i in range(n)],
            "q99.5": (10.0 ** rng.uniform(-5, 17, n)).tolist(),
        }
        assert _csv(self.META, columns) == _serialize_per_value(self.META, columns)

    def test_word_tables(self):
        # against the decimal text of each group, exponent and trailing-zero count
        texts = [f"{g:04d}" for g in range(10000)]
        assert csvwriter._QUADS.tolist() == [int.from_bytes(t.encode(), "little") for t in texts]
        assert csvwriter._TRAILING_ZEROS.tolist() == [len(t) - len(t.rstrip("0")) for t in texts]
        words = lambda table, entry: sum(int(table[j, entry]) << 64 * j for j in range(3))
        raw = int.from_bytes(b"\0" + b"12345678901234567", "little")  # the sign slot, then 17 digits
        for e in range(-4, 16):
            keep, shift, const = words(csvwriter._KEEP, e + 4), int(csvwriter._SHIFT[e + 4]), words(csvwriter._CONST, e + 4)
            fixed = format(decimal.Decimal("12345678901234567").scaleb(e - 16), "f")
            assert (raw & keep) | (raw - (raw & keep)) << shift | const == int.from_bytes(b"\0" + fixed.encode(), "little")
            for t in range(17):
                # %.17g cuts the fraction's trailing zeros, and the point if nothing follows it
                trimmed = format(decimal.Decimal("1" * (17 - t) + "0" * t).scaleb(e - 16), "f").rstrip("0").rstrip(".")
                assert words(csvwriter._END, 17 * (e + 4) + t) == (1 << 8 * (1 + len(trimmed))) - 1


class TestSweep:
    def test_matches_library_call(self, runner, tmp_path):
        out = tmp_path / "sw.csv"
        result = runner.invoke(
            main,
            ["sweep", "--families", "gauss,clayton", "--rhos", "0.5", "--output", str(out)],
        )
        assert result.exit_code == 0, result.output
        meta, header, rows = read_csv(out)
        assert header == ["rho", "family", "q95", "q99"]
        values = {r[1]: (float(r[2]), float(r[3])) for r in rows}
        reports = quantile_sweep([CopulaFamily.GAUSS, CopulaFamily.CLAYTON], [0.5])
        assert values["gauss"] == reports[0].values["gauss"]
        assert values["clayton"] == reports[0].values["clayton"]

    def test_unknown_family(self, runner):
        result = runner.invoke(main, ["sweep", "--families", "gauss,weird", "--rhos", "0.5"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "qs, names",
        [
            ("0.951,0.954", ["q95.1", "q95.4"]),
            ("0.99,0.995", ["q99", "q99.5"]),
            ("0.05,0.5", ["q05", "q50"]),
        ],
    )
    def test_level_columns_are_distinct_and_aligned(self, runner, tmp_path, qs, names):
        out = tmp_path / "sw.csv"
        result = runner.invoke(
            main, ["sweep", "--families", "gauss,clayton", "--rhos", "0.5", "--qs", qs, "--output", str(out)]
        )
        assert result.exit_code == 0, result.output
        _, header, rows = read_csv(out)
        assert header == ["rho", "family", *names]
        levels = [float(q) for q in qs.split(",")]
        report = quantile_sweep([CopulaFamily.GAUSS, CopulaFamily.CLAYTON], [0.5], levels)[0]
        for row in rows:
            assert tuple(float(v) for v in row[2:]) == report.values[row[1]]

    def test_equal_lattice_quantiles(self, runner, tmp_path):
        # the paper-exact quantiles of these close levels fall on one lattice point
        out = tmp_path / "sw.csv"
        result = runner.invoke(
            main, ["sweep", "--families", "gauss", "--rhos", "0.5", "--qs", "0.951,0.9511", "--output", str(out)]
        )
        assert result.exit_code == 0, result.output
        _, header, rows = read_csv(out)
        assert header == ["rho", "family", "q95.1", "q95.11"]
        assert len(rows) == 1 and rows[0][2] == rows[0][3]

    def test_refined_artifact_bytes_pinned(self, runner, tmp_path):
        out = tmp_path / "ref.csv"
        args = ["sweep", "--mode", "refined", "--step", "0.025", "--z-step", "0.025", "--rhos", "0.9,0.5,0.1"]
        result = runner.invoke(main, [*args, "--output", str(out)])
        assert result.exit_code == 0, result.output
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        # re-pinned when specfun's array kernels took exp, log and log1p from
        # numpy (the t and Clayton rows at rho = 0.9 and the Frank row at 0.1
        # moved, by at most 5.1e-15 relative); the Frank density's factored
        # form, in the same change, moved no quantile here.  Re-pinned when
        # the t quantile went to Newton steps from Hill's start, stopped at a
        # relative step of 1e-13 instead of an absolute residual of 1e-13:
        # only the three t rows moved, by at most 1.6e-13 relative.
        # Re-pinned when the crossed cells' triangles went from the east
        # edge-midpoint grid to the centroid rule on the cell-center grid's
        # own anti-diagonal sums: every row moved, by at most 1.43e-6 in a
        # quantile, and the worst Gauss quantile error went from 6.33e-5 to
        # 6.40e-5, which linear interpolation on the 0.025 z lattice sets.
        # Re-pinned when the normal quantile became Wichura's AS241: it moved
        # the start of the t quantile's Newton steps (Hill's), and so the
        # (0.5, t) and (0.1, t) rows, by at most 4.6e-15 relative
        assert digest == "a888bb66aac2219f902192f215e03afc69390aae23599e3fc7172235c2fec6d2"

    @pytest.mark.parametrize(
        "flag, value",
        [("--qs", "0.95,0.95"), ("--qs", "1.5"), ("--qs", "0"), ("--rhos", "1.5"), ("--rhos", "0.5,x")],
    )
    def test_bad_level_list_is_usage_error(self, runner, tmp_path, flag, value):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["sweep", "--families", "gauss", flag, value, "--output", str(out)])
        assert result.exit_code == 2
        assert flag in result.output
        assert not out.exists()


class TestReproduceTable2:
    def test_shape_and_nu_recorded(self, runner, tmp_path):
        out = tmp_path / "t2.csv"
        result = runner.invoke(main, ["reproduce-table2", "--nu", "3", "--output", str(out)])
        assert result.exit_code == 0, result.output
        meta, header, rows = read_csv(out)
        assert header == ["rho", "family", "q95", "q99"]
        assert len(rows) == 45  # 9 rhos x 5 families
        assert meta["nu"] == 3.0
        gauss_09 = next(r for r in rows if r[0] == "0.90000000000000002" and r[1] == "gauss")
        assert float(gauss_09[2]) == pytest.approx(3.21, abs=0.05 + 1e-9)

    def test_artifact_bytes_pinned(self, runner, tmp_path):
        out = tmp_path / "t2.csv"
        result = runner.invoke(main, ["reproduce-table2", "--output", str(out)])
        assert result.exit_code == 0, result.output
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "f0605be0c42e626bb0a7e9752fb1ad7e3a91089999d5765cba8b8dd034944ed2"


def _readme_cli_commands():
    """Each ``sumdist`` command of the README's CLI block, continuations joined."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"## CLI\n.*?```bash\n(.*?)```", text, re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("sumdist ")]


class TestReadme:
    @pytest.mark.parametrize("command", _readme_cli_commands())
    def test_cli_example_runs(self, runner, tmp_path, monkeypatch, command):
        argv = shlex.split(command)[1:]
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output

    def test_every_command_has_an_example(self):
        commands = {shlex.split(line)[1] for line in _readme_cli_commands()}
        (subcommands,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert commands == set(subcommands.choices)


def _fresh(*argv: str) -> subprocess.CompletedProcess:
    """``python *argv`` run in a new interpreter that imports this sumdist."""
    src = os.path.dirname(os.path.dirname(sumdist.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports this sumdist."""
    proc = _fresh("-c", code)
    proc.check_returncode()
    return proc.stdout.strip()


def _loaded_after(*argv: str) -> list[str]:
    """The ``sumdist.`` modules a new interpreter holds after ``main(argv)``."""
    code = (
        "import sys, sumdist.cli\n"
        f"sumdist.cli.main({list(argv)!r})\n"
        "print(sorted(m for m in sys.modules if m.startswith('sumdist.')))"
    )
    return ast.literal_eval(_fresh_python(code).splitlines()[-1])


class TestEntryPoints:
    @pytest.mark.parametrize("flag, shown", [("--help", "usage: sumdist [--help] [--version] COMMAND"), ("--version", f"sumdist, version {__version__}")])
    def test_module_runs(self, flag, shown):
        proc = _fresh("-m", "sumdist.cli", flag)
        assert proc.returncode == 0, proc.stderr
        assert shown in proc.stdout

    def test_module_exit_codes(self, tmp_path):
        # the process entry keeps main's statuses and its piped summary line;
        # the bytes are TestSample's gauss pin, re-pinned with it
        out = tmp_path / "s.csv"
        proc = _fresh("-m", "sumdist.cli", "sample", "--copula", "gauss", "--rho", "0.9", "--n", "2000", "--seed", "7", "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"sample family=gauss rho=0.9 n=2000 seed=7 rows=2000 sha256=c370a91496bb4962 -> {out}\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == "c370a91496bb4962a7e0221048be90c54f80b079e341c1971c6b0983106e3c24"
        proc = _fresh("-m", "sumdist.cli", "sample", "--copula", "gauss", "--rho", "0.9", "--n", "0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "Error: --n must be >= 1, got 0\n")
        # a level the table does not bracket: a numerical failure
        proc = _fresh("-m", "sumdist.cli", "quantile", "--copula", "gauss", "--rho", "0.5", "--q", "0.99", "--z-min", "-2", "--z-max", "2",
                      "--output", str(tmp_path / "q.csv"))
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr.startswith("Error: q=0.99 not bracketed by the gauss (rho=0.5) paper-exact table")

    @pytest.mark.parametrize("argv", [["--version"], ["sample", "--copula", "gauss", "--rho", "0.5", "--n", "0"]], ids=["exit-0", "exit-2"])
    def test_process_entry_freezes_the_heap(self, argv):
        # on every way out, so that shutdown's collections skip the heap
        code = (
            "import gc, sys, sumdist.cli\n"
            f"sys.argv = ['sumdist', *{argv!r}]\n"
            "try:\n"
            "    sumdist.cli.run()\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(gc.get_freeze_count() > 0)"
        )
        assert _fresh_python(code).splitlines()[-1] == "True"

    def test_in_process_call_leaves_the_collector_as_it_was(self, runner, tmp_path):
        frozen = gc.get_freeze_count()
        result = runner.invoke(main, ["sample", "--copula", "gauss", "--rho", "0.5", "--n", "10", "--output", str(tmp_path / "s.csv")])
        assert result.exit_code == 0, result.output
        assert runner.invoke(main, ["sample", "--copula", "gauss", "--rho", "0.5", "--n", "0"]).exit_code == 2
        assert gc.get_freeze_count() == frozen

    def test_script_calls_what_the_main_guard_calls(self):
        pyproject = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")
        with open(pyproject, encoding="utf-8") as handle:
            target = re.search(r'^\[project\.scripts\]\nsumdist = "(.*)"$', handle.read(), re.M).group(1)
        (guard,) = [node for node in ast.parse(inspect.getsource(cli)).body
                    if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
        module, name = target.split(":")
        assert module == "sumdist.cli" and callable(getattr(cli, name))
        assert [ast.unparse(stmt) for stmt in guard.body] == [f"{name}()"]

    def test_in_process_call_returns(self, tmp_path):
        # the call a traced benchmark replay makes: it returns instead of
        # exiting, and a failure is raised for the caller to count
        out = tmp_path / "s.csv"
        args = ["sweep", "--families", "gauss", "--rhos", "0.5", "--output", str(out)]
        assert main(args=args, prog_name="sumdist", standalone_mode=False) is None
        assert read_csv(out)[1] == ["rho", "family", "q95", "q99"]
        with pytest.raises(cli.UsageError, match="No such option: --flag"):
            main(args=["dist", "--copula", "gauss", "--rho", "0.5", "--flag"], prog_name="sumdist", standalone_mode=False)


class TestImport:
    def test_cli_import_leaves_click_out(self):
        # the parser is argparse: numpy is the only package a run imports
        assert _fresh_python("import sys, sumdist.cli; print('click' in sys.modules)") == "False"

    def test_cli_import_leaves_concurrent_futures_out(self):
        assert _fresh_python("import sys, sumdist.cli; print('concurrent.futures' in sys.modules)") == "False"

    def test_cli_import_leaves_the_csv_writer_out(self):
        # every run compiles the writer it imports; only CSV output needs it
        assert _fresh_python("import sys, sumdist.cli; print('sumdist.csvwriter' in sys.modules)") == "False"

    def test_cli_import_leaves_the_sampler_out(self):
        # only `sample` needs it
        assert _fresh_python("import sys, sumdist.cli; print('sumdist.sampler' in sys.modules)") == "False"

    def test_cli_import_leaves_the_integration_modules_out(self):
        # only the commands that tabulate or sweep load them, when they run
        code = "import sys, sumdist.cli; print([m for m in ('sumdist.grid', 'sumdist.jointdensity', 'sumdist.sumcdf') if m in sys.modules])"
        assert _fresh_python(code) == "[]"

    @pytest.mark.parametrize("copula", ["gauss", "t"])
    def test_sample_loads_only_what_it_runs(self, tmp_path, copula):
        loaded = _loaded_after("sample", "--copula", copula, "--rho", "0.5", "--n", "10", "--output", str(tmp_path / "s.csv"))
        assert loaded == ["sumdist.cli", "sumdist.copula", "sumdist.csvwriter", "sumdist.errors", "sumdist.sampler", "sumdist.specfun"]

    def test_sampler_import_leaves_sumcdf_out(self):
        # only empirical_cdf needs it, and imports it when called
        assert _fresh_python("import sys, sumdist.sampler; print('sumdist.sumcdf' in sys.modules)") == "False"

    def test_density_leaves_sumcdf_out(self, tmp_path):
        loaded = _loaded_after("density", "--copula", "gauss", "--rho", "0.5", "--step", "0.5", "--output", str(tmp_path / "d.csv"))
        assert "sumdist.jointdensity" in loaded and "sumdist.sumcdf" not in loaded

    def test_mode_choices_are_the_integration_modes(self):
        # the parser lists them itself, so that building it loads no sumcdf
        from sumdist import sumcdf

        assert list(cli._MODES) == [m.value for m in sumcdf.integrators()]
        assert cli._MODES[0] == sumcdf.TableMode.PAPER_EXACT.value

    def test_cli_import_leaves_the_t_quantile_out(self):
        # only a t axis needs it
        assert _fresh_python("import sys, sumdist.cli; print('sumdist._tquantile' in sys.modules)") == "False"

    def test_package_import_loads_no_module(self):
        code = "import sys, sumdist; print(sorted(m for m in sys.modules if m.startswith('sumdist.')))"
        assert _fresh_python(code) == "[]"

    def test_public_names(self):
        assert sumdist.__all__ == sorted(
            """CopulaFamily CopulaSpec DistributionTable DomainError GridSpec
            PAPER_GRID QuantileOutOfRange QuantileReport RandomSource SampleSet
            TABLE2_RHOS TableMode __version__ cdf_paper_exact cdf_refined copula_cdf copula_density
            empirical_cdf estimate_spearman_rho estimate_tau joint_pdf joint_pdf_grid quantile
            quantile_sweep sample_copula sample_sum spec_from_rho
            tau_from_pearson_rho tau_from_theta theta_from_tau""".split()
        )

    def test_every_public_name_resolves(self):
        # in a new interpreter, where no module is loaded yet
        code = (
            "import sumdist\n"
            "names = {}\n"
            "exec('from sumdist import *', names)\n"
            "missing = [n for n in sumdist.__all__ if n not in names or getattr(sumdist, n) is not names[n]]\n"
            "print(missing, sorted(set(sumdist.__all__) - set(dir(sumdist))))"
        )
        assert _fresh_python(code) == "[] []"

    def test_public_names_are_the_modules_objects(self):
        from sumdist import copula, jointdensity, sumcdf

        assert sumdist.sample_sum is sampler.sample_sum
        assert sumdist.CopulaSpec is copula.CopulaSpec
        assert sumdist.joint_pdf_grid is jointdensity.joint_pdf_grid
        assert sumdist.quantile_sweep is sumcdf.quantile_sweep

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            sumdist.no_such_name

    def test_sample_sum_is_a_module_global_of_the_cli(self):
        # the `sample` command calls it by name, so a wrapper set on it is used
        assert callable(cli.__dict__["sample_sum"])

    @pytest.mark.parametrize(
        "module, owner, name",
        [
            pytest.param("cli", None, "quantile_sweep", id="quantile_sweep"),
            pytest.param("cli", None, "spec_from_rho", id="spec_from_rho"),
            pytest.param("cli", None, "_emit", id="_emit"),
            pytest.param("cli", None, "_write_artifact", id="_write_artifact"),
            pytest.param("sumcdf", None, "spec_from_rho", id="sumcdf.spec_from_rho"),
            pytest.param("sumcdf", None, "_sweep_cell", id="sumcdf._sweep_cell"),
            pytest.param("sumcdf", None, "cdf_paper_exact", id="sumcdf.cdf_paper_exact"),
            pytest.param("sumcdf", None, "cdf_refined", id="sumcdf.cdf_refined"),
            pytest.param("sumcdf", None, "quantile", id="sumcdf.quantile"),
            pytest.param("sumcdf", None, "_grid_on_axes", id="sumcdf._grid_on_axes"),
            pytest.param("sumcdf", None, "antidiagonal_sums", id="sumcdf.antidiagonal_sums"),
            pytest.param("jointdensity", None, "_grid_on_axes", id="jointdensity._grid_on_axes"),
            pytest.param("jointdensity", None, "_axis_coordinate", id="jointdensity._axis_coordinate"),
            # the copula kernels run under this name (copula.kernel_s)
            pytest.param("jointdensity", None, "_density_from_coords", id="jointdensity._density_from_coords"),
            pytest.param("sampler", None, "sample_copula", id="sampler.sample_copula"),
            pytest.param("sampler", "RandomSource", "uniform_block", id="sampler.RandomSource.uniform_block"),
            pytest.param("sampler", "RandomSource", "normal_block", id="sampler.RandomSource.normal_block"),
            pytest.param("sampler", "RandomSource", "gamma_block", id="sampler.RandomSource.gamma_block"),
            pytest.param("sampler", "RandomSource", "chi_square_block", id="sampler.RandomSource.chi_square_block"),
        ],
    )
    def test_traced_names_are_module_globals_of_the_cli(self, module, owner, name):
        # likewise for the names bench/tracer.py wraps, which it looks up in
        # the module's or the class's own __dict__ and otherwise lists as not
        # traced; the sweep command imports sumcdf only when it calls
        # quantile_sweep
        namespace = importlib.import_module(f"sumdist.{module}").__dict__
        if owner is not None:
            namespace = namespace[owner].__dict__
        assert callable(namespace[name])
