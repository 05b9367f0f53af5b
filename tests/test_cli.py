"""CLI contract tests: flags, exit codes, serialization round-trips."""

import functools
import hashlib
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import sumdist
from sumdist import __version__, cli, csvwriter, sampler
from sumdist.cli import _serialize, main
from sumdist.copula import CopulaFamily, CopulaSpec
from sumdist.csvwriter import BLOCK_ROWS
from sumdist.grid import GridSpec
from sumdist.sampler import CHUNK_PAIRS
from sumdist.sumcdf import cdf_paper_exact, quantile_sweep


@pytest.fixture()
def runner():
    return CliRunner()


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
        "args, message",
        [
            (["dist", "--copula", "gauss", "--rho", "1.0"], "requires -1 < rho < 1, got 1.0"),
            (["dist", "--copula", "gauss", "--rho", "nan"], "requires -1 < rho < 1, got nan"),
            (["dist", "--copula", "t", "--rho", "0.5", "--nu", "-1"], "requires nu > 0, got -1.0"),
            (["sample", "--copula", "gauss", "--rho", "-1", "--n", "5"], "requires -1 < rho < 1, got -1.0"),
            (["sweep", "--families", "t", "--nu", "-2"], "requires nu > 0, got -2.0"),
            (["reproduce-table2", "--nu", "nan"], "requires nu > 0, got nan"),
            # before, these exited 1 after RuntimeWarnings in the kernels
            (["dist", "--copula", "t", "--rho", "0.5", "--nu", "1e-3"], "requires 0.2 <= nu <= 1e+06, got 0.001"),
            (["dist", "--copula", "t", "--rho", "0.5", "--nu", "1e300"], "requires 0.2 <= nu <= 1e+06, got 1e+300"),
            (["sample", "--copula", "t", "--rho", "0.5", "--nu", "0.01", "--n", "5"], "requires 0.2 <= nu <= 1e+06, got 0.01"),
            (["sweep", "--families", "t", "--nu", "2e6"], "requires 0.2 <= nu <= 1e+06, got 2000000.0"),
        ],
    )
    def test_invalid_elliptical_parameters(self, runner, args, message):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert message in result.output
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
    # of the values, by at most 8.5e-13 (Clayton) and 2.0e-14 (Gumbel)
    @pytest.mark.parametrize(
        "args, digest",
        [
            (["--copula", "gauss", "--rho", "0.9", "--n", "2000"], "74dfe49054303e2f4e96e526153118f61e3b3dc8ee631d55649ceaccc725bfca"),
            (["--copula", "t", "--rho", "0.9", "--n", "2000"], "5be7a60b7722fc36dfcca9fa60d7d5c647a59bef9fed335abf9e9d62639646f3"),
            (["--copula", "clayton", "--rho", "0.9", "--n", "2000"], "72cbd29e632daa771caab340122b739ceda51b5323762cce46739544821e4288"),
            (["--copula", "gumbel", "--rho", "0.9", "--n", "2000"], "b96bbedee3b74c8644eccd5e7caa6488eb59755b62c573041237c9aa14eb5832"),
            # re-pinned earlier when Frank's theta became the exact root of
            # tau(theta); with the former theta 12.025352564014565 the bytes
            # were as before
            (["--copula", "frank", "--rho", "0.9", "--n", "2000"], "412d2caf1a444d47864bced922671a46d14a99521b3e5293e28714ca7c0a0d91"),
            (
                ["--copula", "gumbel", "--rho", "0.5", "--n", "2000", "--format", "json"],
                "31760a05f05bc185a3b9efb429f6b3fb067bc6b65163dcd87804798cae3f3358",
            ),
            (["--copula", "gauss", "--rho", "0.9", "--n", "70000"], "7a380a5f766f876c2c5d0f5a5cf7a64c92681830caf04b82dfb413cbf80e2dcf"),
            (["--copula", "t", "--rho", "0.9", "--n", "70000"], "19cc7ac7ddd45c6f7a6456c98eb3da77197104c6074be2ebdf202634c0678eb8"),
            (["--copula", "clayton", "--rho", "0.9", "--n", "70000"], "45c093fc96bb944e08e0faf7dda33540841b31cb9d5ee70377aedcd020882faa"),
            (["--copula", "gumbel", "--rho", "0.9", "--n", "70000"], "2091f90954d894f7becd50ca10daac1b2ff1f390738b61cbeb57b74caa6d9de6"),
            (["--copula", "frank", "--rho", "0.9", "--n", "70000"], "1c25ae342a43b66c0ef06b3e22d483e7ef1c6fe2f8ee4773a1097d4d782261be"),
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
        result = CliRunner().invoke(main, args)
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
        # kept their bytes
        assert digest == "337ff7aae9e6fecedda34b2ca2e6057d914912d07337e166cb9c64a84204acd9"


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
        # form, in the same change, moved no quantile here
        assert digest == "e5141b0f229abe8517a76c77f842fcd9897d21454d82c4ef3bd2385677910272"

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
    def test_cli_example_runs(self, runner, tmp_path, command):
        argv = shlex.split(command)[1:]
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output

    def test_every_command_has_an_example(self):
        commands = {shlex.split(line)[1] for line in _readme_cli_commands()}
        assert commands == set(main.commands)


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports this sumdist."""
    src = os.path.dirname(os.path.dirname(sumdist.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


class TestImport:
    def test_cli_import_leaves_concurrent_futures_out(self):
        assert _fresh_python("import sys, sumdist.cli; print('concurrent.futures' in sys.modules)") == "False"

    def test_cli_import_leaves_the_csv_writer_out(self):
        # every run compiles the writer it imports; only CSV output needs it
        assert _fresh_python("import sys, sumdist.cli; print('sumdist.csvwriter' in sys.modules)") == "False"

    def test_cli_import_leaves_the_sampler_out(self):
        # only `sample` needs it
        assert _fresh_python("import sys, sumdist.cli; print('sumdist.sampler' in sys.modules)") == "False"

    def test_package_import_loads_no_module(self):
        code = "import sys, sumdist; print(sorted(m for m in sys.modules if m.startswith('sumdist.')))"
        assert _fresh_python(code) == "[]"

    def test_public_names(self):
        assert sumdist.__all__ == sorted(
            """CopulaFamily CopulaSpec DependenceSummary DistributionTable DomainError GridSpec
            PAPER_GRID QuantileOutOfRange QuantileReport RandomSource SampleSet
            TABLE2_RHOS TableMode __version__ cdf_paper_exact cdf_refined copula_cdf copula_density
            empirical_cdf estimate_spearman_rho estimate_tau joint_pdf joint_pdf_grid quantile
            quantile_sweep sample_copula sample_sum spec_from_rho summarize_dependence
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
