"""CLI contract tests: flags, exit codes, serialization round-trips."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from sumdist import __version__
from sumdist.cli import main
from sumdist.copula import CopulaSpec
from sumdist.grid import GridSpec
from sumdist.sumcdf import cdf_paper_exact


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

    def test_bad_grid(self, runner):
        result = runner.invoke(
            main, ["dist", "--copula", "gauss", "--rho", "0.5", "--step", "0.033"]
        )
        assert result.exit_code == 2

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

    def test_numerical_failure_is_not_blamed_on_seed(self, runner, tmp_path):
        # at nu = 0.01 some chi-square draws underflow to 0
        out = tmp_path / "s.csv"
        result = runner.invoke(
            main,
            ["sample", "--copula", "t", "--rho", "0.5", "--nu", "0.01", "--n", "2000", "--seed", "1", "--output", str(out)],
        )
        assert result.exit_code == 1
        assert "nu=0.01" in result.output
        assert "--seed" not in result.output
        assert not out.exists()


class TestDensity:
    def test_grid_rows_x_major(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        result = runner.invoke(
            main,
            [
                "density", "--copula", "gauss", "--rho", "0.0",
                "--half-width", "1", "--step", "1", "--z-min", "-1", "--z-max", "1", "--z-step", "1",
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
        from sumdist.copula import CopulaFamily
        from sumdist.sumcdf import quantile_sweep

        reports = quantile_sweep([CopulaFamily.GAUSS, CopulaFamily.CLAYTON], [0.5])
        assert values["gauss"] == reports[0].values["gauss"]
        assert values["clayton"] == reports[0].values["clayton"]

    def test_thread_count_does_not_change_output(self, runner, tmp_path):
        outputs = []
        for threads in ("1", "5"):
            out = tmp_path / f"sw{threads}.csv"
            result = runner.invoke(
                main,
                ["sweep", "--families", "gauss,gumbel", "--rhos", "0.3,0.7", "--output", str(out)],
                env={"SUMDIST_THREADS": threads},
            )
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_unknown_family(self, runner):
        result = runner.invoke(main, ["sweep", "--families", "gauss,weird", "--rhos", "0.5"])
        assert result.exit_code == 2

    def test_bad_threads_env(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", "--families", "gauss", "--rhos", "0.5", "--output", str(tmp_path / "x.csv")],
            env={"SUMDIST_THREADS": "zero"},
        )
        assert result.exit_code == 2


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
