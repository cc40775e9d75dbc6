import json
import time

import numpy as np
import pytest
from scipy.stats import multivariate_t

from robust_t import cli
from robust_t.estimators import DEFAULT_Q, NORM_DEFINITION
from robust_t.simulation import SimulationSpec, contaminate, generate_replicate, preset_case
from robust_t.tdist import MvtParams, sample


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = cli.main(["sample", "--n", "80", "--mu", "2,1", "--sigma", "1,0;0,1",
                     "--nu", "3", "--seed", "4", "--output", str(path)])
    assert code == 0
    return path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(err):
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def fit_csv(capsys, tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_text(text)
    return run(capsys, "fit", str(path))


def no_simulation(*args, **kwargs):
    raise AssertionError("run_simulation must not be called")


def no_fit(*args, **kwargs):
    raise AssertionError("fit_many must not be called")


def strict_json(path):
    """Parse path as JSON, failing on the NaN and Infinity tokens strict parsers reject."""
    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestFit:
    def test_ml_fit_writes_json(self, capsys, data_csv):
        code, out, err = run(capsys, "fit", str(data_csv))
        assert code == 0 and err == ""
        result = json.loads(out)
        assert result["method"] == "ml" and result["q"] is None
        assert result["stopping_norm_definition"] == NORM_DEFINITION
        assert "nu if estimated" in NORM_DEFINITION

    def test_q_with_ml_rejected(self, capsys, data_csv):
        code, out, err = run(capsys, "fit", str(data_csv), "--method", "ml", "--q", "0.5")
        assert code == 1 and out == ""
        assert_one_line_error(err)
        assert "--q" in err

    def test_infinite_epsilon_rejected(self, capsys, data_csv):
        # every fit would stop after one evaluation, reported as converged
        code, out, err = run(capsys, "fit", str(data_csv), "--epsilon", "inf")
        assert code == 1 and out == ""
        assert_one_line_error(err)

    def test_q_with_mlq_accepted(self, capsys, data_csv):
        code, out, _ = run(capsys, "fit", str(data_csv), "--method", "mlq", "--q", "0.5")
        assert code == 0
        assert json.loads(out)["q"] == 0.5

    def test_iteration_cap_exits_2_with_the_unconverged_fit(self, capsys, data_csv):
        code, out, err = run(capsys, "fit", str(data_csv), "--max-iter", "1")
        assert code == 2 and err == ""
        result = json.loads(out)
        assert result["converged"] is False and result["iterations"] == 1

    def test_estimate_nu_flag_is_gone(self, capsys, data_csv):
        code, out, err = run(capsys, "fit", str(data_csv), "--estimate-nu")
        assert code == 1 and out == ""
        assert_one_line_error(err)

    @pytest.mark.parametrize("text", ["1,2\n3,4\n5,6\n", "0,0\n2,2\n"])
    def test_rank_deficient_data_is_an_error(self, capsys, tmp_path, text):
        code, out, err = fit_csv(capsys, tmp_path, text)
        assert code == 1 and out == ""
        assert_one_line_error(err)

    def test_objective_that_overflows_is_an_error(self, capsys, tmp_path):
        # lq(f) at q = 0.1 of densities in units of 1e-40 exceeds the double range
        path = tmp_path / "tiny.csv"
        params = MvtParams(np.zeros(10), np.eye(10), 3.0)
        cli.write_matrix_csv(path, 1e-40 * sample(params, 300, np.random.default_rng(0)))
        code, out, err = run(capsys, "fit", str(path), "--method", "mlq", "--q", "0.1",
                             "--nu", "3")
        assert code == 1 and out == ""
        assert_one_line_error(err)
        assert "objective is not finite" in err


def test_fit_of_many_gaussian_rows_converges(capsys, tmp_path):
    path = tmp_path / "gaussian.csv"
    cli.write_matrix_csv(path, np.random.default_rng(3).standard_normal((20000, 2)))
    code, out, err = run(capsys, "fit", str(path))
    assert code == 0 and err == ""
    assert json.loads(out)["converged"] is True


def test_sample_with_a_negative_seed_is_an_error(capsys, tmp_path):
    code, out, err = run(capsys, "sample", "--n", "5", "--mu", "0", "--sigma", "1", "--nu", "3",
                         "--seed", "-1", "--output", str(tmp_path / "out.csv"))
    assert code == 1 and out == ""
    assert_one_line_error(err)
    assert "--seed" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, message", [
    (["sample", "--mu", "1,x", "--sigma", "1,0;0,1"], "cannot parse vector '1,x'"),
    (["sample", "--mu", "0,0", "--sigma", "1,x;0,1"], "cannot parse matrix"),
    (["sample", "--mu", "0,0", "--sigma", "1,0;0"], "have unequal lengths"),
    (["simulate", "--case", "1", "--outlier-range", "5"], "range must be lo:hi"),
    (["showcase", "--mu", "0,0"], "showcase needs --case or all of --mu/--sigma/--nu"),
], ids=["vector", "matrix", "ragged-matrix", "range", "showcase-truth"])
def test_a_flag_value_that_does_not_parse_is_an_error(capsys, tmp_path, monkeypatch, command,
                                                       message):
    monkeypatch.setattr(cli, "run_simulation", no_simulation)
    monkeypatch.setattr(cli, "fit_many", no_fit)
    # the command's other required flags, then its output
    rest = {"sample": ["--n", "5", "--nu", "3", "--output"], "simulate": ["--n", "20", "--output"],
            "showcase": ["--out"]}[command[0]]
    code, out, err = run(capsys, *command, *rest, str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert_one_line_error(err)
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: robust-t")


@pytest.mark.filterwarnings("error")
def test_sample_whose_draws_are_not_finite_is_an_error(capsys, tmp_path):
    code, out, err = run(capsys, "sample", "--n", "3", "--mu", "0", "--sigma", "1",
                         "--nu", "1e-300", "--output", str(tmp_path / "out.csv"))
    assert code == 1 and out == ""
    assert_one_line_error(err)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.filterwarnings("error")
def test_fit_of_rows_whose_sums_overflow_is_an_error(capsys, tmp_path):
    code, out, err = fit_csv(capsys, tmp_path, "1e308,-1e308\n-1e308,1e308\n1e308,1e308\n")
    assert code == 1 and out == ""
    assert_one_line_error(err)
    assert "overflow" in err


class TestReadMatrixCsv:
    def test_header_row_and_blank_lines_skipped(self, capsys, tmp_path, data_csv):
        lines = data_csv.read_text().splitlines()
        _, plain, _ = run(capsys, "fit", str(data_csv))
        for text in ("x,y\n" + "\n".join(lines) + "\n",
                     "\n".join(lines[:3] + ["", " , "] + lines[3:]) + "\n\n"):
            code, out, err = fit_csv(capsys, tmp_path, text)
            assert code == 0 and err == ""
            assert out == plain

    def test_ragged_row_named(self, capsys, tmp_path):
        code, _, err = fit_csv(capsys, tmp_path, "1,2\n3,4\n\n5\n6,7\n")
        assert code == 1
        assert_one_line_error(err)
        assert "row 4" in err

    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-inf"])
    def test_bad_cell_named_by_row_and_column(self, capsys, tmp_path, cell):
        code, _, err = fit_csv(capsys, tmp_path, f"1,2\n3,4\n5,{cell}\n6,7\n")
        assert code == 1
        assert_one_line_error(err)
        assert "row 3, column 2" in err

    @pytest.mark.parametrize("first, column", [("1,abc", 2), ("abc,1", 1), ("1,", 2)])
    def test_first_row_with_a_number_is_data(self, capsys, tmp_path, first, column):
        code, out, err = fit_csv(capsys, tmp_path, f"{first}\n1,2\n3,5\n4,4\n6,7\n")
        assert code == 1 and out == ""
        assert_one_line_error(err)
        assert f"row 1, column {column}" in err

    @pytest.mark.parametrize("text", ["", "\n\n", "x,y\n"])
    def test_no_observations(self, capsys, tmp_path, text):
        code, _, err = fit_csv(capsys, tmp_path, text)
        assert code == 1
        assert_one_line_error(err)

    @pytest.mark.parametrize("row, cell", [("#,3", "'#'"), ("3,4 # note", "'4 # note'")])
    def test_hash_is_a_cell_not_a_comment(self, capsys, tmp_path, row, cell):
        code, out, err = fit_csv(capsys, tmp_path, f"1,2\n{row}\n4,4\n6,7\n")
        assert code == 1 and out == ""
        assert_one_line_error(err)
        assert f"non-numeric value {cell} at row 2" in err

    def test_quoted_numbers_and_crlf_line_ends(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(b'x,y\r\n"1","2.5"\r\n3,"-4"\r\n')
        assert np.array_equal(cli.read_matrix_csv(str(path)), [[1.0, 2.5], [3.0, -4.0]])

    def test_one_column_is_n_by_1(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_text("1\n2\n3\n")
        assert np.array_equal(cli.read_matrix_csv(str(path)), [[1.0], [2.0], [3.0]])

    def test_undecodable_bytes_are_an_error_not_a_traceback(self, capsys, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(b"1,2\n3,\xff4\n")
        code, out, err = run(capsys, "fit", str(path))
        assert code == 1 and out == ""
        assert_one_line_error(err)

    def test_bad_cell_after_header_named_by_its_row_in_the_file(self, capsys, tmp_path):
        code, _, err = fit_csv(capsys, tmp_path, "x,y\n1,2\n3,abc")
        assert code == 1
        assert_one_line_error(err)
        assert "row 3, column 2" in err

    # Blank rows, quotes and NULs, each input with the array or error of the blank-row scan;
    # most reach that scan only after the one numpy call is refused. loadtxt warns on an
    # input with no rows, and the warning filter makes that warning fail the test.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("raw", [
        b"\n\nx,y\n1,-0\n0.1,4\n",
        b"  \n , \nx,y\n1,-0\n0.1,4\n",
        b"\n\n1,-0\n0.1,4\n",
        b"x,y\n1,-0\n   \n0.1,4\n",
        b'x,y\n1,-0\n""\n0.1,4\n',
        b'1,-0\n" "\n0.1,4\n\t\n',
        b",\n1,-0\n0.1,4\n",
        b",\nx,y\n1,-0\n0.1,4\n",
        b",,,\n1,-0\n0.1,4\n",
        b"x,y\r\n\r\n1,-0\r\n\r\n0.1,4\r\n\r\n",
        b"\r\n\r\n1,-0\r\n \r\n0.1,4\r\n",
        b"x\x00,y\n1,-0\n0.1,4\n",
        b"x,y\x00\x00\n1,-0\n\n0.1,4\n",
        b'"x","y"\n1,-0\n\n0.1,4\n',
        b'1,"\n  \n-0"\n0.1,4\n',
    ], ids=["blank-before-header", "blank-cells-before-header", "blank-before-data",
            "whitespace-row", "quotes-row", "blank-quote-and-tab-rows", "comma-line-0",
            "comma-line-0-then-header", "commas-line-0", "crlf-header", "crlf-data",
            "header-nul", "header-nuls", "quoted-header", "quote-over-a-blank-row"])
    def test_blank_rows_anywhere_give_the_rows(self, tmp_path, raw):
        path = tmp_path / "input.csv"
        path.write_bytes(raw)
        values = cli.read_matrix_csv(str(path))
        assert values.shape == (2, 2)
        assert values.tobytes() == np.array([[1.0, -0.0], [0.1, 4.0]]).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("raw, message", [
        (b"x,y\n\n\n", "no observations"),
        (b"x,y\n  \n , \n", "no observations"),
        (b'x,y\n""\n', "no observations"),
        (b"x,y\r\n\r\n \r\n", "no observations"),
        (b"1\x00,2\n3,4\n5,6\n", "non-numeric value '1' at row 1, column 1"),
        (b'1,"2\n\n3,4\n', "unreadable row 1"),
        (b'x,y\n1,"2\n" \n3,4\n', "unreadable row 2"),
    ], ids=["header-then-empty", "header-then-blank", "header-then-quotes", "crlf-header-only",
            "data-nul", "quote-before-an-empty-row", "quote-before-a-blank-row"])
    def test_blank_rows_anywhere_give_the_error(self, tmp_path, raw, message):
        path = tmp_path / "input.csv"
        path.write_bytes(raw)
        with pytest.raises(cli._UsageError) as error:
            cli.read_matrix_csv(str(path))
        assert str(error.value) == f"{path}: {message}"

    def test_a_plain_file_is_one_parse(self, tmp_path, monkeypatch):
        def no_scan(text):
            raise AssertionError("the blank-row scan must not run")
        monkeypatch.setattr(cli, "_non_blank_lines", no_scan)
        path = tmp_path / "input.csv"
        for text in ("x,y\n1,-0\n\n0.1,4\n\n", "1,-0\n0.1,4\n", '"x","y"\n1,-0\n0.1,4\n'):
            path.write_text(text)
            values = cli.read_matrix_csv(str(path))
            assert values.tobytes() == np.array([[1.0, -0.0], [0.1, 4.0]]).tobytes()


def test_write_matrix_csv_keeps_every_bit(tmp_path):
    path = tmp_path / "out.csv"
    cli.write_matrix_csv(str(path), np.array([0.1, -0.0, np.nan, np.inf, 5e-324]))
    assert path.read_text() == "0.10000000000000001,-0,nan,inf,4.9406564584124654e-324\n"


class TestParseQGrid:
    def test_float_steps(self):
        grid = cli.parse_q_grid("0.8:0.98:0.02")
        assert grid == tuple(round(0.8 + 0.02 * k, 2) for k in range(10))
        assert grid[-1] == 0.98
        assert cli.parse_q_grid("0.8:0.95:0.1") == (0.8, 0.9)
        assert cli.parse_q_grid("0.9") == (0.9,)
        assert cli.parse_q_grid("0.9:1.01:0.05") == (0.9, 0.95, 1.0)

    @pytest.mark.parametrize("text", ["0.9:0.8:0.1", "0.8:0.9:0", "a:b", "nan:1:0.1",
                                      "0.8:inf:0.1", "0.8:0.98:1e-13", "-5:5:1e-12",
                                      "1e-12:1:1e-12", "-1e300:1e300:1e-12", "0.9:1.1:0.1",
                                      "1.2"])
    def test_invalid_grid_exits_1(self, capsys, tmp_path, monkeypatch, text):
        monkeypatch.setattr(cli, "run_simulation", no_simulation)
        began = time.perf_counter()
        # one token, so that a grid starting with "-" reaches parse_q_grid
        code, _, err = run(capsys, "simulate", "--case", "1", "--n", "30",
                           f"--q-grid={text}", "--output", str(tmp_path / "report"))
        assert time.perf_counter() - began < 1.0
        assert code == 1
        assert_one_line_error(err)

    def test_a_last_value_past_hi_is_dropped(self):
        # (0.96 - 0.8) / 0.1 rounds to 2 steps, and 0.8 + 2 * 0.1 lies past 0.96
        assert cli.parse_q_grid("0.8:0.96:0.1") == (0.8, 0.9)

    def test_the_longest_grid_is_accepted(self):
        grid = cli.parse_q_grid("0.0001:1:0.0001")
        assert len(grid) == cli._MAX_Q_VALUES and grid[-1] == 1.0
        with pytest.raises(cli._UsageError):
            cli.parse_q_grid("0.00005:1:0.00005")


class TestScoreCurve:
    def test_q_with_ml_rejected(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, _, err = run(capsys, "score-curve", "--method", "ml", "--q", "0.5",
                           "--output", str(target))
        assert code == 1
        assert_one_line_error(err)
        assert "--q" in err
        assert not target.exists()

    def test_q_with_mlq_accepted(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, _, err = run(capsys, "score-curve", "--method", "mlq", "--q", "0.5",
                           "--points", "5", "--output", str(target))
        assert code == 0 and err == ""
        assert np.loadtxt(target, delimiter=",", skiprows=1).shape == (5, 2)

    def test_mlq_at_q_one_writes_the_ml_curve(self, capsys, tmp_path):
        ml, mlq = tmp_path / "ml.csv", tmp_path / "mlq.csv"
        assert run(capsys, "score-curve", "--output", str(ml))[0] == 0
        code, _, err = run(capsys, "score-curve", "--method", "mlq", "--q", "1",
                           "--output", str(mlq))
        assert code == 0 and err == ""
        assert mlq.read_bytes() == ml.read_bytes()

    @pytest.mark.parametrize("p", ["0", "-2"])
    def test_dimension_below_one_rejected(self, capsys, tmp_path, p):
        target = tmp_path / "curve.csv"
        code, _, err = run(capsys, "score-curve", "--p", p, "--output", str(target))
        assert code == 1
        assert_one_line_error(err)
        assert "--p" in err
        assert not target.exists()

    def test_infinite_grid_end_rejected(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, _, err = run(capsys, "score-curve", "--s-max", "inf", "--output", str(target))
        assert code == 1
        assert_one_line_error(err)
        assert not target.exists()


class TestSimulate:
    def test_unwritable_output_is_an_error_not_a_traceback(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report"
        code, _, err = run(capsys, "simulate", "--case", "1", "--n", "30", "--replications", "1",
                           "--q-grid", "0.9", "--output", str(target))
        assert code == 1
        assert_one_line_error(err)

    @pytest.mark.parametrize("output", ["missing/report", "report"])
    def test_unwritable_output_is_reported_before_the_run(self, capsys, tmp_path, monkeypatch,
                                                          output):
        # the JSON path of "report" is a directory, so only its CSV is writable
        (tmp_path / "report.json").mkdir()
        monkeypatch.setattr(cli, "run_simulation", no_simulation)
        code, _, err = run(capsys, "simulate", "--case", "1", "--n", "30",
                           "--output", str(tmp_path / output))
        assert code == 1
        assert_one_line_error(err)

    @pytest.mark.parametrize("flag", ["-3", "0"], ids=["flag-3", "flag0"])
    def test_fewer_than_one_job_rejected(self, capsys, tmp_path, monkeypatch, flag):
        monkeypatch.setattr(cli, "run_simulation", no_simulation)
        code, out, err = run(capsys, "simulate", "--case", "1", "--n", "30", "--jobs", flag,
                             "--output", str(tmp_path / "report"))
        assert code == 1 and out == ""
        assert_one_line_error(err)
        assert "jobs" in err.lower()
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_infinite_outlier_range_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_simulation", no_simulation)
        # the second range is finite, but case II's sd of sqrt(2) takes its top past the floats
        for case, outlier_range in (("1", "0:inf"), ("2", "1e308:1.3e308")):
            code, _, err = run(capsys, "simulate", "--case", case, "--n", "30",
                               "--outlier-range", outlier_range,
                               "--output", str(tmp_path / "report"))
            assert code == 1
            assert_one_line_error(err)
            assert not (tmp_path / "report.csv").exists()

    def test_a_negative_low_end_takes_the_equals_form(self, capsys, tmp_path, monkeypatch):
        specs, run_simulation = [], cli.run_simulation

        def recorded(spec, jobs):
            specs.append(spec)
            return run_simulation(spec, jobs)

        monkeypatch.setattr(cli, "run_simulation", recorded)
        argv = ["simulate", "--case", "1", "--n", "20", "--replications", "1", "--q-grid", "0.9"]
        code, _, err = run(capsys, *argv, "--outlier-range=-5:5",
                           "--output", str(tmp_path / "report"))
        assert code == 0 and err == ""
        (spec,) = specs
        assert strict_json(tmp_path / "report.json")["outlier_range"] == [-5.0, 5.0]
        truth = preset_case(1)
        sd = np.sqrt(np.diag(truth.sigma))
        offsets = (contaminate(generate_replicate(spec, 0), spec, 0)[-spec.n_outliers:]
                   - truth.mu) / sd
        assert ((-5.0 <= offsets) & (offsets <= 5.0)).all() and (offsets < 0.0).any()
        # as two tokens, argparse takes -5:5 for a flag
        code, out, err = run(capsys, *argv, "--outlier-range", "-5:5",
                             "--output", str(tmp_path / "bare"))
        assert code == 1 and out == ""
        assert_one_line_error(err)
        assert "expected one argument" in err
        assert len(specs) == 1
        monkeypatch.setenv("COLUMNS", "200")  # argparse would break the example at a hyphen
        code, out, _ = run(capsys, "simulate", "--help")
        assert code == 0 and "--outlier-range=-5:5" in out

    def test_writes_report(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, _, err = run(capsys, "simulate", "--case", "1", "--n", "30", "--replications", "2",
                           "--q-grid", "0.85:0.95:0.05", "--output", str(target))
        assert code == 0 and err == ""
        summary = json.loads(target.with_suffix(".json").read_text())
        assert summary["q_grid"] == [0.85, 0.9, 0.95]
        assert summary["ml"]["n_replications"] == 2

    def test_summaries_without_a_used_fit_write_null(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, _, err = run(capsys, "simulate", "--case", "1", "--n", "30", "--replications", "2",
                           "--q-grid", "0.9", "--max-iter", "1", "--output", str(target))
        assert code == 2 and err == ""
        summary = strict_json(target.with_suffix(".json"))
        for key in ("ml", "mlq"):
            assert summary[key]["n_nonconverged"] == 2 and summary[key]["n_used"] == 0
            assert summary[key]["mean_nu"] is None
            assert summary[key]["mean_mu"] == [None, None]

    def test_every_fit_failing_is_an_error(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, _, err = run(capsys, "simulate", "--case", "1", "--n", "2", "--outliers", "0",
                           "--replications", "2", "--q-grid", "0.9", "--output", str(target))
        assert code == 1
        assert_one_line_error(err)
        summary = strict_json(target.with_suffix(".json"))
        assert summary["ml"]["n_failed"] == 2 and summary["mlq"]["n_failed"] == 2
        assert summary["mlq"]["mean_combined_distance"] is None


class TestDensityGrid:
    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_fewer_than_two_grid_points_rejected(self, capsys, tmp_path, data_csv, points):
        code, _, err = run(capsys, "density-grid", str(data_csv), "--grid-points", points,
                           "--out", str(tmp_path / "grid"))
        assert code == 1
        assert_one_line_error(err)
        assert not (tmp_path / "grid_grid.csv").exists()

    def test_more_grid_points_than_the_cap_rejected_before_a_fit(self, capsys, tmp_path,
                                                               monkeypatch, data_csv):
        monkeypatch.setattr(cli, "fit_many", no_fit)
        code, out, err = run(capsys, "density-grid", str(data_csv), "--grid-points",
                             str(cli._MAX_GRID_POINTS + 1), "--out", str(tmp_path / "grid"))
        assert code == 1 and out == ""
        assert_one_line_error(err)
        assert f"2 to {cli._MAX_GRID_POINTS} points" in err
        assert list(tmp_path.iterdir()) == [data_csv]

    @pytest.mark.parametrize("text, message", [
        ("1,2,3\n4,5,6\n7,8,10\n", "density grids require bivariate data"),
        ("1,2\n2,4\n3,6\n", "the observations span fewer than 2 dimensions"),
    ], ids=["three-columns", "collinear"])
    def test_data_it_cannot_grid_is_an_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "input.csv"
        path.write_text(text)
        code, out, err = run(capsys, "density-grid", str(path), "--grid-points", "3",
                             "--out", str(tmp_path / "grid"))
        assert code == 1 and out == ""
        assert_one_line_error(err)
        assert message in err
        assert list(tmp_path.iterdir()) == [path]

    def test_two_grid_points_accepted(self, capsys, tmp_path, data_csv):
        code, _, err = run(capsys, "density-grid", str(data_csv), "--grid-points", "2",
                           "--out", str(tmp_path / "grid"))
        assert code == 0 and err == ""
        grid = np.loadtxt(tmp_path / "grid_grid.csv", delimiter=",", skiprows=1)
        assert grid.shape == (4, 4)

    def test_nu_holds_both_fits(self, capsys, tmp_path, data_csv):
        code, _, err = run(capsys, "density-grid", str(data_csv), "--nu", "5",
                           "--out", str(tmp_path / "grid"))
        assert code == 0 and err == ""
        fits = json.loads((tmp_path / "grid_fits.json").read_text())
        for key in ("ml", "mlq"):
            assert fits[key]["nu"] == 5.0 and fits[key]["nu_estimated"] is False

    def test_grid_spans_the_padded_bounding_box_with_x_fastest(self, capsys, tmp_path, data_csv):
        code, _, err = run(capsys, "density-grid", str(data_csv), "--q", "0.9",
                           "--grid-points", "4", "--out", str(tmp_path / "grid"))
        assert code == 0 and err == ""
        data = np.loadtxt(data_csv, delimiter=",")
        grid = np.loadtxt(tmp_path / "grid_grid.csv", delimiter=",", skiprows=1)
        sd = np.std(data, axis=0, ddof=1)
        axes = [np.linspace(data[:, j].min() - 2 * sd[j], data[:, j].max() + 2 * sd[j], 4)
                for j in range(2)]
        np.testing.assert_allclose(grid[:, 0], np.tile(axes[0], 4), rtol=1e-14)
        np.testing.assert_allclose(grid[:, 1], np.repeat(axes[1], 4), rtol=1e-14)

    def test_densities_are_the_fitted_t_densities(self, capsys, tmp_path, data_csv):
        code, _, err = run(capsys, "density-grid", str(data_csv), "--q", "0.9",
                           "--grid-points", "4", "--out", str(tmp_path / "grid"))
        assert code == 0 and err == ""
        fits = json.loads((tmp_path / "grid_fits.json").read_text())
        assert (fits["ml"]["method"], fits["mlq"]["method"], fits["mlq"]["q"]) == ("ml", "mlq", 0.9)
        grid = np.loadtxt(tmp_path / "grid_grid.csv", delimiter=",", skiprows=1)
        for column, key in ((2, "ml"), (3, "mlq")):
            truth = multivariate_t(fits[key]["mu"], fits[key]["sigma"], df=fits[key]["nu"])
            np.testing.assert_allclose(grid[:, column], truth.pdf(grid[:, :2]), rtol=1e-12)

    def test_data_csv_reads_back_as_the_input(self, capsys, tmp_path, data_csv):
        code, _, err = run(capsys, "density-grid", str(data_csv), "--grid-points", "2",
                           "--out", str(tmp_path / "grid"))
        assert code == 0 and err == ""
        written = np.loadtxt(tmp_path / "grid_data.csv", delimiter=",")
        assert np.array_equal(written, cli.read_matrix_csv(str(data_csv)))

    def test_estimate_nu_flag_is_gone(self, capsys, tmp_path, data_csv):
        code, _, err = run(capsys, "density-grid", str(data_csv), "--nu", "5", "--estimate-nu",
                           "--out", str(tmp_path / "grid"))
        assert code == 1
        assert_one_line_error(err)
        assert not (tmp_path / "grid_fits.json").exists()


class TestShowcase:
    def test_writes_replicate_zero_of_its_spec_and_the_truth(self, capsys, tmp_path):
        code, _, err = run(capsys, "showcase", "--case", "1", "--n", "60", "--grid-points", "3",
                           "--out", str(tmp_path / "show"))
        assert code == 0 and err == ""
        spec = SimulationSpec(preset_case(1), n=60, n_replications=1, q_grid=(DEFAULT_Q,))
        written = np.loadtxt(tmp_path / "show_data.csv", delimiter=",")
        assert np.array_equal(written, contaminate(generate_replicate(spec, 0), spec, 0))
        fits = json.loads((tmp_path / "show_fits.json").read_text())
        assert set(fits) == {"ml", "mlq", "truth"}
        assert fits["mlq"]["q"] == DEFAULT_Q
        assert fits["truth"] == {"mu": [2.0, 1.0], "sigma": [[1.0, 0.0], [0.0, 1.0]], "nu": 3.0}

    def test_a_truth_given_by_flags_is_written_with_the_fits(self, capsys, tmp_path):
        code, _, err = run(capsys, "showcase", "--mu", "0,0", "--sigma", "1,0;0,1", "--nu", "3",
                           "--n", "60", "--grid-points", "3", "--out", str(tmp_path / "show"))
        assert code == 0 and err == ""
        fits = strict_json(tmp_path / "show_fits.json")
        assert fits["truth"] == {"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]], "nu": 3.0}
        assert fits["ml"]["converged"] and fits["mlq"]["converged"]

    def test_more_grid_points_than_the_cap_rejected_before_a_fit(self, capsys, tmp_path,
                                                               monkeypatch):
        monkeypatch.setattr(cli, "fit_many", no_fit)
        code, out, err = run(capsys, "showcase", "--case", "1", "--grid-points",
                             str(cli._MAX_GRID_POINTS + 1), "--out", str(tmp_path / "show"))
        assert code == 1 and out == ""
        assert_one_line_error(err)
        assert f"2 to {cli._MAX_GRID_POINTS} points" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--nu", "5"], ["--mu", "9,9"], ["--sigma", "1,0;0,1"],
                                       ["--nu", "5", "--mu", "9,9"]],
                             ids=["nu", "mu", "sigma", "nu-mu"])
    def test_case_with_a_truth_flag_rejected(self, capsys, tmp_path, flags):
        code, out, err = run(capsys, "showcase", "--case", "1", *flags,
                             "--out", str(tmp_path / "show"))
        assert code == 1 and out == ""
        assert_one_line_error(err)
        assert "--case" in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,callee", [
    (["density-grid", "DATA", "--grid-points", "3", "--out", "OUT"], "log_pdf_rows"),
    (["score-curve", "--points", "5", "--output", "OUT"], "score_curve"),
    (["sample", "--n", "5", "--mu", "0,0", "--sigma", "1,0;0,1", "--nu", "3", "--output", "OUT"],
     "sample"),
], ids=["density-grid", "score-curve", "sample"])
def test_an_allocation_that_fails_is_a_one_line_error(capsys, tmp_path, monkeypatch, data_csv,
                                                      command, callee):
    # numpy raises this for a size too large to allocate; the stub raises it without allocating
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 6.71 GiB for an array with shape (900000000,)")
    monkeypatch.setattr(cli, callee, out_of_memory)
    argv = [{"DATA": str(data_csv), "OUT": str(tmp_path / "out")}.get(arg, arg) for arg in command]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert_one_line_error(err)
    assert "Unable to allocate" in err


@pytest.mark.parametrize("command", [["density-grid", "DATA"], ["showcase", "--case", "1"]],
                         ids=["density-grid", "showcase"])
def test_iteration_cap_exits_2_and_still_writes_outputs(capsys, tmp_path, data_csv, command):
    prefix = tmp_path / "out"
    argv = [str(data_csv) if arg == "DATA" else arg for arg in command]
    code, _, err = run(capsys, *argv, "--grid-points", "3", "--max-iter", "1", "--out", str(prefix))
    assert code == 2 and err == ""
    fits = json.loads((tmp_path / "out_fits.json").read_text())
    assert fits["ml"]["converged"] is False and fits["mlq"]["converged"] is False
    assert (tmp_path / "out_data.csv").exists()
    assert np.loadtxt(tmp_path / "out_grid.csv", delimiter=",", skiprows=1).shape == (9, 4)


def test_consecutive_main_calls_share_one_parser_and_leak_no_flag(tmp_path, data_csv):
    # fit by MLq at --q 0.9, then fit with no --q (ML, which rejects a --q), then simulate;
    # each call's outputs are byte for byte those of the same call on a fresh parser
    def argvs(out):
        out.mkdir()
        return [["fit", str(data_csv), "--method", "mlq", "--q", "0.9",
                 "--output", str(out / "mlq.json")],
                ["fit", str(data_csv), "--output", str(out / "ml.json")],
                ["simulate", "--case", "1", "--n", "30", "--replications", "2",
                 "--q-grid", "0.9", "--output", str(out / "sim.csv")]]

    cli._parser.cache_clear()
    for argv in argvs(tmp_path / "shared"):
        assert cli.main(argv) == 0
    assert cli._parser.cache_info().misses == 1 and cli._parser.cache_info().hits == 2
    for argv in argvs(tmp_path / "fresh"):
        cli._parser.cache_clear()
        assert cli.main(argv) == 0
    names = ["mlq.json", "ml.json", "sim.csv", "sim.json"]
    assert sorted(path.name for path in (tmp_path / "shared").iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert json.loads((tmp_path / "shared" / "ml.json").read_text())["method"] == "ml"
