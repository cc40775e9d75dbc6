"""tools/parity.py's comparer on synthetic fit outcomes and its nu-search counter."""

import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "tools" / "parity.py"
sys.path.insert(0, str(_PATH.parent))  # for its sibling bench_pairs
_SPEC = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)


def finished(method, nu, iterations=10, converged=True, clamped=False, mu=(0.0, 0.0)):
    return {"method": method, "failure": None, "iterations": iterations,
            "converged": converged, "nu_clamped": clamped, "mu": np.array(mu),
            "sigma": np.eye(2), "nu": nu}


def failed(method, message="scatter collapsed"):
    return {"method": method, "failure": message}


def test_compare_counts_each_kind_of_difference():
    parent = [finished("ml", 3.0), finished("mlq", 4.0), finished("mlq", 5.0),
              finished("mlq", 6.0), failed("mlq"), finished("ml", 2.0)]
    change = [finished("ml", 3.0),                          # bitwise the same
              finished("mlq", 4.0 + 1e-13, mu=(2e-14, 0.0)),  # moved by rounding
              finished("mlq", 5.0, iterations=11),          # one more iteration
              finished("mlq", 6.0, converged=False, clamped=True),
              failed("mlq"),                                # fails on both sides
              failed("ml", "weighted update produced non-finite parameters")]
    summary = parity.compare(parent, change)
    assert summary["fits"] == 6
    assert summary["failures"] == {"parent": 1, "change": 2}
    assert summary["failure_mismatches"] == 1
    assert summary["iteration_mismatches"] == 1
    assert summary["flag_mismatches"] == 1
    assert summary["fits_by_method"] == {"ml": 1, "mlq": 3}
    assert summary["bitwise_equal_by_method"] == {"ml": 1, "mlq": 2}
    assert summary["max_abs_d_mu"] == 2e-14
    assert summary["max_abs_d_sigma"] == 0.0
    assert summary["max_abs_d_nu"] == abs(4.0 + 1e-13 - 4.0)



def test_compare_counts_fits_whose_objective_or_trace_differ():
    def traced(objective=-1.0, norm=1e-7):
        trace = np.array([[0.5, -2.0], [norm, objective]])
        return {**finished("ml", 3.0, iterations=2), "objective": objective, "trace": trace}

    parent = [traced(), traced(), traced(), traced(), failed("ml")]
    change = [traced(),                                   # bitwise the same
              traced(norm=np.nextafter(1e-7, 1.0)),       # a change norm moved by one ulp
              {**traced(), "objective": -1.0 + 2 ** -52},  # the reported objective moved
              {**traced(), "trace": traced()["trace"][:1]},  # one record fewer
              traced()]                                   # finished on one side only
    summary = parity.compare(parent, change)
    assert summary["trace_mismatches"] == 3
    assert summary["bitwise_equal_by_method"] == {"ml": 4}


def test_iterations_and_unconverged_fits_by_method_and_side():
    parent = [finished("ml", 3.0, iterations=10), finished("mlq", 4.0, iterations=12),
              finished("mlq", 5.0, iterations=15, converged=False), failed("mlq")]
    change = [finished("ml", 3.0, iterations=11), finished("mlq", 4.0, iterations=11),
              finished("mlq", 5.0, iterations=14), finished("mlq", 6.0, iterations=20,
                                                            converged=False)]
    summary = parity.compare(parent, change)
    # each side's own finished fits, so the fit the parent failed counts for the change only
    assert summary["mean_iterations_by_method"] == {
        "ml": {"parent": 10.0, "change": 11.0},
        "mlq": {"parent": 13.5, "change": 15.0},
    }
    assert summary["unconverged_by_method"] == {
        "ml": {"parent": 0, "change": 0},
        "mlq": {"parent": 1, "change": 1},
    }


def test_a_method_that_one_side_never_finished_has_no_mean_there():
    summary = parity.compare([failed("mlq")], [finished("mlq", 4.0, iterations=9)])
    assert summary["mean_iterations_by_method"] == {"mlq": {"parent": None, "change": 9.0}}
    assert summary["unconverged_by_method"] == {"mlq": {"parent": 0, "change": 0}}


def summary(method, q, mean_nu, n_used=2, mean_mu=(2.0, 1.0)):
    return {"method": method, "q": q, "n_replications": 2, "n_failed": 0,
            "n_nonconverged": 2 - n_used, "n_used": n_used, "mean_mu": np.array(mean_mu),
            "mean_sigma": np.eye(2), "mean_nu": mean_nu, "mean_d_mu": 0.5,
            "mean_d_sigma": 0.25, "mse_nu": 1.0, "mean_combined": 2.0}


def report(selected_q, *summaries, records=()):
    return {"selected_q": selected_q, "summaries": list(summaries), "records": list(records)}


def record(replicate, method, q, nu, failed=False, mu=(2.0, 1.0)):
    nan = float("nan")
    values = dict(mu=(nan, nan), sigma=(nan,) * 3, nu=nan, d_mu=nan, d_sigma=nan,
                  sq_err_nu=nan) if failed else dict(mu=mu, sigma=(1.0, 0.0, 1.0), nu=nu,
                                                     d_mu=0.5, d_sigma=0.25, sq_err_nu=1.0)
    return {"replicate": replicate, "method": method, "q": q, "failed": failed,
            "converged": not failed, "iterations": 0 if failed else 12, **values}


def test_compare_simulations_takes_the_largest_gap_of_each_field():
    nan = float("nan")
    parent = [report(0.9, summary("ml", None, 3.0), summary("mlq", 0.9, 4.0)),
              report(0.8, summary("ml", None, nan, n_used=0), summary("mlq", 0.8, 5.0))]
    change = [report(0.9, summary("ml", None, 3.0 + 2e-15), summary("mlq", 0.9, 4.0,
                                                                      mean_mu=(2.0, 1.0 + 1e-15))),
              report(0.8, summary("ml", None, nan, n_used=0), summary("mlq", 0.8, 5.0))]
    result = parity.compare_simulations(parent, change)
    assert result["reports"] == 2 and result["summaries"] == 4
    assert result["labels_equal"] and result["selected_q_equal"]
    gaps = result["max_abs_d"]
    assert set(gaps) == set(summary("ml", None, 0.0)) - {"method", "q"}
    assert gaps["mean_nu"] == abs(3.0 + 2e-15 - 3.0)  # NaN on both sides counts as 0
    assert gaps["mean_mu"] == abs(1.0 + 1e-15 - 1.0)
    assert gaps["n_used"] == 0.0 and gaps["mean_sigma"] == 0.0


def test_compare_simulations_takes_the_largest_gap_of_each_record_field():
    sums = (summary("ml", None, 3.0), summary("mlq", 0.9, 4.0))
    parent = [report(0.9, *sums, records=[record(0, "ml", None, 3.0),
                                          record(0, "mlq", 0.9, 4.0),
                                          record(1, "ml", None, 3.0, failed=True)])]
    change = [report(0.9, *sums, records=[record(0, "ml", None, 3.0, mu=(2.0, 1.0 + 1e-15)),
                                          record(0, "mlq", 0.9, 4.0 + 2e-15),
                                          record(1, "ml", None, 3.0, failed=True)])]
    result = parity.compare_simulations(parent, change)
    assert result["summaries"] == 2 and result["records"] == 3 and result["labels_equal"]
    gaps = result["max_abs_d"]
    assert set(gaps) == ({key for key in sums[0] if key not in ("method", "q")}
                         | {"record_" + key for key in record(0, "ml", None, 3.0)
                            if key not in ("replicate", "method", "q")})
    assert gaps["record_mu"] == abs(1.0 + 1e-15 - 1.0)
    assert gaps["record_nu"] == abs(4.0 + 2e-15 - 4.0)
    # the failed record's NaNs equal the other side's NaNs
    assert all(gaps["record_" + key] == 0.0 for key in ("sigma", "d_mu", "sq_err_nu",
                                                       "iterations", "failed", "converged"))


def test_compare_simulations_flags_a_moved_record_a_relabelled_one_and_one_failing_alone():
    sums = (summary("ml", None, 3.0),)
    parent = [report(0.9, *sums, records=[record(0, "ml", None, 3.0), record(1, "ml", None, 3.0)])]
    change = [report(0.9, *sums, records=[record(0, "ml", None, 3.0, failed=True),
                                          record(2, "ml", None, 3.0)])]
    result = parity.compare_simulations(parent, change)
    assert not result["labels_equal"]
    gaps = result["max_abs_d"]
    assert gaps["record_nu"] == gaps["record_d_mu"] == float("inf")  # NaN on one side only
    assert gaps["record_failed"] == 1.0 and gaps["record_iterations"] == 12.0


def test_compare_simulations_flags_a_moved_q_and_a_one_sided_nan():
    parent = [report(0.9, summary("ml", None, 3.0), summary("mlq", 0.9, 4.0))]
    change = [report(0.8, summary("ml", None, float("nan"), n_used=0),
                     summary("mlq", 0.8, 4.0))]
    result = parity.compare_simulations(parent, change)
    assert not result["selected_q_equal"] and not result["labels_equal"]
    assert result["max_abs_d"]["mean_nu"] == float("inf")
    assert result["max_abs_d"]["n_used"] == 2.0


def test_counting_nu_scores_counts_each_fit_at_each_candidate():
    import robust_t as rt
    from robust_t import estimators

    rows = np.random.default_rng(0).standard_t(4.0, size=(60, 2))
    configs = [rt.FitConfig(max_iter=1), rt.FitConfig(method="mlq", q=0.9, max_iter=1)]
    original = estimators._bracketed_root
    with parity.counting_nu_search(estimators) as count:
        one_step = rt.fit_many(rows, configs)
    assert estimators._bracketed_root is original
    # a first iteration whose Newton steps stay on the bracket: one call, one candidate per fit
    assert not any(result.nu_clamped for result in one_step)
    assert count == {"nu_score_evaluations": 2, "nu_score_calls": 1, "nu_solves": 1,
                     "nu_end_reads": 0, "squarem_nu_solves": 0, "squarem_nu_score_calls": 0}
    with parity.counting_nu_search(estimators) as count:
        rt.fit_many(rows, [rt.FitConfig(max_iter=3)])
    # the third starts from a SQUAREM point and takes Newton steps to the root
    calls = count["nu_score_calls"]
    assert calls >= 2 + 2 and count["nu_score_evaluations"] == calls


def test_counting_nu_scores_counts_no_nan_candidate():
    from robust_t import estimators

    lo, hi = estimators.NU_BRACKET
    rows = np.random.default_rng(0).standard_t(4.0, size=(60, 2))
    g = estimators._observed_nu_score(np.tile(np.sum(rows ** 2, axis=1), (3, 1)), np.zeros(3), 2)
    root = estimators._bracketed_root(g, lo, hi, np.full(3, 3.0))[0]
    with parity.counting_nu_search(estimators) as count:
        # fit 0 starts at its root and settles in the first call; the other two take
        # Newton steps to theirs, in calls that hold NaN for fit 0
        again = estimators._bracketed_root(g, lo, hi, np.array([root[0], 3.0, 3.0]))[0]
    assert np.array_equal(again[1:], root[1:])
    calls = count["nu_score_calls"]
    assert calls > 2 and count["nu_score_evaluations"] == 3 + 2 * (calls - 1)


def test_set_line_reports_each_sides_nu_score_evaluations():
    fits = [finished("ml", 3.0)]
    sim = [report(0.9, summary("ml", None, 3.0))]
    parent = {"case_i": fits, "large": fits, "simulations": {"case_i": sim},
              "nu_score_evaluations": {"case_i": 300, "large": 12},
              "nu_score_calls": {"case_i": 40, "large": 5}}
    change = dict(parent, nu_score_evaluations={"case_i": 200, "large": 9},
                  nu_score_calls={"case_i": 38, "large": 4})
    line = parity.set_line("case_i", parent, change)
    assert line["set"] == "case_i" and line["fits"] == 1
    assert line["nu_score_evaluations"] == {"parent": 300, "change": 200}
    assert line["nu_score_calls"] == {"parent": 40, "change": 38}
    assert line["simulation"]["selected_q_equal"]
    line = parity.set_line("large", parent, change)
    assert line["nu_score_evaluations"] == {"parent": 12, "change": 9} and "simulation" not in line
    assert line["nu_score_calls"] == {"parent": 5, "change": 4}


def test_counting_end_reads_counts_the_solves_that_read_an_end():
    import math

    import robust_t as rt
    from robust_t import estimators

    original = estimators._bracketed_root
    lo, hi = estimators.NU_BRACKET

    def log_equation(root):
        return lambda nu: (np.log(root) - np.log(nu), -1.0 / nu[:, -1:])

    with parity.counting_nu_search(estimators) as count:
        # a start at an end is the first call's, not a read of the end
        assert estimators._bracketed_root(log_equation(150.0), lo, hi, np.array([hi]),
                                          math.inf)[1].all()
        assert (count["nu_solves"], count["nu_end_reads"]) == (1, 0)
        # a step off the bracket reads the ends, and no sign change clamps to hi
        assert not estimators._bracketed_root(log_equation(300.0), lo, hi,
                                              np.array([3.0]))[1].any()
        assert (count["nu_solves"], count["nu_end_reads"]) == (2, 1)
    assert estimators._bracketed_root is original
    # near-normal rows run nu to 200, where the Newton step leaves the bracket
    rows = np.random.default_rng(5).normal(size=(205, 2))
    with parity.counting_nu_search(estimators) as count:
        result = rt.fit(rows, rt.FitConfig())
    assert result.nu_clamped and count["nu_solves"] == result.iterations
    assert 0 < count["nu_end_reads"] < count["nu_solves"]


def test_set_line_reports_each_sides_solves_and_end_reads():
    fits = [finished("ml", 3.0)]
    parent = {"large": fits, "nu_score_evaluations": {"large": 12},
              "nu_score_calls": {"large": 5}, "nu_solves": {"large": 4},
              "nu_end_reads": {"large": 1}}
    change = dict(parent, nu_end_reads={"large": 0})
    line = parity.set_line("large", parent, change)
    assert line["nu_solves"] == {"parent": 4, "change": 4}
    assert line["nu_end_reads"] == {"parent": 1, "change": 0}
    assert "src_lines" not in line and "public_names" not in line
    parent.update(src_lines=2225, public_names=39)
    line = parity.set_line("large", parent, dict(change, src_lines=2189, public_names=28))
    assert line["src_lines"] == {"parent": 2225, "change": 2189}
    assert line["public_names"] == {"parent": 39, "change": 28}


def test_counting_squarem_solves_counts_the_solves_with_a_finite_tolerance():
    import math

    import robust_t as rt
    from robust_t import estimators

    original = estimators._bracketed_root
    lo, hi = estimators.NU_BRACKET

    def log_equation(root):
        return lambda nu: (np.log(root) - np.log(nu), -1.0 / nu[:, -1:])

    with parity.counting_nu_search(estimators) as count:
        # a one-step solve is not counted; a solve to the root counts each call of g
        estimators._bracketed_root(log_equation(30.0), lo, hi, np.array([3.0]), math.inf)
        assert (count["squarem_nu_solves"], count["squarem_nu_score_calls"]) == (0, 0)
        estimators._bracketed_root(log_equation(30.0), lo, hi, np.array([3.0]))
        assert count["squarem_nu_solves"] == 1 and count["squarem_nu_score_calls"] > 2
    assert estimators._bracketed_root is original
    rows = np.random.default_rng(0).standard_t(4.0, size=(60, 2))
    with parity.counting_nu_search(estimators) as count:
        result = rt.fit(rows, rt.FitConfig(max_iter=5))
    # iteration 3 starts from a SQUAREM point; 1, 2, 4 and 5 take one step, one call each
    squarem_calls = count["squarem_nu_score_calls"]
    assert result.iterations == 5 and count["squarem_nu_solves"] == 1
    assert squarem_calls >= 2 and count["nu_score_calls"] == squarem_calls + 4


def test_set_line_reports_each_sides_squarem_solves_and_calls():
    fits = [finished("ml", 3.0)]
    parent = {"large": fits, "squarem_nu_solves": {"large": 3},
              "squarem_nu_score_calls": {"large": 12}}
    change = dict(parent, squarem_nu_score_calls={"large": 9})
    line = parity.set_line("large", parent, change)
    assert line["squarem_nu_solves"] == {"parent": 3, "change": 3}
    assert line["squarem_nu_score_calls"] == {"parent": 12, "change": 9}


def test_a_second_import_of_the_package_fits_alike_and_is_counted_alone():
    import bench_pairs
    import robust_t as rt

    rows = np.random.default_rng(0).standard_t(4.0, size=(60, 2))
    name = "robust_t_copy"
    try:
        copy = bench_pairs.import_as(name, ROOT / "src" / "robust_t")
        assert copy.estimators is not rt.estimators
        with parity.counting_nu_search(copy.estimators) as count:
            result = copy.fit(rows, copy.FitConfig(method="mlq", q=0.9))
            solves = count["nu_solves"]
            installed = rt.fit(rows, rt.FitConfig(method="mlq", q=0.9))
    finally:
        for module in [key for key in sys.modules if key.partition(".")[0] == name]:
            del sys.modules[module]
    # one solve per iteration of the copy's fit, and none of the installed package's
    assert solves == result.iterations == count["nu_solves"]
    assert result.iterations == installed.iterations
    for a, b in ((result.params.mu, installed.params.mu),
                 (result.params.sigma, installed.params.sigma),
                 (result.params.nu, installed.params.nu),
                 ([(r.change_norm, r.objective) for r in result.trace],
                  [(r.change_norm, r.objective) for r in installed.trace])):
        assert np.array_equal(a, b)


def test_the_sets_and_the_held_nu_set_which_holds_nu_on_and_off_the_bracket():
    import robust_t as rt

    assert parity.SETS == ("case_i", "case_ii", "large", "held_nu", "failing")
    assert parity.SIMULATED == ("case_i", "case_ii", "held_nu", "failing")
    specs = parity.simulated_specs(rt)
    assert [len(specs[name]) for name in parity.SIMULATED] == [60, 1, 20, 1]
    assert all(spec.fit_config == rt.FitConfig() for name in ("case_i", "case_ii")
               for spec in specs[name])
    held = specs["held_nu"]
    assert [spec.seed for spec in held] == list(range(100, 120))
    assert all((spec.fit_config, spec.q_grid, spec.n_replications)
               == (rt.FitConfig(fixed_nu=3.0), (0.8, 0.9), 2) for spec in held)

    def design(spec):  # what draws the replicates
        truth = spec.true_params
        return (spec.seed, spec.n, spec.n_outliers, spec.n_replications, spec.outlier_low,
                spec.outlier_high, truth.mu.tolist(), truth.sigma.tolist(), truth.nu)

    assert [design(spec) for spec in held] == [design(spec) for spec in specs["case_i"][:20]]
    assert parity.LARGE_HELD_NU > rt.estimators.NU_BRACKET[1]
    # failing: a set whose fits fail in part, so that failed records are compared
    (failing,) = specs["failing"]
    expected = rt.SimulationSpec(rt.preset_case(1), 5, n_outliers=0, n_replications=30, seed=5)
    assert (design(failing), failing.q_grid, failing.fit_config) == (
        design(expected), (0.7, 0.9), rt.FitConfig())
    assert 0 < sum(r.failed for r in rt.run_simulation(failing).records) < 90


def test_a_run_whose_export_fails_leaves_no_temp_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(subprocess.CalledProcessError):
        parity.main(["--parent", "no-such-revision", "--change", "HEAD"])
    assert list(tmp_path.iterdir()) == []
