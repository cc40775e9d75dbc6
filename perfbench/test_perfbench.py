"""Tests of the benchmark's own machinery (inputs, percentiles, speed correction,
tracing, checks)."""

from __future__ import annotations

import sys

import numpy as np
import pytest

import check
import run
import tracing
import workloads

rt = run.load_package()


def _package_attrs():
    return {(name, attr): value
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "robust_t" or name.startswith("robust_t."))
            for attr, value in vars(mod).items()}


class TestInputs:
    def test_same_seed_same_inputs(self):
        assert np.array_equal(workloads.small_dataset(5, 3), workloads.small_dataset(5, 3))
        assert np.array_equal(workloads.large_dataset(5, 1, 500, 10),
                              workloads.large_dataset(5, 1, 500, 10))
        assert workloads.simulation_seed(5, 2) == workloads.simulation_seed(5, 2)

    def test_different_seed_different_inputs(self):
        assert not np.array_equal(workloads.small_dataset(5, 3), workloads.small_dataset(6, 3))
        assert not np.array_equal(workloads.large_dataset(5, 1, 500, 10),
                                  workloads.large_dataset(6, 1, 500, 10))
        assert workloads.simulation_seed(5, 2) != workloads.simulation_seed(6, 2)

    def test_units_of_one_run_differ(self):
        assert not np.array_equal(workloads.small_dataset(5, 0), workloads.small_dataset(5, 1))

    def test_csv_round_trip_is_exact(self, tmp_path):
        rows = workloads.large_dataset(1, 0, 50, 2)
        workloads.write_csv(tmp_path / "x.csv", rows)
        assert np.array_equal(rt.cli.read_matrix_csv(str(tmp_path / "x.csv")), rows)


class TestPercentileNaming:
    @pytest.mark.parametrize("n,expected", [
        (99, None), (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99),
        (9999, 99), (10000, 99.9),
    ])
    def test_ten_samples_beyond(self, n, expected):
        assert run.tail_percentile(n) == expected

    def test_fit_small_makes_enough_fits_for_p95(self):
        assert run.tail_percentile(workloads.FIT_SMALL_MIN_FITS) == 95


class TestSpeedCorrection:
    def test_unit_times_are_divided_by_their_slowdown(self):
        units = []
        for wall, slowdown in ((1.0, 1.0), (3.0, 2.0), (4.0, 2.0)):
            unit = run.Unit(None, None, wall, 2.0 * wall, None)
            unit.slowdown = slowdown
            units.append(unit)
        metrics = run.end_to_end(units, 0.5, fits_per_unit=22)
        assert metrics["wall_s"] == pytest.approx(1.5)
        assert metrics["cpu_s"] == pytest.approx(3.0)
        assert metrics["fits_per_s"] == pytest.approx(22 / 1.5)
        assert metrics["raw_wall_s"] == pytest.approx(3.0)
        assert metrics["machine_slowdown"] == pytest.approx(2.0)
        assert metrics["setup_s"] == 0.5

    def test_calibration_runs_no_package_code(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert run.machine_slowdown() > 0.0
        finally:
            tracer.restore()
        assert tracer.metrics()["trace.spans"] == 0


class TestSelfTime:
    def test_hand_built_tree(self):
        # 0: root [0, 100]; 1: [10, 40] and 2: [30, 60] overlap; 3: [15, 20]
        # inside 1; 4: [90, 120] sticks out of the root.
        start = [0, 10, 30, 15, 90]
        end = [100, 40, 60, 20, 120]
        parent = [-1, 0, 0, 1, 0]
        got = tracing.self_times(start, end, parent)
        # root minus the union [10, 60] + [90, 100]; node 1 minus [15, 20].
        assert got.tolist() == [40.0, 25.0, 30.0, 5.0, 30.0]

    def test_children_of_several_parents(self):
        start = [0, 1, 200, 201, 203]
        end = [10, 4, 210, 202, 205]
        parent = [-1, 0, -1, 2, 2]
        assert tracing.self_times(start, end, parent).tolist() == [7.0, 3.0, 7.0, 1.0, 2.0]


class TestTracer:
    def test_originals_restored_after_traced_run(self):
        before = _package_attrs()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert rt.fit is not before[("robust_t", "fit")]
            rt.fit(workloads.small_dataset(0, 0), rt.FitConfig(method="mlq", q=0.9))
        finally:
            tracer.restore()
        after = _package_attrs()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
        metrics = tracer.metrics()
        assert metrics["estimators.fit.calls"] == 1
        assert metrics["estimators.solve_nu_mlq.calls"] == metrics["estimators.e_step.calls"]
        assert metrics["estimators.nu_solve.score_evals_per_solve"] >= 2
        assert metrics["trace.hooks_absent"] == 0

    def test_missing_function_is_absent_not_an_error(self, monkeypatch):
        monkeypatch.delattr(rt.special, "log_gamma")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rt.fit(workloads.small_dataset(0, 1), rt.FitConfig())
        finally:
            tracer.restore()
        assert tracer.absent == ["special.log_gamma"]
        metrics = tracer.metrics()
        assert metrics["special.log_gamma.calls"] == 0
        assert metrics["trace.hooks_absent"] == 1


class TestCorrectnessGate:
    @pytest.fixture(scope="class")
    def fitted(self):
        rows = workloads.small_dataset(3, 0)
        result = rt.fit(rows, rt.FitConfig(method="mlq", q=0.85))
        return rows, result

    def test_accepts_the_fit(self, fitted):
        rows, result = fitted
        p = result.params
        assert check.fit_problems(rows, p.mu, p.sigma, p.nu, result.converged, "mlq", 0.85) == []

    @pytest.mark.parametrize("part", ["mu", "sigma", "nu"])
    def test_rejects_a_perturbed_parameter(self, fitted, part):
        rows, result = fitted
        params = {"mu": result.params.mu.copy(), "sigma": result.params.sigma.copy(),
                  "nu": result.params.nu}
        if part == "nu":
            params["nu"] += 1e-3
        else:
            params[part].flat[0] += 1e-3
        assert check.fit_problems(rows, params["mu"], params["sigma"], params["nu"],
                                  True, "mlq", 0.85)
        reference = {"mu": result.params.mu, "sigma": result.params.sigma,
                     "nu": result.params.nu, "converged": True}
        assert check.reference_problems(dict(params, converged=True), reference)

    def test_rejects_a_flipped_converged_flag(self, fitted):
        _, result = fitted
        got = {"mu": result.params.mu, "sigma": result.params.sigma,
               "nu": result.params.nu, "converged": False}
        assert check.reference_problems(got, dict(got, converged=True))

    def test_ml_ascent(self):
        assert check.ascent_violation([-10.0, -9.0, -9.0, -8.5], 200) is None
        assert check.ascent_violation([-10.0, -9.0, -9.0 - 1e-6], 200) == pytest.approx(1e-6)
