from dataclasses import replace

import numpy as np
import pytest

import robust_t as rt
from robust_t import estimators, simulation
from robust_t.errors import DegenerateData, DomainError
from robust_t.estimators import (
    FitConfig,
    e_step,
    fit,
    fit_many,
    init_params,
    m_step_ml,
    m_step_mlq,
    solve_nu_ml,
    solve_nu_mlq,
)

Q_GRID = (0.8, 0.85, 0.9, 0.95)


def small_spec(**overrides):
    settings = dict(true_params=rt.preset_case(1), n=60, n_outliers=3,
                    n_replications=3, q_grid=Q_GRID, seed=11)
    settings.update(overrides)
    return rt.SimulationSpec(**settings)


def replicate_data(spec, index):
    return rt.contaminate(rt.generate_replicate(spec, index), spec, index)


def batch_configs(base=FitConfig()):
    return [replace(base, method="ml", q=1.0)] + [
        replace(base, method="mlq", q=q) for q in Q_GRID
    ]


def same_fit(a, b):
    return (np.array_equal(a.params.mu, b.params.mu)
            and np.array_equal(a.params.sigma, b.params.sigma)
            and a.params.nu == b.params.nu
            and a.trace == b.trace
            and (a.converged, a.nu_clamped) == (b.converged, b.nu_clamped))


class TestRunSimulation:
    def test_records_bitwise_equal_to_single_fits(self):
        spec = small_spec()
        report = rt.run_simulation(spec)
        assert len(report.records) == spec.n_replications * (1 + len(Q_GRID))
        for record in report.records:
            config = replace(spec.fit_config, method=record.method,
                             q=1.0 if record.q is None else record.q)
            single = fit(replicate_data(spec, record.replicate), config)
            assert not record.failed
            assert record.iterations == single.iterations
            assert record.converged == single.converged
            assert record.mu == tuple(single.params.mu)
            assert record.sigma == tuple(single.params.sigma[np.triu_indices(2)])
            assert record.nu == single.params.nu

    def test_jobs_do_not_change_records(self):
        spec = small_spec(n_replications=4)
        assert rt.run_simulation(spec, jobs=1).records == rt.run_simulation(spec, jobs=2).records

    def test_degenerate_replicates_recorded_as_failed(self, monkeypatch):
        spec = small_spec(n_outliers=0, n_replications=2)
        identical = np.tile([1.0, 2.0], (spec.n, 1))
        with pytest.raises(DegenerateData):
            fit(identical, FitConfig())
        outcomes = fit_many(identical, batch_configs())
        assert len(outcomes) == 1 + len(Q_GRID)
        assert all(isinstance(o, DegenerateData) for o in outcomes)

        monkeypatch.setattr(simulation, "generate_replicate", lambda spec, index: identical)
        report = rt.run_simulation(spec)
        assert all(r.failed and not r.converged for r in report.records)
        assert report.ml.n_failed == spec.n_replications
        assert all(s.n_failed == spec.n_replications and s.n_used == 0 for s in report.q_sweep)

    def test_rank_deficient_replicates_recorded_as_failed(self, monkeypatch):
        spec = small_spec(n_outliers=0, n_replications=2)
        line = np.outer(np.arange(spec.n), [1.0, 2.0])
        monkeypatch.setattr(simulation, "generate_replicate", lambda spec, index: line)
        assert all(r.failed for r in rt.run_simulation(spec).records)


class TestFitMany:
    def test_each_result_equals_its_single_fit(self):
        data = replicate_data(small_spec(), 0)
        configs = batch_configs() + [FitConfig(method="mlq", q=1.0)]
        for result, config in zip(fit_many(data, configs), configs):
            assert same_fit(result, fit(data, config))

    def test_a_failing_fit_leaves_the_others_alone(self, monkeypatch):
        data = replicate_data(small_spec(), 0)
        configs = batch_configs()
        expected = fit_many(data, configs)
        original = estimators.mlq_weights

        def zero_weights_at_q_085(s, nu, p, q):
            w, v = original(s, nu, p, q)
            return np.where(np.asarray(q) == 0.85, 0.0, w), v

        monkeypatch.setattr(estimators, "mlq_weights", zero_weights_at_q_085)
        got = fit_many(data, configs)
        for config, want, outcome in zip(configs, expected, got):
            if config.q == 0.85:
                assert isinstance(outcome, DegenerateData)
            else:
                assert same_fit(outcome, want)
        with pytest.raises(DegenerateData):
            fit(data, configs[2])

    def test_fixed_nu_batch(self):
        data = replicate_data(small_spec(), 1)
        configs = batch_configs(FitConfig(estimate_nu=False, fixed_nu=4.0))
        for result, config in zip(fit_many(data, configs), configs):
            assert result.params.nu == 4.0
            assert same_fit(result, fit(data, config))

    @pytest.mark.parametrize("change", [
        {"epsilon": 1e-8}, {"max_iter": 50}, {"estimate_nu": False},
        {"fixed_nu": 5.0},
    ])
    def test_rejects_configs_differing_in_shared_settings(self, change):
        data = replicate_data(small_spec(), 0)
        configs = [FitConfig(), replace(FitConfig(method="mlq", q=0.9), **change)]
        with pytest.raises(DomainError):
            fit_many(data, configs)

    def test_rejects_an_empty_batch(self):
        with pytest.raises(DomainError):
            fit_many(replicate_data(small_spec(), 0), [])

    def test_one_batched_iteration_matches_the_scalar_steps(self):
        rows = replicate_data(small_spec(), 2)
        configs = batch_configs(FitConfig(max_iter=1))
        start = init_params(rows)
        est = e_step(rows, start)
        bracket = estimators.NU_BRACKET
        for result, config in zip(fit_many(rows, configs), configs):
            if config.method == "ml":
                mu, sigma = m_step_ml(rows, est)
                nu = solve_nu_ml(est, bracket).nu
            else:
                mu, sigma = m_step_mlq(rows, start, config.q, s=est.s)
                nu = solve_nu_mlq(rows, (start.mu, start.sigma), est, config.q, bracket).nu
            assert result.iterations == 1
            assert np.allclose(result.params.mu, mu, rtol=1e-12, atol=1e-12)
            assert np.allclose(result.params.sigma, sigma, rtol=1e-12, atol=1e-12)
            assert result.params.nu == pytest.approx(nu, abs=1e-9)
