import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import digamma
from scipy.stats import multivariate_t

import robust_t as rt
from robust_t import estimators, simulation
from robust_t.errors import DegenerateData, DimensionMismatch, DomainError
from robust_t.estimators import (
    FitConfig,
    e_step,
    fit,
    fit_many,
    init_params,
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


def observed_nu_root(rows, mu, sigma, q):
    """The root in nu of sum f^(1 - q) T at (mu, sigma), by brentq on NU_BRACKET.

    T = 2 d log f / d nu; without a sign change on the bracket, the endpoint
    with the smaller |value|. Written with scipy only, apart from the bracket.
    """
    p = rows.shape[1]
    d = rows - mu
    s = np.sum(d * np.linalg.solve(sigma, d.T).T, axis=1)

    def score(nu):
        t = digamma(0.5 * (nu + p)) - digamma(0.5 * nu) - np.log1p(s / nu) + (s - p) / (nu + s)
        log_f = multivariate_t(mu, sigma, df=nu).logpdf(rows)
        return float(np.sum(np.exp((1.0 - q) * log_f) * t))

    lo, hi = estimators.NU_BRACKET
    if (score(lo) < 0.0) != (score(hi) < 0.0):
        return brentq(score, lo, hi, xtol=1e-13, rtol=1e-15, maxiter=500)
    return lo if abs(score(lo)) <= abs(score(hi)) else hi


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

    def test_nonconverged_fits_are_counted_and_left_out_of_the_means(self):
        spec = small_spec(n_replications=4, fit_config=FitConfig(max_iter=12))
        report = rt.run_simulation(spec)
        for summary in (report.ml, *report.q_sweep):
            group = [r for r in report.records
                     if (r.method, r.q) == (summary.method, summary.q)]
            used = [r for r in group if r.converged]
            assert summary.n_failed == 0
            assert summary.n_nonconverged == len(group) - len(used)
            assert summary.n_used == len(used)
            if used:
                assert summary.mean_nu == np.mean([r.nu for r in used])
            else:
                assert math.isnan(summary.mean_nu) and math.isnan(summary.mean_combined)
        assert 0 < report.ml.n_nonconverged < spec.n_replications
        # q = 0.9 is the only q with a converged fit, so the only finite summary
        assert [s.n_used > 0 for s in report.q_sweep] == [False, False, True, False]
        assert report.selected_q == 0.9 and report.mlq is report.q_sweep[2]

    def test_first_q_selected_when_every_summary_is_nan(self):
        report = rt.run_simulation(small_spec(n_replications=2, fit_config=FitConfig(max_iter=1)))
        assert all(s.n_used == 0 and math.isnan(s.mean_combined) for s in report.q_sweep)
        assert report.selected_q == Q_GRID[0] and report.mlq is report.q_sweep[0]

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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grouping_does_not_change_records(self, monkeypatch, jobs):
        spec = small_spec(n_replications=5)
        expected = rt.run_simulation(spec).records
        # room for one replicate's fits per group: five groups
        monkeypatch.setattr(simulation, "GROUP_ELEMENTS", (1 + len(Q_GRID)) * (spec.n + 3))
        assert len(simulation._replicate_groups(spec, jobs)) == 5
        assert rt.run_simulation(spec, jobs=jobs).records == expected

    def test_groups_cover_the_replicates_in_order(self, monkeypatch):
        spec = small_spec(n_replications=7)
        assert simulation._replicate_groups(spec, 1) == [range(7)]
        assert simulation._replicate_groups(spec, 2) == [range(3), range(3, 7)]
        assert simulation._replicate_groups(spec, 20) == [range(k, k + 1) for k in range(7)]
        monkeypatch.setattr(simulation, "GROUP_ELEMENTS", 2 * (1 + len(Q_GRID)) * (spec.n + 3))
        groups = simulation._replicate_groups(spec, 1)
        assert [len(g) for g in groups] == [1, 2, 2, 2]
        assert [k for g in groups for k in g] == list(range(7))

    def test_a_wrapped_nu_score_leaves_records_unchanged(self, monkeypatch):
        # the benchmark's tracer counts score calls through a wrapper that
        # takes one positional argument; the score must keep working that way
        spec = small_spec(n_replications=2)
        expected = rt.run_simulation(spec).records
        original = estimators._bracketed_root
        calls = []

        def root(g, *args, **kwargs):
            def counted(x):
                calls.append(x.shape)
                return g(x)
            return original(counted, *args, **kwargs)

        monkeypatch.setattr(estimators, "_bracketed_root", root)
        assert rt.run_simulation(spec).records == expected
        assert calls

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

    def test_a_nu_solve_without_a_root_fails_only_its_fit(self, monkeypatch):
        # an overflowing q-weighted score can leave the root NaN; that fit
        # fails alone instead of the whole batch raising DomainError
        data = replicate_data(small_spec(), 0)
        configs = batch_configs()
        expected = fit_many(data, configs)
        original = estimators._bracketed_root
        calls = []

        def no_first_root_for_fit_2(g, lo, hi, start):
            roots, bracketed = original(g, lo, hi, start)
            if not calls:
                roots[2] = np.nan
            calls.append(True)
            return roots, bracketed

        monkeypatch.setattr(estimators, "_bracketed_root", no_first_root_for_fit_2)
        got = fit_many(data, configs)
        assert isinstance(got[2], DegenerateData)
        assert all(same_fit(outcome, want)
                   for k, (want, outcome) in enumerate(zip(expected, got)) if k != 2)

    def test_fixed_nu_batch(self):
        data = replicate_data(small_spec(), 1)
        configs = batch_configs(FitConfig(fixed_nu=4.0))
        for result, config in zip(fit_many(data, configs), configs):
            assert result.params.nu == 4.0
            assert same_fit(result, fit(data, config))

    @pytest.mark.parametrize("change", [
        {"epsilon": 1e-8}, {"max_iter": 50}, {"fixed_nu": 3.0}, {"fixed_nu": 5.0},
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
        # mu and sigma are the paper's steps, written here in plain numpy with
        # the PX-EM denominator sum(w); nu solves the observed-data equation
        # at the updated mu and sigma (the ECME step)
        rows = replicate_data(small_spec(), 2)
        configs = batch_configs(FitConfig(max_iter=1))
        start = init_params(rows)
        nu0, p = start.nu, rows.shape[1]
        d0 = rows - start.mu
        s = np.sum(d0 * np.linalg.solve(start.sigma, d0.T).T, axis=1)
        for result, config in zip(fit_many(rows, configs), configs):
            a = 0.5 * (1.0 - config.q) * (nu0 + p)
            w = (nu0 + p) * (nu0 + s) ** -(1.0 + a)
            mu = (w[:, None] * rows).sum(axis=0) / w.sum()
            d = rows - (mu if config.method == "ml" else start.mu)
            sigma = (w[:, None, None] * d[:, :, None] * d[:, None, :]).sum(axis=0) / w.sum()
            assert result.iterations == 1
            assert np.allclose(result.params.mu, mu, rtol=1e-12, atol=1e-12)
            assert np.allclose(result.params.sigma, sigma, rtol=1e-12, atol=1e-12)
            nu = observed_nu_root(rows, mu, sigma, config.q)
            assert result.params.nu == pytest.approx(nu, abs=1e-9)

    def test_converged_nu_solves_the_observed_equation(self):
        # the fixed point in nu of the paper's equations, by Fisher's identity
        spec = small_spec()
        configs = [FitConfig(), FitConfig(method="mlq", q=0.8), FitConfig(method="mlq", q=0.9)]
        for replicate in range(spec.n_replications):
            rows = replicate_data(spec, replicate)
            for result, config in zip(fit_many(rows, configs), configs):
                assert result.converged
                nu = observed_nu_root(rows, result.params.mu, result.params.sigma, config.q)
                assert abs(result.params.nu - nu) < 10 * config.epsilon


class TestFitBatch:
    def test_each_dataset_equals_its_own_fit_many(self):
        spec = small_spec(n_replications=4)
        datasets = [replicate_data(spec, k) for k in range(4)]
        # identical rows: a degenerate dataset in the middle of the stack
        datasets.insert(2, np.tile([1.0, 2.0], (datasets[0].shape[0], 1)))
        configs = batch_configs()
        batched = estimators._fit_batch(datasets, configs)
        assert len(batched) == len(datasets)
        for data, outcomes in zip(datasets, batched):
            alone = fit_many(data, configs)
            assert len(outcomes) == len(configs)
            for got, want in zip(outcomes, alone):
                if isinstance(want, DegenerateData):
                    assert type(got) is DegenerateData and str(got) == str(want)
                else:
                    assert same_fit(got, want)
                    assert got.iterations == want.iterations
        assert all(isinstance(o, DegenerateData) for o in batched[2])
        assert not any(isinstance(o, DegenerateData) for k in (0, 1, 3, 4) for o in batched[k])

    def test_only_degenerate_datasets(self):
        identical = np.tile([1.0, 2.0], (20, 1))
        batched = estimators._fit_batch([identical, identical], batch_configs())
        assert [len(o) for o in batched] == [1 + len(Q_GRID)] * 2
        assert all(isinstance(o, DegenerateData) for outcomes in batched for o in outcomes)
        assert estimators._fit_batch([], batch_configs()) == []

    def test_rejects_datasets_of_different_shapes(self):
        spec = small_spec()
        data = replicate_data(spec, 0)
        with pytest.raises(DimensionMismatch):
            estimators._fit_batch([data, data[:-1]], batch_configs())


def log_equations(targets):
    """g for the equations log(x) = target, evaluated only on the open rows."""
    evaluated = []

    def evaluate(rows, x):
        evaluated.append(np.arange(targets.shape[0])[rows])
        value = targets[rows, None] - np.log(x)
        return value, -1.0 / x[:, -1:]

    return estimators._open_rows(evaluate), evaluated


class TestBracketedRoot:
    LO, HI = 0.1, 200.0

    def test_each_row_equals_its_own_solve(self):
        lo, hi = self.LO, self.HI
        targets = np.array([
            np.log(lo) - 1.0,  # below the bracket: no sign change, closed at once
            np.log(hi) + 1.0,  # above it
            np.log(lo),  # an exact zero at the lower endpoint
            np.log(5.0),  # an exact zero at the start
            0.3, 1.7, -1.2, 4.9, np.log(3.0) + 1e-13,
        ])
        start = np.array([3.0, 3.0, 3.0, 5.0, 3.0, 0.5, 150.0, 3.0, 3.0])
        g, evaluated = log_equations(targets)
        roots, bracketed = estimators._bracketed_root(g, lo, hi, start)
        assert bracketed.tolist() == [False, False, True, True, True, True, True, True, True]
        assert roots[0] == lo and roots[1] == hi and roots[2] == lo and roots[3] == 5.0
        for b in range(targets.shape[0]):
            g_one, _ = log_equations(targets[b:b + 1])
            root, flag = estimators._bracketed_root(g_one, lo, hi, start[b:b + 1])
            assert root[0] == roots[b] and flag[0] == bracketed[b]
        # every row is evaluated on the first call, only the open ones after it
        assert evaluated[0].tolist() == list(range(targets.shape[0]))
        assert all(not set(rows) & {0, 1, 2, 3} for rows in evaluated[1:])
        assert len(evaluated) > 2 and len(evaluated[-1]) < len(evaluated[1])

    def test_closed_rows_reach_no_special_function(self):
        data = replicate_data(small_spec(), 0)
        est = e_step(data, init_params(data))
        score = estimators._observed_nu_score(np.tile(est.s, (3, 1)), np.array([0.0, 0.1, 0.2]),
                                              np.zeros(3), 2)
        nu = np.array([[np.nan], [4.0], [np.nan]])
        value, slope = score(nu)
        assert np.isnan(value[[0, 2]]).all() and np.isnan(slope[[0, 2]]).all()
        alone_value, alone_slope = score(np.array([[4.0], [4.0], [4.0]]))
        assert value[1, 0] == alone_value[1, 0] and slope[1, 0] == alone_slope[1, 0]

    def test_nu_score_slopes_match_finite_differences(self):
        data = replicate_data(small_spec(), 0)
        start = init_params(data)
        est = e_step(data, start)
        s, tilt = np.tile(est.s, (3, 1)), np.array([0.0, 0.1, 0.2])
        score = estimators._observed_nu_score(s, tilt, np.full(3, start.log_det_sigma), 2)
        for nu in (0.7, 4.0, 60.0):
            h = 1e-6 * nu
            _, slope = score(np.full((3, 1), nu))
            value, _ = score(np.tile([nu - h, nu + h], (3, 1)))
            assert np.allclose(slope[:, 0], (value[:, 1] - value[:, 0]) / (2 * h), rtol=1e-5)
