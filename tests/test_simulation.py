import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import digamma, polygamma
from scipy.stats import multivariate_t

import robust_t as rt
from robust_t import estimators, simulation, special
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


def observed_nu_score(rows, mu, sigma, q):
    """sum f^(1 - q) T at (mu, sigma) and its slope, as functions of nu.

    T = 2 d log f / d nu, and d f^(1 - q) / d nu = (1 - q) f^(1 - q) T / 2.
    Written with numpy and scipy only.
    """
    p = rows.shape[1]
    d = rows - mu
    s = np.sum(d * np.linalg.solve(sigma, d.T).T, axis=1)

    def terms(nu):
        t = digamma(0.5 * (nu + p)) - digamma(0.5 * nu) - np.log1p(s / nu) + (s - p) / (nu + s)
        return t, np.exp((1.0 - q) * multivariate_t(mu, sigma, df=nu).logpdf(rows))

    def value(nu):
        t, weight = terms(nu)
        return float(np.sum(weight * t))

    def slope(nu):
        t, weight = terms(nu)
        dt = (0.5 * (polygamma(1, 0.5 * (nu + p)) - polygamma(1, 0.5 * nu))
              + s / (nu * (nu + s)) - (s - p) / (nu + s) ** 2)
        return float(np.sum(weight * (dt + 0.5 * (1.0 - q) * t * t)))

    return value, slope


def observed_nu_roots(rows, mu, sigma, q):
    """The roots in nu of sum f^(1 - q) T at (mu, sigma) on NU_BRACKET.

    brentq finds one root between each pair of neighbouring points of a log
    grid over the bracket at which the sum has opposite signs. Without a
    sign change between the bracket's ends, the one entry is the end the
    sum's sign points to: lo where it is negative, hi where positive.
    Written with scipy only, apart from the bracket.
    """
    score, _ = observed_nu_score(rows, mu, sigma, q)
    lo, hi = estimators.NU_BRACKET
    if (score(lo) < 0.0) == (score(hi) < 0.0):
        return [hi if score(hi) == 0.0 or score(lo) > 0.0 else lo]
    grid = np.geomspace(lo, hi, 200)
    negative = [score(nu) < 0.0 for nu in grid]
    return [brentq(score, a, b, xtol=1e-13, rtol=1e-15, maxiter=500)
            for a, b, sign_a, sign_b in zip(grid, grid[1:], negative, negative[1:])
            if sign_a != sign_b]


def first_newton_step(rows, mu, sigma, q, nu):
    """The engine's one-step nu search from nu on sum f^(1 - q) T at (mu, sigma).

    nu is clipped to the bracket. Where the slope there is negative and the
    Newton step stays on the bracket, that step is returned. Elsewhere the
    search is Newton's method safeguarded by bisection: the first Newton step
    that lands in the closed sign-change interval [a, b] is returned, and any
    other is replaced by the geometric midpoint sqrt(a b). Without a sign
    change on the bracket, the end the value's sign points to is returned: a
    where it is negative, b where positive.
    """
    score, slope = observed_nu_score(rows, mu, sigma, q)
    a, b = estimators.NU_BRACKET
    nu = min(max(nu, a), b)
    step = nu - score(nu) / slope(nu)
    if slope(nu) < 0.0 and a <= step <= b:
        return step
    if (score(a) < 0.0) == (score(b) < 0.0):
        return b if score(b) == 0.0 or score(a) > 0.0 else a
    low_negative = score(a) < 0.0
    while True:
        value = score(nu)
        if (value < 0.0) == low_negative:
            a = nu
        else:
            b = nu
        step = nu - value / slope(nu)
        if a <= step <= b:
            return step
        nu = math.sqrt(a * b)


def same_fit(a, b):
    return (np.array_equal(a.params.mu, b.params.mu)
            and np.array_equal(a.params.sigma, b.params.sigma)
            and a.params.nu == b.params.nu
            and a.trace == b.trace
            and (a.converged, a.nu_clamped) == (b.converged, b.nu_clamped))


def assert_failed_record(record):
    """A failed p = 2 fit's record: not converged, no iterations, NaN estimate and distances."""
    assert (record.failed, record.converged, record.iterations) == (True, False, 0)
    assert (len(record.mu), len(record.sigma)) == (2, 3)
    values = (*record.mu, *record.sigma, record.nu, record.d_mu, record.d_sigma, record.sq_err_nu)
    assert all(math.isnan(value) for value in values)


def same_records(a, b) -> bool:
    """Whether two record sequences are equal field by field, a NaN equal to a NaN.

    record == record is False whenever a field holds a NaN; a float's repr names it exactly.
    """
    return len(a) == len(b) and all(repr(x) == repr(y) for x, y in zip(a, b))


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each pool run_simulation opens; the pools run inline."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", InlinePool)
    return sizes


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

    @pytest.mark.parametrize("truth", [
        rt.preset_case(1),
        rt.preset_case(2),
        rt.MvtParams(np.array([1.0, -2.0, 0.5]),
                     np.array([[2.0, 0.3, -0.2], [0.3, 1.0, 0.1], [-0.2, 0.1, 0.5]]), 4.0),
    ], ids=["case-i", "case-ii", "p3"])
    def test_record_distances_are_bitwise_those_of_distance_metrics(self, truth):
        spec = small_spec(true_params=truth, n_replications=2)
        upper = np.triu_indices(truth.dim)
        for record in rt.run_simulation(spec).records:
            config = FitConfig(method=record.method, q=1.0 if record.q is None else record.q)
            single = fit(replicate_data(spec, record.replicate), config)
            assert not record.failed
            assert record.mu == tuple(single.params.mu)
            assert record.sigma == tuple(single.params.sigma[upper])
            assert record.nu == single.params.nu
            assert (record.d_mu, record.d_sigma, record.sq_err_nu) == rt.distance_metrics(
                single.params, truth)

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
        # only q = 0.9 and 0.95 have converged fits, so finite summaries
        assert [s.n_used > 0 for s in report.q_sweep] == [False, False, True, True]
        assert report.q_sweep[2].mean_combined < report.q_sweep[3].mean_combined
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
        for record in report.records:
            assert_failed_record(record)
        assert report.ml.n_failed == spec.n_replications
        assert all(s.n_failed == spec.n_replications and s.n_used == 0 for s in report.q_sweep)

    @pytest.mark.parametrize("when", ["set-up", "mid-run"])
    def test_a_failed_fits_record_is_nan_and_left_out_of_its_summary(self, monkeypatch, when):
        spec = small_spec(n_outliers=0, n_replications=3)
        expected = rt.run_simulation(spec).records
        if when == "set-up":  # identical rows: replicate 1's fits fail before their first step
            original = simulation.generate_replicate
            monkeypatch.setattr(simulation, "generate_replicate", lambda spec, index: (
                np.tile([1.0, 2.0], (spec.n, 1)) if index == 1 else original(spec, index)))
            failed = [k for k, record in enumerate(expected) if record.replicate == 1]
        else:  # the first nu solve finds no root for fit 2, replicate 0 at q = 0.85
            original, calls = estimators._bracketed_root, []

            def no_first_root_for_fit_2(g, lo, hi, start, *args):
                roots, bracketed = original(g, lo, hi, start, *args)
                if not calls:
                    roots[2] = np.nan
                calls.append(True)
                return roots, bracketed

            monkeypatch.setattr(estimators, "_bracketed_root", no_first_root_for_fit_2)
            failed = [2]
        report = rt.run_simulation(spec)
        for k, (record, want) in enumerate(zip(report.records, expected, strict=True)):
            if k in failed:
                assert (record.replicate, record.method, record.q) == (
                    want.replicate, want.method, want.q)
                assert_failed_record(record)
            else:
                assert record == want
        truth = spec.true_params
        failed_labels = [(expected[k].method, expected[k].q) for k in failed]
        for summary in (report.ml, *report.q_sweep):
            label = (summary.method, summary.q)
            used = [r for r in report.records if (r.method, r.q) == label and r.converged]
            assert summary.n_failed == failed_labels.count(label)
            assert summary.n_used == len(used) > 0
            # a failed record in the means would make them NaN
            assert summary.mean_nu == np.mean([r.nu for r in used])
            assert summary.mean_combined == np.mean(
                [r.d_mu + r.d_sigma + abs(r.nu - truth.nu) for r in used])

    def test_jobs_do_not_change_records_with_failed_fits(self):
        # case I at n = 5 with no outliers: 13 of its 90 fits fail, 2 at q = 0.7 and 11 at 0.9
        spec = small_spec(n=5, n_outliers=0, n_replications=30, q_grid=(0.7, 0.9), seed=5)
        report = rt.run_simulation(spec, jobs=1)
        assert [s.n_failed for s in (report.ml, *report.q_sweep)] == [0, 2, 11]
        for record in report.records:
            if record.failed:
                assert_failed_record(record)
        assert same_records(rt.run_simulation(spec, jobs=2).records, report.records)

    @pytest.mark.filterwarnings("error")
    def test_a_replicate_whose_sums_overflow_is_recorded_as_failed(self, monkeypatch):
        spec = small_spec(n_outliers=0, n_replications=3)
        expected = rt.run_simulation(spec).records
        original = simulation.generate_replicate

        def replicate(spec, index):
            rows = original(spec, index)
            return 1e307 * rows / np.max(np.abs(rows)) if index == 1 else rows

        monkeypatch.setattr(simulation, "generate_replicate", replicate)
        records = rt.run_simulation(spec).records
        assert [r.failed for r in records if r.replicate == 1] == [True] * (1 + len(Q_GRID))
        assert [r for r in records if r.replicate != 1] == [
            r for r in expected if r.replicate != 1]

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

    def test_pool_has_no_more_workers_than_groups(self, monkeypatch, pool_sizes):
        # the pool starts all its workers at the first submit
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        spec = small_spec(n_replications=2)
        expected = rt.run_simulation(spec).records
        assert rt.run_simulation(spec, jobs=100_000).records == expected
        assert pool_sizes == [2]

    @pytest.mark.parametrize("affinity", [True, False])
    def test_pool_has_no_more_workers_than_usable_cpus(self, monkeypatch, pool_sizes, affinity):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)),
                                raising=False)
        else:  # a platform without affinity masks
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 3)
        spec = small_spec(n_replications=5)
        expected = rt.run_simulation(spec).records
        # the groups still follow jobs: one per replicate
        assert rt.run_simulation(spec, jobs=100_000).records == expected
        assert pool_sizes == [3]

    @pytest.mark.parametrize("settings", [
        dict(n_replications=12),  # more than 8 converged fits per config
        dict(n_replications=4, fit_config=FitConfig(max_iter=12)),  # some unconverged
    ])
    def test_summaries_match_plain_numpy_over_the_converged_records(self, settings):
        spec = small_spec(**settings)
        report = rt.run_simulation(spec)
        truth = spec.true_params
        upper = np.triu_indices(2)

        def full(triangle):
            m = np.zeros((2, 2))
            m[upper] = triangle
            return m + np.triu(m, 1).T

        def assert_mean(actual, column):
            # the same mean up to the order of summation
            column = np.asarray(column, dtype=float)
            expected = np.mean(column, axis=0)
            bound = 64 * np.finfo(float).eps * np.max(np.abs(column))
            np.testing.assert_allclose(actual, expected, rtol=0.0, atol=bound)

        for summary in (report.ml, *report.q_sweep):
            group = [r for r in report.records if (r.method, r.q) == (summary.method, summary.q)]
            used = [r for r in group if r.converged]
            assert summary.n_replications == len(group) == spec.n_replications
            assert summary.n_failed == 0
            assert summary.n_nonconverged == len(group) - len(used)
            assert summary.n_used == len(used)
            means = (summary.mean_mu, summary.mean_sigma, summary.mean_nu, summary.mean_d_mu,
                     summary.mean_d_sigma, summary.mse_nu, summary.mean_combined)
            if not used:
                assert all(np.isnan(m).all() for m in means)
                continue
            columns = ([r.mu for r in used], [full(r.sigma) for r in used],
                       [r.nu for r in used], [r.d_mu for r in used],
                       [r.d_sigma for r in used], [r.sq_err_nu for r in used],
                       [r.d_mu + r.d_sigma + abs(r.nu - truth.nu) for r in used])
            for mean, column in zip(means, columns):
                assert_mean(mean, column)
        if spec.n_replications > 8:
            assert all(s.n_used > 8 for s in (report.ml, *report.q_sweep))
        else:
            assert any(s.n_used == 0 for s in report.q_sweep)

    def test_rank_deficient_replicates_recorded_as_failed(self, monkeypatch):
        spec = small_spec(n_outliers=0, n_replications=2)
        line = np.outer(np.arange(spec.n), [1.0, 2.0])
        monkeypatch.setattr(simulation, "generate_replicate", lambda spec, index: line)
        assert all(r.failed for r in rt.run_simulation(spec).records)


class TestDistanceMetrics:
    def test_location_scatter_and_nu_distances(self):
        truth = rt.preset_case(1)
        estimate = rt.MvtParams(np.array([5.0, 5.0]), np.array([[2.0, 0.5], [0.5, 3.0]]), 5.0)
        d = rt.distance_metrics(estimate, truth)
        assert d == (5.0, math.sqrt(5.5), 4.0)
        assert (d.d_mu, d.d_sigma, d.sq_err_nu) == tuple(d)
        assert rt.distance_metrics(truth, truth) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("p", [2, 3])
    def test_distances_are_bitwise_those_of_numpys_norms(self, p):
        # the records' one error formula; a row-wise sum of squares moves some norms by an ulp
        rng = np.random.default_rng(p)
        a = rng.standard_normal((p, p))
        truth = rt.MvtParams(rng.standard_normal(p), a @ a.T + np.eye(p), 3.0)
        for _ in range(200):
            a = rng.standard_normal((p, p)) * 10.0 ** rng.integers(-4, 5)
            estimate = rt.MvtParams(rng.standard_normal(p) * 10.0 ** rng.integers(-4, 5),
                                    a @ a.T + np.eye(p), rng.uniform(1.0, 50.0))
            assert rt.distance_metrics(estimate, truth) == (
                np.linalg.norm(estimate.mu - truth.mu),
                np.linalg.norm(estimate.sigma - truth.sigma, ord="fro"),
                (estimate.nu - truth.nu) ** 2)

    def test_rejects_a_truth_of_another_dimension(self):
        estimate = rt.MvtParams(np.zeros(3), np.eye(3), 3.0)
        with pytest.raises(DimensionMismatch):
            rt.distance_metrics(estimate, rt.preset_case(1))


class TestFitMany:
    @pytest.mark.parametrize("p", [None, 1, 2, 3, 5, 10],
                             ids=["contaminated", "p1", "p2", "p3", "p5", "p10"])
    def test_each_result_equals_its_single_fit(self, p):
        # the Gamma-function gaps of p != 2 must not round with the batch's size either
        if p is None:
            data = replicate_data(small_spec(), 0)
        else:
            data = np.random.default_rng(p).standard_t(3.0, size=(150, p))
        configs = batch_configs() + [FitConfig(method="mlq", q=1.0)]
        for result, config in zip(fit_many(data, configs), configs):
            assert same_fit(result, fit(data, config))

    @pytest.mark.parametrize("n,p", [(20_000, 2), (2_000, 10)])
    def test_each_result_equals_its_single_fit_at_the_large_fit_shapes(self, n, p):
        # the scatter, start and substitution sums are one BLAS call per fit, of one
        # shape and layout whatever the batch holds and whatever the input's memory order
        rng = np.random.default_rng(n + p)
        data = rng.standard_t(3.0, size=(n, p))
        data[:n // 200] += rng.uniform(80.0, 160.0, size=(n // 200, p))
        configs = [FitConfig(), FitConfig(method="mlq", q=0.9), FitConfig(method="mlq", q=0.7)]
        alone = [fit(data, config) for config in configs]
        for result, want in zip(fit_many(data, configs), alone):
            assert same_fit(result, want)
        assert same_fit(fit(np.asfortranarray(data), configs[0]), alone[0])

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one CPU")
    def test_a_fit_does_not_depend_on_the_blas_thread_count(self):
        # at 50,000 rows OpenBLAS splits a gemv over the rows (p = 10) or a dot (p = 1)
        # across threads; at 20,000 and 30,000 rows by 10 that gemv's bits did not change
        code = "\n".join([
            "import numpy as np",
            "from robust_t.estimators import FitConfig, fit_many",
            "for p in (10, 1):",
            "    rows = np.random.default_rng(p).standard_t(3.0, size=(50_000, p))",
            "    rows[:5] += 100.0",
            "    configs = [FitConfig(max_iter=3), FitConfig(method='mlq', q=0.9, max_iter=3)]",
            "    for r in fit_many(rows, configs):",
            "        print(r.params.mu.tobytes().hex(), r.params.sigma.tobytes().hex(),",
            "              r.params.nu.hex())",
        ])
        src = str(Path(rt.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + sys.path))
        outputs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True).stdout
                   for threads in ("1", "2")]
        assert len(outputs[0].splitlines()) == 4
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("case", [1, 2])
    def test_ml_is_mlq_at_q_one(self, case):
        # lq is log at q = 1, so the method only labels the fit
        spec = small_spec(true_params=rt.preset_case(case), n_replications=4)
        configs = [FitConfig(), FitConfig(method="mlq", q=1.0), FitConfig(method="mlq", q=0.9)]
        for replicate in range(spec.n_replications):
            ml, mlq, _ = fit_many(replicate_data(spec, replicate), configs)
            assert same_fit(ml, mlq) and ml.objective == mlq.objective
            assert (ml.method, ml.q, mlq.method, mlq.q) == ("ml", None, "mlq", 1.0)

    @pytest.mark.parametrize("p", [1, 2, 3, 10])
    def test_each_results_params_are_those_its_constructor_makes(self, p):
        # the results reuse the engine's checked arrays and Cholesky factors
        rng = np.random.default_rng(30 + p)
        data = rng.standard_t(3.0, size=(150, p))
        data[:3] += 80.0
        for result in fit_many(data, batch_configs()):
            params = result.params
            rebuilt = rt.MvtParams(params.mu, params.sigma, params.nu)
            for name in ("mu", "sigma", "chol_lower"):
                got, want = getattr(params, name), getattr(rebuilt, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert not got.flags.writeable
            assert type(params.nu) is float and params.nu == rebuilt.nu
            assert params.sigma.tobytes() == params.sigma.T.tobytes(order="C")

    def test_a_failing_fit_leaves_the_others_alone(self, monkeypatch):
        data = replicate_data(small_spec(), 0)
        configs = batch_configs()
        expected = fit_many(data, configs)
        original = estimators._cond_expect_u

        def zero_weights_of_row(row):
            # every fit is still in the batch at the first M-step, in config order
            calls = []

            def wrapped(s, nu, p):
                u = original(s, nu, p)
                if not calls:
                    u[row] = 0.0
                calls.append(True)
                return u

            return wrapped

        row = [config.q for config in configs].index(0.85)
        monkeypatch.setattr(estimators, "_cond_expect_u", zero_weights_of_row(row))
        got = fit_many(data, configs)
        for config, want, outcome in zip(configs, expected, got):
            if config.q == 0.85:
                assert isinstance(outcome, DegenerateData)
            else:
                assert same_fit(outcome, want)
        monkeypatch.setattr(estimators, "_cond_expect_u", zero_weights_of_row(0))
        with pytest.raises(DegenerateData):
            fit(data, configs[row])

    def test_each_survivor_of_a_batch_with_a_failing_fit_keeps_its_own_trace(self, monkeypatch):
        data = replicate_data(small_spec(), 0)
        configs = batch_configs()
        alone = [fit(data, config) for config in configs]
        iterations = [result.iterations for result in alone]
        # the fits stop at different iterations, all after the fourth
        assert len(set(iterations)) > 1 and min(iterations) > 4
        original = estimators._cond_expect_u
        calls = []
        row = [config.q for config in configs].index(0.9)

        def zero_weights_at_the_fourth_iteration(s, nu, p):
            # one call per iteration; every fit is still in the batch, in config order
            u = original(s, nu, p)
            calls.append(True)
            if len(calls) == 4:
                u[row] = 0.0
            return u

        monkeypatch.setattr(estimators, "_cond_expect_u", zero_weights_at_the_fourth_iteration)
        outcomes = fit_many(data, configs)
        assert len(calls) == max(iterations)
        assert isinstance(outcomes[row], DegenerateData)
        for k, (outcome, single) in enumerate(zip(outcomes, alone)):
            if k != row:
                assert same_fit(outcome, single)
                assert outcome.iterations == single.iterations
                # one record per evaluation of F, numbered from 1
                numbers = [record.iteration for record in outcome.trace]
                assert numbers == list(range(1, outcome.iterations + 1))
                assert [tuple(r) for r in outcome.trace] == [tuple(r) for r in single.trace]
                assert (outcome.objective, outcome.change_norm) == (
                    single.objective, single.change_norm)

    def test_a_nu_solve_without_a_root_fails_only_its_fit(self, monkeypatch):
        # an overflowing q-weighted score can leave the root NaN; that fit
        # fails alone instead of the whole batch raising DomainError
        data = replicate_data(small_spec(), 0)
        configs = batch_configs()
        expected = fit_many(data, configs)
        original = estimators._bracketed_root
        calls = []

        def no_first_root_for_fit_2(g, lo, hi, start, *args):
            roots, bracketed = original(g, lo, hi, start, *args)
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
        # the PX-EM denominator sum(w) and every scatter centered on the
        # updated mu; nu takes one guarded Newton step on the observed-data
        # equation at the updated mu and sigma (the inexact ECME step)
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
            d = rows - mu
            sigma = (w[:, None, None] * d[:, :, None] * d[:, None, :]).sum(axis=0) / w.sum()
            assert result.iterations == 1
            assert np.allclose(result.params.mu, mu, rtol=1e-12, atol=1e-12)
            assert np.allclose(result.params.sigma, sigma, rtol=1e-12, atol=1e-12)
            # the first iteration does not start from a SQUAREM point, so its
            # nu is one step, not the root
            nu = first_newton_step(rows, mu, sigma, config.q, nu0)
            assert abs(result.params.nu - nu) <= 1e-9

    def test_a_guarded_step_where_the_score_keeps_its_sign_on_the_bracket(self):
        # at the first update of q = 0.8 the score is positive at both ends
        # of NU_BRACKET; the guarded step from 3 stops at 4.37 instead of
        # clamping to 200, and still raises the objective
        rows = replicate_data(small_spec(), 2)
        config = FitConfig(method="mlq", q=0.8)
        first = fit(rows, replace(config, max_iter=1))
        mu, sigma, nu = first.params.mu, first.params.sigma, first.params.nu
        assert observed_nu_roots(rows, mu, sigma, config.q) == [estimators.NU_BRACKET[1]]
        assert not first.nu_clamped and abs(nu - 4.368478) < 1e-6
        assert abs(nu - first_newton_step(rows, mu, sigma, config.q, 3.0)) <= 1e-9
        log_f = multivariate_t(mu, sigma, df=3.0).logpdf(rows)
        before = np.sum(np.expm1((1.0 - config.q) * log_f)) / (1.0 - config.q)
        assert first.objective > before
        result = fit(rows, config)
        assert result.converged
        roots = observed_nu_roots(rows, result.params.mu, result.params.sigma, config.q)
        assert min(abs(result.params.nu - root) for root in roots) <= 1e-8

    def test_fits_that_fall_back_leave_the_guarded_steps_alone(self, monkeypatch):
        # near-normal rows run nu to 200, where the Newton step leaves the
        # bracket and the search evaluates its ends; other fits of the batch
        # take guarded steps in the same calls, one-step and SQUAREM-point
        # solves alike
        contaminated = replicate_data(small_spec(), 0)
        normal = np.random.default_rng(5).normal(size=contaminated.shape) @ [[2.0, 0.5],
                                                                           [0.0, 1.0]]
        configs = batch_configs()
        original = estimators._bracketed_root
        mixed = []

        def root(g, lo, hi, start, newton_tol):
            reads = np.zeros(start.shape, dtype=bool)

            def recorded(nu):
                reads[np.isin(nu, [lo, hi]).any(axis=1)] = True
                return g(nu)

            roots = original(recorded, lo, hi, start, newton_tol)
            # some fits of the solve read an end, the others never do
            if reads.any() and not reads.all():
                mixed.append("squarem" if newton_tol < math.inf else "one step")
            return roots

        monkeypatch.setattr(estimators, "_bracketed_root", root)
        batched = estimators._fit_batch([normal, contaminated], configs)
        assert set(mixed) == {"squarem", "one step"}
        assert all(result.params.nu == estimators.NU_BRACKET[1] for result in batched[0])
        for data, outcomes in zip([normal, contaminated], batched):
            for got, want in zip(outcomes, fit_many(data, configs)):
                assert same_fit(got, want) and got.iterations == want.iterations

    def test_an_iteration_from_a_squarem_point_solves_for_nu(self):
        # the third iteration evaluates F at the SQUAREM point and solves the
        # nu equation at its update to the root; the second takes one step
        rows = replicate_data(small_spec(), 2)
        configs = batch_configs(FitConfig(max_iter=3))
        stepped = fit_many(rows, [replace(config, max_iter=2) for config in configs])
        off_root = 0
        for result, before, config in zip(fit_many(rows, configs), stepped, configs):
            assert result.iterations == 3
            roots = observed_nu_roots(rows, result.params.mu, result.params.sigma, config.q)
            assert min(abs(result.params.nu - nu) for nu in roots) <= 1e-9
            roots = observed_nu_roots(rows, before.params.mu, before.params.sigma, config.q)
            off_root += min(abs(before.params.nu - nu) for nu in roots) > 1e-6
        assert off_root > 0

    def test_squarem_point_solves_accept_a_step_of_sqrt_xtol(self, monkeypatch):
        # a SQUAREM-point solve accepts a Newton step of at most sqrt(_NU_XTOL): its error
        # after that step is about (f'' / 2 f') step^2, so each root stays within 1e-9 of
        # the equation's, and the solves make fewer evaluator calls than with a last step of
        # _NU_XTOL, which on these rows took 24 calls in 5 solves (19 with sqrt(_NU_XTOL))
        rows = replicate_data(small_spec(), 0)
        configs = batch_configs()
        original = estimators._bracketed_root
        count = {"solves": 0, "calls": 0}

        def root(g, lo, hi, start, newton_tol):
            def counted(nu):
                count["calls"] += 1
                return g(nu)

            if newton_tol == math.inf:
                return original(g, lo, hi, start, newton_tol)
            count["solves"] += 1
            return original(counted, lo, hi, start, newton_tol)

        monkeypatch.setattr(estimators, "_bracketed_root", root)
        longest = max(result.iterations for result in fit_many(rows, configs))
        monkeypatch.setattr(estimators, "_bracketed_root", original)
        assert count["solves"] == longest // 3
        assert count["calls"] < 24, f"{count['calls']} evaluator calls, against 24 at _NU_XTOL"
        checked = 0
        for iteration in range(3, longest + 1, 3):
            stopped = fit_many(rows, [replace(config, max_iter=iteration) for config in configs])
            for result, config in zip(stopped, configs):
                if result.iterations == iteration:  # its last iteration solved from x'
                    mu, sigma = result.params.mu, result.params.sigma
                    roots = observed_nu_roots(rows, mu, sigma, config.q)
                    assert min(abs(result.params.nu - nu) for nu in roots) <= 1e-9
                    checked += 1
        assert checked >= len(configs) * 3

    def test_a_root_from_a_squarem_point_is_where_the_score_falls_or_a_clamp(self, monkeypatch):
        # the guarded Newton steps reach a root at which the score falls, a
        # local maximum in nu; near-normal rows clamp at 200
        original = estimators._bracketed_root
        kinds = []

        def root(g, lo, hi, start, newton_tol):
            roots, bracketed = original(g, lo, hi, start, newton_tol)
            if newton_tol < math.inf:
                _, slope = g(roots[:, None])
                assert ((slope[:, 0] < 0.0) | ~bracketed).all()
                kinds.extend(np.where(bracketed, "root", "clamp").tolist())
            return roots, bracketed

        monkeypatch.setattr(estimators, "_bracketed_root", root)
        spec = small_spec()
        datasets = [replicate_data(spec, k) for k in range(spec.n_replications)]
        datasets.append(np.random.default_rng(5).normal(size=datasets[0].shape))
        estimators._fit_batch(datasets, batch_configs())
        assert {"root", "clamp"} <= set(kinds)

    def test_converged_nu_solves_the_observed_equation(self):
        # the fixed point in nu of the paper's equations, by Fisher's identity
        spec = small_spec()
        configs = [FitConfig(), FitConfig(method="mlq", q=0.8), FitConfig(method="mlq", q=0.9)]
        for replicate in range(spec.n_replications):
            rows = replicate_data(spec, replicate)
            for result, config in zip(fit_many(rows, configs), configs):
                assert result.converged
                roots = observed_nu_roots(rows, result.params.mu, result.params.sigma, config.q)
                assert min(abs(result.params.nu - nu) for nu in roots) < 10 * config.epsilon


HOSTILE = ("nan", "inf", "near_max", "identical", "collinear")


def hostile_dataset(kind, shape, rng):
    """Rows of shape (n, p >= 2) that no fit can start from, of one HOSTILE kind."""
    rows = rng.standard_normal(shape)
    cell = rng.integers(shape[0]), rng.integers(shape[1])
    if kind == "nan":
        rows[cell] = np.nan
    elif kind == "inf":
        rows[cell] = rng.choice([-np.inf, np.inf])
    elif kind == "near_max":  # the column sums overflow
        rows = np.where(rows < 0.0, -1e308, 1e308) * rng.uniform(0.5, 1.0, shape)
    elif kind == "identical":
        rows[:] = rows[0]
    else:  # the rows lie on a line
        rows[:, 1] = 2.0 * rows[:, 0] - 1.0
    return rows


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

    @pytest.mark.filterwarnings("error")
    def test_a_dataset_whose_sums_overflow_fails_alone(self):
        spec = small_spec()
        data = replicate_data(spec, 0)
        rng = np.random.default_rng(1)
        huge = np.where(rng.random(data.shape) < 0.5, -1e308, 1e308) * rng.uniform(0.5, 1.0,
                                                                                 data.shape)
        configs = batch_configs()
        clean, overflowing = estimators._fit_batch([data, huge], configs)
        assert all(type(o) is DegenerateData and "overflow" in str(o) for o in overflowing)
        assert all(same_fit(got, want) for got, want in zip(clean, fit_many(data, configs),
                                                            strict=True))

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

    # every warning is an error, bar the deprecation one that hypothesis's failure report raises
    @pytest.mark.filterwarnings("error", "ignore::DeprecationWarning")
    @given(st.integers(1, 3), st.sampled_from(HOSTILE), st.integers(0, 3), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_a_hostile_dataset_fails_alone(self, clean_count, kind, place, seed):
        clean = [replicate_data(small_spec(), k) for k in range(clean_count)]
        hostile = hostile_dataset(kind, clean[0].shape, np.random.default_rng(seed))
        place = min(place, clean_count)
        configs = batch_configs()
        batched = estimators._fit_batch(clean[:place] + [hostile] + clean[place:], configs)
        failed = batched.pop(place)
        if kind in ("nan", "inf"):
            with pytest.raises(DomainError, match="^data entries must be finite$"):
                fit_many(hostile, configs)
            assert all(type(o) is DomainError and str(o) == "data entries must be finite"
                       for o in failed)
        else:
            alone = fit_many(hostile, configs)
            assert all(type(o) is DegenerateData and str(o) == str(want)
                       for o, want in zip(failed, alone, strict=True))
        for data, outcomes in zip(clean, batched, strict=True):
            assert all(same_fit(got, want) for got, want in zip(outcomes, fit_many(data, configs),
                                                                strict=True))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_one_dataset_whose_entries_are_not_finite_is_an_error(self, entry):
        data = replicate_data(small_spec(), 0).copy()
        data[5, 1] = entry
        with pytest.raises(DomainError, match="^data entries must be finite$"):
            fit_many(data, batch_configs())
        with pytest.raises(DomainError, match="^data entries must be finite$"):
            fit(data, FitConfig())


def log_equations(targets):
    """g for the equations log(x) = target, recording the candidates of each call."""
    calls = []

    def g(x):
        calls.append(x.copy())
        return targets[:, None] - np.log(x), -1.0 / x[:, -1:]

    return g, calls


def log_equation(root):
    """The equation log(root) - log(x) = 0 as (value, slope) functions of x."""
    return lambda x: np.log(root) - np.log(x), lambda x: -1.0 / x


def row_equations(*rows):
    """g for one equation per row, given as (value, slope) functions, recording each call."""
    calls = []

    def g(x):
        calls.append(x.copy())
        with np.errstate(divide="ignore", invalid="ignore"):
            pairs = [(value(x[b]), slope(x[b, -1:])) for b, (value, slope) in enumerate(rows)]
        return np.array([value for value, _ in pairs]), np.array([slope for _, slope in pairs])

    return g, calls


def row_candidates(calls, row):
    """The candidates that are not NaN of one row, call by call, over the calls that hold one."""
    return [c[row][~np.isnan(c[row])].tolist() for c in calls if not np.isnan(c[row]).all()]


def recording_repeats(monkeypatch):
    """Patch _bracketed_root to record every (solve, row, candidate) it evaluates again.

    A candidate that a call holds twice for one row counts as a repeat too.
    Returns the repeats and the number of rows of each solve.
    """
    original = estimators._bracketed_root
    repeats, solves = [], []

    def root(g, lo, hi, start, *args):
        seen = [[] for _ in start]
        solves.append(start.shape[0])

        def checked(nu):
            for row, candidates in enumerate(nu):
                new = candidates[~np.isnan(candidates)].tolist()
                repeats.extend((len(solves), row, x) for k, x in enumerate(new)
                               if x in seen[row] or x in new[:k])
                seen[row].extend(new)
            return g(nu)

        return original(checked, lo, hi, start, *args)

    monkeypatch.setattr(estimators, "_bracketed_root", root)
    return repeats, solves


def nu_score_formulas(s, nu, p, one_minus_q, gaps):
    """sum f^(1 - q) T over the rows s at one nu, and its nu slope, term by term.

    Written out as the engine's formulas read before T and the slope shared
    their terms. gaps are special.gamma_gaps's log Gamma, digamma and
    trigamma gaps at nu / 2.
    """
    log_gamma_gap, digamma_gap, trigamma_gap = gaps
    log1p_ratio = np.log1p(s / nu)
    t = digamma_gap - log1p_ratio + (s - p) / (nu + s)
    log_f = (log_gamma_gap - 0.5 * p * np.log(np.pi * nu) - 0.5 * 0.0
             - 0.5 * (nu + p) * log1p_ratio)
    weight = np.exp(one_minus_q * log_f)
    d_t = 0.5 * trigamma_gap + s / (nu * (nu + s)) - (s - p) / (nu + s) / (nu + s)
    return np.sum(t * weight), np.sum(weight * (d_t + 0.5 * one_minus_q * t * t))


class TestBracketedRoot:
    LO, HI = 0.1, 200.0

    def test_each_row_equals_its_own_solve(self):
        lo, hi = self.LO, self.HI
        targets = np.array([
            np.log(lo) - 1.0,  # below the bracket: no sign change
            np.log(hi) + 1.0,  # above it
            np.log(lo),  # an exact zero at the lower endpoint
            np.log(5.0),  # an exact zero at the start
            0.3, 1.7, -1.2, 4.9, np.log(3.0) + 1e-13,
            np.log(hi) + 1.0,  # above the bracket, from a start clipped to hi
        ])
        start = np.array([3.0, 3.0, 3.0, 5.0, 3.0, 0.5, 150.0, 3.0, 3.0, 250.0])
        g, calls = log_equations(targets)
        roots, bracketed = estimators._bracketed_root(g, lo, hi, start)
        assert bracketed.tolist() == [False, False] + [True] * 7 + [False]
        assert roots[0] == lo and roots[1] == hi and roots[2] == lo and roots[3] == 5.0
        assert roots[9] == hi
        # the first call holds each row's clipped start alone
        assert calls[0].tolist() == np.clip(start, lo, hi)[:, None].tolist()
        for b in range(targets.shape[0]):
            g_one, alone = log_equations(targets[b:b + 1])
            root, flag = estimators._bracketed_root(g_one, lo, hi, start[b:b + 1])
            assert root[0] == roots[b] and flag[0] == bracketed[b]
            # a row gets the candidates of its own solve, so none after the call that closes it
            assert row_candidates(calls, b) == row_candidates(alone, 0)
        # an exact zero at the start closes its row at once; a step off the
        # bracket reads the ends, bar the one the start already is
        assert row_candidates(calls, 3) == [[5.0]]
        assert row_candidates(calls, 0) == row_candidates(calls, 2) == [[3.0], [lo, hi]]
        assert row_candidates(calls, 9) == [[hi], [lo]]
        assert len(calls) > 2

    def test_without_a_sign_change_the_end_the_value_points_to_is_returned(self):
        # +-1/x: the smaller |value| is at hi for both, but a negative value
        # means the integral of the equation falls towards hi
        def g(x):
            return np.array([[-1.0], [1.0]]) / x, np.array([[1.0], [-1.0]]) / x[:, -1:] ** 2

        roots, bracketed = estimators._bracketed_root(g, self.LO, self.HI, np.array([3.0, 3.0]))
        assert roots.tolist() == [self.LO, self.HI]
        assert not bracketed.any()

    def test_a_nan_value_inside_the_bracket_gives_a_nan_root_at_once(self):
        lo, hi = self.LO, self.HI
        calls = []

        def g(x):
            calls.append(x.shape)
            value = np.where((x == lo) | (x == hi), 1.0 - np.log(x), np.nan)
            return value, np.full((x.shape[0], 1), -1.0)

        roots, bracketed = estimators._bracketed_root(g, lo, hi, np.array([3.0]))
        # x alone, then both ends; the NaN Newton step from x is taken and accepted
        assert np.isnan(roots[0]) and bracketed[0] and calls == [(1, 1), (1, 2)]

    def test_a_search_that_never_settles_stops_at_the_step_budget(self):
        # -sign(x - 5) sqrt|x - 5|: every Newton step holds its guard, and they cycle 3 <-> 7
        cycling = (lambda x: -np.sign(x - 5.0) * np.sqrt(np.abs(x - 5.0)),
                   lambda x: -0.5 / np.sqrt(np.abs(x - 5.0)))
        g, alone = row_equations(cycling)
        (root,), (flag,) = estimators._bracketed_root(g, self.LO, self.HI, np.array([3.0]))
        budget = 1 + estimators._NU_MAX_STEPS
        assert len(alone) == budget and flag and abs(root - 3.0) < 1e-12
        candidates = row_candidates(alone, 0)
        assert np.allclose(candidates, [[3.0], [7.0]] * (budget // 2) + [[3.0]], atol=1e-12)
        # a row that converges closes early; the cycling one still stops at the budget
        g, calls = row_equations(cycling, log_equation(5.0))
        roots, bracketed = estimators._bracketed_root(g, self.LO, self.HI, np.array([3.0, 3.0]))
        g_one, settled = row_equations(log_equation(5.0))
        assert roots.tolist() == [root, estimators._bracketed_root(g_one, self.LO, self.HI,
                                                                    np.array([3.0]))[0][0]]
        assert bracketed.all() and len(calls) == budget
        assert row_candidates(calls, 0) == candidates
        assert row_candidates(calls, 1) == row_candidates(settled, 0)

    def test_a_guard_that_fails_after_steps_hands_the_search_to_the_bracket(self):
        # log 300 - log x from 3: three steps hold the guard, the fourth leaves the bracket;
        # only then are the ends read, and the value keeps its sign there
        lo, hi = self.LO, self.HI
        g, alone = row_equations(log_equation(300.0))
        (root,), (flag,) = estimators._bracketed_root(g, lo, hi, np.array([3.0]))
        candidates = row_candidates(alone, 0)
        assert root == hi and not flag
        assert [c[0] for c in candidates[:4]] == pytest.approx(
            [3.0, 16.8155105579643, 65.2690808126419, 164.821663023377], rel=1e-12)
        assert candidates[4:] == [[lo, hi]]
        # a row still open at that call goes on from its own x, as it would alone
        g, calls = row_equations(log_equation(300.0), log_equation(5.0))
        roots, bracketed = estimators._bracketed_root(g, lo, hi, np.array([3.0, 3.0]))
        g_one, settled = row_equations(log_equation(5.0))
        (settled_root,), (settled_flag,) = estimators._bracketed_root(g_one, lo, hi,
                                                                      np.array([3.0]))
        assert roots.tolist() == [root, settled_root]
        assert bracketed.tolist() == [flag, settled_flag]
        assert row_candidates(calls, 0) == candidates
        assert row_candidates(calls, 1) == row_candidates(settled, 0)
        assert len(row_candidates(settled, 0)) > len(candidates)

    def test_no_row_is_evaluated_again_at_an_earlier_candidate(self, monkeypatch):
        # a Newton step that rounds onto its iterate must end the search, not
        # send the row back to a nu it was already evaluated at
        q_grid = tuple(round(0.80 + 0.02 * k, 12) for k in range(10))
        spec = rt.SimulationSpec(true_params=rt.preset_case(1), n=200, n_outliers=5,
                                 n_replications=8, q_grid=q_grid, seed=1)
        repeats, solves = recording_repeats(monkeypatch)
        rt.run_simulation(spec)
        assert solves and repeats == []

    def test_a_start_at_a_bracket_end_is_not_evaluated_again(self, monkeypatch):
        # near-normal rows run nu to 200, where the Newton step leaves the
        # bracket; the search reads lo only and takes the value at 200 from its
        # first call. The iterations are those of the search that read 200 again.
        rows = np.random.default_rng(5).normal(size=(205, 2))
        repeats, solves = recording_repeats(monkeypatch)
        results = fit_many(rows, batch_configs())
        assert solves and repeats == []
        assert [result.iterations for result in results] == [10, 17, 14, 13, 12]
        assert all(result.converged and result.nu_clamped for result in results)
        assert all(result.params.nu == estimators.NU_BRACKET[1] for result in results)

    def test_a_step_away_from_squarem_points_evaluates_the_score_once(self, monkeypatch):
        # every search first asks for the score at each fit's nu alone, and a
        # fit reads an end of the bracket only after a Newton step that fails
        # the guard (a slope that is not negative, or a step off the bracket):
        # an iteration whose steps all hold makes one call off SQUAREM points,
        # and at them takes its steps to the root without reading an end
        original = estimators._bracketed_root
        calls = []

        def counted(g, lo, hi, start, *args):
            evaluations = []

            def g_counted(nu):
                value, slope = g(nu)
                evaluations.append((nu, value, slope))
                return value, slope

            calls.append((np.clip(start, lo, hi), evaluations))
            return original(g_counted, lo, hi, start, *args)

        monkeypatch.setattr(estimators, "_bracketed_root", counted)
        results = fit_many(replicate_data(small_spec(), 0), batch_configs())
        assert len(calls) == max(result.iterations for result in results)
        lo, hi = estimators.NU_BRACKET

        def guard_holds(nu, value, slope):
            newton = nu[:, -1] - value[:, -1] / slope[:, 0]
            return (slope[:, 0] < 0.0) & (lo <= newton) & (newton <= hi)

        guarded = []
        for iteration, (start, evaluations) in enumerate(calls, 1):
            assert evaluations[0][0].tolist() == start[:, None].tolist()
            # a row reads an end right after its guard fails, and only then
            for before, after in zip(evaluations, evaluations[1:]):
                reads = np.isin(after[0], [lo, hi]).any(axis=1)
                assert not (reads & guard_holds(*before)).any()
            if all(guard_holds(*evaluation)[~np.isnan(evaluation[0][:, 0])].all()
                   for evaluation in evaluations):
                assert not any(np.isin(nu, [lo, hi]).any() for nu, _, _ in evaluations)
                assert len(evaluations) == 1 or iteration % 3 == 0
                guarded.append(iteration)
        # on these rows every one-step iteration takes its step, and some
        # SQUAREM-point solves take several steps to the root and read no end
        assert [k for k in range(1, len(calls) + 1) if k % 3] == [k for k in guarded if k % 3]
        assert any(len(calls[k - 1][1]) > 1 for k in guarded if k % 3 == 0)

    def test_closed_rows_reach_no_special_function(self):
        data = replicate_data(small_spec(), 0)
        est = e_step(data, init_params(data))
        score = estimators._observed_nu_score(np.tile(est.s, (3, 1)), np.array([0.0, 0.1, 0.2]), 2)
        nu = np.array([[np.nan], [4.0], [np.nan]])
        value, slope = score(nu)
        assert np.isnan(value[[0, 2]]).all() and np.isnan(slope[[0, 2]]).all()
        alone_value, alone_slope = score(np.array([[4.0], [4.0], [4.0]]))
        assert value[1, 0] == alone_value[1, 0] and slope[1, 0] == alone_slope[1, 0]

    @pytest.mark.parametrize("q", [(1.0, 1.0, 1.0), (1.0, 0.9, 0.7)])
    def test_a_call_leaves_the_results_of_earlier_calls_alone(self, q):
        # _bracketed_root keeps views of earlier values and slopes, so the kernel may
        # write into the arrays a call makes, and never into one it has returned
        s = np.random.default_rng(4).chisquare(2, size=(3, 50)) * 1.5
        g = estimators._observed_nu_score(s, 1.0 - np.array(q), 2)
        open_nu = np.array([[0.7, 4.0], [60.0, 9.0], [4.0, 150.0]])
        nan_nu = np.where([[True], [False], [True]], 2.0 * open_nu, np.nan)
        for first, second in [(open_nu, 1.5 * open_nu), (open_nu, nan_nu), (nan_nu, open_nu),
                              (nan_nu, 0.5 * nan_nu)]:
            values, slopes = g(first)
            kept = values.copy(), slopes.copy()
            later = g(second)
            assert np.array_equal(values, kept[0], equal_nan=True)
            assert np.array_equal(slopes, kept[1], equal_nan=True)
            assert not np.shares_memory(values, later[0])
            assert not np.shares_memory(slopes, later[1])

    def test_a_call_whose_open_fits_are_all_plain_computes_no_weight(self, monkeypatch):
        # f^(1 - q) is 1 at q = 1: plain rows read the same bitwise in a call that
        # computes the weight for a q < 1 row and in one that computes none
        from robust_t import tdist

        s = np.random.default_rng(3).chisquare(2, size=(3, 50)) * 1.5
        g = estimators._observed_nu_score(s, np.array([0.0, 0.0, 0.2]), 2)
        nu = np.array([[0.7, 4.0], [60.0, 9.0], [4.0, 4.0]])
        values, slopes = g(nu)

        def no_density(*args):
            raise AssertionError("the density was evaluated")

        monkeypatch.setattr(tdist, "_log_density", no_density)
        plain_values, plain_slopes = g(np.where([[True], [True], [False]], nu, np.nan))
        assert plain_values[:2].tolist() == values[:2].tolist()
        assert plain_slopes[:2].tolist() == slopes[:2].tolist()
        assert np.isnan(plain_values[2]).all()
        with pytest.raises(AssertionError, match="density"):
            g(nu)

    def test_a_plain_call_is_nan_where_the_density_overflows(self):
        # log1p(s / nu) overflows at s = 1.7e308 and nu = 0.1: f^0 is NaN there, and T is -inf
        s = np.tile([1.0, 2.0, 1.7e308], (2, 1))
        nu = np.array([[0.1, 3.0], [0.1, 3.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            plain = estimators._observed_nu_score(s, np.zeros(2), 2)(nu)
            mixed = estimators._observed_nu_score(s, np.array([0.0, 0.1]), 2)(nu)
        assert np.isnan(plain[0][:, 0]).all() and np.isfinite(plain[0][:, 1]).all()
        for got, want in zip(plain, mixed):
            assert np.array_equal(got[0], want[0], equal_nan=True)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    def test_nu_score_is_bitwise_its_formulas(self, p):
        # values and last-candidate slopes against nu_score_formulas, one fit
        # and one candidate at a time, with 1 to 3 candidates and a NaN row.
        # The gaps are taken over the evaluator's block of nu: for p other
        # than 2 their matrix products can round otherwise on fewer values.
        rng = np.random.default_rng(p)
        q = np.array([1.0, 0.9, 0.7, 0.9])
        s = rng.chisquare(p, size=(4, 40)) * 1.5
        s[:, :2] = [0.0, 1e6]
        g = estimators._observed_nu_score(s, 1.0 - q, p)
        for k in (1, 2, 3):
            nu = np.geomspace(0.1, 200.0, 4 * k)[rng.permutation(4 * k)].reshape(4, k)
            nu[1] = np.nan
            values, slopes = g(nu)
            assert np.isnan(values[1]).all() and np.isnan(slopes[1]).all()
            open_rows = [0, 2, 3]
            gaps = special.gamma_gaps(0.5 * nu[open_rows, :, None], p)
            for i, b in enumerate(open_rows):
                for j in range(k):
                    value, slope = nu_score_formulas(s[b], nu[b, j], p, 1.0 - q[b],
                                                     [gap[i, j, 0] for gap in gaps])
                    assert values[b, j] == value
                assert slopes[b, 0] == slope

    def test_nu_score_slopes_match_finite_differences(self):
        data = replicate_data(small_spec(), 0)
        start = init_params(data)
        est = e_step(data, start)
        s, tilt = np.tile(est.s, (3, 1)), np.array([0.0, 0.1, 0.2])
        score = estimators._observed_nu_score(s, tilt, 2)
        for nu in (0.7, 4.0, 60.0):
            h = 1e-6 * nu
            _, slope = score(np.full((3, 1), nu))
            value, _ = score(np.tile([nu - h, nu + h], (3, 1)))
            assert np.allclose(slope[:, 0], (value[:, 1] - value[:, 0]) / (2 * h), rtol=1e-5)


@pytest.mark.parametrize("make, message", [
    (lambda: rt.preset_case(3), "case must be 1 or 2, got 3"),
    (lambda: small_spec(n=1), "sample size must be at least 2"),
    (lambda: small_spec(n_outliers=-1), "outlier count must be nonnegative"),
    (lambda: small_spec(n_replications=0), "need at least one replication"),
    (lambda: small_spec(q_grid=()), "q grid must be non-empty"),
    (lambda: small_spec(q_grid=(1.2,)), "q grid values must lie in (0, 1]"),
    (lambda: small_spec(q_grid=(0.9, 0.8)), "q grid must be strictly ascending"),
    (lambda: small_spec(seed=-1), "seed must be nonnegative"),
    (lambda: rt.generate_replicate(small_spec(), -1), "replicate index must be nonnegative"),
], ids=["case", "n", "outliers", "replications", "empty-grid", "q-past-1", "descending-grid",
        "seed", "replicate"])
def test_what_the_simulation_rejects(make, message):
    with pytest.raises(DomainError) as failure:
        make()
    assert str(failure.value) == message


@pytest.mark.parametrize("field, value", [
    ("n", 30.5), ("n", "30"), ("n_replications", 2.0), ("n_replications", True),
    ("n_outliers", 2.5), ("seed", 1.5), ("seed", True), ("seed", "3")])
def test_a_count_that_is_not_an_integer_is_rejected(field, value):
    # these used to pass construction and fail inside the engine or the grouping
    with pytest.raises(DomainError) as failure:
        small_spec(**{field: value})
    assert str(failure.value) == f"{field} must be an integer, got {value!r}"


@pytest.mark.parametrize("draw, message", [
    (lambda spec: rt.generate_replicate(spec, 1.5), "replicate index must be an integer, got 1.5"),
    (lambda spec: rt.generate_replicate(spec, True),
     "replicate index must be an integer, got True"),
    (lambda spec: rt.contaminate(np.ones((4, 2)), spec, 1.5),
     "replicate index must be an integer, got 1.5"),
    (lambda spec: rt.contaminate(np.ones((4, 2)), spec, -1), "replicate index must be nonnegative"),
], ids=["replicate-float", "replicate-bool", "contaminate-float", "contaminate-negative"])
def test_a_replicate_index_that_is_not_a_nonnegative_integer_is_rejected(draw, message):
    # a float used to be truncated, and a negative index reached numpy's ValueError
    with pytest.raises(DomainError) as failure:
        draw(small_spec())
    assert str(failure.value) == message


def test_numpy_integer_counts_are_counts():
    spec = small_spec(n=np.int64(60), n_outliers=np.int32(3), n_replications=np.int64(2),
                      seed=np.int64(11))
    counts = (spec.n, spec.n_outliers, spec.n_replications, spec.seed)
    assert [type(count) for count in counts] == [int] * 4
    expected = rt.run_simulation(small_spec(n_replications=2)).records
    assert rt.run_simulation(spec, jobs=np.int64(1)).records == expected
    index = np.int64(1)
    assert np.array_equal(replicate_data(spec, index), replicate_data(spec, 1))


@pytest.mark.parametrize("jobs, message", [
    (0, "jobs must be at least 1, got 0"),
    (-3, "jobs must be at least 1, got -3"),
    (1.5, "jobs must be an integer, got 1.5"),
    ("2", "jobs must be an integer, got '2'"),
    (None, "jobs must be an integer, got None"),
    (True, "jobs must be an integer, got True"),
])
def test_run_simulation_rejects_a_jobs_that_is_below_1_or_not_an_integer(jobs, message):
    with pytest.raises(DomainError) as failure:
        rt.run_simulation(small_spec(n_replications=1), jobs=jobs)
    assert str(failure.value) == message


@pytest.mark.parametrize("config", [FitConfig(method="mlq", q=0.5), FitConfig(method="mlq")],
                         ids=["mlq-and-q", "mlq-at-q-1"])
def test_a_fit_config_that_sets_a_method_or_q_is_rejected(config):
    # the q grid sets every fit's method and q, so these would be dropped without a word
    with pytest.raises(DomainError) as failure:
        small_spec(fit_config=config)
    assert str(failure.value) == "fit_config must leave method and q unset: the q grid sets them"


def test_a_fit_configs_other_settings_reach_every_fit():
    config = FitConfig(fixed_nu=3.0, epsilon=1e-5, max_iter=40)
    spec = small_spec(n_replications=2, fit_config=config)
    for record in rt.run_simulation(spec).records:
        single = fit(replicate_data(spec, record.replicate),
                     replace(config, method=record.method, q=1.0 if record.q is None else record.q))
        assert record.nu == single.params.nu == 3.0
        assert record.iterations == single.iterations
        assert record.mu == tuple(single.params.mu)
