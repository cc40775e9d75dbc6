import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq

import robust_t as rt
from robust_t import estimators, tdist
from robust_t.errors import DegenerateData, DomainError
from robust_t.estimators import (
    EStepQuantities,
    FitConfig,
    e_step,
    fit,
    init_params,
    m_step_ml,
    m_step_mlq,
    solve_nu_ml,
    solve_nu_mlq,
)
from robust_t.linalg import mahalanobis_sq_from_chol
from robust_t.special import digamma
from robust_t.tdist import MvtParams, log_pdf_rows, sample

def case_i_params():
    return MvtParams(np.array([2.0, 1.0]), np.eye(2), 3.0)


def clean_data(n, seed=0, params=None):
    params = params or case_i_params()
    return sample(params, n, np.random.default_rng(seed))


def contaminated_data(n=200, seed=0):
    spec = rt.SimulationSpec(true_params=case_i_params(), n=n, n_outliers=5,
                             n_replications=1, q_grid=(0.85,), seed=seed)
    return rt.contaminate(rt.generate_replicate(spec, 0), spec, 0)


def paper_replicate(case, seed, replicate, low=80.0, high=160.0):
    """One replicate of the paper's design: 200 rows plus 5 outliers low-high sd out."""
    spec = rt.SimulationSpec(true_params=rt.preset_case(case), n=200, n_outliers=5,
                             seed=seed, outlier_low=low, outlier_high=high)
    return rt.contaminate(rt.generate_replicate(spec, replicate), spec, replicate)


def near_normal_data():
    return np.random.default_rng(3).standard_normal((205, 2))


def collapsing_data():
    """150 rows of a p = 10 t plus 4 rows uniform on [50, 90]."""
    rng = np.random.default_rng(2)
    a = rng.standard_normal((10, 10))
    params = MvtParams(rng.standard_normal(10), a @ a.T + 0.1 * np.eye(10), 3.0)
    rows = sample(params, 150, rng)
    return np.vstack([rows, rng.uniform(50.0, 90.0, (4, 10))])


# (p, n, nu) of the varied ascent sets
VARIED_GRID = list(itertools.product((1, 2, 3, 5), (30, 1000), (0.7, 2.0, 5.0, 40.0, 1e6)))


def varied_data(k):
    """Set k of VARIED_GRID: t rows with a random location and scatter, in
    units of 1e-3, 1 or 1e3 in turn, and n/40 rows 10-60 units out on every
    third set."""
    p, n, nu = VARIED_GRID[k]
    rng = np.random.default_rng(k)
    a = rng.standard_normal((p, p))
    rows = sample(MvtParams(rng.standard_normal(p), a @ a.T + 0.1 * np.eye(p), nu), n, rng)
    if k % 3 == 2:
        far = max(1, n // 40)
        rows[:far] += rng.choice([-1.0, 1.0], (far, p)) * rng.uniform(10.0, 60.0, (far, p))
    return rows * 10.0 ** (-3, 0, 3)[k // 3 % 3]


def bracket_set(k):
    """Set k of 400 on which the ML fit's first nu step was checked: t rows
    with p, n and nu cycling over (1, 2, 3, 5), (30, 90, 300, 1000) and
    (0.7, 2, 5, 40, 1e6), n/40 rows 10-60 units out where k % 3 = 0, in
    units of 1e-3, 1 or 1e3 in turn."""
    p, n = (1, 2, 3, 5)[k % 4], (30, 90, 300, 1000)[k // 4 % 4]
    nu = (0.7, 2.0, 5.0, 40.0, 1e6)[k % 5]
    rng = np.random.default_rng(k)
    a = rng.standard_normal((p, p))
    rows = sample(MvtParams(rng.standard_normal(p), a @ a.T + 0.1 * np.eye(p), nu), n, rng)
    if k % 3 == 0:
        far = max(1, n // 40)
        rows[:far] += rng.choice([-1.0, 1.0], (far, p)) * rng.uniform(10.0, 60.0, (far, p))
    return rows * 10.0 ** (-3, 0, 3)[k // 3 % 3]


ASCENT_DATASETS = {
    "clean": lambda: [clean_data(100, seed=seed) for seed in range(6)],
    # outliers only 1-2 and 3-6 sd out: on these, taking every SQUAREM point
    # without comparing its log-likelihood with x2's lowers the trace
    "close_outliers": lambda: [paper_replicate(2, 18, 2, 1.0, 2.0),
                               paper_replicate(1, 34, 1, 3.0, 6.0)],
    "near_normal": lambda: [near_normal_data()],
}


class TestFitConfig:
    @pytest.mark.parametrize("fields", [
        {"method": "em"},
        {"method": "mlq", "q": 0.0},
        {"method": "mlq", "q": 1.5},
        {"method": "mlq", "q": math.nan},
        {"method": "ml", "q": 0.5},  # the plain method would ignore it
        {"epsilon": 0.0},
        {"epsilon": math.nan},
        {"epsilon": math.inf},
        {"max_iter": 0},
        {"fixed_nu": 0.0},
        {"fixed_nu": -2.0},
        {"fixed_nu": math.inf},
        {"fixed_nu": math.nan},
    ], ids=lambda fields: ",".join(f"{key}={value}" for key, value in fields.items()))
    def test_rejects_what_it_cannot_fit(self, fields):
        with pytest.raises(DomainError):
            FitConfig(**fields)


class TestInitParams:
    def test_two_point_dataset(self):
        start = init_params(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(start.mu, [1.0, 1.0])
        # unbiased covariance of the two points is [[2,2],[2,2]], rank one,
        # so the repair lifts the zero eigenvalue to the floor
        assert np.allclose(start.sigma, [[2.0, 2.0], [2.0, 2.0]], atol=1e-9)
        assert np.linalg.eigvalsh(start.sigma)[0] >= 1e-10 * (1 - 1e-9)
        assert start.nu == 3.0

    def test_single_row_degenerate(self):
        with pytest.raises(DegenerateData):
            init_params(np.array([[1.0, 2.0]]))

    def test_identical_rows_degenerate(self):
        with pytest.raises(DegenerateData):
            init_params(np.tile([1.0, 2.0], (6, 1)))

    def test_identical_rows_whose_mean_rounds_are_degenerate(self):
        # their column means round off the value, so their covariance is not 0
        rows = np.tile(np.random.default_rng(1).standard_normal(2), (63, 1))
        assert not np.array_equal(np.sum(rows, axis=0) / 63, rows[0])
        with pytest.raises(DegenerateData, match="^all observations are identical$"):
            init_params(rows)
        for outcome in rt.fit_many(rows, [FitConfig(), FitConfig(method="mlq", q=0.9)]):
            assert str(outcome) == "all observations are identical"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", [
        [[1e308, 1.0], [1e308, 2.0], [1.0, 3.0]],  # a column sum overflows
        [[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308]],  # the squares overflow
    ], ids=["mean", "covariance"])
    def test_sums_that_overflow_are_degenerate(self, rows):
        with pytest.raises(DegenerateData, match="overflow"):
            init_params(np.array(rows))

    @pytest.mark.parametrize("p, ties", [(1, False), (2, False), (3, False), (10, False),
                                         (2, True)], ids=["p1", "p2", "p3", "p10", "ties"])
    def test_the_engine_starts_each_dataset_once_from_init_params(self, monkeypatch, p, ties):
        rng = np.random.default_rng(p)
        datasets = [rng.standard_t(4.0, size=(60, p)) for _ in range(2)]
        if ties:  # column 0 has ties, so the rows are put in order by a lexsort
            datasets[1][:, 0] = np.round(datasets[1][:, 0])
        calls = []

        def recorded(columns, mu, sigma):
            calls.append((columns, mu, sigma))
            return distances(columns, mu, sigma)

        distances = estimators._distances
        monkeypatch.setattr(estimators, "_distances", recorded)
        configs = [FitConfig(), FitConfig(method="mlq", q=0.9), FitConfig(method="mlq", q=0.7)]
        estimators._fit_batch(datasets, configs)
        columns, mu, sigma = calls[0]
        assert mu.shape == (2, p)  # one start per dataset, not per config
        for k, rows in enumerate(datasets):
            ordered = rows[np.lexsort(rows.T[::-1])]
            start = init_params(ordered)
            assert columns[k].tobytes() == ordered.T.tobytes()
            assert mu[k].tobytes() == start.mu.tobytes()
            assert sigma[k].tobytes() == start.sigma.tobytes()

    def test_large_clean_sample_near_truth(self):
        rows = clean_data(20000, seed=3)
        start = init_params(rows)
        se = math.sqrt(3.0 / 20000)  # per-coordinate sd of the mean
        assert np.all(np.abs(start.mu - [2.0, 1.0]) < 3 * se)


class TestEStep:
    def test_single_row_at_center(self):
        params = case_i_params()
        est = e_step(params.mu[None, :], params)
        assert est.s[0] == 0.0
        assert est.u1[0] == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_all_rows_at_center(self):
        params = case_i_params()
        est = e_step(np.tile(params.mu, (4, 1)), params)
        assert np.allclose(est.u1, (3.0 + 2.0) / 3.0)

    def test_delegates_to_per_point_operations(self):
        params = MvtParams(np.array([0.5, -1.0]), np.array([[2.0, -0.5], [-0.5, 2.0]]), 4.0)
        rows = clean_data(9, seed=5, params=params)
        est = e_step(rows, params)
        s = mahalanobis_sq_from_chol(rows, params.mu, params.chol_lower)
        assert np.array_equal(est.u1, rt.cond_expect_u(s, 4.0, 2))
        assert np.array_equal(est.u2, tdist.cond_expect_log_u(s, 4.0, 2))

    def test_jensen_invariant(self):
        params = case_i_params()
        est = e_step(clean_data(50, seed=9), params)
        assert np.all(est.u2 < np.log(est.u1))


class TestMStepMl:
    def test_equal_weights_give_sample_mean(self):
        rows = clean_data(40, seed=1)
        est = EStepQuantities(np.ones(40), None, np.zeros(40))
        mu, _ = m_step_ml(rows, est)
        assert np.allclose(mu, rows.mean(axis=0), rtol=1e-12)

    def test_outlier_downweighted(self):
        rows = np.vstack([clean_data(60, seed=2), [[60.0, 55.0]]])
        est = e_step(rows, case_i_params())
        assert est.u1[-1] < est.u1[:-1].min()

    def test_fixed_point_of_converged_fit(self):
        rows = clean_data(300, seed=4)
        result = fit(rows, FitConfig(method="ml", epsilon=1e-12, max_iter=4000))
        est = e_step(rows, result.params)
        mu, sigma = m_step_ml(rows, est)
        assert np.linalg.norm(mu - result.params.mu) < 1e-8
        assert np.linalg.norm(sigma - result.params.sigma) < 1e-8


class TestSolveNuMl:
    def test_score_shape_strictly_decreasing(self):
        grid = np.geomspace(0.1, 200, 60)
        h = [math.log(0.5 * nu) - digamma(0.5 * nu) + 1.0 for nu in grid]
        assert all(a > b for a, b in zip(h, h[1:]))

    def test_constructed_root_recovered(self):
        # six rows at s = 0.5 and one far row placed so that nu = 3 solves
        # sum T = 0 at p = 2, T = 2 d log f / d nu written with scipy
        def t(s, nu):
            return (special.digamma(0.5 * nu + 1.0) - special.digamma(0.5 * nu)
                    - np.log1p(s / nu) + (s - 2.0) / (nu + s))

        far = brentq(lambda s: 6.0 * t(0.5, 3.0) + t(s, 3.0), 2.0, 1e6, xtol=1e-14, rtol=1e-15)
        s = np.append(np.full(6, 0.5), far)
        prev = MvtParams(np.zeros(2), np.eye(2), 10.0)
        solved = solve_nu_ml(prev, EStepQuantities(None, None, s))
        assert solved.bracketed
        assert solved.nu == pytest.approx(3.0, abs=1e-8)

    def test_near_normal_clamps_to_upper_end(self):
        # at s = p every T is 2/nu - log(1 + 2/nu) > 0: the likelihood
        # rises all along the bracket
        est = EStepQuantities(None, None, np.full(11, 2.0))
        solved = solve_nu_ml(MvtParams(np.zeros(2), np.eye(2), 3.0), est)
        assert not solved.bracketed
        assert solved.nu == estimators.NU_BRACKET[1]


class TestMlqWeights:
    """estimators._step_weights: E(U | x) f^(1 - q) for one fit at s = S."""

    S = np.array([0.0, 1.0, 25.0])

    def weights(self, q, s=S, nu=3.0, p=2):
        s = np.asarray(s, dtype=float)[None]
        log_f = tdist._log_pdf(s, nu, p, 0.0)
        return estimators._step_weights(s, nu, p, log_f, np.array([[q]]))[0]

    def test_q_one_reduces_to_ml_weight(self):
        assert np.array_equal(self.weights(1.0), 5.0 / (3.0 + self.S))

    def test_q_one_fit_keeps_the_em_weight_beside_a_weighted_one(self):
        s = np.vstack([self.S, self.S])
        log_f = tdist._log_pdf(s, 3.0, 2, 0.0)
        w = estimators._step_weights(s, 3.0, 2, log_f, np.array([[1.0], [0.85]]))
        assert np.array_equal(w[0], 5.0 / (3.0 + self.S))
        assert not np.array_equal(w[1], w[0])

    def test_scalar_example_direct_power_arithmetic(self):
        # f^(1 - q) is (nu + s)^-a up to a constant, a = 0.15 * 5 / 2 = 0.375
        ratio = self.weights(0.85) / (5.0 / (3.0 + self.S))
        assert ratio[0] == 1.0  # s = 0 has the largest density
        assert np.allclose(ratio, (1.0 + self.S / 3.0) ** -0.375, rtol=1e-13, atol=0.0)

    def test_ratio_to_ml_weight_strictly_decreasing(self):
        s = np.linspace(0.0, 50.0, 40)
        ratio = self.weights(0.85, s) / (5.0 / (3.0 + s))
        assert np.all(np.diff(ratio) < 0)

    def test_weight_ordering_invariant(self):
        s = np.sort(np.random.default_rng(0).uniform(0, 100, 50))
        w = self.weights(0.9, s)
        assert np.all(np.diff(w) < 0)


class TestMStepMlq:
    def test_q_one_matches_ml_step_at_location_fixed_point(self):
        # symmetric data: the location update leaves mu unchanged, so the
        # two scatter centerings coincide and the steps must agree
        base = clean_data(30, seed=6)
        rows = np.vstack([base, 2.0 * case_i_params().mu - base])
        prev = init_params(rows)
        est = e_step(rows, prev)
        mu_ml, sigma_ml = m_step_ml(rows, est)
        mu_q, sigma_q = m_step_mlq(rows, prev, 1.0)
        assert np.allclose(mu_q, mu_ml, rtol=1e-12, atol=1e-12)
        assert np.allclose(sigma_q, sigma_ml, rtol=1e-12, atol=1e-12)

    def test_symmetric_two_sided_data_keeps_location(self):
        rows = np.array([[1.0, 1.0], [3.0, 1.0]])
        prev = MvtParams(np.array([2.0, 1.0]), np.eye(2), 3.0)
        mu, _ = m_step_mlq(rows, prev, 0.85)
        assert np.allclose(mu, [2.0, 1.0], atol=1e-14)

    def test_fixed_point_of_converged_fit(self):
        rows = clean_data(300, seed=7)
        result = fit(rows, FitConfig(method="mlq", q=0.9, epsilon=1e-12, max_iter=6000))
        mu, sigma = m_step_mlq(rows, result.params, 0.9)
        assert np.linalg.norm(mu - result.params.mu) < 1e-8
        assert np.linalg.norm(sigma - result.params.sigma) < 1e-8


class TestSolveNuMlq:
    def test_q_to_one_matches_ml_root(self):
        rows = clean_data(120, seed=8)
        params = init_params(rows)
        est = e_step(rows, params)
        ml_root = solve_nu_ml(params, est)
        mlq_root = solve_nu_mlq(params, est, 1.0 - 1e-12)
        assert mlq_root.nu == pytest.approx(ml_root.nu, abs=1e-6)

    def test_common_distance_cancels_regardless_of_q(self):
        # all rows at the same squared distance: the density weight is a
        # common positive factor and the root must match the plain one
        params = case_i_params()
        angles = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        rows = params.mu + 1.7 * np.column_stack([np.cos(angles), np.sin(angles)])
        est = e_step(rows, params)
        ml_root = solve_nu_ml(params, est)
        for q in (0.85, 0.95):
            got = solve_nu_mlq(params, est, q)
            assert got.nu == pytest.approx(ml_root.nu, abs=1e-8)

    def test_outliers_downweighted_in_nu_equation(self):
        rows = contaminated_data(seed=3)
        params = case_i_params()
        est = e_step(rows, params)
        ml_root = solve_nu_ml(params, est)
        mlq_root = solve_nu_mlq(params, est, 0.85)
        assert mlq_root.nu > ml_root.nu


class TestFit:
    def test_clean_large_sample_recovers_truth(self):
        rows = clean_data(5000, seed=12)
        result = fit(rows, FitConfig(method="ml"))
        assert result.converged
        assert np.all(np.abs(result.params.mu - [2.0, 1.0]) < 0.05)
        assert np.linalg.norm(result.params.sigma - np.eye(2)) < 0.1
        assert abs(result.params.nu - 3.0) < 0.5

    def test_q_near_one_degenerates_to_ml(self):
        rows = clean_data(500, seed=12)
        ml = fit(rows, FitConfig(method="ml"))
        mlq = fit(rows, FitConfig(method="mlq", q=0.999))
        assert np.all(np.abs(mlq.params.mu - ml.params.mu) < 1e-2)
        assert np.all(np.abs(mlq.params.sigma - ml.params.sigma) < 1e-2)
        assert abs(mlq.params.nu - ml.params.nu) < 1e-2

    def test_fixed_nu_stays_fixed(self):
        rows = clean_data(200, seed=13)
        result = fit(rows, FitConfig(method="ml", fixed_nu=3.0))
        assert result.params.nu == 3.0
        assert not result.nu_clamped

    def test_nu_clamped_reports_the_final_solve(self, monkeypatch):
        # contaminated data: the first nu solve wants about 1.95, above the
        # bracket, and later ones fall to about 1.28, inside it
        monkeypatch.setattr(estimators, "NU_BRACKET", (0.1, 1.5))
        rows = contaminated_data(n=100, seed=0)
        config = FitConfig(method="ml")
        first = fit(rows, replace(config, max_iter=1))
        assert first.nu_clamped
        assert first.params.nu == 1.5
        result = fit(rows, config)
        assert result.converged
        assert not result.nu_clamped
        assert result.params.nu < 1.4

    @pytest.mark.parametrize("rows", [
        [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
        [[0.0, 0.0], [2.0, 2.0]],
        np.random.default_rng(0).normal(size=(30, 2)) @ [[1.0, 0.0, 1.0], [0.0, 1.0, -2.0]],
    ])
    def test_rank_deficient_data_is_degenerate(self, rows):
        with pytest.raises(DegenerateData):
            fit(rows, FitConfig())
        outcomes = rt.fit_many(rows, [FitConfig(), FitConfig(method="mlq", q=0.9)])
        assert all(isinstance(o, DegenerateData) for o in outcomes)

    def test_rank_check_ignores_the_units_of_the_columns(self):
        # the singular values of these rows differ by a factor 1e14
        rows = clean_data(200, seed=23) * [1e-6, 1e8]
        assert fit(rows, FitConfig(max_iter=5)).iterations == 5

    @pytest.mark.parametrize("scale", [1e-6, 1e-9])
    def test_scatter_floor_ignores_the_units_of_the_columns(self, scale):
        # the scaled variance, about 1e-12 or 1e-18, is far below SPD_FLOOR
        rows = sample(rt.preset_case(1), 500, np.random.default_rng(0))
        base = fit(rows, FitConfig())
        scaled = fit(rows * [scale, 1.0], FitConfig())
        unscale = np.array([1.0 / scale, 1.0])
        assert scaled.iterations == base.iterations
        assert np.allclose(scaled.params.mu * unscale, base.params.mu, rtol=1e-9, atol=0.0)
        assert np.allclose(scaled.params.sigma * np.outer(unscale, unscale), base.params.sigma,
                           rtol=1e-9, atol=0.0)
        assert scaled.params.nu == pytest.approx(base.params.nu, rel=1e-9)

    def test_mlq_weights_ignore_the_units_of_the_data(self):
        # at 1e40 every density f, raised to 1 - q without normalizing,
        # underflows to 0, and so would every weight
        rows = sample(MvtParams(np.zeros(20), np.eye(20), 3.0), 300, np.random.default_rng(0))
        config = FitConfig(method="mlq", q=0.5, fixed_nu=3.0, max_iter=4)
        c = 1e40
        base, scaled = fit(rows, config), fit(rows * c, config)
        assert scaled.iterations == base.iterations
        assert np.allclose(scaled.params.mu / c, base.params.mu, rtol=1e-12, atol=1e-14)
        assert np.allclose(scaled.params.sigma / c**2, base.params.sigma, rtol=1e-12,
                           atol=1e-14)
        # the scatter collapses at the fifth evaluation on either scale
        longer = replace(config, max_iter=5)
        assert [str(o) for o in rt.fit_many(rows, [longer]) + rt.fit_many(rows * c, [longer])] \
            == ["scatter collapsed"] * 2

    @pytest.mark.parametrize("fixed_nu", [None, 3.0])
    def test_mlq_fit_on_tiny_units_ends_as_at_unit_scale(self, fixed_nu):
        # at 1e-40 the density, hence f^(1 - q) and lq(f), is far beyond the
        # double range unless the units are taken out
        rows = sample(MvtParams(np.zeros(10), np.eye(10), 3.0), 300, np.random.default_rng(0))
        config = FitConfig(method="mlq", q=0.1, fixed_nu=fixed_nu)
        (base,), (tiny,) = rt.fit_many(rows, [config]), rt.fit_many(rows * 1e-40, [config])
        assert str(base) == "scatter collapsed"
        # with nu held, the change norm in data units stops the fit at once
        assert str(tiny) == ("scatter collapsed" if fixed_nu is None
                             else "the objective is not finite")

    @pytest.mark.parametrize("data,method,q,nu", [
        # replicate 1 of paper_sim's unit 49 at seed 806, where the plain EM
        # step contracts by about 1 % per iteration
        pytest.param("paper", "mlq", 0.8, 20.749285, id="paper-mlq-0.8"),
        pytest.param("paper", "mlq", 0.78, 24.932352, id="paper-mlq-0.78"),
        # nu drifts up a flat likelihood
        pytest.param("near_normal", "ml", 1.0, 120.885025, id="near_normal-ml"),
        pytest.param("near_normal", "mlq", 0.85, 98.157987, id="near_normal-mlq-0.85"),
    ])
    def test_slowly_contracting_fits_converge(self, data, method, q, nu):
        # the plain EM step stops each of these at max_iter = 1000; nu is its
        # fixed point, solved to epsilon = 1e-10 in 1,850 to 40,185 iterations
        rows = paper_replicate(1, 336098422, 1) if data == "paper" else near_normal_data()
        result = fit(rows, FitConfig(method=method, q=q))
        assert result.converged
        assert result.params.nu == pytest.approx(nu, abs=1e-4)

    @pytest.mark.parametrize("shape", [(205, 2), (2000, 10)])
    @pytest.mark.parametrize("method,q", [("ml", 1.0), ("mlq", 0.9)])
    def test_gaussian_rows_converge(self, shape, method, q):
        # nu wants to grow without bound; the EM nu step crept towards it
        rows = np.random.default_rng(3).standard_normal(shape)
        result = fit(rows, FitConfig(method=method, q=q))
        assert result.converged
        assert result.params.nu > 50.0

    def test_collapsing_mlq_fit_never_reports_converged(self):
        # at q <= 0.8 the weights single out the 4 far rows, and the scatter
        # shrinks onto them; q = 0.8 used to report convergence after 27
        # evaluations at sigma = 1e-10 I, and later ran to max_iter
        outcomes = rt.fit_many(collapsing_data(), [FitConfig(method="mlq", q=q, max_iter=30)
                                                   for q in (0.7, 0.8)])
        assert [str(outcome) for outcome in outcomes] == ["scatter collapsed"] * 2

    @pytest.mark.parametrize("p, gap", [(2, 1e-8), (3, 1e-6), (5, 1e-7)])
    def test_near_collinear_columns_are_not_taken_for_a_collapse(self, p, gap):
        # unit variances and every correlation 1 - gap
        sigma = np.full((p, p), 1.0 - gap) + gap * np.eye(p)
        rows = sample(MvtParams(np.zeros(p), sigma, 3.0), 400, np.random.default_rng(5))
        for result in rt.fit_many(rows, [FitConfig(method="ml"), FitConfig(method="mlq", q=0.9)]):
            assert not isinstance(result, DegenerateData)
            assert result.converged

    @pytest.mark.parametrize("data", ["far_row", "nu_0.3"])
    def test_far_rows_are_not_taken_for_a_collapse(self, data):
        # both inflate the sample variance about 1e11-fold over the fitted one
        if data == "far_row":
            rows = np.vstack([np.random.default_rng(0).standard_normal((100, 2)), [1e7, 1e7]])
        else:
            rows = sample(MvtParams(np.zeros(2), np.eye(2), 0.3), 200, np.random.default_rng(1))
        configs = [FitConfig(method="ml"), FitConfig(method="mlq", q=0.8),
                   FitConfig(method="mlq", q=0.9)]
        for result in rt.fit_many(rows, configs):
            assert result.converged
            assert np.all(np.diag(result.params.sigma) > 0.1)

    @pytest.mark.filterwarnings("error")
    def test_steps_whose_squares_overflow_give_no_warning(self):
        # the change norm of the early steps overflows to inf, which is not below epsilon
        result = fit(np.array([[-9e153], [9e153], [1e153]]), FitConfig())
        assert (result.iterations, result.converged, result.nu_clamped) == (11, True, True)
        assert result.params.sigma[0, 0] == 5.40866168406331e+307
        assert (result.params.nu, result.change_norm) == (200.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_a_scatter_sum_that_overflows_fails_the_fit_without_a_warning(self):
        with pytest.raises(DegenerateData) as failure:
            fit(np.array([[-9e153], [9e153]]), FitConfig())
        assert str(failure.value) == "weighted update produced non-finite parameters"

    def test_trace_structure(self):
        rows = clean_data(150, seed=14)
        result = fit(rows, FitConfig(method="ml"))
        assert len(result.trace) == result.iterations
        assert result.converged
        assert result.trace[-1].change_norm < 1e-6
        assert result.change_norm == result.trace[-1].change_norm

    def test_iteration_cap_is_not_an_error(self):
        rows = clean_data(150, seed=15)
        result = fit(rows, FitConfig(method="ml", max_iter=3))
        assert not result.converged
        assert result.iterations == 3

    def test_mlq_objective_reported(self):
        rows = clean_data(100, seed=16)
        result = fit(rows, FitConfig(method="mlq", q=0.9))
        logf = log_pdf_rows(rows, result.params)
        expected = float(np.sum(tdist._lq(logf, np.asarray(0.9))))
        assert result.objective == pytest.approx(expected, rel=1e-12)


class TestSquaremStep:
    @pytest.mark.parametrize("at_x2,at_point,taken", [
        (math.inf, math.inf, False),  # inf >= inf holds, but x' has no finite objective
        (0.0, 1.0, True),
        (1.0, 0.0, False),
    ])
    def test_a_point_is_taken_only_at_a_finite_objective_no_lower_than_x2s(
            self, monkeypatch, at_x2, at_point, taken):
        rows = clean_data(40, seed=5)
        upper = np.triu_indices(2)
        x2 = init_params(rows)
        vec = estimators._pack(x2.mu[None], x2.sigma[None], np.array([x2.nu]), upper)
        # r = x1 - x0 and x2 - x1 = 0.8 r: alpha = -5, so x' = x0 + 5 r = x2 + 3.2 r
        r = np.full_like(vec, 1e-3)
        fits = estimators._Fits(
            index=np.array([0]), columns=rows.T[None], q=np.array([0.9]), floor=np.zeros((1, 2)),
            x=vec, s=np.zeros((1, 40)), log_f=np.zeros((1, 40)),
            objective=np.array([at_x2]), moved=0.8 * r, anchor=vec - 1.8 * r, r=r)
        before = [value.copy() for value in fits]
        monkeypatch.setattr(estimators, "_objective",
                            lambda s, log_det, nu, q, p: (np.full(nu.shape, at_point), 0.0 * s))
        point = estimators._squarem_step(fits, upper, True)
        moved = 3.2e-3 if taken else 0.0
        assert np.allclose(point.x, fits.anchor + 1.8 * r + moved, rtol=0.0, atol=1e-12)
        assert np.allclose(point.x[0, :2], x2.mu + moved, rtol=0.0, atol=1e-12)
        assert all(np.array_equal(value, copy) for value, copy in zip(fits, before, strict=True))


def test_a_held_nus_zero_step_is_left_out_of_the_norms():
    # at p = 14 a packed row holds 14 + 105 entries, then nu; summing one more entry, even a
    # 0, regroups numpy's pairwise sum and can move the norm by an ulp
    rows = np.random.default_rng(0).standard_normal((50, 120))
    rows[:, -1] = 0.0
    assert np.array_equal(estimators._norm(rows, False), np.linalg.norm(rows[:, :-1], axis=1))
    assert np.array_equal(estimators._norm(rows, True), np.linalg.norm(rows, axis=1))


class TestAlgorithmicInvariants:
    @pytest.mark.parametrize("datasets,estimate_nu", [
        pytest.param("clean", True, id="True"),
        pytest.param("clean", False, id="False"),
        pytest.param("close_outliers", True, id="close_outliers"),
        pytest.param("near_normal", True, id="near_normal"),
    ])
    def test_ml_em_ascent(self, datasets, estimate_nu):
        for rows in ASCENT_DATASETS[datasets]():
            config = FitConfig(method="ml", fixed_nu=None if estimate_nu else 3.0)
            result = fit(rows, config)
            assert result.converged
            objectives = [rec.objective for rec in result.trace]
            start = float(np.sum(log_pdf_rows(rows, init_params(rows) if estimate_nu
                                              else MvtParams(init_params(rows).mu,
                                                             init_params(rows).sigma, 3.0))))
            seq = [start] + objectives
            assert all(b >= a - 1e-8 for a, b in zip(seq, seq[1:]))

    @pytest.mark.parametrize("k", range(len(VARIED_GRID)))
    def test_ml_ascent_on_varied_data(self, k):
        # away from SQUAREM points nu takes one Newton step, which need not
        # raise the log-likelihood; the trace may fall by perfbench's slack only
        rows = varied_data(k)
        result = fit(rows, FitConfig())
        assert result.converged
        objectives = np.array([rec.objective for rec in result.trace])
        slack = 64.0 * len(rows) * np.finfo(float).eps * np.maximum(1.0, np.abs(objectives[:-1]))
        assert np.all(objectives[:-1] - objectives[1:] <= slack)

    @pytest.mark.parametrize("k", [75, 155, 170, 230, 235, 255, 315, 375, 395])
    def test_ml_ascent_from_the_start_where_the_score_is_negative_on_the_bracket(self, k):
        # on these sets the first nu score is negative at both ends of the
        # bracket; a clamp to nu = 200, where |score| is smaller, lost up to
        # 1,140 nats in one step, and set 375 then ran to max_iter at nu = 200
        rows = bracket_set(k)
        result = fit(rows, FitConfig())
        assert result.converged
        start = np.sum(log_pdf_rows(rows, init_params(rows)))
        objectives = np.array([start] + [rec.objective for rec in result.trace])
        slack = 64.0 * len(rows) * np.finfo(float).eps * np.maximum(1.0, np.abs(objectives[:-1]))
        assert np.all(objectives[:-1] - objectives[1:] <= slack)

    def test_ml_nu_is_not_clamped_to_the_end_the_likelihood_falls_towards(self):
        # 300 rows of a p = 5 t with nu = 0.7: the first iteration's score is
        # negative on the whole bracket, so its log-likelihood falls towards 200
        rng = np.random.default_rng(155)
        a = rng.standard_normal((5, 5))
        rows = sample(MvtParams(rng.standard_normal(5), a @ a.T + 0.1 * np.eye(5), 0.7), 300, rng)
        result = fit(rows, FitConfig())
        assert result.converged and not result.nu_clamped
        assert result.trace[0].objective > np.sum(log_pdf_rows(rows, init_params(rows)))
        mu, sigma = result.params.mu, result.params.sigma
        assert result.trace[-1].objective >= np.sum(log_pdf_rows(rows, MvtParams(mu, sigma, 0.7)))

    @pytest.mark.parametrize("method,q", [("ml", 1.0), ("mlq", 0.9)])
    def test_affine_equivariance(self, method, q):
        rows = clean_data(300, seed=17)
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        b = np.array([1.0, -2.0])
        config = FitConfig(method=method, q=q, epsilon=1e-10, max_iter=5000)
        base = fit(rows, config)
        moved = fit(rows @ a.T + b, config)
        assert np.allclose(moved.params.mu, a @ base.params.mu + b, atol=1e-6)
        rel = np.linalg.norm(moved.params.sigma - a @ base.params.sigma @ a.T)
        rel /= np.linalg.norm(a @ base.params.sigma @ a.T)
        assert rel < 1e-6
        assert abs(moved.params.nu - base.params.nu) < 1e-6

    @pytest.mark.parametrize("method,q,ties", [
        pytest.param("ml", 1.0, False, id="ml-1.0"),
        pytest.param("mlq", 0.88, False, id="mlq-0.88"),
        pytest.param("ml", 1.0, True, id="ml-1.0-ties"),
        pytest.param("mlq", 0.88, True, id="mlq-0.88-ties"),
    ])
    def test_permutation_invariance_bitwise(self, method, q, ties):
        rows = contaminated_data(n=80, seed=19)
        if ties:
            # column 0 on a grid of 0.5, so that the rows are ordered by column 1 within a tie
            rows[:, 0] = np.round(2.0 * rows[:, 0]) / 2.0
            rows[:2, 0] = [-0.0, 0.0]
            assert len(np.unique(rows[:, 0])) < len(rows) // 4
        perm = np.random.default_rng(1).permutation(rows.shape[0])
        config = FitConfig(method=method, q=q)
        base = fit(rows, config)
        shuffled = fit(rows[perm], config)
        assert base.iterations == shuffled.iterations
        assert np.array_equal(base.params.mu, shuffled.params.mu)
        assert np.array_equal(base.params.sigma, shuffled.params.sigma)
        assert base.params.nu == shuffled.params.nu

    def test_ml_fixed_point_residuals(self):
        rows = contaminated_data(n=150, seed=20)
        eps = 1e-8
        result = fit(rows, FitConfig(method="ml", epsilon=eps, max_iter=4000))
        assert result.converged
        params = result.params
        s = mahalanobis_sq_from_chol(rows, params.mu, params.chol_lower)
        w = (params.nu + 2) / (params.nu + s)
        mu_hat = (w[:, None] * rows).sum(axis=0) / w.sum()
        d = rows - mu_hat
        sigma_hat = (w[:, None, None] * d[:, :, None] * d[:, None, :]).sum(axis=0) / len(rows)
        assert np.linalg.norm(mu_hat - params.mu) < 10 * eps
        assert np.linalg.norm(sigma_hat - params.sigma) < 10 * eps

    def test_mlq_fixed_point_residuals(self):
        rows = contaminated_data(n=150, seed=21)
        eps = 1e-8
        result = fit(rows, FitConfig(method="mlq", q=0.9, epsilon=eps, max_iter=8000))
        assert result.converged
        params = result.params
        s = mahalanobis_sq_from_chol(rows, params.mu, params.chol_lower)
        # the estimating equation's weights, written out: a = (1 - q)(nu + p)/2
        a = 0.5 * 0.1 * (params.nu + 2)
        w = (params.nu + 2) * (params.nu + s) ** -(1.0 + a)
        v = (params.nu + s) ** -a
        mu_hat = (w[:, None] * rows).sum(axis=0) / w.sum()
        d = rows - mu_hat
        sigma_hat = (w[:, None, None] * d[:, :, None] * d[:, None, :]).sum(axis=0) / v.sum()
        assert np.linalg.norm(mu_hat - params.mu) < 10 * eps
        assert np.linalg.norm(sigma_hat - params.sigma) < 10 * eps
