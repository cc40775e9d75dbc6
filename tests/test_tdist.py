import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

from robust_t.errors import DimensionMismatch, DomainError, NotPositiveDefinite
from robust_t.special import digamma, log_gamma
from robust_t.tdist import (
    MvtParams,
    _lq,
    _nu_slope,
    _nu_terms,
    as_data_matrix,
    cond_expect_log_u,
    cond_expect_u,
    log_pdf_rows,
    sample,
    score_curve,
)

PSI_2_5 = 0.7031566406452432  # 50-digit reference

STANDARD_2D = MvtParams(np.zeros(2), np.eye(2), 3.0)


def gamma_posterior_moment(s, nu, p, fn):
    """Quadrature oracle: E[fn(U)] under Gamma((nu+p)/2, rate (nu+s)/2)."""
    shape = 0.5 * (nu + p)
    rate = 0.5 * (nu + s)

    def integrand(u):
        return fn(u) * math.exp(
            shape * math.log(rate) + (shape - 1.0) * math.log(u) - rate * u
            - log_gamma(shape)
        )

    cap = 2.0 * (shape + 60.0) / rate  # exponential tail is ~e-60 there
    value, err = integrate.quad(integrand, 0.0, cap, limit=400, epsabs=1e-12)
    assert err < 5e-9
    return value


class TestParams:
    def test_sigma_symmetrized_and_cached_factor(self):
        params = MvtParams(np.zeros(2), np.array([[2.0, -0.5], [-0.5, 2.0]]), 3.0)
        assert np.allclose(params.chol_lower @ params.chol_lower.T, params.sigma)

    def test_invalid_nu(self):
        with pytest.raises(DomainError):
            MvtParams(np.zeros(2), np.eye(2), 0.0)
        with pytest.raises(DomainError):
            MvtParams(np.zeros(2), np.eye(2), -3.0)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            MvtParams(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 3.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MvtParams(np.zeros(3), np.eye(2), 3.0)

    def test_data_matrix_validation(self):
        with pytest.raises(DimensionMismatch):
            as_data_matrix(np.zeros(3))
        with pytest.raises(DomainError):
            as_data_matrix([[1.0, np.inf]])


class TestLogPdf:
    def test_standard_cauchy_at_zero(self):
        params = MvtParams(np.zeros(1), np.eye(1), 1.0)
        got = log_pdf_rows(np.zeros(1)[None], params)[0]
        assert got == pytest.approx(-math.log(math.pi), rel=1e-14)

    def test_value_at_center(self):
        params = MvtParams(np.array([1.0, 2.0]), np.diag([2.0, 3.0]), 4.0)
        expected = (
            log_gamma(3.0) - log_gamma(2.0) - math.log(math.pi * 4.0)
            - 0.5 * math.log(6.0)
        )
        assert log_pdf_rows(params.mu[None], params)[0] == pytest.approx(expected, rel=1e-14)

    def test_normal_limit(self):
        params = MvtParams(np.zeros(2), np.eye(2), 1e6)
        got = log_pdf_rows(np.array([1.0, 1.0])[None], params)[0]
        assert got == pytest.approx(-math.log(2.0 * math.pi) - 1.0, abs=1e-4)

    def test_monotone_in_distance(self):
        values = [log_pdf_rows(np.array([x, 0.0])[None], STANDARD_2D)[0]
                  for x in np.linspace(0, 10, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("nu", [1.0, 3.0, 10.0])
    def test_univariate_normalization(self, nu):
        params = MvtParams(np.zeros(1), np.eye(1), nu)
        total, err = integrate.quad(
            lambda x: math.exp(log_pdf_rows(np.array([x])[None], params)[0]), -np.inf, np.inf,
            limit=200,
        )
        assert err < 1e-8
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_bivariate_normalization_tensor_quadrature(self):
        nodes, weights = leggauss(400)
        half = 60.0
        x = half * nodes
        w = half * weights
        xx, yy = np.meshgrid(x, x)
        points = np.column_stack([xx.ravel(), yy.ravel()])
        dens = np.exp(log_pdf_rows(points, STANDARD_2D)).reshape(xx.shape)
        total = float(w @ dens @ w)
        assert total == pytest.approx(1.0, abs=1e-4)


class TestLqTransform:
    def test_unit_argument_is_zero(self):
        for q in (0.3, 0.85, 1.0, 1.7):
            assert _lq(np.log(1.0), np.asarray(q)) == 0.0

    def test_direct_arithmetic(self):
        # (4^0.5 - 1) / 0.5
        assert _lq(np.log(4.0), np.asarray(0.5)) == pytest.approx(2.0, rel=1e-14)

    def test_q_to_one_limit(self):
        # within 1e-12 of 1 too, q != 1 takes the deformed logarithm
        for q in (1.0 - 1e-10, 1.0 + 1e-10, 1.0 - 1e-13, 1.0 + 1e-13):
            assert abs(_lq(np.log(3.0), np.asarray(q)) - math.log(3.0)) < 1e-8

    def test_uniform_convergence_near_one(self):
        for u in np.linspace(0.1, 10.0, 25):
            err = abs(_lq(np.log(u), np.asarray(1.0 - 1e-8)) - math.log(u))
            assert err < 1e-6

    def test_zero_argument(self):
        with np.errstate(divide="ignore"):
            log_zero = np.log(0.0)
        assert _lq(log_zero, np.asarray(1.0)) == -np.inf
        assert _lq(log_zero, np.asarray(0.5)) == pytest.approx(-2.0)
        assert _lq(log_zero, np.asarray(1.5)) == -np.inf

    def test_log_space_variant_matches(self):
        log_u = np.array([-50.0, -1.0, 0.0, 2.5])
        direct = (np.exp(log_u) ** 0.15 - 1.0) / 0.15
        assert np.allclose(_lq(log_u, np.asarray(0.85)), direct, rtol=1e-12)


class TestSampler:
    def test_seeded_determinism(self):
        params = MvtParams(np.array([2.0, 1.0]), np.eye(2), 5.0)
        a = sample(params, 100, np.random.default_rng(7))
        b = sample(params, 100, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_moments_match_theory(self):
        nu = 5.0
        params = MvtParams(np.array([2.0, 1.0]), np.eye(2), nu)
        rows = sample(params, 200000, np.random.default_rng(2024))
        mean = rows.mean(axis=0)
        assert np.all(np.abs(mean - params.mu) < 0.02)
        cov = np.cov(rows.T)
        true_cov = nu / (nu - 2.0) * params.sigma
        assert np.all(np.abs(np.diag(cov) / np.diag(true_cov) - 1.0) < 0.05)

    def test_invalid_size(self):
        with pytest.raises(DomainError):
            sample(STANDARD_2D, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [2.7, "3", 3.0, None])
    def test_a_size_that_is_not_an_integer_is_an_error(self, n):
        # int() would have drawn 2 rows for 2.7 and 3 for "3"
        with pytest.raises(DomainError) as failure:
            sample(STANDARD_2D, n, np.random.default_rng(0))
        assert str(failure.value) == f"sample size must be an integer, got {n!r}"

    def test_a_numpy_integer_size_is_a_size(self):
        rows = sample(STANDARD_2D, np.int64(3), np.random.default_rng(0))
        assert np.array_equal(rows, sample(STANDARD_2D, 3, np.random.default_rng(0)))

    @pytest.mark.filterwarnings("error")
    def test_a_draw_that_is_not_finite_is_an_error(self):
        # u = 2 Gamma(nu / 2) underflows to 0 at a tiny nu, and the rows divide by sqrt(u / nu)
        with pytest.raises(DomainError, match="not finite"):
            sample(MvtParams(np.zeros(1), np.eye(1), 1e-300), 3, np.random.default_rng(0))


class TestConditionalExpectations:
    def test_direct_substitution(self):
        assert cond_expect_u(0.0, 3.0, 2) == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert cond_expect_u(2.0, 3.0, 2) == pytest.approx(1.0, rel=1e-15)

    def test_log_expectation_substitution(self):
        got = cond_expect_log_u(0.0, 3.0, 2)
        assert got == pytest.approx(PSI_2_5 - math.log(1.5), abs=1e-12)

    def test_jensen_inequality(self):
        for s in (0.0, 1.0, 10.0):
            assert cond_expect_log_u(s, 3.0, 2) < math.log(cond_expect_u(s, 3.0, 2))

    def test_mean_against_quadrature(self):
        oracle = gamma_posterior_moment(7.0, 3.0, 2, lambda u: u)
        assert cond_expect_u(7.0, 3.0, 2) == pytest.approx(oracle, abs=1e-8)

    def test_log_mean_against_quadrature(self):
        oracle = gamma_posterior_moment(7.0, 3.0, 2, math.log)
        assert cond_expect_log_u(7.0, 3.0, 2) == pytest.approx(oracle, abs=1e-7)

    def test_domain(self):
        with pytest.raises(DomainError):
            cond_expect_u(-1.0, 3.0, 2)
        with pytest.raises(DomainError):
            cond_expect_log_u(1.0, 0.0, 2)


def ml_score(s, nu=3.0, p=2):
    """score_curve's value at one squared distance with q = 1: the likelihood score."""
    return score_curve(MvtParams(np.zeros(p), np.eye(p), nu), [s])[0, 1]


def mlq_score(s, q, params=STANDARD_2D):
    return score_curve(params, [s], q=q)[0, 1]


class TestMlScoreNu:
    def test_diverges_with_distance(self):
        v2, v4, v8 = (ml_score(s) for s in (1e2, 1e4, 1e8))
        assert v8 < v4 < v2
        assert v8 < -5.0

    def test_large_s_asymptote(self):
        s = 1e10
        got = ml_score(s) + 0.5 * math.log(s)
        limit = 0.5 * (math.log(3.0) + 1.0 + digamma(2.5) - digamma(1.5))
        assert got == pytest.approx(limit, abs=1e-3)

    def test_matches_finite_difference_of_log_pdf(self):
        # independent oracle: central difference of the log density in nu
        x = np.array([2.0, 0.0])  # s = 4 under the standard params
        h = 1e-5

        def lp(nu):
            return log_pdf_rows(x[None], MvtParams(np.zeros(2), np.eye(2), nu))[0]

        fd = (lp(3.0 + h) - lp(3.0 - h)) / (2.0 * h)
        assert ml_score(4.0) == pytest.approx(fd, abs=1e-6)


class TestObservedNuTerms:
    S_GRID = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 61)])

    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    def test_half_of_t_is_the_ml_score(self, p):
        # Fisher's identity, which keeps the fixed points of the nu step:
        # T / 2 is the paper's complete-data score; both sides cancel near
        # their zero, so the error is taken relative to the size of its terms
        for nu in np.geomspace(0.1, 200.0, 25):
            t = _nu_terms(self.S_GRID, nu, p, 0.0)[0]
            u1 = cond_expect_u(self.S_GRID, nu, p)
            u2 = cond_expect_log_u(self.S_GRID, nu, p)
            paper = 0.5 * (1.0 + u2 - u1 + math.log(0.5 * nu) - special.digamma(0.5 * nu))
            size = 1.0 + np.abs(u2) + u1 + abs(math.log(0.5 * nu)) + abs(special.digamma(0.5 * nu))
            assert np.all(np.abs(0.5 * t - paper) <= 1e-12 * size)
            curve = score_curve(MvtParams(np.zeros(p), np.eye(p), nu), self.S_GRID)
            assert np.all(np.abs(curve[:, 1] - paper) <= 1e-12 * size)

    @pytest.mark.parametrize("nu", [0.3, 3.0, 150.0])
    def test_slope_matches_finite_difference(self, nu):
        h = 1e-6 * nu
        t, _, shared = _nu_terms(self.S_GRID, nu, 3, 0.0)
        slope = _nu_slope(self.S_GRID, nu, t, shared, 0.0)
        fd = (_nu_terms(self.S_GRID, nu + h, 3, 0.0)[0]
              - _nu_terms(self.S_GRID, nu - h, 3, 0.0)[0]) / (2.0 * h)
        assert np.allclose(slope, fd, rtol=1e-5, atol=1e-7 / nu ** 2)


class TestMlqScoreNu:
    def test_q_to_one_degeneration(self):
        x = np.array([1.5, -0.5])
        s = float(np.sum(x**2))
        q = 1.0 - 1e-9
        weight = math.exp((1.0 - q) * log_pdf_rows(x[None], STANDARD_2D)[0])
        assert mlq_score(s, q) / weight == pytest.approx(ml_score(s), abs=1e-10)

    def test_bounded_and_vanishing(self):
        assert abs(mlq_score(1e6, 0.85)) < abs(mlq_score(1e2, 0.85))
        assert abs(mlq_score(1e12, 0.85)) < 1e-3

    def test_finite_peak_then_decay(self):
        grid = np.geomspace(1e-2, 1e12, 180)
        values = score_curve(STANDARD_2D, grid, q=0.85)[:, 1]
        peak = int(np.argmax(np.abs(values)))
        assert 0 < peak < len(grid) - 1
        tail = np.abs(values[peak:])
        assert np.all(np.diff(tail) < 0)

    def test_q_domain(self):
        for q in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(DomainError):
                score_curve(STANDARD_2D, [1.0], q=q)


class TestScoreCurve:
    def test_empty_grid(self):
        assert score_curve(STANDARD_2D, []).shape == (0, 2)

    def test_ml_curve_monotone_beyond_knee(self):
        grid = np.geomspace(3.0, 1e8, 50)  # beyond s = p the score decreases
        curve = score_curve(STANDARD_2D, grid)
        assert np.all(np.diff(curve[:, 1]) < 0)

    def test_ml_curve_matches_pointwise(self):
        # q = 1 is exactly T / 2
        grid = np.array([0.0, 0.5, 2.0, 10.0, 1e8])
        curve = score_curve(STANDARD_2D, grid, q=1.0)
        assert np.array_equal(curve[:, 0], grid)
        assert np.array_equal(curve[:, 1], 0.5 * _nu_terms(grid, 3.0, 2, 0.0)[0])

    def test_mlq_curve_respects_scatter_geometry(self):
        # f^(1 - q) T / 2 = d f^(1 - q) / d nu / (1 - q), by central differences
        params = MvtParams(np.array([2.0, 1.0]), np.array([[2.0, -0.5], [-0.5, 2.0]]), 3.0)
        x = params.mu + 2.0 * params.chol_lower[:, 0]  # s = 4
        h = 1e-5

        def tilted(nu):
            return math.exp(0.15 * log_pdf_rows(x[None], MvtParams(params.mu, params.sigma, nu))[0])

        fd = (tilted(3.0 + h) - tilted(3.0 - h)) / (2.0 * h) / 0.15
        assert mlq_score(4.0, 0.85, params) == pytest.approx(fd, rel=1e-8)

    def test_mlq_curve_tail_vanishes(self):
        grid = np.geomspace(1e-2, 1e12, 80)
        curve = score_curve(STANDARD_2D, grid, q=0.85)
        values = curve[:, 1]
        assert abs(values[-1]) < 0.01 * np.max(np.abs(values))

    def test_grid_validation(self):
        for grid in ([3.0, 1.0], [-1.0, 2.0], [1.0, math.nan], [1.0, math.inf]):
            with pytest.raises(DomainError):
                score_curve(STANDARD_2D, grid)


@pytest.mark.parametrize("make, error, message", [
    (lambda: MvtParams(np.array([]), np.eye(0), 3.0), DimensionMismatch,
     "location must be a non-empty vector"),
    (lambda: MvtParams(np.array([np.nan, 0.0]), np.eye(2), 3.0), DomainError,
     "location entries must be finite"),
    (lambda: MvtParams(np.zeros(2), np.array([[np.inf, 0.0], [0.0, 1.0]]), 3.0), DomainError,
     "scatter entries must be finite"),
    (lambda: as_data_matrix(np.empty((0, 2))), DimensionMismatch,
     "data matrix must be non-empty, got shape (0, 2)"),
    (lambda: score_curve(STANDARD_2D, np.ones((2, 2))), DimensionMismatch,
     "s grid must be one-dimensional"),
], ids=["empty-mu", "nan-mu", "inf-sigma", "no-rows", "2-d-grid"])
def test_what_the_t_distribution_rejects(make, error, message):
    with pytest.raises(error) as failure:
        make()
    assert str(failure.value) == message
