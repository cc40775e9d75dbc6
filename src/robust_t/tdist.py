"""Multivariate t distribution core.

Density, q-deformed logarithm, sampler, conditional expectations of the
latent mixing variable, and the one nu score, T = 2 d log f / d nu: the
plain score is T / 2, and the weighted score and nu equation weight it by
f^(1 - q).

All density work happens in log space. The weight f(x)^(1-q) is always
computed as exp((1 - q) * log_pdf(x)), because (nu + s) raised to the
composite exponents involved here overflows or underflows quickly at the
large Mahalanobis distances that the robustness analysis is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta

from .errors import DimensionMismatch, DomainError
from .linalg import cholesky_lower, log_det_from_chol, mahalanobis_sq_from_chol, symmetrize
from .special import digamma, log_gamma

__all__ = [
    "MvtParams",
    "as_data_matrix",
    "log_pdf",
    "log_pdf_from_dist",
    "log_pdf_rows",
    "lq_transform",
    "lq_from_log",
    "sample",
    "cond_expect_u",
    "cond_expect_log_u",
    "ml_score_nu",
    "mlq_score_nu",
    "score_curve",
]

# Below this distance from 1.0, q is treated as exactly 1 (plain logarithm).
_Q_ONE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MvtParams:
    """Parameter triple (location, scatter, degrees of freedom).

    The scatter matrix is symmetrized on construction and must be positive
    definite; its lower Cholesky factor is cached because every density and
    weight evaluation needs it.
    """

    mu: np.ndarray
    sigma: np.ndarray
    nu: float
    chol_lower: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if mu.ndim != 1 or mu.size == 0:
            raise DimensionMismatch("location must be a non-empty vector")
        if not np.all(np.isfinite(mu)):
            raise DomainError("location entries must be finite")
        sigma = symmetrize(self.sigma)
        if sigma.shape[0] != mu.shape[0]:
            raise DimensionMismatch(
                f"scatter of order {sigma.shape[0]} does not match location "
                f"of length {mu.shape[0]}"
            )
        if not np.all(np.isfinite(sigma)):
            raise DomainError("scatter entries must be finite")
        nu = float(self.nu)
        if not (math.isfinite(nu) and nu > 0.0):
            raise DomainError(f"degrees of freedom must be positive, got {nu}")
        chol = cholesky_lower(sigma)
        for arr in (mu, sigma, chol):
            arr.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "chol_lower", chol)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def log_det_sigma(self) -> float:
        return float(log_det_from_chol(self.chol_lower))


def as_data_matrix(data) -> np.ndarray:
    """Validate and return an n x p float matrix of observations."""
    rows = np.asarray(data, dtype=float)
    if rows.ndim != 2:
        raise DimensionMismatch(f"data must be a 2-d matrix, got ndim={rows.ndim}")
    if rows.shape[0] < 1 or rows.shape[1] < 1:
        raise DimensionMismatch(f"data matrix must be non-empty, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise DomainError("data entries must be finite")
    return rows


def _log_norm_const(nu, p: int, log_det_sigma):
    """Log of the t normalizing constant; nu and log_det_sigma broadcast."""
    return (
        log_gamma(0.5 * (nu + p))
        - log_gamma(0.5 * nu)
        - 0.5 * p * np.log(np.pi * nu)
        - 0.5 * log_det_sigma
    )


def log_pdf_from_dist(s, nu, p: int, log_det_sigma):
    """Log density at squared Mahalanobis distance s.

    nu and log_det_sigma broadcast against s, so one call evaluates many
    parameter sets, or many candidate nu values, at once.
    """
    nu = np.asarray(nu, dtype=float)
    const = _log_norm_const(nu, p, log_det_sigma)
    return const - 0.5 * (nu + p) * np.log1p(s / nu)


def log_pdf_rows(rows, params: MvtParams) -> np.ndarray:
    """Log density of each row under the t distribution."""
    s = mahalanobis_sq_from_chol(rows, params.mu, params.chol_lower)
    return log_pdf_from_dist(s, params.nu, params.dim, params.log_det_sigma)


def log_pdf(x, params: MvtParams) -> float:
    """Log density of a single observation."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(log_pdf_rows(x[None, :], params)[0])


def lq_transform(u, q: float):
    """The q-deformed logarithm: log(u) at q = 1, else (u^(1-q) - 1)/(1 - q).

    Accepts scalars or arrays. u must be nonnegative; u = 0 with q = 1
    yields -inf.
    """
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise DomainError("lq_transform requires nonnegative u")
    with np.errstate(divide="ignore"):
        out = lq_from_log(np.log(arr), float(q))
    return float(out) if np.isscalar(u) else out


def lq_from_log(log_u, q):
    """lq_transform evaluated from log(u), avoiding the intermediate power.

    q may be an array broadcasting against log_u, one q per row of a batch.
    """
    q = np.asarray(q, dtype=float)
    if not (q > 0.0).all():
        raise DomainError("q must be positive")
    log_u = np.asarray(log_u, dtype=float)
    plain = np.abs(q - 1.0) < _Q_ONE_TOL
    if plain.all():
        return log_u
    one_minus_q = np.where(plain, 1.0, 1.0 - q)
    return np.where(plain, log_u, np.expm1(one_minus_q * log_u) / one_minus_q)


def sample(params: MvtParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n rows via the normal/chi-squared scale mixture.

    Each row is mu + L z / sqrt(u / nu) with z standard normal and u
    chi-squared(nu), the latter generated as 2 * Gamma(nu / 2). A given
    generator state yields an identical dataset.
    """
    n = int(n)
    if n < 1:
        raise DomainError("sample size must be at least 1")
    p = params.dim
    z = rng.standard_normal((n, p))
    u = 2.0 * rng.standard_gamma(0.5 * params.nu, size=n)
    scale = np.sqrt(u / params.nu)
    return params.mu + (z @ params.chol_lower.T) / scale[:, None]


def _check_s_nu(s, nu):
    arr = np.asarray(s, dtype=float)
    if not (arr >= 0.0).all():
        raise DomainError("squared Mahalanobis distance must be nonnegative")
    if not (np.asarray(nu) > 0.0).all():
        raise DomainError("degrees of freedom must be positive")
    return arr


def cond_expect_u(s, nu, p: int):
    """E(U | x): the multiplicative downweight (nu + p) / (nu + s).

    nu may be an array broadcasting against s, as in a batch of fits.
    """
    arr = _check_s_nu(s, nu)
    out = (nu + p) / (nu + arr)
    return float(out) if np.isscalar(s) else out


def cond_expect_log_u(s, nu, p: int):
    """E(log U | x) = digamma((nu + p)/2) - log((nu + s)/2); nu broadcasts."""
    arr = _check_s_nu(s, nu)
    out = digamma(0.5 * (nu + p)) - np.log(0.5 * (nu + arr))
    return float(out) if np.isscalar(s) else out


def _observed_nu_terms(s, nu, p: int):
    """T = 2 d log f / d nu, the one nu score, and log1p(s / nu)."""
    log1p_ratio = np.log1p(s / nu)
    t = digamma(0.5 * (nu + p)) - digamma(0.5 * nu) - log1p_ratio + (s - p) / (nu + s)
    return t, log1p_ratio


def _observed_nu_slope(s, nu, p: int):
    """dT/dnu of _observed_nu_terms's T; the trigamma is zeta(2, x)."""
    gap = 0.5 * (zeta(2.0, 0.5 * (nu + p)) - zeta(2.0, 0.5 * nu))
    return gap + s / (nu * (nu + s)) - (s - p) / (nu + s) / (nu + s)


def _tilted_terms(s, nu, one_minus_q, log_det, p: int):
    """T (_observed_nu_terms) and the weights f^(1 - q) at squared distances s."""
    t, log1p_ratio = _observed_nu_terms(s, nu, p)
    log_f = _log_norm_const(nu, p, log_det) - 0.5 * (nu + p) * log1p_ratio
    return t, np.exp(one_minus_q * log_f)


def ml_score_nu(s, nu: float, p: int):
    """Per-observation likelihood score in nu at squared distance s, T / 2.

    By Fisher's identity it is half of the paper's 1 + E(log U | x) -
    E(U | x) + log(nu/2) - digamma(nu/2). It diverges to -inf like
    -log(s)/2: the unbounded influence the reweighted estimator addresses.
    """
    out = 0.5 * _observed_nu_terms(_check_s_nu(s, nu), nu, p)[0]
    return float(out) if np.isscalar(s) else out


def _weighted_score_nu(s, params: MvtParams, q: float):
    """The q-weighted nu-score summand at squared distances s: T f^(1 - q)."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError("q must lie strictly between 0 and 1")
    t, weight = _tilted_terms(s, params.nu, 1.0 - q, params.log_det_sigma, params.dim)
    return t * weight


def mlq_score_nu(x, params: MvtParams, q: float) -> float:
    """Per-observation nu-score summand of the q-weighted likelihood.

    The plain score bracket is multiplied by f(x)^(1-q); the factor decays
    polynomially in the Mahalanobis distance so the product stays bounded
    and tends to zero far from the center.
    """
    s = mahalanobis_sq_from_chol(x, params.mu, params.chol_lower)
    return float(_weighted_score_nu(s, params, q)[0])


def score_curve(params: MvtParams, s_grid, q: float | None = None) -> np.ndarray:
    """Evaluate the nu-score along a grid of squared Mahalanobis distances.

    Returns an array of (s, value) pairs: the plain likelihood score, or
    with q the weighted summand of mlq_score_nu, which depends on an
    observation only through its squared distance.
    """
    grid = np.asarray(s_grid, dtype=float)
    if grid.size == 0:
        return np.empty((0, 2))
    if grid.ndim != 1:
        raise DimensionMismatch("s grid must be one-dimensional")
    if np.any(grid < 0.0) or np.any(np.isnan(grid)):
        raise DomainError("s grid must be nonnegative")
    if np.any(np.diff(grid) < 0.0):
        raise DomainError("s grid must be ascending")
    if q is None:
        values = ml_score_nu(grid, params.nu, params.dim)
    else:
        values = _weighted_score_nu(grid, params, q)
    return np.column_stack([grid, values])
