"""Multivariate t distribution core.

Density, q-deformed logarithm, sampler, conditional expectations of the
latent mixing variable, and the one nu kernel behind score_curve and the
nu equation: _log_density (log f), _nu_terms (T = 2 d log f / d nu and
f^(1 - q)) and _nu_slope (d (f^(1 - q) T) / d nu over f^(1 - q)), which
takes the terms it shares with T from _nu_terms instead of computing them.

All density work happens in log space. The weight f(x)^(1-q) is always
computed as exp((1 - q) * log f(x)), because (nu + s) raised to the
composite exponents involved here overflows or underflows quickly at the
large Mahalanobis distances that the robustness analysis is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import cholesky_lower, log_det_from_chol, mahalanobis_sq_from_chol, symmetrize
from .special import digamma, gamma_gaps

__all__ = [
    "MvtParams",
    "as_data_matrix",
    "log_pdf_rows",
    "sample",
    "cond_expect_u",
    "score_curve",
]


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
        self._set(mu, sigma, nu, cholesky_lower(sigma))

    def _set(self, mu, sigma, nu: float, chol):
        for arr in (mu, sigma, chol):
            arr.setflags(write=False)
        for name, value in zip(("mu", "sigma", "nu", "chol_lower"), (mu, sigma, nu, chol)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_checked(cls, mu, sigma, nu: float, chol) -> MvtParams:
        """Params of a finite mu, an exactly symmetric sigma, its lower factor chol and nu > 0."""
        params = object.__new__(cls)
        params._set(mu, sigma, nu, chol)
        return params

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


def _log_density(log1p_ratio, nu, p: int, log_det_sigma, log_gamma_gap):
    """The one expression for log f, from log1p(s / nu) and gamma_gaps's log Gamma gap."""
    return (log_gamma_gap - 0.5 * p * np.log(np.pi * nu) - 0.5 * log_det_sigma
            - 0.5 * (nu + p) * log1p_ratio)


def _log_pdf(s, nu, p: int, log_det_sigma):
    """Log density at squared Mahalanobis distance s, for nu > 0 (not checked).

    nu and log_det_sigma broadcast against s, so one call evaluates many
    parameter sets, or many candidate nu values, at once.
    """
    return _log_density(np.log1p(s / nu), nu, p, log_det_sigma, gamma_gaps(0.5 * nu, p)[0])


def log_pdf_rows(rows, params: MvtParams) -> np.ndarray:
    """Log density of each row under the t distribution."""
    s = mahalanobis_sq_from_chol(rows, params.mu, params.chol_lower)
    return _log_pdf(s, params.nu, params.dim, params.log_det_sigma)


def _lq(log_u, q):
    """The q-deformed logarithm from log(u): log(u) at q = 1, else (u^(1-q) - 1)/(1 - q).

    For float arrays log_u and q > 0; q broadcasts against log_u, one q per row of a batch.
    """
    plain = q == 1.0
    if plain.all():
        return log_u
    one_minus_q = np.where(plain, 1.0, 1.0 - q)
    return np.where(plain, log_u, np.expm1(one_minus_q * log_u) / one_minus_q)


def sample(params: MvtParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n rows via the normal/chi-squared scale mixture.

    Each row is mu + L z / sqrt(u / nu) with z standard normal and u
    chi-squared(nu), the latter generated as 2 * Gamma(nu / 2). A given
    generator state yields an identical dataset. A draw that is not finite,
    as where a tiny nu lets u underflow to 0, raises DomainError.
    """
    n = int(n)
    if n < 1:
        raise DomainError("sample size must be at least 1")
    p = params.dim
    z = rng.standard_normal((n, p))
    u = 2.0 * rng.standard_gamma(0.5 * params.nu, size=n)
    scale = np.sqrt(u / params.nu)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rows = params.mu + (z @ params.chol_lower.T) / scale[:, None]
    if not np.isfinite(rows).all():
        raise DomainError(f"a draw at nu = {params.nu:g} is not finite")
    return rows


def _check_s_nu(s, nu):
    arr = np.asarray(s, dtype=float)
    if not (arr >= 0.0).all():
        raise DomainError("squared Mahalanobis distance must be nonnegative")
    if not (np.asarray(nu) > 0.0).all():
        raise DomainError("degrees of freedom must be positive")
    return arr


def _cond_expect_u(s, nu, p: int):
    """cond_expect_u of a float array s >= 0 and nu > 0 (not checked)."""
    return (nu + p) / (nu + s)


def cond_expect_u(s, nu, p: int):
    """E(U | x): the multiplicative downweight (nu + p) / (nu + s).

    nu may be an array broadcasting against s, as in a batch of fits.
    """
    out = _cond_expect_u(_check_s_nu(s, nu), nu, p)
    return float(out) if np.isscalar(s) else out


def cond_expect_log_u(s, nu, p: int):
    """E(log U | x) = digamma((nu + p)/2) - log((nu + s)/2); nu broadcasts."""
    arr = _check_s_nu(s, nu)
    out = digamma(0.5 * (nu + p)) - np.log(0.5 * (nu + arr))
    return float(out) if np.isscalar(s) else out


def _nu_terms(s, nu, p: int, one_minus_q, log_det_sigma=0.0, s_minus_p=None):
    """The nu kernel: T = 2 d log f / d nu, f^(1 - q) and the terms _nu_slope shares with T.

    Those are the trigamma gap at nu / 2, nu + s and (s - p) / (nu + s); s_minus_p may hold s - p.
    With one_minus_q None the weight is not computed, and comes back None. Here and in
    _nu_slope an operation writes into an array the call has made where it can.
    """
    log_gamma_gap, digamma_gap, trigamma_gap = gamma_gaps(0.5 * nu, p)
    log1p_ratio = np.log1p(ratio := s / nu, out=ratio)
    weight = None  # the weight first, so that log f's temporaries are freed before T's are made
    if one_minus_q is not None:
        weight = _log_density(log1p_ratio, nu, p, log_det_sigma, log_gamma_gap)
        np.exp(np.multiply(one_minus_q, weight, out=weight), out=weight)
    nu_s = nu + s
    excess = (s - p if s_minus_p is None else s_minus_p) / nu_s
    t = np.add(np.subtract(digamma_gap, log1p_ratio, out=log1p_ratio), excess, out=log1p_ratio)
    return t, weight, (trigamma_gap, nu_s, excess)


def _nu_slope(s, nu, t, shared, one_minus_q):
    """dT/dnu + (1 - q) T^2 / 2, the nu slope of f^(1 - q) T over f^(1 - q); shared: _nu_terms's."""
    trigamma_gap, nu_s, excess = shared
    # 0.5 trigamma gap + s / (nu (nu + s)) - excess / (nu + s), + 0.5 (1 - q) T T
    d_t = np.add(0.5 * trigamma_gap, np.divide(s, d_t := nu * nu_s, out=d_t), out=d_t)
    d_t -= (term := excess / nu_s)
    d_t += np.multiply(np.multiply(0.5 * one_minus_q, t, out=term), t, out=term)
    return d_t


def score_curve(params: MvtParams, s_grid, q: float = 1.0) -> np.ndarray:
    """The per-observation nu score f^(1 - q) T / 2 along a grid of squared distances.

    Returns an array of (s, value) pairs. At q = 1 the value is exactly T / 2,
    the likelihood score, which by Fisher's identity is half of the paper's
    1 + E(log U | x) - E(U | x) + log(nu/2) - digamma(nu/2); it diverges like
    -log(s)/2, the unbounded influence the reweighted estimator addresses.
    For q < 1 it is the q-weighted summand, bounded and vanishing far from
    the center. Either depends on an observation only through its squared
    distance.
    """
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise DomainError("q must lie in (0, 1]")
    grid = np.asarray(s_grid, dtype=float)
    if grid.size == 0:
        return np.empty((0, 2))
    if grid.ndim != 1:
        raise DimensionMismatch("s grid must be one-dimensional")
    if not (np.isfinite(grid) & (grid >= 0.0)).all():
        raise DomainError("s grid must be finite and nonnegative")
    if np.any(np.diff(grid) < 0.0):
        raise DomainError("s grid must be ascending")
    t, weight, _ = _nu_terms(grid, params.nu, params.dim, 1.0 - q, params.log_det_sigma)
    return np.column_stack([grid, 0.5 * t * weight])
