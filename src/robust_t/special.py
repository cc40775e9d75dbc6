"""Log-gamma, digamma and the gaps F(x + p/2) - F(x) of the t density, in numpy.

gamma_gaps computes the gaps for F = log Gamma, digamma and trigamma together:
sums of f(x + i), f(z) = F(z + 1) - F(z), and for odd p the half step G(z) =
F(z + 1/2) - F(z), from its asymptotic series at y = x + _SHIFT and G(z) =
G(z + 1) - f(z + 1/2) + f(z). log_gamma and digamma raise DomainError unless x > 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = ["log_gamma", "digamma", "gamma_gaps"]

# the series are taken at x + _SHIFT, where seven terms reach float precision
_SHIFT = 10
_J = np.arange(1, 8)
_B2J = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6])
_HALF = (2.0 ** (1 - 2 * _J) - 2.0) * _B2J / (2 * _J * (2 * _J - 1))
# G(y) less (log(y) / 2, 0, 0), for the three F: the coefficients of y^-1 ... y^-15
_HALF_SERIES = np.zeros((15, 3))
_HALF_SERIES[[0, 1], [1, 2]] = 0.5, -0.5
_HALF_SERIES[2 * _J - 2, 0] = _HALF
_HALF_SERIES[2 * _J - 1, 1] = (1 - 2 * _J) * _HALF
_HALF_SERIES[2 * _J, 2] = 2 * _J * (2 * _J - 1) * _HALF
# where gamma(v) is a normal float, its log is the more accurate
_LOG_GAMMA = np.vectorize(
    lambda v: math.log(math.gamma(v)) if 1e-300 < v < 170.0 else math.lgamma(v), otypes=[float])


def _positive(x, name: str):
    arr = np.asarray(x, dtype=float)
    if not (arr > 0.0).all():
        raise DomainError(f"{name} requires x > 0, got {x}")
    return arr


def log_gamma(x):
    """Natural log of the Gamma function for x > 0 (scalar or array)."""
    return _LOG_GAMMA(_positive(x, "log_gamma"))[()]


def digamma(x):
    """Logarithmic derivative of Gamma for x > 0 (scalar or array)."""
    x = _positive(x, "digamma")
    y = x + _SHIFT
    series = (1.0 / (y * y))[..., None] ** _J @ (_B2J / (2 * _J))
    return (np.log(y) - 0.5 / y - series - gamma_gaps(x, 2 * _SHIFT)[1])[()]


@lru_cache
def _sums(p: int):
    """gamma_gaps's offsets i and weights of f(x + i) for p, and the shift y - x."""
    half, odd = divmod(p, 2)
    shift = max(_SHIFT, half) if odd else half
    # 1/z and -1/z^2: f(x + i), i < shift, less f(x + i + 1/2), half <= i < shift; log z, free
    # of cancellation: log(x + i), i < half, log(y)/2, less log1p(1/(2 (x + i))), half <= i < shift
    return (np.r_[np.arange(shift), np.arange(half, shift) + 0.5],
            np.r_[np.ones(shift), -np.ones(shift - half)],
            np.r_[np.arange(half), shift], np.r_[np.ones(half), 0.5 * odd],
            np.arange(half, shift), shift)


def gamma_gaps(x, p: int):
    """F(x + p/2) - F(x), F = log Gamma, digamma and trigamma, at x > 0 (not checked)."""
    if p == 2:
        r = 1.0 / x
        return np.log(x), r, -r * r
    offsets, weights, log_offsets, log_weights, pairs, shift = _sums(p)
    flat = np.reshape(x, (-1, 1))
    r = 1.0 / (flat + offsets)
    gaps = [np.log(flat + log_offsets) @ log_weights, r @ weights, -((r * r) @ weights)]
    if p % 2:
        series = (1.0 / (flat + shift)) ** np.arange(1.0, 16.0) @ _HALF_SERIES
        gaps[0] = gaps[0] - np.log1p(0.5 / (flat + pairs)).sum(axis=1)
        gaps = [gap + series[:, k] for k, gap in enumerate(gaps)]
    return tuple(gap.reshape(np.shape(x)) for gap in gaps)
