"""Log-gamma, digamma and the gaps F(x + p/2) - F(x) of the t density, in numpy.

gamma_gaps computes the gaps for F = log Gamma, digamma and trigamma together:
sums of f(x + i), f(z) = F(z + 1) - F(z), and for odd p the half step G(z) =
F(z + 1/2) - F(z), from its asymptotic series at y = x + _SHIFT and G(z) =
G(z + 1) - f(z + 1/2) + f(z). Every operation is elementwise, its sums running
sums and digamma's series in Horner form, so a value's result does not depend
on the others it is given with. log_gamma and digamma raise DomainError unless x > 0.
"""

from __future__ import annotations

import math
from functools import reduce

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
    u = 1.0 / (y * y)
    # the sum of B_2j / (2 j) u^j over j, in Horner form
    series = u * reduce(lambda total, c: total * u + c, (_B2J / (2 * _J))[::-1])
    return (np.log(y) - 0.5 / y - series - gamma_gaps(x, 2 * _SHIFT)[1])[()]


def gamma_gaps(x, p: int):
    """F(x + p/2) - F(x), F = log Gamma, digamma and trigamma, at x > 0 (not checked)."""
    if p == 2:
        r = 1.0 / x
        return np.log(x), r, -r * r
    x = np.asarray(x, dtype=float)
    half, odd = divmod(p, 2)
    shift = max(_SHIFT, half) if odd else half
    # row i: (log z, 1/z, -1/z^2) at z = x + i, less for half <= i < shift the same at z + 1/2,
    # the log difference free of cancellation as -log1p(1/(2 z))
    z = np.add.outer(np.arange(shift), x)
    r = 1.0 / z
    rows = np.stack([np.log(z), r, -r * r], axis=1)
    if odd:
        r_half = 1.0 / (z[half:] + 0.5)
        rows[half:, 0] = -np.log1p(0.5 / z[half:])
        rows[half:, 1] -= r_half
        rows[half:, 2] += r_half * r_half
        # then G(y): (log(y) / 2, 0, 0) and the series's terms, y^-15 first
        powers = np.multiply.accumulate(np.full((15,) + x.shape, 1.0 / (x + shift)))[::-1, None]
        rows = np.concatenate([rows, np.multiply.outer([[0.5, 0.0, 0.0]], np.log(x + shift)),
                               _HALF_SERIES[::-1].reshape(15, 3, *[1] * x.ndim) * powers])
    # accumulate adds the rows in order, so every add is elementwise
    return tuple(np.add.accumulate(rows)[-1])
