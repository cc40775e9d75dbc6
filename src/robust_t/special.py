"""Log-gamma and digamma on the positive reals.

Thin checked wrappers over scipy.special, whose versions work elementwise
on arrays, which the batched degrees-of-freedom solves need. The wrappers
only add the domain check, so a non-positive or NaN argument raises
DomainError instead of returning inf or NaN.
"""

from __future__ import annotations

import numpy as np
import scipy.special

from .errors import DomainError

__all__ = ["log_gamma", "digamma"]


def _positive(x, name: str):
    arr = np.asarray(x, dtype=float)
    if not (arr > 0.0).all():
        raise DomainError(f"{name} requires x > 0, got {x}")
    return arr


def log_gamma(x):
    """Natural log of the Gamma function for x > 0 (scalar or array)."""
    return scipy.special.gammaln(_positive(x, "log_gamma"))


def digamma(x):
    """Logarithmic derivative of Gamma for x > 0 (scalar or array)."""
    return scipy.special.digamma(_positive(x, "digamma"))
