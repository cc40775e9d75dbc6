"""Correctness gate for benchmark outputs, independent of the package code.

Three checks, each tied to the stopping tolerance epsilon of the fits:

* fixed point: one step of the estimating equations, written out here with
  numpy/scipy only, must move a converged fit by at most FIXED_POINT_TOL
  epsilon (norm over mu, the upper triangle of sigma and nu, as the package
  defines its stopping norm). The step has the same fixed point whatever
  iteration scheme the package uses to reach it;
* reference: fits of the fixed reference inputs must lie within
  REFERENCE_TOL epsilon of the fixed points recorded in reference.json
  (solved to a far tighter epsilon), with the same converged flag;
* ascent: the objective trace of an ML fit may not decrease by more than
  rounding.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import brentq
from scipy.special import digamma, gammaln

EPSILON = 1e-6
NU_BRACKET = (0.1, 200.0)
# The stop rule bounds one step, so one more step moves a converged fit by
# about r * epsilon (r < 1 the contraction rate); 10 leaves room for other
# iteration schemes with the same fixed point.
FIXED_POINT_TOL = 10.0
# The distance to the fixed point itself is up to epsilon * r / (1 - r):
# up to 12 epsilon was measured, for MLq at q = 0.8 (r near 0.92).
REFERENCE_TOL = 50.0
# Allowed ML objective decrease per step, in units of n * machine epsilon * |objective|.
ASCENT_ULPS = 64.0


def pack(mu, sigma, nu) -> np.ndarray:
    """Stopping-norm vector: mu, row-major upper triangle of sigma, nu."""
    sigma = np.asarray(sigma, dtype=float)
    iu = np.triu_indices(sigma.shape[0])
    return np.concatenate([np.asarray(mu, dtype=float), sigma[iu], [float(nu)]])


def full_sigma(upper, p: int) -> np.ndarray:
    """Symmetric matrix from its row-major upper triangle."""
    m = np.zeros((p, p))
    m[np.triu_indices(p)] = upper
    return m + np.triu(m, 1).T


def _root(g, lo: float, hi: float) -> float:
    g_lo, g_hi = g(lo), g(hi)
    if (g_lo < 0.0) != (g_hi < 0.0):
        return float(brentq(g, lo, hi, xtol=1e-12, maxiter=500))
    return lo if abs(g_lo) <= abs(g_hi) else hi


def em_step(rows, mu, sigma, nu, method: str, q: float = 1.0):
    """One update of (mu, sigma, nu) by the ML or MLq estimating equations."""
    rows = np.asarray(rows, dtype=float)
    n, p = rows.shape
    chol = cholesky(np.asarray(sigma, dtype=float), lower=True)
    s = np.sum(solve_triangular(chol, (rows - mu).T, lower=True) ** 2, axis=0)
    u1 = (nu + p) / (nu + s)
    u2 = digamma(0.5 * (nu + p)) - np.log(0.5 * (nu + s))
    if method == "ml":
        mu_new = u1 @ rows / u1.sum()
        d = rows - mu_new
        sigma_new = (u1[:, None] * d).T @ d / n
        offset = float(np.sum(u2 - u1))

        def g(v):
            return n * (math.log(0.5 * v) - digamma(0.5 * v) + 1.0) + offset
    else:
        a = 0.5 * (1.0 - q) * (nu + p)
        w = (nu + p) * (nu + s) ** -(1.0 + a)
        v_w = (nu + s) ** -a
        mu_new = w @ rows / w.sum()
        d = rows - mu
        sigma_new = (w[:, None] * d).T @ d / v_w.sum()
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        base = u2 - u1 + 1.0

        def g(v):
            log_f = (gammaln(0.5 * (v + p)) - gammaln(0.5 * v)
                     - 0.5 * p * math.log(math.pi * v) - 0.5 * log_det
                     - 0.5 * (v + p) * np.log1p(s / v))
            weight = np.exp((1.0 - q) * log_f)
            return float(np.sum((base + math.log(0.5 * v) - digamma(0.5 * v)) * weight))
    return mu_new, sigma_new, _root(g, *NU_BRACKET)


def fixed_point_residual(rows, mu, sigma, nu, method: str, q: float = 1.0) -> float:
    """Stopping-norm distance between a fit and one more update of it."""
    step = em_step(rows, mu, sigma, nu, method, q)
    return float(np.linalg.norm(pack(*step) - pack(mu, sigma, nu)))


def fit_problems(rows, mu, sigma, nu, converged: bool, method: str, q: float = 1.0,
                 objectives=None) -> list[str]:
    """Reasons a single fit output is wrong; empty when it passes."""
    if not converged:
        return ["did not converge"]
    vec = pack(mu, sigma, nu)
    if not np.all(np.isfinite(vec)):
        return ["non-finite parameters"]
    try:
        residual = fixed_point_residual(rows, mu, sigma, nu, method, q)
    except np.linalg.LinAlgError:
        return ["scatter is not positive definite"]
    problems = []
    if not residual <= FIXED_POINT_TOL * EPSILON:
        problems.append(f"fixed-point residual {residual:.3g} > {FIXED_POINT_TOL:g} eps")
    if method == "ml" and objectives is not None:
        drop = ascent_violation(objectives, len(rows))
        if drop is not None:
            problems.append(f"ML objective decreased by {drop:.3g}")
    return problems


def ascent_violation(objectives, n: int):
    """Largest ML objective decrease beyond rounding, or None."""
    obj = np.asarray(objectives, dtype=float)
    if obj.size < 2:
        return None
    slack = ASCENT_ULPS * n * np.finfo(float).eps * np.maximum(1.0, np.abs(obj[:-1]))
    drops = obj[:-1] - obj[1:]
    bad = drops > slack
    return float(drops[bad].max()) if bad.any() else None


def reference_problems(got: dict, ref: dict) -> list[str]:
    """Compare one fit {mu, sigma, nu, converged} with its recorded fixed point."""
    if bool(got["converged"]) != bool(ref["converged"]):
        return [f"converged={got['converged']} but reference says {ref['converged']}"]
    dist = float(np.linalg.norm(
        pack(got["mu"], got["sigma"], got["nu"]) - pack(ref["mu"], ref["sigma"], ref["nu"])
    ))
    if not dist <= REFERENCE_TOL * EPSILON:
        return [f"distance {dist:.3g} from reference > {REFERENCE_TOL:g} eps"]
    return []
