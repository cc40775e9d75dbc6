"""Small dense SPD linear algebra used by the density and the estimators.

Everything is routed through Cholesky factors: log-determinants come from
the factor diagonal and quadratic forms from one forward substitution. No
explicit matrix inverse is formed anywhere, which keeps the per-observation
weights stable when Mahalanobis distances get very large.

The *_many functions work on a stack of B parameter sets at once, for the
lockstep fits. A member's result depends neither on the rest of the stack
nor on the BLAS threads: it comes from the same elementwise operations and
numpy sums as a stack of one, and from one BLAS call per member, of one
shape and memory layout, in a reduction OpenBLAS does not split across
threads (gemm, or gemv over p); it splits a dot or gemv over n observations.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite

_EPS = np.finfo(float).eps

__all__ = [
    "symmetrize",
    "cholesky_lower",
    "cholesky_many",
    "log_det_from_chol",
    "mahalanobis_sq_from_chol",
    "mahalanobis_sq_many",
    "spd_repair",
    "spd_shift_many",
]


def symmetrize(m) -> np.ndarray:
    """Return the symmetric part (m + m.T) / 2 as a float array."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.T)


def cholesky_lower(m) -> np.ndarray:
    """Lower Cholesky factor L with m = L @ L.T.

    Raises NotPositiveDefinite when a pivot fails; that is how degenerate
    scatter matrices are detected throughout the package.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is not positive definite") from exc


def cholesky_many(stack: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a (B, p, p) stack; NaN where a pivot fails.

    A stack with a failing matrix is factored again in halves, so k failures
    among B matrices cost about k log2(B) stacked calls; every factor is
    the one its matrix gets alone.
    """
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        if stack.shape[0] == 1:
            return np.full_like(stack, np.nan)
        half = stack.shape[0] // 2
        return np.concatenate([cholesky_many(stack[:half]), cholesky_many(stack[half:])])


def log_det_from_chol(chol):
    """log determinant 2 * sum(log diag(L)) from lower factors, one per stack member."""
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def mahalanobis_sq_from_chol(rows, mu, chol: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of each row given a lower Cholesky factor."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    mu = np.asarray(mu, dtype=float)
    if rows.shape[1] != mu.shape[0] or chol.shape[0] != mu.shape[0]:
        raise DimensionMismatch(
            f"rows of width {rows.shape[1]} incompatible with location of "
            f"length {mu.shape[0]} and factor of order {chol.shape[0]}"
        )
    return mahalanobis_sq_many(rows.T, mu[None, :], chol[None, :, :])[0]


def mahalanobis_sq_many(columns, mu, chol) -> np.ndarray:
    """Squared distances of p x n observation columns under B parameter sets.

    columns is (p, n), shared by every set, or (B, p, n), one per set; mu is
    (B, p) and chol the (B, p, p) lower factors; the result is (B, n).
    L z = x - mu is solved by forward substitution, one coordinate at a
    time; coordinate j >= 2 sums over the j before it by one gemv per member.
    """
    d = columns - mu[:, :, None]
    z = np.empty(d.shape)  # C order whatever the columns' order: one layout for the gemv
    for j in range(d.shape[1]):
        acc = d[:, j] - chol[:, j, 0, None] * z[:, 0] if j == 1 else d[:, j]
        if j > 1:  # coordinates 0 and 1 stay elementwise, which is faster for p <= 3
            acc = acc - (chol[:, j, None, :j] @ z[:, :j])[:, 0]
        z[:, j] = acc / chol[:, j, j, None]
    return np.sum(z * z, axis=1)


def _lambda_min_2x2(m: np.ndarray):
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]
    return 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)


def spd_repair(m, floor: float = 1e-10) -> np.ndarray:
    """Symmetrize m and shift its diagonal so the smallest eigenvalue >= floor.

    The shift comes from spd_shift_many. An input that is already
    comfortably positive definite comes back unchanged apart from
    symmetrization.
    """
    sym = symmetrize(m)
    if not np.all(np.isfinite(sym)):
        raise DomainError("matrix entries must be finite")
    return sym + spd_shift_many(sym[None, :, :], floor)[0] * np.eye(sym.shape[0])


def spd_shift_many(stack: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    """The diagonal shift spd_repair adds to each matrix of a (B, p, p) stack.

    The matrices must be finite and symmetric; the result is
    max(0, floor - smallest eigenvalue), one value per matrix. The smallest
    eigenvalue is exact for order 1. For order 2 it is the closed form, and
    above that eigvalsh's, each less 2 p eps ||m||_F, so that it is not above
    the true one: against an exact solver, eigvalsh erred by up to
    5.2 eps ||m||_F on random matrices of order 3 to 8, more than
    p eps ||m||_F at order 3 and 4, and the closed form, which cancels when
    the matrix is near singular, by up to 0.7 eps ||m||_F.
    """
    if not floor > 0:
        raise DomainError("floor must be positive")
    p = stack.shape[-1]
    if p == 1:
        return np.maximum(0.0, floor - stack[:, 0, 0])
    lam = _lambda_min_2x2(stack) if p == 2 else np.linalg.eigvalsh(stack)[:, 0]
    bound = 2 * p * _EPS * np.sqrt(np.add.reduce(stack * stack, axis=(1, 2)))  # ||m||_F
    return np.maximum(0.0, floor - (lam - bound))
