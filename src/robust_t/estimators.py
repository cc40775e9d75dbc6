"""Fitting the multivariate t distribution by plain and q-weighted likelihood.

Every fit runs through one engine, which advances a batch of fits in
lockstep (the same configs on each of a stack of same-shape datasets) and
reports them in arrays. run_simulation hands it a group of replicates, each
with the plain fit and the whole q grid, and reads its records from those
arrays; fit_many, the one-dataset case, and fit(), the one-fit case, build
each FitResult from them. An iteration is one evaluation of the map F:
closed-form weighted sums update location and scatter, and the squared
distances at the update give the degrees of freedom (when estimated), by a
bracketed Newton search over the fits still solving, and the objective. A
fit leaves the batch when it converges, fails or reaches max_iter;
iterations, max_iter and the trace all count evaluations of F.

The q-weighted step weights every observation by E(U | x) f^(1 - q), the
EM weight times its density raised to (1 - q), so outlying points are
downweighted twice. f is taken from the log density the iteration already
evaluated for its objective, relative to its largest value over the rows,
so the weights do not depend on the data's units; the step divides by
their sum, which cancels the constant. Every scatter is centered on the
updated location. With a = 1 - q, lq(f) >= lq(f0) + f0^a (log f - log f0)
as exp is convex, so from f0 the objective (the sum of lq) rises at least
as much as sum v log f, v = f0^a being the factor above: the step is a
minorize-maximize (MM) step (Hunter & Lange 2004). At a held nu its
location and scatter step, a PX-EM step on sum v log f, does not lower that
sum, so it does not lower the objective; the scatter floor, when it acts,
and the nu step (below) are outside the argument. Convergence is judged on
the parameter-change norm alone. As lq is log at q = 1, the plain method
is the q = 1 case: a plain fit is bitwise the q-weighted fit at q = 1, and
the method only labels the result. Three departures from the paper's EM
step cut the evaluations a fit needs; each keeps its fixed point.

* PX-EM denominator (Kent, Tyler & Vardi 1994). Every scatter update is
  divided by the sum of its numerator weights w instead of by the
  estimating equation's denominator: n for the plain step, whose w are
  the EM weights u, and the sum of the v weights for the q-weighted step.
  At a fixed point the trace of sigma^-1 times the scatter equation gives
  sum(w s) = p sum(v) (v = 1 for the plain step), and since
  w (nu + s) = (nu + p) v, sum(w) = sum(v).
* Inexact ECME (Liu & Rubin 1994; Lange 1995; McLachlan & Peel 2000,
  section 7). The nu step works on sum f^(1 - q) T = 0 at the updated location
  and scatter, T being twice the observed-data score in nu. The paper's ECM step
  solves sum f^(1 - q) (1 + u2 - u1 + log(nu/2) - digamma(nu/2)) = 0, holding
  the E-step's u1 and u2 fixed; by Fisher's identity its term equals T at the
  same parameters, so the two equations agree at a fixed point, f^(1 - q)
  weights included. From the nu F starts at, the search takes lean Newton steps
  while every open fit's slope is negative and its step stays on NU_BRACKET:
  one, zero exactly where the score is, or at a SQUAREM point to the root, its
  last step at most sqrt(_NU_XTOL), for an error near _NU_XTOL at a simple root.
  After a step fails that guard, a fit whose own step fails it reads the
  bracket's ends, to clamp or to go on in the sign-change interval, to the root
  or (off SQUAREM points) to its first Newton step there. A root maximizes
  the objective over nu where the score changes sign once on NU_BRACKET; one
  Newton step need not. So that a trace does not decrease rests on the solve
  at each SQUAREM point and on measurement, not on a proof.
* SQUAREM (Varadhan & Roland 2008, scheme S3). Every three iterations
  form one cycle: from x0 the engine takes x1 = F(x0) and x2 = F(x1),
  then moves to x' = x0 - 2 alpha r + alpha^2 v, with r = x1 - x0 and
  v = x2 - 2 x1 + x0, and the third iteration evaluates F(x'). The step
  length is alpha = min(-|r| / |v|, -1), both norms taken on x0's
  unit-free scale (mu_j / sqrt(sigma_jj), sigma_jk / sqrt(sigma_jj
  sigma_kk), nu as it is); alpha = -1 gives x2 itself. The extrapolation
  acts on the packed (mu, upper triangle of sigma, nu). A fit falls back
  to x2 when x' has a non-finite entry, a nu outside NU_BRACKET, a
  scatter with no Cholesky factor, or an objective that is not finite or
  is below the objective at x2.

Conventions pinned here and recorded in FitResult so runs are reproducible:

* the stopping norm is the unweighted Euclidean norm over the concatenation
  of mu, the upper triangle of sigma, and nu (nu omitted when held fixed:
  its step is 0), taken over one evaluation of F, so a fit stops when F
  moves it by less than epsilon;
* a nu search reads NU_BRACKET's ends only after a Newton step fails its
  guard; where it finds no sign change there, it clamps to lo if the score
  is negative and to hi if positive (near-normal data), and the result is
  flagged rather than treated as an error;
* every scatter is floored at SPD_FLOOR on the correlation scale, so a
  change of a column's units moves no fit, and a variance below SPD_FLOOR
  times its column's squared median absolute deviation fails the fit.

The engine sorts each dataset's rows into lexicographic order once (an
argsort of column 0; a lexsort where column 0 has ties). Every fit of a
batch then goes through the same elementwise operations and numpy sums, the
SQUAREM step and its fallback included, and one BLAS call per fit, of one
shape and memory layout, in each reduction OpenBLAS does not split across
threads (see linalg). It splits the location sums (a gemv over n) and a
p = 1 scatter (a dot), so those stay numpy sums. So a fit is bitwise the
same whatever the batch holds, the rows' order or the BLAS thread count.
Each iteration calls the ufunc reductions (np.add.reduce and the like)
directly; np.sum, np.all and np.max call the same ones after a dispatch
that costs about as much at a batch's sizes. Nor does it check again what
it made: its weights and its results' MvtParams take its values as they are.

The set-up centers each dataset's sorted rows once, for init_params's means
and covariance, judges their rank on its correlation matrix, and repairs and
factors that start once for all the dataset's fits.

e_step, m_step_ml, m_step_mlq, solve_nu_ml and solve_nu_mlq run the
engine's phases for one fit, from the previous iterate and its e_step, and
raise DegenerateData where the engine would fail the fit. solve_nu_* take
T at the previous iterate's location and scatter and solve to the root.
Nothing in the package calls or exports them: they remain only as
perfbench's hook surface, until perfbench hooks the engine's own phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateData, DimensionMismatch, DomainError
from .linalg import (
    cholesky_many,
    log_det_from_chol,
    mahalanobis_sq_from_chol,
    mahalanobis_sq_many,
    spd_shift_many,
)
from .tdist import (
    MvtParams,
    _cond_expect_u,
    _integer,
    _log_pdf,
    _lq,
    _nu_slope,
    _nu_terms,
    as_data_matrix,
    cond_expect_log_u,
    cond_expect_u,
)

__all__ = [
    "METHOD_ML",
    "METHOD_MLQ",
    "NORM_DEFINITION",
    "NU_BRACKET",
    "SPD_FLOOR",
    "FitConfig",
    "FitResult",
    "IterationRecord",
    "init_params",
    "fit",
    "fit_many",
]

METHOD_ML = "ml"
METHOD_MLQ = "mlq"
# The q of an MLq fit or simulation that names none.
DEFAULT_Q = 0.85

NORM_DEFINITION = "euclidean(mu, upper_triangle(sigma), nu if estimated)"

# The degrees-of-freedom solves search this interval.
NU_BRACKET = (0.1, 200.0)
# Every scatter is repaired so that its correlation matrix has a smallest
# eigenvalue of at least this (see _repair_scatter).
SPD_FLOOR = 1e-10

# Fields in which the configs of one fit_many batch may differ.
_PER_FIT_FIELDS = ("method", "q")
# Absolute tolerance on the nu root, and the most Newton or bisection steps.
_NU_XTOL = 1e-10
_NU_MAX_STEPS = 200


@dataclass(frozen=True)
class FitConfig:
    """Estimator controls.

    q weights the q-weighted method and must be 1 for the plain one, its
    q = 1 case: method only labels the result. fixed_nu holds the degrees of
    freedom at that finite value; None estimates them, starting from 3.
    epsilon bounds the stopping norm (NORM_DEFINITION) and max_iter the
    iterations. The nu bracket and the scatter floor are the module
    constants NU_BRACKET and SPD_FLOOR.
    """

    method: str = METHOD_ML
    q: float = 1.0
    fixed_nu: Optional[float] = None
    epsilon: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if self.method not in (METHOD_ML, METHOD_MLQ):
            raise DomainError(f"unknown method {self.method!r}")
        if not 0.0 < self.q <= 1.0:
            raise DomainError("q must lie in (0, 1]")
        if self.method == METHOD_ML and self.q != 1.0:
            raise DomainError("q must be 1 for the plain method")
        if not 0.0 < self.epsilon < math.inf:
            raise DomainError("epsilon must be positive and finite")
        object.__setattr__(self, "max_iter", _integer(self.max_iter, "max_iter"))
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")
        if self.fixed_nu is not None and not 0.0 < self.fixed_nu < math.inf:
            raise DomainError("fixed_nu must be positive and finite")


# The settings every config of one batch shares.
_shared_settings = attrgetter(*(f.name for f in fields(FitConfig) if f.name not in _PER_FIT_FIELDS))


class EStepQuantities(NamedTuple):
    """Per-observation conditional expectations and squared distances."""

    u1: np.ndarray
    u2: np.ndarray
    s: np.ndarray


class IterationRecord(NamedTuple):
    iteration: int
    change_norm: float
    objective: float


class NuSolveResult(NamedTuple):
    nu: float
    bracketed: bool


@dataclass(frozen=True)
class FitResult:
    """Converged parameters plus the iteration trace and diagnostics.

    iterations counts evaluations of the map F: the paper's location and
    scatter step, then a step on the observed-data nu equation at the update
    (inexact ECME), with the paper's fixed point (see the module docstring).
    trace holds one record per evaluation: its change norm and the objective at
    its result. Every third evaluation starts from a SQUAREM point, or from the
    previous result where that point failed its checks, and solves for nu to
    the root, to about _NU_XTOL (its last Newton step is at most
    sqrt(_NU_XTOL)); the others take one Newton step. Where the nu equation has
    several roots on NU_BRACKET, that solve returns the one Newton steps reach
    from the nu F starts at while the score falls there (a local maximum in
    nu), or after a step fails that guard the one its bracketed search reaches.
    nu_clamped is True when the last nu step read the bracket's ends, found no
    sign change and returned an endpoint. A solve that never reads the ends is
    never clamped, even where the score keeps its sign.
    """

    params: MvtParams
    iterations: int
    converged: bool
    trace: tuple[IterationRecord, ...]
    objective: float
    method: str
    q: Optional[float]
    nu_estimated: bool
    nu_clamped: bool
    change_norm: float
    norm_definition: str = field(default=NORM_DEFINITION)


def _repair_scatter(sigma: np.ndarray) -> np.ndarray:
    """Floor a (B, p, p) stack of symmetric scatters at SPD_FLOOR, unit-free.

    The shift t that spd_repair would add to the correlation matrix
    D^-1/2 sigma D^-1/2 (D the diagonal of sigma) is added as t * D, so the
    repair scales with each column's variance and a change of units moves
    no fit. A scatter with a diagonal entry <= 0 is floored absolutely, as
    spd_repair does. A scatter needing no shift comes back unchanged.
    """
    diag = np.diagonal(sigma, axis1=1, axis2=2)
    scale = np.where(np.logical_and.reduce(diag > 0.0, axis=1, keepdims=True), diag, 1.0)
    root = np.sqrt(scale)
    shift = spd_shift_many(sigma / (root[:, :, None] * root[:, None, :]), SPD_FLOOR)
    if not shift.any():
        return sigma
    eye = np.eye(sigma.shape[-1])
    return sigma + (shift[:, None] * scale)[:, :, None] * eye


def _cross(a, b) -> np.ndarray:
    """a @ b.T per (B, p, n) stack member: a gemm, or at p = 1 a numpy sum (a dot is split)."""
    return a @ b.transpose(0, 2, 1) if a.shape[1] > 1 else np.add.reduce(a * b, 2)[:, :, None]


def _moments(rows):
    """Column means and sample covariance of finite (n, p) rows, which are centered once."""
    n = rows.shape[0]
    if n < 2:
        raise DegenerateData("initialization needs at least two observations")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.sum(rows, axis=0) / n
        centered = rows - mu
        cov = _cross(centered.T[None], centered.T[None])[0] / (n - 1)
    if not np.isfinite(cov).all():  # as it is wherever a mean overflowed
        raise DegenerateData("the column means or covariances overflow")
    if (rows == rows[0]).all():  # their mean, hence their covariance, may round off 0
        raise DegenerateData("all observations are identical")
    return mu, cov


def init_params(data) -> MvtParams:
    """Starting point: column means, repaired sample covariance, nu = 3."""
    mu, cov = _moments(as_data_matrix(data))
    return MvtParams(mu, _repair_scatter(cov[None])[0], 3.0)


def e_step(data, params: MvtParams) -> EStepQuantities:
    """Conditional expectations of the mixing variable at the current iterate."""
    rows = as_data_matrix(data)
    s = mahalanobis_sq_from_chol(rows, params.mu, params.chol_lower)
    u1 = cond_expect_u(s, params.nu, params.dim)
    u2 = cond_expect_log_u(s, params.nu, params.dim)
    return EStepQuantities(u1, u2, s)


def _m_step(columns, w, prev_tri, upper):
    """The location and scatter step of B fits, from their weights w (B, n).

    columns holds each fit's rows as (p, n). Each scatter is centered on the
    updated location, and both sums are divided by the sum of w. Returns the
    locations, the repaired scatters and which updates are finite; the
    others take their scatter from prev_tri, the previous upper triangles.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sum_w = np.add.reduce(w, axis=1)[:, None]
        # a numpy sum: as a product it is a gemv over n, which OpenBLAS splits across threads
        mu = np.add.reduce(w[:, None, :] * columns, axis=2) / sum_w
        d = columns - mu[:, :, None]
        tri = _cross(w[:, None, :] * d, d)[:, upper[0], upper[1]] / sum_w
    ok = np.logical_and.reduce(np.isfinite(np.concatenate((mu, tri), axis=1)), axis=1)
    sigma = _from_upper(_where(ok, tri, prev_tri), upper, mu.shape[1])
    return mu, _repair_scatter(sigma), ok


def _one_m_step(rows, w):
    """_m_step for one fit."""
    p = rows.shape[1]
    upper = np.triu_indices(p)
    mu, sigma, ok = _m_step(rows.T[None], w[None], np.eye(p)[upper][None], upper)
    if not ok[0]:
        raise DegenerateData("weighted update produced non-finite parameters")
    return mu[0], sigma[0]


def m_step_ml(data, est: EStepQuantities) -> tuple[np.ndarray, np.ndarray]:
    """The plain EM step from est's weights E(U | x): m_step_mlq at q = 1."""
    return _one_m_step(as_data_matrix(data), est.u1)


def _bracketed_root(g, lo: float, hi: float, start: np.ndarray, newton_tol: float = _NU_XTOL):
    """Roots of B scalar equations on the common bracket [lo, hi].

    g maps candidate values of shape (B, k) to the B equations' values there,
    (B, k), and their slopes at the last candidate, (B, 1); it returns NaN at a
    NaN candidate and skips a row that is all NaN, an equation already settled
    (see _observed_nu_score). The search starts from x, start clipped to the
    bracket, and the first call asks for x alone. While every open equation's
    slope at x is negative and its Newton step stays on [lo, hi], the search is
    lean: it takes those steps and keeps no bracket state, flagged bracketed; at
    newton_tol = inf (the engine's iterations off SQUAREM points) an equation
    stops after the first, else after one of at most newton_tol. Newton's error
    after a step d is about (f'' / 2 f') d^2, so the engine's sqrt(_NU_XTOL) at
    SQUAREM points leaves about _NU_XTOL at a simple root. Once a step fails
    that guard, the open equations go on from x bracketed: an equation whose
    step fails it reads lo and hi in one call, bar an end that x is. Where the
    value does not change sign on the bracket, lo is returned where it is
    negative and hi where positive, flagged unbracketed. Otherwise the root is
    found by Newton's method from x, safeguarded by bisection: a Newton step
    that lands in the closed sign-change interval [a, b] is taken, even onto the
    current iterate, and any other is replaced by the geometric midpoint
    sqrt(a b), which needs lo > 0. Such a root is accepted after a Newton step
    of at most newton_tol (at inf, the first in [a, b]) or once its interval is
    _NU_XTOL narrow. After _NU_MAX_STEPS steps of either kind an open equation
    returns its x. Every search stops at an exact zero; a NaN value or slope
    gives a NaN root. Every equation's iterates depend on its own values only.
    Returns (roots, bracketed), both of shape (B,).
    """
    x = np.minimum(np.maximum(start, lo), hi)
    value, slope = g(x[:, None])
    fx, dfx = value[:, 0], slope[:, 0]
    ends = np.array([lo, hi])
    # the sign-change interval is [a, b], with f(a) of the sign of f(lo)
    a, b = lo, hi
    f_lo = root = np.full(x.shape, np.nan)
    todo = free = bracketed = np.ones(x.shape, dtype=bool)  # free: has read no end
    # lean: no end read yet; a bracket _NU_XTOL narrow takes the bracketed steps at once
    lean = hi - lo > _NU_XTOL
    for _ in range(_NU_MAX_STEPS):
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - fx / dfx
        # the guard; a NaN value or slope gives a NaN step, which fails it
        guarded = (dfx < 0.0) & (lo <= newton) & (newton <= hi)
        lean = lean and np.count_nonzero(guarded & todo) == np.count_nonzero(todo)
        if lean:  # every open step holds the guard, and an exact zero steps onto x
            step, done = newton, todo & ~(np.abs(newton - x) > newton_tol)
        else:
            free = free & todo
            guarded &= free
            fall = free & ~guarded & (fx != 0.0)
            if fall.any():
                held = ends == x[:, None]
                ask = np.where(fall[:, None] & ~held, ends, np.nan)
                need = ~np.isnan(ask).all(axis=0)
                value = np.full(held.shape, np.nan)
                value[:, need] = g(ask[:, need])[0]
                value = np.where(held, fx[:, None], value)
                f_lo, f_hi = np.where(fall, value[:, 0], f_lo), value[:, 1]
                # no sign change: lo where f < 0 at both ends, hi where f > 0, or an f = 0 end
                change = np.sign(f_lo) * np.sign(f_hi) < 0.0
                root = np.where(fall, np.where((f_hi == 0.0) | (f_lo > 0.0), hi, lo), root)
                bracketed = np.where(fall, change | (f_lo == 0.0) | (f_hi == 0.0), bracketed)
                todo, free = todo & ~(fall & ~change), free & ~fall
            hit = todo & (fx == 0.0)
            root = np.where(hit, x, root)
            todo = todo & ~hit
            low = ~free & ((fx < 0.0) == (f_lo < 0.0))
            a, b = np.where(low, x, a), np.where(low | free, b, x)
            # a NaN step (from a NaN value or slope) is taken and accepted: the root is NaN
            use_newton = ~((newton < a) | (newton > b))
            step = np.where(use_newton, newton, np.sqrt(a * b))
            close = use_newton & ~(np.abs(step - x) > newton_tol)
            done = todo & (close | (b - a <= _NU_XTOL))
        root = np.where(done, step, root)
        todo = todo & ~done
        if not todo.any():
            break
        x = np.where(todo, step, x)
        value, slope = g(np.where(todo, x, np.nan)[:, None])
        fx, dfx = value[:, 0], slope[:, 0]
    root = np.where(todo, x, root)
    return root, bracketed


def _observed_nu_score(s, one_minus_q, p: int):
    """The nu equations sum f^(1 - q) T of B fits, as the g of _bracketed_root.

    f is the density at squared distances s (B, n) and the candidate nu with
    log det sigma taken as 0, which drops a factor free of nu, and with it the
    data's units; d f^(1 - q) / d nu = (1 - q) f^(1 - q) T / 2. A row of nu
    that is all NaN, an accepted root, is dropped before any special function
    sees it, and a NaN nu comes back NaN. A call whose open fits all have
    q = 1 computes no weight.
    """
    s_minus_p = s - p

    def g(nu):
        is_open = ~np.isnan(nu).all(axis=1)
        # a slice leaves s uncopied while every row is open
        rows = slice(None) if is_open.all() else np.flatnonzero(is_open)
        dist, v, tilt = s[rows, None, :], nu[rows, :, None], one_minus_q[rows, None, None]
        plain = not tilt.any()  # q = 1 throughout: the weights f^0 are not computed
        t, weight, shared = _nu_terms(dist, v, p, None if plain else tilt,
                                      s_minus_p=s_minus_p[rows, None, :])
        slope = _nu_slope(dist, v[:, -1:], t[:, -1:], [term[:, -1:] for term in shared], tilt)
        if plain:  # f^0 is 1, but NaN where log f overflowed: there, and only there, T is -inf
            total = np.add.reduce(t, axis=2)
            total = np.where(total == -np.inf, np.nan, total)
        else:  # the products are written over t and the slope, which are not read again
            slope *= weight[:, -1:]
            total = np.add.reduce(np.multiply(t, weight, out=t), axis=2)
        sums = total, np.add.reduce(slope, axis=2)
        if isinstance(rows, slice):
            return sums
        values, slopes = np.full(nu.shape, np.nan), np.full((nu.shape[0], 1), np.nan)
        values[rows], slopes[rows] = sums
        return values, slopes

    return g


def solve_nu_ml(prev: MvtParams, est: EStepQuantities) -> NuSolveResult:
    """The engine's nu solve for one plain fit: the root of sum T = 0 on NU_BRACKET.

    est is e_step at prev; T is taken at est.s and prev's scatter, and the
    search starts from prev.nu. Without a sign change on the bracket the
    endpoint the value's sign points to is returned with bracketed=False.
    """
    return solve_nu_mlq(prev, est, 1.0)


def _step_weights(s, nu, p: int, log_f, q):
    """The location and scatter weights E(U | x) f^(1 - q) of B fits, (B, n).

    s and log_f are the squared distances and log densities at the current
    iterate, nu and q one value per fit (B, 1). The log density is taken
    relative to its largest value over each fit's rows, which keeps the
    factor at most 1 and free of the data's units. Where q = 1 the factor is
    exactly 1, and it is not computed when every fit has q = 1.
    """
    w = _cond_expect_u(s, nu, p)
    if (q == 1.0).all():
        return w
    return w * np.exp((1.0 - q) * (log_f - np.maximum.reduce(log_f, axis=1, keepdims=True)))


def m_step_mlq(data, prev: MvtParams, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Doubly weighted location/scatter update; m_step_ml is its q = 1 case.

    Distances come from the previous iterate. The scatter numerator is
    centered on the updated location and divided by the sum of the w
    weights, not of the v weights of the estimating equation (the PX-EM
    step, with the same fixed point; see the module docstring).
    """
    if not 0.0 < q <= 1.0:
        raise DomainError("q must lie in (0, 1]")
    rows = as_data_matrix(data)
    s = mahalanobis_sq_from_chol(rows, prev.mu, prev.chol_lower)[None]
    log_f = _log_pdf(s, prev.nu, prev.dim, prev.log_det_sigma)
    w = _step_weights(s, prev.nu, prev.dim, log_f, np.array([[q]]))
    return _one_m_step(rows, w[0])


def solve_nu_mlq(prev: MvtParams, est: EStepQuantities, q: float) -> NuSolveResult:
    """The engine's nu solve for one q-weighted fit: the root of sum f^(1 - q) T = 0.

    As solve_nu_ml, with every observation's T multiplied by its density at
    prev's location and scatter raised to (1 - q); the density, hence the
    weight, is re-evaluated at each candidate nu.
    """
    if not 0.0 < q <= 1.0:
        raise DomainError("q must lie in (0, 1]")
    score = _observed_nu_score(est.s[None], np.array([1.0 - q]), prev.dim)
    (nu,), (bracketed,) = _bracketed_root(score, *NU_BRACKET, np.array([prev.nu]))
    if not math.isfinite(nu):
        raise DegenerateData("the nu equation has no root")
    return NuSolveResult(float(nu), bool(bracketed))


def _pack(mu, sigma, nu, upper) -> np.ndarray:
    """B fits' (mu, upper triangle of sigma, nu), one row each: the engine's iterate x."""
    return np.concatenate((mu, sigma[:, upper[0], upper[1]], nu[:, None]), axis=1)


def _norm(rows, with_nu: bool):
    """np.linalg.norm of packed rows, less a held nu's 0: one more entry can regroup numpy's sum."""
    rows = rows if with_nu else rows[:, :-1]
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def _from_upper(tri, upper, p: int) -> np.ndarray:
    """Symmetric (B, p, p) matrices from their packed upper triangles."""
    sigma = np.empty((tri.shape[0], p, p))
    sigma[:, upper[0], upper[1]] = tri
    sigma[:, upper[1], upper[0]] = tri
    return sigma


def _where(mask, new, old):
    """new for the fits (rows) where mask holds, old elsewhere."""
    return np.where(mask.reshape((-1,) + (1,) * (new.ndim - 1)), new, old)


def _distances(columns, mu, sigma):
    """Cholesky factors, log determinants and squared distances of B fits."""
    chol = cholesky_many(sigma)
    return chol, log_det_from_chol(chol), mahalanobis_sq_many(columns, mu, chol)


def _objective(s, log_det, nu, q, p: int):
    """The fits' objectives, sums of lq of the densities at s, and the log densities."""
    log_f = _log_pdf(s, nu[:, None], p, log_det[:, None])
    with np.errstate(over="ignore"):  # _lockstep fails a fit stopping at an inf lq
        return np.add.reduce(_lq(log_f, q[:, None]), axis=1), log_f


class _Fits(NamedTuple):
    """_lockstep's running fits, one row each, replaced and never edited.

    index places a fit among the outcomes, and floor is SPD_FLOOR times its columns' squared
    MADs. x is the iterate in _pack's layout, a held nu included, at which s, log_f and
    objective are taken; moved is the last step (0 in a held nu), and anchor and r are x0 and
    x1 - x0 of the SQUAREM cycle. Before the first evaluation those three have no columns.
    """

    index: np.ndarray
    columns: np.ndarray
    q: np.ndarray
    floor: np.ndarray
    x: np.ndarray
    s: np.ndarray
    log_f: np.ndarray
    objective: np.ndarray
    moved: np.ndarray
    anchor: np.ndarray
    r: np.ndarray

    def take(self, keep) -> _Fits:
        return _Fits(*(value[keep] for value in self))


def _squarem_step(fits: _Fits, upper, with_nu: bool) -> _Fits:
    """The fits at x2 = F(x1) moved to their SQUAREM points x', in a new record.

    The norms of r and v are taken on the anchor's unit-free scale, from its
    diagonal. A fit whose x' fails a check of the module docstring stays at x2.
    with_nu is False where nu is held: x' keeps it, and it may lie off NU_BRACKET.
    """
    p = fits.columns.shape[1]
    root = np.sqrt(fits.anchor[:, p + np.flatnonzero(upper[0] == upper[1])])
    scale = _pack(root, root[:, :, None] * root[:, None, :], np.ones(len(root)), upper)
    v = fits.moved - fits.r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norms = [_norm(d / scale, with_nu) for d in (fits.r, v)]
        alpha = np.minimum(-np.divide(*norms), -1.0)[:, None]
        vec = fits.anchor - 2.0 * alpha * fits.r + alpha * alpha * v
    safe = np.logical_and.reduce(np.isfinite(vec), axis=1)
    if with_nu:
        safe &= (NU_BRACKET[0] <= vec[:, -1]) & (vec[:, -1] <= NU_BRACKET[1])
    # an unsafe point is not measured: its fit is measured at x2, where it stays
    x = _where(safe, vec, fits.x)
    chol, log_det, s = _distances(fits.columns, x[:, :p], _from_upper(x[:, p:-1], upper, p))
    objective, log_f = _objective(s, log_det, x[:, -1], fits.q, p)
    safe &= np.logical_and.reduce(np.isfinite(chol), axis=(1, 2)) & np.isfinite(objective)
    safe &= objective >= fits.objective
    point = fits._replace(x=x, s=s, log_f=log_f, objective=objective)
    return _Fits(*(old if new is old else _where(safe, new, old) for new, old in zip(point, fits)))


FitOutcome = Union[FitResult, DegenerateData]


class _Report(NamedTuple):
    """The engine's outcome of each fit, by fit index.

    failures holds the error that ended each fit, None where it finished. A finished fit's rows
    hold its last iterate x in _pack's layout and what it stopped with; the others stay NaN, 0
    or False. log holds one entry per iteration: the live fits' indices, change norms, objectives.
    """

    failures: list[Optional[DomainError]]
    x: np.ndarray
    chol: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    nu_clamped: np.ndarray
    objective: np.ndarray
    change: np.ndarray
    log: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _lockstep(datasets: Sequence, configs: list[FitConfig]) -> _Report:
    """Run every config on every dataset, all fits in lockstep, and report them in arrays.

    Fit k is config k % len(configs) on dataset k // len(configs); the datasets must have one
    shape, and the configs may differ only in method and q. A dataset with an entry that is not
    finite, that cannot be initialized, or whose centered rows have rank below p fails alone,
    with that error for each config. Every fit carries its own copy of its dataset's sorted
    columns. The running fits are one _Fits record, which each phase replaces.
    """
    if not configs:
        raise DomainError("fit_many needs at least one config")
    if len({_shared_settings(config) for config in configs}) > 1:
        raise DomainError("configs fitted together may differ only in "
                          + ", ".join(_PER_FIT_FIELDS))
    shared, count = configs[0], len(configs)
    matrices = [np.asarray(data, dtype=float) for data in datasets]
    if len({rows.shape for rows in matrices}) > 1:
        raise DimensionMismatch("datasets fitted together must have the same shape")
    failures: list[Optional[DomainError]] = []
    live, means, covariances, columns, spreads = [], [], [], [], []
    for slot, rows in enumerate(matrices):
        try:  # a shape as_data_matrix rejects raises; entries that are not finite fail here
            rows = as_data_matrix(rows)
            first = np.argsort(rows[:, 0])  # the lexicographic order where column 0 has no tie
            lead = rows[first, 0]  # compared, not subtracted: a difference may overflow
            rows = rows[first if (lead[1:] != lead[:-1]).all() else np.lexsort(rows.T[::-1])]
            mu, cov = _moments(rows)
            # rank on the correlation matrix, the unit columns' Gram matrix: free of units
            root = np.sqrt(np.diagonal(cov))
            root = np.where(root > 0.0, root, 1.0)
            if np.linalg.matrix_rank(cov / root / root[:, None], hermitian=True) < len(mu):
                raise DegenerateData(f"the observations span fewer than {len(mu)} dimensions")
        except (DegenerateData, DomainError) as exc:
            failures.extend([exc] * count)
            continue
        failures.extend([None] * count)
        live.append(slot)
        means.append(mu)
        covariances.append(cov)
        columns.append(rows.T)
        spreads.append(np.median(np.abs(rows - np.median(rows, axis=0)), axis=0) ** 2)

    # every dataset reaching here is a non-empty (n, p) matrix: as_data_matrix raises on others
    total, p = len(failures), matrices[0].shape[1] if matrices else 0
    upper = np.triu_indices(p)
    report = _Report(failures, np.full((total, p + len(upper[0]) + 1), np.nan),
                     np.full((total, p, p), np.nan), np.zeros(total, dtype=int),
                     *np.zeros((2, total), dtype=bool), *np.full((2, total), np.nan), [])
    if not live:
        return report
    estimate_nu = shared.fixed_nu is None

    def per_fit(values):
        return np.repeat(np.array(values), count, axis=0)

    # each dataset's start is repaired and measured once, then repeated to its configs
    mu, sigma = np.array(means), _repair_scatter(np.array(covariances))
    _, log_det, s = _distances(np.array(columns), mu, sigma)
    nu = np.full(len(live), 3.0 if estimate_nu else shared.fixed_nu)
    x = _pack(mu, sigma, nu, upper)
    x, columns, log_det, s = (per_fit(v) for v in (x, columns, log_det, s))
    q = np.tile([c.q for c in configs], len(live))
    objective, log_f = _objective(s, log_det, x[:, -1], q, p)
    blank = np.empty((len(x), 0))
    fits = _Fits((np.array(live)[:, None] * count + np.arange(count)).ravel(), columns, q,
                 SPD_FLOOR * per_fit(spreads), x, s, log_f, objective, blank, blank, blank)

    for iteration in range(1, shared.max_iter + 1):
        previous = fits.x
        w = _step_weights(fits.s, previous[:, -1:], p, fits.log_f, fits.q[:, None])
        # a failed fit leaves the batch at the end of this iteration
        mu, sigma, ok = _m_step(fits.columns, w, previous[:, p:-1], upper)
        chol, log_det, s = _distances(fits.columns, mu, sigma)
        nu, bracketed = previous[:, -1], np.ones_like(ok)
        if estimate_nu:
            tol = math.sqrt(_NU_XTOL) if iteration % 3 == 0 else math.inf  # the root from x' only
            root, bracketed = _bracketed_root(_observed_nu_score(s, 1.0 - fits.q, p),
                                              *NU_BRACKET, nu, tol)
            # a score whose weights overflowed has no root: that fit fails
            ok &= np.isfinite(root)
            nu = np.where(ok, root, nu)
        objective, log_f = _objective(s, log_det, nu, fits.q, p)
        ok &= np.logical_and.reduce(np.isfinite(chol), axis=(1, 2))
        # a variance below SPD_FLOOR times its column's squared MAD has collapsed
        collapsed = np.logical_or.reduce(np.diagonal(sigma, axis1=1, axis2=2) < fits.floor, axis=1)
        ok &= ~collapsed
        x = _pack(mu, sigma, nu, upper)
        moved = x - previous
        with np.errstate(over="ignore"):  # an infinite norm is never below epsilon
            change = _norm(moved, estimate_nu)

        converged = change < shared.epsilon
        stop = converged | ~ok | (iteration == shared.max_iter)
        report.log.append((fits.index, change, objective))
        if stop.any():  # no result carries an objective that overflowed
            failed = ~ok | (stop & ~np.isfinite(objective))
            for row in np.flatnonzero(failed).tolist():  # rare: no reason is made for the rest
                failures[fits.index[row]] = DegenerateData(
                    "scatter collapsed" if collapsed[row] else "the objective is not finite"
                    if ok[row] else "weighted update produced non-finite parameters")
            done = stop & ~failed
            at = fits.index[done]
            report.x[at], report.chol[at], report.iterations[at] = x[done], chol[done], iteration
            report.converged[at], report.nu_clamped[at] = converged[done], ~bracketed[done]
            report.objective[at], report.change[at] = objective[done], change[done]
        fits = fits._replace(x=x, s=s, log_f=log_f, objective=objective, moved=moved)
        # every third iteration starts a SQUAREM cycle at the point it leaves
        if iteration % 3 == 1:
            fits = fits._replace(anchor=previous, r=moved)
        if stop.all():
            break
        if stop.any():
            fits = fits.take(~stop)
        if iteration % 3 == 2:
            fits = _squarem_step(fits, upper, estimate_nu)
    return report


def _traces(log, indices: list[int]) -> list[tuple[IterationRecord, ...]]:
    """The traces of the fits at indices, from the engine's log put in one stable argsort."""
    if not indices:
        return []
    index, change, objective = (np.concatenate(column) for column in zip(*log))
    iteration = np.repeat(np.arange(1, len(log) + 1), [len(entry[0]) for entry in log])
    order = np.argsort(index, kind="stable")  # each fit's entries, iteration by iteration
    columns = (v[order].tolist() for v in (iteration, change, objective))
    records = list(map(IterationRecord, *columns))
    starts, ends = np.searchsorted(index[order], [indices, np.add(indices, 1)]).tolist()
    return [tuple(records[start:end]) for start, end in zip(starts, ends)]


def _fit_batch(datasets: Sequence, configs: Sequence[FitConfig]) -> list[list[FitOutcome]]:
    """Run every config on every dataset, all fits in lockstep, and build their results.

    Returns one outcome list per dataset: what fit_many returns for it alone, or the
    DomainError it raises. The engine (_lockstep) reports arrays; each finished fit's
    FitResult is built from them here, and its trace from the engine's log.
    """
    configs = list(configs)
    report = _lockstep(datasets, configs)
    count, outcomes = len(configs), list(report.failures)
    finished = [i for i, failure in enumerate(outcomes) if failure is None]
    x, chol, p = report.x, report.chol, report.chol.shape[1]
    sigma = _from_upper(x[:, p:-1], np.triu_indices(p), p)
    nu, iterations, converged, clamped, objective, change = (column.tolist() for column in (
        x[:, -1], report.iterations, report.converged, report.nu_clamped, report.objective,
        report.change))
    for i, trace in zip(finished, _traces(report.log, finished)):
        config = configs[i % count]
        outcomes[i] = FitResult(  # in FitResult's field order
            MvtParams._from_checked(x[i, :p], sigma[i], nu[i], chol[i]), iterations[i],
            converged[i], trace, objective[i], config.method,
            config.q if config.method == METHOD_MLQ else None, config.fixed_nu is None,
            clamped[i], change[i])
    return [outcomes[k:k + count] for k in range(0, len(outcomes), count)]


def fit_many(data, configs: Sequence[FitConfig]) -> list[FitOutcome]:
    """Run one fit per config on the same data, all in lockstep.

    The configs may differ only in method and q; anything else raises
    DomainError. Returns one entry per config, in order: its FitResult, or
    the DegenerateData error that ended it. Data that cannot be initialized,
    or whose centered rows have rank below the dimension, give that error
    for every config. Hitting max_iter is not an error: the result comes
    back with converged=False and the full trace. Each result is bitwise
    the one the config gets when fitted alone, and the one it gets in a
    batch of several datasets (simulation.run_simulation).
    """
    (outcomes,) = _fit_batch([data], configs)
    if isinstance(outcomes[0], DomainError):
        raise outcomes[0]
    return outcomes


def fit(data, config: FitConfig) -> FitResult:
    """Run the chosen estimator to convergence.

    The single-fit case of fit_many; a fit that fails raises its
    DegenerateData error.
    """
    (outcome,) = fit_many(data, [config])
    if isinstance(outcome, DegenerateData):
        raise outcome
    return outcome
