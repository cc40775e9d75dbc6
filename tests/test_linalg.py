import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robust_t.errors import DimensionMismatch, NotPositiveDefinite
from robust_t.linalg import (
    cholesky_lower,
    cholesky_many,
    log_det_from_chol,
    mahalanobis_sq_from_chol,
    spd_repair,
    spd_shift_many,
    symmetrize,
)

CASE_II_SIGMA = np.array([[2.0, -0.5], [-0.5, 2.0]])


def log_det(m):
    return log_det_from_chol(cholesky_lower(m))


def mahalanobis_sq(x, mu, sigma):
    return mahalanobis_sq_from_chol(x, mu, cholesky_lower(sigma))[0]


class TestCholesky:
    def test_identity(self):
        L = cholesky_lower(np.eye(2))
        assert np.array_equal(L, np.eye(2))

    def test_case_ii_matrix_by_hand(self):
        # hand elimination: L11 = sqrt(2), L21 = -0.5/sqrt(2), L22 = sqrt(2 - 0.125)
        L = cholesky_lower(CASE_II_SIGMA)
        assert L[0, 0] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert L[1, 0] == pytest.approx(-0.5 / math.sqrt(2.0), abs=1e-15)
        assert L[1, 1] == pytest.approx(math.sqrt(1.875), abs=1e-15)
        assert L[0, 1] == 0.0

    def test_indefinite_raises(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatch):
            cholesky_lower(np.ones((2, 3)))


    def test_stack_with_failing_matrices(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 3, 3))
        stack = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3)
        stack[[2, 3, 6]] = -np.eye(3)
        stack[5, 0, 0] = np.nan
        got = cholesky_many(stack)
        for b, m in enumerate(stack):
            if b in (2, 3, 6):
                assert np.isnan(got[b]).all()
            else:
                assert np.array_equal(got[b], np.linalg.cholesky(m), equal_nan=True)
        assert not np.isfinite(got[5]).all()


class TestLogDet:
    def test_identity(self):
        assert log_det(np.eye(3)) == 0.0

    def test_diagonal(self):
        assert log_det(np.diag([2.0, 2.0])) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)

    def test_case_ii_cofactor(self):
        # det = 2*2 - (-0.5)^2 = 3.75
        assert log_det(CASE_II_SIGMA) == pytest.approx(math.log(3.75), rel=1e-14)


class TestMahalanobis:
    def test_zero_at_center(self):
        mu = np.array([1.5, -2.0])
        assert mahalanobis_sq(mu, mu, CASE_II_SIGMA) == 0.0

    def test_identity_is_euclidean(self):
        x = np.array([3.0, -1.0, 2.0])
        mu = np.array([1.0, 1.0, 1.0])
        assert mahalanobis_sq(x, mu, np.eye(3)) == pytest.approx(
            float(np.sum((x - mu) ** 2)), rel=1e-14
        )

    def test_case_ii_hand_inverse(self):
        # inverse of the 2x2 by cofactors: (sigma^-1)_11 = 2/3.75
        s = mahalanobis_sq(np.array([1.0, 0.0]), np.zeros(2), CASE_II_SIGMA)
        assert s == pytest.approx(2.0 / 3.75, rel=1e-14)

    def test_rows_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(7, 2))
        mu = np.array([0.3, -0.1])
        s = mahalanobis_sq_from_chol(rows, mu, cholesky_lower(CASE_II_SIGMA))
        for i in range(7):
            assert s[i] == pytest.approx(mahalanobis_sq(rows[i], mu, CASE_II_SIGMA), rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mahalanobis_sq(np.ones(3), np.ones(2), CASE_II_SIGMA)

    @pytest.mark.parametrize("p", [3, 5, 10])
    def test_bitwise_the_same_for_either_memory_order(self, p):
        # coordinates from the third on are one BLAS product each, which must see
        # one layout whatever the order of the rows in memory
        rng = np.random.default_rng(p)
        rows = rng.standard_t(3.0, size=(500, p))
        a = rng.standard_normal((p, p))
        chol, mu = cholesky_lower(a @ a.T + np.eye(p)), rng.standard_normal(p)
        want = mahalanobis_sq_from_chol(rows, mu, chol)
        assert np.array_equal(mahalanobis_sq_from_chol(np.asfortranarray(rows), mu, chol), want)


class TestSpdRepair:
    def test_spd_input_unchanged(self):
        out = spd_repair(CASE_II_SIGMA, floor=1e-10)
        assert np.array_equal(out, CASE_II_SIGMA)

    def test_indefinite_2x2_shifted_to_floor(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1, analytic for p=2
        out = spd_repair(np.array([[1.0, 2.0], [2.0, 1.0]]), floor=1e-8)
        lam = np.linalg.eigvalsh(out)  # oracle
        assert lam[0] == pytest.approx(1e-8, abs=1e-14)

    def test_asymmetric_input_symmetrized(self):
        m = np.array([[2.0, 1.0], [0.0, 2.0]])
        out = spd_repair(m, floor=1e-10)
        assert np.array_equal(out, symmetrize(m))

    def test_bisection_path_indefinite_4x4(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4))
        m = symmetrize(a @ a.T - 2.0 * np.eye(4))
        assert np.linalg.eigvalsh(m)[0] < 0  # oracle precondition
        out = spd_repair(m, floor=1e-8)
        lam_min = np.linalg.eigvalsh(out)[0]
        assert lam_min >= 1e-8 * (1 - 1e-9)
        # shift never overshoots the needed amount by more than the bisection gap
        assert lam_min <= 1e-8 + 1e-10 + 1e-13 * np.max(np.abs(m))

    def test_near_singular_2x2_stack_reaches_the_floor(self):
        # the closed form cancels on these; without an error margin some land below the floor
        rng = np.random.default_rng(7)
        count = 2000
        angle = rng.uniform(0.0, np.pi, count)
        cos, sin = np.cos(angle), np.sin(angle)
        rotation = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)
        lam = np.stack([rng.choice([-1e-6, -1e-11, 0.0, 1e-13, 1e-9], count),
                        rng.uniform(-1.0, 1.0, count)], -1) * 10.0 ** rng.uniform(-3, 3, (count, 1))
        stack = rotation @ (lam[:, :, None] * np.eye(2)) @ rotation.transpose(0, 2, 1)
        stack = 0.5 * (stack + stack.transpose(0, 2, 1))
        for floor in (1e-10, 1e-6, 1e-2):
            out = stack + spd_shift_many(stack, floor)[:, None, None] * np.eye(2)
            assert np.all(np.linalg.eigvalsh(out)[:, 0] >= floor * (1 - 1e-9))

    def test_spd_4x4_fast_path_unchanged(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        m = symmetrize(a @ a.T + np.eye(4))
        assert np.array_equal(spd_repair(m, floor=1e-10), m)


@st.composite
def spd_and_vectors(draw, max_dim=6):
    p = draw(st.integers(min_value=1, max_value=max_dim))
    a = draw(arrays(np.float64, (p, p), elements=st.floats(-2.0, 2.0, allow_nan=False)))
    m = a @ a.T + 0.5 * np.eye(p)
    x = draw(arrays(np.float64, (p,), elements=st.floats(-5.0, 5.0, allow_nan=False)))
    mu = draw(arrays(np.float64, (p,), elements=st.floats(-5.0, 5.0, allow_nan=False)))
    t = draw(arrays(np.float64, (p, p), elements=st.floats(-1.5, 1.5, allow_nan=False)))
    b = draw(arrays(np.float64, (p,), elements=st.floats(-3.0, 3.0, allow_nan=False)))
    return m, x, mu, t, b


@st.composite
def symmetric_near_floor(draw):
    """A symmetric p x p matrix, p = 2..6, indefinite or near-singular, and a floor.

    The eigenvalues are drawn around zero on a common scale and the matrix
    is rotated by a random orthogonal factor, so the smallest one lands
    below, at or just above the floor.
    """
    p = draw(st.integers(min_value=2, max_value=6))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    floor = 10.0 ** draw(st.floats(-10.0, -2.0))
    lam = draw(arrays(np.float64, (p,), elements=st.floats(-1.0, 1.0)))
    lam[0] = draw(st.sampled_from([-1.0, -1e-6, -1e-11, 0.0, 1e-13, 1e-9]))
    rotation, _ = np.linalg.qr(draw(arrays(np.float64, (p, p), elements=st.floats(-1.0, 1.0))))
    return symmetrize(rotation @ np.diag(lam * scale) @ rotation.T), floor


class TestProperties:
    @given(symmetric_near_floor())
    @settings(max_examples=200, deadline=None)
    def test_spd_repair_floor(self, bundle):
        m, floor = bundle
        out = spd_repair(m, floor=floor)
        assert np.linalg.eigvalsh(out)[0] >= floor * (1 - 1e-9)

    @given(spd_and_vectors(), st.floats(-10.0, -2.0))
    @settings(max_examples=50, deadline=None)
    def test_spd_repair_leaves_spd_input_unchanged(self, bundle, log_floor):
        # the smallest eigenvalue of m is at least 0.5, far above the floor
        m = symmetrize(bundle[0])
        assert np.array_equal(spd_repair(m, floor=10.0 ** log_floor), m)

    @given(spd_and_vectors())
    @settings(max_examples=50, deadline=None)
    def test_cholesky_roundtrip(self, bundle):
        m = bundle[0]
        L = cholesky_lower(m)
        rel = np.linalg.norm(L @ L.T - m) / np.linalg.norm(m)
        assert rel < 1e-12

    @given(spd_and_vectors())
    @settings(max_examples=50, deadline=None)
    def test_mahalanobis_affine_invariance(self, bundle):
        m, x, mu, t, b = bundle
        a = t + 2.0 * np.eye(m.shape[0])
        assume(abs(np.linalg.det(a)) > 0.2)
        assume(np.linalg.cond(a) < 50)
        s0 = mahalanobis_sq(x, mu, m)
        s1 = mahalanobis_sq(a @ x + b, a @ mu + b, a @ m @ a.T)
        assert s1 == pytest.approx(s0, rel=1e-10, abs=1e-10)

    @given(spd_and_vectors())
    @settings(max_examples=50, deadline=None)
    def test_log_det_affine(self, bundle):
        m, _, _, t, _ = bundle
        a = t + 2.0 * np.eye(m.shape[0])
        assume(abs(np.linalg.det(a)) > 0.2)
        assume(np.linalg.cond(a) < 50)
        lhs = log_det(a @ m @ a.T)
        rhs = log_det(m) + 2.0 * math.log(abs(np.linalg.det(a)))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)
