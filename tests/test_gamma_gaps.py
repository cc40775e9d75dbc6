"""log_gamma, digamma and gamma_gaps against 40-digit mpmath values."""

import mpmath
import numpy as np
import pytest

from robust_t.special import digamma, gamma_gaps, log_gamma

EPS = np.finfo(float).eps
NU = np.concatenate([np.geomspace(0.1, 200.0, 60), np.linspace(0.1, 200.0, 60)])
MP_F = (mpmath.loggamma, mpmath.digamma, lambda z: mpmath.psi(1, z))


def reference(f, x, shift=0):
    """f at each float x plus shift/2, to 40 digits."""
    with mpmath.workdps(40):
        return [f(mpmath.mpf(float(v)) + mpmath.mpf(shift) / 2) for v in x]


@pytest.mark.parametrize("name,ours,mp", [("log_gamma", log_gamma, MP_F[0]),
                                          ("digamma", digamma, MP_F[1])])
def test_functions_within_8_eps(name, ours, mp):
    x = np.concatenate([0.5 * NU, 0.5 * (NU + 5.0), np.geomspace(0.05, 1e6, 60)])
    exact = reference(mp, x)
    got = ours(x)
    for v, g, e in zip(x, got, exact):
        assert abs(g - float(e)) <= 8 * EPS * max(1.0, abs(float(e))), (name, v)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
def test_gaps_within_8_eps_of_the_function_values(p):
    x = 0.5 * NU
    for k, (gap, mp) in enumerate(zip(gamma_gaps(x, p), MP_F)):
        below, above = reference(mp, x), reference(mp, x, p)
        for v, g, a, b in zip(x, gap, below, above):
            scale = max(1.0, abs(float(a)), abs(float(b)))
            assert abs(g - float(b - a)) <= 8 * EPS * scale, (k, v)
            if p % 2 == 0:
                assert abs(g - float(b - a)) <= 4 * EPS * max(1.0, abs(float(b - a))), (k, v)


def test_gaps_keep_the_shape_of_x():
    x = np.full((4, 3, 1), 1.5)
    for p in (1, 2, 3, 10):
        assert [gap.shape for gap in gamma_gaps(x, p)] == [x.shape] * 3
        assert [np.shape(gap) for gap in gamma_gaps(1.5, p)] == [()] * 3


@pytest.mark.parametrize("p", [1, 2, 3, 5, 10, 20])
def test_each_value_gets_the_gaps_it_gets_alone(p):
    # a fit's result must not depend on what else its batch holds
    x = np.concatenate([0.5 * NU, np.random.default_rng(p).uniform(0.05, 100.0, 97)])
    whole = gamma_gaps(x, p)
    block = gamma_gaps(np.tile(x, (3, 1)), p)
    for i in range(len(x)):
        for gap, in_block, alone in zip(whole, block, gamma_gaps(x[i:i + 1], p)):
            assert gap[i] == alone[0] == in_block[2, i], (p, x[i])
    digammas = digamma(x)
    assert all(digammas[i] == digamma(x[i:i + 1])[0] for i in range(len(x)))
