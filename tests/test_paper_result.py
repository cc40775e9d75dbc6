"""The paper's simulation result at paper size, pinned with a fixed seed.

Cases I and II, n = 200 plus 5 outliers, 50 replicates, seed 0, q over
0.80:0.98:0.02. MLq at the selected q beats ML on the combined distance
d_mu + d_sigma + |nu - 3|, replicate by replicate, and its gain is all in
nu: ML's nu is pulled far below the true 3 by the outliers, MLq's much
less. In case I MLq's scatter is the worse one; case II's d_sigma
difference is within noise and is not pinned.
"""

import functools

import numpy as np
import pytest

import robust_t as rt

GRID = tuple(round(0.80 + 0.02 * k, 2) for k in range(10))
REPLICATES = 50


@functools.lru_cache(maxsize=2)
def report(case):
    spec = rt.SimulationSpec(true_params=rt.preset_case(case), n=200,
                             n_replications=REPLICATES, q_grid=GRID, seed=0)
    return rt.run_simulation(spec)


def combined(records):
    return np.array([r.d_mu + r.d_sigma + abs(r.nu - 3.0) for r in records])


CASES = pytest.mark.parametrize("case", [1, 2], ids=["case_i", "case_ii"])


@CASES
def test_every_fit_converges(case):
    assert all(r.converged for r in report(case).records)


@CASES
def test_selected_q_lies_in_the_middle_of_the_grid(case):
    assert GRID[2] <= report(case).selected_q <= GRID[-3]


@CASES
def test_mlq_beats_ml_on_the_paired_combined_distance(case):
    result = report(case)
    slots = 1 + len(GRID)
    selected = 1 + GRID.index(result.selected_q)
    gain = combined(result.records[0::slots]) - combined(result.records[selected::slots])
    assert gain.shape == (REPLICATES,)
    assert np.sum(gain > 0.0) >= 0.9 * REPLICATES
    assert gain.mean() > 10.0 * gain.std(ddof=1) / np.sqrt(REPLICATES)


@CASES
def test_the_gain_is_in_nu(case):
    result = report(case)
    # both below the true 3; the outliers pull ML's much further down
    assert result.ml.mean_nu < result.mlq.mean_nu < 3.0
    assert 3.0 - result.mlq.mean_nu < 0.5 * (3.0 - result.ml.mean_nu)


def test_case_i_scatter_is_worse_for_mlq():
    result = report(1)
    assert result.mlq.mean_d_sigma > result.ml.mean_d_sigma
