"""Where MLq loses to ML and where it wins, pinned with a fixed seed.

Case I, n = 200, 50 replicates, seed 0, q over 0.70:0.98:0.02, with 0 or 20
outliers at 80-160 sd. The gain is ML's minus MLq's combined distance
d_mu + d_sigma + |nu - 3|, replicate by replicate, so a positive gain favours
MLq; its thresholds are in paired standard errors. On clean data MLq's
downweighting only costs: at a fixed q < 1 it is not consistent, and at the
paper's q = 0.9 it loses to ML, while the q nearest the truth is the top of
the grid. With 20 outliers the best q lies below 0.9, and MLq wins there,
with a scatter no worse than ML's: its weighted step keeps it off the
outliers.
"""

import functools
import math

import numpy as np

import robust_t as rt

GRID = tuple(round(0.70 + 0.02 * k, 2) for k in range(15))
REPLICATES = 50


@functools.lru_cache(maxsize=2)
def report(n_outliers):
    spec = rt.SimulationSpec(true_params=rt.preset_case(1), n=200, n_outliers=n_outliers,
                             n_replications=REPLICATES, q_grid=GRID, seed=0)
    return rt.run_simulation(spec)


def combined(record):
    return record.d_mu + record.d_sigma + abs(record.nu - 3.0)


def paired_gain(result, q, distance=combined):
    """The mean gain of MLq at q over ML on distance, and its paired standard error."""
    slots = 1 + len(GRID)
    pairs = zip(result.records[0::slots], result.records[1 + GRID.index(q)::slots])
    gain = np.array([distance(ml) - distance(mlq) for ml, mlq in pairs])
    assert gain.shape == (REPLICATES,) and np.isfinite(gain).all()
    return gain.mean(), gain.std(ddof=1) / math.sqrt(REPLICATES)


def test_on_clean_data_mlq_at_the_papers_q_loses_to_ml():
    mean, se = paired_gain(report(0), 0.9)
    assert mean < -5.0 * se


def test_on_clean_data_the_best_q_is_the_top_of_the_grid():
    assert report(0).selected_q == GRID[-1]


def test_with_20_outliers_the_best_q_lies_below_the_papers_and_wins():
    result = report(20)
    assert result.selected_q <= 0.88
    mean, se = paired_gain(result, result.selected_q)
    assert mean > 10.0 * se


def test_with_20_outliers_mlq_at_the_best_q_has_no_worse_a_scatter():
    result = report(20)
    mean, se = paired_gain(result, result.selected_q, lambda record: record.d_sigma)
    assert mean > -3.0 * se
