"""tools/parity.py's comparer on synthetic fit outcomes; no revision is exported."""

import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
_SPEC = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)


def finished(method, nu, iterations=10, converged=True, clamped=False, mu=(0.0, 0.0)):
    return {"method": method, "failure": None, "iterations": iterations,
            "converged": converged, "nu_clamped": clamped, "mu": np.array(mu),
            "sigma": np.eye(2), "nu": nu}


def failed(method, message="scatter collapsed"):
    return {"method": method, "failure": message}


def test_compare_counts_each_kind_of_difference():
    parent = [finished("ml", 3.0), finished("mlq", 4.0), finished("mlq", 5.0),
              finished("mlq", 6.0), failed("mlq"), finished("ml", 2.0)]
    change = [finished("ml", 3.0),                          # bitwise the same
              finished("mlq", 4.0 + 1e-13, mu=(2e-14, 0.0)),  # moved by rounding
              finished("mlq", 5.0, iterations=11),          # one more iteration
              finished("mlq", 6.0, converged=False, clamped=True),
              failed("mlq"),                                # fails on both sides
              failed("ml", "weighted update produced non-finite parameters")]
    summary = parity.compare(parent, change)
    assert summary["fits"] == 6
    assert summary["failures"] == {"parent": 1, "change": 2}
    assert summary["failure_mismatches"] == 1
    assert summary["iteration_mismatches"] == 1
    assert summary["flag_mismatches"] == 1
    assert summary["fits_by_method"] == {"ml": 1, "mlq": 3}
    assert summary["bitwise_equal_by_method"] == {"ml": 1, "mlq": 2}
    assert summary["max_abs_d_mu"] == 2e-14
    assert summary["max_abs_d_sigma"] == 0.0
    assert summary["max_abs_d_nu"] == abs(4.0 + 1e-13 - 4.0)



def test_iterations_and_unconverged_fits_by_method_and_side():
    parent = [finished("ml", 3.0, iterations=10), finished("mlq", 4.0, iterations=12),
              finished("mlq", 5.0, iterations=15, converged=False), failed("mlq")]
    change = [finished("ml", 3.0, iterations=11), finished("mlq", 4.0, iterations=11),
              finished("mlq", 5.0, iterations=14), finished("mlq", 6.0, iterations=20,
                                                            converged=False)]
    summary = parity.compare(parent, change)
    # each side's own finished fits, so the fit the parent failed counts for the change only
    assert summary["mean_iterations_by_method"] == {
        "ml": {"parent": 10.0, "change": 11.0},
        "mlq": {"parent": 13.5, "change": 15.0},
    }
    assert summary["unconverged_by_method"] == {
        "ml": {"parent": 0, "change": 0},
        "mlq": {"parent": 1, "change": 1},
    }


def test_a_method_that_one_side_never_finished_has_no_mean_there():
    summary = parity.compare([failed("mlq")], [finished("mlq", 4.0, iterations=9)])
    assert summary["mean_iterations_by_method"] == {"mlq": {"parent": None, "change": 9.0}}
    assert summary["unconverged_by_method"] == {"mlq": {"parent": 0, "change": 0}}
