#!/usr/bin/env python3
"""Record the reference fixed points that check.reference_problems compares with.

    python3 perfbench/record_reference.py

Run from the root of a source checkout. For every reference input of every
workload this solves the fit to a far tighter epsilon than the workloads
use, so the stored parameters are the fixed point itself, and stores the
converged flag of the fit at the workload's epsilon. Re-record only when an
intended change to the estimator moves its fixed point.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import check
import workloads
from run import HERE, OUT, load_package

TIGHT_EPSILON = 1e-12
TIGHT_MAX_ITER = 50_000


def main() -> int:
    rt = load_package()
    out = {"epsilon": check.EPSILON, "tight_epsilon": TIGHT_EPSILON, "workloads": {}}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in ("paper_sim", "fit_small", "large_fit"):
            wl = workloads.make(name, rt, 0, Path(tmp))
            fits = []
            for data, method, q in wl.reference_inputs():
                tight = rt.fit(data, rt.FitConfig(method=method, q=q, epsilon=TIGHT_EPSILON,
                                                  max_iter=TIGHT_MAX_ITER))
                if not tight.converged:
                    raise SystemExit(f"{name} {method} q={q}: tight fit did not converge")
                flag = rt.fit(data, rt.FitConfig(method=method, q=q)).converged
                fits.append({"method": method, "q": q,
                             "mu": [float(v) for v in tight.params.mu],
                             "sigma": tight.params.sigma.tolist(),
                             "nu": float(tight.params.nu), "converged": bool(flag)})
                print(name, method, q, tight.iterations, file=sys.stderr)
            out["workloads"][name] = fits
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
