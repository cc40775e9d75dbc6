"""Per-layer tracing of the robust_t package from outside it.

A traced run wraps the public functions of each module (HOOKS) and replaces
every robust_t.* module attribute bound to one of them, so calls made
through any import path are seen; the originals are put back in a
`finally`. Each call records a span (name, start, end, parent span, fit id)
in typed arrays kept in memory and written out at the end.
A hook whose function no longer exists is reported as absent.

Spans are recorded in the process that calls the function. Workers of a
process pool record into their own copies, so traced metrics of a pooled
simulation cover the parent process only.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (module under robust_t, function): one span per call, named "module.function".
HOOKS = (
    ("special", "log_gamma"),
    ("special", "digamma"),
    ("linalg", "cholesky_lower"),
    ("linalg", "mahalanobis_sq_from_chol"),
    ("linalg", "spd_repair"),
    ("tdist", "log_pdf_rows"),
    ("tdist", "cond_expect_u"),
    ("tdist", "cond_expect_log_u"),
    ("estimators", "fit"),
    ("estimators", "init_params"),
    ("estimators", "e_step"),
    ("estimators", "m_step_ml"),
    ("estimators", "m_step_mlq"),
    ("estimators", "solve_nu_ml"),
    ("estimators", "solve_nu_mlq"),
    ("simulation", "run_simulation"),
    ("simulation", "generate_replicate"),
    ("cli", "main"),
    ("cli", "read_matrix_csv"),
)
# The bracketed root finder the nu solves share: its score argument is
# wrapped to count evaluations, without a span.
SCORE_HOOK = ("estimators", "_bracketed_root")
# The pool run_simulation uses for jobs > 1: time spent blocked on its
# results and its shutdown is recorded as "simulation.wait" spans.
POOL_HOOK = ("simulation", "ProcessPoolExecutor")
WAIT_SPAN = "simulation.wait"


class Tracer:
    """Span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.fit_id = array("i")
        self._stack: list[int] = []
        self._fit = [-1, 0]  # current fit id, fits started
        self.absent: list[str] = []
        self.iterations: list[int] = []
        self.nu_solves = 0
        self.nu_bracketed = 0
        self.score_evals = 0
        self.spd_repairs_shifted = 0
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str):
        """Context-free span recorder: returns (open, close) callables."""
        nid = self._name_id(name)
        stack, fit = self._stack, self._fit
        start, end, parent, fit_id, name_ix = (self.start, self.end, self.parent,
                                                self.fit_id, self.name_ix)

        def open_span() -> int:
            idx = len(start)
            name_ix.append(nid)
            parent.append(stack[-1] if stack else -1)
            fit_id.append(fit[0])
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            return idx

        def close_span(idx: int):
            end[idx] = perf_counter_ns()
            stack.pop()

        return open_span, close_span

    def wrap(self, name: str, fn, after=None):
        open_span, close_span = self.span(name)
        is_fit = name == "estimators.fit"
        fit = self._fit

        def traced(*args, **kwargs):
            if is_fit:
                outer = fit[0]
                fit[0] = fit[1]
                fit[1] += 1
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
                if is_fit:
                    fit[0] = outer
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # Observers run after a span closes, so their cost lands in the caller.
    def _after_fit(self, args, kwargs, result):
        self.iterations.append(int(result.iterations))

    def _after_nu_solve(self, args, kwargs, result):
        self.nu_solves += 1
        self.nu_bracketed += bool(result.bracketed)

    def _after_spd_repair(self, args, kwargs, result):
        m = np.asarray(args[0] if args else kwargs["m"], dtype=float)
        self.spd_repairs_shifted += not np.array_equal(result, 0.5 * (m + m.T))

    def _count_scores(self, fn):
        tracer = self

        def root(g, *args, **kwargs):
            def counted(x):
                tracer.score_evals += 1
                return g(x)
            return fn(counted, *args, **kwargs)

        return functools.update_wrapper(root, fn)

    def _timed_pool(self, pool_cls):
        open_span, close_span = self.span(WAIT_SPAN)

        def waited(call):
            idx = open_span()
            try:
                return call()
            finally:
                close_span(idx)

        class TimedPool(pool_cls):
            def map(self, *args, **kwargs):
                results = super().map(*args, **kwargs)

                def drain():
                    while True:
                        try:
                            yield waited(lambda: next(results))
                        except StopIteration:
                            return
                return drain()

            def shutdown(self, *args, **kwargs):
                return waited(lambda: super(TimedPool, self).shutdown(*args, **kwargs))

        TimedPool.__name__ = TimedPool.__qualname__ = pool_cls.__name__
        return TimedPool

    def install(self):
        """Patch every robust_t.* attribute bound to a hooked function."""
        observers = {
            "estimators.fit": self._after_fit,
            "estimators.solve_nu_ml": self._after_nu_solve,
            "estimators.solve_nu_mlq": self._after_nu_solve,
            "linalg.spd_repair": self._after_spd_repair,
        }
        replacements = []
        for module, attr in HOOKS:
            name = f"{module}.{attr}"
            original = _lookup(module, attr)
            if original is None:
                self.absent.append(name)
                continue
            replacements.append((original, self.wrap(name, original, observers.get(name))))
        for (module, attr), make in ((SCORE_HOOK, self._count_scores),
                                     (POOL_HOOK, self._timed_pool)):
            original = _lookup(module, attr)
            if original is None:
                self.absent.append(f"{module}.{attr}")
            else:
                replacements.append((original, make(original)))
        for original, wrapper in replacements:
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name_ix, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "fit_id": np.frombuffer(self.fit_id, dtype=np.int32).copy(),
        }

    def metrics(self) -> dict:
        """Per-layer calls and self seconds, plus the boundary counters."""
        spans = self.arrays()
        self_ns = self_times(spans["start_ns"], spans["end_ns"], spans["parent"])
        per_name_s = np.bincount(spans["name"], weights=self_ns,
                                 minlength=len(self.names)) / 1e9
        calls = np.bincount(spans["name"], minlength=len(self.names))
        out = {}
        for module, attr in HOOKS:
            name = f"{module}.{attr}"
            if name in self.names:
                i = self.names.index(name)
                out[f"{name}.calls"] = int(calls[i])
                out[f"{name}.self_s"] = float(per_name_s[i])
            else:
                out[f"{name}.calls"] = 0
                out[f"{name}.self_s"] = 0.0
        wait = WAIT_SPAN in self.names
        out["simulation.wait_s"] = float(per_name_s[self.names.index(WAIT_SPAN)]) if wait else 0.0
        out["linalg.spd_repair.shifted"] = self.spd_repairs_shifted
        solves = max(self.nu_solves, 1)
        out["estimators.nu_solve.score_evals_per_solve"] = self.score_evals / solves
        out["estimators.nu_solve.bracketed_frac"] = self.nu_bracketed / solves
        its = self.iterations or [0]
        out["estimators.iterations_per_fit.mean"] = float(np.mean(its))
        out["estimators.iterations_per_fit.max"] = int(np.max(its))
        out["trace.spans"] = len(self.start)
        out["trace.hooks_absent"] = len(self.absent)
        return out


def _lookup(module: str, attr: str):
    try:
        mod = importlib.import_module(f"robust_t.{module}")
    except ImportError:
        return None
    value = getattr(mod, attr, None)
    return value if callable(value) else None


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "robust_t" or name.startswith("robust_t."))]


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it covered by its child spans.

    Children are clipped to their parent's interval and overlapping children
    count once, so the result is exact for any span tree.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    child = np.flatnonzero(parent >= 0)
    if child.size == 0:
        return own.astype(float)
    par = parent[child]
    lo = np.maximum(start[child], start[par])
    hi = np.minimum(end[child], end[par])
    order = np.lexsort((lo, par))
    par, lo, hi = par[order], lo[order], hi[order]
    # Running max of earlier siblings' ends, restarted at each parent: shift
    # each parent's group above the previous one so one accumulate suffices.
    base = int(min(lo.min(), start.min()))
    width = int(max(hi.max(), end.max())) - base + 1
    group = np.cumsum(np.r_[0, par[1:] != par[:-1]])
    shifted = (hi - base) + group * width
    reach = np.maximum.accumulate(shifted)
    prev = np.r_[-1, reach[:-1]] - group * width + base
    first = np.r_[True, par[1:] != par[:-1]]
    prev = np.where(first, lo, np.maximum(prev, lo))
    covered = np.clip(hi - prev, 0, None)
    return (own - np.bincount(par, weights=covered, minlength=own.size)).astype(float)
