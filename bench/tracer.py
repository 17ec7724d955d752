"""Outside-in span recorder for the traced benchmark run.

The recorder replaces each traced public name with a timing wrapper in
every ``modecount`` module namespace that binds it (methods are wrapped on
their class), so calls made inside the library are timed as well as calls
made by the benchmark.  Nothing in the library itself is changed.

Spans are kept in memory as one aggregate per call path: the path names
the span and every open span that caused it, and each op of the run gets
its own set of paths.  Per path the recorder keeps the call count, the
total time and the self time (total minus the time covered by child
spans).  ``write`` dumps the aggregates when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module whose namespace defines it, attribute path).  A dotted
# attribute path is a method on a class; the wrapper goes on the class.
SPANS = (
    ("mixture.log_component_terms", "modecount.mixture", "Mixture.log_component_terms"),
    ("mixture.relative_derivatives", "modecount.mixture", "Mixture.relative_derivatives"),
    ("mixture.responsibilities", "modecount.mixture", "Mixture.responsibilities"),
    ("mixture.log_density", "modecount.mixture", "Mixture.log_density"),
    ("solver.find_critical_points", "modecount.solver", "find_critical_points"),
    ("solver.solve_reduced_homoscedastic", "modecount.solver", "solve_reduced_homoscedastic"),
    ("solver.mean_shift_step", "modecount.solver", "mean_shift_step"),
    ("solver.build_reduced", "modecount.solver", "build_reduced"),
    ("construct.realize_recipe", "modecount.construct", "realize_recipe"),
    ("construct.pad_remote", "modecount.construct", "pad_remote"),
    ("construct.tilt_polish", "modecount.construct", "tilt_polish"),
    ("construct.product", "modecount.construct", "product"),
    ("construct.lift", "modecount.construct", "lift"),
    ("construct.simplex_seed", "modecount.construct", "simplex_seed"),
    ("bounds.seed_closure_bound", "modecount.bounds", "seed_closure_bound"),
    ("bounds.upper_bound", "modecount.bounds", "upper_bound"),
    # the dependency, traced where the library binds it
    ("scipy.logsumexp", "modecount.mixture", "logsumexp"),
    ("scipy.logsumexp", "modecount.solver", "logsumexp"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))


class SpanRecorder:
    """Wraps the names in SPANS and aggregates their spans per op and call path."""

    def __init__(self) -> None:
        self.op = None
        self._stack: list[list] = []         # open spans: [path, start, child time]
        self._paths: dict = defaultdict(lambda: [0, 0.0, 0.0])   # (op, path) -> calls, total, self
        self._undo: list[tuple] = []
        self.missing: list[str] = []
        self.wrapped_calls = 0
        # summed over every SolveReport that find_critical_points returns
        self.starts = self.converged = self.points = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for name, module_name, attr in SPANS:
            module = sys.modules.get(module_name)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if original in wrappers.values():
                continue                     # rebound by an earlier entry
            if owner:
                self._replace(holder, leaf, self._wrap(name, original))
                continue
            # a free function: rebind it wherever modecount binds the same object
            wrapper = wrappers.setdefault(id(original), self._wrap(name, original))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "modecount" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def _replace(self, holder, key, wrapper) -> None:
        self._undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def _wrap(self, name, fn):
        stack = self._stack
        paths = self._paths
        clock = time.perf_counter
        is_solver = name == "solver.find_critical_points"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:                  # outside an op's timed call
                return fn(*args, **kwargs)
            path = (stack[-1][0] + (name,)) if stack else (name,)
            frame = [path, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if is_solver:
                    self.starts += result.n_starts
                    self.converged += result.n_converged
                    self.points += result.n_critical
                return result
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += elapsed
                agg = paths[(self.op, path)]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[2]
                self.wrapped_calls += 1

        return traced

    # -- results ------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name, summed over ops and call paths."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for (_, path), (calls, _, self_time) in self._paths.items():
            out[path[-1]]["calls"] += calls
            out[path[-1]]["self_s"] += self_time
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write the per-op call-path aggregates as JSON."""
        records = [
            {"op": op, "path": list(p), "calls": c, "total_s": t, "self_s": s}
            for (op, p), (c, t, s) in sorted(self._paths.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "missing": self.missing, "paths": records}, indent=1))


def wrapper_cost_s(samples: int = 20000) -> float:
    """Seconds one traced call adds, measured on a no-op function.

    Multiplied by the traced call count this estimates the tracing overhead
    inside the traced run; the plain run of the same workload and seed gives
    the measured overhead.
    """
    def noop():
        return None

    recorder = SpanRecorder()
    recorder.op = "calibration"
    traced = recorder._wrap("noop", noop)
    best_plain = best_traced = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            traced()
        t2 = time.perf_counter()
        best_plain = min(best_plain, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
    return max(best_traced - best_plain, 0.0) / samples
