"""Workloads of the modecount benchmark: inputs, ops and reference checks.

Each workload is a fixed list of ops.  An op is one call into the public
API that produces a checked result: one solve, one realized recipe, or one
direct-plus-reduced solve pair.  ``prepare`` builds the op's inputs afresh
(untimed, so no cached property of an earlier pass is reused), ``call`` is
the timed part, and ``check`` compares the output with a reference that
shares no code with the solver.

The random instances come from a pool seed that is fixed per workload.  The
run's ``--seed`` sets the order of the ops.  It does not redraw the
instances: the solver's time on one heavy 1-d instance swings between 0.7 s
and 3.2 s under a reflection and shift that leave its critical points
unchanged, so instances drawn or re-presented per seed would make the
run-to-run spread wider than any bound worth holding.  ``HELD_OUT_POOL_SEED``
draws fresh instances for checking a claim on inputs it was not tuned on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Traced names are looked up on the package at call time, so the span
# recorder's wrappers see the benchmark's own calls too.
import modecount as mc
from modecount import construct as _construct
from modecount.bounds import mode_bound_from_critical

# The acceptance sweep's seed, so sweep1d solves the criterion-3 instances.
POOL_SEEDS = {"sweep1d": 20260814, "highdim": 6606}
HELD_OUT_POOL_SEED = 31337

SWEEP_SIZE = 100                     # the first 100 criterion-3 instances
HIGHDIM_HET = 4                      # heteroscedastic d = k = 6 instances
HIGHDIM_HOM = ((2, 4), (3, 5))       # (rank, components) of the d = 6 homoscedastic pairs

# Ops that fail their reference check at the commit that introduced the
# benchmark.  They stay in the workload and count in `failed`; `correct`
# turns false only for a failure not listed here.
KNOWN_FAILURES = {
    "witness/simplex_family/d1k6": (
        "reports 9 critical points and 6 modes with morse_inequality_ok = False: "
        "it misses the antimodes near -124.7 and 54.4, yet realize_recipe returns success"
    ),
}

SWEEP_LOCATION_TOL = 1e-6
HOMOSCEDASTIC_LOCATION_TOL = 1e-7


@dataclass
class Op:
    name: str
    prepare: Callable[[], tuple]
    call: Callable[..., dict]
    check: Callable[[dict], list[str]]


# -- report capture ----------------------------------------------------------------


class ReportLog:
    """Keeps every SolveReport that the construct module's solver calls return.

    realize_recipe returns the witness and its provenance but not its
    reports; the witness checks need them.  The wrapper adds one list append
    per solve and is installed in plain and traced runs alike.
    """

    def __init__(self) -> None:
        self.reports: list = []
        self._original = None

    def install(self) -> None:
        self._original = inner = _construct.find_critical_points

        def logged(*args, **kwargs):
            report = inner(*args, **kwargs)
            self.reports.append(report)
            return report

        _construct.find_critical_points = logged

    def uninstall(self) -> None:
        _construct.find_critical_points = self._original


# -- generators (drawn like the test suite's generators) -----------------------------


def _random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


def _random_mixture_1d(rng, k_max=4):
    k = int(rng.integers(2, k_max + 1))
    means = rng.uniform(-5.0, 5.0, size=(k, 1))
    sigmas = rng.uniform(0.3, 2.0, size=k)
    covariances = np.array([[[s ** 2]] for s in sigmas])
    weights = rng.uniform(0.2, 1.0, size=k)
    return weights, means, covariances


def _random_heteroscedastic(rng, d, k):
    means = rng.uniform(-3.0, 3.0, size=(k, d))
    weights = rng.uniform(0.2, 1.0, size=k)
    covs = np.array([_random_spd(rng, d, scale=0.3) for _ in range(k)])
    return weights, means, covs


def _rank_deficient_homoscedastic(rng, d, r, k):
    basis = np.linalg.qr(rng.standard_normal((d, r)))[0]
    means = rng.uniform(-1.0, 1.0, size=d) + 2.5 * rng.standard_normal((k, r)) @ basis.T
    weights = rng.uniform(0.3, 1.0, size=k)
    cov = _random_spd(rng, d, scale=0.2)
    return weights, means, np.broadcast_to(cov, (k, d, d)).copy()


def _fresh(arrays):
    weights, means, covs = arrays
    return (mc.Mixture.from_arrays(weights, means, covs),)


# -- fingerprints and shared checks -------------------------------------------------


def report_fingerprint(report) -> dict:
    return {
        "n_critical": report.n_critical,
        "n_modes": report.n_modes,
        "counts_by_index": {str(i): c for i, c in report.counts_by_index.items()},
        "all_nondegenerate": report.all_nondegenerate,
        "n_starts": report.n_starts,
        "n_converged": report.n_converged,
    }


def _verdict_problems(report) -> list[str]:
    """Morse halving and the upper sandwich, recomputed here and read off the report."""
    problems = []
    d, k = report.mixture.dim, report.mixture.n_components
    if k < 2 or not report.all_nondegenerate:
        return problems
    n, m = report.n_critical, report.n_modes
    c_dm1 = sum(1 for p in report.points if p.morse_index == d - 1)
    if not (m <= (n + 1) // 2 and c_dm1 >= m - 1):
        problems.append(f"Morse halving fails: N={n}, M={m}, C_(d-1)={c_dm1}")
    if not report.morse_inequality_ok:
        problems.append("report flags morse_inequality_ok = False")
    u_best = mc.upper_bound("BEST", d, k)
    if n > int(u_best) or m > int(mode_bound_from_critical(u_best)):
        problems.append(f"upper sandwich fails: N={n}, M={m}, U_best={int(u_best)}")
    if not report.upper_sandwich_ok:
        problems.append("report flags upper_sandwich_ok = False")
    return problems


# -- sweep1d ---------------------------------------------------------------------------


def _log_slope_grid(weights, mu, var, xs):
    """d/dx log Phi on a grid, assembled in the log domain with a max shift."""
    lp = (-0.5 * (xs[None, :] - mu[:, None]) ** 2 / var[:, None]
          - 0.5 * np.log(2.0 * np.pi * var[:, None]) + np.log(weights)[:, None])
    lp -= lp.max(axis=0)
    r = np.exp(lp)
    return (r * (mu[:, None] - xs[None, :]) / var[:, None]).sum(axis=0) / r.sum(axis=0)


def oracle_1d(weights, means, covs, n_grid=20_001) -> np.ndarray:
    """Zeros of the 1-d log-density slope: grid sign changes plus bisection.

    Every critical point of a 1-d mixture is a precision-weighted average of
    the means, so the grid covers [min mu, max mu] with a margin.
    """
    mu, var = means[:, 0], covs[:, 0, 0]
    pad = float(np.sqrt(var.max()))
    xs = np.linspace(mu.min() - pad, mu.max() + pad, n_grid)
    vals = _log_slope_grid(weights, mu, var, xs)
    exact = xs[vals == 0.0]
    idx = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    lo, hi = xs[idx], xs[idx + 1]
    f_lo = vals[idx]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = _log_slope_grid(weights, mu, var, mid)
        left = np.sign(f_mid) == np.sign(f_lo)
        lo, f_lo = np.where(left, mid, lo), np.where(left, f_mid, f_lo)
        hi = np.where(left, hi, mid)
    return np.sort(np.concatenate([exact, 0.5 * (lo + hi)]))


def _sweep_ops(pool_seed: int) -> list[Op]:
    rng = np.random.default_rng(pool_seed)
    ops = []
    for i in range(SWEEP_SIZE):
        arrays = _random_mixture_1d(rng)
        oracle: list[np.ndarray] = []

        def check(out, arrays=arrays, oracle=oracle):
            if not oracle:
                oracle.append(oracle_1d(*arrays))
            expected = oracle[0]
            report = out["reports"][0]
            found = np.sort([float(p.location[0]) for p in report.points])
            if len(found) != len(expected):
                return [f"{len(found)} critical points, oracle finds {len(expected)}"]
            err = float(np.max(np.abs(found - expected))) if len(found) else 0.0
            if err > SWEEP_LOCATION_TOL:
                return [f"location error {err:.2e} exceeds {SWEEP_LOCATION_TOL:.0e}"]
            return []

        ops.append(Op(
            name=f"sweep1d/{i:03d}",
            prepare=lambda arrays=arrays: _fresh(arrays),
            call=lambda m: {"reports": [mc.find_critical_points(m)]},
            check=check,
        ))
    return ops


# -- witness ----------------------------------------------------------------------------

# The recipes that can be built at the commit that introduced the benchmark.
# The list is fixed: builders added later (for the Ray-Ren seeds with d >= 2)
# must not enter this workload, or they would read as a slowdown.
WITNESS_RECIPES = (
    [("simplex_family", d, k) for d in range(1, 7) for k in range(2, 7)]
    + [("ray_ren_family", 1, k) for k in range(2, 7)]
)
FAMILIES = {"simplex_family": mc.simplex_family, "ray_ren_family": mc.ray_ren_family}


def _pair():
    return mc.Mixture.from_arrays([0.5, 0.5], [[-2.0], [2.0]], shared_covariance=np.eye(1))


def _witness_ops(log: ReportLog) -> list[Op]:
    ops = []
    for family_name, d, k in WITNESS_RECIPES:
        family = FAMILIES[family_name]

        def call(d=d, k=k, family=family):
            log.reports.clear()
            value, recipe = mc.seed_closure_bound(d, k, family)
            _, provenance = mc.realize_recipe(recipe)
            return {"reports": [log.reports[-1]], "all_reports": list(log.reports),
                    "value": int(value), "provenance": provenance}

        def check(out):
            problems = []
            if out["provenance"]["verified_modes"] < out["value"]:
                problems.append(f"verified {out['provenance']['verified_modes']} modes "
                                f"< recipe value {out['value']}")
            for report in out["all_reports"]:
                problems += _verdict_problems(report)
            return problems

        ops.append(Op(f"witness/{family_name}/d{d}k{k}", tuple, call, check))

    def product_call():
        return {"reports": [mc.find_critical_points(mc.product(_pair(), _pair()))]}

    def lift_call():
        return {"reports": [mc.find_critical_points(mc.lift(mc.product(_pair(), _pair()), 3))]}

    def nine_and_four(out):
        report = out["reports"][0]
        problems = _verdict_problems(report)
        if (report.n_critical, report.n_modes) != (9, 4):
            problems.append(f"{report.n_critical} critical points and {report.n_modes} modes, "
                            "expected 9 and 4")
        return problems

    ops.append(Op("witness/product_pair_pair", tuple, product_call, nine_and_four))
    ops.append(Op("witness/lift_product_r3", tuple, lift_call, nine_and_four))
    return ops


# -- highdim ----------------------------------------------------------------------------


def _highdim_ops(pool_seed: int) -> list[Op]:
    rng = np.random.default_rng(pool_seed)
    ops = []
    for i in range(HIGHDIM_HET):
        arrays = _random_heteroscedastic(rng, 6, 6)
        ops.append(Op(
            name=f"highdim/het_d6k6_{i}",
            prepare=lambda arrays=arrays: _fresh(arrays),
            call=lambda m: {"reports": [mc.find_critical_points(m)]},
            check=lambda out: _verdict_problems(out["reports"][0]),
        ))
    for r, k in HIGHDIM_HOM:
        arrays = _rank_deficient_homoscedastic(rng, 6, r, k)

        def pair_check(out):
            direct, reduced = out["reports"]
            if (direct.n_critical != reduced.n_critical
                    or direct.counts_by_index != reduced.counts_by_index):
                return [f"direct {direct.counts_by_index} != reduced {reduced.counts_by_index}"]
            a = np.array(sorted(map(tuple, (p.location for p in direct.points))))
            b = np.array(sorted(map(tuple, (p.location for p in reduced.points))))
            gap = float(np.max(np.abs(a - b))) if len(a) else 0.0
            if gap > HOMOSCEDASTIC_LOCATION_TOL:
                return [f"direct and reduced locations differ by {gap:.2e}"]
            return []

        ops.append(Op(
            name=f"highdim/hom_d6r{r}k{k}_pair",
            prepare=lambda arrays=arrays: _fresh(arrays),
            call=lambda m: {"reports": [mc.find_critical_points(m), mc.solve_reduced_homoscedastic(m)]},
            check=pair_check,
        ))
    return ops


def build(workload: str, seed: int, pool_seed: int | None, log: ReportLog) -> list[Op]:
    """The workload's ops in the order the seed gives them."""
    if workload == "sweep1d":
        ops = _sweep_ops(POOL_SEEDS["sweep1d"] if pool_seed is None else pool_seed)
    elif workload == "witness":
        ops = _witness_ops(log)
    elif workload == "highdim":
        ops = _highdim_ops(POOL_SEEDS["highdim"] if pool_seed is None else pool_seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]
