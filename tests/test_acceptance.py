"""Acceptance gate: ten criteria, one printed verdict line each.

Heavy artifacts (the 200-instance oracle sweep, the simplex and product
reports, the homoscedastic pairs) are module-scoped fixtures shared by the
criteria that reuse them, so each expensive solve runs once.

Criterion 4 reads the raw reduced-system residual, which the solver takes
in the chart of each point's dominant component, so it stays small even at
critical points whose density ratios against the report's reference are
huge.  Criterion 6 compares each simplex seed with the mode count it claims
from its ray equation: the 3-component seed at epsilon = 0.1 sits past its
fold and claims the single center mode.
"""

import time

import numpy as np
import pytest

from modecount import (
    Mixture,
    PaddingSpec,
    find_critical_points,
    lift,
    lower_bound,
    pad_remote,
    product,
    radial_critical_roots,
    ray_ren_family,
    seed_closure_bound,
    simplex_seed,
    solve_reduced_homoscedastic,
    upper_bound,
)
from modecount.bounds import (
    GENERAL_ROWS,
    HOM_ROWS,
    aim_conjecture,
    crossover_dimension,
)

from conftest import (
    oracle_critical_points_1d,
    oracle_critical_points_nd,
    random_mixture_1d,
    random_spd,
)
from test_bounds import D_AEH, D_PP, D_STAR, GENERAL_TABLE, HOM_TABLE, LOWER_TABLE

SWEEP_SEED = 20260814


def announce(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- shared heavy artifacts ---------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    """Criterion 3 instances: 200 random 1-d mixtures with solver and oracle output."""
    rng = np.random.default_rng(SWEEP_SEED)
    t0 = time.perf_counter()
    instances = []
    for _ in range(200):
        m = random_mixture_1d(rng)
        report = find_critical_points(m)
        oracle = oracle_critical_points_1d(m)
        instances.append((m, report, oracle))
    return {"instances": instances, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def simplex_data():
    """Criterion 6 artifacts: simplex seeds at epsilon = 0.1 for K = 3 and 4."""
    t0 = time.perf_counter()
    out = {}
    for K in (3, 4):
        mixture, expected = simplex_seed(K, 0.1)
        out[K] = (mixture, expected, find_critical_points(mixture))
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def product_data():
    """Criterion 7 artifacts: pair product, its lift, and five padded bases."""
    t0 = time.perf_counter()
    pair = Mixture.from_arrays([0.5, 0.5], [[-2.0], [2.0]], shared_covariance=np.eye(1))
    prod = product(pair, pair)
    prod_report = find_critical_points(prod)
    oracle = oracle_critical_points_nd(prod, [-4.0, -4.0], [4.0, 4.0])
    lifted_report = find_critical_points(lift(prod, 3))

    rng = np.random.default_rng(777)
    pads = []
    for i in range(5):
        if i < 3:
            base = random_mixture_1d(rng, k_max=3)
        else:
            k = int(rng.integers(2, 4))
            means = rng.uniform(-3.0, 3.0, size=(k, 2))
            covs = np.array([random_spd(rng, 2, scale=0.3) for _ in range(k)])
            base = Mixture.from_arrays(rng.uniform(0.2, 1.0, size=k), means, covs)
        count = 2 if i == 0 else 1
        base_report = find_critical_points(base)
        padded = pad_remote(base, PaddingSpec(count=count), modes=[p.location for p in base_report.modes])
        padded_report = find_critical_points(padded)
        pads.append((base_report, padded_report, count))
    return {
        "prod_report": prod_report,
        "oracle": oracle,
        "lifted_report": lifted_report,
        "pads": pads,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def hom_pairs():
    """Criterion 8 artifacts: rank-deficient homoscedastic direct/reduced pairs."""
    rng = np.random.default_rng(888)
    pairs = []
    for _ in range(20):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(1, d))
        k = int(rng.integers(r + 1, 5))
        basis = np.linalg.qr(rng.standard_normal((d, r)))[0]
        means = rng.uniform(-1.0, 1.0, size=d) + 2.0 * rng.standard_normal((k, r)) @ basis.T
        m = Mixture.from_arrays(
            rng.uniform(0.3, 1.0, size=k), means,
            shared_covariance=random_spd(rng, d, scale=0.2),
        )
        pairs.append((m, find_critical_points(m), solve_reduced_homoscedastic(m)))
    return pairs


# -- criteria -------------------------------------------------------------------------


def test_criterion_01_table_reproduction(capsys):
    t0 = time.perf_counter()
    problems = []
    for k in range(2, 12):
        if crossover_dimension("AUG_VS_HET", k) != D_STAR[k]:
            problems.append(f"d_star({k})")
        if crossover_dimension("AUG_VS_AEH", k) != D_AEH[k]:
            problems.append(f"d_aeh({k})")
        if crossover_dimension("PP_VS_BIN", k) != D_PP[k]:
            problems.append(f"d_pp({k})")
    for (d, k), expected in GENERAL_TABLE.items():
        got = (
            aim_conjecture(d, k).rendered,
            upper_bound("BEST", d, k).rendered,
            upper_bound("HET", d, k).rendered,
            upper_bound("AUG", d, k).rendered,
            upper_bound("AEH", d, k).rendered,
        )
        if got != expected:
            problems.append(f"upper({d},{k})")
    for (r, k), expected in HOM_TABLE.items():
        got = (
            aim_conjecture(r, k).rendered,
            upper_bound("BEST_HOM", r, k).rendered,
            upper_bound("HOM", r, k).rendered,
            upper_bound("AUG", r, k).rendered,
            upper_bound("AUG_HOM", r, k).rendered,
        )
        if got != expected:
            problems.append(f"hom({r},{k})")
    for (d, k), expected in LOWER_TABLE.items():
        got = tuple(int(lower_bound(f, d, k)) for f in ("AEH_L", "BIN", "PP", "BEST_L"))
        if got != expected:
            problems.append(f"lower({d},{k})")
    anchors_ok = (
        int(upper_bound("HET", 2, 2)) == 20
        and int(upper_bound("AUG", 2, 2)) == 27
        and int(upper_bound("AEH", 2, 2)) == 968
        and int(upper_bound("HET", 3, 3)) == 1024
        and int(upper_bound("AUG_HOM", 4)) == 8192
        and int(lower_bound("PP", 10, 4)) == 36
        and int(lower_bound("BIN", 4, 5)) == 15
        and int(aim_conjecture(10, 5)) == 1001
    )
    if not anchors_ok:
        problems.append("integer anchors")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    announce(capsys, 1, ok,
             f"all four tables and integer anchors reproduced exactly in {elapsed:.2f}s"
             if ok else f"mismatches: {problems or 'runtime'} ({elapsed:.2f}s)")
    assert ok


def test_criterion_02_bound_order_grid(capsys):
    t0 = time.perf_counter()
    violations = 0
    for d in range(1, 31):
        for k in range(2, 9):
            if not int(upper_bound("HET", d, k)) < int(upper_bound("AEH", d, k)):
                violations += 1
            if not int(lower_bound("PP", d, k)) >= d + k - 1:
                violations += 1
            if d >= 2:
                if not int(lower_bound("BIN", d, k)) >= int(lower_bound("AEH_L", d, k)):
                    violations += 1
                if not int(lower_bound("BEST_L", d, k)) <= (int(upper_bound("BEST", d, k)) + 1) // 2:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    announce(capsys, 2, ok,
             f"order properties hold on the 30 x 7 grid in {elapsed:.2f}s"
             if ok else f"{violations} violations ({elapsed:.2f}s)")
    assert ok


def test_criterion_03_solver_oracle_1d(capsys, sweep):
    mismatched = 0
    max_err = 0.0
    for _, report, oracle in sweep["instances"]:
        locs = np.array(sorted(float(p.location[0]) for p in report.points))
        if len(locs) != len(oracle):
            mismatched += 1
            continue
        err = float(np.max(np.abs(locs - oracle))) if len(locs) else 0.0
        max_err = max(max_err, err)
        if err > 1e-6:
            mismatched += 1
    elapsed = sweep["elapsed"]
    ok = mismatched == 0 and elapsed < 60.0
    announce(capsys, 3, ok,
             f"200/200 instances match the 1-d bisection oracle, max location error "
             f"{max_err:.2e}, {elapsed:.1f}s"
             if ok else f"{mismatched} mismatched instances, max error {max_err:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_04_bijection_residuals(capsys, sweep):
    r_viol = 0
    ms_viol = 0
    worst_r = 0.0
    worst_ms = 0.0
    n_points = 0
    for _, report, _ in sweep["instances"]:
        for p in report.points:
            n_points += 1
            worst_r = max(worst_r, p.reduced_residual)
            worst_ms = max(worst_ms, p.mean_shift_residual)
            if p.reduced_residual > 1e-8:
                r_viol += 1
            if p.mean_shift_residual > 1e-8:
                ms_viol += 1
    ok = r_viol == 0 and ms_viol == 0
    announce(capsys, 4, ok,
             f"all {n_points} points satisfy both residual bounds "
             f"(max R {worst_r:.2e}, max mean-shift {worst_ms:.2e})"
             if ok else
             f"{r_viol}/{n_points} points exceed 1e-8 in the raw ratio residual "
             f"(max {worst_r:.2e}), "
             f"mean-shift half: {ms_viol} violations (max {worst_ms:.2e})")
    assert ok


def test_criterion_05_morse_halving(capsys, sweep, simplex_data, product_data):
    reports = [rep for _, rep, _ in sweep["instances"]]
    reports += [simplex_data[K][2] for K in (3, 4)]
    reports += [product_data["prod_report"], product_data["lifted_report"]]
    reports += [r for pair in product_data["pads"] for r in pair[:2]]
    checked = 0
    violations = 0
    for rep in reports:
        if not rep.all_nondegenerate:
            continue
        checked += 1
        n, m = rep.n_critical, rep.n_modes
        if not (m <= (n + 1) // 2 and rep.n_index_dminus1 >= m - 1):
            violations += 1
        if not rep.morse_inequality_ok:
            violations += 1
    ok = violations == 0 and checked > 0
    announce(capsys, 5, ok,
             f"Morse halving and the index-(d-1) count hold on all {checked} "
             f"nondegenerate solves"
             if ok else f"{violations} violations over {checked} solves")
    assert ok


def test_criterion_06_simplex_seeds(capsys, simplex_data):
    results = []
    radius_ok = True
    for K in (3, 4):
        mixture, expected, report = simplex_data[K]
        roots = radial_critical_roots(K - 1, K / 1.1)
        mode_radii = sorted(
            float(np.linalg.norm(p.location)) for p in report.points if p.is_mode
        )
        ray_radii = [r for r in mode_radii if r > 1e-6]
        if roots:
            radius_ok &= all(abs(r - roots[-1]) <= 1e-6 for r in ray_radii)
        else:
            radius_ok &= not ray_radii
        results.append((K, report.n_modes, expected))
    counts_ok = all(got == exp for _, got, exp in results)
    elapsed = simplex_data["elapsed"]
    ok = counts_ok and radius_ok and elapsed < 30.0
    detail = ", ".join(f"K={K}: {got}/{exp} modes" for K, got, exp in results)
    announce(capsys, 6, ok,
             f"{detail}; ray mode radii match the ray-equation roots to 1e-6, and "
             f"no mode lies off the center where the equation has none ({elapsed:.1f}s)"
             if ok else
             f"{detail}; radius checks {'pass' if radius_ok else 'fail'} ({elapsed:.1f}s)")
    assert ok


def test_criterion_07_product_lift_pad(capsys, product_data):
    prod_report = product_data["prod_report"]
    oracle = product_data["oracle"]
    prod_ok = prod_report.n_modes == 4 and prod_report.n_critical == 9
    oracle_ok = len(oracle) == 9
    if oracle_ok and prod_ok:
        solver_locs = [p.location for p in prod_report.points]
        gap = max(
            min(float(np.linalg.norm(o - s)) for s in solver_locs) for o in oracle
        )
        oracle_ok = gap <= 1e-6
    lifted = product_data["lifted_report"]
    lift_ok = (
        lifted.n_critical == 9
        and lifted.n_modes == 4
        and max(abs(float(p.location[2])) for p in lifted.points) <= 1e-7
    )
    pad_ok = all(
        padded.n_modes >= base.n_modes + count
        for base, padded, count in product_data["pads"]
    )
    elapsed = product_data["elapsed"]
    ok = prod_ok and oracle_ok and lift_ok and pad_ok and elapsed < 120.0
    announce(capsys, 7, ok,
             f"product 9 criticals / 4 modes match the 2-d grid oracle; lift keeps "
             f"counts with pad coordinates <= 1e-7; padding added its mode on all 5 "
             f"bases ({elapsed:.1f}s)"
             if ok else
             f"product_ok={prod_ok} oracle_ok={oracle_ok} lift_ok={lift_ok} "
             f"pad_ok={pad_ok} ({elapsed:.1f}s)")
    assert ok


def test_criterion_08_affine_rank_commutation(capsys, hom_pairs):
    bad = 0
    worst = 0.0
    for m, direct, reduced in hom_pairs:
        if (direct.n_critical != reduced.n_critical
                or direct.counts_by_index != reduced.counts_by_index):
            bad += 1
            continue
        a = np.array(sorted(map(tuple, (p.location for p in direct.points))))
        b = np.array(sorted(map(tuple, (p.location for p in reduced.points))))
        err = float(np.max(np.abs(a - b)))
        worst = max(worst, err)
        if err > 1e-7:
            bad += 1
    ok = bad == 0
    announce(capsys, 8, ok,
             f"direct and rank-reduced solves agree on all 20 instances "
             f"(max location gap {worst:.2e})"
             if ok else f"{bad}/20 instances disagree (worst location gap {worst:.2e})")
    assert ok


def test_criterion_09_upper_sandwich(capsys, sweep, simplex_data, product_data, hom_pairs):
    reports = [rep for _, rep, _ in sweep["instances"]]
    reports += [simplex_data[K][2] for K in (3, 4)]
    reports += [product_data["prod_report"], product_data["lifted_report"]]
    reports += [r for pair in product_data["pads"] for r in pair[:2]]
    reports += [r for _, direct, reduced in hom_pairs for r in (direct, reduced)]
    checked = 0
    violations = 0
    for rep in reports:
        if not rep.all_nondegenerate:
            continue
        checked += 1
        d, k = rep.mixture.dim, rep.mixture.n_components
        if rep.n_critical > int(upper_bound("BEST", d, k)):
            violations += 1
        if rep.hom_rank is not None and rep.hom_rank >= 1:
            if rep.n_critical > int(upper_bound("BEST_HOM", rep.hom_rank, k)):
                violations += 1
        if not rep.upper_sandwich_ok:
            violations += 1
    ok = violations == 0 and checked > 0
    announce(capsys, 9, ok,
             f"N <= U_best (and N <= U_best_hom where applicable) on all {checked} "
             f"nondegenerate solves"
             if ok else f"{violations} violations over {checked} solves")
    assert ok


def test_criterion_10_seed_closure(capsys):
    t0 = time.perf_counter()
    problems = 0
    for d in range(1, 16):
        for k in range(2, 7):
            value, recipe = seed_closure_bound(d, k, ray_ren_family)
            if int(value) < int(lower_bound("PP", d, k)):
                problems += 1
            if (sum(t.dim for t in recipe.seeds) > recipe.lift_to
                    or recipe.lift_to != d
                    or recipe.total_components != k
                    or recipe.pad < 0):
                problems += 1
            modes = 1
            for t in recipe.seeds:
                modes *= t.modes
            if recipe.value != recipe.pad + modes:
                problems += 1
    elapsed = time.perf_counter() - t0
    ok = problems == 0 and elapsed < 10.0
    announce(capsys, 10, ok,
             f"closure bound >= L_pp with admissible recipes on d <= 15, k <= 6 "
             f"({elapsed:.2f}s)"
             if ok else f"{problems} problems ({elapsed:.2f}s)")
    assert ok
