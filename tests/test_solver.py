"""Solver tests: reduced system algebra, Newton search, classification."""

import json

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from modecount import (
    Mixture,
    SolverConfig,
    augmented_residual,
    build_reduced,
    classify,
    find_critical_points,
    lift,
    mean_shift_step,
    morse_check,
    polish_critical,
    product,
    reduced_jacobian,
    residual_R,
    solve_reduced_homoscedastic,
    x_of_y,
)

from modecount.solver import _cluster_representatives, _LogSolver

from conftest import random_mixture_1d, random_spd
from test_acceptance import SWEEP_SEED

# positive root of x = 2 tanh(2x), the mode of the unit-variance pair at +-2
PAIR_MODE = 1.9986513460302165


def pair_mixture_1d(a=2.0):
    return Mixture.from_arrays(
        [0.5, 0.5], [[-a], [a]], shared_covariance=np.eye(1)
    )


def random_mixture(rng, d, k, homoscedastic=False):
    means = rng.uniform(-3.0, 3.0, size=(k, d))
    weights = rng.uniform(0.2, 1.0, size=k)
    if homoscedastic:
        return Mixture.from_arrays(weights, means, shared_covariance=random_spd(rng, d))
    covs = np.array([random_spd(rng, d, scale=0.3) for _ in range(k)])
    return Mixture.from_arrays(weights, means, covs)


# -- reduced system algebra -------------------------------------------------------


def test_log_rho_matches_component_logpdfs():
    rng = np.random.default_rng(30)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        m = random_mixture(rng, d, k)
        ref = int(rng.integers(0, k))
        sys = build_reduced(m, reference=ref)
        x = rng.uniform(-4.0, 4.0, size=d)
        ref_log = np.log(m.weights[ref]) + multivariate_normal.logpdf(
            x, m.means[ref], m.covariances[ref]
        )
        expected = [
            np.log(m.weights[i])
            + multivariate_normal.logpdf(x, m.means[i], m.covariances[i])
            - ref_log
            for i in sys.free
        ]
        assert np.allclose(sys.log_rho(x), expected, atol=1e-10)


def test_build_reduced_defaults_to_last_component():
    m = pair_mixture_1d()
    sys = build_reduced(m)
    assert sys.reference == 1 and sys.free == (0,)
    with pytest.raises(ValueError):
        build_reduced(m, reference=2)
    single = Mixture.from_arrays([1.0], [[0.0]], shared_covariance=np.eye(1))
    with pytest.raises(ValueError):
        build_reduced(single)


def test_x_of_y_limits_and_fixed_point_identity():
    rng = np.random.default_rng(31)
    m = random_mixture(rng, 2, 3)
    sys = build_reduced(m)
    # vanishing ratios collapse X to the reference mean
    tiny = np.full(sys.n_free, 1e-300)
    assert np.allclose(x_of_y(sys, tiny), m.means[sys.reference], atol=1e-12)
    # X(rho(x)) is exactly the mean-shift image of x
    for _ in range(10):
        x = rng.uniform(-3.0, 3.0, size=2)
        y = np.exp(sys.log_rho(x))
        assert np.allclose(x_of_y(sys, y), mean_shift_step(m, x), atol=1e-10)
    with pytest.raises(ValueError):
        x_of_y(sys, np.array([1.0, -1.0]))


def test_residual_zero_at_symmetric_root():
    sys = build_reduced(pair_mixture_1d())
    r = residual_R(sys, np.array([1.0]))
    assert abs(r[0]) <= 1e-14


def test_residual_overflow_free_for_extreme_ratios():
    sys = build_reduced(pair_mixture_1d())
    r = residual_R(sys, np.array([1e300]))
    assert np.all(np.isfinite(r))


def test_reduced_jacobian_matches_finite_differences():
    rng = np.random.default_rng(32)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        m = random_mixture(rng, d, k)
        sys = build_reduced(m)
        y = rng.uniform(0.2, 3.0, size=sys.n_free)
        jac = reduced_jacobian(sys, y)
        fd = np.zeros_like(jac)
        for j in range(sys.n_free):
            h = 1e-7 * max(1.0, y[j])
            e = np.zeros(sys.n_free)
            e[j] = h
            fd[:, j] = (residual_R(sys, y + e) - residual_R(sys, y - e)) / (2.0 * h)
        scale = np.abs(jac).max() + 1.0
        assert np.abs(jac - fd).max() <= 1e-5 * scale


def test_augmented_residual_against_cofactor_oracle():
    rng = np.random.default_rng(33)
    for d in (1, 2, 3):
        m = random_mixture(rng, d, 3)
        sys = build_reduced(m)
        y = rng.uniform(0.3, 2.0, size=2)
        z = float(rng.uniform(0.1, 2.0))
        m_mat = m.precisions[sys.reference] + sum(
            yi * m.precisions[i] for yi, i in zip(y, sys.free)
        )
        nu = m.precisions[sys.reference] @ m.means[sys.reference] + sum(
            yi * (m.precisions[i] @ m.means[i]) for yi, i in zip(y, sys.free)
        )
        # adjugate by cofactor expansion
        adj = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                minor = np.delete(np.delete(m_mat, j, axis=0), i, axis=1)
                adj[i, j] = (-1) ** (i + j) * (np.linalg.det(minor) if d > 1 else 1.0)
        det = np.linalg.det(m_mat)
        x_scaled = z * adj @ nu
        oracle = np.concatenate((
            [z * det - 1.0],
            y - np.exp(sys.log_betas + sys.q_values(x_scaled)),
        ))
        got = augmented_residual(sys, y, z)
        assert np.allclose(got, oracle, rtol=1e-9, atol=1e-9)
        # at z = 1/det the slack vanishes and the tail is the plain residual
        at_root = augmented_residual(sys, y, 1.0 / det)
        assert abs(at_root[0]) <= 1e-12
        assert np.allclose(at_root[1:], residual_R(sys, y), rtol=1e-9, atol=1e-12)


def test_jacobian_singularity_tracks_hessian():
    # nondegenerate pair: regular Jacobian at each root
    m = pair_mixture_1d(2.0)
    report = find_critical_points(m)
    sys = build_reduced(m, reference=report.reference)    # the chart of reduced_coords
    for p in report.points:
        assert abs(np.linalg.det(reduced_jacobian(sys, p.reduced_coords))) > 1e-3
    # means at +-1 with unit variance: the origin is a degenerate critical
    # point (vanishing second derivative), and the Jacobian drops rank with it
    m_deg = pair_mixture_1d(1.0)
    sys_deg = build_reduced(m_deg)
    y0 = np.exp(sys_deg.log_rho(np.zeros(1)))
    assert abs(np.linalg.det(reduced_jacobian(sys_deg, y0))) < 1e-10
    _, _, rel_hess = m_deg.relative_derivatives(np.zeros(1))
    assert abs(rel_hess[0, 0]) < 1e-12


# -- batched Newton in log-ratio coordinates ---------------------------------------


def solve_batch_one_rung_at_a_time(solver, u0, config):
    """Reference damped Newton whose line search tries one halving per call."""
    u = np.array(u0, dtype=float)
    norms = np.full(u.shape[0], np.inf)
    finite = np.all(np.isfinite(u), axis=1)
    if np.any(finite):
        norms[finite] = np.linalg.norm(solver.residual_batch(u[finite]), axis=1)
    active = np.isfinite(norms) & (norms > solver._row_tols(u, config.newton_tol))
    for _ in range(config.newton_max_iter):
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        s, jac = solver.residual_and_jacobian_batch(u[idx])
        steps = np.linalg.solve(jac, -s[..., None])[..., 0]
        good = np.all(np.isfinite(steps), axis=1)
        active[idx[~good]] = False
        pending, steps = idx[good], steps[good]
        scale = np.ones(len(pending))
        for _ in range(config.max_halvings):
            if not len(pending):
                break
            cand = u[pending] + scale[:, None] * steps
            cand_norms = np.linalg.norm(solver.residual_batch(cand), axis=1)
            better = np.isfinite(cand_norms) & (cand_norms < norms[pending])
            u[pending[better]] = cand[better]
            norms[pending[better]] = cand_norms[better]
            pending, steps, scale = pending[~better], steps[~better], scale[~better] * 0.5
        active[pending] = False
        active &= norms > solver._row_tols(u, config.newton_tol)
    converged = norms <= solver._row_tols(u, config.newton_tol)
    return u[converged], int(np.count_nonzero(converged))


def het_d6k5_solver(seed=41):
    m = random_mixture(np.random.default_rng(seed), 6, 5)
    return _LogSolver(build_reduced(m, reference=int(np.argmax(m.weights))))


def test_residual_rows_do_not_depend_on_batch():
    # BLAS matmul rounds a row differently with the number of rows beside it;
    # the residual must not, or chunked and stacked solves drift apart
    solver = het_d6k5_solver()
    u = np.random.default_rng(42).uniform(-6.0, 6.0, size=(200, 4))
    stacked = solver.residual_batch(u)
    for i in range(len(u)):
        assert np.array_equal(stacked[i], solver.residual_batch(u[i:i + 1])[0]), i
    s, jac = solver.residual_and_jacobian_batch(u)
    for i in (0, 77, 199):
        s_i, jac_i = solver.residual_and_jacobian_batch(u[i:i + 1])
        assert np.array_equal(s[i], s_i[0]) and np.array_equal(jac[i], jac_i[0])


def test_blocked_ladder_matches_one_rung_at_a_time():
    rng = np.random.default_rng(43)
    # spreads chosen so that many rows halve deep into the ladder or give up
    solvers = [
        (het_d6k5_solver(), 8.0),
        (_LogSolver(build_reduced(random_mixture(rng, 3, 3), reference=0)), 5.0),
        (_LogSolver(build_reduced(random_mixture(rng, 1, 4), reference=0)), 5.0),
    ]
    for solver, spread in solvers:
        u0 = rng.uniform(-spread, spread, size=(300, solver.sys.n_free))
        configs = (SolverConfig(), SolverConfig(max_halvings=60),
                   SolverConfig(max_halvings=5), SolverConfig(max_halvings=0))
        for config in configs:
            roots, count = solver.solve_batch(u0, config)
            ref_roots, ref_count = solve_batch_one_rung_at_a_time(solver, u0, config)
            assert count == ref_count
            assert np.array_equal(roots, ref_roots)


def test_stalled_rows_give_up_after_one_ladder():
    # rows that cannot lower |S| with 1/4096 of their Newton step sit in a
    # local minimum of |S| that is not a root; the default cap drops them
    # instead of letting them crawl through 60 rungs for 200 iterations
    rng = np.random.default_rng(43)
    u0 = rng.uniform(-8.0, 8.0, size=(300, 4))
    rows = []
    for config in (SolverConfig(), SolverConfig(max_halvings=60)):
        solver = het_d6k5_solver()
        inner = solver.residual_batch
        count = [0]

        def counted(u, inner=inner, count=count):
            count[0] += len(u)
            return inner(u)

        solver.residual_batch = counted
        roots, n = solver.solve_batch(u0, config)
        rows.append(count[0])
        assert n == len(roots) > 0
        norms = np.linalg.norm(inner(roots), axis=1)
        assert np.all(norms <= solver._row_tols(roots, config.newton_tol))
    assert rows[0] <= rows[1] / 3


def test_halving_cap_keeps_critical_set():
    # the default cap drops stalled starts only: the first three instances
    # lose converged starts against max_halvings=60, and all keep their
    # critical set
    rng = np.random.default_rng(SWEEP_SEED)
    sweep = [random_mixture_1d(rng) for _ in range(79)]
    instances = [
        sweep[26],
        sweep[78],
        random_mixture(np.random.default_rng(47), 6, 6),
        product(pair_mixture_1d(), pair_mixture_1d()),
    ]
    for m in instances:
        capped = find_critical_points(m, SolverConfig())
        deep = find_critical_points(m, SolverConfig(max_halvings=60))
        assert capped.n_critical == deep.n_critical
        assert capped.counts_by_index == deep.counts_by_index
        assert capped.all_nondegenerate == deep.all_nondegenerate
        a = np.array(sorted(tuple(p.location) for p in capped.points))
        b = np.array(sorted(tuple(p.location) for p in deep.points))
        assert np.max(np.abs(a - b)) <= 1e-9


def cluster_representatives_loop(candidates, tol):
    """Reference greedy clustering: plain Python loop over representatives."""
    reps = []
    for idx in sorted(range(len(candidates)), key=lambda i: tuple(candidates[i])):
        x = candidates[idx]
        if not any(np.linalg.norm(x - r) <= tol * (1.0 + np.linalg.norm(r)) for r in reps):
            reps.append(x)
    return reps


def test_cluster_representatives_matches_loop():
    rng = np.random.default_rng(44)
    assert _cluster_representatives([], 1e-6) == []
    for _ in range(300):
        d = int(rng.integers(1, 7))
        centres = rng.uniform(-5.0, 5.0, size=(int(rng.integers(1, 8)), d))
        n = int(rng.integers(1, 60))
        pick = rng.integers(0, len(centres), size=n)
        cloud = centres[pick] + rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-9.0, -4.0, size=(n, 1))
        cloud[rng.random(n) < 0.1] = centres[0]                 # exact duplicates
        candidates = list(cloud)
        got = _cluster_representatives(candidates, 1e-6)
        want = cluster_representatives_loop(candidates, 1e-6)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


# -- critical point search ----------------------------------------------------------


def test_symmetric_pair_anchor():
    report = find_critical_points(pair_mixture_1d())
    assert report.n_critical == 3
    assert report.n_modes == 2
    locs = sorted(float(p.location[0]) for p in report.points)
    assert locs[0] == pytest.approx(-PAIR_MODE, abs=1e-6)
    assert locs[1] == pytest.approx(0.0, abs=1e-9)
    assert locs[2] == pytest.approx(PAIR_MODE, abs=1e-6)
    saddle = min(report.points, key=lambda p: abs(p.location[0]))
    assert saddle.morse_index == 0 and not saddle.is_mode
    assert report.all_nondegenerate
    assert report.morse_inequality_ok and report.upper_sandwich_ok
    assert int(report.u_best) == 8          # heteroscedastic bound at (1, 2)
    assert int(report.u_best_hom) == 6 and report.hom_rank == 1
    assert morse_check(report)


def test_product_pair_anchor():
    m = product(pair_mixture_1d(), pair_mixture_1d())
    report = find_critical_points(m)
    assert report.n_critical == 9
    assert report.n_modes == 4
    assert report.counts_by_index == {0: 1, 1: 4, 2: 4}
    assert report.n_index_dminus1 == 4
    for p in report.modes:
        assert np.allclose(np.abs(p.location), PAIR_MODE, atol=1e-6)


def test_single_gaussian_report():
    m = Mixture.from_arrays([1.0], [[1.0, -2.0]], shared_covariance=random_spd(np.random.default_rng(0), 2))
    report = find_critical_points(m)
    assert report.n_critical == report.n_modes == 1
    assert np.allclose(report.points[0].location, [1.0, -2.0], atol=1e-12)
    assert report.u_best is None


def test_bijection_residuals_scaled():
    rng = np.random.default_rng(34)
    for _ in range(5):
        m = random_mixture(rng, 1, 3)
        report = find_critical_points(m)
        for p in report.points:
            assert p.mean_shift_residual <= 1e-8 * (1.0 + np.linalg.norm(p.location))
            scaled = np.abs(
                -p.reduced_coords * np.expm1(
                    build_reduced(m, report.reference).log_rho(p.location)
                    - np.log(p.reduced_coords)
                )
            ) / (1.0 + p.reduced_coords)
            assert np.all(scaled <= 1e-8)


def test_reduced_residual_in_dominant_chart_at_remote_points():
    # mixture 36 of the criterion-3 sweep has critical points where the
    # report's reference component is negligible (ratios near 1e66); in the
    # report's chart the raw residual there reached 2e66
    rng = np.random.default_rng(SWEEP_SEED)
    for _ in range(37):
        m = random_mixture_1d(rng)
    report = find_critical_points(m)
    assert max(np.max(p.reduced_coords) for p in report.points) > 1e60
    for p in report.points:
        assert p.reduced_residual <= 1e-12
        assert p.reduced_reference == int(np.argmax(m.responsibilities(p.location)))
        # the recorded chart lets the residual be recomputed from the report
        sys = build_reduced(m, p.reduced_reference)
        y = np.exp(sys.log_rho(p.location))
        assert np.all(y <= 1.0 + 1e-12)
        assert np.linalg.norm(residual_R(sys, y)) <= 1e-12


def test_limits_and_force():
    rng = np.random.default_rng(35)
    m = random_mixture(rng, 1, 3)
    with pytest.raises(ValueError, match="force=True"):
        find_critical_points(m, SolverConfig(max_components=2))
    report = find_critical_points(m, SolverConfig(max_components=2, force=True))
    assert report.n_critical >= 1


def test_classify_rejects_noncritical_point():
    m = pair_mixture_1d()
    with pytest.raises(ValueError, match="not critical"):
        classify(m, np.array([1.0]))
    point = classify(m, np.array([0.0]))
    assert point.morse_index == 0 and point.reduced_residual <= 1e-10


def test_polish_recovers_mode_from_coarse_guess():
    m = pair_mixture_1d()
    x = polish_critical(m, np.array([1.7]))
    assert x[0] == pytest.approx(PAIR_MODE, abs=1e-8)


def test_report_roundtrips_through_json():
    report = find_critical_points(pair_mixture_1d())
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["n_critical"] == 3 and doc["n_modes"] == 2
    assert doc["counts_by_index"] == {"0": 1, "1": 2}
    assert doc["u_best"] == 8
    assert doc["config"]["lattice_subdivisions"] == 8
    assert all(isinstance(p["location"][0], float) for p in doc["points"])


def test_json_float_encodes_nonfinite():
    from modecount.solver import _json_float

    assert _json_float(1.5) == 1.5
    assert _json_float(float("inf")) == "inf"
    assert _json_float(float("-inf")) == "-inf"
    assert _json_float(None) is None


def test_determinism():
    rng = np.random.default_rng(36)
    m = random_mixture(rng, 2, 3)
    a = find_critical_points(m).to_dict()
    b = find_critical_points(m).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_threaded_solve_matches_serial():
    rng = np.random.default_rng(37)
    m = random_mixture(rng, 2, 4)
    serial = find_critical_points(m, SolverConfig(threads=1))
    threaded = find_critical_points(m, SolverConfig(threads=2))
    assert serial.n_critical == threaded.n_critical
    for a, b in zip(serial.points, threaded.points):
        assert np.allclose(a.location, b.location, atol=1e-9)


def test_threads_env_var(monkeypatch):
    monkeypatch.setenv("MODECOUNT_THREADS", "3")
    assert SolverConfig().effective_threads() == 3
    monkeypatch.setenv("MODECOUNT_THREADS", "junk")
    assert SolverConfig().effective_threads() == 1
    monkeypatch.delenv("MODECOUNT_THREADS")
    assert SolverConfig(threads=2).effective_threads() == 2


# -- homoscedastic reduction ----------------------------------------------------------


def rank_deficient_homoscedastic(rng, d, r, k):
    basis = np.linalg.qr(rng.standard_normal((d, r)))[0]
    means = rng.uniform(-1.0, 1.0, size=d) + 2.5 * rng.standard_normal((k, r)) @ basis.T
    return Mixture.from_arrays(
        rng.uniform(0.3, 1.0, size=k), means, shared_covariance=random_spd(rng, d, scale=0.2)
    )


def test_reduced_solve_matches_direct():
    rng = np.random.default_rng(38)
    for trial in range(5):
        m = rank_deficient_homoscedastic(rng, 3, 2, 3)
        direct = find_critical_points(m)
        reduced = solve_reduced_homoscedastic(m)
        assert reduced.hom_rank == 2
        assert direct.n_critical == reduced.n_critical, trial
        assert direct.n_modes == reduced.n_modes
        assert direct.counts_by_index == reduced.counts_by_index
        locs_a = sorted(map(tuple, (p.location for p in direct.points)))
        locs_b = sorted(map(tuple, (p.location for p in reduced.points)))
        assert np.allclose(np.array(locs_a), np.array(locs_b), atol=1e-7)


def test_hom_criticals_live_in_mean_span():
    rng = np.random.default_rng(39)
    m = rank_deficient_homoscedastic(rng, 4, 2, 4)
    report = solve_reduced_homoscedastic(m)
    # in the homoscedastic case every critical point lies in the affine hull
    # of the means, after the shared-covariance inner product
    base = m.means[0]
    centered = (m.means[1:] - base).T            # span directions, (d, k-1)
    sigma_inv_cols = np.linalg.solve(m.covariances[0], centered)
    proj = centered @ np.linalg.lstsq(sigma_inv_cols.T @ centered, sigma_inv_cols.T, rcond=None)[0]
    for p in report.points:
        v = p.location - base
        assert np.linalg.norm(v - proj @ v) <= 1e-7 * (1.0 + np.linalg.norm(v))


def test_reduced_solve_rejects_heteroscedastic():
    rng = np.random.default_rng(40)
    m = random_mixture(rng, 2, 3)
    with pytest.raises(ValueError):
        solve_reduced_homoscedastic(m)


def test_lift_preserves_critical_structure():
    m = lift(pair_mixture_1d(), 3)
    report = find_critical_points(m)
    assert report.n_critical == 3 and report.n_modes == 2
    for p in report.points:
        assert np.all(np.abs(p.location[1:]) <= 1e-7)
