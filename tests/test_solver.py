"""Solver tests: reduced system algebra, Newton search, classification."""

import dataclasses
import json

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from modecount import (
    Mixture,
    SolverConfig,
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

from modecount.mixture import logsumexp
from modecount.solver import _chord_starts, _cluster, _dedup_points, _halvings_per_round, _LogSolver

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


def test_residual_matches_q_values_at_x_of_y():
    # residual_R runs through _LogSolver's centred component terms
    # log(alpha_i phi_i); the plain formula runs through the expanded
    # quadratics of ReducedSystem.q_values
    rng = np.random.default_rng(33)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, 6))
        m = random_mixture(rng, d, k)
        sys = build_reduced(m, reference=int(rng.integers(0, k)))
        y = rng.uniform(0.2, 5.0, size=sys.n_free)
        plain = y - np.exp(sys.log_betas + sys.q_values(x_of_y(sys, y)))
        assert np.allclose(residual_R(sys, y), plain, rtol=1e-10, atol=1e-12)
    with pytest.raises(ValueError):
        residual_R(sys, np.zeros(sys.n_free))
    with pytest.raises(ValueError):
        reduced_jacobian(sys, -np.ones(sys.n_free))


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


def solve_batch_one_rung_at_a_time(solver, u0, charts, config):
    """Reference damped Newton whose line search tries one halving per call.

    Like `_LogSolver.iterate`, it runs each row of log-ratios in its own
    chart and returns the final rows with the mask of converged ones.
    """
    u = np.array(u0, dtype=float)
    norms = np.full(u.shape[0], np.inf)
    finite = np.all(np.isfinite(u), axis=1)
    if np.any(finite):
        norms[finite] = np.linalg.norm(solver.residual_batch(u[finite], charts[finite]), axis=1)
    active = np.isfinite(norms) & (norms > solver._row_tols(u, config.newton_tol))
    for _ in range(config.newton_max_iter):
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        s, jac = solver.residual_and_jacobian_batch(u[idx], charts[idx])
        steps = np.linalg.solve(jac, -s[..., None])[..., 0]
        good = np.all(np.isfinite(steps), axis=1)
        active[idx[~good]] = False
        pending, steps = idx[good], steps[good]
        scale = np.ones(len(pending))
        for _ in range(config.max_halvings):
            if not len(pending):
                break
            cand = u[pending] + scale[:, None] * steps
            cand_norms = np.linalg.norm(solver.residual_batch(cand, charts[pending]), axis=1)
            better = np.isfinite(cand_norms) & (cand_norms < norms[pending])
            u[pending[better]] = cand[better]
            norms[pending[better]] = cand_norms[better]
            pending, steps, scale = pending[~better], steps[~better], scale[~better] * 0.5
        active[pending] = False
        active &= norms > solver._row_tols(u, config.newton_tol)
    return u, norms <= solver._row_tols(u, config.newton_tol)


def het_d6k5_solver(seed=41):
    return _LogSolver(random_mixture(np.random.default_rng(seed), 6, 5))


def test_residual_rows_do_not_depend_on_batch():
    # BLAS matmul rounds a row differently with the number of rows beside it;
    # the residual must not, or chunked and stacked solves drift apart.  Rows
    # in different charts share the batch.
    solver = het_d6k5_solver()
    rng = np.random.default_rng(42)
    u = rng.uniform(-6.0, 6.0, size=(200, 5))
    charts = rng.integers(0, 5, size=200)
    stacked = solver.residual_batch(u, charts)
    for i in range(len(u)):
        assert np.array_equal(stacked[i], solver.residual_batch(u[i:i + 1], charts[i:i + 1])[0]), i
    # `iterate` carries a row's Newton matrix from the batch of its full step
    # into its next step, so every row of the matrix must match too
    s, jac = solver.residual_and_jacobian_batch(u, charts)
    for i in range(len(u)):
        s_i, jac_i = solver.residual_and_jacobian_batch(u[i:i + 1], charts[i:i + 1])
        assert np.array_equal(s[i], s_i[0]) and np.array_equal(jac[i], jac_i[0]), i
    # the chart's own residual entry and Newton-matrix row are exact
    rows = np.arange(len(u))
    assert np.all(s[rows, charts] == 0.0)
    assert np.array_equal(jac[rows, charts], np.eye(5)[charts])


def random_starts(rng, k, spread, n):
    """Log-ratio rows uniform in [-spread, spread]^k, each in its argmax chart."""
    u0 = rng.uniform(-spread, spread, size=(n, k))
    charts = np.argmax(u0, axis=1)
    return u0 - u0[np.arange(n), charts][:, None], charts


def test_blocked_ladder_matches_one_rung_at_a_time():
    rng = np.random.default_rng(43)
    # spreads chosen so that many rows halve deep into the ladder or give up;
    # 100 more rows start from seed points, as `solve_batch` starts them
    solvers = [
        (het_d6k5_solver(), 8.0),
        (_LogSolver(random_mixture(rng, 3, 3)), 5.0),
        (_LogSolver(random_mixture(rng, 1, 4)), 5.0),
    ]
    for solver, spread in solvers:
        m = solver.mixture
        u0, charts = random_starts(rng, m.n_components, spread, 300)
        x0 = rng.uniform(m.means.min(axis=0) - spread, m.means.max(axis=0) + spread, size=(100, m.dim))
        seed_u0, seed_charts = solver.chart_coords(x0)
        u0, charts = np.concatenate([u0, seed_u0]), np.concatenate([charts, seed_charts])
        configs = (SolverConfig(), SolverConfig(max_halvings=60),
                   SolverConfig(max_halvings=5), SolverConfig(max_halvings=0))
        for config in configs:
            u, converged = solver.iterate(u0, charts, config)
            ref_u, ref_converged = solve_batch_one_rung_at_a_time(solver, u0, charts, config)
            assert np.array_equal(converged, ref_converged)
            assert np.array_equal(u, ref_u)
            roots, count = solver.solve_batch(x0, config)
            assert count == np.count_nonzero(converged[300:])
            assert np.array_equal(roots, solver.x_batch(u[300:][converged[300:]])[0])


def counting_residual_calls(solver):
    """Wrap the solver's two residual evaluations; returns {name: [calls, rows]}."""
    counts = {}
    for name in ("residual_batch", "residual_and_jacobian_batch"):
        inner = getattr(solver, name)
        counts[name] = [0, 0]

        def counted(u, charts, inner=inner, count=counts[name]):
            count[0] += 1
            count[1] += len(u)
            return inner(u, charts)

        setattr(solver, name, counted)
    return counts


def test_stalled_rows_give_up_after_one_ladder():
    # rows that cannot lower |S| with 1/2048 of their Newton step sit in a
    # local minimum of |S| that is not a root; the default cap drops them
    # instead of letting them crawl through 60 rungs for 200 iterations
    u0, charts = random_starts(np.random.default_rng(43), 5, 8.0, 300)
    rows = []
    for config in (SolverConfig(), SolverConfig(max_halvings=60)):
        solver = het_d6k5_solver()
        inner = solver.residual_batch
        counts = counting_residual_calls(solver)
        u, converged = solver.iterate(u0, charts, config)
        roots, root_charts = u[converged], charts[converged]
        rows.append(sum(rows_seen for _, rows_seen in counts.values()))
        assert len(roots) > 0
        norms = np.linalg.norm(inner(roots, root_charts), axis=1)
        assert np.all(norms <= solver._row_tols(roots, config.newton_tol))
    assert rows[0] <= rows[1] / 3


def test_full_steps_reuse_their_newton_matrix():
    # rows started next to roots accept every full Newton step, and a full
    # step is evaluated with its Newton matrix: one residual_and_jacobian
    # call per iteration plus the initial one, and no residual_batch call
    for m in (het_d6k5_solver().mixture, product(pair_mixture_1d(), pair_mixture_1d())):
        roots = np.array([p.location for p in find_critical_points(m).points])
        rng = np.random.default_rng(45)
        for offset in (1e-8, 1e-3):
            x0 = roots + offset * rng.standard_normal(roots.shape)
            reference = _LogSolver(m)
            u0, charts = reference.chart_coords(x0)
            ref_counts = counting_residual_calls(reference)
            ref_u, ref_converged = solve_batch_one_rung_at_a_time(reference, u0, charts, SolverConfig())
            iterations = ref_counts["residual_and_jacobian_batch"][0]
            # the reference tries one rung per iteration: every full step is taken
            assert ref_counts["residual_batch"][0] == iterations + 1
            assert ref_converged.all()
            solver = _LogSolver(m)
            counts = counting_residual_calls(solver)
            u, converged = solver.iterate(u0, charts, SolverConfig())
            assert counts["residual_and_jacobian_batch"][0] == iterations + 1
            assert counts["residual_batch"][0] == 0
            assert np.array_equal(u, ref_u) and np.array_equal(converged, ref_converged)
        assert iterations >= 2


def padded_d1k6_mixture():
    """The padded witness that seed_closure_bound(1, 6, simplex_family) realizes."""
    return Mixture.from_arrays(
        [243, 81, 108, 144, 192, 256],
        [[0.0], [15.0], [-37.5], [93.75], [-211.875], [473.4375]],
        shared_covariance=np.eye(1),
    )


def test_antimode_starts_converge_in_their_dominant_chart():
    # the padded witness seed_closure_bound(1, 6, simplex_family) realizes:
    # in the chart of the largest weight (component 5, at 473.4) a start
    # 1e-8 from either antimode has |S| of order 0.01-0.1 against a row
    # tolerance near 1e-7, no rung of the ladder improves it, and it is
    # dropped; in the chart of the start's dominant component it converges
    solver = _LogSolver(padded_d1k6_mixture())
    for root in (-124.68419998655692, 54.36768907309745):
        x0 = np.array([[root + 1e-8]])
        roots, count = solver.solve_batch(x0, SolverConfig())
        assert count == 1
        assert abs(roots[0, 0] - root) <= 1e-12 * abs(root)
        terms, _ = solver.component_terms(x0)
        in_chart_5 = terms - terms[:, 5:]
        _, converged = solver.iterate(in_chart_5, np.array([5]), SolverConfig())
        assert not converged[0]


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


# Counts on a held-out battery (seed 5151, used nowhere else), recorded with
# the responsibility lattice and the intermediate mean-shift samples still
# among the starts: (n_critical, counts_by_index, all_nondegenerate).
START_SOURCE_BATTERY_COUNTS = [
    (3, {0: 1, 1: 2}, True), (1, {1: 1}, True), (3, {0: 1, 1: 2}, True),
    (3, {0: 1, 1: 2}, True), (3, {0: 1, 1: 2}, True), (5, {0: 2, 1: 3}, True),
    (1, {1: 1}, True), (1, {1: 1}, True), (3, {0: 1, 1: 2}, True),
    (5, {0: 2, 1: 3}, True), (1, {1: 1}, True), (3, {0: 1, 1: 2}, True),
    (3, {1: 1, 2: 2}, True), (5, {1: 2, 2: 3}, True), (1, {2: 1}, True),
    (3, {3: 1, 4: 2}, True), (9, {2: 1, 3: 4, 4: 4}, True), (3, {3: 1, 4: 2}, True),
    (3, {5: 1, 6: 2}, True), (7, {5: 3, 6: 4}, True), (13, {4: 2, 5: 6, 6: 5}, True),
    (5, {4: 2, 5: 3}, True),
]


def test_start_sources_keep_critical_set():
    # the means, mean midpoints and chord starts find every root the
    # lattice, the mean-shift chains and their samples used to find
    rng = np.random.default_rng(5151)
    battery = [random_mixture_1d(rng, k_max=6) for _ in range(12)]
    battery += [random_mixture(rng, d, k) for d in (2, 4, 6) for k in (2, 4, 6)]
    basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    means = rng.uniform(-1.0, 1.0, size=5) + 2.5 * rng.standard_normal((4, 2)) @ basis.T
    battery.append(Mixture.from_arrays(
        rng.uniform(0.3, 1.0, size=4), means, shared_covariance=random_spd(rng, 5, scale=0.2),
    ))
    found = []
    for m in battery:
        report = find_critical_points(m)
        found.append((report.n_critical, report.counts_by_index, report.all_nondegenerate))
    assert found == START_SOURCE_BATTERY_COUNTS
    # 225 starts with the mean-shift chains and the segments to the means
    report = find_critical_points(random_mixture(np.random.default_rng(47), 6, 6))
    assert report.n_starts <= 225 // 2


def test_chord_quarter_points_find_every_root():
    # highdim pool 104, het_d6k6_1: the chord brackets alone find 6 of the
    # 7 critical points, and that report fails the Morse check
    rng = np.random.default_rng(104)
    random_mixture(rng, 6, 6)
    report = find_critical_points(random_mixture(rng, 6, 6))
    assert report.n_critical == 7
    assert report.counts_by_index == {5: 3, 6: 4}
    assert report.morse_inequality_ok
    assert report.n_starts <= 200      # 386 with the mean-shift chains and the segments to the means


def chord_starts_one_halving_at_a_time(solver, reps):
    """Reference chord starts whose bisection evaluates one midpoint per call.

    Returns the seeds, in the order `_chord_starts` returns them, and the
    number of slope brackets that were bisected.
    """
    d = reps.shape[1]
    first, second = np.triu_indices(len(reps), 1)
    origins = reps[first]
    chords = reps[second] - origins
    keep = np.linalg.norm(chords, axis=1) > 0.0
    origins, chords = origins[keep], chords[keep]

    def slopes(points, directions):
        terms, atimes = solver.component_terms(points)
        w = np.exp(terms - logsumexp(terms, axis=1, keepdims=True))
        return np.einsum("bi,bi->b", directions, -np.einsum("bk,bki->bi", w, atimes))

    ts = np.linspace(0.0, 1.0, 33)[1:-1]
    grid = origins[:, None, :] + ts[None, :, None] * chords[:, None, :]
    vals = slopes(grid.reshape(-1, d), np.repeat(chords, len(ts), axis=0)).reshape(len(origins), len(ts))
    seeds = [grid[:, [7, 15, 23]].reshape(-1, d), grid[vals == 0.0]]
    pair_idx, slot = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    if len(pair_idx):
        t_lo, t_hi = ts[slot], ts[slot + 1]
        f_lo = vals[pair_idx, slot]
        a, direction = origins[pair_idx], chords[pair_idx]
        for _ in range(40):
            t_mid = 0.5 * (t_lo + t_hi)
            f_mid = slopes(a + t_mid[:, None] * direction, direction)
            same = (f_mid > 0.0) == (f_lo > 0.0)
            t_lo = np.where(same, t_mid, t_lo)
            f_lo = np.where(same, f_mid, f_lo)
            t_hi = np.where(same, t_hi, t_mid)
        seeds.append(a + (0.5 * (t_lo + t_hi))[:, None] * direction)
    return np.concatenate(seeds), len(pair_idx)


def test_chord_starts_match_one_halving_at_a_time():
    # the bisection rounds replay 40 halvings on slopes evaluated at every
    # dyadic point they can visit, so each seed is bit-identical
    sweep0 = random_mixture_1d(np.random.default_rng(SWEEP_SEED))
    d1k6 = padded_d1k6_mixture()
    d1k6_roots = np.array([p.location for p in find_critical_points(d1k6).points])
    cases = [
        (sweep0, None, 5),                 # one bracket
        (d1k6, None, 1),                   # 145 brackets
        (d1k6, d1k6_roots[:6], 3),         # 20 brackets: 13 rounds of 3, then one of 1
    ]
    for m, reps, per_round in cases:
        if reps is None:
            reps = np.array([p.location for p in find_critical_points(m).points])
        solver = _LogSolver(m)
        want, n_brackets = chord_starts_one_halving_at_a_time(solver, reps)
        assert n_brackets > 0 and _halvings_per_round(n_brackets) == per_round
        assert np.array_equal(_chord_starts(solver, reps), want)


def cluster_representatives_loop(candidates, tol):
    """Reference greedy clustering: plain Python loop over representatives.

    Returns the representatives and, for each candidate, the index of the
    first representative within tolerance.
    """
    reps, labels = [], [None] * len(candidates)
    for idx in sorted(range(len(candidates)), key=lambda i: tuple(candidates[i])):
        x = candidates[idx]
        hits = [j for j, r in enumerate(reps) if np.linalg.norm(x - r) <= tol * (1.0 + np.linalg.norm(r))]
        if hits:
            labels[idx] = hits[0]
        else:
            labels[idx] = len(reps)
            reps.append(x)
    return reps, labels


def test_cluster_representatives_matches_loop():
    rng = np.random.default_rng(44)
    reps, labels = _cluster(np.empty((0, 2)), 1e-6)
    assert reps.shape == (0, 2) and len(labels) == 0
    for _ in range(300):
        d = int(rng.integers(1, 7))
        centres = rng.uniform(-5.0, 5.0, size=(int(rng.integers(1, 8)), d))
        n = int(rng.integers(1, 60))
        pick = rng.integers(0, len(centres), size=n)
        cloud = centres[pick] + rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-9.0, -4.0, size=(n, 1))
        cloud[rng.random(n) < 0.1] = centres[0]                 # exact duplicates
        candidates = list(cloud)
        got, got_labels = _cluster(candidates, 1e-6)
        want, want_labels = cluster_representatives_loop(candidates, 1e-6)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert list(got_labels) == want_labels
    # fold-shaped input: one degenerate root split into dozens of clusters
    fold = rng.uniform(-1.5e-5, 1.5e-5, size=(3000, 1))
    candidates = list(np.concatenate([fold, fold[rng.integers(0, 3000, size=300)]]))
    got, got_labels = _cluster(candidates, 1e-6)
    want, want_labels = cluster_representatives_loop(candidates, 1e-6)
    assert len(got) == len(want) >= 10
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert list(got_labels) == want_labels


def test_dedup_keeps_best_member_and_cluster_diameter():
    m = pair_mixture_1d()
    # one cluster around the saddle at 0, whose exact centre is neither the
    # first member in lexicographic order nor the cluster's representative;
    # 5e-7 is in the cluster but too far out to pass the gradient test
    saddle = [np.array([2e-10]), np.array([5e-7]), np.array([0.0]), np.array([-1e-10])]
    mode = [np.array([PAIR_MODE + 1e-12]), np.array([PAIR_MODE])]
    points = _dedup_points(saddle + mode, _LogSolver(m), SolverConfig(), reference=0)
    assert len(points) == 2
    centre, top = points
    residuals = {float(x[0]): classify(m, x).gradient_residual
                 for x in saddle if float(np.abs(x[0])) < 1e-9}
    assert float(centre.location[0]) == min(residuals, key=residuals.get) == 0.0
    assert centre.gradient_residual == min(residuals.values())
    assert centre.cluster_diameter == 5e-7 + 1e-10
    best_mode = min(mode, key=lambda x: classify(m, x).gradient_residual)
    assert np.array_equal(top.location, best_mode)
    assert top.cluster_diameter == pytest.approx(1e-12, rel=1e-3)


def test_dedup_orders_mirror_points_by_rounded_location():
    # mirror points whose first coordinates differ in the last ulp keep the
    # order of their second coordinates, whichever first coordinate is larger
    m = product(pair_mixture_1d(), pair_mixture_1d())
    nudged = np.nextafter(PAIR_MODE, np.inf)
    for upper, lower in ((PAIR_MODE, nudged), (nudged, PAIR_MODE)):
        candidates = [np.array([upper, PAIR_MODE]), np.array([lower, -PAIR_MODE])]
        points = _dedup_points(candidates, _LogSolver(m), SolverConfig(), reference=0)
        assert [float(p.location[1]) for p in points] == [-PAIR_MODE, PAIR_MODE]


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
    assert list(doc["config"]) == [f.name for f in dataclasses.fields(SolverConfig)]
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
    coincident = Mixture.from_arrays([0.3, 0.7], [[1.0, 2.0], [1.0, 2.0]],
                                     [np.eye(2), 2.0 * np.eye(2)])
    with pytest.raises(ValueError, match="homoscedastic"):
        solve_reduced_homoscedastic(coincident)


def test_reduced_solve_of_coincident_means():
    # affine rank 0 leaves nothing to reduce; the solve matches the direct one
    m = Mixture.from_arrays([0.3, 0.7], [[1.0, 2.0], [1.0, 2.0]], shared_covariance=np.eye(2))
    report = solve_reduced_homoscedastic(m)
    assert report.n_critical == report.n_modes == 1
    assert np.allclose(report.points[0].location, [1.0, 2.0], atol=1e-12)
    assert report.hom_rank == 0
    assert report.to_dict() == find_critical_points(m).to_dict()


def test_lift_preserves_critical_structure():
    m = lift(pair_mixture_1d(), 3)
    report = find_critical_points(m)
    assert report.n_critical == 3 and report.n_modes == 2
    for p in report.points:
        assert np.all(np.abs(p.location[1:]) <= 1e-7)
