"""Solver tests: reduced system algebra, Newton search, classification."""

import dataclasses
import inspect
import json
import time

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import multivariate_normal

from modecount import (
    Mixture,
    SolveReport,
    SolverConfig,
    classify,
    find_critical_points,
    lift,
    polish_critical,
    product,
    realize_recipe,
    solve_reduced_homoscedastic,
)

import modecount
from modecount import solver as solver_module
from modecount.construct import REALIZE_EPSILON, radial_critical_roots, simplex_seed, tilt_polish
from modecount.mixture import affine_rank, logsumexp, reduce_homoscedastic
from modecount.solver import (
    _SCAN_HALVINGS, _chord_slopes, _chord_starts, _cluster, _dedup_points, _distances, _halvings_per_round,
    _last_max, _last_sum, _LogSolver, _restrict_to_chords, _scan_roots, _softmax, _vector_norms,
)

from conftest import (
    build_reduced, fractions, mean_shift_step, oracle_critical_points_1d, random_mixture_1d, random_spd,
    reduced_jacobian, relative_derivatives, residual_and_jacobian_batch, residual_R, responsibilities, x_of_y,
)
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
    _, _, rel_hess = relative_derivatives(m_deg, np.zeros(1))
    assert abs(rel_hess[0, 0]) < 1e-12


# -- batched Newton in log-ratio coordinates ---------------------------------------


def solve_batch_one_rung_at_a_time(solver, u0, charts, rungs=solver_module.MAX_HALVINGS):
    """Reference damped Newton whose line search tries one halving per call.

    Like `_LogSolver.iterate` with MAX_HALVINGS = rungs, it runs each row of
    log-ratios in its own chart and returns the final rows with the mask of
    converged ones.
    """
    u = np.array(u0, dtype=float)
    norms = np.full(u.shape[0], np.inf)
    finite = np.all(np.isfinite(u), axis=1)
    if np.any(finite):
        norms[finite] = np.linalg.norm(solver.residual_batch(u[finite], charts[finite]), axis=1)
    active = np.isfinite(norms) & (norms > solver._row_tols(u))
    for _ in range(solver_module.NEWTON_MAX_ITER):
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        _, steps = solver.residual_and_step_batch(u[idx], charts[idx])
        good = np.all(np.isfinite(steps), axis=1)
        active[idx[~good]] = False
        pending, steps = idx[good], steps[good]
        scale = np.ones(len(pending))
        for _ in range(rungs):
            if not len(pending):
                break
            cand = u[pending] + scale[:, None] * steps
            cand_norms = np.linalg.norm(solver.residual_batch(cand, charts[pending]), axis=1)
            better = np.isfinite(cand_norms) & (cand_norms < norms[pending])
            u[pending[better]] = cand[better]
            norms[pending[better]] = cand_norms[better]
            pending, steps, scale = pending[~better], steps[~better], scale[~better] * 0.5
        active[pending] = False
        active &= norms > solver._row_tols(u)
    return u, norms <= solver._row_tols(u)


def het_d6k5_solver(seed=41):
    return _LogSolver(random_mixture(np.random.default_rng(seed), 6, 5))


def batch_outputs(solver, u, charts, x):
    """Every per-row output of the evaluations that `iterate`, `polish` and classification run."""
    s, step = solver.residual_and_step_batch(u, charts)
    return (solver.residual_batch(u, charts), s, step, *solver.relative_derivatives(x), solver.polish(x))


def test_residual_rows_do_not_depend_on_batch(simplex_d5k6):
    # The batch is an outer dimension of every einsum/matmul; no 2-D BLAS
    # call spans rows.  A stacked matmul makes one BLAS call per row with the
    # same shape and strides whatever the batch, so a row's bits cannot
    # depend on the rows beside it, on its offset in the batch, or on the
    # batch being a strided slice; folding rows into one 2-D matmul would
    # round them differently, and chunked and stacked solves would drift
    # apart.  Rows in different charts share the batch, with distinct
    # precisions, with one shared precision (X without a solve), full or
    # diagonal, and in 1-d.
    solver = het_d6k5_solver()
    shared = _LogSolver(random_mixture(np.random.default_rng(50), 6, 5, homoscedastic=True))
    simplex = _LogSolver(simplex_d5k6[0])
    sweep = _LogSolver(random_mixture_1d(np.random.default_rng(51)))
    sweep_pair = _LogSolver(pair_mixture_1d())
    assert not solver.shared_precision and shared.shared_precision and simplex.shared_precision
    assert not sweep.shared_precision and sweep_pair.shared_precision
    rng = np.random.default_rng(42)
    for each in (solver, shared, simplex, sweep, sweep_pair):
        m = each.mixture
        u = rng.uniform(-6.0, 6.0, size=(200, m.n_components))
        charts = rng.integers(0, m.n_components, size=200)
        x = rng.uniform(-4.0, 4.0, size=(200, m.dim))
        # the roots and points near them, which polish moves only a little,
        # and points far from them, which stall or move a long way
        roots = np.array([p.location for p in find_critical_points(m).points])
        x[:len(roots)] = roots + 1e-4 * rng.standard_normal(roots.shape)
        stacked = batch_outputs(each, u, charts, x)
        subsets = [slice(1, None, 2), slice(3, 40)] + [slice(i, i + 1) for i in range(200)]
        for rows in subsets:
            alone = batch_outputs(each, u[rows], charts[rows], x[rows])
            assert all(np.array_equal(a[rows], b) for a, b in zip(stacked, alone)), (m.dim, rows)
        # the chart's own residual and step entries are exact
        s, step = stacked[1], stacked[2]
        assert np.all(s[np.arange(200), charts] == 0.0) and np.all(step[np.arange(200), charts] == 0.0)
        polished = stacked[-1][:len(roots)]
        assert np.linalg.norm(each.relative_gradient(polished)[0], axis=1).max() <= 1e-12
    # and so does every row of the k x k Newton matrix behind `reduced_jacobian`
    u = rng.uniform(-6.0, 6.0, size=(200, 5))
    charts = rng.integers(0, 5, size=200)
    s, jac = residual_and_jacobian_batch(solver, u, charts)
    for i in range(len(u)):
        s_i, jac_i = residual_and_jacobian_batch(solver, u[i:i + 1], charts[i:i + 1])
        assert np.array_equal(s[i], s_i[0]) and np.array_equal(jac[i], jac_i[0]), i
    assert np.array_equal(jac[np.arange(200), charts], np.eye(5)[charts])


def test_chord_slope_rows_do_not_depend_on_batch():
    # as for the residual rows: each chord's slopes are the bits it gets
    # alone, at T parameters shared by every chord or at its own T
    rng = np.random.default_rng(43)
    for m in (het_d6k5_solver().mixture, padded_d1k6_mixture(), random_mixture_1d(np.random.default_rng(51))):
        solver = _LogSolver(m)
        lo, hi = m.means.min(axis=0), m.means.max(axis=0)
        origins = rng.uniform(lo, hi, size=(60, m.dim))
        chords = rng.uniform(lo, hi, size=(60, m.dim)) - origins
        top, q, vertex = _restrict_to_chords(solver, origins, chords)
        shared = np.linspace(0.0, 1.0, 33)[1:-1]
        per_row = rng.uniform(0.0, 1.0, size=(60, 7))
        for t in (shared, per_row):
            stacked = _chord_slopes(top, q, vertex, t)
            assert stacked.shape == (60, t.shape[-1]) and np.all(np.isfinite(stacked))
            for i in range(60):
                alone = _chord_slopes(top[i:i + 1], q[i:i + 1], vertex[i:i + 1], t if t.ndim == 1 else t[i:i + 1])
                assert np.array_equal(stacked[i], alone[0]), (m.dim, m.n_components, t.ndim, i)


def test_softmax_is_accurate_to_a_few_ulps():
    # exp(a - max a) / sum is good to a few ulps whatever the size of a,
    # where exp(a - logsumexp(a)) inherits the rounding of logsumexp(a), up
    # to half an ulp of max |a|.  Each row spans `spread` log-units; its
    # largest entries lie within 40 of the maximum (some tied with it) at a
    # random offset of size up to `spread`, and some rows hold a -inf.  The
    # entries sit on a 2^-20 grid, so a - max a is exact and the reference,
    # taken in extended precision from the same doubles, measures only the
    # rounding the formula adds.
    ld_eps, eps, tiny = np.finfo(np.longdouble).eps, np.finfo(float).eps, np.finfo(float).tiny
    assert ld_eps < eps / 1024          # the reference is at least 10 bits wider
    rng = np.random.default_rng(17)
    for spread, lse_err_floor in ((1.0, 0.0), (1e3, 64.0), (1e5, 4096.0), (2e5, 4096.0)):
        offset = rng.uniform(-spread, spread, size=(200, 1))
        gaps = rng.uniform(0.0, 40.0, size=(200, 6))
        gaps[:, 0] = 0.0
        gaps[::3, 1] = 0.0                  # ties with the maximum
        gaps[:, 5] = spread
        a = np.ldexp(np.round(np.ldexp(offset - gaps, 20)), -20)
        a[1::4, 2] = -np.inf
        a = rng.permuted(a, axis=1)
        w = _softmax(a)
        e = np.exp(a.astype(np.longdouble) - a.max(axis=1, keepdims=True))
        ref = e / e.sum(axis=1, keepdims=True)
        normal = ref >= tiny
        err = np.abs(w - ref)[normal] / ref[normal]
        assert err.max() <= 4.0 * eps, (spread, err.max() / eps)
        assert np.all(w[~normal] < tiny)    # the reference underflows, and so does w
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 2.0 * eps
        assert np.all(w[a == -np.inf] == 0.0)
        via_lse = np.exp(a - logsumexp(a)[:, None])
        assert (np.abs(via_lse - ref)[normal] / ref[normal]).max() >= lse_err_floor * eps, spread
    # a row holding +inf or NaN comes out NaN, which `_damped_newton` drops
    with np.errstate(invalid="ignore"):
        w = _softmax(np.array([[np.inf, 0.0, -1.0], [np.nan, 0.0, 1.0], [0.0, np.inf, np.inf], [0.0, 1.0, 2.0]]))
    assert np.all(np.isnan(w[:3])) and np.all(np.isfinite(w[3]))


def test_last_axis_reductions_match_numpy():
    # `_last_max` and `_last_sum` reduce a Fortran-ordered copy, one
    # elementwise pass per entry of the last axis.  numpy also takes a last
    # axis of 1-7 entries in sequence, so the bits agree, infinities, NaNs
    # and signed zeros included, on contiguous arrays and strided slices.
    rng = np.random.default_rng(19)
    specials = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0])

    def same_bits(got, want):
        got, want = np.asarray(got), np.asarray(want)
        return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
                and np.array_equal(np.signbit(got), np.signbit(want)))

    for k in range(1, 8):
        for shape in ((2 * k,), (400, 2 * k), (30, 11, 2 * k)):
            big = rng.standard_normal(shape) * np.exp(rng.uniform(-40.0, 40.0, shape))
            flat = big.reshape(-1)
            at = rng.choice(flat.size, flat.size // 8, replace=False)
            flat[at] = rng.choice(specials, len(at))
            if big.ndim > 1:
                big[0] = -0.0                   # all-negative-zero rows sum to -0.0
            views = [np.ascontiguousarray(big[..., :k]), big[..., ::2], big[..., k:]]
            if big.ndim > 1:
                views += [big[::3, ..., :k], np.ascontiguousarray(big[..., :k])[::2]]
            for a in views:
                assert a.shape[-1] == k
                with np.errstate(invalid="ignore"):
                    assert same_bits(_last_max(a), a.max(axis=-1)), (k, a.shape, a.strides)
                    assert same_bits(_last_sum(a), a.sum(axis=-1)), (k, a.shape, a.strides)
    # each (T, k) block and each k-vector of an (n, T, k) softmax batch is
    # the bits it gets alone
    a = rng.uniform(-50.0, 50.0, size=(40, 9, 6))
    a[::5, :, 2] = -np.inf
    w = _softmax(a)
    for i in range(len(a)):
        assert np.array_equal(w[i], _softmax(a[i:i + 1])[0]) and np.array_equal(w[i], _softmax(a[i]))
        for t in range(a.shape[1]):
            assert np.array_equal(w[i, t], _softmax(a[i, t])), (i, t)


def test_solve_rows_gives_nan_only_to_singular_rows(monkeypatch):
    # one exactly singular matrix in the batch: one batched slogdet picks it
    # out and the other rows are solved in one more call, with the bits each
    # gets alone
    rng = np.random.default_rng(46)
    mat = rng.standard_normal((50, 3, 3))
    mat[17] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]]     # an exact zero pivot
    rhs = rng.standard_normal((50, 3))
    calls = []
    inner = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(len(a)) or inner(a, b))
    got = solver_module._solve_rows(mat, rhs)
    assert len(calls) <= 2
    assert np.flatnonzero(~np.isfinite(got).all(axis=1)).tolist() == [17] and np.isnan(got[17]).all()
    for i in set(range(50)) - {17}:
        assert np.array_equal(got[i], inner(mat[i], rhs[i])), i
    calls.clear()
    assert np.array_equal(solver_module._solve_rows(mat[:17], rhs[:17]), got[:17]) and calls == [17]
    # rows with a NaN or infinite entry come back NaN, without a warning
    mat[3, 0, 0], mat[4, 1], rhs[5, 0] = np.nan, [np.inf, -np.inf, 0.0], np.inf
    got = solver_module._solve_rows(mat, rhs)
    assert np.flatnonzero(~np.isfinite(got).all(axis=1)).tolist() == [3, 4, 5, 17]
    # at the fold of the pair at +-1 with unit variance K_w is exactly 0, so
    # that row's Newton step is NaN and no other row's changes
    solver = _LogSolver(pair_mixture_1d(1.0))
    u = np.concatenate([[[0.0, 0.0]], rng.uniform(-3.0, 0.0, size=(20, 2))])
    u[1:, 1] = 0.0
    charts = np.ones(len(u), dtype=int)
    s, step = solver.residual_and_step_batch(u, charts)
    assert np.isnan(step[0, 0]) and np.isfinite(step[1:]).all()
    for i in range(1, len(u)):
        assert np.array_equal(step[i], solver.residual_and_step_batch(u[i:i + 1], charts[i:i + 1])[1][0]), i


def test_step_matches_newton_matrix_solve(simplex_d5k6):
    # the one d x d solve of `residual_and_step_batch` against np.linalg.solve
    # on the k x k Newton matrix of `conftest.residual_and_jacobian_batch`,
    # on rows in their dominant chart, where the Newton loop runs them:
    # random mixtures with d, k in 1..6, the padded d1k6 witness (components
    # up to 470 standard deviations apart) and points near the simplex d5k6
    # roots.
    # Both are solves of the same rounded system, so they differ in the
    # rounding of the solve, which the condition number of the Newton matrix
    # amplifies: the worst row of these cases differs by 1.7 eps cond(J)
    # relative, so 16 eps cond(J) leaves a tenfold margin.  With distinct
    # precisions the residual is the oracle's, bit for bit; with a shared
    # one it comes from the chart's Gram matrix, not from the component
    # terms at X, and agrees with them to rounding of the largest term.
    rng = np.random.default_rng(48)
    cases = []
    for d in range(1, 7):
        for k in range(1, 7):
            m = random_mixture(rng, d, k, homoscedastic=bool((d + k) % 2))
            x = rng.uniform(m.means.min(axis=0) - 2.0, m.means.max(axis=0) + 2.0, size=(60, d))
            cases.append((m, x, random_starts(rng, k, 20.0, 60)))
    d1k6 = padded_d1k6_mixture()
    roots = np.array([p.location for p in find_critical_points(d1k6).points])
    cases.append((d1k6, np.concatenate([roots + 10.0 ** -e * rng.standard_normal(roots.shape) for e in (3, 6, 9)]),
                  None))
    d5k6, report = simplex_d5k6
    roots = np.array([p.location for p in report.points])
    cases.append((d5k6, np.concatenate([roots + 10.0 ** -e * rng.standard_normal(roots.shape) for e in (2, 4, 8)]),
                  None))
    eps = np.finfo(float).eps
    for m, x, more in cases:
        solver = _LogSolver(m)
        u, charts = solver.chart_coords(x)
        if more is not None:
            u, charts = np.concatenate([u, more[0]]), np.concatenate([charts, more[1]])
        s, step = solver.residual_and_step_batch(u, charts)
        s_ref, jac = residual_and_jacobian_batch(solver, u, charts)
        if solver.shared_precision:
            terms, _ = solver.component_terms(solver.x_batch(u)[0])
            assert np.all(np.abs(s - s_ref) <= 16.0 * eps * (1.0 + np.abs(terms).max(axis=1))[:, None])
        else:
            assert np.array_equal(s, s_ref)
        want = np.linalg.solve(jac, -s[..., None])[..., 0]
        gap = np.linalg.norm(step - want, axis=1)
        assert np.all(gap <= 16.0 * eps * np.linalg.cond(jac) * np.linalg.norm(want, axis=1))


def test_gram_residual_is_exact_far_from_the_origin():
    # A shared-precision row's residual comes from its chart's Gram matrix
    # of delta_j = mu_j - mu_c, which does not depend on where the origin
    # is.  The reference is the reduced system's quadratics taken exactly
    # (`build_reduced(rational=True)`) at the exact X(y) = sum_j w_j mu_j /
    # sum_j w_j of the row's weights.  The residual stays at rounding of the
    # row's largest component term on a rank-deficient d = 6 mixture whose
    # means sit 1e3 from the origin, where the float quadratics are off by
    # about 1e-10, and on the padded d1k6 witness, 470 standard deviations
    # wide: rows near the means or the roots, and random starts.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(60)
    d, r, k = 6, 3, 5
    basis = np.linalg.qr(rng.standard_normal((d, r)))[0]
    offset = rng.standard_normal(d)
    means = 1e3 * offset / np.linalg.norm(offset) + 2.5 * rng.standard_normal((k, r)) @ basis.T
    far = Mixture.from_arrays(rng.uniform(0.2, 1.0, k), means, shared_covariance=random_spd(rng, d, 0.2))
    assert affine_rank(far.means) == r
    d1k6 = padded_d1k6_mixture()
    roots = np.array([p.location for p in find_critical_points(d1k6).points])
    cases = [(far, means[rng.integers(0, k, 40)] + rng.standard_normal((40, d))),
             (d1k6, np.concatenate([roots + 10.0 ** -e * rng.standard_normal(roots.shape) for e in (3, 9)]))]
    for m, x in cases:
        solver = _LogSolver(m)
        assert solver.shared_precision
        u, charts = solver.chart_coords(x)
        more = random_starts(rng, m.n_components, 20.0, 40)
        u, charts = np.concatenate([u, more[0]]), np.concatenate([charts, more[1]])
        s = solver.residual_batch(u, charts)
        terms, _ = solver.component_terms(solver.x_batch(u)[0])
        bounds = 16.0 * eps * (1.0 + np.abs(terms).max(axis=1))
        systems = [build_reduced(m, c, rational=True) for c in range(m.n_components)]
        mu, weights = fractions(m.means), fractions(_softmax(u))
        for i, c in enumerate(charts):
            free = list(systems[c].free)
            q = systems[c].q_values(weights[i] @ mu / weights[i].sum()).astype(float)
            want = u[i, free] - u[i, c] - (systems[c].log_betas + q)
            assert np.max(np.abs(s[i, free] - want)) <= bounds[i], (m.dim, i)


def test_shared_precision_solve_does_not_depend_on_dim():
    # Shared-precision Newton rows run on the k x k Gram matrices, which a
    # lift's zero pad coordinates leave as they are: the lifted mixture
    # runs the same starts to the same roots, padded with zeros, and each
    # point gains two negative Hessian eigenvalues, so its index rises by 2.
    rng = np.random.default_rng(64)
    for d, k, n_critical in ((3, 4, 9), (3, 5, 15)):
        base = Mixture.from_arrays(rng.uniform(0.2, 1.0, k), rng.uniform(-3.0, 3.0, (k, d)),
                                   shared_covariance=random_spd(rng, d, 0.1))
        lifted = lift(base, d + 2)
        want, got = find_critical_points(base), find_critical_points(lifted)
        assert want.n_critical == n_critical
        assert (got.n_starts, got.n_converged) == (want.n_starts, want.n_converged)
        assert got.counts_by_index == {i + 2: c for i, c in want.counts_by_index.items()}
        padded = np.array([np.concatenate([p.location, np.zeros(2)]) for p in want.points])
        locations = np.array([p.location for p in got.points])
        assert np.all(np.abs(locations - padded) <= 1e-12 * (1.0 + np.abs(padded)))


def test_shared_precision_path_matches_generic_solve(monkeypatch):
    # with bitwise-equal precisions X(w) = sum_j w_j mu_j and M_w = A, taken
    # without a solve, agree with M_w^{-1} nu_w to rounding
    rng = np.random.default_rng(49)
    pairs = product(pair_mixture_1d(), pair_mixture_1d())
    calls = []
    inner = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(len(a)) or inner(a, b))
    for m in (pairs, lift(pairs, 3), padded_d1k6_mixture()):
        shared, generic = _LogSolver(m), _LogSolver(m)
        assert shared.shared_precision
        generic.shared_precision = False
        roots = np.array([p.location for p in find_critical_points(m).points])
        x = np.concatenate([roots, m.means, rng.uniform(m.means.min(axis=0) - 3.0, m.means.max(axis=0) + 3.0,
                                                         size=(200, m.dim))])
        u = np.concatenate([shared.chart_coords(x)[0], rng.uniform(-40.0, 40.0, size=(200, m.n_components))])
        calls.clear()
        got, w, m_mat = shared.x_batch(u)
        assert calls == []
        want, w_ref, m_ref = generic.x_batch(u)
        assert calls == [len(u)]
        assert np.array_equal(w, w_ref)
        assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-14 * np.linalg.norm(want, axis=1))
        assert np.all(np.abs(m_mat - m_ref) <= 1e-14 * np.abs(m_ref).max())
    # one covariance entry one ulp off: the precisions differ, so the solver
    # takes the generic path
    cov = random_spd(rng, 3)
    nudged = cov.copy()
    nudged[1, 1] = np.nextafter(cov[1, 1], np.inf)
    m = Mixture.from_arrays([0.3, 0.3, 0.4], rng.standard_normal((3, 3)), [cov, nudged, cov])
    assert not np.array_equal(m.precisions[0], m.precisions[1])
    solver = _LogSolver(m)
    assert not solver.shared_precision
    calls.clear()
    solver.x_batch(rng.standard_normal((5, 3)))
    assert calls == [5]
    assert _LogSolver(Mixture.from_arrays([0.3, 0.3, 0.4], m.means, [cov, cov, cov])).shared_precision


def test_shared_precision_product_matches_per_component_products(simplex_d5k6):
    # `component_terms` takes a shared precision's A(x - mu_i) as one
    # (k, d) @ (d, d) product (x - mu_i)'A per row.  For a diagonal A each
    # entry is one exact product either way, so it keeps the bits of the
    # per-component products; for a full A it agrees with them to rounding
    # of |x - mu_i|'|A|.
    rng = np.random.default_rng(53)

    def terms_oracle(solver, x):
        diff = x[:, None, :] - solver.means[None]
        atimes = np.matmul(solver.precisions, diff[..., None])[..., 0]
        return solver.log_wn - 0.5 * np.einsum("bki,bki->bk", diff, atimes), atimes, diff

    padded = padded_d1k6_mixture()
    for m, report in (simplex_d5k6, (padded, find_critical_points(padded))):
        solver = _LogSolver(m)
        a = solver.precisions[0]
        assert solver.shared_precision and np.array_equal(a, np.diag(np.diag(a)))
        roots = np.array([p.location for p in report.points])
        lo, hi = m.means.min(axis=0), m.means.max(axis=0)
        x = np.concatenate([roots, m.means, rng.uniform(lo - 3.0, hi + 3.0, size=(300, m.dim))])
        terms, atimes = solver.component_terms(x)
        terms_ref, atimes_ref, _ = terms_oracle(solver, x)
        assert np.array_equal(atimes, atimes_ref) and np.array_equal(terms, terms_ref), m.dim
    shared = _LogSolver(random_mixture(np.random.default_rng(50), 6, 5, homoscedastic=True))
    a = shared.precisions[0]
    assert shared.shared_precision and np.count_nonzero(a - np.diag(np.diag(a)))
    x = rng.uniform(-4.0, 4.0, size=(2000, 6))
    _, atimes = shared.component_terms(x)
    _, atimes_ref, diff = terms_oracle(shared, x)
    scale = np.matmul(np.abs(diff), np.abs(a))
    assert np.all(np.abs(atimes - atimes_ref) <= 4.0 * np.finfo(float).eps * scale)


def polish_one_point(mixture, x):
    """Reference polish: scalar damped Newton on the relative gradient.

    It evaluates `conftest.relative_derivatives` at every rung, makes at most
    8 steps of up to 20 rungs, takes a step only if it lowers the gradient
    norm and stops at a norm of 1e-15, as `_LogSolver.polish` does.
    """
    def derivatives(p):
        _, g, h = relative_derivatives(mixture, p)
        return float(np.linalg.norm(g)), g, h

    res, g, h = derivatives(x)
    for _ in range(8):
        if res <= 1e-15:
            break
        try:
            step = np.linalg.solve(h - np.outer(g, g), -g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        for j in range(20):
            cand = x + 0.5 ** j * step
            cand_res, cand_g, cand_h = derivatives(cand)
            if np.isfinite(cand_res) and cand_res < res:
                x, res, g, h = cand, cand_res, cand_g, cand_h
                break
        else:
            break
    return x


def test_batched_polish_and_classification_match_per_point_oracles():
    # `conftest.relative_derivatives` and `mean_shift_step` evaluate one point
    # through the mixture's own component terms and share no code with the
    # solver's batched path; they agree up to rounding
    rng = np.random.default_rng(SWEEP_SEED)
    mixtures = [
        random_mixture_1d(rng),                                 # sweep instance 0
        padded_d1k6_mixture(),                                  # remote witness
        random_mixture(np.random.default_rng(47), 6, 6),        # highdim
    ]
    for m in mixtures:
        report = find_critical_points(m)
        for p in report.points:
            x = p.location
            log_value, _, rel_hess = relative_derivatives(m, x)
            eigs = np.linalg.eigvalsh(rel_hess)
            assert np.max(np.abs(np.array(p.hessian_eigenvalues) - eigs)) <= 1e-13 * np.max(np.abs(eigs))
            assert abs(p.log_density - log_value) <= 1e-14 * (1.0 + abs(log_value))
            ms_residual = np.linalg.norm(mean_shift_step(m, x) - x)
            assert abs(p.mean_shift_residual - ms_residual) <= 1e-14 * (1.0 + np.linalg.norm(x))
        roots = np.array([p.location for p in report.points])
        noise = rng.standard_normal(roots.shape) * (1.0 + np.abs(roots))
        for offset in (1e-9, 1e-5):
            starts = roots + offset * noise
            polished = _LogSolver(m).polish(starts)
            for x0, got in zip(starts, polished):
                want = polish_one_point(m, x0)
                assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + np.linalg.norm(want))
                assert np.array_equal(polish_critical(m, x0), got)


def random_starts(rng, k, spread, n):
    """Log-ratio rows uniform in [-spread, spread]^k, each in its argmax chart."""
    u0 = rng.uniform(-spread, spread, size=(n, k))
    charts = np.argmax(u0, axis=1)
    return u0 - u0[np.arange(n), charts][:, None], charts


def test_blocked_ladder_matches_one_rung_at_a_time(monkeypatch):
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
        for rungs in (12, 60, 5, 0):
            monkeypatch.setattr(solver_module, "MAX_HALVINGS", rungs)
            u, converged = solver.iterate(u0, charts)
            ref_u, ref_converged = solve_batch_one_rung_at_a_time(solver, u0, charts, rungs)
            assert np.array_equal(converged, ref_converged)
            assert np.array_equal(u, ref_u)
            roots, count = solver.solve_batch(x0)
            assert count == np.count_nonzero(converged[300:])
            assert np.array_equal(roots, solver.x_batch(u[300:][converged[300:]])[0])


def damped_newton_reference(u0, evaluate, residual, tolerance, max_iter: int, rungs: int):
    """`_damped_newton` as it was before it carried the active rows as one
    index array and cached each row's tolerance, kept as the oracle that
    the leaner loop must match bit for bit."""
    u = np.array(u0, dtype=float)
    n, m = u.shape
    steps = np.full((n, m), np.nan)
    stale = np.zeros(n, dtype=bool)       # rows whose step is not taken at u
    norms = np.full(n, np.inf)
    finite = np.flatnonzero(np.all(np.isfinite(u), axis=1))
    if len(finite):
        s, steps[finite] = evaluate(u[finite], finite)
        norms[finite] = np.linalg.norm(s, axis=1)
    active = np.isfinite(norms) & (norms > tolerance(u))

    for _ in range(max_iter):
        if not np.any(active):
            break
        renew = np.flatnonzero(active & stale)
        if len(renew):
            _, steps[renew] = evaluate(u[renew], renew)
            stale[renew] = False
        idx = np.flatnonzero(active)
        good = np.all(np.isfinite(steps[idx]), axis=1)
        active[idx[~good]] = False

        pending = idx[good]
        step = steps[pending]
        # Halving ladder: rung j tries the step scaled by 2^-j, and a row
        # takes its first improving rung.  Rung 0, the full step, is
        # evaluated with its own Newton step, so a row that takes it starts
        # its next step without another call.  The rows it does not improve
        # try rungs 1 ... rungs - 1 in one stacked residual call, which
        # accepts exactly what trying them one at a time would.
        if rungs >= 1 and len(pending):
            cand = u[pending] + step
            cand_s, cand_steps = evaluate(cand, pending)
            cand_norms = np.linalg.norm(cand_s, axis=1)
            better = np.isfinite(cand_norms) & (cand_norms < norms[pending])
            took = pending[better]
            u[took], norms[took], steps[took] = cand[better], cand_norms[better], cand_steps[better]
            pending, step = pending[~better], step[~better]
        if rungs >= 2 and len(pending):
            scales = np.ldexp(1.0, -np.arange(1, rungs))
            cand = u[pending][:, None, :] + scales[None, :, None] * step[:, None, :]
            cand_norms = np.linalg.norm(
                residual(cand.reshape(-1, m), np.repeat(pending, len(scales))), axis=1,
            ).reshape(len(pending), len(scales))
            better = np.isfinite(cand_norms) & (cand_norms < norms[pending][:, None])
            hit = better.any(axis=1)
            rows = np.flatnonzero(hit)
            rung = better[rows].argmax(axis=1)
            took = pending[rows]
            u[took], norms[took] = cand[rows, rung], cand_norms[rows, rung]
            stale[took] = True
            pending = pending[~hit]
        active[pending] = False          # no improving step: give up on these
        active &= norms > tolerance(u)

    return u, np.isfinite(norms) & (norms <= tolerance(u))


def test_damped_newton_matches_reference_loop(monkeypatch):
    # One batch mixes rows that converge after different numbers of steps
    # (starts 1e-8, 1e-3 and 1e-1 from the roots), rows that stall (starts
    # far out), and rows that start non-finite; polish runs the same loop on
    # the same kind of batch, with one scalar tolerance for every row.
    solver = het_d6k5_solver()
    m = solver.mixture
    rng = np.random.default_rng(47)
    roots = np.array([p.location for p in find_critical_points(m).points])
    near = np.concatenate([roots + scale * rng.standard_normal(roots.shape) for scale in (1e-8, 1e-3, 1e-1)])
    x0 = np.concatenate([near, rng.uniform(-8.0, 8.0, size=(150, m.dim))])
    u0, charts = solver.chart_coords(x0)
    far_u0, far_charts = random_starts(rng, m.n_components, 8.0, 150)
    u0, charts = np.concatenate([u0, far_u0]), np.concatenate([charts, far_charts])
    u0[3, 1], u0[len(near) + 4, 0], u0[len(near) + 8, 2] = np.nan, np.inf, -np.inf
    x0[5, 2], x0[len(near) + 6, 0] = np.nan, -np.inf
    nonfinite = ~np.all(np.isfinite(u0), axis=1)

    def run(impl, rungs, max_iter):
        monkeypatch.setattr(solver_module, "MAX_HALVINGS", rungs)
        monkeypatch.setattr(solver_module, "_POLISH_RUNGS", rungs)
        monkeypatch.setattr(solver_module, "NEWTON_MAX_ITER", max_iter)
        monkeypatch.setattr(solver_module, "_POLISH_STEPS", max_iter)
        out = []
        monkeypatch.setattr(solver_module, "_damped_newton", lambda *args: out.append(impl(*args)) or out[-1])
        solver.iterate(u0, charts)
        solver.polish(x0)
        return out

    lean = solver_module._damped_newton
    finals = {}
    for rungs in (0, 1, 12):
        for max_iter in (2, 200):
            got, want = run(lean, rungs, max_iter), run(damped_newton_reference, rungs, max_iter)
            assert len(got) == len(want) == 2
            for (u, ok), (ref_u, ref_ok) in zip(got, want):
                assert np.array_equal(u, ref_u, equal_nan=True) and np.array_equal(ok, ref_ok), (rungs, max_iter)
            finals[rungs, max_iter] = got
    # the batch holds what it should: rows that need more than two steps,
    # rows that never converge, and non-finite rows that stay where they are
    # and do not count as converged, though a row at +-inf gets tolerance inf
    ((u, full), (_, polished)), ((_, short), _) = finals[12, 200], finals[12, 2]
    assert 0 < np.count_nonzero(short) < np.count_nonzero(full) < len(u0)
    assert np.array_equal(u[nonfinite], u0[nonfinite], equal_nan=True)
    assert not full[nonfinite].any() and not polished[~np.all(np.isfinite(x0), axis=1)].any()


def counting_residual_calls(solver):
    """Wrap the solver's two residual evaluations; returns {name: [calls, rows]}."""
    counts = {}
    for name in ("residual_batch", "residual_and_step_batch"):
        inner = getattr(solver, name)
        counts[name] = [0, 0]

        def counted(u, charts, inner=inner, count=counts[name]):
            count[0] += 1
            count[1] += len(u)
            return inner(u, charts)

        setattr(solver, name, counted)
    return counts


def test_stalled_rows_give_up_after_one_ladder(monkeypatch):
    # rows that cannot lower |S| with 1/2048 of their Newton step sit in a
    # local minimum of |S| that is not a root; the default cap drops them
    # instead of letting them crawl through 60 rungs for 200 iterations
    u0, charts = random_starts(np.random.default_rng(43), 5, 8.0, 300)
    rows = []
    assert solver_module.MAX_HALVINGS == 12
    for rungs in (12, 60):
        monkeypatch.setattr(solver_module, "MAX_HALVINGS", rungs)
        solver = het_d6k5_solver()
        inner = solver.residual_batch
        counts = counting_residual_calls(solver)
        u, converged = solver.iterate(u0, charts)
        roots, root_charts = u[converged], charts[converged]
        rows.append(sum(rows_seen for _, rows_seen in counts.values()))
        assert len(roots) > 0
        norms = np.linalg.norm(inner(roots, root_charts), axis=1)
        assert np.all(norms <= solver._row_tols(roots))
    assert rows[0] <= rows[1] / 3


def test_full_steps_reuse_their_newton_matrix():
    # rows started next to roots accept every full Newton step, and a full
    # step is evaluated with its own Newton step: one residual_and_step call
    # per iteration plus the initial one, and no residual_batch call
    for m in (het_d6k5_solver().mixture, product(pair_mixture_1d(), pair_mixture_1d())):
        roots = np.array([p.location for p in find_critical_points(m).points])
        rng = np.random.default_rng(45)
        for offset in (1e-8, 1e-3):
            x0 = roots + offset * rng.standard_normal(roots.shape)
            reference = _LogSolver(m)
            u0, charts = reference.chart_coords(x0)
            ref_counts = counting_residual_calls(reference)
            ref_u, ref_converged = solve_batch_one_rung_at_a_time(reference, u0, charts)
            iterations = ref_counts["residual_and_step_batch"][0]
            # the reference tries one rung per iteration: every full step is taken
            assert ref_counts["residual_batch"][0] == iterations + 1
            assert ref_converged.all()
            solver = _LogSolver(m)
            counts = counting_residual_calls(solver)
            u, converged = solver.iterate(u0, charts)
            assert counts["residual_and_step_batch"][0] == iterations + 1
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
    # in the chart of the start's dominant component a start 1e-8 from either
    # antimode converges.  In the chart of the largest weight (component 5,
    # at 473.4) the iteration from either antimode stalls at its rounding
    # floor, a few 1e-12 relative from the root, with |S| between 0.8 and
    # 1.9 times its row tolerance near 1.7e-7; on which side of 1 it stops
    # is rounding luck, so only the floor is pinned
    solver = _LogSolver(padded_d1k6_mixture())
    for root in (-124.68419998655692, 54.36768907309745):
        x0 = np.array([[root + 1e-8]])
        roots, count = solver.solve_batch(x0)
        assert count == 1
        assert abs(roots[0, 0] - root) <= 1e-12 * abs(root)
        terms, _ = solver.component_terms(x0)
        in_chart_5 = terms - terms[:, 5:]
        charts = np.array([5])
        u, _ = solver.iterate(in_chart_5, charts)
        # the next critical point is tens of units away
        assert abs(solver.x_batch(u)[0][0, 0] - root) <= 1e-11 * abs(root)
        assert np.linalg.norm(solver.residual_batch(u, charts)[0]) <= 2.0 * solver._row_tols(u)[0]


def test_halving_cap_keeps_critical_set(monkeypatch):
    # the default cap drops stalled starts only: the first three instances
    # lose converged starts against MAX_HALVINGS = 60, and all keep their
    # critical set
    rng = np.random.default_rng(SWEEP_SEED)
    sweep = [random_mixture_1d(rng) for _ in range(79)]
    instances = [
        sweep[26],
        sweep[78],
        random_mixture(np.random.default_rng(47), 6, 6),
        product(pair_mixture_1d(), pair_mixture_1d()),
    ]
    assert solver_module.MAX_HALVINGS == 12
    for m in instances:
        capped = find_critical_points(m)
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "MAX_HALVINGS", 60)
            deep = find_critical_points(m)
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


def needles_mixture(k):
    """k thin needles in the plane, equal weights: component i has unit
    normal n_i at angle pi i / k + 0.1, mean n_i and covariance
    4 t_i t_i' + 4e-4 n_i n_i' with t_i the unit tangent."""
    angles = np.pi * np.arange(k) / k + 0.1
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    tangents = np.stack([-np.sin(angles), np.cos(angles)], axis=1)
    covs = 4.0 * np.einsum("ki,kj->kij", tangents, tangents) + 4e-4 * np.einsum("ki,kj->kij", normals, normals)
    return Mixture.from_arrays(np.full(k, 1.0 / k), normals, covs)


@pytest.mark.parametrize("k, floor", [(3, 9), (4, 13), (5, 17)])
def test_needles_keep_their_critical_points(k, floor):
    # A no-loss floor, not the truth: the needles have 13, 25 and 41
    # critical points (a dense start set finds them all), and the solver's
    # mean, midpoint and chord starts find 9, 13 and 17.  A rounding-level
    # change in the Newton engine must not quietly lose any of those, which
    # the benchmark's fingerprints alone would not show.
    assert find_critical_points(needles_mixture(k)).n_critical >= floor


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


# -- the scalar route: d = 1, and k = 2 in any d ------------------------------------


def test_fold_pair_is_one_degenerate_point():
    # the unit-variance pair at +-1 sits on its fold, where the slope goes
    # like x^3: the chord rounds split the one root into 25 points (24 modes)
    # within 1.5e-5 of 0 from 64,826 starts
    m = Mixture.from_arrays([0.5, 0.5], [[-1.0], [1.0]], shared_covariance=np.eye(1))
    start = time.perf_counter()
    report = find_critical_points(m)
    assert time.perf_counter() - start < 1.0
    assert report.n_critical == 1 and report.points[0].degenerate
    assert abs(report.points[0].location[0]) <= 1.5e-5
    assert report.n_starts == 1


def narrow_remote_battery_1d(seed, n):
    """n 1-d mixtures with k = 2..6, means in U(-10, 10) and standard
    deviations log-uniform on [0.05, 3], so components can sit hundreds of
    their standard deviations apart."""
    rng = np.random.default_rng(seed)
    battery = []
    for _ in range(n):
        k = int(rng.integers(2, 7))
        means = rng.uniform(-10.0, 10.0, size=(k, 1))
        sigmas = np.exp(rng.uniform(np.log(0.05), np.log(3.0), size=k))
        battery.append(Mixture.from_arrays(rng.uniform(0.2, 1.0, size=k), means, sigmas[:, None, None] ** 2))
    return battery


def test_segment_route_matches_oracle_on_narrow_and_remote_components():
    battery = narrow_remote_battery_1d(2121, 60)
    # two mixtures of the battery's kind (seed 7, #418 and #2654) on which
    # the chord rounds found 4 of 5 and 2 of 3 critical points
    for weights, means, sigmas in [
        ([0.11600674810614428, 0.40810243218633285, 0.47589081970752284],
         [-9.509024393789595, 9.984373350016178, -6.652800489935348],
         [0.5416469346901898, 0.06432988929919893, 2.773189340556445]),
        ([0.5048474238140217, 0.4951525761859783],
         [6.347037703120652, -9.038767896055575],
         [0.06031627771264847, 2.4317782739846097]),
    ]:
        battery.append(Mixture.from_arrays(weights, np.array(means)[:, None], np.array(sigmas)[:, None, None] ** 2))
    for m in battery:
        want = oracle_critical_points_1d(m)
        found = np.sort([p.location[0] for p in find_critical_points(m).points])
        assert len(found) == len(want)
        assert np.max(np.abs(found - want)) <= 1e-6
    report = find_critical_points(padded_d1k6_mixture())
    assert report.n_critical == 11 and report.counts_by_index == {0: 5, 1: 6}


def elongated_pair(d, rep):
    """Pair `rep` of dimension d among 360 elongated two-component mixtures.

    Drawn from default_rng(11), 60 for each d = 1..6 in turn: the means from
    U(-2, 2)^d, the weights from U(0.3, 1), then for each component a
    covariance Q diag(e) Q' with Q the Q factor of a Gaussian matrix and e
    log-uniform on [1e-3, 3] with e_0 = 3.
    """
    rng = np.random.default_rng(11)
    for dim in range(1, 7):
        for i in range(60):
            means = rng.uniform(-2.0, 2.0, size=(2, dim))
            weights = rng.uniform(0.3, 1.0, size=2)
            covs = []
            for _ in range(2):
                q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
                e = np.exp(rng.uniform(np.log(1e-3), np.log(3.0), size=dim))
                e[0] = 3.0
                covs.append(q @ np.diag(e) @ q.T)
            if (dim, i) == (d, rep):
                return Mixture.from_arrays(weights, means, np.array(covs))
    raise ValueError(f"no pair ({d}, {rep})")


def ridgeline_roots(mixture, n_grid=20001, halvings=60):
    """The critical points of a two-component mixture, from its ridgeline, with no solver code.

    Each critical point is x*(s) = (a A_0 + b A_1)^-1 (a A_0 mu_0 + b A_1 mu_1),
    a = 1 / (1 + e^-s) and b = 1 - a, at a root of
    g(s) = l_0(x*(s)) - l_1(x*(s)) - s with l_i = log(alpha_i phi_i)
    (Ray & Lindsay, Ann. Statist. 33, 2005).  x*(s) is one np.linalg.solve
    per s; g is scanned on s = sinh(linspace(-12, 12, n_grid)) and each sign
    change bisected.
    """
    (p0, p1), (mu0, mu1) = mixture.precisions, mixture.means
    consts = np.log(mixture.weights) - 0.5 * np.linalg.slogdet(mixture.covariances)[1]

    def x_and_g(s):
        a, b = expit(s), expit(-s)
        mat = a[:, None, None] * p0 + b[:, None, None] * p1
        x = np.linalg.solve(mat, (a[:, None] * (p0 @ mu0) + b[:, None] * (p1 @ mu1))[..., None])[..., 0]
        ell0, ell1 = (c - 0.5 * np.einsum("ni,ij,nj->n", x - mu, p, x - mu)
                      for c, mu, p in zip(consts, (mu0, mu1), (p0, p1)))
        return x, ell0 - ell1 - s

    s = np.sinh(np.linspace(-12.0, 12.0, n_grid))
    _, g = x_and_g(s)
    assert not np.any(g == 0.0)
    at = np.flatnonzero(g[:-1] * g[1:] < 0.0)
    lo, hi, g_lo = s[at], s[at + 1], g[at]
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        g_mid = x_and_g(mid)[1]
        left = np.sign(g_mid) == np.sign(g_lo)
        lo, g_lo, hi = np.where(left, mid, lo), np.where(left, g_mid, g_lo), np.where(left, hi, mid)
    return x_and_g(0.5 * (lo + hi))[0]


@pytest.mark.parametrize("d, rep, n_modes", [(5, 54, 2), (2, 59, 3), (3, 10, 3), (2, 5, 2)])
def test_elongated_pairs_reach_their_ridgeline_counts(d, rep, n_modes):
    # The chord rounds found 1 of 3 points on d5 #54 (whose modes sit at
    # s = -4.1 and s = 112.4), with every Morse check passing, and 4 of 5,
    # 4 of 5 and 2 of 3 on the others, which failed the Morse equality.
    m = elongated_pair(d, rep)
    want = ridgeline_roots(m)
    report = find_critical_points(m)
    assert report.n_critical == len(want) and report.n_modes == n_modes
    found = np.array([p.location for p in report.points])
    for x in want:
        assert np.min(np.linalg.norm(found - x, axis=1)) <= 1e-6 * (1.0 + np.linalg.norm(x))
    assert report.all_nondegenerate and report.morse_equality_ok


def test_scalar_route_runs_no_log_ratio_newton(monkeypatch):
    # d = 1 and k = 2 solve by scan, polish and classify alone: the scan
    # roots need no log-ratio Newton, and n_converged counts the polished
    # roots that pass grad_accept_tol
    def refuse(self, x0):
        raise AssertionError("log-ratio Newton on the scalar route")

    monkeypatch.setattr(_LogSolver, "solve_batch", refuse)
    sweep0 = random_mixture_1d(np.random.default_rng(SWEEP_SEED))
    want = oracle_critical_points_1d(sweep0)
    found = np.sort([p.location[0] for p in find_critical_points(sweep0).points])
    assert len(found) == len(want) and np.max(np.abs(found - want)) <= 1e-6
    pair = elongated_pair(3, 10)
    report = find_critical_points(pair)
    assert report.n_critical == len(ridgeline_roots(pair)) and report.n_dropped == 0
    fold = Mixture.from_arrays([0.5, 0.5], [[-1.0], [1.0]], shared_covariance=np.eye(1))
    report = find_critical_points(fold)
    assert report.n_critical == 1 and report.n_starts == report.n_converged == 1


def test_narrow_pair_reports_its_missing_saddle():
    # two components 330 sigma apart: the scan finds the saddle at -0.179,
    # but its polished point stops above grad_accept_tol, so the report
    # must either keep the saddle or show the dropped root and fail the
    # Morse equality, not report two modes with every check passing
    m = Mixture.from_arrays([0.60386919, 0.39613081], [[8.83805132], [-9.03300794]],
                            np.array([0.05456335, 0.05357586])[:, None, None] ** 2)
    report = find_critical_points(m)
    assert report.n_critical == 3 or (report.n_dropped >= 1 and not report.morse_equality_ok)


def spy_on_polish(monkeypatch):
    """Record the rows of every `_LogSolver.polish` call, one array per call."""
    calls = []
    polish = _LogSolver.polish

    def spy(self, x):
        calls.append(np.array(x))
        return polish(self, x)

    monkeypatch.setattr(_LogSolver, "polish", spy)
    return calls


@pytest.fixture(scope="module")
def sweep_reports_and_polish_calls():
    """The reports of the 200 criterion-3 sweep instances, and the polish calls made while solving them."""
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on_polish(mp)
        rng = np.random.default_rng(SWEEP_SEED)
        reports = [find_critical_points(random_mixture_1d(rng)) for _ in range(200)]
    return reports, calls


def test_scalar_route_polishes_only_roots_that_fail_the_gradient_test(sweep_reports_and_polish_calls, monkeypatch):
    # the secant point of a root's last scan bracket passes grad_accept_tol
    # on every criterion-3 instance, so none is polished; on the padded
    # d1k6 witness the remote root near 283.59 keeps a relative gradient
    # near 1.3e-9 (the chord slope and the x-space gradient round
    # differently there) and is the only one polished, and the narrow
    # pair polishes only its saddle
    reports, calls = sweep_reports_and_polish_calls
    assert not calls and all(r.n_converged == r.n_starts for r in reports)
    calls = spy_on_polish(monkeypatch)
    report = find_critical_points(padded_d1k6_mixture())
    assert len(calls) == 1 and calls[0].shape == (1, 1) and abs(calls[0][0, 0] - 283.59223) <= 1e-5
    assert report.n_critical == 11 and report.n_converged == report.n_starts == 11
    calls.clear()
    pair = Mixture.from_arrays([0.60386919, 0.39613081], [[8.83805132], [-9.03300794]],
                               np.array([0.05456335, 0.05357586])[:, None, None] ** 2)
    find_critical_points(pair)
    assert len(calls) == 1 and calls[0].shape == (1, 1) and abs(calls[0][0, 0] + 0.17913748) <= 1e-7


def test_scalar_route_points_are_sharp(sweep_reports_and_polish_calls):
    # unpolished scan roots must stay far below grad_accept_tol = 1e-9, not
    # drift toward it: the largest gradient residual here is about 3.4e-13
    reports, _ = sweep_reports_and_polish_calls
    assert max(p.gradient_residual for r in reports for p in r.points) <= 1e-12


def test_scan_halvings_follow_the_first_of_forty(monkeypatch):
    # the scalar route stops its bisection after 20 halvings; with the same
    # halvings per round m, it evaluates what the first 20 of 40 halvings
    # evaluate, and the 40-halving root of each bracket lies within half of
    # the 20-halving run's last bracket of its root (to the ulp where 2^-20
    # of a fine grid cell is below one): both are secant points of brackets
    # that hold the same root
    scans = []

    def spy(functions, grid, n, halvings):
        scans.append((functions, grid, n))
        return scan_roots(functions, grid, n, halvings)

    def logged(functions, grid, n, halvings):
        calls = []

        def log(rows):
            def evaluate(t):
                calls.append((np.array(t), functions(rows)(t)))
                return calls[-1][1]
            return evaluate
        return scan_roots(log, grid, n, halvings), calls

    scan_roots = solver_module._scan_roots
    monkeypatch.setattr(solver_module, "_scan_roots", spy)
    rng = np.random.default_rng(SWEEP_SEED)
    for mixture in [random_mixture_1d(rng) for _ in range(4)] + [elongated_pair(3, 10)]:
        find_critical_points(mixture)
    assert len(scans) == 5
    for per_round in (None, 1, 3, 5):          # None: m from the bracket count, 5 here
        if per_round is not None:
            monkeypatch.setattr(solver_module, "_halvings_per_round", lambda n_brackets: per_round)
        for functions, grid, n in scans:
            (rows, short), calls = logged(functions, grid, n, 20)
            (rows_40, long), calls_40 = logged(functions, grid, n, 40)
            assert np.array_equal(rows, rows_40) and len(rows)
            m = solver_module._halvings_per_round(len(rows))
            full = 1 + 20 // m              # the grid, then the whole rounds
            for (t, v), (t_40, v_40) in zip(calls[:full], calls_40):
                assert np.array_equal(t, t_40) and np.array_equal(v, v_40)
            if 20 % m:                      # a last round of r < m halvings
                cols = np.arange(1, 2 ** (20 % m)) * 2 ** (m - 20 % m) - 1
                (t, v), (t_40, v_40) = calls[full], calls_40[full]
                assert np.array_equal(t, t_40[:, cols]) and np.array_equal(v, v_40[:, cols])
            assert len(calls) == full + (20 % m > 0)
            cell = np.searchsorted(grid, short) - 1
            width = np.ldexp(grid[cell + 1] - grid[cell], -20)
            assert np.all(np.abs(long - short) <= 0.5 * width + 2.0 * np.spacing(np.abs(short)))


def test_chord_quarter_points_find_every_root():
    # highdim pool 104, het_d6k6_1: the chord brackets alone find 6 of the
    # 7 critical points, and that report fails the Morse check
    rng = np.random.default_rng(104)
    random_mixture(rng, 6, 6)
    report = find_critical_points(random_mixture(rng, 6, 6))
    assert report.n_critical == 7
    assert report.counts_by_index == {5: 3, 6: 4}
    assert report.morse_inequality_ok
    # 386 with the mean-shift chains and the segments to the means, 152 with
    # every round reseeding every chord
    assert report.n_starts <= 120


def secant_points(t_lo, t_hi, f_lo, f_hi):
    """The secant point of each bracket [t_lo, t_hi] from its end values, one bracket at a time.

    The midpoint where the fraction f_lo / (f_lo - f_hi) is not finite or
    lies outside [0, 1].  The brackets of the oracles below are dyadic, so
    t_hi - t_lo is their exact width.
    """
    out = []
    for lo, hi, a, b in zip(t_lo, t_hi, f_lo, f_hi):
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = a / (a - b)
        out.append(lo + (frac if 0.0 <= frac <= 1.0 else 0.5) * (hi - lo))
    return np.array(out, dtype=float)


def chord_starts_one_halving_at_a_time(solver, reps, n_old=0):
    """Reference chord starts whose bisection evaluates one midpoint per call.

    Seeds the chords (i, j), i < j, with j >= n_old, in the order of a loop
    over i and then j.  Returns the seeds, in the order `_chord_starts`
    returns them, and the number of slope brackets that were bisected.
    """
    d = reps.shape[1]
    pairs = [(i, j) for i in range(len(reps)) for j in range(i + 1, len(reps)) if j >= n_old]
    first, second = np.array(pairs, dtype=int).reshape(-1, 2).T
    origins = reps[first]
    chords = reps[second] - origins
    keep = np.linalg.norm(chords, axis=1) > 0.0
    origins, chords = origins[keep], chords[keep]

    def slopes(lines, directions, t):
        # the slope of the restricted 1-d mixture on each line, at one t per line
        restricted = _restrict_to_chords(solver, lines, directions)
        return _chord_slopes(*restricted, t[:, None])[:, 0]

    ts = np.linspace(0.0, 1.0, 33)[1:-1]
    grid = origins[:, None, :] + ts[None, :, None] * chords[:, None, :]
    vals = slopes(
        np.repeat(origins, len(ts), axis=0), np.repeat(chords, len(ts), axis=0), np.tile(ts, len(origins)),
    ).reshape(len(origins), len(ts))
    seeds = [grid[:, [7, 15, 23]].reshape(-1, d), grid[vals == 0.0]]
    pair_idx, slot = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    if len(pair_idx):
        t_lo, t_hi = ts[slot], ts[slot + 1]
        f_lo, f_hi = vals[pair_idx, slot], vals[pair_idx, slot + 1]
        a, direction = origins[pair_idx], chords[pair_idx]
        for _ in range(_SCAN_HALVINGS):
            t_mid = 0.5 * (t_lo + t_hi)
            f_mid = slopes(a, direction, t_mid)
            same = (f_mid > 0.0) == (f_lo > 0.0)
            t_lo, f_lo = np.where(same, t_mid, t_lo), np.where(same, f_mid, f_lo)
            t_hi, f_hi = np.where(same, t_hi, t_mid), np.where(same, f_hi, f_mid)
        seeds.append(a + secant_points(t_lo, t_hi, f_lo, f_hi)[:, None] * direction)
    return np.concatenate(seeds), len(pair_idx)


def test_chord_starts_match_one_halving_at_a_time(monkeypatch):
    # the bisection rounds read 20 halvings (_SCAN_HALVINGS) off the signs
    # of slopes evaluated at every dyadic point they can visit, read once
    # against the sign of the bracket's left end, so each seed is
    # bit-identical; the cases hold brackets whose left end has a positive
    # slope and brackets whose left end has a negative one
    grids = []

    def spy(top, q, vertex, t):
        slopes = _chord_slopes(top, q, vertex, t)
        if t.ndim == 1:                 # the 31-point grid that the brackets come from
            grids.append(slopes)
        return slopes

    monkeypatch.setattr("modecount.solver._chord_slopes", spy)
    sweep0 = random_mixture_1d(np.random.default_rng(SWEEP_SEED))
    d1k6 = padded_d1k6_mixture()
    d1k6_roots = np.array([p.location for p in find_critical_points(d1k6).points])
    cases = [
        (sweep0, None, 0, 5),              # one bracket
        (d1k6, None, 0, 1),                # 145 brackets
        (d1k6, d1k6_roots[:6], 0, 3),      # 20 brackets: 6 rounds of 3, then one of 2
        (d1k6, d1k6_roots, 6, 1),          # only the chords that touch the last 5 roots
        (d1k6, d1k6_roots, 10, 3),         # only the chords to the last root
    ]
    left_signs = set()
    for m, reps, n_old, per_round in cases:
        if reps is None:
            reps = np.array([p.location for p in find_critical_points(m).points])
        solver = _LogSolver(m)
        want, n_brackets = chord_starts_one_halving_at_a_time(solver, reps, n_old)
        assert n_brackets > 0 and _halvings_per_round(n_brackets) == per_round
        assert np.array_equal(_chord_starts(solver, reps, n_old), want)
        vals = grids.pop()
        pair_idx, slot = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
        left_signs.update(np.sign(vals[pair_idx, slot]))
    assert left_signs == {-1.0, 1.0}
    assert _chord_starts(_LogSolver(d1k6), d1k6_roots, len(d1k6_roots)).shape == (0, 1)


def polynomial_functions(signs, roots):
    """`_scan_roots` functions: f_i(t) = signs[i] * prod_j (t - roots[i, j]), one product at a time."""
    def functions(rows):
        def f(t):
            out = np.broadcast_to(signs[rows, None], (len(rows), np.shape(t)[-1]))
            for r in roots[rows].T:
                out = out * (t - r[:, None])
            return out
        return f
    return functions


def scan_roots_one_halving_at_a_time(functions, grid, n, halvings):
    """Reference `_scan_roots`: each bracket halved one midpoint per call."""
    vals = functions(np.arange(n))(grid)
    zero_rows, slot = np.nonzero(vals == 0.0)
    rows, ts = [zero_rows], [grid[slot]]
    pair_idx, slot = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    t_lo, t_hi, f_lo, f_hi = grid[slot], grid[slot + 1], vals[pair_idx, slot], vals[pair_idx, slot + 1]
    for _ in range(halvings):
        t_mid = 0.5 * (t_lo + t_hi)
        f_mid = functions(pair_idx)(t_mid[:, None])[:, 0]
        same = (f_mid > 0.0) == (f_lo > 0.0)
        t_lo, f_lo = np.where(same, t_mid, t_lo), np.where(same, f_mid, f_lo)
        t_hi, f_hi = np.where(same, t_hi, t_mid), np.where(same, f_hi, f_mid)
    return np.concatenate(rows + [pair_idx]), np.concatenate(ts + [secant_points(t_lo, t_hi, f_lo, f_hi)])


def test_scan_roots_match_one_halving_at_a_time():
    # Each function has 3 sign changes in the grid cell [1/4, 1/2], 5 in
    # [1/2, 3/4] and one in [3/4, 1], and every third has a zero at 0.
    # The cells are dyadic, so every point either bisection visits is exact
    # and the roots must agree bit for bit.  A round of m >= 2 halvings
    # shows several sign changes inside one bracket, and the round must keep
    # the sub-cell that halving one step at a time ends in.  Some roots sit
    # exactly on a dyadic sub-point (a zero counts as negative), and the
    # brackets start from both signs.
    rng = np.random.default_rng(61)
    grid = np.linspace(0.0, 1.0, 5)
    cells = [(0.25, 3), (0.5, 5), (0.75, 1)]
    for n, m in ((1, 5), (4, 4), (8, 3), (20, 2), (30, 1)):
        roots = np.concatenate([
            lo + 0.25 * (np.arange(count) + rng.uniform(0.2, 0.8, size=(n, count))) / count
            for lo, count in cells
        ], axis=1)
        # exact zeros inside brackets, at dyadic depths 5, 4, 2 and 1 of their cell
        roots[:, 1] = 0.25 + 0.25 * rng.choice([1, 3, 5, 7, 9, 11], size=n) / 32
        roots[:, 3] = 0.5 + 0.25 * rng.choice([3, 5, 7], size=n) / 16
        roots[:, 8] = 0.75 + 0.25 * rng.choice([1, 2, 3], size=n) / 4
        roots = np.concatenate([roots, np.where(np.arange(n)[:, None] % 3 == 0, 0.0, 2.0)], axis=1)
        signs = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        signs[:2] = (1.0, -1.0)[:n]
        functions = polynomial_functions(signs, roots)
        assert _halvings_per_round(3 * n) == m
        for halvings in (1, 7, 20):
            got, want = _scan_roots(functions, grid, n, halvings), scan_roots_one_halving_at_a_time(
                functions, grid, n, halvings)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (n, halvings)
            assert len(got[0]) == 3 * n + len(range(0, n, 3))
        # the sign changes that the first round of each bracket shows
        width = 0.25 * np.ldexp(1.0, -m)
        changes = [
            np.count_nonzero(np.diff(np.sign(functions([i])(lo + width * np.arange(2 ** m + 1))[0]) > 0.0))
            for i in range(n) for lo, _ in cells
        ]
        assert {3, 5} <= set(changes) if m == 5 else max(changes) >= (3 if m >= 2 else 1)


@pytest.fixture(scope="module")
def simplex_d5k6():
    """The simplex seed seed_closure_bound(5, 6, simplex_family) realizes, and its report."""
    m, _ = simplex_seed(6, REALIZE_EPSILON)
    return m, find_critical_points(m)


def test_restart_rounds_keep_simplex_d5k6_witness(simplex_d5k6):
    # 5,709 starts when every round reseeded every chord, the last round of
    # 3,414 finding nothing new
    _, report = simplex_d5k6
    assert report.n_critical == 43
    assert report.counts_by_index == {3: 15, 4: 21, 5: 7}
    assert report.all_nondegenerate and report.morse_inequality_ok and report.morse_equality_ok
    assert report.n_starts <= 3600


def test_restart_rounds_seed_only_chords_to_new_roots(monkeypatch):
    # every chord between two representatives of the previous round was
    # seeded in that round, and the representatives do not move
    rounds = []

    def spy(solver, reps, n_old):
        seeds = _chord_starts(solver, reps, n_old)
        rounds.append((reps.copy(), seeds))
        return seeds

    monkeypatch.setattr("modecount.solver._chord_starts", spy)
    m, _ = simplex_seed(5, REALIZE_EPSILON)
    report = find_critical_points(m)
    assert report.n_critical == 11 and len(rounds) >= 2
    solver = _LogSolver(m)
    for (old_reps, _), (reps, seeds) in zip(rounds, rounds[1:]):
        assert len(reps) > len(old_reps)
        assert np.array_equal(reps[:len(old_reps)], old_reps)
        old_seeds, _ = chord_starts_one_halving_at_a_time(solver, old_reps)
        assert not set(map(tuple, seeds)) & set(map(tuple, old_seeds))
        want, _ = chord_starts_one_halving_at_a_time(solver, reps, len(old_reps))
        assert np.array_equal(seeds, want)


def test_chord_restriction_matches_relative_gradient(simplex_d5k6):
    # restricted to a chord, each component term is top - q (t - vertex)^2 / 2
    # and the slope is the directional derivative of log f along the chord:
    # on random heteroscedastic mixtures, on the padded d1k6 witness (a remote
    # component) and on the chords between the 43 points of the simplex d5k6
    # witness.  Origins and chords lie on a 2^-20 lattice and t on a 2^-6
    # one, so every point a + t c is exact and the d-dimensional reference
    # sees only the rounding of its terms, of order eps |L_k|.  A top taken
    # from the terms at the origin instead of at the vertex loses about
    # eps |L_k(a)| to cancellation, 2.6e-12 (1 + |L_k|) on d1k6.
    rng = np.random.default_rng(53)
    cases = []
    for d in range(2, 7):
        for k in range(2, 7):
            m = random_mixture(rng, d, k)
            cases.append((m, np.vstack([m.means, rng.uniform(-4.0, 4.0, size=(3, d))])))
    d1k6 = padded_d1k6_mixture()
    cases.append((d1k6, np.array([p.location for p in find_critical_points(d1k6).points])))
    d5k6, report = simplex_d5k6
    cases.append((d5k6, np.array([p.location for p in report.points])))
    ts = np.arange(-16, 81) / 64.0
    for m, reps in cases:
        solver = _LogSolver(m)
        first, second = np.triu_indices(len(reps), 1)
        origins = np.ldexp(np.round(np.ldexp(reps[first], 20)), -20)
        chords = np.ldexp(np.round(np.ldexp(reps[second] - reps[first], 20)), -20)
        top, q, vertex = _restrict_to_chords(solver, origins, chords)
        assert np.all(q > 0.0)
        offsets = ts[None, :, None] - vertex[:, None, :]
        points = (origins[:, None, :] + ts[None, :, None] * chords[:, None, :]).reshape(-1, m.dim)
        terms = solver.component_terms(points)[0].reshape(offsets.shape)
        restricted = top[:, None, :] - 0.5 * q[:, None, :] * offsets ** 2
        assert np.all(np.abs(restricted - terms) <= 1e-13 * (1.0 + np.abs(terms)))

        slopes = _chord_slopes(top, q, vertex, ts)
        grad, _, w, _ = solver.relative_gradient(points)
        want = np.einsum("bi,bi->b", np.repeat(chords, len(ts), axis=0), grad).reshape(slopes.shape)
        spread = w.reshape(offsets.shape) * np.abs(q[:, None, :] * offsets) * (1.0 + np.abs(terms))
        bound = 1e-12 * (1.0 + spread.sum(axis=2))
        assert np.all(np.abs(slopes - want) <= bound)
        sure = np.abs(want) > bound
        assert np.array_equal(np.sign(slopes[sure]), np.sign(want[sure]))


def test_reduced_reference_is_stable_at_ties(simplex_d5k6):
    # at points where two components tie by symmetry, the reported chart is
    # the lowest tied index, whichever way the location's last ulp rounds
    m, report = simplex_d5k6
    solver = _LogSolver(m)
    ties = 0
    for p in report.points:
        terms = solver.component_terms(p.location[None])[0][0]
        tied = np.flatnonzero(terms >= terms.max() - 1e-12 * (1.0 + abs(terms.max())))
        ties += len(tied) > 1
        assert p.reduced_reference == tied[0]
        for toward in (np.inf, -np.inf):
            nudged = classify(m, np.nextafter(p.location, toward))
            assert nudged.reduced_reference == p.reduced_reference
    assert ties > 0


def cluster_representatives_loop(candidates, tol, prior=()):
    """Reference greedy clustering: plain Python loop over representatives.

    Returns the representatives, the prior ones first, and, for each
    candidate, the index of the first representative within tolerance.
    """
    reps, labels = list(prior), [None] * len(candidates)
    for idx in sorted(range(len(candidates)), key=lambda i: tuple(candidates[i])):
        x = candidates[idx]
        hits = [j for j, r in enumerate(reps) if np.linalg.norm(x - r) <= tol * (1.0 + np.linalg.norm(r))]
        if hits:
            labels[idx] = hits[0]
        else:
            labels[idx] = len(reps)
            reps.append(x)
    return reps, labels


def test_cluster_representatives_matches_loop(simplex_d5k6):
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
        # around fixed representatives: the prior rows come back unchanged and
        # first, and a candidate near one joins the first such prior row
        prior = centres[rng.permutation(len(centres))[:int(rng.integers(0, len(centres) + 1))]]
        prior = prior + rng.standard_normal(prior.shape) * 1e-7
        got, got_labels = _cluster(candidates, 1e-6, prior=prior)
        want, want_labels = cluster_representatives_loop(candidates, 1e-6, prior)
        assert len(got) == len(want) and np.array_equal(got[:len(prior)], prior)
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
    # restart-round size: the 43 roots of the simplex d5k6 witness as prior,
    # with shifted copies of six of them put first, so that points between a
    # copy and its root lie within both radii, and 2,000 candidates, more
    # than one block of prior claims (65,536 // 49 rows)
    roots = np.array([p.location for p in simplex_d5k6[1].points])
    reach = 1e-6 * (1.0 + np.linalg.norm(roots[:6], axis=1))
    shifts = rng.standard_normal((6, 5))
    shifts *= (reach / np.linalg.norm(shifts, axis=1))[:, None]
    prior = np.vstack([roots[:6] + shifts, roots])
    pick = rng.integers(0, len(roots), size=1300)
    near = roots[pick] + rng.standard_normal((1300, 5)) * 10.0 ** rng.uniform(-9.0, -5.0, size=(1300, 1))
    between = (roots[:6] + 0.5 * shifts)[rng.integers(0, 6, size=200)]
    far = rng.uniform(-3.0, 3.0, size=(200, 5))
    candidates = np.vstack([near, between, far, roots, near[rng.integers(0, 1300, size=257)]])
    candidates = candidates[rng.permutation(len(candidates))]
    assert len(candidates) == 2000 > 65536 // len(prior)
    got, got_labels = _cluster(candidates, 1e-6, prior=prior)
    want, want_labels = cluster_representatives_loop(list(candidates), 1e-6, prior)
    assert len(got) == len(want) > len(prior) and np.array_equal(got[:len(prior)], prior)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert list(got_labels) == want_labels
    # the shifted copy, first in row order, wins every point between it and its root
    radii = 1e-6 * (1.0 + np.linalg.norm(prior, axis=1))
    both = [i for i, x in enumerate(candidates)
            if any(np.linalg.norm(x - prior[j]) <= radii[j] and np.linalg.norm(x - prior[j + 6]) <= radii[j + 6]
                   for j in range(6))]
    assert len(both) >= 100 and all(got_labels[i] < 6 for i in both)


def test_dedup_keeps_best_member_and_cluster_diameter():
    m = pair_mixture_1d()
    # one cluster around the saddle at 0, whose exact centre is neither the
    # first member in lexicographic order nor the cluster's representative;
    # 5e-7 is in the cluster but too far out to pass the gradient test
    saddle = [np.array([2e-10]), np.array([5e-7]), np.array([0.0]), np.array([-1e-10])]
    mode = [np.array([PAIR_MODE + 1e-12]), np.array([PAIR_MODE])]
    points, accepted = _dedup_points(saddle + mode, _LogSolver(m), SolverConfig())
    assert len(points) == 2 and accepted == 5
    centre, top = points
    residuals = {float(x[0]): classify(m, x).gradient_residual
                 for x in saddle if float(np.abs(x[0])) < 1e-9}
    assert float(centre.location[0]) == min(residuals, key=residuals.get) == 0.0
    assert centre.gradient_residual == min(residuals.values())
    assert centre.cluster_diameter == 5e-7 + 1e-10
    best_mode = min(mode, key=lambda x: classify(m, x).gradient_residual)
    assert np.array_equal(top.location, best_mode)
    assert top.cluster_diameter == pytest.approx(1e-12, rel=1e-3)
    # a lone non-critical candidate is its own cluster, and is dropped
    points, accepted = _dedup_points(saddle + mode + [np.array([1.0])], _LogSolver(m), SolverConfig())
    assert len(points) == 2 and accepted == 5
    # no candidate passes: no cluster is kept
    assert _dedup_points([np.array([1.0]), np.array([5e-7])], _LogSolver(m), SolverConfig()) == ((), 0)


def test_reported_points_match_standalone_classify(simplex_d5k6):
    # dedup evaluates all its members in one batch and classifies the kept
    # rows of it; every field of every point is the bits that `classify`
    # gets for that point alone (its cluster diameter aside)
    sweep0 = random_mixture_1d(np.random.default_rng(SWEEP_SEED))
    pair = elongated_pair(3, 10)
    for m, report in ((sweep0, None), (pair, None), simplex_d5k6):
        report = report or find_critical_points(m)
        assert report.n_critical >= 3
        for p in report.points:
            alone = classify(m, p.location)
            for f in dataclasses.fields(p):
                got, want = getattr(p, f.name), getattr(alone, f.name)
                if f.name != "cluster_diameter":
                    assert np.array_equal(got, want) and type(got) is type(want), (m.dim, f.name)
    # a cluster of three members beside a cluster of two and a lone point:
    # each diameter spans its own cluster only
    saddle = [np.array([4e-7]), np.array([0.0]), np.array([-3e-7])]
    mode = [np.array([PAIR_MODE]), np.array([PAIR_MODE + 2e-12])]
    points, accepted = _dedup_points(saddle + mode + [np.array([-PAIR_MODE])], _LogSolver(pair_mixture_1d()),
                                     SolverConfig())
    assert accepted == 4 and [p.cluster_diameter for p in points] == [
        0.0, _distances(np.array(saddle)).max(), _distances(np.array(mode)).max()]


def test_vector_norms_match_numpy_norm_per_row():
    rng = np.random.default_rng(45)
    for d in range(1, 9):
        rows = rng.standard_normal((400, d)) * 10.0 ** rng.uniform(-20.0, 0.0, size=(400, 1))
        rows[:3] = 0.0
        got = _vector_norms(rows)
        assert all(got[i] == np.linalg.norm(row) for i, row in enumerate(rows)), d
        assert np.array_equal(got[:3], np.zeros(3))


def test_dedup_orders_mirror_points_by_rounded_location():
    # mirror points whose first coordinates differ in the last ulp keep the
    # order of their second coordinates, whichever first coordinate is larger
    m = product(pair_mixture_1d(), pair_mixture_1d())
    nudged = np.nextafter(PAIR_MODE, np.inf)
    for upper, lower in ((PAIR_MODE, nudged), (nudged, PAIR_MODE)):
        candidates = [np.array([upper, PAIR_MODE]), np.array([lower, -PAIR_MODE])]
        points = _dedup_points(candidates, _LogSolver(m), SolverConfig())[0]
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
    assert report.morse_equality_ok


def test_product_pair_anchor():
    m = product(pair_mixture_1d(), pair_mixture_1d())
    report = find_critical_points(m)
    assert report.n_critical == 9
    assert report.n_modes == 4
    assert report.counts_by_index == {0: 1, 1: 4, 2: 4}
    assert report.n_index_dminus1 == 4
    for p in report.modes:
        assert np.allclose(np.abs(p.location), PAIR_MODE, atol=1e-6)
    # 4 - 4 + 1 = 1; without its minimum the set keeps the Morse inequalities
    # (N=8, M=4, C_1=4) and fails the equality
    assert report.morse_inequality_ok and report.morse_equality_ok
    short = dataclasses.replace(report, points=tuple(p for p in report.points if p.morse_index > 0))
    assert short.morse_inequality_ok and not short.morse_equality_ok


def test_report_verdicts_follow_its_points():
    # every verdict is read from the points, so a report whose points are
    # replaced judges the new ones: the pair without one mode (N = 2, M = 1)
    # keeps the inequalities and the sandwich and breaks 1 - 1 = 1
    report = find_critical_points(pair_mixture_1d())
    assert report.morse_equality_ok
    drop = next(i for i, p in enumerate(report.points) if p.is_mode)
    short = dataclasses.replace(report, points=report.points[:drop] + report.points[drop + 1:])
    assert (short.n_critical, short.n_modes) == (2, 1)
    assert short.morse_equality_ok is False
    assert short.morse_inequality_ok is True and short.upper_sandwich_ok is True


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
        assert p.reduced_reference == int(np.argmax(responsibilities(m, p.location)))
        # the recorded chart lets the residual be recomputed from the report
        sys = build_reduced(m, p.reduced_reference)
        y = np.exp(sys.log_rho(p.location))
        assert np.all(y <= 1.0 + 1e-12)
        assert np.linalg.norm(residual_R(sys, y)) <= 1e-12


def test_limits_and_force():
    # seven components in 1-d exceed MAX_COMPONENTS = 6
    rng = np.random.default_rng(35)
    m = random_mixture(rng, 1, 7)
    with pytest.raises(ValueError, match=r"d=1, k=7 exceeds configured limits .*force=True"):
        find_critical_points(m)
    report = find_critical_points(m, SolverConfig(force=True))
    assert report.n_critical >= 1 and report.morse_inequality_ok


def test_option_surface_is_pinned():
    # every caller runs the solver, the homoscedastic reduction and the
    # witness builders at one set of Newton, size and search parameters,
    # which are module constants; a new option has to justify itself here
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "dedup_tol", "degeneracy_tol", "grad_accept_tol", "force"]
    # a report stores what the solve found; every verdict is computed from it
    assert [f.name for f in dataclasses.fields(SolveReport)] == [
        "mixture", "points", "n_starts", "n_converged", "config"]
    # a mixture is its stacked arrays; there is no per-component object
    assert [f.name for f in dataclasses.fields(Mixture)] == [
        "weights", "means", "covariances", "precisions", "log_norms"]
    assert not hasattr(Mixture, "components")
    for fn, params in [
        (affine_rank, ["means"]),
        (Mixture.is_homoscedastic, ["self"]),
        (reduce_homoscedastic, ["mixture"]),
        (tilt_polish, ["mixture", "config", "seed"]),
        (radial_critical_roots, ["n", "a"]),
        (_LogSolver.iterate, ["self", "u0", "charts"]),
        (_LogSolver.solve_batch, ["self", "x0"]),
        (lift, ["mixture", "target_dim"]),
        (realize_recipe, ["recipe", "epsilon", "config", "padding", "pad_seed", "tilt_seed"]),
    ]:
        assert list(inspect.signature(fn).parameters) == params, fn.__qualname__
    # `_LogSolver` is the package's one evaluation path; the per-point
    # evaluators and the reduced-system wrappers that only tests call live
    # in conftest.py, so a new test-only helper in the package fails here
    assert solver_module.__all__ == [
        "CriticalPoint", "SolveReport", "SolverConfig", "find_critical_points",
        "solve_reduced_homoscedastic", "classify", "polish_critical"]
    assert modecount.__all__ == [
        "__version__",
        "Mixture", "MixtureFormatError", "AffineMap",
        "tilt", "affine_rank", "reduce_homoscedastic",
        "mixture_from_dict", "mixture_to_dict", "read_mixture", "write_mixture",
        "BoundValue", "SeedTriple", "SeedRecipe",
        "UPPER_FAMILIES", "LOWER_FAMILIES", "CROSSOVER_KINDS",
        "upper_bound", "lower_bound", "mode_bound_from_critical", "aim_conjecture",
        "crossover_dimension", "seed_closure_bound", "ray_ren_family", "simplex_family",
        "table_rows", "render_table_csv", "render_table_text",
        *solver_module.__all__,
        "PaddingSpec", "PaddingError", "RecipeError", "RecipeVerificationError",
        "simplex_vertices", "simplex_seed", "radial_critical_roots",
        "lift", "product", "pad_remote", "realize_recipe", "tilt_polish",
    ]
    for name in ("log_component_terms", "log_density", "responsibilities", "relative_derivatives", "evaluate"):
        assert not hasattr(Mixture, name), name
    assert not hasattr(_LogSolver, "residual_and_jacobian_batch")


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
    assert doc["morse_inequality_ok"] is doc["morse_equality_ok"] is True
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
