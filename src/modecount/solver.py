"""Critical-point solver for Gaussian mixtures via the reduced ratio system.

Critical points of a k-component mixture biject with positive roots of the
(k-1)-dimensional system R(y) = 0, where y carries the component density
ratios against a reference component, and any component can be that
reference.  This module solves that system with a deterministic
multistart damped Newton iteration in log-coordinates that runs each start
in the chart of its own dominant component, polishes the roots with the
same damped Newton loop in x, classifies them by Hessian inertia, and
assembles a report with Morse and upper-bound verdicts.  Where the
problem is one-dimensional (d = 1, or k = 2 in any d) the roots of a
scanned exact scalar function replace the Newton solve, and polish runs
only on the roots that fail the gradient test; otherwise the starts are
the means, their midpoints and the chords between the roots found so far.

`_LogSolver` is the package's one evaluation path for that system, and
its one Newton engine and derivative evaluator.  Past the log-ratio solve
it works with density-relative quantities (log-density, gradient over
density, Hessian over density), so the solver stays numerically
meaningful even for witness mixtures whose components sit hundreds of
standard deviations apart.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from .bounds import BoundValue, mode_bound_from_critical, upper_bound
from .mixture import Mixture, _last_max, _last_sum, affine_rank, logsumexp, reduce_homoscedastic

__all__ = [
    "CriticalPoint",
    "SolveReport",
    "SolverConfig",
    "find_critical_points",
    "solve_reduced_homoscedastic",
    "classify",
    "polish_critical",
]

@dataclass(frozen=True)
class SolverConfig:
    """The tolerances a caller of `find_critical_points` may set.

    Relative dedup at 1e-6, degeneracy flagged below eigenvalue ratio 1e-8,
    and points accepted as critical when the density-relative gradient norm
    is below 1e-9; each tolerance must be finite and positive.  `force`
    lifts the size limits MAX_DIM and MAX_COMPONENTS.
    The Newton solve and the polish of the roots run one damped Newton loop
    (`_damped_newton`) with module constants (NEWTON_TOL, NEWTON_MAX_ITER,
    MAX_HALVINGS and _POLISH_*), and `find_critical_points` fixes the
    starts: the roots of a scanned scalar function for d = 1 or k = 2
    (`_SEGMENT_GRID`, `_RIDGE_POINTS`, `_SCAN_HALVINGS`), of which only
    those that fail `grad_accept_tol` are polished, otherwise the means,
    the mean midpoints and the chord starts of the restart rounds.
    """

    dedup_tol: float = 1e-6
    degeneracy_tol: float = 1e-8
    grad_accept_tol: float = 1e-9
    force: bool = False

    def __post_init__(self) -> None:
        for name in ("dedup_tol", "degeneracy_tol", "grad_accept_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)


# -- multistart Newton in log ratio coordinates --------------------------------


class _LogSolver:
    """Batched damped Newton on the log-ratio system, each row in its own chart.

    A row holds the full k-vector u of log-ratios together with a chart c,
    the component whose ratio is the reference.  With the centred component
    terms L_i(x) = log(alpha_i phi_i(x)) = log alpha_i + log norm_i
    - (x - mu_i)'A_i(x - mu_i)/2, the residual is

        S(u) = (u - L(X(u))) - (u_c - L_c(X(u))),

    where X(u) = M_w^{-1} nu_w with responsibilities w = softmax(u), taken
    as exp(u - max u) / sum (see `_softmax`), so arbitrarily large
    log-ratios never materialize as exponentials.  M_w, nu_w and
    K_w = M_w - sum_j w_j a_j a_j' are linear in w, so neither X(u) nor the
    Newton step of `residual_and_step_batch` changes when w is scaled: they
    need no log f, and this path evaluates no logsumexp.  S_c vanishes, and
    the other entries are the reduced system of chart c in log y = u - u_c.
    A change of chart is linear, so it leaves Newton's step unchanged
    (Newton's method is affine invariant), but it changes the residual norm
    that the line search and the tolerance read.  A start begins in the
    chart of its largest log-ratio, where no ratio exceeds 1, and keeps that
    chart; in the chart of a component that is negligible at the start, a
    root's residual can sit far above its tolerance one step from the root.

    A Newton step costs one d x d solve (see `residual_and_step_batch`), and
    X(u) none when every component has the same precision A, bit for bit:
    then M_w = A and X = sum_j w_j mu_j (see `x_batch`).

    The batch is an outer dimension of every einsum/matmul; no 2-D BLAS
    call spans rows.  A stacked `np.matmul` makes one small BLAS call per
    row, with the same shape and strides whatever the batch, whereas folding
    the rows into the M dimension of one 2-D matmul would round a row
    differently with the number of rows beside it.  So a row's residual and
    Newton step, its `relative_derivatives`, and hence its Newton path in
    `iterate` and in `polish`, do not depend on which other rows share its
    batch.  `_damped_newton` relies on that when it carries a row's step
    from the batch of one evaluation into the next step.  The reductions
    along a row's short last axis (the softmax's maximum and sum, the row
    tolerances and norms) run through `_last_max` and `_last_sum`, which
    take each output from its own row's entries in sequence.
    """

    def __init__(self, mixture: Mixture):
        self.mixture = mixture
        self.means = mixture.means
        self.precisions = mixture.precisions
        self.pmeans = np.einsum("kij,kj->ki", self.precisions, self.means)
        self.log_wn = mixture.log_weights + mixture.log_norms
        # taken from the input itself, not from a tolerance: the shortcut in
        # `x_batch` is exact in real arithmetic only for equal precisions
        self.shared_precision = bool(np.all(self.precisions == self.precisions[0]))

    @cached_property
    def curvature_scale(self) -> float:
        """The largest eigenvalue of any component precision, the mixture's
        curvature scale for the degeneracy test in `_classify`."""
        return float(np.linalg.eigvalsh(self.precisions).max())

    def component_terms(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L(x) as a (B, k) batch, and A_i (x - mu_i) as (B, k, d), for (B, d) points.

        A_i (x - mu_i) takes k (d, d) @ (d, 1) products per row, or, when the
        precisions are shared, one (k, d) @ (d, d) product (x - mu_i)'A per
        row, which is A (x - mu_i) because A is symmetric.  For a diagonal A
        every entry is one exact product either way, so the two agree bit for
        bit; otherwise they differ in the last bits.
        """
        diff = x[:, None, :] - self.means[None]
        if self.shared_precision:
            atimes = np.matmul(diff, self.precisions[0])
        else:
            atimes = np.matmul(self.precisions, diff[..., None])[..., 0]
        return self.log_wn - 0.5 * np.einsum("bki,bki->bk", diff, atimes), atimes

    def chart_coords(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-ratios u = L(x) - L_c(x) and chart c = argmax L(x), the lowest on ties, for (B, d) points."""
        terms, _ = self.component_terms(x)
        charts = np.argmax(terms, axis=1)
        return _centre(terms, charts), charts

    def x_batch(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X, w, M_w) for a (B, k) batch of log-ratio vectors.

        w is `_softmax(u)`: the responsibilities, summing to 1 in each row.
        M_w is (B, d, d), or, when the precisions are shared, the one (d, d)
        precision, which broadcasts against the batch; then X takes no solve.
        """
        w = _softmax(u)
        if self.shared_precision:
            return np.einsum("bk,ki->bi", w, self.means), w, self.precisions[0]
        m_mat = self.weighted_precisions(w)
        nu = np.einsum("bk,ki->bi", w, self.pmeans)
        x = np.linalg.solve(m_mat, nu[..., None])[..., 0]
        return x, w, m_mat

    def weighted_precisions(self, w: np.ndarray) -> np.ndarray:
        """M_w = sum_j w_j A_j as (B, d, d) for (B, k) weights: one (1, k) @ (k, d*d) product per row."""
        k, d, _ = self.precisions.shape
        return np.matmul(w[:, None, :], self.precisions.reshape(k, d * d)).reshape(len(w), d, d)

    def residual_batch(self, u: np.ndarray, charts: np.ndarray) -> np.ndarray:
        x, _, _ = self.x_batch(u)
        terms, _ = self.component_terms(x)
        return _centre(u - terms, charts)

    def residual_and_step_batch(self, u: np.ndarray, charts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """S and its Newton step -(S + (a - a_c) z), where K_w z = sum_j w_j S_j a_j.

        With a_j = A_j (X - mu_j), the k x k Newton matrix of S in u, with
        row c replaced by e_c, is I - U V' with rows U_i = a_i - a_c and
        V_j = w_j M_w^{-1} a_j.  Since sum_j w_j a_j = M_w X - nu_w = 0,
        M_w (I - V'U) = M_w - sum_j w_j a_j a_j' = K_w, which at a root is
        -Hess log f, and the Woodbury identity inverts the k x k matrix with
        one d x d solve.  Row c of U is 0, so step_c stays 0.
        """
        x, w, m_mat = self.x_batch(u)
        terms, atimes = self.component_terms(x)
        s = _centre(u - terms, charts)
        k_mat = m_mat - _weighted_gram(w, atimes)
        z = _solve_rows(k_mat, np.einsum("bk,bki->bi", w * s, atimes))
        return s, -(s + np.einsum("bki,bi->bk", _centre(atimes, charts), z))

    def _row_tols(self, u: np.ndarray) -> np.ndarray:
        # Residual entries are differences of log-density terms of size |u|,
        # so the attainable floor grows with the largest log-ratio; a root a
        # few thousand log-units from its chart can never reach an absolute
        # 1e-12.
        return NEWTON_TOL * (1.0 + _last_max(np.abs(u)))

    def solve_batch(self, x0: np.ndarray) -> tuple[np.ndarray, int]:
        """Damped Newton from each seed point in its dominant chart; returns (roots, count)."""
        u, converged = self.iterate(*self.chart_coords(x0))
        return self.x_batch(u[converged])[0], int(np.count_nonzero(converged))

    def iterate(self, u0: np.ndarray, charts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`_damped_newton` on every row of log-ratios u0 in its chart; returns (rows, converged mask)."""
        return _damped_newton(
            u0,
            lambda u, rows: self.residual_and_step_batch(u, charts[rows]),
            lambda u, rows: self.residual_batch(u, charts[rows]),
            self._row_tols, NEWTON_MAX_ITER, MAX_HALVINGS,
        )

    def relative_gradient(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """grad f / f for (B, d) points, with the log f, responsibilities and A_i (x - mu_i) it comes from."""
        return _relative_gradient(*self.component_terms(x))

    def relative_derivatives(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """log f, grad f / f, Hess f / f and L(x) as (B,), (B, d), (B, d, d) and (B, k) batches for (B, d) points."""
        terms, atimes = self.component_terms(x)
        grad, log_f, w, _ = _relative_gradient(terms, atimes)
        hess = _weighted_gram(w, atimes) - self.weighted_precisions(w)
        return log_f, grad, 0.5 * (hess + hess.transpose(0, 2, 1)), terms

    def polish(self, x: np.ndarray) -> np.ndarray:
        """Sharpen approximate critical points, (B, d) rows, in the original coordinates.

        `_damped_newton` on the relative gradient g, stepping by the solution
        of (H - gg') step = -g, where H - gg' is the log-density Hessian,
        converges quadratically from any nearby nondegenerate critical point,
        whatever its index.
        """
        def newton(points: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            _, grad, hess, _ = self.relative_derivatives(points)
            return grad, _solve_rows(hess - np.einsum("bi,bj->bij", grad, grad), -grad)

        return _damped_newton(x, newton, lambda points, rows: self.relative_gradient(points)[0],
                              lambda points: _POLISH_GRAD_TOL, _POLISH_STEPS, _POLISH_RUNGS)[0]


# Newton on the log-ratio system stops a row at residual norm
# NEWTON_TOL * (1 + max |u|) (see `_LogSolver._row_tols`), after
# NEWTON_MAX_ITER steps, or when none of MAX_HALVINGS rungs lowers it: the
# Newton step scaled by 1, 1/2, ..., 1/2048.  A start that cannot lower its
# residual with 1/2048 of its Newton step has slid into a local minimum of
# the residual norm that is not a root, where the Jacobian turns singular;
# deeper rungs only let it crawl on rounding-noise decreases for up to
# NEWTON_MAX_ITER steps.  The cap drops those starts after one ladder; on
# the benchmark's instances it changed no count of critical points, modes
# or indices, only how many starts converge.
NEWTON_TOL, NEWTON_MAX_ITER, MAX_HALVINGS = 1e-12, 200, 12
# `find_critical_points` refuses larger instances unless `SolverConfig.force`
MAX_DIM, MAX_COMPONENTS = 6, 6
# polish stops a row at this gradient norm, after this many steps, or when
# none of this many rungs lowers its gradient norm
_POLISH_GRAD_TOL, _POLISH_STEPS, _POLISH_RUNGS = 1e-15, 8, 20
# The scan grids of the scalar route: `_segment_starts` scans a 1-d mixture
# at each mean plus its standard deviation times these 401 offsets (out to
# 8.1e4), and `_ridgeline_starts` scans a two-component mixture's ridgeline
# function at this many points; each bracket is bisected to 2^-20 of its
# grid cell, on the scale of `dedup_tol`, and its secant point passes
# `grad_accept_tol` unless the scanned function and the gradient round
# differently there, which polish then mends
_SEGMENT_GRID = np.sinh(np.linspace(-12.0, 12.0, 401))
_RIDGE_POINTS, _SCAN_HALVINGS = 2001, 20


def _damped_newton(u0, evaluate, residual, tolerance, max_iter: int, rungs: int):
    """Damped Newton on each row of the (n, m) batch u0; returns the final rows and the converged mask.

    `evaluate(u, rows)` gives the residual and Newton step of batch rows
    `rows` at points u (a NaN step where the Newton matrix is singular), and
    `residual(u, rows)` the residual alone.  A row stops at a residual norm
    of at most `tolerance(u)`, which is taken row by row (an (n,) array for
    n rows, or one scalar for all), after `max_iter` steps, or when no step
    of its line search (`rungs` rungs) lowers it.  Only a row that stops at
    a finite residual norm within its tolerance counts as converged.
    """
    u = np.array(u0, dtype=float)
    n, m = u.shape
    steps = np.full((n, m), np.nan)
    stale = np.zeros(n, dtype=bool)       # rows whose step is not taken at u
    norms = np.full(n, np.inf)
    tols = np.full(n, tolerance(u))       # kept current for the rows that move
    finite = np.flatnonzero(np.all(np.isfinite(u), axis=1))
    if len(finite):
        s, steps[finite] = evaluate(u[finite], finite)
        norms[finite] = _row_norms(s)
    # the rows still iterating, ascending; each has a finite norm, so a
    # candidate norm that is below it is finite too
    active = np.flatnonzero(np.isfinite(norms) & (norms > tols))

    for _ in range(max_iter):
        if not len(active):
            break
        renew = active[stale[active]]
        if len(renew):
            _, steps[renew] = evaluate(u[renew], renew)
            stale[renew] = False
        step = steps[active]
        good = np.all(np.isfinite(step), axis=1)
        tried, step = active[good], step[good]
        moved = np.zeros(len(tried), dtype=bool)
        # Halving ladder: rung j tries the step scaled by 2^-j, and a row
        # takes its first improving rung.  Rung 0, the full step, is
        # evaluated with its own Newton step, so a row that takes it starts
        # its next step without another call.  The rows it does not improve
        # try rungs 1 ... rungs - 1 in one stacked residual call, which
        # accepts exactly what trying them one at a time would.
        if rungs >= 1 and len(tried):
            cand = u[tried] + step
            cand_s, cand_steps = evaluate(cand, tried)
            cand_norms = _row_norms(cand_s)
            moved = cand_norms < norms[tried]
            took = tried[moved]
            u[took], norms[took], steps[took] = cand[moved], cand_norms[moved], cand_steps[moved]
        at = np.flatnonzero(~moved)           # positions in `tried` still pending
        if rungs >= 2 and len(at):
            pending = tried[at]
            scales = np.ldexp(1.0, -np.arange(1, rungs))
            cand = u[pending][:, None, :] + scales[None, :, None] * step[at][:, None, :]
            cand_norms = _row_norms(
                residual(cand.reshape(-1, m), np.repeat(pending, len(scales)))
            ).reshape(len(pending), len(scales))
            better = cand_norms < norms[pending][:, None]
            hit = better.any(axis=1)
            rows = np.flatnonzero(hit)
            rung = better[rows].argmax(axis=1)
            took = pending[rows]
            u[took], norms[took] = cand[rows, rung], cand_norms[rows, rung]
            stale[took] = True
            moved[at[rows]] = True
        # rows without an improving step give up; the others go on until
        # they reach their tolerance at the new point
        took = tried[moved]
        tols[took] = tolerance(u[took])
        active = took[norms[took] > tols[took]]

    # a row that starts non-finite keeps norm inf, and its tolerance can be inf
    return u, np.isfinite(norms) & (norms <= tols)


def _softmax(a: np.ndarray) -> np.ndarray:
    """exp(a) / sum(exp(a)) along the last axis, taken as e / sum(e) with e = exp(a - max a).

    The shifted exponentials lie in [0, 1] with at least one equal to 1, so
    nothing overflows and the sum is at least 1; each weight is then good
    to a few ulps whatever the size of a, where exp(a - logsumexp(a))
    inherits the rounding of logsumexp(a), up to half an ulp of max |a|
    (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41(4), 2021).  A -inf
    entry gets weight 0, and a row holding +inf or NaN comes out NaN.
    """
    e = np.exp(a - _last_max(a)[..., None])
    return e / _last_sum(e)[..., None]


def _relative_gradient(terms: np.ndarray, atimes: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_LogSolver.relative_gradient` from the `component_terms` of its points."""
    log_f = logsumexp(terms)
    w = np.exp(terms - log_f[:, None])
    return -np.einsum("bk,bki->bi", w, atimes), log_f, w, atimes


def _row_norms(s: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis: the bits of `np.linalg.norm(s, axis=-1)` for up to 7 entries."""
    return np.sqrt(_last_sum(s * s))


def _vector_norms(v: np.ndarray) -> np.ndarray:
    """Norms of the rows of a (B, n) array with the bits of `np.linalg.norm(row)`, which `_row_norms` can miss."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of an (n, d) array, as (n, n), by `_vector_norms`."""
    return _vector_norms((points[:, None] - points[None]).reshape(-1, points.shape[1])).reshape(len(points), -1)


def _weighted_gram(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_j w_j a_j a_j' as (B, d, d) for (B, k) weights and (B, k, d) vectors, one matmul per row."""
    return np.matmul((w[..., None] * a).transpose(0, 2, 1), a)


def _centre(values: np.ndarray, charts: np.ndarray) -> np.ndarray:
    """Subtract from each row of a batch its entry in that row's chart."""
    return values - values[np.arange(len(values)), charts][:, None]


def _solve_rows(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each (m, m) matrix of a batch against its (m,) row of rhs; an exactly singular row gets NaN.

    When the batched solve meets a singular matrix, one batched slogdet
    picks the matrices with a zero pivot (the LU factorization that the
    solve runs) and rows with a non-finite determinant or right-hand side,
    and the others are solved in one more call.
    """
    try:
        return np.linalg.solve(mat, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        with np.errstate(invalid="ignore"):
            sign, log_det = np.linalg.slogdet(mat)
        regular = (sign != 0.0) & np.isfinite(log_det) & np.all(np.isfinite(rhs), axis=-1)
        out = np.full(rhs.shape, np.nan)
        out[regular] = np.linalg.solve(mat[regular], rhs[regular][..., None])[..., 0]
        return out


def _chord_starts(solver: _LogSolver, reps: np.ndarray, n_old: int) -> np.ndarray:
    """Restart seeds on the chords between found critical points, as (n, d) rows.

    Only the chords (i, j), i < j, with j >= n_old are seeded: the rows
    reps[n_old:] are the representatives the last restart round added.  The
    skip is exact: a chord between two older ones was seeded in an earlier
    round, and its starts, whose Newton paths do not depend on their batch,
    would return the same roots.

    Every chord contributes its points at t = 1/4, 1/2 and 3/4.  Along the
    chord the directional slope of log-density also vanishes at every
    critical point the chord passes by, and those roots can have Newton
    basins far narrower than the quarter points reach (a remote component
    shrinks interior basins drastically), so every root of the slope that
    `_scan_roots` finds on a 31-point grid is returned as a seed too.

    The slope is taken from the mixture restricted to the chord, which is
    exactly a 1-d mixture in t: x(t) = a + t c is affine in t and each
    component term L_i is quadratic in x, so L_i(x(t)) is a concave
    quadratic in t with no remainder (see `_restrict_to_chords`).  Each chord
    is restricted once, and a slope then costs O(k) per point instead of the
    O(k d^2) of a d-dimensional gradient.  A seed only starts Newton, so
    the brackets are bisected `_SCAN_HALVINGS` times and finished with the
    secant step, as on the scalar routes, and the grid's t are multiples of
    1/32, so every t the bisection visits is exact.
    """
    first, second = np.triu_indices(len(reps), 1)
    new = second >= n_old
    first, second = first[new], second[new]
    origins = reps[first]
    chords = reps[second] - origins
    keep = _row_norms(chords) > 0.0
    origins, chords = origins[keep], chords[keep]
    ts = np.linspace(0.0, 1.0, 33)[1:-1]        # slots 7, 15, 23 are t = 1/4, 1/2, 3/4
    line, t = _scan_roots(
        _slope_functions(*_restrict_to_chords(solver, origins, chords)), ts, len(origins), _SCAN_HALVINGS
    )
    quarters = origins[:, None, :] + ts[[7, 15, 23], None] * chords[:, None, :]
    return np.concatenate([quarters.reshape(-1, reps.shape[1]), origins[line] + t[:, None] * chords[line]])


def _scan_roots(functions, grid: np.ndarray, n: int, halvings: int) -> tuple[np.ndarray, np.ndarray]:
    """The roots that a grid shows of n scalar functions, as (function index, parameter) arrays.

    `functions(rows)` returns the functions `rows` as one callable of t,
    which takes t of shape (T,), shared by the rows, or (len(rows), T), and
    returns their values as a (len(rows), T) array.  An exact zero on the
    ascending grid is a root, and so is every sign change between
    neighbouring grid points, bisected `halvings` times and finished with
    one secant (regula falsi) step: t_lo + width * f_lo / (f_lo - f_hi)
    from the values at the ends of its last bracket, which the grid or the
    last round has already evaluated (Brent, Algorithms for Minimization
    without Derivatives, 1973).  An exact zero at an end gives that end;
    where the fraction is not finite or lies outside [0, 1], the bracket's
    midpoint is returned.  The zeros come first, then the brackets, each
    in (function, grid slot) order.

    The halvings run in rounds of m (see `_halvings_per_round`): one call
    evaluates each bracket at the 2^m - 1 points inside it that its next m
    halvings can visit.  Halving keeps the left end at the bracket's first
    left sign and the right end at the other (a zero counts as negative),
    so the round keeps the sub-cell whose ends have those signs, or, of
    several, the one that every dyadic ancestor midpoint sends the bisection
    to: each last bracket, with its end values, and so each root, is that
    of halving one step at a time.
    """
    vals = functions(np.arange(n))(grid)
    zero_rows, slot = np.nonzero(vals == 0.0)
    found = [(zero_rows, grid[slot])]
    pair_idx, slot = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    if len(pair_idx):
        t_lo, width = grid[slot], grid[slot + 1] - grid[slot]
        rows, sides = np.arange(len(pair_idx))[:, None], np.arange(2)     # a cell's left and right end
        f_ends = vals[pair_idx[:, None], slot[:, None] + sides]          # the bracket's end values
        lo_positive = f_ends[:, 0] > 0.0
        evaluate = functions(pair_idx)
        per_round, left = _halvings_per_round(len(pair_idx)), halvings
        while left:
            m = min(per_round, left)
            cells, width = 2 ** m, np.ldexp(width, -m)          # the sub-cells' width
            ts_round = t_lo[:, None] + np.arange(1, cells) * width[:, None]
            f_round = np.concatenate([f_ends[:, :1], evaluate(ts_round), f_ends[:, 1:]], axis=1)
            same = (f_round > 0.0) == lo_positive[:, None]              # has the left sign
            ends = same[:, :-1] & ~same[:, 1:]
            if np.count_nonzero(ends) > len(ends):           # a bracket holds several
                # halving b goes right of the midpoint of the sub-cell's dyadic
                # ancestor of 2^(b+1) cells iff that midpoint has the left sign
                cell, bit = np.arange(cells)[:, None], np.arange(m)
                mids = (cell >> (bit + 1) << (bit + 1)) + (1 << bit)
                ends = np.all(same[:, mids] == ((cell >> bit) & 1 == 1), axis=2)
            sub = np.argmax(ends, axis=1)
            f_ends = f_round[rows, sub[:, None] + sides]
            t_lo = t_lo + sub * width
            left -= m
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = f_ends[:, 0] / (f_ends[:, 0] - f_ends[:, 1])
        found.append((pair_idx, t_lo + np.where((frac >= 0.0) & (frac <= 1.0), frac, 0.5) * width))
    return np.concatenate([r for r, _ in found]), np.concatenate([t for _, t in found])


def _segment_starts(solver: _LogSolver) -> np.ndarray:
    """Every critical point of a 1-d mixture, to scan precision, as (n, 1) rows.

    Each critical point is a precision-weighted average of the means, so
    they all lie on the segment [min mu, max mu], and they are the roots of
    the log-density slope there: `_chord_slopes` on that one chord.  The
    scan grid puts `_SEGMENT_GRID` around each mean, in units of its
    standard deviation, clipped to the segment, with both ends: it is dense
    near every component, however narrow, and reaches the far ends of
    segments that span thousands of standard deviations.  When the means
    coincide, that mean is the only critical point.
    """
    means = solver.means[:, 0]
    lo, hi = means.min(), means.max()
    if lo == hi:
        return solver.means[:1]
    origin, chord = np.array([[lo]]), np.array([[hi - lo]])
    sigmas = 1.0 / np.sqrt(solver.precisions[:, 0, 0])
    near = ((means[:, None] + sigmas[:, None] * _SEGMENT_GRID) - lo) / (hi - lo)
    grid = np.unique(np.concatenate([[0.0, 1.0], np.clip(near.ravel(), 0.0, 1.0)]))
    _, t = _scan_roots(_slope_functions(*_restrict_to_chords(solver, origin, chord)), grid, 1, _SCAN_HALVINGS)
    return lo + t[:, None] * chord[0]


def _ridgeline_starts(solver: _LogSolver) -> np.ndarray:
    """Every critical point of a two-component mixture, to scan precision, as (n, d) rows.

    The critical points are x*(s) at the roots of the ridgeline function
    g(s) = L_0(x*(s)) - L_1(x*(s)) - s, where x*(s) solves
    w_0 A_0 (x - mu_0) + w_1 A_1 (x - mu_1) = 0 with log(w_0 / w_1) = s
    (Ray & Lindsay, Ann. Statist. 33, 2005).  With A_0 = L L' and the
    eigenvectors V and eigenvalues lambda of L^-1 A_1 L^-T, the coordinates
    y = V'L'(x - mu_0) diagonalize both precisions, mu_1 sits at delta, and
    y_l(s) = p_l delta_l with p_l = lambda_l / (e^s + lambda_l); taken
    through r = e^-|s| (`_ridgeline_shares`), x*(s) costs O(d) and nothing
    overflows.  Since each y_l lies between 0 and delta_l, every root has
    |s| <= S = |L_0 - L_1 constants| + sum_l (1 + lambda_l) delta_l^2 / 2,
    and g is scanned on s = sinh(linspace(-a, a, _RIDGE_POINTS)) with
    a = asinh(S + 1): g is at least 1 at -S - 1 and at most -1 at S + 1, so a
    root at |s| = S (the means coincide) still shows as a sign change.
    """
    (a0, a1), (mu0, mu1) = solver.precisions, solver.means
    chol = np.linalg.cholesky(a0)
    half = np.linalg.solve(chol, a1)
    lam, vecs = np.linalg.eigh(np.linalg.solve(chol, half.T))
    back = np.linalg.solve(chol.T, vecs)         # x = mu_0 + back @ y
    delta = vecs.T @ (chol.T @ (mu1 - mu0))
    gap = solver.log_wn[0] - solver.log_wn[1]
    reach = math.asinh(1.0 + abs(gap) + 0.5 * float(np.sum((1.0 + lam) * delta ** 2)))

    def ridge(s):
        s = np.atleast_2d(s)                    # (T,) for the grid, (brackets, T) after
        near, far = _ridgeline_shares(lam, s)
        return gap - 0.5 * np.sum(delta ** 2 * (near ** 2 - lam * far ** 2), axis=-1) - s

    grid = np.unique(np.sinh(np.linspace(-reach, reach, _RIDGE_POINTS)))
    _, s = _scan_roots(lambda rows: ridge, grid, 1, _SCAN_HALVINGS)
    return mu0 + (_ridgeline_shares(lam, s)[0] * delta) @ back.T


def _ridgeline_shares(lam: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = lambda / (e^s + lambda) and 1 - p for every s and eigenvalue, as s.shape + (d,) arrays.

    Taken as r lambda / (1 + r lambda) and 1 / (1 + r lambda) for s >= 0,
    and lambda / (r + lambda) and r / (r + lambda) for s < 0, with
    r = e^-|s| in (0, 1].
    """
    s = np.asarray(s)[..., None]
    r = np.exp(-np.abs(s))
    scaled = r * lam
    positive = s >= 0.0
    denom = np.where(positive, 1.0 + scaled, r + lam)
    return np.where(positive, scaled, lam) / denom, np.where(positive, 1.0, r) / denom


def _restrict_to_chords(
    solver: _LogSolver, origins: np.ndarray, chords: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each component term along each line origins + t chords, as (n, k) arrays (top, q, vertex).

    On the line x(t) = a + t c, L_i(x(t)) = top_i - q_i (t - t_i)^2 / 2
    exactly, with q_i = c'A_i c (positive for c != 0), vertex
    t_i = -(a - mu_i)'A_i c / q_i and top_i = L_i(a + t_i c).  top_i is
    evaluated at the vertex point itself rather than expanded from the
    coefficients at a, which cancel to within rounding of |L_i(a)| when a
    component lies far from the line.
    """
    atimes_c = np.einsum("kij,nj->nki", solver.precisions, chords)
    q = np.einsum("nki,ni->nk", atimes_c, chords)
    vertex = -np.einsum("nki,nki->nk", atimes_c, origins[:, None, :] - solver.means[None]) / q
    diff = origins[:, None, :] + vertex[..., None] * chords[:, None, :] - solver.means[None]
    top = solver.log_wn - 0.5 * np.einsum("nki,kij,nkj->nk", diff, solver.precisions, diff)
    return top, q, vertex


def _chord_slopes(top: np.ndarray, q: np.ndarray, vertex: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d/dt log f(x(t)) on the n lines restricted by `_restrict_to_chords`, as (n, T).

    t holds T parameters per line as (n, T), or T shared by every line as (T,).

    The slope of the 1-d mixture of the terms top_i - q_i (t - t_i)^2 / 2:
    -sum_i w_i q_i (t - t_i) with responsibilities w = softmax of the terms,
    which needs no log-density.  On (k, n, T) arrays, each reduction over
    the components runs along T and takes its columns in sequence.
    """
    top, q, vertex = (np.ascontiguousarray(a.T)[..., None] for a in (top, q, vertex))
    offsets = t - vertex
    slopes = q * offsets                          # minus each term's own slope
    terms = top - 0.5 * slopes * offsets
    e = np.exp(terms - terms.max(axis=0))
    return -(e / e.sum(axis=0) * slopes).sum(axis=0)


def _slope_functions(top: np.ndarray, q: np.ndarray, vertex: np.ndarray):
    """The slopes of lines restricted by `_restrict_to_chords`, as the `functions` of `_scan_roots`."""
    return lambda rows: partial(_chord_slopes, top[rows], q[rows], vertex[rows])


def _halvings_per_round(n_brackets: int) -> int:
    """Bisection halvings per call in `_scan_roots`, from 1 to 5.

    A round of m halvings is one call at 2^m - 1 points per bracket (each an
    O(k) chord slope, an O(d) ridgeline value or an O(1) simplex ray value)
    and a fixed number of array operations, so m trades points against
    rounds: m is the largest that keeps a call at 256 rows or fewer.
    """
    m = 1
    while m < 5 and n_brackets * (2 ** (m + 1) - 1) <= 256:
        m += 1
    return m


# -- classification and reporting -----------------------------------------------


@dataclass(frozen=True)
class CriticalPoint:
    """A classified critical point of a mixture density.

    `reduced_coords` are the density ratios y in the chart of the report's
    reference component.  `reduced_residual` is the norm of the unscaled
    ratio residual R_i = y_i - beta_i exp(q_i(X(y))) in the chart of
    `reduced_reference`, the component with the largest responsibility at
    the point: there every ratio is at most 1, so R certifies the bijection
    even at remote points whose ratios in the report's chart reach 1e66.
    Components whose log terms lie within 1e-12 * (1 + |max|) of the
    largest count as tied, and the lowest index among them is reported, so
    a tie by symmetry gives the same chart under rounding-level changes.
    """

    location: np.ndarray
    density: float
    log_density: float
    gradient_residual: float
    morse_index: int
    eig_ratio: float
    degenerate: bool
    hessian_eigenvalues: tuple[float, ...]
    mean_shift_residual: float
    reduced_coords: np.ndarray | None = None
    reduced_residual: float | None = None
    cluster_diameter: float = 0.0
    reduced_reference: int | None = None

    @property
    def is_mode(self) -> bool:
        return self.morse_index == self.location.shape[0]

    def to_dict(self) -> dict:
        return {
            "location": [float(v) for v in self.location],
            "density": _json_float(self.density),
            "log_density": _json_float(self.log_density),
            "gradient_residual": _json_float(self.gradient_residual),
            "morse_index": self.morse_index,
            "eig_ratio": _json_float(self.eig_ratio),
            "degenerate": self.degenerate,
            "hessian_eigenvalues": [_json_float(v) for v in self.hessian_eigenvalues],
            "mean_shift_residual": _json_float(self.mean_shift_residual),
            "reduced_coords": None if self.reduced_coords is None
            else [_json_float(v) for v in self.reduced_coords],
            "reduced_residual": _json_float(self.reduced_residual),
            "reduced_reference": self.reduced_reference,
            "cluster_diameter": _json_float(self.cluster_diameter),
            "is_mode": self.is_mode,
        }


def _json_float(v) -> float | str | None:
    if v is None:
        return None
    v = float(v)
    if math.isfinite(v):
        return v
    return repr(v)


@dataclass(frozen=True)
class SolveReport:
    """What a solve found, and the count, Morse and bound verdicts read from it.

    The fields are the solve's own outputs: the deduplicated, classified
    critical points and the number of starts run and converged (for d = 1
    or k = 2, the scan roots and those whose final point passes
    `grad_accept_tol`).
    Every verdict is a property of those fields, so a report made with
    `dataclasses.replace(report, points=...)` judges its new points.
    """

    mixture: Mixture
    points: tuple[CriticalPoint, ...]
    n_starts: int
    n_converged: int
    config: SolverConfig = field(default_factory=SolverConfig)

    @property
    def reference(self) -> int:
        """The chart of each point's `reduced_coords` (see `_reference`)."""
        return _reference(self.mixture)

    @property
    def n_dropped(self) -> int:
        return self.n_starts - self.n_converged

    @property
    def all_nondegenerate(self) -> bool:
        return bool(self.points) and all(not p.degenerate for p in self.points)

    @property
    def morse_inequality_ok(self) -> bool:
        """M <= floor((N+1)/2) and C_(d-1) >= M - 1; vacuously true unless all_nondegenerate."""
        return _morse_verdicts(self.mixture.dim, self.points)[0] or not self.all_nondegenerate

    @property
    def morse_equality_ok(self) -> bool:
        """sum_i (-1)^(d-i) c_i = 1; vacuously true unless all_nondegenerate."""
        return _morse_verdicts(self.mixture.dim, self.points)[1] or not self.all_nondegenerate

    @property
    def u_best(self) -> BoundValue | None:
        """U_best = min(U_het, U_aug) at (d, k); None for a single Gaussian, where the bounds do not start."""
        k = self.mixture.n_components
        return upper_bound("BEST", self.mixture.dim, k) if k >= 2 else None

    @property
    def u_mode(self) -> BoundValue | None:
        """floor((U_best + 1) / 2)."""
        u_best = self.u_best
        return None if u_best is None else mode_bound_from_critical(u_best)

    @cached_property
    def hom_rank(self) -> int | None:
        """The affine rank of the means of a homoscedastic mixture with k >= 2, else None."""
        if self.mixture.n_components < 2 or not self.mixture.is_homoscedastic():
            return None
        return affine_rank(self.mixture.means)

    @property
    def u_best_hom(self) -> BoundValue | None:
        """U_best_hom at the affine rank of the means, when that rank is at least 1."""
        r = self.hom_rank
        return None if r is None or r < 1 else upper_bound("BEST_HOM", r, self.mixture.n_components)

    @property
    def upper_sandwich_ok(self) -> bool:
        """N <= U_best, M <= U_mode and N <= U_best_hom; vacuously true unless all_nondegenerate."""
        if self.u_best is None or not self.all_nondegenerate:
            return True
        n = self.n_critical
        ok = n <= self.u_best.exact and self.n_modes <= self.u_mode.exact
        return ok and (self.u_best_hom is None or n <= self.u_best_hom.exact)

    @property
    def n_critical(self) -> int:
        return len(self.points)

    @property
    def n_modes(self) -> int:
        return sum(1 for p in self.points if p.is_mode)

    @property
    def n_index_dminus1(self) -> int:
        d = self.mixture.dim
        return sum(1 for p in self.points if p.morse_index == d - 1)

    @property
    def counts_by_index(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.points:
            out[p.morse_index] = out.get(p.morse_index, 0) + 1
        return dict(sorted(out.items()))

    @property
    def modes(self) -> tuple[CriticalPoint, ...]:
        return tuple(p for p in self.points if p.is_mode)

    def to_dict(self) -> dict:
        return {
            "dim": self.mixture.dim,
            "n_components": self.mixture.n_components,
            "reference": self.reference,
            "n_critical": self.n_critical,
            "n_modes": self.n_modes,
            "n_index_dminus1": self.n_index_dminus1,
            "counts_by_index": {str(k): v for k, v in self.counts_by_index.items()},
            "all_nondegenerate": self.all_nondegenerate,
            "morse_inequality_ok": self.morse_inequality_ok,
            "morse_equality_ok": self.morse_equality_ok,
            "upper_sandwich_ok": self.upper_sandwich_ok,
            "u_best": None if self.u_best is None else self.u_best.exact,
            "u_mode": None if self.u_mode is None else self.u_mode.exact,
            "u_best_hom": None if self.u_best_hom is None else self.u_best_hom.exact,
            "hom_rank": self.hom_rank,
            "diagnostics": {
                "n_starts": self.n_starts,
                "n_converged": self.n_converged,
                "n_dropped": self.n_dropped,
            },
            "config": self.config.to_dict(),
            "points": [p.to_dict() for p in self.points],
        }


def _reference(mixture: Mixture) -> int:
    """The report's reference component, the chart of `reduced_coords`: the heaviest, lowest index on ties."""
    return int(np.argmax(mixture.weights))


def _classify(
    solver: _LogSolver, xs: np.ndarray, derivatives: Sequence[np.ndarray], config: SolverConfig,
    diameters: Sequence[float],
) -> list[CriticalPoint]:
    """Classify each of the (B, d) points, critical or not; callers apply `grad_accept_tol`.

    `derivatives` are the points' `relative_derivatives`, whose terms give
    the charts too.  Every quantity is taken for the whole batch as an
    array, and each point is built from its row and its `diameters` entry.
    A single Gaussian has no ratio system, so its points carry no reduced
    coordinates.
    """
    log_f, grad, hess, terms = derivatives
    eigs = np.linalg.eigvalsh(hess)
    abs_eigs = np.abs(eigs)
    # Degeneracy is judged against the mixture's own curvature scale, not just
    # the largest eigenvalue at the point: a fully flat Hessian (all
    # eigenvalues near zero, e.g. a fold point in 1-d) must still register.
    eig_ratios = abs_eigs.min(axis=1) / np.maximum(abs_eigs.max(axis=1), solver.curvature_scale)
    # X at a point's own log-ratios is its mean-shift image; R is taken in the
    # dominant chart, where R_i = -y_i expm1(-S_i), and terms tied to 1e-12
    # relative go to the lowest index (see CriticalPoint).
    top = _last_max(terms)[:, None]
    charts = np.argmax(terms >= top - 1e-12 * (1.0 + np.abs(top)), axis=1)
    log_y = _centre(terms, charts)
    images, _, _ = solver.x_batch(log_y)
    s = _centre(log_y - solver.component_terms(images)[0], charts)
    reduced_residuals = _row_norms(-np.exp(log_y) * np.expm1(-s))
    reference, ratios = _reference(solver.mixture), solver.mixture.n_components >= 2
    with np.errstate(over="ignore"):
        reduced = np.exp(np.delete(log_y - log_y[:, reference, None], reference, axis=1))
    density, log_f, grad_norms, index, eig_ratios, eigs, shifts, residuals, charts = map(np.ndarray.tolist, (
        np.exp(log_f), log_f, _vector_norms(grad), np.count_nonzero(eigs < 0.0, axis=1), eig_ratios, eigs,
        _vector_norms(images - xs), reduced_residuals, charts))
    return [CriticalPoint(
        location=np.array(x, dtype=float),
        density=density[i],
        log_density=log_f[i],
        gradient_residual=grad_norms[i],
        morse_index=index[i],
        eig_ratio=eig_ratios[i],
        degenerate=eig_ratios[i] < config.degeneracy_tol,
        hessian_eigenvalues=tuple(eigs[i]),
        mean_shift_residual=shifts[i],
        reduced_coords=reduced[i] if ratios else None,
        reduced_residual=residuals[i] if ratios else None,
        cluster_diameter=float(diameters[i]),
        reduced_reference=charts[i] if ratios else None,
    ) for i, x in enumerate(xs)]


def polish_critical(mixture: Mixture, x: np.ndarray) -> np.ndarray:
    """Refine an approximate critical point by damped Newton on the relative gradient."""
    return _LogSolver(mixture).polish(mixture._check_point(x)[None])[0]


def classify(mixture: Mixture, x: np.ndarray, config: SolverConfig | None = None) -> CriticalPoint:
    """Classify a point that is already critical to the acceptance tolerance.

    Raises ValueError when the density-relative gradient norm at x exceeds
    the configured tolerance.
    """
    config = config or SolverConfig()
    solver, xs = _LogSolver(mixture), mixture._check_point(x)[None]
    point = _classify(solver, xs, solver.relative_derivatives(xs), config, [0.0])[0]
    if not point.gradient_residual <= config.grad_accept_tol:
        raise ValueError(
            f"point is not critical: relative gradient norm {point.gradient_residual:.3e} "
            f"exceeds acceptance tolerance {config.grad_accept_tol:.1e}"
        )
    return point


def _cluster(
    candidates: Sequence[np.ndarray], tol: float, prior: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy relative-tolerance clustering, optionally around fixed representatives.

    Each prior representative r, in row order, first claims every candidate
    not yet claimed that lies within tol * (1 + |r|).  The other candidates
    are visited in lexicographic order: each one joins the first
    representative r chosen before it that lies within tol * (1 + |r|), and
    otherwise becomes a representative itself.  Returns the prior rows
    followed by the new representatives, and, for each candidate, the index
    of its representative in that array.  The prior rows are returned as
    given, so a representative does not move when later roots join it.

    The prior rows claim in one array pass: each candidate goes to the
    first prior row within its radius, by squared distances summed
    coordinate by coordinate as `_row_norms` sums them, in blocks of at most
    65,536 candidate-prior entries.  The greedy loop then runs once per new
    representative: the first unlabelled candidate becomes the next one and
    claims every later unlabelled candidate within its radius, which is the
    same assignment.
    """
    points = np.array(candidates, dtype=float)
    order = np.lexsort(points.T[::-1])      # first coordinate is the primary key
    ordered = points[order]
    prior = ordered[:0] if prior is None else np.asarray(prior, dtype=float)
    labels = np.empty(len(points), dtype=int)
    free = np.ones(len(points), dtype=bool)

    if len(prior):
        radii = tol * (1.0 + _vector_norms(prior))
        block = max(1, 2 ** 16 // len(prior))
        for lo in range(0, len(points), block):
            part = ordered[lo:lo + block]
            squares = np.zeros((len(prior), len(part)))
            for x, r in zip(part.T, prior.T):
                diff = x[None] - r[:, None]
                squares += diff * diff
            within = np.sqrt(squares) <= radii[:, None]
            hits = np.flatnonzero(within.any(axis=0))
            labels[order[lo + hits]] = within[:, hits].argmax(axis=0)
            free[lo + hits] = False
    chosen: list[int] = []
    while free.any():
        pos = int(np.argmax(free))          # every candidate before it is labelled
        free[pos] = False
        r, later = ordered[pos], np.flatnonzero(free)
        hits = later[_row_norms(ordered[later] - r) <= tol * (1.0 + _vector_norms(r[None])[0])]
        labels[order[pos]] = labels[order[hits]] = len(prior) + len(chosen)
        free[hits] = False
        chosen.append(pos)
    return np.concatenate([prior, ordered[np.array(chosen, dtype=int)]]), labels


def _dedup_points(candidates: np.ndarray, solver: _LogSolver, config: SolverConfig) -> tuple[tuple, int]:
    """Cluster near-identical locations; keep and classify each cluster's best member.

    The best member passes the gradient test with the smallest gradient
    residual, the first in lexicographic order on ties; a cluster with no
    passing member is dropped.  Only the kept rows of one
    `relative_derivatives` batch are classified, each with the
    `cluster_diameter` of its cluster.  Returns the points and how many
    candidates pass.
    """
    if not len(candidates):
        return (), 0
    members = np.array(candidates)
    members = members[np.lexsort(members.T[::-1])]      # so ties keep the first
    _, labels = _cluster(members, config.dedup_tol)
    derivatives = solver.relative_derivatives(members)
    residuals = _vector_norms(derivatives[1])
    passing = np.flatnonzero(residuals <= config.grad_accept_tol)
    # by label, then residual; lexsort is stable, so ties keep the lower row
    ranked = passing[np.lexsort((residuals[passing], labels[passing]))]
    kept = ranked[np.unique(labels[ranked], return_index=True)[1]]
    same = labels[:, None] == labels
    spread = np.where(same, _distances(members), 0.0).max(axis=1)      # within its cluster
    diameters = np.where(same[kept], spread, 0.0).max(axis=1)
    points = _classify(solver, members[kept], [a[kept] for a in derivatives], config, diameters)
    # rounded first, so mirror points whose coordinates tie to the last ulps
    # keep their order under rounding-level changes in the solver
    points.sort(key=lambda p: (tuple(np.round(p.location, 9)), tuple(p.location)))
    return tuple(points), len(passing)


def find_critical_points(mixture: Mixture, config: SolverConfig | None = None) -> SolveReport:
    """Locate and classify the critical points of a mixture density.

    For d = 1 or k = 2, dedup and classification take the roots of an
    exact scalar function, bisected to 2^-20 of a grid cell and finished
    with a secant step (see `_scan_roots`): the log-density slope on
    [min mu, max mu] (`_segment_starts`) for d = 1, the ridgeline function
    (`_ridgeline_starts`) for k = 2.  When some roots fail
    `grad_accept_tol`, only those are polished, and dedup runs again;
    polish treats each row on its own, so a polished root is the same
    whichever roots skip it.  `n_starts` counts the scan roots,
    `n_converged` those whose final point passes `grad_accept_tol`.  Two roots in one grid cell are
    missed.  On either route dedup keeps one passing root per cluster, and
    only the kept roots are classified (see `_dedup_points`).

    Otherwise damped Newton runs on the log-ratio system, each start in the
    chart of its dominant component (see `_LogSolver`), and the converged
    roots are clustered, polished, deduplicated and classified; `n_starts`
    and `n_converged` count the starts run and converged.  Round 0 starts
    at the means and the mean midpoints; each later round reseeds on the
    chords between the roots found so far, where saddles between far-apart
    modes sit (see `_chord_starts`).  There is no completeness certificate;
    the report carries start/drop diagnostics instead.  Every round keeps
    the representatives found before it fixed and appends the roots that
    join none of them (see `_cluster`), and seeds only the chords with an
    endpoint that the round before it added.  The rounds stop when one adds
    no representative, or after six rounds.
    """
    config = config or SolverConfig()
    d, k = mixture.dim, mixture.n_components
    if k == 1:
        return SolveReport(mixture, _dedup_points(mixture.means, _LogSolver(mixture), config)[0], 1, 1, config)
    if (d > MAX_DIM or k > MAX_COMPONENTS) and not config.force:
        raise ValueError(
            f"instance size d={d}, k={k} exceeds configured limits "
            f"(max_dim={MAX_DIM}, max_components={MAX_COMPONENTS}); "
            "set force=True to override"
        )

    solver = _LogSolver(mixture)
    if d == 1 or k == 2:
        roots = _segment_starts(solver) if d == 1 else _ridgeline_starts(solver)
        points, accepted = _dedup_points(roots, solver, config)
        if accepted < len(roots):           # polish the roots that fail, and dedup again
            rough = _vector_norms(solver.relative_gradient(roots)[0]) > config.grad_accept_tol
            roots[rough] = solver.polish(roots[rough])
            points, accepted = _dedup_points(roots, solver, config)
        return SolveReport(mixture, points, len(roots), accepted, config)
    first, second = np.triu_indices(k, 1)
    starts = np.concatenate([mixture.means, 0.5 * (mixture.means[first] + mixture.means[second])])
    reps = np.empty((0, d))
    n_starts = n_converged = 0
    for round_ in range(6):
        roots, converged = solver.solve_batch(starts)
        n_starts, n_converged = n_starts + len(starts), n_converged + converged
        reps, n_old = _cluster(roots, config.dedup_tol, prior=reps)[0], len(reps)
        if len(reps) == n_old or round_ == 5:
            break
        starts = _chord_starts(solver, reps, n_old)
        if not len(starts):
            break

    return SolveReport(mixture, _dedup_points(solver.polish(reps), solver, config)[0],
                       n_starts, n_converged, config)


def solve_reduced_homoscedastic(mixture: Mixture, config: SolverConfig | None = None) -> SolveReport:
    """Solve a homoscedastic mixture through its rank-reduced form.

    Whitens and projects onto the affine hull of the means, solves the
    r-dimensional unit-covariance mixture there, then maps the critical
    points back, polishes, and reclassifies them against the original
    density.  Counts and locations agree with the direct solve; this path
    is cheaper when r is much smaller than d.  A single Gaussian, or a
    mixture whose means all coincide (r = 0), has nothing to reduce and is
    solved directly.  Heteroscedastic input raises ValueError.
    """
    config = config or SolverConfig()
    if affine_rank(mixture.means) == 0 and mixture.is_homoscedastic():
        return find_critical_points(mixture, config)
    amap, reduced, _ = reduce_homoscedastic(mixture)
    inner = find_critical_points(reduced, config)
    d, r = mixture.dim, reduced.dim
    solver = _LogSolver(mixture)
    candidates = np.array([amap.inverse(np.concatenate([p.location, np.zeros(d - r)]))
                           for p in inner.points]).reshape(-1, d)
    return SolveReport(mixture, _dedup_points(solver.polish(candidates), solver, config)[0],
                       inner.n_starts, inner.n_converged, config)


def _morse_verdicts(dim: int, points: Sequence[CriticalPoint]) -> tuple[bool, bool]:
    """The Morse inequalities and the Morse equality on a set of critical points.

    The inequalities are M <= floor((N+1)/2) and C_(d-1) >= M - 1; the
    equality is sum_i (-1)^(d-i) c_i = 1 over the counts c_i of points of
    Morse index i (Poincare-Hopf for grad(-log f) on a large ball, where
    -log f is coercive).
    """
    indices = [p.morse_index for p in points]
    n, m, c = len(indices), indices.count(dim), indices.count(dim - 1)
    return m <= (n + 1) // 2 and c >= m - 1, sum((-1) ** (dim - i) for i in indices) == 1
