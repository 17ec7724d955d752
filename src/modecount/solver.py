"""Critical-point solver for Gaussian mixtures via the reduced ratio system.

Critical points of a k-component mixture biject with positive roots of the
(k-1)-dimensional system R(y) = 0, where y carries the component density
ratios against a reference component, and any component can be that
reference.  This module builds that system for one reference
(`ReducedSystem`), solves it with a deterministic multistart damped Newton
iteration in log-coordinates that runs each start in the chart of its own
dominant component, classifies the roots by Hessian inertia, and assembles
a report with Morse-inequality and upper-bound verdicts.

Everything downstream of `relative_derivatives` works with density-relative
quantities (responsibilities, gradient over density, Hessian over density),
so the solver stays numerically meaningful even for witness mixtures whose
components sit hundreds of standard deviations apart.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .bounds import BoundValue, mode_bound_from_critical, upper_bound
from .mixture import Mixture, affine_rank, logsumexp, reduce_homoscedastic

__all__ = [
    "ReducedSystem",
    "CriticalPoint",
    "SolveReport",
    "SolverConfig",
    "build_reduced",
    "x_of_y",
    "residual_R",
    "reduced_jacobian",
    "mean_shift_step",
    "find_critical_points",
    "solve_reduced_homoscedastic",
    "classify",
    "polish_critical",
    "morse_check",
]

@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and search parameters for `find_critical_points`.

    The defaults implement the documented contract: Newton in log ratio
    coordinates converging at 1e-12 (relative to the largest log-ratio of
    the row, see `_LogSolver`), relative dedup at 1e-6, degeneracy
    flagged below eigenvalue ratio 1e-8, and points accepted as critical
    when the density-relative gradient norm is below 1e-9.  The starts
    (component means, mean midpoints and chord starts) and the Newton
    polish of the roots in the original coordinates are fixed by
    `find_critical_points`, not configured here.

    The Newton line search tries `max_halvings` = 12 rungs, the Newton step
    scaled by 1, 1/2, ..., 1/2048, takes the first that lowers the residual
    norm, and drops a start that no rung improves.  `_LogSolver.iterate`
    evaluates the full step together with its Newton matrix and the other
    rungs in one stacked call.  A start that cannot lower its residual with
    1/2048 of its Newton step has slid into a local minimum of the residual
    norm that is not a root, where the Jacobian turns singular; deeper rungs
    only let it crawl on rounding-noise decreases for up to
    `newton_max_iter` steps.  The cap drops those starts after one ladder;
    on the benchmark's instances it changed no count of critical points,
    modes or indices, only how many starts converge.
    """

    newton_max_iter: int = 200
    newton_tol: float = 1e-12
    max_halvings: int = 12
    dedup_tol: float = 1e-6
    degeneracy_tol: float = 1e-8
    grad_accept_tol: float = 1e-9
    max_dim: int = 6
    max_components: int = 6
    force: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ReducedSystem:
    """Coefficients of the reduced ratio system for one reference component.

    For each non-reference component i the ratio rho_i(x) =
    alpha_i phi_i(x) / (alpha_ref phi_ref(x)) equals beta_i exp(q_i(x)) with
    the quadratic q_i(x) = x'Hx/2 + g'x + c stored coefficientwise.
    """

    mixture: Mixture
    reference: int
    free: tuple[int, ...]               # non-reference component indices, ascending
    log_betas: np.ndarray               # (m,)
    quad: np.ndarray                    # (m, d, d) quadratic coefficient H_i
    lin: np.ndarray                     # (m, d) linear coefficient g_i
    const: np.ndarray                   # (m,) scalar coefficient c_i

    @property
    def dim(self) -> int:
        return self.mixture.dim

    @property
    def n_free(self) -> int:
        return len(self.free)

    def q_values(self, x: np.ndarray) -> np.ndarray:
        """All q_i(x) as an (m,) vector."""
        x = np.asarray(x, dtype=float)
        return (
            0.5 * np.einsum("i,kij,j->k", x, self.quad, x)
            + self.lin @ x
            + self.const
        )

    def log_rho(self, x: np.ndarray) -> np.ndarray:
        """log of the density ratios rho_i(x) against the reference."""
        return self.log_betas + self.q_values(x)


def build_reduced(mixture: Mixture, reference: int | None = None) -> ReducedSystem:
    """Assemble the reduced system with the given reference component.

    The reference defaults to the last component; any choice gives the
    same critical set.  `find_critical_points` does not build this system:
    `_LogSolver` evaluates the same equations from the component terms, in
    a chart picked per start.
    """
    k = mixture.n_components
    if k < 2:
        raise ValueError("the reduced system needs k >= 2; a single Gaussian has mean as its only critical point")
    ref = k - 1 if reference is None else int(reference)
    if not 0 <= ref < k:
        raise ValueError(f"reference index {ref} out of range for {k} components")
    free = tuple(i for i in range(k) if i != ref)
    comps = mixture.components
    cref = comps[ref]
    a_ref = cref.precision
    a_ref_mu = a_ref @ cref.mean
    log_betas = np.array([
        math.log(comps[i].weight) - math.log(cref.weight)
        + 0.5 * (cref.log_det_cov - comps[i].log_det_cov)
        for i in free
    ])
    quad = np.array([a_ref - comps[i].precision for i in free])
    lin = np.array([comps[i].precision @ comps[i].mean - a_ref_mu for i in free])
    const = np.array([
        0.5 * (cref.mean @ a_ref_mu - comps[i].mean @ comps[i].precision @ comps[i].mean)
        for i in free
    ])
    return ReducedSystem(
        mixture=mixture, reference=ref, free=free,
        log_betas=log_betas, quad=quad, lin=lin, const=const,
    )


def _chart_row(sys: ReducedSystem, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive ratios y as floats, and log y as a one-row batch u in chart `sys.reference`."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("ratios y must be strictly positive")
    u = np.zeros((1, sys.mixture.n_components))
    u[0, list(sys.free)] = np.log(y)
    return y, u


def x_of_y(sys: ReducedSystem, y: np.ndarray) -> np.ndarray:
    """The candidate critical point X(y) = M(y)^{-1} nu(y) for positive ratios y."""
    _, u = _chart_row(sys, y)
    x, _, _ = _LogSolver(sys.mixture).x_batch(u)
    return x[0]


def residual_R(sys: ReducedSystem, y: np.ndarray) -> np.ndarray:
    """Componentwise residual R_i(y) = y_i - beta_i exp(q_i(X(y))).

    Evaluated as -y_i expm1(-S_i(log y)) from the log-ratio residual S, which
    is the same real function assembled without overflowing intermediates.
    """
    y, u = _chart_row(sys, y)
    s = _LogSolver(sys.mixture).residual_batch(u, np.array([sys.reference]))
    return -y * np.expm1(-s[0, list(sys.free)])


def reduced_jacobian(sys: ReducedSystem, y: np.ndarray) -> np.ndarray:
    """Jacobian DR(y); its regularity matches the Hessian's at roots.

    With rho = y exp(-S) the ratios at X(y), DR = I - diag(rho) (I - DS)
    diag(1/y), where DS is the Jacobian of S in u = log y.
    """
    y, u = _chart_row(sys, y)
    s, jac = _LogSolver(sys.mixture).residual_and_jacobian_batch(u, np.array([sys.reference]))
    free = list(sys.free)
    eye = np.eye(sys.n_free)
    rho = y * np.exp(-s[0, free])
    return eye - rho[:, None] * (eye - jac[0][np.ix_(free, free)]) / y[None, :]


def mean_shift_step(mixture: Mixture, x: np.ndarray) -> np.ndarray:
    """One step of the responsibility-weighted mean shift map.

    Fixed points are exactly the critical points of the density.
    """
    w = mixture.responsibilities(x)
    m_mat = np.einsum("k,kij->ij", w, mixture.precisions)
    nu = np.einsum("k,kij,kj->i", w, mixture.precisions, mixture.means)
    return np.linalg.solve(m_mat, nu)


# -- multistart Newton in log ratio coordinates --------------------------------


class _LogSolver:
    """Batched damped Newton on the log-ratio system, each row in its own chart.

    A row holds the full k-vector u of log-ratios together with a chart c,
    the component whose ratio is the reference.  With the centred component
    terms L_i(x) = log(alpha_i phi_i(x)) = log alpha_i + log norm_i
    - (x - mu_i)'A_i(x - mu_i)/2, the residual is

        S(u) = (u - L(X(u))) - (u_c - L_c(X(u))),

    where X(u) = M_w^{-1} nu_w with responsibilities w = softmax(u), so
    arbitrarily large log-ratios never materialize as exponentials.  S_c
    vanishes, and the other entries are the reduced system of chart c in
    log y = u - u_c.  A change of chart is linear, so it leaves Newton's
    step unchanged (Newton's method is affine invariant), but it changes
    the residual norm that the line search and the tolerance read.  A start
    begins in the chart of its largest log-ratio, where no ratio exceeds 1,
    and keeps that chart; in the chart of a component that is negligible at
    the start, a root's residual can sit far above its tolerance one step
    from the root.

    Every reduction runs along one row (einsum rather than BLAS matmul, whose
    rounding depends on the batch shape), so a row's residual and Newton
    matrix, and hence its Newton path, do not depend on which other rows
    share its batch.  `iterate` relies on that when it carries a row's
    matrix from the batch of one step into the next.
    """

    def __init__(self, mixture: Mixture):
        self.mixture = mixture
        self.means = mixture.means
        self.precisions = mixture.precisions
        self.pmeans = np.einsum("kij,kj->ki", self.precisions, self.means)
        self.log_wn = mixture.log_weights + mixture.log_norms
        # the largest eigenvalue of any component precision, the mixture's
        # curvature scale for the degeneracy test in `_classify_at`
        self.curvature_scale = float(np.linalg.eigvalsh(self.precisions).max())

    def component_terms(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L(x) as a (B, k) batch, and A_i (x - mu_i) as (B, k, d), for (B, d) points."""
        diff = x[:, None, :] - self.means[None]
        atimes = np.einsum("kij,bkj->bki", self.precisions, diff)
        return self.log_wn - 0.5 * np.einsum("bki,bki->bk", diff, atimes), atimes

    def chart_coords(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-ratios u = L(x) - L_c(x) and chart c = argmax L(x) for (B, d) points."""
        terms, _ = self.component_terms(x)
        charts = np.argmax(terms, axis=1)
        return _centre(terms, charts), charts

    def x_batch(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X, w, M_w) for a (B, k) batch of log-ratio vectors."""
        w = np.exp(u - logsumexp(u, axis=1, keepdims=True))
        m_mat = np.einsum("bk,kij->bij", w, self.precisions)
        nu = np.einsum("bk,ki->bi", w, self.pmeans)
        x = np.linalg.solve(m_mat, nu[..., None])[..., 0]
        return x, w, m_mat

    def residual_batch(self, u: np.ndarray, charts: np.ndarray) -> np.ndarray:
        x, _, _ = self.x_batch(u)
        terms, _ = self.component_terms(x)
        return _centre(u - terms, charts)

    def residual_and_jacobian_batch(self, u: np.ndarray, charts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """S and its k x k Newton matrix, whose row c is e_c, so that step_c = 0."""
        x, w, m_mat = self.x_batch(u)
        terms, atimes = self.component_terms(x)
        s = _centre(u - terms, charts)
        # dX/du_j = -w_j M_w^{-1} A_j (X - mu_j), and the gradient of L_i in X
        # is -A_i (X - mu_i)
        cols = -np.linalg.solve(m_mat, atimes.transpose(0, 2, 1)) * w[:, None, :]
        grads = _centre(-atimes, charts)
        jac = np.eye(u.shape[1]) - np.einsum("bkd,bdm->bkm", grads, cols)
        return s, jac

    def _row_tols(self, u: np.ndarray, tol: float) -> np.ndarray:
        # Residual entries are differences of log-density terms of size |u|,
        # so the attainable floor grows with the largest log-ratio; a root a
        # few thousand log-units from its chart can never reach an absolute
        # 1e-12.
        return tol * (1.0 + np.max(np.abs(u), axis=1))

    def solve_batch(self, x0: np.ndarray, config: SolverConfig) -> tuple[np.ndarray, int]:
        """Damped Newton from each seed point in its dominant chart; returns (roots, count)."""
        u, converged = self.iterate(*self.chart_coords(x0), config)
        return self.x_batch(u[converged])[0], int(np.count_nonzero(converged))

    def iterate(self, u0: np.ndarray, charts: np.ndarray, config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
        """Damped Newton on every row of log-ratios u0 in its chart.

        Each row carries its residual S and Newton matrix at its current u.
        The full step is evaluated together with its Newton matrix, so a row
        that accepts it starts its next step without another call; a row
        that accepts a shorter step gets its matrix in one more call.
        Returns the final rows and the mask of those that converged.
        """
        u = np.array(u0, dtype=float)
        n, k = u.shape
        s = np.full((n, k), np.nan)
        jac = np.full((n, k, k), np.nan)
        stale = np.zeros(n, dtype=bool)       # rows whose s and jac are not taken at u
        norms = np.full(n, np.inf)
        finite = np.all(np.isfinite(u), axis=1)
        if np.any(finite):
            s[finite], jac[finite] = self.residual_and_jacobian_batch(u[finite], charts[finite])
            norms[finite] = np.linalg.norm(s[finite], axis=1)
        active = np.isfinite(norms) & (norms > self._row_tols(u, config.newton_tol))

        for _ in range(config.newton_max_iter):
            if not np.any(active):
                break
            renew = np.flatnonzero(active & stale)
            if len(renew):
                s[renew], jac[renew] = self.residual_and_jacobian_batch(u[renew], charts[renew])
                stale[renew] = False
            idx = np.flatnonzero(active)
            steps = np.full((len(idx), k), np.nan)
            try:
                steps = np.linalg.solve(jac[idx], -s[idx][..., None])[..., 0]
            except np.linalg.LinAlgError:
                for row, i in enumerate(idx):
                    try:
                        steps[row] = np.linalg.solve(jac[i], -s[i])
                    except np.linalg.LinAlgError:
                        pass
            good = np.all(np.isfinite(steps), axis=1)
            active[idx[~good]] = False

            pending = idx[good]
            steps = steps[good]
            # Halving ladder: rung j tries the step scaled by 2^-j, and a row
            # takes its first improving rung.  Rung 0, the full step, is
            # evaluated with its Newton matrix.  The rows it does not improve
            # try rungs 1 ... max_halvings - 1 in one stacked residual call,
            # which accepts exactly what trying them one at a time would.
            if config.max_halvings >= 1 and len(pending):
                cand = u[pending] + steps
                cand_s, cand_jac = self.residual_and_jacobian_batch(cand, charts[pending])
                cand_norms = np.linalg.norm(cand_s, axis=1)
                better = np.isfinite(cand_norms) & (cand_norms < norms[pending])
                took = pending[better]
                u[took], norms[took] = cand[better], cand_norms[better]
                s[took], jac[took] = cand_s[better], cand_jac[better]
                pending, steps = pending[~better], steps[~better]
            if config.max_halvings >= 2 and len(pending):
                scales = np.ldexp(1.0, -np.arange(1, config.max_halvings))
                cand = u[pending][:, None, :] + scales[None, :, None] * steps[:, None, :]
                cand_norms = np.linalg.norm(
                    self.residual_batch(cand.reshape(-1, k), np.repeat(charts[pending], len(scales))),
                    axis=1,
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
            active &= norms > self._row_tols(u, config.newton_tol)

        return u, norms <= self._row_tols(u, config.newton_tol)


def _centre(values: np.ndarray, charts: np.ndarray) -> np.ndarray:
    """Subtract from each row of a batch its entry in that row's chart."""
    return values - values[np.arange(len(values)), charts][:, None]


def _chord_starts(solver: _LogSolver, reps: np.ndarray) -> np.ndarray:
    """Restart seeds on the chords between found critical points, as (n, d) rows.

    Every chord contributes its points at t = 1/4, 1/2 and 3/4.  Along the
    chord the directional slope of log-density also vanishes at every
    critical point the chord passes by, and those roots can have Newton
    basins far narrower than the quarter points reach (a remote component
    shrinks interior basins drastically), so every interior sign change of
    the slope on a 31-point grid is sharpened by 40 bisection halvings and
    returned as a seed too.

    The halvings run in rounds of m (see `_halvings_per_round`): one slope
    call evaluates each bracket at all 2^m - 1 dyadic points that its next m
    halvings can visit, and the halvings are then replayed on those values.
    Every t is a dyadic rational with denominator at most 2^45, exact in
    floating point, so the seeds are bit-identical to one halving per call.
    """
    d = reps.shape[1]
    first, second = np.triu_indices(len(reps), 1)
    origins = reps[first]
    chords = reps[second] - origins
    keep = np.linalg.norm(chords, axis=1) > 0.0
    origins, chords = origins[keep], chords[keep]

    def slopes(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
        terms, atimes = solver.component_terms(points)
        w = np.exp(terms - logsumexp(terms, axis=1, keepdims=True))
        rel_grad = -np.einsum("bk,bki->bi", w, atimes)
        return np.einsum("bi,bi->b", directions, rel_grad)

    ts = np.linspace(0.0, 1.0, 33)[1:-1]        # slots 7, 15, 23 are t = 1/4, 1/2, 3/4
    grid = origins[:, None, :] + ts[None, :, None] * chords[:, None, :]
    vals = slopes(
        grid.reshape(-1, d), np.repeat(chords, len(ts), axis=0)
    ).reshape(len(origins), len(ts))

    seeds = [grid[:, [7, 15, 23]].reshape(-1, d), grid[vals == 0.0]]
    pair_idx, slot = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    if len(pair_idx):
        t_lo, width = ts[slot], ts[slot + 1] - ts[slot]
        f_lo = vals[pair_idx, slot]
        a, direction = origins[pair_idx], chords[pair_idx]
        rows = np.arange(len(pair_idx))
        per_round, left = _halvings_per_round(len(pair_idx)), 40
        while left:
            m = min(per_round, left)
            # the 2^m - 1 dyadic points that the next m halvings can visit
            ts_round = t_lo[:, None] + np.ldexp(np.arange(1, 2 ** m), -m)[None, :] * width[:, None]
            f_round = slopes(
                (a[:, None, :] + ts_round[..., None] * direction[:, None, :]).reshape(-1, d),
                np.repeat(direction, 2 ** m - 1, axis=0),
            ).reshape(len(pair_idx), 2 ** m - 1)
            lo = np.zeros(len(pair_idx), dtype=int)     # bracket [lo, lo + span] in units of 2^-m
            for span in 2 ** np.arange(m - 1, -1, -1):
                f_mid = f_round[rows, lo + span - 1]
                same = (f_mid > 0.0) == (f_lo > 0.0)
                lo = np.where(same, lo + span, lo)
                f_lo = np.where(same, f_mid, f_lo)
            t_lo = t_lo + np.ldexp(lo.astype(float), -m) * width
            width = np.ldexp(width, -m)
            left -= m
        seeds.append(a + (t_lo + 0.5 * width)[:, None] * direction)
    return np.concatenate(seeds)


def _halvings_per_round(n_brackets: int) -> int:
    """Bisection halvings per slope call in `_chord_starts`, from 1 to 5.

    A round of m halvings evaluates 2^m - 1 points per bracket; m is the
    largest that keeps a call at 256 rows or fewer.  Few brackets (a 1-d
    solve has one or two) take 5 halvings per call; thousands of brackets
    take one, where more would evaluate points the bisection never uses.
    """
    m = 1
    while m < 5 and n_brackets * (2 ** (m + 1) - 1) <= 256:
        m += 1
    return m


def _polish_newton(mixture: Mixture, x: np.ndarray) -> np.ndarray:
    """Sharpen an approximate critical point in the original coordinates.

    Damped Newton on the relative gradient, with the log-density Hessian,
    converges quadratically from any nearby nondegenerate critical point,
    whatever its index.  A step is taken only if it lowers the gradient norm.
    """
    def resid(p: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        # the gradient norm, plus the derivatives a Newton step from p needs
        _, rel_grad, rel_hess = mixture.relative_derivatives(p)
        return float(np.linalg.norm(rel_grad)), rel_grad, rel_hess

    current, (res, g, h) = x, resid(x)
    for _ in range(8):
        if res <= 1e-15:
            break
        jac = h - np.outer(g, g)                 # Hessian of log density
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        scale, improved = 1.0, False
        for _ in range(20):
            cand = current + scale * step
            cand_res, cand_g, cand_h = resid(cand)
            if np.isfinite(cand_res) and cand_res < res:
                current, res, g, h, improved = cand, cand_res, cand_g, cand_h, True
                break
            scale *= 0.5
        if not improved:
            break
    return current


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
    """Deduplicated critical points plus count, Morse, and bound verdicts."""

    mixture: Mixture
    points: tuple[CriticalPoint, ...]
    reference: int
    all_nondegenerate: bool
    morse_inequality_ok: bool
    upper_sandwich_ok: bool
    u_best: BoundValue | None
    u_mode: BoundValue | None
    u_best_hom: BoundValue | None
    hom_rank: int | None
    n_starts: int
    n_converged: int
    n_dropped: int
    config: SolverConfig = field(default_factory=SolverConfig)

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


def _classify_at(
    solver: _LogSolver,
    x: np.ndarray,
    config: SolverConfig,
    reference: int | None,
) -> CriticalPoint:
    mixture = solver.mixture
    log_value, rel_grad, rel_hess = mixture.relative_derivatives(x)
    grad_residual = float(np.linalg.norm(rel_grad))
    if not grad_residual <= config.grad_accept_tol:
        raise ValueError(
            f"point is not critical: relative gradient norm {grad_residual:.3e} "
            f"exceeds acceptance tolerance {config.grad_accept_tol:.1e}"
        )
    eigs = np.linalg.eigvalsh(rel_hess)
    abs_eigs = np.abs(eigs)
    # Degeneracy is judged against the mixture's own curvature scale, not just
    # the largest eigenvalue at the point: a fully flat Hessian (all
    # eigenvalues near zero, e.g. a fold point in 1-d) must still register.
    scale = max(float(abs_eigs.max()), solver.curvature_scale)
    eig_ratio = float(abs_eigs.min() / scale) if scale > 0.0 else 0.0
    ms_residual = float(np.linalg.norm(mean_shift_step(mixture, x) - x))
    reduced_coords = reduced_residual = reduced_reference = None
    if reference is not None:
        # R is taken in the dominant component's chart (see CriticalPoint),
        # where R_i = -y_i expm1(-S_i) and the chart's own entry is 0
        log_y, charts = solver.chart_coords(x[None])
        s = solver.residual_batch(log_y, charts)
        reduced_residual = float(np.linalg.norm(-np.exp(log_y) * np.expm1(-s)))
        reduced_reference = int(charts[0])
        with np.errstate(over="ignore"):
            reduced_coords = np.exp(np.delete(log_y[0] - log_y[0, reference], reference))
    return CriticalPoint(
        location=np.array(x, dtype=float),
        density=float(np.exp(log_value)),
        log_density=float(log_value),
        gradient_residual=grad_residual,
        morse_index=int(np.count_nonzero(eigs < 0.0)),
        eig_ratio=eig_ratio,
        degenerate=bool(eig_ratio < config.degeneracy_tol),
        hessian_eigenvalues=tuple(float(v) for v in eigs),
        mean_shift_residual=ms_residual,
        reduced_coords=reduced_coords,
        reduced_residual=reduced_residual,
        reduced_reference=reduced_reference,
    )


def polish_critical(mixture: Mixture, x: np.ndarray) -> np.ndarray:
    """Refine an approximate critical point by damped Newton on the relative gradient."""
    return _polish_newton(mixture, np.asarray(x, dtype=float))


def classify(mixture: Mixture, x: np.ndarray, config: SolverConfig | None = None) -> CriticalPoint:
    """Classify a point that is already critical to the acceptance tolerance.

    Raises ValueError when the density-relative gradient norm at x exceeds
    the configured tolerance.
    """
    config = config or SolverConfig()
    reference = int(np.argmax(mixture.weights)) if mixture.n_components >= 2 else None
    return _classify_at(_LogSolver(mixture), np.asarray(x, dtype=float), config, reference)


def _cluster(candidates: Sequence[np.ndarray], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy relative-tolerance clustering.

    Candidates are visited in lexicographic order.  Each one joins the first
    representative r chosen before it that lies within tol * (1 + |r|), and
    otherwise becomes a representative itself.  Returns the representatives
    as rows and, for each candidate, the index of its representative.

    The loop runs once per representative: the first unlabelled candidate
    becomes the next one and labels every later unlabelled candidate within
    its radius, which is the same assignment.
    """
    points = np.array(candidates, dtype=float)
    order = np.lexsort(points.T[::-1])      # first coordinate is the primary key
    ordered = points[order]
    labels = np.empty(len(points), dtype=int)
    free = np.ones(len(points), dtype=bool)
    chosen: list[int] = []
    while free.any():
        pos = int(np.argmax(free))          # every candidate before it is labelled
        free[pos] = False
        r = ordered[pos]
        later = np.flatnonzero(free)
        hits = later[np.linalg.norm(ordered[later] - r, axis=1) <= tol * (1.0 + np.linalg.norm(r))]
        labels[order[pos]] = labels[order[hits]] = len(chosen)
        free[hits] = False
        chosen.append(pos)
    return ordered[np.array(chosen, dtype=int)], labels


def _dedup_points(
    candidates: list[np.ndarray], solver: _LogSolver, config: SolverConfig, reference: int
) -> list[CriticalPoint]:
    """Cluster near-identical locations; keep each cluster's best-classified member.

    The best member has the smallest gradient residual, the first in
    lexicographic order on ties; `cluster_diameter` spans every member.
    """
    if not candidates:
        return []
    members = np.array(candidates)
    members = members[np.lexsort(members.T[::-1])]      # so `min` keeps the first on ties
    _, labels = _cluster(members, config.dedup_tol)
    points: list[CriticalPoint] = []
    for label in range(labels.max() + 1):
        cluster = members[labels == label]
        classified = []
        for x in cluster:
            try:
                classified.append(_classify_at(solver, x, config, reference))
            except ValueError:
                pass
        if not classified:
            continue
        best = min(classified, key=lambda cp: cp.gradient_residual)
        diameter = float(np.linalg.norm(cluster[:, None] - cluster[None], axis=-1).max())
        points.append(replace(best, cluster_diameter=diameter))
    # rounded first, so mirror points whose coordinates tie to the last ulps
    # keep their order under rounding-level changes in the solver
    points.sort(key=lambda p: (tuple(np.round(p.location, 9)), tuple(p.location)))
    return points


def _single_component_report(mixture: Mixture, config: SolverConfig) -> SolveReport:
    point = _classify_at(_LogSolver(mixture), mixture.means[0], config, reference=None)
    return SolveReport(
        mixture=mixture,
        points=(point,),
        reference=0,
        all_nondegenerate=not point.degenerate,
        morse_inequality_ok=True,
        upper_sandwich_ok=True,
        u_best=None,
        u_mode=None,
        u_best_hom=None,
        hom_rank=None,
        n_starts=1,
        n_converged=1,
        n_dropped=0,
        config=config,
    )


def find_critical_points(mixture: Mixture, config: SolverConfig | None = None) -> SolveReport:
    """Locate and classify the critical points of a mixture density.

    Multistart damped Newton on the log-ratio system, each start in the
    chart of its dominant component (see `_LogSolver`), seeded from three
    sources: the component means, the pairwise mean midpoints, and restart
    rounds that reseed on the chords between the roots found so far (see
    `_chord_starts`).  Converged roots are sharpened by Newton steps on the
    relative gradient, deduplicated, and classified.  There is no
    completeness certificate; the report carries start/drop diagnostics
    instead.
    """
    config = config or SolverConfig()
    d, k = mixture.dim, mixture.n_components
    if k == 1:
        return _single_component_report(mixture, config)
    if (d > config.max_dim or k > config.max_components) and not config.force:
        raise ValueError(
            f"instance size d={d}, k={k} exceeds configured limits "
            f"(max_dim={config.max_dim}, max_components={config.max_components}); "
            "set force=True to override"
        )

    solver = _LogSolver(mixture)
    first, second = np.triu_indices(k, 1)
    starts = np.concatenate([mixture.means, 0.5 * (mixture.means[first] + mixture.means[second])])

    roots, n_converged = solver.solve_batch(starts, config)
    reps, _ = _cluster(roots, config.dedup_tol)
    n_starts_total = len(starts)

    # Restart rounds: critical points the means and midpoints miss (such as
    # tiny-responsibility saddles between far-apart modes) sit on chords
    # between found points, so reseed Newton there until the set stops growing.
    for _ in range(5):
        chord_starts = _chord_starts(solver, reps)
        if not len(chord_starts):
            break
        n_starts_total += len(chord_starts)
        more_roots, more_converged = solver.solve_batch(chord_starts, config)
        n_converged += more_converged
        if not len(more_roots):
            break
        merged, _ = _cluster(np.concatenate([reps, more_roots]), config.dedup_tol)
        if len(merged) == len(reps):
            break
        reps = merged

    candidates = [_polish_newton(mixture, x) for x in reps]
    return _assemble_report(solver, candidates, config,
                            n_starts=n_starts_total, n_converged=n_converged)


def _assemble_report(
    solver: _LogSolver,
    candidates: list[np.ndarray],
    config: SolverConfig,
    n_starts: int,
    n_converged: int,
) -> SolveReport:
    mixture = solver.mixture
    d, k = mixture.dim, mixture.n_components
    reference = int(np.argmax(mixture.weights))
    points = _dedup_points(candidates, solver, config, reference)

    n = len(points)
    n_modes = sum(1 for p in points if p.is_mode)
    c_dm1 = sum(1 for p in points if p.morse_index == d - 1)
    all_nondeg = bool(points) and all(not p.degenerate for p in points)
    morse_ok = (not all_nondeg) or (n_modes <= (n + 1) // 2 and c_dm1 >= n_modes - 1)

    u_best = upper_bound("BEST", d, k)
    u_mode = mode_bound_from_critical(u_best)
    u_best_hom = None
    hom_rank = None
    if mixture.is_homoscedastic():
        hom_rank = affine_rank(mixture.means)
        if hom_rank >= 1:
            u_best_hom = upper_bound("BEST_HOM", hom_rank, k)
    sandwich_ok = True
    if all_nondeg:
        sandwich_ok = n <= u_best.exact and n_modes <= u_mode.exact
        if u_best_hom is not None:
            sandwich_ok = sandwich_ok and n <= u_best_hom.exact

    return SolveReport(
        mixture=mixture,
        points=tuple(points),
        reference=reference,
        all_nondegenerate=all_nondeg,
        morse_inequality_ok=morse_ok,
        upper_sandwich_ok=sandwich_ok,
        u_best=u_best,
        u_mode=u_mode,
        u_best_hom=u_best_hom,
        hom_rank=hom_rank,
        n_starts=n_starts,
        n_converged=n_converged,
        n_dropped=n_starts - n_converged,
        config=config,
    )


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
    candidates = []
    for p in inner.points:
        z = np.concatenate([p.location, np.zeros(d - r)])
        candidates.append(_polish_newton(mixture, amap.inverse(z)))
    return _assemble_report(_LogSolver(mixture), candidates, config,
                            n_starts=inner.n_starts, n_converged=inner.n_converged)


def morse_check(report: SolveReport, bounds: tuple[BoundValue, BoundValue] | None = None) -> bool:
    """Morse-theoretic verdict for a completed report.

    Checks M <= floor((N+1)/2) and C_{d-1} >= M - 1; when a (critical bound,
    mode bound) pair is supplied, also checks N and M against it.
    """
    n, m, c = report.n_critical, report.n_modes, report.n_index_dminus1
    ok = m <= (n + 1) // 2 and c >= m - 1
    if bounds is not None:
        u_crit, u_mode = bounds
        ok = ok and n <= int(u_crit) and m <= int(u_mode)
    return ok
