"""Critical-point solver for Gaussian mixtures via the reduced ratio system.

Critical points of a k-component mixture biject with positive roots of the
(k-1)-dimensional system R(y) = 0, where y carries the component density
ratios against a reference component.  This module builds that system,
solves it with a deterministic multistart damped Newton iteration in
log-coordinates, classifies the roots by Hessian inertia, and assembles a
report with Morse-inequality and upper-bound verdicts.

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

# First rung of each block of the Newton line-search ladder; the last block
# runs to `SolverConfig.max_halvings`.
_LADDER_EDGES = (0, 1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and search parameters for `find_critical_points`.

    The defaults implement the documented contract: Newton in log ratio
    coordinates converging at 1e-12, relative dedup at 1e-6, degeneracy
    flagged below eigenvalue ratio 1e-8, and points accepted as critical
    when the density-relative gradient norm is below 1e-9.  The starts
    are fixed by `find_critical_points`, not configured here.

    The Newton line search halves a step at most `max_halvings` = 12 times
    and drops a start that no rung improves.  A start that cannot lower its
    residual with 1/4096 of its Newton step has slid into a local minimum
    of the residual norm that is not a root, where the Jacobian turns
    singular; deeper rungs only let it crawl on rounding-noise decreases
    for up to `newton_max_iter` steps.  The cap drops those starts after one
    ladder; on the benchmark's instances it changed no count of critical
    points, modes or indices, only how many starts converge.
    """

    newton_max_iter: int = 200
    newton_tol: float = 1e-12
    max_halvings: int = 12
    mean_shift_max_iter: int = 500
    polish_max_iter: int = 80
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

    The reference defaults to the last component.  `find_critical_points`
    instead picks the largest-weight component for numerical headroom; any
    choice gives the same critical set.
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


def _log_ratios(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive ratios y as floats, and u = log y as a one-row `_LogSolver` batch."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("ratios y must be strictly positive")
    return y, np.log(y)[None]


def x_of_y(sys: ReducedSystem, y: np.ndarray) -> np.ndarray:
    """The candidate critical point X(y) = M(y)^{-1} nu(y) for positive ratios y."""
    _, u = _log_ratios(y)
    x, _, _ = _LogSolver(sys).x_batch(u)
    return x[0]


def residual_R(sys: ReducedSystem, y: np.ndarray) -> np.ndarray:
    """Componentwise residual R_i(y) = y_i - beta_i exp(q_i(X(y))).

    Evaluated as -y_i expm1(-S_i(log y)) from the log-ratio residual S, which
    is the same real function assembled without overflowing intermediates.
    """
    y, u = _log_ratios(y)
    return -y * np.expm1(-_LogSolver(sys).residual_batch(u)[0])


def reduced_jacobian(sys: ReducedSystem, y: np.ndarray) -> np.ndarray:
    """Jacobian DR(y); its regularity matches the Hessian's at roots.

    With rho = y exp(-S) the ratios at X(y), DR = I - diag(rho) (I - DS)
    diag(1/y), where DS is the Jacobian of S in u = log y.
    """
    y, u = _log_ratios(y)
    s, jac = _LogSolver(sys).residual_and_jacobian_batch(u)
    eye = np.eye(sys.n_free)
    rho = y * np.exp(-s[0])
    return eye - rho[:, None] * (eye - jac[0]) / y[None, :]


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
    """Batched Newton iteration on S(u) = u - log beta - q(X(exp u)).

    X is evaluated through softmax responsibilities, so arbitrarily large
    log-ratios never materialize as exponentials.  All starts iterate
    together with batched linear algebra; each start carries its own
    line-search state and drops out on convergence or failure.

    Every reduction runs along one row (einsum rather than BLAS matmul, whose
    rounding depends on the batch shape), so a row's residual, and hence its
    Newton path, does not depend on which other rows share its batch.
    """

    def __init__(self, sys: ReducedSystem):
        self.sys = sys
        mix = sys.mixture
        order = (sys.reference,) + sys.free
        self.precisions = mix.precisions[list(order)]
        self.pmeans = np.einsum("kij,kj->ki", self.precisions, mix.means[list(order)])
        self.means = mix.means[list(order)]

    def x_batch(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, w, M_w) for a (B, m) batch of log-ratio vectors."""
        logits = np.concatenate([np.zeros((u.shape[0], 1)), u], axis=1)
        w = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        m_mat = np.einsum("bk,kij->bij", w, self.precisions)
        nu = np.einsum("bk,ki->bi", w, self.pmeans)
        x = np.linalg.solve(m_mat, nu[..., None])[..., 0]
        return x, w, m_mat

    def residual_batch(self, u: np.ndarray) -> np.ndarray:
        x, _, _ = self.x_batch(u)
        return u - self._log_rho_batch(x)

    def _log_rho_batch(self, x: np.ndarray) -> np.ndarray:
        sys = self.sys
        q = (
            0.5 * np.einsum("bi,kij,bj->bk", x, sys.quad, x)
            + np.einsum("bi,ki->bk", x, sys.lin)
            + sys.const
        )
        return sys.log_betas + q

    def residual_and_jacobian_batch(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, w, m_mat = self.x_batch(u)
        s = u - self._log_rho_batch(x)
        # dX/du_j = w_j M_w^{-1} A_j (mu_j - X) for the non-reference columns
        rhs = np.einsum("jde,bje->bjd", self.precisions[1:], self.means[None, 1:] - x[:, None, :])
        cols = np.linalg.solve(m_mat, rhs.transpose(0, 2, 1))       # (B, d, m)
        cols = cols * w[:, None, 1:]
        grads = np.einsum("kij,bj->bki", self.sys.quad, x) + self.sys.lin[None]
        jac = np.eye(u.shape[1]) - np.einsum("bkd,bdm->bkm", grads, cols)
        return s, jac

    def _row_tols(self, u: np.ndarray, tol: float) -> np.ndarray:
        # Residual entries are differences of log-density terms of size |u|,
        # so the attainable floor grows with the largest log-ratio; a root a
        # few thousand log-units from the reference can never reach an
        # absolute 1e-12.
        return tol * (1.0 + np.max(np.abs(u), axis=1))

    def solve_batch(self, u0: np.ndarray, config: SolverConfig) -> tuple[np.ndarray, int]:
        """Run damped Newton from every row of u0; returns (converged rows, count)."""
        u = np.array(u0, dtype=float)
        if u.size == 0:
            return u, 0
        norms = np.full(u.shape[0], np.inf)
        finite = np.all(np.isfinite(u), axis=1)
        if np.any(finite):
            norms[finite] = np.linalg.norm(self.residual_batch(u[finite]), axis=1)
        active = np.isfinite(norms) & (norms > self._row_tols(u, config.newton_tol))
        edges = [e for e in _LADDER_EDGES if e < config.max_halvings] + [config.max_halvings]

        for _ in range(config.newton_max_iter):
            if not np.any(active):
                break
            idx = np.flatnonzero(active)
            s, jac = self.residual_and_jacobian_batch(u[idx])
            steps = np.full_like(s, np.nan)
            try:
                steps = np.linalg.solve(jac, -s[..., None])[..., 0]
            except np.linalg.LinAlgError:
                for row in range(len(idx)):
                    try:
                        steps[row] = np.linalg.solve(jac[row], -s[row])
                    except np.linalg.LinAlgError:
                        pass
            good = np.all(np.isfinite(steps), axis=1)
            active[idx[~good]] = False

            pending = idx[good]
            steps = steps[good]
            # Halving ladder: rung j tries the step scaled by 2^-j, and a row
            # takes its first improving rung.  The rungs are evaluated in
            # blocks of doubling length, one stacked residual call per block,
            # which accepts exactly what trying them one at a time would.
            for lo, hi in zip(edges[:-1], edges[1:]):
                if not len(pending):
                    break
                scales = np.ldexp(1.0, -np.arange(lo, hi))
                cand = u[pending][:, None, :] + scales[None, :, None] * steps[:, None, :]
                cand_norms = np.linalg.norm(
                    self.residual_batch(cand.reshape(-1, u.shape[1])), axis=1
                ).reshape(len(pending), hi - lo)
                better = np.isfinite(cand_norms) & (cand_norms < norms[pending][:, None])
                hit = better.any(axis=1)
                rows = np.flatnonzero(hit)
                rung = better[rows].argmax(axis=1)
                u[pending[rows]] = cand[rows, rung]
                norms[pending[rows]] = cand_norms[rows, rung]
                pending = pending[~hit]
                steps = steps[~hit]
            active[pending] = False          # no improving step: give up on these
            active &= norms > self._row_tols(u, config.newton_tol)

        converged = norms <= self._row_tols(u, config.newton_tol)
        return u[converged], int(np.count_nonzero(converged))


def _mean_shift_chain(mixture: Mixture, x0: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Iterate the mean-shift map from x0; returns the chain's end point."""
    x = np.asarray(x0, dtype=float)
    for _ in range(config.mean_shift_max_iter):
        x_next = mean_shift_step(mixture, x)
        if not np.all(np.isfinite(x_next)):
            break
        # the end point only seeds the Newton stage, so a loose stop suffices
        if np.linalg.norm(x_next - x) <= 1e-10 * (1.0 + np.linalg.norm(x)):
            x = x_next
            break
        x = x_next
    return x


def _chord_bracket_starts(mixture: Mixture, reps: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Seeds near critical points missed between found ones.

    Along the chord between two critical points the directional slope of
    log-density vanishes at every critical point the chord passes by, and
    those roots can have Newton basins far narrower than the sampling used
    elsewhere (a remote component shrinks interior basins drastically).
    Every interior sign change is sharpened by batched bisection and
    returned as a fresh Newton seed.
    """
    n = len(reps)
    if n < 2:
        return []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    origins = np.stack([reps[i] for i, _ in pairs])
    chords = np.stack([reps[j] for _, j in pairs]) - origins
    keep = np.linalg.norm(chords, axis=1) > 0.0
    origins, chords = origins[keep], chords[keep]
    if not len(origins):
        return []

    means = mixture.means
    precisions = mixture.precisions
    log_wn = mixture.log_weights + mixture.log_norms

    def slopes(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
        diff = points[:, None, :] - means[None]
        atimes = np.einsum("kij,bkj->bki", precisions, diff)
        terms = log_wn - 0.5 * np.einsum("bki,bki->bk", diff, atimes)
        w = np.exp(terms - logsumexp(terms, axis=1, keepdims=True))
        rel_grad = -np.einsum("bk,bki->bi", w, atimes)
        return np.einsum("bi,bi->b", directions, rel_grad)

    ts = np.linspace(0.0, 1.0, 33)[1:-1]
    grid = origins[:, None, :] + ts[None, :, None] * chords[:, None, :]
    vals = slopes(
        grid.reshape(-1, grid.shape[-1]), np.repeat(chords, len(ts), axis=0)
    ).reshape(len(origins), len(ts))

    seeds: list[np.ndarray] = []
    zero_pair, zero_slot = np.nonzero(vals == 0.0)
    seeds.extend(origins[p] + ts[s] * chords[p] for p, s in zip(zero_pair, zero_slot))

    pair_idx, slot = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    if len(pair_idx):
        t_lo, t_hi = ts[slot], ts[slot + 1]
        f_lo = vals[pair_idx, slot]
        a, d = origins[pair_idx], chords[pair_idx]
        for _ in range(40):
            t_mid = 0.5 * (t_lo + t_hi)
            f_mid = slopes(a + t_mid[:, None] * d, d)
            same = (f_mid > 0.0) == (f_lo > 0.0)
            t_lo = np.where(same, t_mid, t_lo)
            f_lo = np.where(same, f_mid, f_lo)
            t_hi = np.where(same, t_hi, t_mid)
        t_root = 0.5 * (t_lo + t_hi)
        seeds.extend(a[i] + t_root[i] * d[i] for i in range(len(t_root)))
    return seeds


def _polish_mean_shift(mixture: Mixture, x: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Sharpen an approximate critical point in the original coordinates.

    A mean-shift stage runs first, accepting steps only while the relative
    gradient shrinks (saddles repel the mean-shift map, so each step must
    pay its way).  A damped Newton stage on the relative gradient follows:
    mean shift stalls at saddles and walks away from minima, while Newton
    with the log-density Hessian converges quadratically from any nearby
    nondegenerate critical point.
    """
    def resid(p: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        # the gradient norm, plus the derivatives a Newton step from p needs
        _, rel_grad, rel_hess = mixture.relative_derivatives(p)
        return float(np.linalg.norm(rel_grad)), rel_grad, rel_hess

    best, (best_res, best_g, best_h) = x, resid(x)
    current = x
    for _ in range(config.polish_max_iter):
        nxt = mean_shift_step(mixture, current)
        if not np.all(np.isfinite(nxt)):
            break
        res, g, h = resid(nxt)
        if res < best_res:
            best, best_res, best_g, best_h = nxt, res, g, h
        if np.linalg.norm(nxt - current) <= 1e-16 * (1.0 + np.linalg.norm(current)):
            break
        if res > 10.0 * best_res:
            break
        current = nxt

    current, res, g, h = best, best_res, best_g, best_h
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
    if res < best_res:
        best = current
    return best


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
    mixture: Mixture,
    x: np.ndarray,
    config: SolverConfig,
    sys: ReducedSystem | None,
) -> CriticalPoint:
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
    scale = max(float(abs_eigs.max()), float(np.linalg.eigvalsh(mixture.precisions).max()))
    eig_ratio = float(abs_eigs.min() / scale) if scale > 0.0 else 0.0
    shifted = mean_shift_step(mixture, x)              # equals X(rho(x)) exactly
    ms_residual = float(np.linalg.norm(shifted - x))
    reduced_coords = None
    reduced_residual = None
    reduced_reference = None
    if sys is not None:
        log_y = sys.log_rho(x)
        with np.errstate(over="ignore"):
            reduced_coords = np.exp(log_y)
        # R is taken in the dominant component's chart (see CriticalPoint),
        # whose log-ratio is the largest: re-centring the log-ratios and the
        # q increments on it gives that chart's y and delta q without
        # building its system.
        k = mixture.n_components
        full_log_y = np.zeros(k)
        full_log_y[list(sys.free)] = log_y
        reduced_reference = int(np.argmax(full_log_y))
        others = [i for i in range(k) if i != reduced_reference]
        full_delta_q = np.zeros(k)
        full_delta_q[list(sys.free)] = sys.q_values(shifted) - sys.q_values(x)
        y = np.exp(full_log_y[others] - full_log_y[reduced_reference])
        delta_q = full_delta_q[others] - full_delta_q[reduced_reference]
        reduced_residual = float(np.linalg.norm(-y * np.expm1(delta_q)))
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


def polish_critical(mixture: Mixture, x: np.ndarray, config: SolverConfig | None = None) -> np.ndarray:
    """Refine an approximate critical point by mean shift plus Newton sharpening."""
    config = config or SolverConfig()
    return _polish_mean_shift(mixture, np.asarray(x, dtype=float), config)


def classify(mixture: Mixture, x: np.ndarray, config: SolverConfig | None = None) -> CriticalPoint:
    """Classify a point that is already critical to the acceptance tolerance.

    Raises ValueError when the density-relative gradient norm at x exceeds
    the configured tolerance.
    """
    config = config or SolverConfig()
    sys = None
    if mixture.n_components >= 2:
        sys = build_reduced(mixture, reference=int(np.argmax(mixture.weights)))
    return _classify_at(mixture, np.asarray(x, dtype=float), config, sys)


def _cluster(candidates: Sequence[np.ndarray], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy relative-tolerance clustering.

    Candidates are visited in lexicographic order.  Each one joins the first
    representative r chosen before it that lies within tol * (1 + |r|), and
    otherwise becomes a representative itself.  Returns the representatives
    as rows and, for each candidate, the index of its representative.
    """
    points = np.array(candidates, dtype=float)
    labels = np.empty(len(points), dtype=int)
    reps = np.empty_like(points)
    radii = np.empty(len(points))
    n = 0
    for i in np.lexsort(points.T[::-1]):      # first coordinate is the primary key
        x = points[i]
        hits = np.flatnonzero(np.linalg.norm(reps[:n] - x, axis=1) <= radii[:n])
        if len(hits):
            labels[i] = hits[0]
            continue
        reps[n] = x
        radii[n] = tol * (1.0 + np.linalg.norm(x))
        labels[i] = n
        n += 1
    return reps[:n], labels


def _dedup_points(
    candidates: list[np.ndarray], mixture: Mixture, config: SolverConfig, sys: ReducedSystem | None
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
                classified.append(_classify_at(mixture, x, config, sys))
            except ValueError:
                pass
        if not classified:
            continue
        best = min(classified, key=lambda cp: cp.gradient_residual)
        diameter = float(np.linalg.norm(cluster[:, None] - cluster[None], axis=-1).max())
        points.append(replace(best, cluster_diameter=diameter))
    points.sort(key=lambda p: tuple(p.location))
    return points


def _single_component_report(mixture: Mixture, config: SolverConfig) -> SolveReport:
    point = _classify_at(mixture, mixture.means[0], config, sys=None)
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

    Multistart damped Newton on the log-ratio system, seeded from three
    sources: the end points of mean-shift chains started at every component
    mean, the pairwise mean midpoints, and restart rounds that reseed on
    segments and chord brackets between the roots found so far.  Converged
    roots are polished by gradient-monitored mean-shift steps, deduplicated,
    and classified.  There is no completeness certificate; the report
    carries start/drop diagnostics instead.
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

    reference = int(np.argmax(mixture.weights))
    sys = build_reduced(mixture, reference=reference)
    log_solver = _LogSolver(sys)

    seed_points = [_mean_shift_chain(mixture, mean, config) for mean in mixture.means]
    seed_points.extend(
        0.5 * (mixture.means[i] + mixture.means[j]) for i in range(k) for j in range(i + 1, k)
    )
    starts = [sys.log_rho(p) for p in seed_points]

    roots, n_converged = log_solver.solve_batch(np.array(starts), config)
    reps, _ = _cluster(log_solver.x_batch(roots)[0], config.dedup_tol)
    n_starts_total = len(starts)

    # Restart rounds: critical points the chains and midpoints miss (such as
    # tiny-responsibility saddles between far-apart modes) sit on segments
    # between found points, so reseed Newton there until the set stops growing.
    for _ in range(5):
        if not len(reps):
            break
        anchors = np.concatenate([reps, mixture.means])
        segment_starts = []
        for i in range(len(reps)):
            for j in range(i + 1, len(anchors)):
                for t in (0.25, 0.5, 0.75):
                    segment_starts.append(sys.log_rho((1.0 - t) * reps[i] + t * anchors[j]))
        segment_starts.extend(sys.log_rho(p) for p in _chord_bracket_starts(mixture, reps))
        if not segment_starts:
            break
        n_starts_total += len(segment_starts)
        more_roots, more_converged = log_solver.solve_batch(np.array(segment_starts), config)
        n_converged += more_converged
        if not len(more_roots):
            break
        more_xs, _, _ = log_solver.x_batch(more_roots)
        merged, _ = _cluster(np.concatenate([reps, more_xs]), config.dedup_tol)
        if len(merged) == len(reps):
            break
        reps = merged

    candidates = [_polish_mean_shift(mixture, x, config) for x in reps]
    return _assemble_report(mixture, sys, reference, candidates, config,
                            n_starts=n_starts_total, n_converged=n_converged)


def _assemble_report(
    mixture: Mixture,
    sys: ReducedSystem,
    reference: int,
    candidates: list[np.ndarray],
    config: SolverConfig,
    n_starts: int,
    n_converged: int,
) -> SolveReport:
    d, k = mixture.dim, mixture.n_components
    points = _dedup_points(candidates, mixture, config, sys)

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
        candidates.append(_polish_mean_shift(mixture, amap.inverse(z), config))
    reference = int(np.argmax(mixture.weights))
    sys = build_reduced(mixture, reference=reference)
    return _assemble_report(mixture, sys, reference, candidates, config,
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
