"""Shared generators and the suite's numerical oracles.

The independent oracles share no code with the package's evaluation path,
`_LogSolver`, which evaluates the reduced system in batches of log-ratio
rows, each in its own chart:

* `log_component_terms`, `log_density`, `responsibilities`,
  `relative_derivatives` and `evaluate` evaluate a mixture one point at a
  time from its parameter arrays, and `mean_shift_step` takes one step of
  the responsibility-weighted mean-shift map, whose fixed points are the
  critical points;
* `build_reduced` assembles the reduced system of one reference component
  coefficientwise, as the quadratics q_i of `ReducedSystem`;
* the 1-d oracle is plain sign-change bisection on the log-density slope,
  and the n-d oracle is damped Newton on the gradient in the original
  coordinates from a dense grid.

Agreement between these and the library solver is what the solver tests
certify.  The y-coordinate adapters `x_of_y`, `residual_R` and
`reduced_jacobian`, and `residual_and_jacobian_batch`, are not
independent: they evaluate the system through `_LogSolver` at u = log y,
and give the tests the reduced system in the paper's coordinates and the
explicit k x k Newton matrix.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import logsumexp

from modecount import Mixture
from modecount.solver import _centre, _LogSolver


# -- per-point evaluation of a mixture ------------------------------------------


def log_component_terms(mixture, x):
    """Per-component log(alpha_i phi_i(x)) as a (k,) vector."""
    x = mixture._check_point(x)
    diff = x[None, :] - mixture.means                       # (k, d)
    quad = np.einsum("ki,kij,kj->k", diff, mixture.precisions, diff)
    return mixture.log_weights + mixture.log_norms - 0.5 * quad


def log_density(mixture, x):
    return float(logsumexp(log_component_terms(mixture, x)))


def responsibilities(mixture, x):
    """Normalized component weights w_i(x) = alpha_i phi_i(x) / Phi(x)."""
    terms = log_component_terms(mixture, x)
    return np.exp(terms - logsumexp(terms))


def relative_derivatives(mixture, x):
    """Log-density plus gradient and Hessian divided by the density.

    Returns (log Phi(x), grad Phi / Phi, Hess Phi / Phi).  The scaled
    derivatives stay representable arbitrarily far into the tails, where
    Phi itself underflows.
    """
    x = mixture._check_point(x)
    terms = log_component_terms(mixture, x)
    log_value = float(logsumexp(terms))
    w = np.exp(terms - log_value)                           # responsibilities
    diff = x[None, :] - mixture.means
    b = -np.einsum("kij,kj->ki", mixture.precisions, diff)  # b_i = -A_i (x - mu_i)
    rel_grad = w @ b
    rel_hess = np.einsum("k,ki,kj->ij", w, b, b) - np.einsum("k,kij->ij", w, mixture.precisions)
    return log_value, rel_grad, 0.5 * (rel_hess + rel_hess.T)


def evaluate(mixture, x):
    """Density, gradient and Hessian of the mixture at x.

    The value is assembled in the log domain per component and combined
    with log-sum-exp; gradient and Hessian come from the responsibility
    decomposition, so relative accuracy survives far from the means.
    """
    log_value, rel_grad, rel_hess = relative_derivatives(mixture, x)
    value = float(np.exp(log_value))
    hess = value * rel_hess
    return value, value * rel_grad, 0.5 * (hess + hess.T)


def mean_shift_step(mixture, x):
    """One step of the responsibility-weighted mean shift map.

    Fixed points are exactly the critical points of the density.
    """
    w = responsibilities(mixture, x)
    m_mat = np.einsum("k,kij->ij", w, mixture.precisions)
    nu = np.einsum("k,kij,kj->i", w, mixture.precisions, mixture.means)
    return np.linalg.solve(m_mat, nu)


# -- the reduced ratio system of one reference component ------------------------


@dataclass(frozen=True)
class ReducedSystem:
    """Coefficients of the reduced ratio system for one reference component.

    For each non-reference component i the ratio rho_i(x) =
    alpha_i phi_i(x) / (alpha_ref phi_ref(x)) equals beta_i exp(q_i(x)) with
    the quadratic q_i(x) = x'Hx/2 + g'x + c stored coefficientwise.
    """

    mixture: Mixture
    reference: int
    free: tuple                         # non-reference component indices, ascending
    log_betas: np.ndarray               # (m,)
    quad: np.ndarray                    # (m, d, d) quadratic coefficient H_i
    lin: np.ndarray                     # (m, d) linear coefficient g_i
    const: np.ndarray                   # (m,) scalar coefficient c_i

    @property
    def n_free(self):
        return len(self.free)

    def q_values(self, x):
        """All q_i(x) as an (m,) vector."""
        x = np.asarray(x, dtype=float)
        return (
            0.5 * np.einsum("i,kij,j->k", x, self.quad, x)
            + self.lin @ x
            + self.const
        )

    def log_rho(self, x):
        """log of the density ratios rho_i(x) against the reference."""
        return self.log_betas + self.q_values(x)


def build_reduced(mixture, reference=None):
    """Assemble the reduced system with the given reference component.

    The reference defaults to the last component; any choice gives the
    same critical set.
    """
    k = mixture.n_components
    if k < 2:
        raise ValueError("the reduced system needs k >= 2; a single Gaussian has mean as its only critical point")
    ref = k - 1 if reference is None else int(reference)
    if not 0 <= ref < k:
        raise ValueError(f"reference index {ref} out of range for {k} components")
    free = tuple(i for i in range(k) if i != ref)
    w, mu, prec = mixture.weights.tolist(), mixture.means, mixture.precisions
    # log-determinants taken here, not from the mixture's log_norms, so the
    # oracle does not share that computation with `_LogSolver`
    log_det = [np.log(np.linalg.eigh(c)[0]).sum() for c in mixture.covariances]
    a_ref = prec[ref]
    a_ref_mu = a_ref @ mu[ref]
    log_betas = np.array([
        math.log(w[i]) - math.log(w[ref]) + 0.5 * (log_det[ref] - log_det[i])
        for i in free
    ])
    quad = np.array([a_ref - prec[i] for i in free])
    lin = np.array([prec[i] @ mu[i] - a_ref_mu for i in free])
    const = np.array([0.5 * (mu[ref] @ a_ref_mu - mu[i] @ prec[i] @ mu[i]) for i in free])
    return ReducedSystem(
        mixture=mixture, reference=ref, free=free,
        log_betas=log_betas, quad=quad, lin=lin, const=const,
    )


# -- adapters: the reduced system in y through `_LogSolver` ---------------------


def _chart_row(sys, y):
    """Positive ratios y as floats, and log y as a one-row batch u in chart `sys.reference`."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("ratios y must be strictly positive")
    u = np.zeros((1, sys.mixture.n_components))
    u[0, list(sys.free)] = np.log(y)
    return y, u


def x_of_y(sys, y):
    """The candidate critical point X(y) = M(y)^{-1} nu(y) for positive ratios y."""
    _, u = _chart_row(sys, y)
    x, _, _ = _LogSolver(sys.mixture).x_batch(u)
    return x[0]


def residual_R(sys, y):
    """Componentwise residual R_i(y) = y_i - beta_i exp(q_i(X(y))).

    Evaluated as -y_i expm1(-S_i(log y)) from the log-ratio residual S, which
    is the same real function assembled without overflowing intermediates.
    """
    y, u = _chart_row(sys, y)
    s = _LogSolver(sys.mixture).residual_batch(u, np.array([sys.reference]))
    return -y * np.expm1(-s[0, list(sys.free)])


def reduced_jacobian(sys, y):
    """Jacobian DR(y); its regularity matches the Hessian's at roots.

    With rho = y exp(-S) the ratios at X(y), DR = I - diag(rho) (I - DS)
    diag(1/y), where DS is the Jacobian of S in u = log y.
    """
    y, u = _chart_row(sys, y)
    s, jac = residual_and_jacobian_batch(_LogSolver(sys.mixture), u, np.array([sys.reference]))
    free = list(sys.free)
    eye = np.eye(sys.n_free)
    rho = y * np.exp(-s[0, free])
    return eye - rho[:, None] * (eye - jac[0][np.ix_(free, free)]) / y[None, :]


def residual_and_jacobian_batch(solver, u, charts):
    """S and its k x k Newton matrix, whose row c is e_c, so that step_c = 0.

    The matrix is formed and solved explicitly, where the solver's Newton
    loop takes its step from `_LogSolver.residual_and_step_batch`.
    """
    x, w, m_mat = solver.x_batch(u)
    terms, atimes = solver.component_terms(x)
    s = _centre(u - terms, charts)
    # dX/du_j = -w_j M_w^{-1} A_j (X - mu_j), and the gradient of L_i in X
    # is -A_i (X - mu_i)
    cols = -np.linalg.solve(m_mat, atimes.transpose(0, 2, 1)) * w[:, None, :]
    grads = _centre(-atimes, charts)
    jac = np.eye(u.shape[1]) - np.einsum("bkd,bdm->bkm", grads, cols)
    return s, jac


# -- generators and solver oracles ----------------------------------------------


def random_mixture_1d(rng, k_max=4):
    k = int(rng.integers(2, k_max + 1))
    means = rng.uniform(-5.0, 5.0, size=(k, 1))
    sigmas = rng.uniform(0.3, 2.0, size=k)
    covariances = np.array([[[s ** 2]] for s in sigmas])
    weights = rng.uniform(0.2, 1.0, size=k)
    return Mixture.from_arrays(weights, means, covariances)


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


def log_slope_1d(mixture):
    """Scalar d/dx log Phi(x) independent of the library evaluation path."""
    mu = mixture.means[:, 0]
    var = mixture.covariances[:, 0, 0]
    logw = np.log(mixture.weights)

    def value(x):
        lp = -0.5 * (x - mu) ** 2 / var - 0.5 * np.log(2.0 * np.pi * var) + logw
        r = np.exp(lp - logsumexp(lp))
        return float((r * (mu - x) / var).sum())

    return value


def oracle_critical_points_1d(mixture, n_grid=20001):
    """All zeros of Phi' by grid sign changes plus bisection refinement."""
    mu = mixture.means[:, 0]
    var = mixture.covariances[:, 0, 0]
    sd = float(np.sqrt(var.max()))
    lo, hi = float(mu.min()) - 6.0 * sd, float(mu.max()) + 6.0 * sd
    xs = np.linspace(lo, hi, n_grid)
    lp = (-0.5 * (xs[None, :] - mu[:, None]) ** 2 / var[:, None]
          - 0.5 * np.log(2.0 * np.pi * var[:, None])
          + np.log(mixture.weights)[:, None])
    resp = np.exp(lp - logsumexp(lp, axis=0))
    vals = (resp * (mu[:, None] - xs[None, :]) / var[:, None]).sum(axis=0)
    f = log_slope_1d(mixture)
    roots = []
    for i in range(n_grid - 1):
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        elif vals[i + 1] != 0.0 and vals[i] * vals[i + 1] < 0.0:
            roots.append(float(brentq(f, xs[i], xs[i + 1], xtol=1e-13)))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return np.array(sorted(roots))


def oracle_critical_points_nd(mixture, lo, hi, per_axis=15, tol=1e-10):
    """Critical points by direct-space damped Newton from a dense grid.

    Newton runs on g(x) = grad Phi / Phi with Jacobian H/Phi - g g^T; the
    iteration variable and start geometry share nothing with the reduced
    ratio system.
    """
    d = mixture.dim
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(d)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    found = []
    for x0 in grid:
        x = x0.copy()
        _, g, h = relative_derivatives(mixture, x)
        gn = np.linalg.norm(g)
        converged = False
        for _ in range(100):
            if gn <= tol:
                converged = True
                break
            jac = h - np.outer(g, g)
            try:
                step = np.linalg.solve(jac, -g)
            except np.linalg.LinAlgError:
                break
            scale, improved = 1.0, False
            for _ in range(40):
                cand = x + scale * step
                _, gc, hc = relative_derivatives(mixture, cand)
                gcn = float(np.linalg.norm(gc))
                if np.isfinite(gcn) and gcn < gn:
                    x, g, h, gn = cand, gc, hc, gcn
                    improved = True
                    break
                scale *= 0.5
            if not improved:
                break
        if converged and np.all(x >= lo - 1.0) and np.all(x <= hi + 1.0):
            found.append(x)
    reps = []
    for x in sorted(found, key=tuple):
        if not any(np.linalg.norm(x - r) <= 1e-6 * (1.0 + np.linalg.norm(r)) for r in reps):
            reps.append(x)
    return reps


@pytest.fixture
def pair_mixture():
    """The well-separated symmetric pair: modes near +-1.9986514, dip at 0."""
    return Mixture.from_arrays(
        [0.5, 0.5], np.array([[-2.0], [2.0]]), shared_covariance=np.eye(1)
    )
