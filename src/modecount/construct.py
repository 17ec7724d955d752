"""Witness constructions: simplex seeds, lifting, products, remote padding.

These builders realize the lower-bound witnesses as concrete mixtures and
verify the claimed mode counts with the solver.  The guiding principle:
formulas propose, the solver disposes.  A recipe that cannot be verified
numerically raises instead of returning an unchecked witness.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import SeedRecipe, SeedTriple
from .mixture import Mixture, logsumexp, tilt
from .solver import (
    NEWTON_TOL, SolverConfig, SolveReport, _distances, _LogSolver, _scan_roots, find_critical_points,
)

__all__ = [
    "PaddingSpec",
    "PaddingError",
    "RecipeError",
    "RecipeVerificationError",
    "simplex_vertices",
    "simplex_seed",
    "radial_critical_roots",
    "lift",
    "product",
    "pad_remote",
    "realize_recipe",
    "tilt_polish",
]

REALIZE_EPSILON = 0.05
TILT_SEED = 0x5EED
TILT_MAGNITUDE = 1e-3
TILT_RETRIES = 5
PAD_BOUNDARY_SEED = 0xBD
MAX_SEPARATION_DOUBLINGS = 40
_RAY_GRID = 10_000     # see `_ray_roots`


class PaddingError(RuntimeError):
    """Remote padding failed its sampled boundary test at every separation tried."""


class RecipeError(ValueError):
    """A recipe references seeds that cannot be built."""


class RecipeVerificationError(RuntimeError):
    """A realized witness fell short of its claimed mode count."""

    def __init__(self, claimed: int, achieved: int, message: str | None = None):
        self.claimed = claimed
        self.achieved = achieved
        super().__init__(
            message
            or f"witness verification shortfall: claimed {claimed} modes, solver verified {achieved}"
        )


def simplex_vertices(n: int) -> np.ndarray:
    """K = n+1 unit vectors in R^n forming a regular simplex.

    Built from the centered identity: rows of I_K - (1/K)J span the
    sum-zero hyperplane; an orthonormal basis of that hyperplane (QR with a
    fixed sign convention, hence deterministic) maps them into R^n, and the
    sqrt(K/n) rescale makes them unit length with pairwise inner product
    -1/n and zero sum.
    """
    if n < 1:
        raise ValueError("simplex dimension must be at least 1")
    k = n + 1
    centered = np.eye(k) - 1.0 / k
    q, r = np.linalg.qr(centered[:, :n])
    q = q * np.sign(np.diag(r))
    return math.sqrt(k / n) * (centered @ q)


def simplex_seed(K: int, epsilon: float = REALIZE_EPSILON) -> tuple[Mixture, int]:
    """Equal-weight homoscedastic mixture on regular-simplex vertices.

    K components in R^{K-1} with covariance tau*I, tau = (1+epsilon)/(K-1).
    For small epsilon the density has K+1 modes: the center plus one on
    each vertex ray.  Past a fold, whose epsilon depends on K (about 0.09
    for K = 3 and 0.24 for K = 4), the ray modes vanish and only the center
    remains.  Returns (mixture, expected_modes): K+1 when the ray
    criticality equation of `radial_critical_roots`, with n = K-1 and
    a = K/(1+epsilon), has its two roots, and 1 otherwise.  The claim only
    counts the roots, so it takes the grid brackets of `_ray_roots`, each of
    which holds exactly one root, with no halving: each root is the secant
    point of its bracket.  The expectation is a claim to verify, not a
    certificate.
    """
    mixture, modes = _simplex(K, epsilon)
    return mixture, len(modes)


def _simplex(K: int, epsilon: float) -> tuple[Mixture, np.ndarray]:
    """`simplex_seed`'s mixture and its proposed modes, one row per claimed mode.

    The center, plus t_2 v_i on each vertex v_i when the ray equation has
    two roots t_1 < t_2; t_2 is the secant point of its grid bracket, which
    lies within the bracket's width of 1e-4 of the root (within 1.1e-7 for
    K = 3 ... 7 at REALIZE_EPSILON), and polish sharpens it.
    """
    if K < 3:
        raise ValueError("simplex seeds need K >= 3 components")
    if not 0.0 < epsilon <= 0.2:
        raise ValueError("epsilon must lie in (0, 0.2]: the center is a strict "
                         "maximum only for tau > 1/n, and large epsilon loses the ray modes")
    n = K - 1
    tau = (1.0 + epsilon) / n
    vertices = simplex_vertices(n)
    weights = np.full(K, 1.0 / K)
    mixture = Mixture.from_arrays(weights, vertices, shared_covariance=tau * np.eye(n))
    roots = _ray_roots(n, K / (1.0 + epsilon), 0)
    modes = np.vstack([np.zeros(n), roots[-1] * vertices]) if len(roots) == 2 else np.zeros((1, n))
    return mixture, modes


def _ray_roots(n: int, a: float, halvings: int) -> np.ndarray:
    """Ascending roots in (0, 1) of ell_a(t) = log(1-t) + a t - log(1+nt).

    `_scan_roots` scans ell_a on a uniform grid of _RAY_GRID intervals: a
    grid point where ell_a is exactly zero is a root as is, and each sign
    change between neighbouring grid points, which holds exactly one root,
    is bisected `halvings` times and finished with the secant point of its
    last bracket.
    """
    def ell(t):
        t = np.atleast_2d(t)                    # (T,) for the grid, (brackets, T) after
        return np.log1p(-t) + a * t - np.log1p(n * t)

    ts = np.linspace(0.0, 1.0, _RAY_GRID + 1)[1:-1]
    return np.sort(_scan_roots(lambda rows: ell, ts, 1, halvings)[1])


def radial_critical_roots(n: int, a: float) -> list[float]:
    """Roots in (0, 1) of (1-t)e^{at} = 1+nt, the ray criticality equation.

    These are the roots of ell_a(t) = log(1-t) + a t - log(1+nt), found by
    `_ray_roots` with 40 halvings of each grid bracket: the last bracket is
    about 9e-17 wide, at the rounding of t, and its secant point is
    returned.  The root t = 0 is excluded by the open interval.  Returns an
    ascending list, possibly empty: the equation has two roots only for a
    in a window below n+1.
    """
    if n < 2:
        raise ValueError("ray analysis needs n >= 2")
    if a <= 0.0:
        raise ValueError("rate parameter a must be positive")
    return _ray_roots(n, a, 40).tolist()


def lift(mixture: Mixture, target_dim: int) -> Mixture:
    """Embed a mixture in a higher dimension with a centered standard Gaussian factor.

    Means gain zero coordinates; covariances gain an identity block.
    Lifting a homoscedastic mixture keeps it homoscedastic, and the lifted
    modes are exactly the base modes with zero pad coordinates.
    """
    d = mixture.dim
    extra = target_dim - d
    if extra <= 0:
        raise ValueError(f"target dimension {target_dim} must exceed the current dimension {d}")
    means = np.hstack([mixture.means, np.zeros((mixture.n_components, extra))])
    covs = np.zeros((mixture.n_components, target_dim, target_dim))
    covs[:, :d, :d] = mixture.covariances
    covs[:, d:, d:] = np.eye(extra)
    return Mixture.from_arrays(mixture.weights, means, covs)


def product(m1: Mixture, m2: Mixture) -> Mixture:
    """Cartesian product density: k1*k2 components in dimension d1+d2.

    Weights multiply, means concatenate, covariances stack block-diagonally.
    The modal set is the product of the factors' modal sets.
    """
    k1, k2, d1 = m1.n_components, m2.n_components, m1.dim
    means = np.hstack([np.repeat(m1.means, k2, axis=0), np.tile(m2.means, (k1, 1))])
    covs = np.zeros((k1 * k2, d1 + m2.dim, d1 + m2.dim))
    covs[:, :d1, :d1] = np.repeat(m1.covariances, k2, axis=0)
    covs[:, d1:, d1:] = np.tile(m2.covariances, (k1, 1, 1))
    return Mixture.from_arrays(np.outer(m1.weights, m2.weights).ravel(), means, covs)


@dataclass(frozen=True)
class PaddingSpec:
    """Remote padding parameters: how many components, how far, what weight."""

    count: int
    separation_factor: float = 1.5
    weight_theta: float = 0.25

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("padding count must be nonnegative")
        if not math.isfinite(self.separation_factor):
            raise ValueError(f"separation factor must be finite, got {self.separation_factor}")
        if self.separation_factor <= 0.0:
            raise ValueError("separation factor must be positive")
        if not 0.0 < self.weight_theta <= 0.5:
            raise ValueError("padding weight theta must lie in (0, 1/2]")


def _sphere_directions(d: int, rng: np.random.Generator, extra: int = 32) -> np.ndarray:
    """Axis directions plus seeded random unit vectors for boundary sampling."""
    axes = np.vstack([np.eye(d), -np.eye(d)])
    if d == 1:
        return axes
    raw = rng.standard_normal((extra, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return np.vstack([axes, raw])


def _ball_certifies_mode(solver: _LogSolver, center: np.ndarray, radius: float,
                         directions: np.ndarray) -> bool:
    """Strict boundary test: density at the center beats every sampled boundary point.

    If the center beat every point of the sphere, the closed ball would hold
    a local maximum; only the sampled points are compared, so a pass is
    evidence, not a certificate.  The center and the boundary points are
    evaluated in one batch.
    """
    points = np.vstack([center, center + radius * directions])
    log_f = logsumexp(solver.component_terms(points)[0])
    return bool(np.all(log_f[1:] < log_f[0]))


def _max_std(mixture: Mixture) -> float:
    return math.sqrt(float(np.linalg.eigvalsh(mixture.covariances)[:, -1].max()))


def pad_remote(
    mixture: Mixture,
    spec: PaddingSpec,
    modes: np.ndarray | None = None,
    config: SolverConfig | None = None,
    seed: int = PAD_BOUNDARY_SEED,
) -> Mixture:
    """Add `spec.count` remote low-weight components, one per new mode.

    `modes` is an (m, d) array of the base's mode locations; when it is
    None, `find_critical_points` with `config` supplies them.  Each new
    center goes out along a cycling axis direction at distance
    separation_factor * (diameter of the means and modes + 10 * max
    standard deviation); the new component takes weight theta, the rest
    rescale by (1 - theta).  The placement is accepted only when the
    density at every retained mode location and at the new center beats
    the density at each sampled point of a sphere around it
    (`_ball_certifies_mode`), doubling the separation until the test passes
    (PaddingError after 40 doublings), so a location that is not a strict
    local maximum, a saddle say, fails loudly.  The sample is the 2d axis
    directions plus 32 seeded random ones (none for d = 1), so a pass is
    evidence of a mode inside each sphere, not a proof.  The new component
    reuses the shared covariance when the base is homoscedastic, the
    identity otherwise.  A distance whose square overflows (the neighbour
    norms and the component terms take it) is a ValueError that names the
    separation factor.
    """
    if spec.count == 0:
        return mixture
    if modes is None:
        modes = [p.location for p in find_critical_points(mixture, config).modes]
    mode_locations = list(np.asarray(modes, dtype=float))
    if not mode_locations:
        raise PaddingError("base mixture has no verified modes to retain")
    rng = np.random.default_rng(seed)
    current = mixture
    d = mixture.dim
    directions = _sphere_directions(d, rng)

    for j in range(spec.count):
        axis = np.zeros(d)
        axis[j % d] = 1.0 if (j // d) % 2 == 0 else -1.0
        all_centers = np.vstack([current.means, np.vstack(mode_locations)])
        base_distance = spec.separation_factor * (float(_distances(all_centers).max()) + 10.0 * _max_std(current))
        new_cov = (
            current.covariances[0].copy() if current.is_homoscedastic() else np.eye(d)
        )
        theta = spec.weight_theta
        placed = None
        distance = base_distance
        for _ in range(MAX_SEPARATION_DOUBLINGS):
            if not math.isfinite(distance * distance):
                raise ValueError(f"separation factor {spec.separation_factor!r} is too large: padding component "
                                 f"{j + 1} would sit at distance {distance:.3e}, whose square overflows")
            center = distance * axis
            weights = np.concatenate([current.weights * (1.0 - theta), [theta]])
            means = np.vstack([current.means, center])
            covs = np.concatenate([current.covariances, new_cov[None, :, :]])
            candidate = Mixture.from_arrays(weights, means, covs)
            solver = _LogSolver(candidate)

            ok = True
            retained = np.vstack(mode_locations + [center])
            gaps = _distances(retained)
            np.fill_diagonal(gaps, math.inf)
            for i, loc in enumerate(retained):
                neighbor = gaps[i].min()
                if i < len(mode_locations):
                    radius = min(1e-3 * (1.0 + float(np.linalg.norm(loc))), neighbor / 3.0)
                else:
                    radius = min(2.0 * math.sqrt(float(np.linalg.eigvalsh(new_cov)[-1])), neighbor / 3.0)
                if radius <= 0.0 or not _ball_certifies_mode(solver, loc, radius, directions):
                    ok = False
                    break
            if ok:
                placed = (candidate, center)
                break
            distance *= 2.0
        if placed is None:
            raise PaddingError(
                f"boundary test failed for padding component {j + 1} after "
                f"{MAX_SEPARATION_DOUBLINGS} separation doublings (last distance {distance:.3e})"
            )
        current, center = placed
        mode_locations.append(center)
    return current


def tilt_polish(
    mixture: Mixture,
    config: SolverConfig | None = None,
    seed: int = TILT_SEED,
) -> tuple[Mixture, SolveReport]:
    """Small generic exponential tilt to clear near-degenerate critical points.

    Tilting by e^{c.x} perturbs the critical configuration without changing
    component count; for generic small c all critical points become
    nondegenerate.  Makes up to TILT_RETRIES attempts, from |c| =
    TILT_MAGNITUDE halving each time, with a fixed RNG seed.
    Returns the first all-nondegenerate (tilted mixture, report) pair, or
    the last attempt if none succeeds.
    """
    config = config or SolverConfig()
    rng = np.random.default_rng(seed)
    magnitude = TILT_MAGNITUDE
    last: tuple[Mixture, SolveReport] | None = None
    for _ in range(TILT_RETRIES):
        direction = rng.standard_normal(mixture.dim)
        direction /= np.linalg.norm(direction)
        tilted = tilt(mixture, magnitude * direction)
        report = find_critical_points(tilted, config)
        last = (tilted, report)
        if report.all_nondegenerate:
            return last
        magnitude *= 0.5
    assert last is not None
    return last


def _build_seed(triple: SeedTriple, epsilon: float) -> tuple[Mixture, np.ndarray]:
    """A seed's mixture and its proposed modes, an (m, d) array whose m is the seed's claim.

    The pair (1, 2, 2) proposes its means, from which polish reaches its two
    modes; a simplex seed proposes its center and ray modes (see `_simplex`).
    """
    if triple == SeedTriple(1, 2, 2):
        # well-separated symmetric pair: two clean modes straddling a saddle
        means = np.array([[-2.0], [2.0]])
        return Mixture.from_arrays(np.array([0.5, 0.5]), means, shared_covariance=np.eye(1)), means
    if triple.dim == triple.comps - 1 and triple.modes == triple.comps + 1 and triple.comps >= 3:
        return _simplex(triple.comps, epsilon)
    raise RecipeError(
        f"no builder for seed triple ({triple.dim}, {triple.comps}, {triple.modes}); "
        "only simplex triples (d, d + 1, d + 2) with d >= 2 and the pair (1, 2, 2) are built"
    )


def realize_recipe(
    recipe: SeedRecipe,
    epsilon: float = REALIZE_EPSILON,
    config: SolverConfig | None = None,
    padding: PaddingSpec | None = None,
    pad_seed: int = PAD_BOUNDARY_SEED,
    tilt_seed: int = TILT_SEED,
) -> tuple[Mixture, dict]:
    """Build a witness mixture from a recipe and verify its mode count.

    Seeds are built natively (simplex triples and the 1-d pair (1,2,2)),
    chained by Cartesian product, lifted to recipe.lift_to dimensions, then
    remote-padded with recipe.pad extra components.  Padding retains the
    modes the construction proposes, with no solve of the unpadded witness:
    the product of the seeds' proposals, in `product`'s component order,
    with zero lift coordinates, polished once.  `pad_remote` rejects any
    proposal that is not a strict local maximum.  The one solve, of the
    final witness, must confirm at least recipe.value modes; a shortfall
    raises RecipeVerificationError carrying the achieved count.
    So does a nondegenerate final report that fails the Morse inequalities
    or the Morse equality, since such a report has missed critical points and its mode count
    certifies nothing.  Near-degenerate outcomes get one tilt-polish pass
    before the verdict.

    Returns (witness, provenance) where provenance records the recipe, the
    claim, the verified count, and the tolerances used.
    """
    config = config or SolverConfig()
    if recipe.seeds:
        seeds = [_build_seed(triple, epsilon) for triple in recipe.seeds]
    else:
        base_dim = max(recipe.lift_to, 1)
        base = Mixture.from_arrays(np.array([1.0]), np.zeros((1, base_dim)), shared_covariance=np.eye(base_dim))
        seeds = [(base, base.means)]
    mixtures, proposals = zip(*seeds)
    witness = functools.reduce(product, mixtures)
    if witness.dim < recipe.lift_to:
        witness = lift(witness, recipe.lift_to)

    if recipe.pad > 0:
        pad_spec = padding or PaddingSpec(count=recipe.pad)
        if pad_spec.count != recipe.pad:
            raise ValueError("padding spec count disagrees with the recipe pad count")
        modes = np.array([np.concatenate(rows) for rows in itertools.product(*proposals)])
        modes = np.hstack([modes, np.zeros((len(modes), witness.dim - modes.shape[1]))])
        witness = pad_remote(witness, pad_spec, modes=_LogSolver(witness).polish(modes), seed=pad_seed)
    report = find_critical_points(witness, config)
    tilted = False
    if not report.all_nondegenerate:
        witness, report = tilt_polish(witness, config, seed=tilt_seed)
        tilted = True

    achieved = report.n_modes
    provenance = {
        "seeds": [[s.dim, s.comps, s.modes] for s in recipe.seeds],
        "lift_to": recipe.lift_to,
        "pad": recipe.pad,
        "claimed_modes": recipe.value,
        "verified_modes": achieved,
        "n_critical": report.n_critical,
        "all_nondegenerate": report.all_nondegenerate,
        "epsilon": epsilon,
        "tilt_applied": tilted,
        "tolerances": {
            "newton_tol": NEWTON_TOL,
            "dedup_tol": config.dedup_tol,
            "degeneracy_tol": config.degeneracy_tol,
            "grad_accept_tol": config.grad_accept_tol,
        },
    }
    if not (report.morse_inequality_ok and report.morse_equality_ok):
        raise RecipeVerificationError(
            recipe.value, achieved,
            "witness report fails the Morse check M <= floor((N+1)/2), C_(d-1) >= M-1, "
            f"sum_i (-1)^(d-i) c_i = 1 with N={report.n_critical}, M={achieved}, "
            f"C_(d-1)={report.n_index_dminus1}, c={report.counts_by_index}, "
            "so the solver missed critical points",
        )
    if achieved < recipe.value:
        raise RecipeVerificationError(recipe.value, achieved)
    return witness, provenance
