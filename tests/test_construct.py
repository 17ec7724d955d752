"""Construction tests: simplex seeds, lift/product, padding, recipe realization."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from modecount import (
    Mixture,
    PaddingError,
    PaddingSpec,
    RecipeError,
    RecipeVerificationError,
    SeedRecipe,
    SeedTriple,
    SolveReport,
    SolverConfig,
    find_critical_points,
    lift,
    morse_check,
    pad_remote,
    product,
    radial_critical_roots,
    realize_recipe,
    seed_closure_bound,
    simplex_family,
    simplex_seed,
    simplex_vertices,
    tilt_polish,
)
from modecount import construct


def pair_1d():
    return Mixture.from_arrays([0.5, 0.5], [[-2.0], [2.0]], shared_covariance=np.eye(1))


# -- simplex geometry ---------------------------------------------------------------


def test_simplex_vertices_geometry():
    for n in range(1, 7):
        v = simplex_vertices(n)
        k = n + 1
        assert v.shape == (k, n)
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        assert np.allclose(v.sum(axis=0), 0.0, atol=1e-12)
        gram = v @ v.T
        off = gram[~np.eye(k, dtype=bool)]
        assert np.allclose(off, -1.0 / n, atol=1e-12)
        # unit tight frame identity
        assert np.allclose(v.T @ v, (k / n) * np.eye(n), atol=1e-12)
    with pytest.raises(ValueError):
        simplex_vertices(0)


def test_simplex_vertices_deterministic():
    assert np.array_equal(simplex_vertices(4), simplex_vertices(4))


def test_simplex_seed_shape_and_validation():
    m, expected = simplex_seed(4, 0.1)
    assert expected == 5
    assert m.dim == 3 and m.n_components == 4
    assert np.allclose(m.weights, 0.25)
    assert np.allclose(m.covariances[0], (1.1 / 3.0) * np.eye(3))
    with pytest.raises(ValueError):
        simplex_seed(2, 0.1)
    with pytest.raises(ValueError):
        simplex_seed(4, 0.0)
    with pytest.raises(ValueError):
        simplex_seed(4, 0.25)


def test_simplex_center_is_strict_maximum():
    m, _ = simplex_seed(3, 0.1)
    _, grad, hess = m.relative_derivatives(np.zeros(2))
    assert np.linalg.norm(grad) <= 1e-12
    assert np.all(np.linalg.eigvalsh(hess) < 0.0)


def test_simplex_seed_claims_follow_ray_equation():
    # past the fold the ray equation has no roots and only the center is a
    # mode; the window closes near epsilon 0.09 for K = 3 and beyond 0.2 for
    # K = 4-6
    assert simplex_seed(3, 0.05)[1] == 4
    assert simplex_seed(3, 0.1)[1] == 1
    assert simplex_seed(3, 0.15)[1] == 1
    for K in (4, 5, 6):
        for eps in (0.1, 0.2):
            assert simplex_seed(K, eps)[1] == K + 1


# -- ray criticality roots -------------------------------------------------------------


def test_radial_roots_match_solver_radii():
    # simplex_seed(K, eps) puts ray critical points at radius t with
    # (1-t)exp(at) = 1+nt, n = K-1, a = K/(1+eps)
    roots = radial_critical_roots(3, 4.0 / 1.1)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.11636408, abs=1e-8)
    assert roots[1] == pytest.approx(0.82880838, abs=1e-8)

    m, _ = simplex_seed(4, 0.1)
    report = find_critical_points(m)
    mode_radii = sorted(np.linalg.norm(p.location) for p in report.points if p.is_mode)
    assert mode_radii[0] == pytest.approx(0.0, abs=1e-9)
    for r in mode_radii[1:]:
        assert r == pytest.approx(roots[1], abs=1e-6)
    saddle_radii = [
        np.linalg.norm(p.location) for p in report.points
        if not p.is_mode and np.linalg.norm(p.location) > 1e-6
    ]
    for r in saddle_radii:
        assert r == pytest.approx(roots[0], abs=1e-6)


def test_radial_roots_window():
    assert radial_critical_roots(2, 3.0 / 1.05) == pytest.approx(
        [0.12080816, 0.61598325], abs=1e-8
    )
    # past the fold: no ray critical points
    assert radial_critical_roots(2, 3.0 / 1.1) == []
    # above a = n+1 the origin repels along the ray and a single root remains
    assert len(radial_critical_roots(3, 4.5)) == 1
    with pytest.raises(ValueError):
        radial_critical_roots(1, 2.0)
    with pytest.raises(ValueError):
        radial_critical_roots(3, -1.0)


def scalar_scan_roots(n, a, grid=10_000, tol=1e-12):
    """Point-by-point grid scan of the ray equation: the reference for the vectorised one."""
    def ell(t):
        return math.log1p(-t) + a * t - math.log1p(n * t)

    ts = np.linspace(0.0, 1.0, grid + 1)[1:-1]
    values = [ell(t) for t in ts]
    roots = []
    for i, (t, v) in enumerate(zip(ts, values)):
        if v == 0.0:
            roots.append(float(t))
        elif i + 1 < len(ts) and values[i + 1] != 0.0 and v * values[i + 1] < 0.0:
            roots.append(float(brentq(ell, t, ts[i + 1], xtol=tol * 1e-2)))
    return roots


def test_radial_roots_match_scalar_scan():
    rng = np.random.default_rng(41)
    cases = [(K - 1, K / (1.0 + eps)) for K in range(3, 7) for eps in (0.01, 0.05, 0.09, 0.1, 0.2)]
    cases += [(int(rng.integers(2, 8)), float(rng.uniform(0.5, 9.0))) for _ in range(10)]
    for n, a in cases:
        assert radial_critical_roots(n, a) == scalar_scan_roots(n, a), (n, a)


# -- lift and product -----------------------------------------------------------------


def test_lift_blocks():
    m = lift(pair_1d(), 3, pad_covariance=0.5)
    assert m.dim == 3
    assert np.allclose(m.means[:, 1:], 0.0)
    expected = np.diag([1.0, 0.5, 0.5])
    assert np.allclose(m.covariances[0], expected)
    assert m.is_homoscedastic()
    with pytest.raises(ValueError):
        lift(m, 3)
    with pytest.raises(ValueError):
        lift(pair_1d(), 3, pad_covariance=np.eye(3))


def test_product_structure():
    a = pair_1d()
    b = Mixture.from_arrays(
        [0.3, 0.7], [[0.0, 0.0], [1.0, 1.0]], shared_covariance=0.5 * np.eye(2)
    )
    p = product(a, b)
    assert p.dim == 3 and p.n_components == 4
    # i-major ordering: first factor varies slowest
    assert np.allclose(p.weights, [0.15, 0.35, 0.15, 0.35])
    assert np.allclose(p.means[0], [-2.0, 0.0, 0.0])
    assert np.allclose(p.means[1], [-2.0, 1.0, 1.0])
    assert np.allclose(p.means[2], [2.0, 0.0, 0.0])
    assert np.allclose(p.covariances[0], np.diag([1.0, 0.5, 0.5]))
    # density factorizes
    rng = np.random.default_rng(50)
    for _ in range(5):
        x = rng.uniform(-2.0, 2.0, size=3)
        assert p.log_density(x) == pytest.approx(
            a.log_density(x[:1]) + b.log_density(x[1:]), abs=1e-10
        )


def test_product_modes_multiply():
    p = product(pair_1d(), pair_1d())
    report = find_critical_points(p)
    assert report.n_modes == 4 and report.n_critical == 9


# -- remote padding --------------------------------------------------------------------


def test_padding_spec_validation():
    with pytest.raises(ValueError):
        PaddingSpec(count=-1)
    with pytest.raises(ValueError):
        PaddingSpec(count=1, separation_factor=0.0)
    with pytest.raises(ValueError):
        PaddingSpec(count=1, weight_theta=0.6)
    spec = PaddingSpec(count=2)
    assert spec.separation_factor == 1.5 and spec.weight_theta == 0.25


def test_pad_zero_is_identity():
    m = pair_1d()
    assert pad_remote(m, PaddingSpec(count=0)) is m


def test_pad_adds_modes_and_keeps_base():
    m = pair_1d()
    base = find_critical_points(m)
    padded = pad_remote(m, PaddingSpec(count=2), base_report=base)
    assert padded.n_components == 4
    assert padded.is_homoscedastic()
    # original weights rescaled by (1 - theta) per padding round
    assert np.allclose(padded.weights[:2], 0.5 * 0.75 * 0.75)
    report = find_critical_points(padded)
    assert report.n_modes == base.n_modes + 2
    base_modes = np.array(sorted(float(p.location[0]) for p in base.modes))
    new_modes = np.array(sorted(float(p.location[0]) for p in report.modes))
    for bm in base_modes:
        assert np.min(np.abs(new_modes - bm)) <= 1e-3 * (1.0 + abs(bm))


def test_pad_requires_verified_modes():
    m = pair_1d()
    empty = SolveReport(
        mixture=m, points=(), reference=0, all_nondegenerate=True,
        morse_inequality_ok=True, upper_sandwich_ok=True, u_best=None,
        u_mode=None, u_best_hom=None, hom_rank=None,
        n_starts=0, n_converged=0, n_dropped=0,
    )
    with pytest.raises(PaddingError):
        pad_remote(m, PaddingSpec(count=1), base_report=empty)


# -- tilt polish ------------------------------------------------------------------------


def test_tilt_polish_clears_degeneracy():
    # the unit-variance pair at +-1 sits exactly on its fold: the origin is a
    # degenerate critical point
    m = Mixture.from_arrays([0.5, 0.5], [[-1.0], [1.0]], shared_covariance=np.eye(1))
    report = find_critical_points(m)
    assert not report.all_nondegenerate
    tilted, polished = tilt_polish(m)
    assert polished.all_nondegenerate
    assert tilted.n_components == 2
    assert not np.allclose(tilted.means, m.means)


# -- recipe realization -------------------------------------------------------------------


def test_realize_pair_product():
    recipe = SeedRecipe(
        seeds=(SeedTriple(1, 2, 2), SeedTriple(1, 2, 2)), lift_to=2, pad=0, value=4
    )
    witness, prov = realize_recipe(recipe)
    assert witness.dim == 2 and witness.n_components == 4
    assert prov["verified_modes"] >= 4
    assert prov["claimed_modes"] == 4
    assert prov["seeds"] == [[1, 2, 2], [1, 2, 2]]
    assert prov["tilt_applied"] is False


def test_realize_simplex_seed():
    recipe = SeedRecipe(seeds=(SeedTriple(2, 3, 4),), lift_to=2, pad=0, value=4)
    witness, prov = realize_recipe(recipe)
    assert witness.n_components == 3
    assert prov["verified_modes"] == 4
    assert prov["epsilon"] == 0.05


def test_realize_with_lift_and_pad():
    recipe = SeedRecipe(seeds=(SeedTriple(1, 2, 2),), lift_to=2, pad=1, value=3)
    witness, prov = realize_recipe(recipe)
    assert witness.dim == 2 and witness.n_components == 3
    assert prov["verified_modes"] == 3 and prov["pad"] == 1


def test_realize_pad_only():
    recipe = SeedRecipe(seeds=(), lift_to=2, pad=2, value=3)
    witness, prov = realize_recipe(recipe)
    assert witness.n_components == 3
    assert prov["verified_modes"] == 3


def test_realize_rejects_unregistered_seed():
    recipe = SeedRecipe(seeds=(SeedTriple(2, 2, 3),), lift_to=2, pad=0, value=3)
    with pytest.raises(RecipeError, match="no builder"):
        realize_recipe(recipe)


def test_realize_with_registry():
    def three_bumps(triple):
        m = Mixture.from_arrays(
            [1.0, 1.0, 1.0], [[-6.0], [0.0], [6.0]], shared_covariance=np.eye(1)
        )
        return m, 3

    triple = SeedTriple(1, 3, 3)
    recipe = SeedRecipe(seeds=(triple,), lift_to=1, pad=0, value=3)
    witness, prov = realize_recipe(recipe, registry={triple: three_bumps})
    assert witness.n_components == 3
    assert prov["verified_modes"] == 3


def test_realize_shortfall_raises_with_counts():
    # epsilon past the K = 3 fold: the ray modes vanish and only the center
    # survives, so the claim of 4 modes cannot be verified
    recipe = SeedRecipe(seeds=(SeedTriple(2, 3, 4),), lift_to=2, pad=0, value=4)
    with pytest.raises(RecipeVerificationError) as err:
        realize_recipe(recipe, epsilon=0.15)
    assert err.value.claimed == 4
    assert err.value.achieved == 1


def test_realize_padded_d1k6_finds_both_antimodes():
    # the padded 1-d k = 6 witness, six unit-variance components with means
    # from -211.9 to 473.4: Newton run in the chart of the largest-weight
    # component dropped the starts at the antimodes near -124.68 and 54.37,
    # so the report had 9 points and failed the Morse check
    _, recipe = seed_closure_bound(1, 6, simplex_family)
    witness, prov = realize_recipe(recipe)
    assert prov["n_critical"] == 11 and prov["verified_modes"] == 6
    report = find_critical_points(witness)
    assert report.n_critical == 11 and report.n_modes == 6
    assert report.all_nondegenerate and report.morse_inequality_ok
    antimodes = [float(p.location[0]) for p in report.points if not p.is_mode]
    # both roots of the log-density slope, located by brentq
    for root in (-124.6842000, 54.3676891):
        assert min(abs(a - root) for a in antimodes) <= 1e-6


def test_realize_rejects_report_failing_morse_check(monkeypatch):
    # a report that misses a critical point fails the Morse inequalities, and
    # its mode count cannot count as verified: drop one index-(d-1) point from
    # every nondegenerate report of a witness that otherwise realizes
    real = construct.find_critical_points

    def missing_a_saddle(mixture, config=None):
        report = real(mixture, config)
        d = mixture.dim
        drop = next(i for i, p in enumerate(report.points) if p.morse_index == d - 1)
        short = dataclasses.replace(report, points=report.points[:drop] + report.points[drop + 1:])
        return dataclasses.replace(short, morse_inequality_ok=morse_check(short))

    monkeypatch.setattr(construct, "find_critical_points", missing_a_saddle)
    recipe = SeedRecipe(seeds=(SeedTriple(2, 3, 4),), lift_to=2, pad=0, value=4)
    with pytest.raises(RecipeVerificationError, match="fails the Morse check") as err:
        realize_recipe(recipe)
    assert "N=6, M=4, C_(d-1)=2" in str(err.value)


def test_realize_rejects_mismatched_pad_spec():
    recipe = SeedRecipe(seeds=(SeedTriple(1, 2, 2),), lift_to=1, pad=1, value=3)
    with pytest.raises(ValueError, match="pad count"):
        realize_recipe(recipe, padding=PaddingSpec(count=2))
