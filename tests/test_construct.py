"""Construction tests: simplex seeds, lift/product, padding, recipe realization."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import brentq

from modecount import (
    Mixture,
    PaddingError,
    PaddingSpec,
    RecipeError,
    RecipeVerificationError,
    SeedRecipe,
    SeedTriple,
    SolverConfig,
    find_critical_points,
    lift,
    pad_remote,
    product,
    radial_critical_roots,
    ray_ren_family,
    realize_recipe,
    seed_closure_bound,
    simplex_family,
    simplex_seed,
    simplex_vertices,
    tilt_polish,
)
from modecount import construct

from conftest import log_density, relative_derivatives


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
    _, grad, hess = relative_derivatives(m, np.zeros(2))
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
    # the claim counts grid brackets without refining them; it must agree
    # with the refined roots on both sides of the K = 3 fold
    for K in range(3, 8):
        for eps in (0.01, 0.05, 0.08, 0.09, 0.1, 0.15, 0.2):
            two_roots = len(radial_critical_roots(K - 1, K / (1.0 + eps))) == 2
            assert simplex_seed(K, eps)[1] == (K + 1 if two_roots else 1), (K, eps)


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
        roots, want = radial_critical_roots(n, a), scalar_scan_roots(n, a)
        assert len(roots) == len(want), (n, a)
        # 40 halvings of a grid bracket reach rounding; brentq stops within its xtol
        assert all(abs(r - w) <= 1e-14 for r, w in zip(roots, want)), (n, a, roots, want)


def test_simplex_claims_count_the_secant_points_of_the_ray_brackets():
    # with no halving, `_ray_roots` returns the secant point of each grid
    # bracket, within 1.1e-7 of the root where the midpoint is within 5e-5:
    # the claims still count K + 1 modes, and 40 halvings still reach the
    # point-by-point scan's roots
    for K in range(3, 8):
        n, a = K - 1, K / (1.0 + construct.REALIZE_EPSILON)
        want = scalar_scan_roots(n, a)
        assert simplex_seed(K, construct.REALIZE_EPSILON)[1] == K + 1 and len(want) == 2
        assert all(abs(r - w) <= 1e-14 for r, w in zip(radial_critical_roots(n, a), want, strict=True))
        assert all(abs(r - w) <= 1e-6 for r, w in zip(construct._ray_roots(n, a, 0), want, strict=True))


# -- lift and product -----------------------------------------------------------------


def test_lift_blocks():
    base = Mixture.from_arrays([0.5, 0.5], [[-2.0], [2.0]], shared_covariance=0.5 * np.eye(1))
    m = lift(base, 3)
    assert m.dim == 3
    assert np.allclose(m.means[:, 1:], 0.0)
    expected = np.diag([0.5, 1.0, 1.0])
    assert np.allclose(m.covariances[0], expected)
    assert m.is_homoscedastic()
    with pytest.raises(ValueError):
        lift(m, 3)
    # full, non-diagonal blocks are copied exactly
    rng = np.random.default_rng(51)
    raw = rng.standard_normal((2, 2, 2))
    covs = raw @ raw.transpose(0, 2, 1) + 0.5 * np.eye(2)
    base = Mixture.from_arrays([0.4, 0.6], rng.standard_normal((2, 2)), covs)
    m = lift(base, 5)
    assert np.array_equal(m.means, np.hstack([base.means, np.zeros((2, 3))]))
    for lifted, c in zip(m.covariances, covs):
        assert np.array_equal(lifted, block_diag(c, np.eye(3)))


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
        assert log_density(p, x) == pytest.approx(
            log_density(a, x[:1]) + log_density(b, x[1:]), abs=1e-10
        )
    # full, non-diagonal blocks: a 2x2 block times a 3x3 block
    raw2, raw3 = rng.standard_normal((2, 2, 2)), rng.standard_normal((3, 3, 3))
    c = Mixture.from_arrays([0.2, 0.8], rng.standard_normal((2, 2)),
                            raw2 @ raw2.transpose(0, 2, 1) + 0.5 * np.eye(2))
    e = Mixture.from_arrays([0.5, 0.3, 0.2], rng.standard_normal((3, 3)),
                            raw3 @ raw3.transpose(0, 2, 1) + 0.5 * np.eye(3))
    p = product(c, e)
    assert p.dim == 5 and p.n_components == 6
    for i in range(2):
        for j in range(3):
            row = 3 * i + j
            assert p.weights[row] == pytest.approx(c.weights[i] * e.weights[j], rel=1e-15)
            assert np.array_equal(p.means[row], np.concatenate([c.means[i], e.means[j]]))
            assert np.array_equal(p.covariances[row], block_diag(c.covariances[i], e.covariances[j]))


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
    for factor in (math.nan, math.inf):
        # inf overflowed to a nan center, and both failed as a non-finite component mean
        with pytest.raises(ValueError, match="separation factor must be finite"):
            PaddingSpec(count=1, separation_factor=factor)
    # a finite factor puts the pair's padding at distance 1.4e301, whose
    # square overflowed with a RuntimeWarning in the candidate's component terms
    with pytest.raises(ValueError, match="separation factor 1e\\+300 is too large"):
        pad_remote(pair_1d(), PaddingSpec(count=1, separation_factor=1e300))
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
    padded = pad_remote(m, PaddingSpec(count=2), modes=[p.location for p in base.modes])
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
    with pytest.raises(PaddingError):
        pad_remote(m, PaddingSpec(count=1), modes=np.empty((0, 1)))


def test_pad_rejects_a_saddle_proposed_as_a_mode():
    # the pair's saddle at the origin fails the ball test at every separation
    with pytest.raises(PaddingError):
        pad_remote(pair_1d(), PaddingSpec(count=1), modes=[[0.0]])


def assert_polish_to_solver_modes(mixture, proposals, config=None):
    """Polished proposals match the solver's modes in count and, within 1e-9, in location."""
    polished = construct._LogSolver(mixture).polish(np.asarray(proposals, dtype=float))
    report = find_critical_points(mixture, config)
    assert len(polished) == report.n_modes
    gaps = np.linalg.norm(polished[:, None] - np.array([p.location for p in report.modes])[None], axis=2)
    assert np.all(gaps.min(axis=1) <= 1e-9)
    assert len(set(gaps.argmin(axis=1))) == len(polished)


def test_seed_proposals_polish_to_the_solver_modes():
    eps = construct.REALIZE_EPSILON
    seeds = [construct._build_seed(SeedTriple(1, 2, 2), eps)]
    seeds += [construct._build_seed(SeedTriple(K - 1, K, K + 1), eps) for K in range(3, 8)]
    assert [len(modes) for _, modes in seeds] == [2, 4, 5, 6, 7, 8]
    for mixture, modes in seeds:
        assert_polish_to_solver_modes(mixture, modes, SolverConfig(force=True))
    # past the fold the center alone is proposed
    mixture, modes = construct._build_seed(SeedTriple(2, 3, 4), 0.15)
    assert len(modes) == 1
    assert_polish_to_solver_modes(mixture, modes)


def test_product_and_lift_proposals_polish_to_the_solver_modes(monkeypatch):
    # the proposals realize_recipe hands to pad_remote for product(pair, pair)
    # and for the (3, 4, 5) seed lifted to d = 5
    handed = []

    def spy(mixture, spec, modes=None, **kwargs):
        handed.append((mixture, modes))
        return pad_remote(mixture, spec, modes, **kwargs)

    monkeypatch.setattr(construct, "pad_remote", spy)
    pair = SeedTriple(1, 2, 2)
    realize_recipe(SeedRecipe((pair, pair), lift_to=2, pad=1, value=5))
    realize_recipe(SeedRecipe((SeedTriple(3, 4, 5),), lift_to=5, pad=1, value=6))
    (prod, prod_modes), (lifted, lifted_modes) = handed
    assert prod.dim == 2 and len(prod_modes) == 4
    assert lifted.dim == 5 and len(lifted_modes) == 5
    assert_polish_to_solver_modes(prod, prod_modes)
    assert_polish_to_solver_modes(lifted, lifted_modes)


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


def test_realize_shortfall_raises_with_counts():
    # epsilon past the K = 3 fold: the ray modes vanish and only the center
    # survives, so the claim of 4 modes cannot be verified
    recipe = SeedRecipe(seeds=(SeedTriple(2, 3, 4),), lift_to=2, pad=0, value=4)
    with pytest.raises(RecipeVerificationError) as err:
        realize_recipe(recipe, epsilon=0.15)
    assert err.value.claimed == 4
    assert err.value.achieved == 1


def ball_certifies_mode_pointwise(mixture, center, radius, directions):
    """Reference ball test: one `conftest.log_density` call per point."""
    center_log = log_density(mixture, center)
    return all(log_density(mixture, center + radius * direction) < center_log for direction in directions)


def test_batched_ball_test_matches_pointwise(monkeypatch):
    # every ball that pad_remote tests while realizing a padded witness gets
    # the verdict of the one-point-at-a-time test, so the padding lands on
    # the same means
    batched = construct._ball_certifies_mode
    for family, d, k in ((ray_ren_family, 1, 6), (simplex_family, 2, 6)):
        _, recipe = seed_closure_bound(d, k, family)
        assert recipe.pad > 0
        verdicts = []

        def spy(solver, center, radius, directions):
            verdict = batched(solver, center, radius, directions)
            verdicts.append((verdict, ball_certifies_mode_pointwise(solver.mixture, center, radius, directions)))
            return verdict

        monkeypatch.setattr(construct, "_ball_certifies_mode", spy)
        witness, _ = realize_recipe(recipe)
        monkeypatch.setattr(construct, "_ball_certifies_mode",
                            lambda solver, *ball: ball_certifies_mode_pointwise(solver.mixture, *ball))
        reference, _ = realize_recipe(recipe)
        assert len(verdicts) >= recipe.pad
        assert all(got == want for got, want in verdicts)
        assert np.array_equal(witness.means, reference.means)
        assert np.array_equal(witness.weights, reference.weights)


def test_padded_recipe_solves_once(monkeypatch):
    # the construction's modes stand in for a solve of the unpadded base, so
    # the padded witness is the only mixture solved, and the padding lands
    # where padding around the solver's modes of that base puts it
    solve = construct.find_critical_points
    solved = []

    def spy(mixture, config=None):
        solved.append(mixture)
        return solve(mixture, config)

    monkeypatch.setattr(construct, "find_critical_points", spy)
    simplex_recipe = seed_closure_bound(2, 6, simplex_family)[1]
    ray_ren_recipe = seed_closure_bound(1, 6, ray_ren_family)[1]
    assert simplex_recipe.seeds == (SeedTriple(2, 3, 4),) and ray_ren_recipe.seeds == (SeedTriple(1, 2, 2),)
    cases = [
        (simplex_recipe, simplex_seed(3, construct.REALIZE_EPSILON)[0]),
        (ray_ren_recipe, pair_1d()),
        (SeedRecipe((), lift_to=2, pad=2, value=3), Mixture.from_arrays([1.0], [[0.0, 0.0]], shared_covariance=np.eye(2))),
    ]
    for recipe, base in cases:
        solved.clear()
        witness, prov = realize_recipe(recipe)
        assert len(solved) == 1 and solved[0] is witness and not prov["tilt_applied"]
        reference = pad_remote(base, PaddingSpec(count=recipe.pad), modes=[p.location for p in solve(base).modes])
        assert np.array_equal(witness.means, reference.means)
        assert np.array_equal(witness.weights, reference.weights)


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
    # a report that misses a critical point fails the Morse inequalities or
    # the Morse equality, and its mode count cannot count as verified: drop
    # one point from every nondegenerate report of a witness that otherwise
    # realizes.  Without a saddle (index d-1) it fails the inequalities;
    # without a mode it keeps them (N=6, M=3, C_(d-1)=3) and fails only the
    # equality, 3 - 3 != 1.
    real = construct.find_critical_points
    recipe = SeedRecipe(seeds=(SeedTriple(2, 3, 4),), lift_to=2, pad=0, value=4)
    for dropped_index, counts in ((1, "N=6, M=4, C_(d-1)=2"), (2, "N=6, M=3, C_(d-1)=3")):

        def missing_a_point(mixture, config=None, dropped_index=dropped_index):
            report = real(mixture, config)
            drop = next(i for i, p in enumerate(report.points) if p.morse_index == dropped_index)
            short = dataclasses.replace(report, points=report.points[:drop] + report.points[drop + 1:])
            assert short.morse_inequality_ok == (dropped_index == 2)
            assert short.all_nondegenerate and not short.morse_equality_ok
            return short

        monkeypatch.setattr(construct, "find_critical_points", missing_a_point)
        with pytest.raises(RecipeVerificationError, match="fails the Morse check") as err:
            realize_recipe(recipe)
        assert counts in str(err.value)


def test_realize_rejects_mismatched_pad_spec():
    recipe = SeedRecipe(seeds=(SeedTriple(1, 2, 2),), lift_to=1, pad=1, value=3)
    with pytest.raises(ValueError, match="pad count"):
        realize_recipe(recipe, padding=PaddingSpec(count=2))


def test_import_and_witness_path_load_no_scipy():
    # the test process already holds scipy (conftest imports it), so the
    # check runs in a fresh interpreter
    script = """
import sys
import modecount as mc

pair = mc.Mixture.from_arrays([0.5, 0.5], [[-2.0], [2.0]], shared_covariance=[[1.0]])
for d in (2, 6):  # (2, 6) pads, (6, 6) lifts
    mc.realize_recipe(mc.seed_closure_bound(d, 6, mc.simplex_family)[1])
mc.find_critical_points(mc.lift(mc.product(pair, pair), 3))
mc.radial_critical_roots(3, 4.0 / 1.1)
mc.simplex_seed(4, 0.1)
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""
    src = str(Path(construct.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]", done.stdout[:300]
