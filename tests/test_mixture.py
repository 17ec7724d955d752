"""Mixture-core tests: evaluation, tilt, rank reduction, file format."""

import json

import numpy as np
import pytest
from scipy.integrate import quad

from modecount import (
    AffineMap,
    Mixture,
    MixtureFormatError,
    affine_rank,
    mixture_from_dict,
    mixture_to_dict,
    read_mixture,
    reduce_homoscedastic,
    tilt,
    write_mixture,
)

from conftest import evaluate, log_density, random_mixture_1d, random_spd, relative_derivatives, responsibilities


def random_mixture(rng, d, k):
    means = rng.uniform(-3.0, 3.0, size=(k, d))
    covs = np.array([random_spd(rng, d, scale=0.3) for _ in range(k)])
    weights = rng.uniform(0.2, 1.0, size=k)
    return Mixture.from_arrays(weights, means, covs)


# -- validation ----------------------------------------------------------------


def test_weights_normalize():
    m = Mixture.from_arrays([2.0, 6.0], [[0.0], [1.0]], shared_covariance=np.eye(1))
    assert np.allclose(m.weights, [0.25, 0.75])
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Mixture.from_arrays([-0.5, 1.5], [[0.0], [1.0]], shared_covariance=np.eye(1))
    with pytest.raises(ValueError):
        Mixture.from_arrays([1.0], [[0.0]], shared_covariance=np.array([[-1.0]]))
    with pytest.raises(ValueError):
        Mixture.from_arrays([1.0], [[0.0, 0.0]], shared_covariance=np.array([[1.0, 0.5], [0.3, 1.0]]))
    with pytest.raises(ValueError):
        Mixture.from_arrays([0.5, 0.5], [[0.0], [1.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="mean must be finite"):
            Mixture.from_arrays([0.5, 0.5], [[bad], [1.0]], shared_covariance=np.eye(1))
    # each weight is finite but the total overflows; a weight that is positive
    # only before normalization underflows to zero after it
    with pytest.raises(ValueError, match="positive finite sum"):
        Mixture.from_arrays([1e308, 1e308], [[0.0], [1.0]], shared_covariance=np.eye(1))
    with pytest.raises(ValueError, match=r"positive and finite, got 0\.0$"):
        Mixture.from_arrays([1e-320, 1e300], [[0.0], [1.0]], shared_covariance=np.eye(1))
    eye = np.eye(2)
    with pytest.raises(ValueError, match="not symmetric within relative tolerance 1e-12"):
        Mixture.from_arrays([0.5, 0.5], np.zeros((2, 2)), [eye, [[1.0, 0.5], [0.3, 1.0]]])
    with pytest.raises(ValueError, match=r"not positive definite \(min eigenvalue -1\.000e\+00\)"):
        Mixture.from_arrays([0.3, 0.3, 0.4], np.zeros((3, 2)), [eye, eye, [[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(ValueError, match=r"covariance shape \(2, 2\) does not match dimension 1"):
        Mixture.from_arrays([0.5, 0.5], [[0.0], [1.0]], shared_covariance=eye)
    with pytest.raises(ValueError, match=r"covariance shape \(3, 3\) does not match dimension 2"):
        Mixture.from_arrays([0.5, 0.5], np.zeros((2, 2)), [eye, np.eye(3)])
    with pytest.raises(ValueError, match="covariance must be finite and nonzero"):
        Mixture.from_arrays([1.0], [[0.0, 0.0]], shared_covariance=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="mixture needs at least one component"):
        Mixture.from_arrays([], np.zeros((0, 1)), shared_covariance=np.eye(1))
    with pytest.raises(ValueError, match="weights must be a vector"):
        Mixture.from_arrays([[1.0, 1.0]], [[0.0]], shared_covariance=np.eye(1))


def test_component_arrays_are_readonly():
    weights, means, covs = np.array([1.0, 3.0]), np.zeros((2, 2)), np.array([np.eye(2), 2.0 * np.eye(2)])
    m = Mixture.from_arrays(weights, means, covs)
    for name in ("weights", "means", "covariances", "precisions", "log_weights", "log_norms"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(m, name)[0] = 1.0
    # the mixture holds copies: changing the caller's arrays changes nothing
    weights[0], means[0, 0], covs[0, 0, 0] = 5.0, 7.0, 9.0
    assert m.weights.tolist() == [0.25, 0.75]
    assert m.means.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert m.covariances.tolist() == [np.eye(2).tolist(), (2.0 * np.eye(2)).tolist()]


def test_mixtures_compare_and_hash_by_identity():
    a = Mixture.from_arrays([0.5, 0.5], [[0.0, 0.0], [1.0, 0.0]], shared_covariance=np.eye(2))
    b = Mixture.from_arrays([0.5, 0.5], [[0.0, 0.0], [1.0, 0.0]], shared_covariance=np.eye(2))
    assert (a == b) is False
    assert a == a
    assert {a, a, b} == {a, b} and len({a, b}) == 2


# -- evaluation against finite differences --------------------------------------


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        m = random_mixture(rng, d, k)
        x = rng.uniform(-4.0, 4.0, size=d)
        value, grad, _ = evaluate(m, x)
        h = 1e-5
        fd = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd[i] = (evaluate(m, x + e)[0] - evaluate(m, x - e)[0]) / (2.0 * h)
        scale = np.linalg.norm(grad) + value + 1e-300
        assert np.linalg.norm(fd - grad) <= 1e-6 * scale


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        m = random_mixture(rng, d, k)
        x = rng.uniform(-3.0, 3.0, size=d)
        value, _, hess = evaluate(m, x)
        h = 1e-4
        fd = np.zeros((d, d))
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            _, gp, _ = evaluate(m, x + e)
            _, gm, _ = evaluate(m, x - e)
            fd[i] = (gp - gm) / (2.0 * h)
        fd = 0.5 * (fd + fd.T)
        scale = np.abs(hess).max() + value + 1e-300
        assert np.abs(fd - hess).max() <= 1e-4 * scale


def test_density_normalizes_1d():
    rng = np.random.default_rng(13)
    for _ in range(3):
        m = random_mixture_1d(rng)
        total, _ = quad(lambda x: evaluate(m, np.array([x]))[0], -40.0, 40.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_log_density_survives_remote_points():
    m = Mixture.from_arrays([0.5, 0.5], [[-2.0], [2.0]], shared_covariance=np.eye(1))
    lv = log_density(m, np.array([1000.0]))
    assert np.isfinite(lv) and lv < -4e5
    _, rel_grad, rel_hess = relative_derivatives(m, np.array([1000.0]))
    assert np.all(np.isfinite(rel_grad)) and np.all(np.isfinite(rel_hess))


def test_logsumexp_matches_scipy_bitwise():
    # scipy.special.logsumexp is the oracle: same formula, same operation order
    from scipy.special import logsumexp as scipy_logsumexp

    from modecount.mixture import logsumexp

    def same(a, b):
        return type(a) is type(b) and np.shape(a) == np.shape(b) and np.array_equal(a, b)

    rng = np.random.default_rng(17)
    for trial in range(2000):
        n = int(rng.integers(1, 8))
        spread = 10.0 ** rng.uniform(-3.0, 3.0)      # up to about 1e3
        vec = rng.standard_normal(n) * spread
        mat = rng.standard_normal((int(rng.integers(1, 6)), n)) * spread
        if trial % 3 == 0:                          # ties at the maximum
            vec[rng.integers(0, n, size=2)] = vec.max()
            mat = np.round(mat)
        result = logsumexp(vec)
        assert np.ndim(result) == 0
        assert same(result, scipy_logsumexp(vec)), vec
        assert same(logsumexp(mat), scipy_logsumexp(mat, axis=1)), mat
        assert same(logsumexp(mat.T), scipy_logsumexp(mat, axis=0)), mat
    for edge in ([-np.inf, -np.inf], [np.inf, 0.0], [-np.inf, 3.0], [710.0, 710.0, 1.0]):
        assert same(logsumexp(np.array(edge)), scipy_logsumexp(np.array(edge))), edge


def test_logsumexp_axes_and_keepdims_match_scipy():
    # each axis moved last is reduced in Fortran order; with at most 7
    # entries along it, shapes and bits are scipy's on every axis, and the
    # flattened 60 entries sum pairwise as scipy's full reduction does
    from scipy.special import logsumexp as scipy_logsumexp

    from modecount.mixture import logsumexp

    a = np.random.default_rng(18).standard_normal((3, 4, 5)) * 50.0
    a[1, 2] = a[1, 2].max()                         # ties at a row's maximum
    for axis in (None, 0, 1, 2, -1, -2):
        got = logsumexp(a.ravel() if axis is None else np.moveaxis(a, axis, -1))
        want = scipy_logsumexp(a, axis=axis)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want), axis


def test_responsibilities_sum_to_one():
    rng = np.random.default_rng(14)
    m = random_mixture(rng, 2, 4)
    for _ in range(10):
        x = rng.uniform(-6.0, 6.0, size=2)
        assert responsibilities(m, x).sum() == pytest.approx(1.0, abs=1e-12)


# -- exponential tilt ------------------------------------------------------------


def test_tilt_pointwise_proportionality():
    rng = np.random.default_rng(15)
    m = random_mixture(rng, 2, 3)
    c = rng.standard_normal(2) * 0.7
    tilted = tilt(m, c)
    # Phi_c(x) must be proportional to exp(c.x) Phi(x); the constant is the
    # same at every point.
    ratios = []
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, size=2)
        ratios.append(log_density(tilted, x) - (float(c @ x) + log_density(m, x)))
    ratios = np.array(ratios)
    assert np.abs(ratios - ratios[0]).max() <= 1e-10


def test_tilt_roundtrip():
    rng = np.random.default_rng(16)
    m = random_mixture(rng, 3, 3)
    c = rng.standard_normal(3) * 0.5
    back = tilt(tilt(m, c), -c)
    assert np.allclose(back.weights, m.weights, atol=1e-12)
    assert np.allclose(back.means, m.means, atol=1e-12)
    assert np.allclose(back.covariances, m.covariances, atol=1e-12)


def test_tilt_shifts_means_by_sigma_c():
    m = Mixture.from_arrays([1.0], [[1.0, -1.0]], shared_covariance=np.diag([2.0, 0.5]))
    c = np.array([1.0, 2.0])
    t = tilt(m, c)
    assert np.allclose(t.means[0], [1.0 + 2.0, -1.0 + 1.0])
    assert np.allclose(t.covariances[0], m.covariances[0])


# -- affine rank and homoscedastic reduction --------------------------------------


def test_affine_rank_matches_gram_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        r = int(rng.integers(0, d))
        k = int(rng.integers(r + 1, r + 4))
        basis = np.linalg.qr(rng.standard_normal((d, max(r, 1))))[0][:, :r]
        base = rng.uniform(-2.0, 2.0, size=d)
        coords = rng.uniform(-3.0, 3.0, size=(k, r))
        means = base + coords @ basis.T
        # independent check: rank of the centered Gram matrix
        centered = means - means[0]
        gram = centered @ centered.T
        eig = np.linalg.eigvalsh(gram)
        oracle = int(np.sum(eig > 1e-12 * max(eig.max(), 1.0)))
        assert affine_rank(means) == oracle


def test_affine_rank_zero_for_coincident_means():
    means = np.ones((4, 3))
    assert affine_rank(means) == 0


def test_reduce_homoscedastic_factorization():
    rng = np.random.default_rng(18)
    d, r, k = 4, 2, 3
    sigma = random_spd(rng, d)
    basis = np.linalg.qr(rng.standard_normal((d, r)))[0]
    means = rng.uniform(-1.0, 1.0, size=d) + rng.uniform(-2.0, 2.0, size=(k, r)) @ basis.T
    m = Mixture.from_arrays(rng.uniform(0.3, 1.0, size=k), means, shared_covariance=sigma)
    amap, reduced, constant = reduce_homoscedastic(m)
    assert reduced.dim == r == affine_rank(means)
    assert np.allclose(reduced.covariances, np.eye(r))
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    # Phi(T^{-1}(u, v)) * det(Sigma)^{1/2} = constant * exp(-|v|^2/2) * G(u)
    for _ in range(100):
        z = rng.uniform(-4.0, 4.0, size=d)
        u, v = z[:r], z[r:]
        x = amap.inverse(z)
        lhs = log_density(m, x) + 0.5 * logdet
        rhs = np.log(constant) - 0.5 * float(v @ v) + log_density(reduced, u)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_reduce_homoscedastic_rejects_heteroscedastic():
    m = Mixture.from_arrays(
        [0.5, 0.5], [[0.0], [1.0]], covariances=np.array([[[1.0]], [[2.0]]])
    )
    with pytest.raises(ValueError):
        reduce_homoscedastic(m)


def test_affine_map_roundtrip():
    rng = np.random.default_rng(19)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    amap = AffineMap(orthogonal=q, whiten=random_spd(rng, 3), base=rng.standard_normal(3))
    x = rng.standard_normal(3)
    assert np.allclose(amap.inverse(amap.apply(x)), x, atol=1e-10)


# -- file format -------------------------------------------------------------------


def test_json_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(20)
    m = random_mixture(rng, 3, 3)
    path = tmp_path / "m.json"
    write_mixture(m, path)
    back = read_mixture(path)
    assert np.array_equal(back.weights, m.weights)
    assert np.array_equal(back.means, m.means)
    assert np.array_equal(back.covariances, m.covariances)


def test_shared_covariance_emitted_when_equal():
    m = Mixture.from_arrays([0.5, 0.5], [[0.0], [1.0]], shared_covariance=np.eye(1))
    doc = mixture_to_dict(m)
    assert "shared_covariance" in doc and "covariances" not in doc
    m2 = mixture_from_dict(doc)
    assert np.array_equal(m2.covariances, m.covariances)


def test_format_errors():
    with pytest.raises(MixtureFormatError):
        mixture_from_dict({"weights": [1.0]})
    with pytest.raises(MixtureFormatError):
        mixture_from_dict({
            "weights": [1.0], "means": [[0.0]],
            "covariances": [[[1.0]]], "shared_covariance": [[1.0]],
        })
    with pytest.raises(MixtureFormatError):
        mixture_from_dict([1, 2, 3])


def test_read_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"weights": [0.5,\n  oops\n]}')
    with pytest.raises(MixtureFormatError) as err:
        read_mixture(path)
    assert "line" in str(err.value)


def test_written_file_is_plain_json(tmp_path):
    m = Mixture.from_arrays([1.0], [[0.25]], shared_covariance=np.array([[0.125]]))
    path = tmp_path / "m.json"
    write_mixture(m, path)
    doc = json.loads(path.read_text())
    assert doc["means"] == [[0.25]]
    assert doc["shared_covariance"] == [[0.125]]
