"""Gaussian mixture representation and a numerically stable logsumexp.

Provides the core `Mixture` type, which holds a mixture as validated
read-only stacked arrays (weights, means, SPD covariances, and the
precisions and log normalizing constants computed from them once), the
max-shifted `logsumexp` the package evaluates with,
exponential tilting, the affine rank of the component means, and the
homoscedastic reduction onto the affine hull of the means.  The density
and its derivatives are evaluated by the solver's `_LogSolver`.  All
objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Mixture",
    "AffineMap",
    "tilt",
    "affine_rank",
    "reduce_homoscedastic",
    "read_mixture",
    "write_mixture",
    "mixture_from_dict",
    "mixture_to_dict",
    "MixtureFormatError",
]

# Numerical tolerances.  The underlying math never fixes these for floating
# point inputs; every caller uses these values, so they are module constants
# rather than arguments.
COV_SYMMETRY_RTOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
HOMOSCEDASTIC_RTOL = 1e-10
AFFINE_RANK_TOL = 1e-9

_LOG_2PI = float(np.log(2.0 * np.pi))


class MixtureFormatError(ValueError):
    """Raised when a mixture document is malformed."""


def logsumexp(a):
    """log(sum(exp(a))) over the last axis of a.

    Evaluated as a_max + log(n) + log1p(sum_{a_i < a_max} exp(a_i - a_max) / n),
    with n the number of entries equal to the maximum a_max (Blanchard,
    Higham & Higham, IMA J. Numer. Anal. 41(4), 2021).  The operations and
    their order are those of `scipy.special.logsumexp`, without the per-call
    cost of scipy's array-API dispatch.  a is copied to Fortran order once,
    so that `_last_max` and `_last_sum` reduce its last axis without copying
    again, and the two agree bit for bit unless a has two or more axes and
    the last has 8 or more entries (see `_last_sum`).  Results that come out
    non-finite are taken from log(sum(exp(a))), as scipy does.  A vector
    reduces to a scalar.
    """
    a = np.asfortranarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = _last_max(a)
        top = a == a_max[..., None]
        n_top = _last_sum(top.astype(float))
        rest = _last_sum(np.exp(np.where(top, -np.inf, a) - a_max[..., None]))
        out = np.log1p(rest / n_top) + np.log(n_top) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(_last_sum(np.exp(a))))
    return out[()] if out.ndim == 0 else out


def _last_max(a: np.ndarray) -> np.ndarray:
    """`a.max(axis=-1)`, reduced on a Fortran-ordered copy of a (see `_last_sum`)."""
    return np.asfortranarray(a).max(axis=-1)


def _last_sum(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=-1)`, reduced on a Fortran-ordered copy of a.

    numpy reduces a short contiguous last axis one row at a time, which
    costs far more than the arithmetic on (B, k) and (B, k, d) batches.  In
    the copy the reduced axis is the outermost, so numpy takes it as k - 1
    elementwise passes over whole arrays.  Each output is still the
    sequential sum (or maximum) of its own row's entries, so a row's bits do
    not depend on its batch, and for a last axis of 1 to 7 entries they are
    the bits of `a.sum(axis=-1)`, which sums that few entries sequentially
    as well (from 8 entries on it sums them pairwise).  An array already in
    Fortran order, or of one dimension, is reduced without a copy.
    """
    return np.asfortranarray(a).sum(axis=-1)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Mixture:
    """A finite Gaussian mixture density, held as stacked read-only arrays.

    `weights` (k,), `means` (k, d) and `covariances` (k, d, d) are validated
    and copied at construction.  Weights must be positive and finite, and are
    normalized to sum to one; means must be finite; each covariance must be
    finite, nonzero, symmetric to relative tolerance 1e-12 and positive
    definite, and is stored symmetrized.  `precisions` (k, d, d) and
    `log_norms` (k,), the logs of the normalizing constants
    (2pi)^{-d/2} det(Sigma_i)^{-1/2}, come from one batched eigendecomposition
    of the covariance stack, since the solver evaluates the mixture from
    these arrays millions of times per solve.  Mixtures compare and hash by
    identity (`eq=False`): two mixtures built from equal parameters are not
    `==`.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    precisions: np.ndarray = field(init=False, repr=False)
    log_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        if means.shape[0] != w.shape[0]:
            raise ValueError("weights and means disagree on the component count")
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if w.shape[0] == 0:
            raise ValueError("mixture needs at least one component")
        _check_weights(w)
        if means.ndim != 2:
            raise ValueError("component mean must be a vector")
        if not np.all(np.isfinite(means)):
            raise ValueError("component mean must be finite")
        d = means.shape[1]
        covs = [np.asarray(c, dtype=float) for c in self.covariances]
        if len(covs) != w.shape[0]:
            raise ValueError("weights and covariances disagree on the component count")
        shape = next((c.shape for c in covs if c.shape != (d, d)), None)
        if shape is not None:
            raise ValueError(f"covariance shape {shape} does not match dimension {d}")
        covs = np.array(covs)
        scale = np.abs(covs).max(axis=(1, 2))
        if not np.all((scale > 0.0) & np.isfinite(scale)):
            raise ValueError("covariance must be finite and nonzero")
        if np.any(np.abs(covs - covs.swapaxes(1, 2)).max(axis=(1, 2)) > COV_SYMMETRY_RTOL * scale):
            raise ValueError("covariance is not symmetric within relative tolerance 1e-12")
        covs = 0.5 * (covs + covs.swapaxes(1, 2))
        eigval, eigvec = np.linalg.eigh(covs)
        low = eigval[:, 0]
        if np.any(low <= 0.0):
            raise ValueError(f"covariance is not positive definite (min eigenvalue {low[low <= 0.0][0]:.3e})")
        # Python's sum, not np.sum, which sums 8 or more entries pairwise and
        # would move the bits of the normalized weights
        total = sum(w.tolist())
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError("component weights must have a positive finite sum")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            w = w / total
            _check_weights(w)
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "means", _readonly(means))
        object.__setattr__(self, "covariances", _readonly(covs))
        object.__setattr__(self, "precisions", _readonly((eigvec / eigval[:, None, :]) @ eigvec.swapaxes(1, 2)))
        object.__setattr__(self, "log_norms", _readonly(-0.5 * (d * _LOG_2PI + np.log(eigval).sum(axis=1))))

    @classmethod
    def from_arrays(
        cls,
        weights: Sequence[float],
        means: Sequence[Sequence[float]] | np.ndarray,
        covariances: Sequence | np.ndarray | None = None,
        shared_covariance: Sequence | np.ndarray | None = None,
    ) -> "Mixture":
        """Build a mixture from parameter arrays.

        Parameters
        ----------
        weights : (k,) positive reals, normalized automatically.
        means : (k, d) array of component means.
        covariances : (k, d, d) array, one SPD matrix per component.
        shared_covariance : (d, d) SPD matrix used for every component;
            mutually exclusive with `covariances`.
        """
        if (covariances is None) == (shared_covariance is None):
            raise ValueError("give exactly one of covariances / shared_covariance")
        if shared_covariance is not None:
            covariances = [shared_covariance] * len(np.atleast_1d(weights))
        return cls(weights, means, covariances)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def log_weights(self) -> np.ndarray:
        return _readonly(np.log(self.weights))

    def is_homoscedastic(self) -> bool:
        """True iff all covariances agree entrywise within relative tolerance HOMOSCEDASTIC_RTOL."""
        covs = self.covariances
        scale = np.maximum(np.abs(covs[0]).max(), np.abs(covs).max(axis=(1, 2)))
        return bool(np.all(np.abs(covs - covs[0]).max(axis=(1, 2)) <= HOMOSCEDASTIC_RTOL * scale))

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise ValueError(f"point of shape {x.shape} does not match dimension {self.dim}")
        if not np.all(np.isfinite(x)):
            raise ValueError("point must be finite")
        return x


def _check_weights(w: np.ndarray) -> None:
    bad = ~(np.isfinite(w) & (w > 0.0))
    if bad.any():
        raise ValueError(f"component weight must be positive and finite, got {float(w[bad][0])}")


# -- module-level operations ------------------------------------------------


def tilt(mixture: Mixture, c: np.ndarray) -> Mixture:
    """The normalized mixture proportional to exp(c.x) Phi(x).

    Component i keeps its covariance, moves its mean to mu_i + Sigma_i c and
    picks up the log-weight increment c.mu_i + c.Sigma_i c / 2; weights are
    renormalized in the log domain.  The dropped positive global factor does
    not move critical points.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.shape != (mixture.dim,):
        raise ValueError(f"tilt vector of shape {c.shape} does not match dimension {mixture.dim}")
    if not np.all(np.isfinite(c)):
        raise ValueError("tilt vector must be finite")
    sigma_c = np.einsum("kij,j->ki", mixture.covariances, c)
    log_w = mixture.log_weights + mixture.means @ c + 0.5 * (c @ sigma_c.T)
    log_w = log_w - logsumexp(log_w)
    return Mixture(np.exp(log_w), mixture.means + sigma_c, mixture.covariances)


def affine_rank(means: Sequence[np.ndarray] | np.ndarray) -> int:
    """Dimension of the affine hull of the given points.

    Singular values of the matrix with rows mu_i - mu_1 are thresholded at
    AFFINE_RANK_TOL times the largest one; coincident points give rank 0.
    """
    m = np.atleast_2d(np.asarray(means, dtype=float))
    if m.shape[0] == 0:
        raise ValueError("need at least one mean")
    diff = m[1:] - m[0]
    if diff.size == 0:
        return 0
    s = np.linalg.svd(diff, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > AFFINE_RANK_TOL * s[0]))


@dataclass(frozen=True)
class AffineMap:
    """The whitening-and-rotation change of variables T(x) = O B (x - a).

    `whiten` is the symmetric inverse square root of the shared covariance,
    `orthogonal` carries the whitened mean differences onto the leading
    coordinates, `base` is the first component mean.
    """

    orthogonal: np.ndarray
    whiten: np.ndarray
    base: np.ndarray

    def __post_init__(self) -> None:
        o = _readonly(self.orthogonal)
        b = _readonly(self.whiten)
        a = _readonly(np.atleast_1d(self.base))
        d = a.shape[0]
        if o.shape != (d, d) or b.shape != (d, d):
            raise ValueError("inconsistent affine map shapes")
        if np.abs(o.T @ o - np.eye(d)).max() > 1e-10:
            raise ValueError("orthogonal factor fails O^T O = I at 1e-10")
        object.__setattr__(self, "orthogonal", o)
        object.__setattr__(self, "whiten", b)
        object.__setattr__(self, "base", a)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.orthogonal @ (self.whiten @ (x - self.base))

    def inverse(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return self.base + np.linalg.solve(self.whiten, self.orthogonal.T @ z)


def reduce_homoscedastic(mixture: Mixture) -> tuple[AffineMap, Mixture, float]:
    """Reduce a homoscedastic mixture onto the affine hull of its means.

    Returns (map, reduced, constant): `map` is T(x) = O B (x - mu_1) with
    B the inverse square root of the shared covariance, `reduced` is the
    r-dimensional unit-covariance mixture over the leading r coordinates of
    the mapped means, and `constant` is (2 pi)^{-(d-r)/2}, so that the
    pushforward density factors as

        Phi(T^{-1}(u, v)) * det(Sigma)^{1/2} = constant * exp(-|v|^2/2) * G(u).

    Raises if the input is heteroscedastic or all means coincide (r = 0); a
    single-Gaussian caller should handle that case directly.
    """
    if not mixture.is_homoscedastic():
        raise ValueError("mixture is not homoscedastic at the configured tolerance")
    d = mixture.dim
    base = mixture.means[0]
    eigval, eigvec = np.linalg.eigh(mixture.covariances[0])
    whiten = (eigvec / np.sqrt(eigval)) @ eigvec.T
    rows = (mixture.means - base) @ whiten       # row i = B (mu_i - a), B symmetric
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    if s[0] == 0.0:
        raise ValueError("all means coincide (affine rank 0); reduce has nothing to keep")
    r = int(np.count_nonzero(s > AFFINE_RANK_TOL * s[0]))
    amap = AffineMap(orthogonal=vt, whiten=whiten, base=base)
    reduced_means = rows @ vt.T[:, :r]
    reduced = Mixture.from_arrays(
        weights=mixture.weights,
        means=reduced_means,
        shared_covariance=np.eye(r),
    )
    constant = float((2.0 * np.pi) ** (-0.5 * (d - r)))
    return amap, reduced, constant


# -- mixture file format ------------------------------------------------------


def mixture_from_dict(doc: dict) -> Mixture:
    """Parse the mixture document {"weights", "means", "covariances" | "shared_covariance"}."""
    if not isinstance(doc, dict):
        raise MixtureFormatError("mixture document must be a JSON object")
    for key in ("weights", "means"):
        if key not in doc:
            raise MixtureFormatError(f"missing field '{key}'")
    has_per = "covariances" in doc
    has_shared = "shared_covariance" in doc
    if has_per == has_shared:
        raise MixtureFormatError("need exactly one of 'covariances' / 'shared_covariance'")
    try:
        return Mixture.from_arrays(
            weights=doc["weights"],
            means=doc["means"],
            covariances=doc.get("covariances"),
            shared_covariance=doc.get("shared_covariance"),
        )
    except MixtureFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise MixtureFormatError(f"invalid mixture parameters: {exc}") from exc


def mixture_to_dict(mixture: Mixture) -> dict:
    """Mixture document as plain Python lists; uses 'shared_covariance' when exact."""
    doc: dict = {
        "weights": mixture.weights.tolist(),
        "means": mixture.means.tolist(),
    }
    covs = mixture.covariances
    if np.all(covs == covs[0]):
        doc["shared_covariance"] = covs[0].tolist()
    else:
        doc["covariances"] = covs.tolist()
    return doc


def _render_json(value, indent: int = 0) -> str:
    # Hand-rolled emitter so that every float carries 17 significant digits
    # (full double round-trip) regardless of json module repr choices.
    pad = " " * indent
    if isinstance(value, dict):
        items = ",\n".join(
            f'{pad}  "{k}": {_render_json(v, indent + 2).lstrip()}' for k, v in value.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(value, list):
        if value and isinstance(value[0], (list, dict)):
            items = ",\n".join(_render_json(v, indent + 2) for v in value)
            return f"{pad}[\n{items}\n{pad}]"
        return pad + "[" + ", ".join(_render_json(v).lstrip() for v in value) + "]"
    if isinstance(value, bool):
        return pad + ("true" if value else "false")
    if isinstance(value, float):
        return pad + format(value, ".17g")
    if isinstance(value, int):
        return pad + str(value)
    return pad + json.dumps(value)


def write_mixture(mixture: Mixture, path) -> None:
    """Write the mixture file with 17-significant-digit decimals."""
    text = _render_json(mixture_to_dict(mixture)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_mixture(path) -> Mixture:
    """Read a mixture file; weights are normalized on load."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MixtureFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    return mixture_from_dict(doc)
