"""Bayesian weight posteriors for the per-objective ranker models.

Continuous objectives get a conjugate Gaussian linear model, updated in
blocks of ``BLOCK_ROWS`` impressions by vector-measurement Kalman steps in
covariance form: no precision matrix is ever inverted. Binary objectives get
a probit model with a factorized Gaussian posterior updated by
assumed-density filtering, one impression at a time, as each step depends on
the one before. Either kind validates the posterior a batch of impressions
ends at once, not once per block or row.

Reads work on stacks: weight draws and predictions take any leading shape
over the feature axis. A stacked ``np.matmul`` runs one gemv or dot per
slice, so each result is bitwise the per-vector ``L @ z`` and ``w @ x``.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import DomainError, InvariantViolation

COV_SYMMETRY_TOL = 1e-12
BLOCK_ROWS = 32  # rows per factored linear update
PROBIT_SLAB = 1.0  # probit link noise scale, fixed at 1


class ModelKind(enum.Enum):
    LINEAR = "linear"
    PROBIT = "probit"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GaussianPosterior:
    """Gaussian belief over a weight vector.

    `cov` is either a full (p, p) covariance or, in diagonal mode, a (p,)
    vector of per-coordinate variances. `factor`, its Cholesky factor (standard
    deviations in diagonal mode), is kept from validation, never compared.
    """

    mean: np.ndarray
    cov: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mean = _readonly(self.mean)
        cov = _readonly(self.cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if mean.ndim != 1:
            raise DomainError("posterior mean must be a vector")
        p = mean.shape[0]
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise DomainError("posterior parameters must be finite")
        if cov.ndim == 1:
            if cov.shape != (p,):
                raise DomainError("diagonal covariance length != mean length")
            if (cov <= 0.0).any():
                raise InvariantViolation("diagonal covariance entries must be > 0")
            factor = np.sqrt(cov)
        elif cov.ndim == 2:
            if cov.shape != (p, p):
                raise DomainError("covariance shape does not match mean")
            if (cov - cov.T).max() > COV_SYMMETRY_TOL:  # antisymmetric: max is max |.|
                raise InvariantViolation("covariance not symmetric")
            try:
                factor = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError as exc:
                raise InvariantViolation("covariance not positive definite") from exc
        else:
            raise DomainError("covariance must be 1-D or 2-D")
        object.__setattr__(self, "factor", _readonly(factor))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def diagonal(self) -> bool:
        return self.cov.ndim == 1

    def full_cov(self) -> np.ndarray:
        return np.diag(self.cov) if self.diagonal else self.cov

    def weights(self, z: np.ndarray) -> np.ndarray:
        """The weight vectors standard normal draws `z`, shape ``(..., p)``,
        map to: mean + L z, per draw."""
        if self.diagonal:
            return self.mean + self.factor * z
        return self.mean + np.matmul(self.factor, z[..., None])[..., 0]


def gaussian_prior(dim: int, variance: float = 1.0, diagonal: bool = False) -> GaussianPosterior:
    """Zero-mean isotropic prior N(0, variance * I)."""
    if dim < 1:
        raise DomainError("prior dimension must be >= 1")
    if variance <= 0.0:
        raise DomainError("prior variance must be > 0")
    mean = np.zeros(dim)
    cov = np.full(dim, variance) if diagonal else variance * np.eye(dim)
    return GaussianPosterior(mean=mean, cov=cov)


@dataclass(frozen=True)
class ObjectiveModel:
    """One objective's predictive model: a posterior plus its feature schema."""

    kind: ModelKind
    posterior: GaussianPosterior
    feature_schema: tuple[str, ...]
    noise_variance: float | None = None  # Linear only

    def __post_init__(self) -> None:
        if len(self.feature_schema) != self.posterior.dim:
            raise DomainError("feature schema length != posterior dimension")
        if self.kind is ModelKind.LINEAR:
            if self.noise_variance is None or self.noise_variance <= 0.0:
                raise DomainError("linear model requires noise_variance > 0")
        elif self.noise_variance is not None:
            raise DomainError("probit model takes no noise_variance")
        if self.kind is ModelKind.PROBIT and not self.posterior.diagonal:
            raise DomainError("probit model requires a diagonal posterior")


def linear_model(
    feature_schema: tuple[str, ...],
    prior_variance: float = 1.0,
    noise_variance: float = 1.0,
) -> ObjectiveModel:
    return ObjectiveModel(
        kind=ModelKind.LINEAR,
        posterior=gaussian_prior(len(feature_schema), prior_variance),
        feature_schema=feature_schema,
        noise_variance=noise_variance,
    )


def probit_model(
    feature_schema: tuple[str, ...], prior_variance: float = 1.0
) -> ObjectiveModel:
    return ObjectiveModel(
        kind=ModelKind.PROBIT,
        posterior=gaussian_prior(len(feature_schema), prior_variance, diagonal=True),
        feature_schema=feature_schema,
    )


def _check_rows(model: ObjectiveModel, X: np.ndarray, n_targets: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.posterior.dim:
        raise DomainError(
            f"feature rows shape {X.shape} does not match schema length "
            f"{model.posterior.dim}"
        )
    if len(X) != n_targets:
        raise DomainError(f"{len(X)} feature rows for {n_targets} targets")
    if not np.isfinite(X).all():
        raise DomainError("non-finite feature vector")
    return X


def blr_update_rows(model: ObjectiveModel, X: np.ndarray, y: Sequence[float]) -> ObjectiveModel:
    """Conjugate Gaussian update for the rows of `X` against targets `y`.

    Rows go in blocks of up to BLOCK_ROWS, each a Kalman step in covariance
    form: with A = Xb S, the innovation matrix A Xb^T + sigma^2 I is
    Cholesky-factored as L L^T, and W = L^-1 [A | yb - Xb m] moves the mean
    by W_A^T W_r and the covariance by -W_A^T W_A. Inputs are checked up
    front, a block whose innovation matrix does not factor raises, and the
    final posterior is validated once.
    """
    if model.kind is not ModelKind.LINEAR:
        raise DomainError("blr_update requires a Linear model")
    y = np.asarray(y, dtype=float)
    X = _check_rows(model, X, len(y))
    if not np.isfinite(y).all():
        raise DomainError("non-finite target")
    if not len(y):
        return model
    mean, cov = model.posterior.mean, model.posterior.full_cov()
    p = len(mean)
    for start in range(0, len(y), BLOCK_ROWS):
        Xb, yb = X[start : start + BLOCK_ROWS], y[start : start + BLOCK_ROWS]
        AR = np.empty((len(yb), p + 1))  # [A | yb - Xb m]
        A = np.matmul(Xb, cov, out=AR[:, :p])
        AR[:, p] = yb - Xb @ mean
        innovation = A @ Xb.T
        diagonal = innovation.reshape(-1)[:: len(yb) + 1]
        diagonal += model.noise_variance
        try:
            L = np.linalg.cholesky(innovation)
        except np.linalg.LinAlgError as exc:
            rows = f"rows {start}..{start + len(yb) - 1}"
            raise InvariantViolation(f"innovation matrix not positive definite over {rows}") from exc
        W = np.linalg.solve(L, AR)
        mean = mean + W[:, :p].T @ W[:, p]
        cov = cov - W[:, :p].T @ W[:, :p]
        cov = (cov + cov.T) / 2.0  # keep symmetry exact under float drift
    return replace(model, posterior=GaussianPosterior(mean=mean, cov=cov))


def blr_update(model: ObjectiveModel, x: np.ndarray, y: float) -> ObjectiveModel:
    """Conjugate Gaussian update for one (x, y) observation."""
    return blr_update_rows(model, np.asarray(x, dtype=float)[None], [y])


def probit_update_rows(
    model: ObjectiveModel, X: np.ndarray, labels: Sequence[int]
) -> ObjectiveModel:
    """Assumed-density-filtering steps for the rows of `X` against binary
    `labels`, in row order.

    Each step moment-matches the factorized Gaussian against the probit
    likelihood using the standard truncated-Gaussian mean and variance
    corrections. Inputs are checked up front and the final posterior is
    validated once.
    """
    if model.kind is not ModelKind.PROBIT:
        raise DomainError("probit_update requires a Probit model")
    for label in labels:
        if label not in (0, 1):
            raise DomainError(f"label must be 0 or 1, got {label!r}")
    X = _check_rows(model, X, len(labels))
    if not len(labels):
        return model
    # scipy.special is imported here, not at module load, to keep it out of
    # CLI commands that never score a probit model
    from scipy.special import log_ndtr

    mean, v = model.posterior.mean, model.posterior.cov
    for x, x2, label in zip(X, X**2, labels):
        t = 2 * label - 1
        s2 = PROBIT_SLAB**2 + float(v @ x2)
        s = math.sqrt(s2)
        z = t * float(mean @ x) / s
        # phi(z)/Phi(z) in log space; stable for z far below 0
        ratio = math.exp(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - log_ndtr(z))
        w = ratio * (ratio + z)
        mean = mean + (t * ratio / s) * (v * x)
        v = v * (1.0 - w * (v * x2) / s2)
    return replace(model, posterior=GaussianPosterior(mean=mean, cov=v))


def probit_update(model: ObjectiveModel, x: np.ndarray, label: int) -> ObjectiveModel:
    """Assumed-density-filtering step for one binary observation."""
    return probit_update_rows(model, np.asarray(x, dtype=float)[None], [label])


def sample_weights(post: GaussianPosterior, rng: np.random.Generator) -> np.ndarray:
    """Draw one weight vector from the posterior."""
    return post.weights(rng.standard_normal(post.dim))


def thompson_sample_predict(
    model: ObjectiveModel, x: np.ndarray, rng: np.random.Generator
) -> float:
    """Draw w from the posterior and predict: w.x, or Phi(w.x) for probit."""
    x = _check_rows(model, np.asarray(x, dtype=float)[None], 1)[0]
    return float(predict_with(model, sample_weights(model.posterior, rng), x))


def predict_with(model: ObjectiveModel, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Predict checked feature rows `x` with weight rows `w`, both ``(..., p)``:
    w.x, or Phi(w.x) for probit, per row."""
    score = np.matmul(w[..., None, :], x[..., :, None])[..., 0, 0]
    if model.kind is ModelKind.LINEAR:
        return score
    from scipy.special import ndtr

    return ndtr(score)
