"""Bayesian weight posteriors for the per-objective ranker models.

Continuous objectives get a conjugate Gaussian linear model updated by
rank-one Sherman-Morrison steps. Binary objectives get a probit model with a
factorized Gaussian posterior updated by assumed-density filtering, so both
kinds train one impression at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import log_ndtr, ndtr

from ..errors import DomainError, InvariantViolation

COV_SYMMETRY_TOL = 1e-12
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
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise DomainError("posterior parameters must be finite")
        if cov.ndim == 1:
            if cov.shape != (p,):
                raise DomainError("diagonal covariance length != mean length")
            if np.any(cov <= 0.0):
                raise InvariantViolation("diagonal covariance entries must be > 0")
            factor = np.sqrt(cov)
        elif cov.ndim == 2:
            if cov.shape != (p, p):
                raise DomainError("covariance shape does not match mean")
            if np.max(np.abs(cov - cov.T)) > COV_SYMMETRY_TOL:
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

    def variance_vector(self) -> np.ndarray:
        return self.cov if self.diagonal else np.diag(self.cov)

    def full_cov(self) -> np.ndarray:
        return np.diag(self.cov) if self.diagonal else self.cov

    def weights(self, z: np.ndarray) -> np.ndarray:
        """The weight vector a standard normal draw `z` maps to: mean + L z."""
        return self.mean + (self.factor * z if self.diagonal else self.factor @ z)


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


def _check_features(model: ObjectiveModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.posterior.dim,):
        raise DomainError(
            f"feature vector shape {x.shape} does not match schema length "
            f"{model.posterior.dim}"
        )
    if not np.all(np.isfinite(x)):
        raise DomainError("non-finite feature vector")
    return x


def blr_update(model: ObjectiveModel, x: np.ndarray, y: float) -> ObjectiveModel:
    """Conjugate Gaussian update for one (x, y) observation.

    Rank-one form of precision += x x^T / sigma^2, written with
    Sherman-Morrison so no matrix inverse is ever taken.
    """
    if model.kind is not ModelKind.LINEAR:
        raise DomainError("blr_update requires a Linear model")
    x = _check_features(model, x)
    y = float(y)
    if not math.isfinite(y):
        raise DomainError("non-finite target")
    post = model.posterior
    sigma = post.full_cov()
    sx = sigma @ x
    denom = model.noise_variance + float(x @ sx)
    mean = post.mean + sx * ((y - float(x @ post.mean)) / denom)
    cov = sigma - np.outer(sx, sx) / denom
    cov = (cov + cov.T) / 2.0  # keep symmetry exact under float drift
    return replace(model, posterior=GaussianPosterior(mean=mean, cov=cov))


def probit_update(model: ObjectiveModel, x: np.ndarray, label: int) -> ObjectiveModel:
    """Assumed-density-filtering step for one binary observation.

    Moment-matches the factorized Gaussian against the probit likelihood
    using the standard truncated-Gaussian mean and variance corrections.
    """
    if model.kind is not ModelKind.PROBIT:
        raise DomainError("probit_update requires a Probit model")
    x = _check_features(model, x)
    if label not in (0, 1):
        raise DomainError(f"label must be 0 or 1, got {label!r}")
    t = 2 * label - 1
    post = model.posterior
    v = post.cov
    s2 = PROBIT_SLAB**2 + float(v @ x**2)
    s = math.sqrt(s2)
    z = t * float(post.mean @ x) / s
    # phi(z)/Phi(z) in log space; stable for z far below 0
    ratio = math.exp(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - log_ndtr(z))
    w = ratio * (ratio + z)
    mean = post.mean + (t * ratio / s) * (v * x)
    var = v * (1.0 - w * (v * x**2) / s2)
    return replace(model, posterior=GaussianPosterior(mean=mean, cov=var))


def sample_weights(post: GaussianPosterior, rng: np.random.Generator) -> np.ndarray:
    """Draw one weight vector from the posterior."""
    return post.weights(rng.standard_normal(post.dim))


def predict_mean(model: ObjectiveModel, x: np.ndarray) -> float:
    """Posterior-mean prediction: the Bayes point estimate for this model."""
    x = _check_features(model, x)
    score = float(model.posterior.mean @ x)
    if model.kind is ModelKind.LINEAR:
        return score
    s2 = PROBIT_SLAB**2 + float(model.posterior.cov @ x**2)
    return float(ndtr(score / math.sqrt(s2)))


def thompson_sample_predict(
    model: ObjectiveModel, x: np.ndarray, rng: np.random.Generator
) -> float:
    """Draw w from the posterior and predict: w.x, or Phi(w.x) for probit."""
    x = _check_features(model, x)
    return predict_with(model, sample_weights(model.posterior, rng), x)


def predict_with(model: ObjectiveModel, w: np.ndarray, x: np.ndarray) -> float:
    """Predict checked features `x` with weights `w`: w.x, or Phi(w.x) for probit."""
    score = float(w @ x)
    return score if model.kind is ModelKind.LINEAR else float(ndtr(score))
