"""Three-stage causal estimation of quality-metric effects on long-horizon revenue.

Stage 0 removes crossed query-group and zip fixed effects by iterative
de-averaging, its passes run on the query-group × zip cell sums. Stage 1
residualizes the de-averaged target, quality surrogates, and short-term
metrics on customer history with cross-fitted linear models, so no row's
residual comes from a model that saw it. Stage 2 regresses the target residual
on the surrogate and short-term residuals; the surrogate coefficients are the
causal effects the downstream-value score aggregates.

Every least-squares fit (the stage-1 predictors, the stage-2 OLS and the
history coefficients) solves the normal equations through a Cholesky factor
of the column-equilibrated Gram matrix (`linear.gram_cholesky`). The rank
rule: a stage-1 predictor whose standardized design is rank deficient falls
back to a ridge solve and records it; `ols_fit` raises `EstimationError`.
Stage 1 puts the training rows in the fold permutation's order once, so each
fold is a slice and the rows of the others are one or two slices, and
predicts through ``(X − μ) @ (coef / sd)`` without a standardized copy.

Under ``stage2="lasso"`` there is no standard error: ``stderr_beta`` is None.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import DomainError, EstimationError, WpxError
from ..metrics import RegionWeights
from ..rng import stream
from .deaverage import DeaverageDiagnostics, deaverage
from .linear import cholesky_solve, gram_cholesky, lasso_cv_path, ols_fit
from .panel import PanelDataset, split_train_test

RIDGE_FALLBACK_PENALTY = 1e-6  # times n, applied only when plain LS is rank deficient
MIN_ROWS_FLOOR = 500
MIN_ROWS_PER_COEF = 10
#: de-averaging must leave every group mean below this, or the fixed effects stay in
DEAVERAGE_TOL = 1e-6


@dataclass(frozen=True)
class DmlConfig:
    """Tunable knobs of the estimation pipeline."""

    deaverage_iterations: int = 20
    train_fraction: float = 0.90
    crossfit_folds: int = 2
    stage2: str = "ols"  # "ols" or "lasso"
    lasso_grid_points: int = 20
    lasso_cv_folds: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.deaverage_iterations < 1:
            raise DomainError("deaverage_iterations must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise DomainError("train_fraction must be in (0, 1)")
        if self.crossfit_folds < 2:
            raise DomainError("crossfit_folds must be >= 2")
        if self.stage2 not in ("ols", "lasso"):
            raise DomainError(f"stage2 must be 'ols' or 'lasso', got {self.stage2!r}")


@dataclass(frozen=True)
class DmlEstimate:
    """Fitted second-stage coefficients and their bookkeeping."""

    beta: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray
    stderr_beta: np.ndarray | None  # None under a LASSO stage 2
    lambda_selected: float | None
    diagnostics: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class DvwpxModel:
    """Downstream-value model: causal surrogate effects plus their schema."""

    estimate: DmlEstimate
    surrogate_schema: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.surrogate_schema) != len(self.estimate.beta):
            raise DomainError("surrogate schema length != number of beta coefficients")


class LinearPredictor:
    """Least-squares predictor on standardized features with an intercept.

    Falls back to a lightly ridge-regularized solve when the standardized
    design is rank deficient, and records that it did.
    """

    def __init__(self) -> None:
        self.mu: np.ndarray | None = None
        self.sd: np.ndarray | None = None
        self.coef: np.ndarray | None = None
        self.intercept: np.ndarray | None = None
        self.used_ridge_fallback = False

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "LinearPredictor":
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        n, p = X.shape
        self.mu = X.mean(axis=0)
        ybar = Y.mean(axis=0)
        centered = X - self.mu
        gram = centered.T @ centered
        # Xcᵀ(Y − ȳ) without centering Y: the columns of Xc sum to about 0
        cross = centered.T @ Y - np.outer(centered.sum(axis=0), ybar)
        sd = np.sqrt(np.diag(gram) / n)
        sd[sd == 0.0] = 1.0
        self.sd = sd
        factored = gram_cholesky(gram, n)
        if factored is None:
            # the standardized design's Gram and cross products
            lam = RIDGE_FALLBACK_PENALTY * n
            standard = gram / np.outer(sd, sd) + lam * np.eye(p)
            self.coef = np.linalg.solve(standard, cross / sd[:, None])
            self.used_ridge_fallback = True
        else:
            self.coef = cholesky_solve(*factored, cross) * sd[:, None]
        self.intercept = ybar
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        assert self.coef is not None and self.mu is not None
        centered = np.asarray(X, dtype=float) - self.mu
        return self.intercept + centered @ (self.coef / self.sd[:, None])


@dataclass(frozen=True)
class CrossfitResult:
    """Out-of-fold residuals with the bookkeeping to audit fold hygiene."""

    residuals: np.ndarray  # (n, n_outcomes)
    fold_of_row: np.ndarray  # fold whose model produced each row's residual
    model_train_rows: tuple[np.ndarray, ...]  # rows each fold model was fit on
    fold_rmse: np.ndarray  # (n_outcomes, folds)
    rank_deficient_folds: int


def crossfit_residualize(
    outcomes: np.ndarray,
    features: np.ndarray,
    folds: int,
    seed: int,
) -> CrossfitResult:
    """Residualize every outcome column on the features with cross-fitting.

    Row i's residual comes from the linear model fit on the folds that do not
    contain i. Fold assignment is a seeded permutation split.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.ndim == 1:
        outcomes = outcomes[:, None]
    features = np.asarray(features, dtype=float)
    n, q = outcomes.shape
    if folds < 2:
        raise DomainError(f"folds must be >= 2, got {folds}")
    if n < 2 * folds:
        raise EstimationError(f"need at least {2 * folds} rows for {folds}-fold cross-fitting")

    perm = stream(seed, "crossfit_folds").permutation(n)
    chunks = np.array_split(perm, folds)
    fold_of = np.empty(n, dtype=np.intp)
    for f, chunk in enumerate(chunks):
        fold_of[chunk] = f
    # rows in permutation order: fold f is rows a:b, the others the rest
    bounds = np.cumsum([0, *map(len, chunks)])
    features = np.take(features, perm, axis=0)
    outcomes = np.take(outcomes, perm, axis=0)

    residuals = np.empty((n, q))
    fold_rmse = np.empty((q, folds))
    train_rows: list[np.ndarray] = []
    rank_deficient = 0
    for f, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        train_rows.append(_other_rows(perm, a, b))
        model = LinearPredictor().fit(_other_rows(features, a, b), _other_rows(outcomes, a, b))
        if model.used_ridge_fallback:
            rank_deficient += 1
        res = outcomes[a:b] - model.predict(features[a:b])
        residuals[chunks[f]] = res
        fold_rmse[:, f] = np.sqrt(np.mean(res**2, axis=0))
    return CrossfitResult(
        residuals=residuals,
        fold_of_row=fold_of,
        model_train_rows=tuple(train_rows),
        fold_rmse=fold_rmse,
        rank_deficient_folds=rank_deficient,
    )


def _other_rows(rows: np.ndarray, a: int, b: int) -> np.ndarray:
    """``rows`` without rows a:b, those after b first: a view unless a:b is inside."""
    if a == 0:
        return rows[b:]
    if b == len(rows):
        return rows[:a]
    return np.concatenate((rows[b:], rows[:a]))


def _validate_keys(dataset: PanelDataset) -> None:
    for name, arr in (("query_group", dataset.query_group), ("zip", dataset.zip_code)):
        # `== ""` is the empty-string test for both object and `<U` key arrays
        if (np.asarray(arr) == "").any():
            raise DomainError(f"empty {name} key in dataset")


def _deaveraged_block(
    dataset: PanelDataset, iterations: int
) -> tuple[np.ndarray, DeaverageDiagnostics]:
    """Demean target, surrogates, short-term metrics, and history jointly, in
    one (n, 1 + s + j + k) block with the columns in that order."""
    blocks = [dataset.drev[:, None], dataset.x, dataset.m, dataset.h]
    # column-major, so each column deaverage reads is contiguous
    stacked = np.empty((dataset.n_rows, sum(b.shape[1] for b in blocks)), order="F")
    np.concatenate(blocks, axis=1, out=stacked)
    return deaverage(stacked, [dataset.query_group, dataset.zip_code], iterations)


@contextmanager
def _stage(name: str):
    """Re-raise anything escaping the block with the failing stage named."""
    try:
        yield
    except WpxError as exc:
        if getattr(exc, "staged", False):
            raise
        wrapped = type(exc)(f"stage {name}: {exc}")
        wrapped.staged = True
        raise wrapped from exc
    except Exception as exc:
        wrapped = EstimationError(f"stage {name}: {exc}")
        wrapped.staged = True
        raise wrapped from exc


def estimate_dvwpx(dataset: PanelDataset, config: DmlConfig) -> DvwpxModel:
    """Run the full pipeline on a panel and return the fitted model.

    Errors at any stage propagate with the stage named in the message.
    """
    s = len(dataset.x_names)
    j = len(dataset.m_names)
    k = len(dataset.h_names)
    min_rows = max(MIN_ROWS_FLOOR, MIN_ROWS_PER_COEF * (s + j + k))
    with _stage("validate"):
        if dataset.n_rows < min_rows:
            raise EstimationError(
                f"dataset has {dataset.n_rows} rows, need at least {min_rows}"
            )
        _validate_keys(dataset)

    with _stage("deaverage"):
        block, dd = _deaveraged_block(dataset, config.deaverage_iterations)
        worst = float(np.max(dd.max_group_means))  # unlike max(), keeps a NaN
        if not worst < DEAVERAGE_TOL:
            raise EstimationError(
                f"a group mean of {worst:.3g} is left after "
                f"{dd.iterations_run} iterations, above {DEAVERAGE_TOL:g}; "
                "raise deaverage_iterations"
            )

    with _stage("split"):
        train, test = split_train_test(dataset.n_rows, config.train_fraction, config.seed)
        # the split rows are all later stages read: the whole block goes
        train_block = np.take(block, train, axis=0)
        test_block = np.take(block, test, axis=0)
        del block

    with _stage("stage1"):
        # one copy of the training rows serves the cross-fit and the full-train
        # fit: the stage-1 outcomes (target, surrogates, short-term) and history
        outcomes_train, h_train = train_block[:, : 1 + s + j], train_block[:, 1 + s + j :]
        cf = crossfit_residualize(outcomes_train, h_train, config.crossfit_folds, config.seed)
        # separate full-train predictor so the held-out fold can be residualized too
        full_model = LinearPredictor().fit(h_train, outcomes_train)

    with _stage("stage2"):
        ry = cf.residuals[:, 0]
        rxm = cf.residuals[:, 1:]
        lambda_selected: float | None = None
        stderr_beta: np.ndarray | None = None
        if config.stage2 == "ols":
            design = np.column_stack([np.ones(len(ry)), rxm])
            coef_all, stderr_all = ols_fit(design, ry)
            coef = coef_all[1:]
            stderr_beta = stderr_all[1 : 1 + s]
        else:
            # unit-RMS columns, so the penalty grid is not set by whichever
            # residual has the largest scale (short-term revenue's, by far)
            rms = np.sqrt(np.mean(rxm**2, axis=0))
            rms[rms == 0.0] = 1.0
            grid, _, lam_star, coef = lasso_cv_path(
                rxm / rms, ry, config.lasso_grid_points, config.lasso_cv_folds, config.seed
            )
            coef = coef / rms
            lambda_selected = lam_star
        beta = coef[:s]
        theta = coef[s : s + j]

    with _stage("gamma"):
        leftover = outcomes_train[:, 0] - outcomes_train[:, 1:] @ coef
        hdesign = np.column_stack([np.ones(len(train)), h_train])
        gamma_all, _ = ols_fit(hdesign, leftover)
        gamma = gamma_all[1:]

    with _stage("evaluate"):
        test_out = test_block[:, : 1 + s + j] - full_model.predict(test_block[:, 1 + s + j :])
        pred = test_out[:, 1:] @ coef
        test_rmse = float(np.sqrt(np.mean((test_out[:, 0] - pred) ** 2)))

    diagnostics: dict[str, Any] = {
        "deaverage_max_group_mean_query": dd.max_group_means[0],
        "deaverage_max_group_mean_zip": dd.max_group_means[1],
        "deaverage_iterations_run": dd.iterations_run,
        "deaverage_converged": dd.converged,
        "stage1_fold_rmse": {
            name: [float(v) for v in cf.fold_rmse[i]]
            for i, name in enumerate(
                ["drev", *dataset.x_names, *dataset.m_names]
            )
        },
        "stage1_rank_deficient_folds": cf.rank_deficient_folds,
        # near 0: history alone predicts that surrogate, so its beta is not identified
        "stage1_residual_variance": {
            name: float(np.var(cf.residuals[:, 1 + i])) for i, name in enumerate(dataset.x_names)
        },
        "test_rmse": test_rmse,
        "n_train": int(len(train)),
        "n_test": int(len(test)),
        "m_schema": list(dataset.m_names),
        "h_schema": list(dataset.h_names),
    }
    estimate = DmlEstimate(
        beta=np.asarray(beta, dtype=float),
        theta=np.asarray(theta, dtype=float),
        gamma=np.asarray(gamma, dtype=float),
        stderr_beta=stderr_beta,
        lambda_selected=lambda_selected,
        diagnostics=diagnostics,
    )
    return DvwpxModel(estimate=estimate, surrogate_schema=dataset.x_names)


def naive_ols(dataset: PanelDataset) -> tuple[np.ndarray, np.ndarray]:
    """OLS of the target on surrogates and short-term metrics only.

    Skips de-averaging and history controls entirely; exists so the bias the
    full pipeline removes can be measured. Returns (beta, theta).
    """
    design = np.column_stack([np.ones(dataset.n_rows), dataset.x, dataset.m])
    coef, _ = ols_fit(design, dataset.drev)
    s = len(dataset.x_names)
    return coef[1 : 1 + s], coef[1 + s :]


def derive_region_weights(
    model: DvwpxModel, region_surrogate_names: tuple[str, str, str]
) -> RegionWeights:
    """Turn the three region-quality effects into normalized region weights.

    Negative effects clamp to zero before normalizing; if nothing remains
    positive there is no usable weighting and we refuse to produce one.
    """
    schema = list(model.surrogate_schema)
    try:
        idx = [schema.index(name) for name in region_surrogate_names]
    except ValueError as exc:
        raise DomainError(f"unknown region surrogate: {exc}") from exc
    effects = np.maximum(model.estimate.beta[idx], 0.0)
    total = float(effects.sum())
    if total <= 0.0:
        raise EstimationError("no positive region effect; cannot derive weights")
    w = effects / total
    return RegionWeights(float(w[0]), float(w[1]), float(w[2]))
