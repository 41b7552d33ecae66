"""Three-stage causal estimation of quality-metric effects on long-horizon revenue.

Stage 0 removes crossed query-group and zip fixed effects by iterative
de-averaging. Stage 1 residualizes the de-averaged target, quality surrogates,
and short-term metrics on customer history with cross-fitted linear models, so
no row's residual comes from a model that saw it. Stage 2 regresses the target
residual on the surrogate and short-term residuals; the surrogate coefficients
are the causal effects the downstream-value score aggregates.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import DomainError, EstimationError, WpxError
from ..metrics import RegionWeights
from ..rng import stream
from .deaverage import deaverage
from .linear import lasso_cv_path, ols_fit
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
    stderr_beta: np.ndarray
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
        sd = X.std(axis=0)
        sd[sd == 0.0] = 1.0
        self.sd = sd
        Xs = (X - self.mu) / sd
        ybar = Y.mean(axis=0)
        coef, _, rank, _ = np.linalg.lstsq(Xs, Y - ybar, rcond=None)
        if rank < p:
            lam = RIDGE_FALLBACK_PENALTY * n
            gram = Xs.T @ Xs + lam * np.eye(p)
            coef = np.linalg.solve(gram, Xs.T @ (Y - ybar))
            self.used_ridge_fallback = True
        self.coef = coef
        self.intercept = ybar
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        assert self.coef is not None and self.mu is not None
        Xs = (np.asarray(X, dtype=float) - self.mu) / self.sd
        return self.intercept + Xs @ self.coef


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
    fold_of = np.empty(n, dtype=np.intp)
    for f, chunk in enumerate(np.array_split(perm, folds)):
        fold_of[chunk] = f

    residuals = np.empty((n, q))
    fold_rmse = np.empty((q, folds))
    train_rows: list[np.ndarray] = []
    rank_deficient = 0
    for f in range(folds):
        te = fold_of == f
        tr = ~te
        train_rows.append(np.flatnonzero(tr))
        model = LinearPredictor().fit(features[tr], outcomes[tr])
        if model.used_ridge_fallback:
            rank_deficient += 1
        res = outcomes[te] - model.predict(features[te])
        residuals[te] = res
        fold_rmse[:, f] = np.sqrt(np.mean(res**2, axis=0))
    return CrossfitResult(
        residuals=residuals,
        fold_of_row=fold_of,
        model_train_rows=tuple(train_rows),
        fold_rmse=fold_rmse,
        rank_deficient_folds=rank_deficient,
    )


def _validate_keys(dataset: PanelDataset) -> None:
    for name, arr in (("query_group", dataset.query_group), ("zip", dataset.zip_code)):
        # `== ""` is the empty-string test for both object and `<U` key arrays
        if (np.asarray(arr) == "").any():
            raise DomainError(f"empty {name} key in dataset")


def _deaveraged_blocks(
    dataset: PanelDataset, iterations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Any]:
    """Demean target, surrogates, short-term metrics, and history jointly."""
    stacked = np.column_stack([dataset.drev[:, None], dataset.x, dataset.m, dataset.h])
    out, diagnostics = deaverage(
        stacked, [dataset.query_group, dataset.zip_code], iterations
    )
    s = len(dataset.x_names)
    j = len(dataset.m_names)
    y = out[:, 0]
    x = out[:, 1 : 1 + s]
    m = out[:, 1 + s : 1 + s + j]
    h = out[:, 1 + s + j :]
    return y, x, m, h, diagnostics


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
        y_t, x_t, m_t, h_t, dd = _deaveraged_blocks(dataset, config.deaverage_iterations)
        worst = float(np.max(dd.max_group_means))  # unlike max(), keeps a NaN
        if not worst < DEAVERAGE_TOL:
            raise EstimationError(
                f"a group mean of {worst:.3g} is left after "
                f"{dd.iterations_run} iterations, above {DEAVERAGE_TOL:g}; "
                "raise deaverage_iterations"
            )

    with _stage("split"):
        train, test = split_train_test(dataset.n_rows, config.train_fraction, config.seed)

    with _stage("stage1"):
        outcomes = np.column_stack([y_t[:, None], x_t, m_t])
        cf = crossfit_residualize(
            outcomes[train], h_t[train], config.crossfit_folds, config.seed
        )
        # separate full-train predictor so the held-out fold can be residualized too
        full_model = LinearPredictor().fit(h_t[train], outcomes[train])

    with _stage("stage2"):
        ry = cf.residuals[:, 0]
        rxm = cf.residuals[:, 1:]
        lambda_selected: float | None = None
        if config.stage2 == "ols":
            design = np.column_stack([np.ones(len(ry)), rxm])
            coef_all, stderr_all = ols_fit(design, ry)
            coef = coef_all[1:]
            stderr = stderr_all[1:]
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
            # classical covariance evaluated at the lasso fit, for scale only
            resid = ry - rxm @ coef
            dof = max(len(ry) - rxm.shape[1], 1)
            sigma2 = float(np.add.reduce(resid * resid)) / dof
            cov = sigma2 * np.linalg.inv(rxm.T @ rxm + 1e-12 * np.eye(rxm.shape[1]))
            stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))
        beta = coef[:s]
        theta = coef[s : s + j]
        stderr_beta = stderr[:s]

    with _stage("gamma"):
        leftover = y_t[train] - x_t[train] @ beta - m_t[train] @ theta
        hdesign = np.column_stack([np.ones(len(train)), h_t[train]])
        gamma_all, _ = ols_fit(hdesign, leftover)
        gamma = gamma_all[1:]

    with _stage("evaluate"):
        test_out = outcomes[test] - full_model.predict(h_t[test])
        pred = test_out[:, 1:] @ coef
        test_rmse = float(np.sqrt(np.mean((test_out[:, 0] - pred) ** 2)))

    diagnostics: dict[str, Any] = {
        "deaverage_max_group_mean_query": dd.max_group_means[0],
        "deaverage_max_group_mean_zip": dd.max_group_means[1],
        "deaverage_iterations_run": dd.iterations_run,
        "stage1_fold_rmse": {
            name: [float(v) for v in cf.fold_rmse[i]]
            for i, name in enumerate(
                ["drev", *dataset.x_names, *dataset.m_names]
            )
        },
        "stage1_rank_deficient_folds": cf.rank_deficient_folds,
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
        stderr_beta=np.asarray(stderr_beta, dtype=float),
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
