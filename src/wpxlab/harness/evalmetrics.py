"""Offline model-quality metrics: RMSE for continuous objectives, AUC for
binary ones, and a per-device evaluation over a held-out impression log."""

from __future__ import annotations

import warnings

import numpy as np

from ..bandit.features import build_features
from ..bandit.posteriors import predict_mean
from ..bandit.ranker import (
    NON_ABANDONMENT,
    REVENUE,
    SATISFACTION,
    ImpressionRecord,
    RankerBundle,
)
from ..domain import Device
from ..errors import DomainError, EstimationError


def rmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Root mean squared error."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.ndim != 1:
        raise DomainError(
            f"shape mismatch: predictions {predictions.shape}, targets {targets.shape}"
        )
    if len(predictions) < 1:
        raise DomainError("rmse needs at least one pair")
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative.

    Mann-Whitney form with ties counted half, so all-tied scores give 0.5.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DomainError("scores and labels must be equal-length vectors")
    pos = labels == 1
    neg = labels == 0
    if not (pos.any() and neg.any()):
        raise EstimationError("auc needs at least one positive and one negative label")
    if pos.sum() + neg.sum() != len(labels):
        raise DomainError("labels must be 0 or 1")
    # imported here: scipy.stats dominates the package import and only auc needs it
    from scipy.stats import rankdata

    ranks = rankdata(scores)
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def offline_eval(
    bundle: RankerBundle, test_log: list[ImpressionRecord]
) -> dict[str, dict[str, float]]:
    """Score posterior-mean predictions per objective, split by device.

    Continuous objectives report RMSE, the binary one AUC. Device segments
    with no rows (or a single-class label segment) are omitted with a
    warning rather than failing the whole evaluation.
    """
    if not test_log:
        raise DomainError("test log is empty")
    out: dict[str, dict[str, float]] = {}
    for device in Device:
        rows = [r for r in test_log if r.context.device is device]
        if not rows:
            warnings.warn(f"no {device.value} rows in test log; segment omitted")
            continue
        feats = np.array(
            [
                build_features(r.context, r.template_id, bundle.categories, bundle.signal_names)
                for r in rows
            ]
        )
        segment: dict[str, float] = {}
        rev_pred = feats @ bundle.revenue_model.posterior.mean
        segment[f"{REVENUE}_rmse"] = rmse(
            rev_pred, np.array([r.targets.revenue for r in rows])
        )
        if device is Device.DESKTOP:
            scores = np.array(
                [predict_mean(bundle.non_abandonment_model, x) for x in feats]
            )
            labels = np.array([r.targets.non_abandonment for r in rows])
            try:
                segment[f"{NON_ABANDONMENT}_auc"] = auc(scores, labels)
            except EstimationError:
                warnings.warn(
                    f"single-class non-abandonment labels on {device.value}; AUC omitted"
                )
        if bundle.satisfaction_model is not None:
            targets = [r.targets.satisfaction for r in rows]
            if all(t is not None for t in targets):
                sat_pred = feats @ bundle.satisfaction_model.posterior.mean
                segment[f"{SATISFACTION}_rmse"] = rmse(sat_pred, np.array(targets))
        out[device.value] = segment
    return out
