"""Multi-objective template selection by Thompson sampling.

A bundle holds one Bayesian model per objective plus frozen scalarization
stats. At serving time each candidate template is scored by sampling every
objective's posterior, standardizing against the frozen stats, and combining
with the configured weights; the argmax template wins. Nightly the bundle
retrains incrementally on a half-sample of the day's impressions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from ..domain import ContextFeatures, Device, ObjectiveVector, PageLayout, PageTemplate
from ..errors import DomainError
from ..metrics import RegionWeights
from .features import build_features, feature_schema
from .posteriors import (
    GaussianPosterior,
    ModelKind,
    ObjectiveModel,
    blr_update,
    linear_model,
    predict_with,
    probit_model,
    probit_update,
)

REVENUE = "revenue"
NON_ABANDONMENT = "non_abandonment"
SATISFACTION = "satisfaction"
OBJECTIVE_ORDER = (REVENUE, NON_ABANDONMENT, SATISFACTION)

DEFAULT_SAMPLE_FRACTION = 0.5
STD_FLOOR = 1e-6


@dataclass(frozen=True)
class ObjectiveStats:
    """Frozen historical mean and spread used to standardize one objective."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise DomainError("objective stats must be finite")
        if self.std <= 0.0:
            raise DomainError("objective std must be > 0")


@dataclass(frozen=True)
class RewardWeights:
    """Scalarization weights plus the normalization stats they apply to."""

    weights: Mapping[str, float]
    stats: Mapping[str, ObjectiveStats]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", dict(self.weights))
        object.__setattr__(self, "stats", dict(self.stats))
        if not any(w != 0.0 for w in self.weights.values()):
            raise DomainError("at least one objective weight must be nonzero")
        missing = set(self.weights) - set(self.stats)
        if missing:
            raise DomainError(f"objectives missing normalization stats: {sorted(missing)}")


def scalarize(samples: Mapping[str, float], reward: RewardWeights) -> float:
    """Weighted sum of standardized objective samples.

    Only the objectives present in `samples` contribute; each must carry a
    weight and stats.
    """
    total = 0.0
    for name, value in samples.items():
        if name not in reward.weights:
            raise DomainError(f"no weight configured for objective {name!r}")
        stats = reward.stats[name]
        total += reward.weights[name] * (value - stats.mean) / stats.std
    return total


@dataclass(frozen=True)
class RankerBundle:
    """Everything the ranker needs to serve and retrain.

    `satisfaction_model` is None when the configuration runs without a
    satisfaction objective; `region_weights` defines how satisfaction targets
    are computed from realized pages during training.
    """

    revenue_model: ObjectiveModel
    non_abandonment_model: ObjectiveModel
    satisfaction_model: ObjectiveModel | None
    reward: RewardWeights
    region_weights: RegionWeights | None
    categories: tuple[str, ...]
    signal_names: tuple[str, ...]
    rows_trained: int = 0

    def __post_init__(self) -> None:
        schema = feature_schema(self.categories, self.signal_names)
        models = [self.revenue_model, self.non_abandonment_model]
        if self.satisfaction_model is not None:
            models.append(self.satisfaction_model)
            if self.region_weights is None:
                raise DomainError("satisfaction objective requires region weights")
        for model in models:
            if model.feature_schema != schema:
                raise DomainError("all objective models must share one feature schema")
        if self.revenue_model.kind is not ModelKind.LINEAR:
            raise DomainError("revenue model must be Linear")
        if self.non_abandonment_model.kind is not ModelKind.PROBIT:
            raise DomainError("non-abandonment model must be Probit")
        if self.satisfaction_model is not None and (
            self.satisfaction_model.kind is not ModelKind.LINEAR
        ):
            raise DomainError("satisfaction model must be Linear")

    def active_objectives(self, device: Device) -> tuple[str, ...]:
        """Objectives scored for a request; non-abandonment is Desktop-only."""
        names = [REVENUE]
        if device is Device.DESKTOP:
            names.append(NON_ABANDONMENT)
        if self.satisfaction_model is not None:
            names.append(SATISFACTION)
        return tuple(names)

    def model_for(self, objective: str) -> ObjectiveModel:
        if objective == REVENUE:
            return self.revenue_model
        if objective == NON_ABANDONMENT:
            return self.non_abandonment_model
        if objective == SATISFACTION and self.satisfaction_model is not None:
            return self.satisfaction_model
        raise DomainError(f"no model for objective {objective!r}")


def new_bundle(
    categories: tuple[str, ...],
    signal_names: tuple[str, ...],
    reward: RewardWeights,
    region_weights: RegionWeights | None,
    with_satisfaction: bool,
    prior_variance: float = 1.0,
    noise_variance: float = 1.0,
) -> RankerBundle:
    schema = feature_schema(categories, signal_names)
    return RankerBundle(
        revenue_model=linear_model(schema, prior_variance, noise_variance),
        non_abandonment_model=probit_model(schema, prior_variance),
        satisfaction_model=(
            linear_model(schema, prior_variance, noise_variance)
            if with_satisfaction
            else None
        ),
        reward=reward,
        region_weights=region_weights,
        categories=categories,
        signal_names=signal_names,
    )


@dataclass(frozen=True)
class CandidateScore:
    """Per-candidate trace of how a selection was made."""

    template_id: str
    samples: Mapping[str, float]
    score: float
    chosen: bool


Candidate = TypeVar("Candidate", PageLayout, PageTemplate)


def select_template(
    context: ContextFeatures,
    candidates: Sequence[Candidate],
    bundle: RankerBundle,
    rng: np.random.Generator,
) -> tuple[Candidate, list[CandidateScore]]:
    """Thompson-sample every objective per candidate and take the argmax.

    Only a candidate's ``template_id`` is read; the chosen candidate itself
    is returned with the trace of :func:`score_candidates`.
    """
    if not candidates:
        raise DomainError("candidate list is empty")
    template_ids = [c.template_id for c in candidates]
    features = candidate_features(context, template_ids, bundle)
    best, traces = score_candidates(features, template_ids, bundle, context.device, rng)
    trace = [
        CandidateScore(template_id=tid, samples=samples, score=score, chosen=(i == best))
        for i, (tid, (samples, score)) in enumerate(zip(template_ids, traces))
    ]
    return candidates[best], trace


def candidate_features(
    context: ContextFeatures, template_ids: Sequence[str], bundle: RankerBundle
) -> np.ndarray:
    """The candidates' feature rows under one request, checked against the
    bundle's schema width and for finiteness, as a read-only ``(n, p)`` array."""
    x = [build_features(context, t, bundle.categories, bundle.signal_names) for t in template_ids]
    x = np.array(x)
    if x.shape != (len(template_ids), bundle.revenue_model.posterior.dim):
        raise DomainError(f"candidate feature block has shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("non-finite feature vector")
    x.flags.writeable = False
    return x


def score_candidates(
    features: np.ndarray,
    template_ids: Sequence[str],
    bundle: RankerBundle,
    device: Device,
    rng: np.random.Generator,
) -> tuple[int, list[tuple[dict[str, float], float]]]:
    """Thompson-score checked candidate feature rows: the winner's row, and
    every candidate's objective samples and scalarized score. One weight vector
    per (candidate, objective), all from one candidate-major normal draw; exact
    score ties break toward the lowest template_id."""
    objectives = bundle.active_objectives(device)
    models = [bundle.model_for(name) for name in objectives]
    z = rng.standard_normal((len(template_ids), len(objectives), features.shape[1]))
    traces: list[tuple[dict[str, float], float]] = []
    best = -1
    for i, (tid, x) in enumerate(zip(template_ids, features)):
        samples = {
            name: predict_with(model, model.posterior.weights(z[i, j]), x)
            for j, (name, model) in enumerate(zip(objectives, models))
        }
        score = scalarize(samples, bundle.reward)
        traces.append((samples, score))
        if best < 0 or score > traces[best][1] or (
            score == traces[best][1] and tid < template_ids[best]
        ):
            best = i
    return best, traces


@dataclass(frozen=True)
class ImpressionRecord:
    """One served page with its realized targets.

    `targets` holds the objectives available the same day; the long-horizon
    revenue is realized up front but embargoed until `long_term_available_on`
    and is never a training target.
    """

    ts: int
    context: ContextFeatures
    template_id: str
    targets: ObjectiveVector
    long_term_revenue: float
    long_term_available_on: int

    def __post_init__(self) -> None:
        if self.long_term_available_on < self.ts:
            raise DomainError("long-term availability precedes the impression day")


def frozen_reward(
    weights: Mapping[str, float],
    log: Sequence[ImpressionRecord],
    with_satisfaction: bool,
) -> RewardWeights:
    """Scalarization whose stats are frozen from the targets in `log`.

    Each weighted objective is standardized by its mean and spread over the
    log, the spread floored at STD_FLOOR; satisfaction counts only when
    `with_satisfaction` is set.
    """
    values = {
        REVENUE: np.array([r.targets.revenue for r in log]),
        NON_ABANDONMENT: np.array([float(r.targets.non_abandonment) for r in log]),
    }
    if with_satisfaction:
        values[SATISFACTION] = np.array([r.targets.satisfaction for r in log])
    stats = {
        name: ObjectiveStats(float(v.mean()), max(float(v.std()), STD_FLOOR))
        for name, v in values.items()
        if name in weights
    }
    return RewardWeights(weights=weights, stats=stats)


def sample_rows(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement sample of ceil(fraction * n) row indices."""
    if not 0.0 < fraction <= 1.0:
        raise DomainError("sample fraction must be in (0, 1]")
    k = math.ceil(fraction * n)
    return rng.choice(n, size=k, replace=False)


def apply_impression(bundle: RankerBundle, record: ImpressionRecord) -> RankerBundle:
    """Stream one impression through every applicable objective model."""
    x = build_features(
        record.context, record.template_id, bundle.categories, bundle.signal_names
    )
    revenue_model = blr_update(bundle.revenue_model, x, record.targets.revenue)
    non_ab = bundle.non_abandonment_model
    if record.context.device is Device.DESKTOP:
        non_ab = probit_update(non_ab, x, record.targets.non_abandonment)
    satisfaction_model = bundle.satisfaction_model
    if satisfaction_model is not None:
        if record.targets.satisfaction is None:
            raise DomainError("impression lacks a satisfaction target")
        satisfaction_model = blr_update(satisfaction_model, x, record.targets.satisfaction)
    return replace(
        bundle,
        revenue_model=revenue_model,
        non_abandonment_model=non_ab,
        satisfaction_model=satisfaction_model,
        rows_trained=bundle.rows_trained + 1,
    )


def incremental_retrain(
    bundle: RankerBundle,
    day_log: list[ImpressionRecord],
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
    rng: np.random.Generator | None = None,
) -> RankerBundle:
    """Sample half the day's impressions and stream them through the models.

    Posteriors carry over from the incoming bundle; an empty log returns the
    bundle untouched.
    """
    if not day_log:
        return bundle
    if rng is None:
        raise DomainError("incremental_retrain requires an rng")
    for idx in sample_rows(len(day_log), sample_fraction, rng):
        bundle = apply_impression(bundle, day_log[idx])
    return bundle


def with_noise_variances(
    bundle: RankerBundle,
    revenue_noise_variance: float,
    satisfaction_noise_variance: float | None = None,
) -> RankerBundle:
    """Swap the observation-noise variance on the linear models.

    Passing None leaves the satisfaction model untouched; a value for a
    bundle without one is an error.
    """
    if revenue_noise_variance <= 0.0:
        raise DomainError("noise variance must be > 0")
    out = replace(
        bundle,
        revenue_model=replace(bundle.revenue_model, noise_variance=revenue_noise_variance),
    )
    if satisfaction_noise_variance is not None:
        if satisfaction_noise_variance <= 0.0:
            raise DomainError("noise variance must be > 0")
        if out.satisfaction_model is None:
            raise DomainError("bundle has no satisfaction model")
        out = replace(
            out,
            satisfaction_model=replace(
                out.satisfaction_model, noise_variance=satisfaction_noise_variance
            ),
        )
    return out


BUNDLE_SCHEMA_VERSION = 1


def _posterior_to_dict(post: GaussianPosterior) -> dict[str, Any]:
    return {
        "mean": [float(v) for v in post.mean],
        "cov": post.cov.tolist(),
        "diagonal": post.diagonal,
    }


def _posterior_from_dict(payload: dict[str, Any]) -> GaussianPosterior:
    return GaussianPosterior(
        mean=np.asarray(payload["mean"], dtype=float),
        cov=np.asarray(payload["cov"], dtype=float),
    )


def _model_to_dict(model: ObjectiveModel) -> dict[str, Any]:
    return {
        "kind": model.kind.value,
        "posterior": _posterior_to_dict(model.posterior),
        "feature_schema": list(model.feature_schema),
        "noise_variance": model.noise_variance,
    }


def _model_from_dict(payload: dict[str, Any]) -> ObjectiveModel:
    return ObjectiveModel(
        kind=ModelKind(payload["kind"]),
        posterior=_posterior_from_dict(payload["posterior"]),
        feature_schema=tuple(payload["feature_schema"]),
        noise_variance=payload.get("noise_variance"),
    )


def bundle_to_dict(bundle: RankerBundle) -> dict[str, Any]:
    return {
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "kind": "ranker_bundle",
        "revenue_model": _model_to_dict(bundle.revenue_model),
        "non_abandonment_model": _model_to_dict(bundle.non_abandonment_model),
        "satisfaction_model": (
            None
            if bundle.satisfaction_model is None
            else _model_to_dict(bundle.satisfaction_model)
        ),
        "reward": {
            "weights": dict(bundle.reward.weights),
            "stats": {
                name: {"mean": s.mean, "std": s.std}
                for name, s in bundle.reward.stats.items()
            },
        },
        "region_weights": (
            None if bundle.region_weights is None else list(bundle.region_weights.as_tuple())
        ),
        "categories": list(bundle.categories),
        "signal_names": list(bundle.signal_names),
        "rows_trained": bundle.rows_trained,
    }


def bundle_from_dict(payload: dict[str, Any]) -> RankerBundle:
    if payload.get("kind") != "ranker_bundle":
        raise DomainError(f"not a bundle payload: kind={payload.get('kind')!r}")
    if payload.get("schema_version") != BUNDLE_SCHEMA_VERSION:
        raise DomainError(f"unsupported schema version {payload.get('schema_version')!r}")
    rw = payload["region_weights"]
    return RankerBundle(
        revenue_model=_model_from_dict(payload["revenue_model"]),
        non_abandonment_model=_model_from_dict(payload["non_abandonment_model"]),
        satisfaction_model=(
            None
            if payload["satisfaction_model"] is None
            else _model_from_dict(payload["satisfaction_model"])
        ),
        reward=RewardWeights(
            weights=payload["reward"]["weights"],
            stats={
                name: ObjectiveStats(mean=s["mean"], std=s["std"])
                for name, s in payload["reward"]["stats"].items()
            },
        ),
        region_weights=None if rw is None else RegionWeights(*rw),
        categories=tuple(payload["categories"]),
        signal_names=tuple(payload["signal_names"]),
        rows_trained=payload.get("rows_trained", 0),
    )


def save_bundle(bundle: RankerBundle, path: str | Path) -> None:
    Path(path).write_text(json.dumps(bundle_to_dict(bundle), indent=2, sort_keys=True) + "\n")


def load_bundle(path: str | Path) -> RankerBundle:
    return bundle_from_dict(json.loads(Path(path).read_text()))


def _context_to_dict(context: ContextFeatures) -> dict[str, Any]:
    return {
        "device": context.device.value,
        "query_specificity": context.query_specificity,
        "category_id": context.category_id,
        "membership": context.membership,
        "content_signals": {
            tid: [float(v) for v in sig] for tid, sig in sorted(context.content_signals.items())
        },
    }


def _context_from_dict(payload: dict[str, Any]) -> ContextFeatures:
    return ContextFeatures(
        device=Device(payload["device"]),
        query_specificity=payload["query_specificity"],
        category_id=payload["category_id"],
        membership=payload["membership"],
        content_signals={
            tid: tuple(sig) for tid, sig in payload["content_signals"].items()
        },
    )


def impression_to_dict(record: ImpressionRecord) -> dict[str, Any]:
    return {
        "ts": record.ts,
        "context": _context_to_dict(record.context),
        "template_id": record.template_id,
        "targets": {
            "revenue": record.targets.revenue,
            "non_abandonment": record.targets.non_abandonment,
            "satisfaction": record.targets.satisfaction,
        },
        "long_term_revenue": record.long_term_revenue,
        "long_term_available_on": record.long_term_available_on,
    }


def impression_from_dict(payload: dict[str, Any]) -> ImpressionRecord:
    t = payload["targets"]
    return ImpressionRecord(
        ts=payload["ts"],
        context=_context_from_dict(payload["context"]),
        template_id=payload["template_id"],
        targets=ObjectiveVector(
            revenue=t["revenue"],
            non_abandonment=t["non_abandonment"],
            satisfaction=t["satisfaction"],
        ),
        long_term_revenue=payload["long_term_revenue"],
        long_term_available_on=payload["long_term_available_on"],
    )


def write_impressions(records: Iterable[ImpressionRecord], path: str | Path) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(impression_to_dict(record), sort_keys=True) + "\n")


def read_impressions(path: str | Path) -> list[ImpressionRecord]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(impression_from_dict(json.loads(line)))
    return records
