"""Multi-objective template selection by Thompson sampling.

A bundle holds one Bayesian model per objective plus frozen scalarization
stats. At serving time each candidate template is scored by sampling every
objective's posterior, standardizing against the frozen stats, and combining
with the configured weights; the argmax template wins. A block of requests is
scored at once from the caller's block of standard normals. Nightly the bundle
retrains incrementally on a half-sample of the day's impressions, given as a
block of served feature rows with each same-day objective's targets; one
kernel, `_train_rows`, checks the block and updates every model from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence, TypeVar

import numpy as np

from ..domain import ContextFeatures, Device, ObjectiveVector, PageLayout, PageTemplate
from ..errors import DomainError, InvariantViolation
from ..metrics import RegionWeights
from .features import encode_rows, feature_schema
from .posteriors import (
    ModelKind,
    ObjectiveModel,
    blr_update_rows,
    linear_model,
    predict_with,
    probit_model,
    probit_update_rows,
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


def scalarize(
    samples: Mapping[str, float | np.ndarray], reward: RewardWeights
) -> float | np.ndarray:
    """Weighted sum of standardized objective samples, elementwise when the
    samples are arrays.

    Only the objectives present in `samples` contribute, in their order; each
    must carry a weight and stats.
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
    satisfaction objective. `region_weights` is checked (a satisfaction model
    needs it) but read by nothing: training takes satisfaction targets from
    the caller. It stays because the benchmark's `serve` workload passes it;
    ROADMAP item 3 deletes it.
    """

    revenue_model: ObjectiveModel
    non_abandonment_model: ObjectiveModel
    satisfaction_model: ObjectiveModel | None
    reward: RewardWeights
    region_weights: RegionWeights | None
    categories: tuple[str, ...]
    signal_names: tuple[str, ...]

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

    @property
    def objectives(self) -> tuple[str, ...]:
        """The objectives with a model, in OBJECTIVE_ORDER: the model slots of
        a request's Thompson normals."""
        return OBJECTIVE_ORDER[: 2 if self.satisfaction_model is None else 3]

    def active_objectives(self, device: Device) -> tuple[str, ...]:
        """Objectives scored for a request; non-abandonment is Desktop-only."""
        if device is Device.DESKTOP:
            return self.objectives
        return tuple(name for name in self.objectives if name != NON_ABANDONMENT)

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
) -> RankerBundle:
    schema = feature_schema(categories, signal_names)
    linear = linear_model(schema, prior_variance)  # immutable, so shareable
    return RankerBundle(
        revenue_model=linear,
        non_abandonment_model=probit_model(schema, prior_variance),
        satisfaction_model=linear if with_satisfaction else None,
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
    is returned with every candidate's samples and score, as
    :func:`thompson_scores` computes them for a block of one request whose
    normals are one ``(1, c, n_models, p)`` draw from `rng`.
    """
    if not candidates:
        raise DomainError("candidate list is empty")
    template_ids = [c.template_id for c in candidates]
    features = encode_rows(
        [(context, t) for t in template_ids], bundle.categories, bundle.signal_names
    )
    mobile = np.array([context.device is Device.MOBILE])
    z = rng.standard_normal((1, len(template_ids), len(bundle.objectives), features.shape[1]))
    best, scores, samples = thompson_scores(features[None], mobile, template_ids, bundle, z)
    best = int(best[0])
    sampled = {name: samples[name][0].tolist() for name in bundle.active_objectives(context.device)}
    trace = [
        CandidateScore(
            template_id=tid,
            samples={name: values[i] for name, values in sampled.items()},
            score=score,
            chosen=(i == best),
        )
        for i, (tid, score) in enumerate(zip(template_ids, scores[0].tolist()))
    ]
    return candidates[best], trace


def thompson_scores(
    features: np.ndarray,
    mobile: np.ndarray,
    template_ids: Sequence[str],
    bundle: RankerBundle,
    z: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Thompson-score a block of requests over the same candidate templates.

    `features` holds each request's checked candidate rows, ``(n, c, p)``;
    `mobile` flags each request's device; `z` holds the standard normals,
    ``(n, c, n_models, p)``, slot j for the j-th of the bundle's `objectives`;
    a mobile request leaves its non-abandonment slot unread. Returns each request's
    winning column (exact score ties go to the lowest template_id), the
    ``(n, c)`` scalarized scores, and each objective's ``(n, c)`` samples, NaN
    on requests where the objective is inactive.
    """
    n, c, p = features.shape
    slots = bundle.objectives
    if z.shape != (n, c, len(slots), p):
        raise DomainError(f"normal block has shape {z.shape}, not {(n, c, len(slots), p)}")
    mobile = np.asarray(mobile, dtype=bool)
    n_mobile = int(np.count_nonzero(mobile))
    scores = np.empty((n, c))
    samples = dict(zip(OBJECTIVE_ORDER, np.full((len(OBJECTIVE_ORDER), n, c), np.nan)))
    for device, count in ((Device.DESKTOP, n - n_mobile), (Device.MOBILE, n_mobile)):
        if not count:
            continue
        # the device's requests, a slice when they fill the block
        rows = slice(None) if count == n else np.flatnonzero(mobile == (device is Device.MOBILE))
        x, zr = features[rows], z[rows]
        drawn = {}
        for name in bundle.active_objectives(device):
            model = bundle.model_for(name)
            drawn[name] = samples[name][rows] = predict_with(
                model, model.posterior.weights(zr[:, :, slots.index(name)]), x
            )
        scores[rows] = scalarize(drawn, bundle.reward)
    order = np.array(sorted(range(c), key=template_ids.__getitem__))
    return order[scores[:, order].argmax(axis=1)], scores, samples


@dataclass(frozen=True)
class ImpressionRecord:
    """One served page with its realized targets: the one-row boundary of
    training, for callers that log impressions one at a time.

    `targets` holds the objectives available the same day. Nothing in the
    package reads the long-term fields; dropping them waits for a change to
    the benchmark, whose inputs build them (ROADMAP item 1).
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


def frozen_reward(weights: Mapping[str, float], targets: Mapping[str, np.ndarray]) -> RewardWeights:
    """Scalarization that standardizes each weighted objective by the mean and
    spread of its `targets`, the spread floored at STD_FLOOR; a weighted
    objective without targets is a DomainError."""
    stats = {
        name: ObjectiveStats(float(v.mean()), max(float(v.std()), STD_FLOOR))
        for name, v in targets.items()
        if name in weights
    }
    return RewardWeights(weights=weights, stats=stats)


def sample_rows(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement sample of ceil(fraction * n) row indices."""
    if not 0.0 < fraction <= 1.0:
        raise DomainError("sample fraction must be in (0, 1]")
    return rng.choice(n, size=math.ceil(fraction * n), replace=False)


TrainingBlock = tuple[np.ndarray, np.ndarray, Mapping[str, np.ndarray]]


def _train_rows(
    bundle: RankerBundle, X: np.ndarray, mobile: np.ndarray, targets: Mapping[str, np.ndarray]
) -> RankerBundle:
    """Stream the rows of `X`, in order, through every applicable objective model.

    `mobile` flags each row's device; `targets` maps same-day objectives to
    ``(n,)`` values, checked as ObjectiveVector checks one record's before any
    model updates. A target outside OBJECTIVE_ORDER, such as the embargoed
    long-term revenue, is an InvariantViolation. Each model validates its
    posterior once at the end; non-abandonment learns from desktop rows only.
    """
    late = sorted(set(targets) - set(OBJECTIVE_ORDER))
    if late:
        raise InvariantViolation(f"training would consume targets that are not same-day: {late}")
    missing = [name for name in bundle.objectives if name not in targets]
    if missing:
        raise DomainError(f"training rows lack targets {missing}")
    if (targets[REVENUE] < 0.0).any():
        raise DomainError("revenue must be >= 0")
    labels = targets[NON_ABANDONMENT]
    if ((labels != 0) & (labels != 1)).any():
        raise DomainError("non_abandonment labels must be 0 or 1")
    satisfaction = targets.get(SATISFACTION)
    if satisfaction is not None and ((satisfaction < 0.0) | (satisfaction > 1.0)).any():
        raise DomainError("satisfaction must be in [0, 1]")
    desktop = ~np.asarray(mobile, dtype=bool)
    non_ab = probit_update_rows(bundle.non_abandonment_model, X[desktop], labels[desktop].tolist())
    satisfaction_model = bundle.satisfaction_model
    if satisfaction_model is not None:
        satisfaction_model = blr_update_rows(satisfaction_model, X, targets[SATISFACTION])
    return replace(
        bundle,
        revenue_model=blr_update_rows(bundle.revenue_model, X, targets[REVENUE]),
        non_abandonment_model=non_ab,
        satisfaction_model=satisfaction_model,
    )


def _record_block(bundle: RankerBundle, records: Sequence[ImpressionRecord]) -> TrainingBlock:
    """The training block of `records`; satisfaction only when all carry one."""
    X = encode_rows(
        [(r.context, r.template_id) for r in records], bundle.categories, bundle.signal_names
    )
    mobile = np.array([r.context.device is Device.MOBILE for r in records], dtype=bool)
    with_satisfaction = all(r.targets.satisfaction is not None for r in records)
    return X, mobile, {
        name: np.array([getattr(r.targets, name) for r in records], dtype=float)
        for name in OBJECTIVE_ORDER[: 3 if with_satisfaction else 2]
    }


def apply_impression(bundle: RankerBundle, record: ImpressionRecord) -> RankerBundle:
    """Stream one impression through every applicable objective model."""
    return _train_rows(bundle, *_record_block(bundle, [record]))


def incremental_retrain(
    bundle: RankerBundle,
    day_log: TrainingBlock | list[ImpressionRecord],
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
    *,
    rng: np.random.Generator,
) -> RankerBundle:
    """Sample half the day's impressions and stream them through the models.

    `day_log` is a block ``(features, mobile, targets)`` of arrays: ``(n, p)``
    served rows, their device flags and each same-day objective's ``(n,)``
    targets. A list of ImpressionRecord is sampled first, and only the sampled
    records are encoded. Posteriors carry over from the incoming bundle; an
    empty log returns the bundle untouched.
    """
    if isinstance(day_log, list):
        n = len(day_log)
    else:
        X, mobile, targets = day_log
        n = len(X)
        if any(np.shape(v) != (n,) for v in (mobile, *targets.values())):
            raise DomainError(f"device flags or targets do not match the {n} feature rows")
    if not n:
        return bundle
    rows = sample_rows(n, sample_fraction, rng)
    if isinstance(day_log, list):
        return _train_rows(bundle, *_record_block(bundle, [day_log[i] for i in rows]))
    return _train_rows(bundle, X[rows], mobile[rows], {k: v[rows] for k, v in targets.items()})


def with_noise_variances(
    bundle: RankerBundle,
    revenue_noise_variance: float,
    satisfaction_noise_variance: float | None = None,
) -> RankerBundle:
    """Swap the observation-noise variance on the linear models. Passing None
    leaves the satisfaction model untouched; a value for a bundle without one
    is an error."""
    if revenue_noise_variance <= 0.0 or (
        satisfaction_noise_variance is not None and satisfaction_noise_variance <= 0.0
    ):
        raise DomainError("noise variance must be > 0")
    satisfaction_model = bundle.satisfaction_model
    if satisfaction_noise_variance is not None:
        if satisfaction_model is None:
            raise DomainError("bundle has no satisfaction model")
        satisfaction_model = replace(satisfaction_model, noise_variance=satisfaction_noise_variance)
    return replace(
        bundle,
        revenue_model=replace(bundle.revenue_model, noise_variance=revenue_noise_variance),
        satisfaction_model=satisfaction_model,
    )
