"""Three-arm A/B experiment harness over the simulated marketplace.

Arms differ only in their satisfaction objective: none (control), the
fixed click-based region weighting `CTR_REGION_WEIGHTS`, or the region
weighting derived from the causal estimator. Sessions share random streams
across arms so measured lifts come from template choices, not luck. Every
session is served through `sim.session.serve_pages`; each arm retrains nightly
on the `request_table` rows it scored and the `same_day_targets` of its pages.
Long-horizon revenue is realized up front and feeds reports, never training:
the retrain raises InvariantViolation on any target that is not same-day.
Lifts over the first arm get percentile CIs from one paired bootstrap, which
resamples the sessions every arm shares.
"""

from __future__ import annotations

import csv
import json
import sys
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

import numpy as np

from ..bandit.features import CONTEXT_FEATURE_NAMES
from ..bandit.ranker import (
    NON_ABANDONMENT,
    REVENUE,
    SATISFACTION,
    OBJECTIVE_ORDER,
    ObjectiveStats,
    RankerBundle,
    RewardWeights,
    frozen_reward,
    incremental_retrain,
    new_bundle,
    thompson_scores,
    with_noise_variances,
)
from ..dml.pipeline import DmlConfig, derive_region_weights, estimate_dvwpx
from ..domain import require_finite
from ..errors import DomainError, EstimationError, InvariantViolation
from ..metrics import CTR_REGION_WEIGHTS, RegionWeights, weighted_bmr
from ..rng import block_rows, stream
from ..sim.panel import RANDOMIZED, X_COLUMNS, simulate_panel
from ..sim.session import PageSessions, draw_availability, serve_pages
from ..sim.world import World, WorldConfig, generate_world

SATISFACTION_NONE = "none"
SATISFACTION_CTR = "ctr"
SATISFACTION_DVWPX = "dvwpx"
SATISFACTION_MODES = (SATISFACTION_NONE, SATISFACTION_CTR, SATISFACTION_DVWPX)

METRIC_NAMES = ("revenue", "long_term_revenue", "ctr", "pr_wp_bmr")

NOISE_VARIANCE_FLOOR = 1e-6
BOOTSTRAP_BLOCK = 64  # resamples gathered at once


@dataclass(frozen=True)
class ArmConfig:
    name: str
    satisfaction_mode: str
    reward_weights: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reward_weights", dict(self.reward_weights))
        require_finite(self)
        unknown = sorted(set(self.reward_weights) - set(OBJECTIVE_ORDER))
        if unknown:
            raise DomainError(f"reward_weights has unknown objectives {unknown}")
        if self.satisfaction_mode not in SATISFACTION_MODES:
            raise DomainError(
                f"satisfaction_mode must be one of {SATISFACTION_MODES}, "
                f"got {self.satisfaction_mode!r}"
            )
        has_sat = SATISFACTION in self.reward_weights and (
            self.reward_weights[SATISFACTION] != 0.0
        )
        if self.satisfaction_mode == SATISFACTION_NONE and has_sat:
            raise DomainError("control-style arm cannot weight satisfaction")
        if self.satisfaction_mode != SATISFACTION_NONE and not has_sat:
            raise DomainError("satisfaction arm needs a nonzero satisfaction weight")


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldConfig
    arms: tuple[ArmConfig, ...]
    days: int
    sessions_per_day: int
    warmup_days: int
    seed: int
    weight_panel_events: int = 8000
    weight_stage2: str = "ols"
    bootstrap_n: int = 1000
    prior_variance: float = 1.0

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.arms:
            raise DomainError("arms must be non-empty")
        if len({arm.name for arm in self.arms}) != len(self.arms):
            raise DomainError("arm names must be unique")
        if not self.days >= self.warmup_days >= 1:
            raise DomainError("need days >= warmup_days >= 1")
        if self.sessions_per_day < 1:
            raise DomainError("sessions_per_day must be >= 1")
        if self.bootstrap_n < 1:
            raise DomainError("bootstrap_n must be >= 1")


def default_experiment_config(seed: int = 0) -> ExperimentConfig:
    """The stock Control / fixed-weights / estimated-weights comparison."""
    base = {REVENUE: 0.5, NON_ABANDONMENT: 0.2}
    return ExperimentConfig(
        world=WorldConfig(seed=seed),
        arms=(
            ArmConfig("control", SATISFACTION_NONE, base),
            ArmConfig("t1", SATISFACTION_CTR, {**base, SATISFACTION: 0.3}),
            ArmConfig("t2", SATISFACTION_DVWPX, {**base, SATISFACTION: 0.3}),
        ),
        days=8,
        sessions_per_day=400,
        warmup_days=2,
        seed=seed,
    )


@dataclass(frozen=True)
class LiftRow:
    baseline: str
    treatment: str
    metric: str
    lift: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class ExperimentReport:
    config: dict[str, Any]
    arm_means: dict[str, dict[str, float]]
    lifts: tuple[LiftRow, ...]
    per_day: tuple[dict[str, Any], ...]
    region_weights: dict[str, tuple[float, float, float] | None]


MetricLog = dict[str, np.ndarray]


def ab_compare(
    arm_logs: Mapping[str, MetricLog], baseline: str, bootstrap_n: int = 1000, seed: int = 0
) -> list[LiftRow]:
    """Relative lift of every other arm over ``baseline``, each with a
    percentile bootstrap CI.

    Every arm serves the same sessions, so the bootstrap is paired: each
    resample draws one vector of session indices from
    ``stream(seed, "bootstrap")`` and gathers every arm's metrics through it.
    Rows run treatment by treatment in ``arm_logs`` order, metrics in
    `METRIC_NAMES` order, over the metrics every arm logs.
    """
    metrics = [m for m in METRIC_NAMES if all(m in log for log in arm_logs.values())]
    n = len(arm_logs[baseline][metrics[0]]) if metrics else 0
    if n < 1:
        raise DomainError("logs share no known metric with at least one session")
    for name, log in arm_logs.items():
        for m in metrics:
            if len(log[m]) != n:
                raise DomainError(
                    f"arm {name!r} logs {len(log[m])} sessions of {m}, baseline "
                    f"{baseline!r} logs {n}; paired arms must share their sessions"
                )
    treatments = [name for name in arm_logs if name != baseline]
    if not treatments:
        return []

    def lifts(means: np.ndarray) -> np.ndarray:  # rows after 0 over row 0, NaN where it is 0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(means[0] != 0.0, (means[1:] - means[0]) / means[0], np.nan)

    # each metric's logs, the baseline's first
    columns = {m: [arm_logs[a][m] for a in (baseline, *treatments)] for m in metrics}
    point = {m: lifts(np.array([arm.mean() for arm in column])) for m, column in columns.items()}
    undefined = [m for m, p in point.items() if np.isnan(p).any()]
    if undefined:
        raise EstimationError(f"lift undefined for {undefined}: a zero control mean or a NaN")

    rng = stream(seed, "bootstrap")
    boot = np.empty((len(metrics), len(treatments), bootstrap_n))
    for start in range(0, bootstrap_n, BOOTSTRAP_BLOCK):
        stop = min(start + BOOTSTRAP_BLOCK, bootstrap_n)
        idx = rng.integers(0, n, (stop - start, n))
        for j, column in enumerate(columns.values()):
            # one (block, n) gather at a time; each row sums like a 1-D mean
            boot[j, :, start:stop] = lifts(np.array([arm[idx].mean(axis=1) for arm in column]))

    degenerate = [m for m, draws in zip(metrics, boot) if np.isnan(draws).all(axis=1).any()]
    if degenerate:
        raise EstimationError(f"all bootstrap resamples degenerate for {degenerate}")
    lo, hi = np.nanpercentile(boot, [2.5, 97.5], axis=2)
    return [
        LiftRow(baseline, t, m, float(point[m][i]), float(lo[j, i]), float(hi[j, i]))
        for i, t in enumerate(treatments)
        for j, m in enumerate(metrics)
    ]


def region_weights_for(
    arm: ArmConfig, dvwpx_weights: RegionWeights | None
) -> RegionWeights | None:
    """The region weights an arm's satisfaction objective scores pages by."""
    if arm.satisfaction_mode == SATISFACTION_NONE:
        return None
    if arm.satisfaction_mode == SATISFACTION_CTR:
        return CTR_REGION_WEIGHTS
    if dvwpx_weights is None:
        raise EstimationError("no estimated region weights available")
    return dvwpx_weights


def request_table(world: World) -> np.ndarray:
    """Every request's candidate feature rows, read-only, as one
    ``(2, n_queries, 2, c, p)`` array: ``[m, q, k]`` holds query ``q`` served
    to a mobile (``m`` = 1) or desktop device and a member (``k`` = 1) or not,
    one `encode_rows` row per world template. Each column is a world array:
    bias, device, the query's specificity and category, membership and
    ``content_signals[q, t]``."""
    n_queries, c, n_signals = world.content_signals.shape
    head = len(CONTEXT_FEATURE_NAMES)
    categories = len(world.categories)
    table = np.empty((2, n_queries, 2, c, head + categories + n_signals))
    table[..., 0] = 1.0
    table[..., 1] = np.arange(2.0)[:, None, None, None]
    table[..., 2] = np.array([q.specificity for q in world.queries])[:, None, None]
    table[..., 3] = np.arange(2.0)[:, None]
    one_hot = np.array([[q.category_id == d for d in world.categories] for q in world.queries])
    table[..., head : head + categories] = one_hot[:, None, None]
    table[..., head + categories :] = world.content_signals[:, None]
    table.flags.writeable = False
    return table


def draw_sessions(world: World, seed: int, day: int | str, n: int) -> tuple[np.ndarray, ...]:
    """The requests of ``n`` sessions of ``day`` and their random draws.

    Each draw is a column of one block-keyed purpose per day
    (`rng.block_rows` under labels ``(purpose, day)``): session ``i`` reads
    row ``i`` of its customer (``"exp_customer"``), query (``"exp_query"``),
    mobile flag (``"exp_device"``), uniform warm-up template
    (``"exp_template"``), item availability (``"exp_availability"``,
    `draw_availability`), ``(3, n_slots)`` session uniforms
    (``"exp_outcome"``) and long-term normal (``"exp_longterm"``). So the
    first m sessions of a day do not depend on n. Returns ``(ci, qi, mobile,
    template, available, u, z)``, one row per session, ``u`` shaped
    ``(n, 3, n_slots)``.
    """
    cfg = world.config

    def column(purpose: str, draw) -> np.ndarray:
        return block_rows(seed, (purpose, day), 0, n, draw)

    return (
        column("exp_customer", lambda g, m: g.integers(0, cfg.n_customers, m)),
        column("exp_query", lambda g, m: g.integers(0, cfg.n_queries, m)),
        column("exp_device", lambda g, m: g.random(m)) < cfg.mobile_fraction,
        column("exp_template", lambda g, m: g.integers(0, len(world.templates), m)),
        column("exp_availability", partial(draw_availability, world)),
        column("exp_outcome", lambda g, m: g.random((m, 3, world.n_slots))),
        column("exp_longterm", lambda g, m: g.standard_normal(m)),
    )


def same_day_targets(
    sessions: PageSessions, region_weights: RegionWeights | None
) -> dict[str, np.ndarray]:
    """Each same-day objective's ``(n,)`` targets of served pages: revenue,
    non-abandonment and, when `region_weights` is set, satisfaction as the
    region-weighted brand match rate."""
    targets = {
        REVENUE: sessions.short_term_revenue,
        NON_ABANDONMENT: (sessions.engagement > 0).astype(float),
    }
    if region_weights is not None:
        targets[SATISFACTION] = weighted_bmr(sessions.region_bmrs, region_weights)
    return targets


def estimate_dvwpx_region_weights(
    world: World, config: ExperimentConfig
) -> RegionWeights:
    """Fit the causal model on a randomized warm-up panel and derive weights."""
    panel = simulate_panel(
        world, config.weight_panel_events, RANDOMIZED, seed=config.seed + 7_000_003
    )
    model = estimate_dvwpx(panel, DmlConfig(seed=config.seed, stage2=config.weight_stage2))
    return derive_region_weights(model, X_COLUMNS)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every arm day by day and assemble the comparison report.

    The first arm in the config is the baseline all lifts are measured
    against. Reported means cover post-warmup days (all days when the config
    has none).
    """
    world = generate_world(config.world)
    seed = config.seed

    dvwpx_weights = None
    if any(arm.satisfaction_mode == SATISFACTION_DVWPX for arm in config.arms):
        dvwpx_weights = estimate_dvwpx_region_weights(world, config)

    arm_region_weights = {
        arm.name: region_weights_for(arm, dvwpx_weights) for arm in config.arms
    }
    bundles: dict[str, RankerBundle] = {
        arm.name: new_bundle(
            categories=world.categories,
            signal_names=world.signal_names,
            # placeholder stats; frozen from warmup targets before any Thompson serving
            reward=RewardWeights(
                arm.reward_weights, {name: ObjectiveStats(0.0, 1.0) for name in arm.reward_weights}
            ),
            region_weights=arm_region_weights[arm.name],
            with_satisfaction=arm.satisfaction_mode != SATISFACTION_NONE,
            prior_variance=config.prior_variance,
        )
        for arm in config.arms
    }

    template_ids = [t.template_id for t in world.templates]
    # per arm, one (same-day targets, metric arrays) entry a day, in day order
    logs: dict[str, list[tuple[MetricLog, MetricLog]]] = {arm.name: [] for arm in config.arms}
    table = request_table(world)

    for day in range(1, config.days + 1):
        warmup = day <= config.warmup_days
        s = np.arange(config.sessions_per_day)
        # every arm serves a session with the same outcome and long-term draws
        ci, qi, mobile, warmup_choice, available, u, z = draw_sessions(world, seed, day, len(s))
        day_features = table[mobile.astype(np.intp), qi, world.customers.membership[ci]]
        if warmup:
            # every arm serves the same uniform choice: one serving, per-arm targets
            ti = warmup_choice
            sessions = serve_pages(world, ci, qi, ti, available, u, z)
        for arm in config.arms:
            if not warmup:
                # session i's Thompson normals: row i of the arm-day's block-keyed purpose
                bundle = bundles[arm.name]
                shape = (len(template_ids), len(bundle.objectives), day_features.shape[2])
                labels = ("exp_thompson", arm.name, day)
                normals = block_rows(seed, labels, 0, len(s), lambda g, m: g.standard_normal((m, *shape)))
                ti = thompson_scores(day_features, mobile, template_ids, bundle, normals)[0]
                sessions = serve_pages(world, ci, qi, ti, available, u, z)
            targets = same_day_targets(sessions, arm_region_weights[arm.name])
            day_metrics = {
                "revenue": sessions.short_term_revenue,
                "long_term_revenue": sessions.long_term_revenue,
                "ctr": sessions.engagement / world.n_slots,
                "pr_wp_bmr": weighted_bmr(sessions.region_bmrs, CTR_REGION_WEIGHTS),
            }
            logs[arm.name].append((targets, day_metrics))
            sat = targets.get(SATISFACTION)
            bundle = with_noise_variances(
                bundles[arm.name],
                max(float(np.var(targets[REVENUE])), NOISE_VARIANCE_FLOOR),
                None if sat is None else max(float(np.var(sat)), NOISE_VARIANCE_FLOOR),
            )
            bundles[arm.name] = incremental_retrain(
                bundle,
                (day_features[s, ti], mobile, targets),
                rng=stream(seed, "exp_retrain", arm.name, day),
            )

        if day == config.warmup_days:
            # every day logged so far is a warm-up day
            for arm in config.arms:
                logged = [t for t, _ in logs[arm.name]]
                warmup_all = {k: np.concatenate([t[k] for t in logged]) for k in logged[0]}
                bundles[arm.name] = replace(
                    bundles[arm.name], reward=frozen_reward(arm.reward_weights, warmup_all)
                )

    # no post-warmup days: fall back to the warmup window for reporting
    first = config.warmup_days if config.days > config.warmup_days else 0
    arm_logs: dict[str, MetricLog] = {
        name: {m: np.concatenate([v[m] for _, v in log[first:]]) for m in METRIC_NAMES}
        for name, log in logs.items()
    }

    arm_means = {
        name: {m: float(v.mean()) for m, v in log.items()}
        for name, log in arm_logs.items()
    }
    lifts = ab_compare(arm_logs, config.arms[0].name, config.bootstrap_n, config.seed)

    return ExperimentReport(
        config=config_to_json(config),
        arm_means=arm_means,
        lifts=tuple(lifts),
        per_day=tuple(
            {
                "day": day,
                "arm": name,
                "warmup": day <= config.warmup_days,
                "n_sessions": config.sessions_per_day,
                **{m: float(np.mean(log[day - 1][1][m])) for m in METRIC_NAMES},
            }
            for day in range(1, config.days + 1)
            for name, log in logs.items()
        ),
        region_weights={
            name: None if rw is None else rw.as_tuple()
            for name, rw in arm_region_weights.items()
        },
    )


def field_from_json(kind: Any, value: Any, name: str) -> Any:
    """``value`` read as the annotation ``kind``: a nested dataclass by
    `config_from_json`, an enum by its value, a ``tuple[T, ...]`` from a list
    and a ``Mapping[str, T]`` or ``dict[str, T]`` from an object, each entry
    read as ``T``; a ``tuple[T1, ..., Tn]`` from a list of exactly n entries,
    entry i read as ``Ti``. ``X | None`` takes null or an ``X``, and ``Any``
    takes any value as is. An ``int``, ``str`` or ``bool`` must be exactly that
    type; a ``float`` takes any number and keeps an int an int. Anything else
    is a DomainError naming the field by its dotted path, and so is a
    ``float`` that is NaN or infinite."""
    origin, args = get_origin(kind), get_args(kind)
    if kind is Any:
        return value
    if origin in (Union, UnionType) and type(None) in args:
        if value is None:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return field_from_json(inner, value, name)
    if is_dataclass(kind):
        return config_from_json(kind, value, name)
    if isinstance(kind, type) and issubclass(kind, Enum):
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise DomainError(
                f"{name} must be one of {[m.value for m in kind]}, got {value!r}"
            ) from None
    if origin is tuple and isinstance(value, list):
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise DomainError(f"{name} must have {len(args)} entries, got {value!r}")
        return tuple(
            field_from_json(a, v, f"{name}[{i}]") for i, (a, v) in enumerate(zip(args, value))
        )
    if origin in (Mapping, dict) and isinstance(value, dict):
        return {k: field_from_json(args[1], v, f"{name}.{k}") for k, v in value.items()}
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        # NaN and the infinities fail the comparison, as does an int past float range
        if ok and not abs(value) <= sys.float_info.max:
            raise DomainError(f"{name} must be finite, got {value!r}")
    else:
        ok = type(value) is kind
    if not ok:
        raise DomainError(f"{name} has the wrong type: {value!r}")
    return value


def config_from_json(
    cls: type, payload: Any, name: str, defaults: Mapping[str, Any] = {}
) -> Any:
    """The ``cls`` dataclass a JSON object describes, each field read by its
    annotation through `field_from_json`; ``defaults`` fills fields the object
    leaves out ahead of the class's own defaults. A non-object, an unknown
    field or a missing required field is a DomainError naming its path."""
    if not isinstance(payload, dict):
        raise DomainError(f"{name} must be a JSON object, got {payload!r}")
    hints = get_type_hints(cls)
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise DomainError(f"{name} has unknown fields {unknown}")
    values = {
        **defaults,
        **{k: field_from_json(hints[k], v, f"{name}.{k}") for k, v in payload.items()},
    }
    missing = [
        f.name
        for f in fields(cls)
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise DomainError(f"{name} is missing fields {missing}")
    return cls(**values)


def config_to_json(config: Any) -> dict[str, Any]:
    """``asdict(config)`` as JSON values: tuples as lists, enums by value."""

    def plain(value: Any) -> Any:
        if isinstance(value, (tuple, list)):
            return [plain(v) for v in value]
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.value if isinstance(value, Enum) else value

    return plain(asdict(config))


REPORT_SCHEMA_VERSION = 2


def json_text(payload: Any) -> str:
    """``payload`` as the JSON text of every artifact: indent 2, sorted keys
    and a closing newline. A NaN or infinite number is an InvariantViolation."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvariantViolation(f"artifact holds a non-finite number: {exc}") from None


def report_json(report: ExperimentReport) -> str:
    """The report as `json_text`, tagged with its kind and schema version."""
    tags = {"schema_version": REPORT_SCHEMA_VERSION, "kind": "experiment_report"}
    return json_text({**tags, **config_to_json(report)})


def report_from_dict(payload: Any) -> ExperimentReport:
    """The report a `report_json` payload describes, every field read by its
    annotation; a malformed payload is a DomainError naming its path."""
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind != "experiment_report":
        raise DomainError(f"not a report payload: kind={kind!r}")
    version = payload.get("schema_version")
    if type(version) is not int or version != REPORT_SCHEMA_VERSION:
        raise DomainError(
            f"report.schema_version must be {REPORT_SCHEMA_VERSION}, got {version!r}"
        )
    body = {k: v for k, v in payload.items() if k not in ("schema_version", "kind")}
    return config_from_json(ExperimentReport, body, "report")


def write_per_day_csv(report: ExperimentReport, path: str | Path) -> None:
    fields = ["day", "arm", "warmup", "n_sessions", *METRIC_NAMES]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in report.per_day:
            writer.writerow({k: row[k] for k in fields})


def render_report(report: ExperimentReport) -> str:
    """Human-readable per-arm means and lift table."""
    lines = []
    arms = list(report.arm_means)
    header = f"{'metric':<18}" + "".join(f"{arm:>14}" for arm in arms)
    lines.append("arm means")
    lines.append(header)
    for m in METRIC_NAMES:
        if all(m in report.arm_means[a] for a in arms):
            row = f"{m:<18}" + "".join(f"{report.arm_means[a][m]:>14.4f}" for a in arms)
            lines.append(row)
    if report.lifts:
        lines.append("")
        lines.append("relative lifts vs " + report.lifts[0].baseline)
        lines.append(f"{'treatment':<12}{'metric':<18}{'lift':>10}{'ci_low':>10}{'ci_high':>10}")
        for r in report.lifts:
            lines.append(
                f"{r.treatment:<12}{r.metric:<18}{100 * r.lift:>9.2f}%"
                f"{100 * r.ci_low:>9.2f}%{100 * r.ci_high:>9.2f}%"
            )
    lines.append("")
    lines.append("satisfaction region weights by arm")
    for name, rw in report.region_weights.items():
        shown = "none" if rw is None else f"({rw[0]:.3f}, {rw[1]:.3f}, {rw[2]:.3f})"
        lines.append(f"  {name}: {shown}")
    return "\n".join(lines) + "\n"
