"""Three-arm A/B experiment harness over the simulated marketplace.

Arms differ only in their satisfaction objective: none (control), the
fixed click-based region weighting, or the region weighting derived from the
causal estimator. Sessions share random streams across arms so measured
lifts come from template choices, not luck. Long-horizon revenue is realized
up front but embargoed past each impression's availability date: it feeds
reports, never training.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..bandit.ranker import (
    NON_ABANDONMENT,
    REVENUE,
    SATISFACTION,
    ImpressionRecord,
    ObjectiveStats,
    RankerBundle,
    RewardWeights,
    frozen_reward,
    incremental_retrain,
    new_bundle,
    select_template,
    with_noise_variances,
)
from ..dml.pipeline import DmlConfig, derive_region_weights, estimate_dvwpx
from ..domain import ContextFeatures, Device, HorizonConfig, ObjectiveVector
from ..errors import DomainError, EstimationError, InvariantViolation
from ..metrics import CTR_REGION_WEIGHTS, REGION_ORDER, RegionWeights, weighted_bmr
from ..rng import stream
from ..sim.panel import CHUNK_EVENTS, RANDOMIZED, X_COLUMNS, simulate_panel
from ..sim.session import draw_availability, page_long_term, page_sessions
from ..sim.world import (
    World,
    WorldConfig,
    generate_world,
    layout_item_indices,
    page_item_indices,
)

SATISFACTION_NONE = "none"
SATISFACTION_CTR = "ctr"
SATISFACTION_DVWPX = "dvwpx"
SATISFACTION_MODES = (SATISFACTION_NONE, SATISFACTION_CTR, SATISFACTION_DVWPX)

METRIC_NAMES = ("revenue", "long_term_revenue", "ctr", "pr_wp_bmr")

NOISE_VARIANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class ArmConfig:
    name: str
    satisfaction_mode: str
    reward_weights: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reward_weights", dict(self.reward_weights))
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
    horizon: HorizonConfig = HorizonConfig()
    # fixed click-based weights are the published configuration; flip this to
    # re-derive them from randomized simulated clicks instead
    reestimate_ctr_weights: bool = False
    ctr_weight_sessions: int = 2000

    def __post_init__(self) -> None:
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
        if self.ctr_weight_sessions < 1:
            raise DomainError("ctr_weight_sessions must be >= 1")


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
    config_echo: dict[str, Any]
    arm_means: dict[str, dict[str, float]]
    lifts: tuple[LiftRow, ...]
    per_day: tuple[dict[str, Any], ...]
    audit: tuple[dict[str, Any], ...]
    region_weights: dict[str, tuple[float, float, float] | None]


MetricLog = dict[str, np.ndarray]


def ab_compare(
    control_log: MetricLog,
    treatment_log: MetricLog,
    bootstrap_n: int = 1000,
    seed: int = 0,
    baseline: str = "control",
    treatment: str = "treatment",
) -> list[LiftRow]:
    """Relative lifts with percentile bootstrap CIs over session resampling."""
    if not control_log or not treatment_log:
        raise DomainError("both logs must be non-empty")
    metrics = [m for m in METRIC_NAMES if m in control_log and m in treatment_log]
    if not metrics:
        raise DomainError("logs share no known metrics")
    n_c = len(next(iter(control_log.values())))
    n_t = len(next(iter(treatment_log.values())))
    if n_c < 1 or n_t < 1:
        raise DomainError("both logs must be non-empty")

    rows = []
    point = {}
    for m in metrics:
        mc = float(np.mean(control_log[m]))
        if mc == 0.0:
            raise EstimationError(f"control mean for {m} is zero; lift undefined")
        point[m] = (float(np.mean(treatment_log[m])) - mc) / mc

    rng = stream(seed, "bootstrap")
    boot = {m: np.empty(bootstrap_n) for m in metrics}
    for b in range(bootstrap_n):
        idx_c = rng.integers(0, n_c, n_c)
        idx_t = rng.integers(0, n_t, n_t)
        for m in metrics:
            mc = float(np.mean(control_log[m][idx_c]))
            mt = float(np.mean(treatment_log[m][idx_t]))
            boot[m][b] = (mt - mc) / mc if mc != 0.0 else np.nan
    for m in metrics:
        draws = boot[m][np.isfinite(boot[m])]
        if len(draws) == 0:
            raise EstimationError(f"all bootstrap resamples degenerate for {m}")
        lo, hi = np.percentile(draws, [2.5, 97.5])
        rows.append(
            LiftRow(
                baseline=baseline,
                treatment=treatment,
                metric=m,
                lift=point[m],
                ci_low=float(lo),
                ci_high=float(hi),
            )
        )
    return rows


def _region_weights_for(
    arm: ArmConfig,
    dvwpx_weights: RegionWeights | None,
    ctr_weights: RegionWeights = CTR_REGION_WEIGHTS,
) -> RegionWeights | None:
    if arm.satisfaction_mode == SATISFACTION_NONE:
        return None
    if arm.satisfaction_mode == SATISFACTION_CTR:
        return ctr_weights
    if dvwpx_weights is None:
        raise EstimationError("no estimated region weights available")
    return dvwpx_weights


def estimate_ctr_region_weights(
    world: World, n_sessions: int, seed: int
) -> RegionWeights:
    """Region weights proportional to click share under randomized serving."""
    if n_sessions < 1:
        raise DomainError("n_sessions must be >= 1")
    cfg = world.config
    counts = np.zeros(len(REGION_ORDER))
    for start in range(0, n_sessions, CHUNK_EVENTS):
        block = range(start, min(start + CHUNK_EVENTS, n_sessions))
        picks = np.empty((len(block), 3), dtype=np.intp)  # customer, query, template
        available = np.empty((len(block), cfg.n_items), dtype=bool)
        u = np.empty((len(block), 3, world.n_slots))
        for j, s in enumerate(block):
            r = stream(seed, "ctr_weights", s)
            picks[j] = [
                r.integers(0, cfg.n_customers),
                r.integers(0, cfg.n_queries),
                r.integers(0, len(world.templates)),
            ]
            available[j] = draw_availability(world, r)
            u[j] = r.random((3, world.n_slots))
        ci, qi, ti = picks.T
        items = page_item_indices(world, qi, ti, available)
        clicked = page_sessions(world, ci, qi, ti, items, u).clicked
        counts += np.bincount(world.slots.region[ti][clicked], minlength=len(REGION_ORDER))
    total = float(counts.sum())
    if total == 0.0:
        raise EstimationError("no clicks observed; cannot derive click weights")
    w = counts / total
    return RegionWeights(float(w[0]), float(w[1]), float(w[2]))


def _initial_reward(arm: ArmConfig) -> RewardWeights:
    # placeholder stats; frozen from warmup targets before any Thompson serving
    return RewardWeights(
        weights=arm.reward_weights,
        stats={name: ObjectiveStats(0.0, 1.0) for name in arm.reward_weights},
    )


def request_context(
    world: World, query_index: int, device: Device, membership: int
) -> ContextFeatures:
    """Request features for a query: its specificity, category and the
    per-template content signals, plus the caller's device and membership."""
    query = world.queries[query_index]
    return ContextFeatures(
        device=device,
        query_specificity=query.specificity,
        category_id=query.category_id,
        membership=membership,
        content_signals={
            t.template_id: tuple(world.content_signals[query_index, ti])
            for ti, t in enumerate(world.templates)
        },
    )


def serve_page(
    world: World,
    customer_index: int,
    query_index: int,
    template_index: int,
    available: np.ndarray,
    context: ContextFeatures,
    day: int,
    horizon: HorizonConfig,
    region_weights: RegionWeights | None,
    session_rng: np.random.Generator,
    long_term_rng: np.random.Generator,
) -> tuple[ImpressionRecord, float, tuple[float, float, float]]:
    """Serve one template to one request and log the impression.

    The session draws from `session_rng`, the long-term revenue from
    `long_term_rng`; satisfaction is the region-weighted brand match rate
    when `region_weights` is set. Returns the impression, the session's
    engagement and the page's (top, middle, bottom) brand match rates.
    """
    ci, qi, ti = np.array([customer_index]), np.array([query_index]), np.array([template_index])
    items = layout_item_indices(world, query_index, template_index, available)[None, :]
    sessions = page_sessions(
        world, ci, qi, ti, items, session_rng.random((1, 3, world.n_slots))
    )
    long_term = page_long_term(
        world, ci, qi, sessions, np.array([long_term_rng.standard_normal()])
    )
    bmrs = tuple(float(b) for b in sessions.region_bmrs[0])
    record = ImpressionRecord(
        ts=day,
        context=context,
        template_id=world.templates[template_index].template_id,
        targets=ObjectiveVector(
            revenue=float(sessions.short_term_revenue[0]),
            non_abandonment=int(sessions.clicked[0].any()),
            satisfaction=None if region_weights is None else weighted_bmr(bmrs, region_weights),
        ),
        long_term_revenue=float(long_term[0]),
        long_term_available_on=day + horizon.delta_long_days,
    )
    return record, float(sessions.engagement[0]), bmrs


def estimate_dvwpx_region_weights(
    world: World, config: ExperimentConfig
) -> RegionWeights:
    """Fit the causal model on a randomized warm-up panel and derive weights."""
    panel = simulate_panel(
        world, config.weight_panel_events, RANDOMIZED, seed=config.seed + 7_000_003
    )
    model = estimate_dvwpx(
        panel, DmlConfig(seed=config.seed, stage2=config.weight_stage2), config.horizon
    )
    return derive_region_weights(model, X_COLUMNS)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every arm day by day and assemble the comparison report.

    The first arm in the config is the baseline all lifts are measured
    against. Reported means cover post-warmup days (all days when the config
    has none).
    """
    world = generate_world(config.world)
    cfg = config.world
    seed = config.seed

    dvwpx_weights = None
    if any(arm.satisfaction_mode == SATISFACTION_DVWPX for arm in config.arms):
        dvwpx_weights = estimate_dvwpx_region_weights(world, config)

    ctr_weights = CTR_REGION_WEIGHTS
    if config.reestimate_ctr_weights and any(
        arm.satisfaction_mode == SATISFACTION_CTR for arm in config.arms
    ):
        ctr_weights = estimate_ctr_region_weights(
            world, config.ctr_weight_sessions, seed + 3_000_017
        )

    arm_region_weights = {
        arm.name: _region_weights_for(arm, dvwpx_weights, ctr_weights)
        for arm in config.arms
    }
    bundles: dict[str, RankerBundle] = {}
    for arm in config.arms:
        bundles[arm.name] = new_bundle(
            categories=world.categories,
            signal_names=world.signal_names,
            reward=_initial_reward(arm),
            region_weights=arm_region_weights[arm.name],
            with_satisfaction=arm.satisfaction_mode != SATISFACTION_NONE,
            prior_variance=config.prior_variance,
        )

    n_templates = len(world.templates)
    warmup_log: dict[str, list[ImpressionRecord]] = {arm.name: [] for arm in config.arms}
    metric_rows: dict[str, dict[str, list[float]]] = {
        arm.name: {m: [] for m in METRIC_NAMES} for arm in config.arms
    }
    warmup_metric_rows: dict[str, dict[str, list[float]]] = {
        arm.name: {m: [] for m in METRIC_NAMES} for arm in config.arms
    }
    per_day: list[dict[str, Any]] = []
    audit: list[dict[str, Any]] = []

    for day in range(1, config.days + 1):
        warmup = day <= config.warmup_days
        day_logs: dict[str, list[ImpressionRecord]] = {
            arm.name: [] for arm in config.arms
        }
        day_metrics: dict[str, dict[str, list[float]]] = {
            arm.name: {m: [] for m in METRIC_NAMES} for arm in config.arms
        }
        for s in range(config.sessions_per_day):
            base = stream(seed, "exp_session", day, s)
            ci = int(base.integers(0, cfg.n_customers))
            qi = int(base.integers(0, cfg.n_queries))
            device = Device.MOBILE if base.random() < cfg.mobile_fraction else Device.DESKTOP
            warmup_choice = int(base.integers(0, n_templates))
            available = draw_availability(world, base)
            context = request_context(world, qi, device, int(world.customers.membership[ci]))
            for arm in config.arms:
                if warmup:
                    ti = warmup_choice
                else:
                    chosen, _ = select_template(
                        context,
                        world.templates,
                        bundles[arm.name],
                        stream(seed, "exp_thompson", arm.name, day, s),
                    )
                    ti = world.templates.index(chosen)
                record, engagement, bmrs = serve_page(
                    world,
                    ci,
                    qi,
                    ti,
                    available,
                    context,
                    day,
                    config.horizon,
                    arm_region_weights[arm.name],
                    stream(seed, "exp_outcome", day, s),
                    stream(seed, "exp_longterm", day, s),
                )
                day_logs[arm.name].append(record)
                rows = day_metrics[arm.name]
                rows["revenue"].append(record.targets.revenue)
                rows["long_term_revenue"].append(record.long_term_revenue)
                rows["ctr"].append(engagement / world.n_slots)
                rows["pr_wp_bmr"].append(weighted_bmr(bmrs, CTR_REGION_WEIGHTS))

        for arm in config.arms:
            log = day_logs[arm.name]
            consumed_max = max(r.ts for r in log)
            embargo_min = min(r.long_term_available_on for r in log)
            if consumed_max > day:
                raise InvariantViolation(
                    f"arm {arm.name} day {day}: training would consume an outcome "
                    f"available only on day {consumed_max}"
                )
            audit.append(
                {
                    "day": day,
                    "arm": arm.name,
                    "rows": len(log),
                    "consumed_max_availability": consumed_max,
                    "long_term_min_availability": embargo_min,
                    "long_term_embargoed": embargo_min > day,
                }
            )
            rev = np.array([r.targets.revenue for r in log])
            sat = (
                None
                if arm_region_weights[arm.name] is None
                else np.array([r.targets.satisfaction for r in log])
            )
            bundle = with_noise_variances(
                bundles[arm.name],
                max(float(rev.var()), NOISE_VARIANCE_FLOOR),
                None if sat is None else max(float(sat.var()), NOISE_VARIANCE_FLOOR),
            )
            bundles[arm.name] = incremental_retrain(
                bundle, log, rng=stream(seed, "exp_retrain", arm.name, day)
            )
            target = warmup_metric_rows if warmup else metric_rows
            for m in METRIC_NAMES:
                target[arm.name][m].extend(day_metrics[arm.name][m])
            if warmup:
                warmup_log[arm.name].extend(log)
            per_day.append(
                {
                    "day": day,
                    "arm": arm.name,
                    "warmup": warmup,
                    "n_sessions": len(log),
                    **{
                        m: float(np.mean(day_metrics[arm.name][m]))
                        for m in METRIC_NAMES
                    },
                }
            )

        if day == config.warmup_days:
            for arm in config.arms:
                bundles[arm.name] = replace(
                    bundles[arm.name],
                    reward=frozen_reward(
                        arm.reward_weights,
                        warmup_log[arm.name],
                        arm.satisfaction_mode != SATISFACTION_NONE,
                    ),
                )

    # no post-warmup days: fall back to the warmup window for reporting
    if config.days == config.warmup_days:
        metric_rows = warmup_metric_rows
    arm_logs: dict[str, MetricLog] = {
        name: {m: np.array(v) for m, v in rows.items() if len(v) > 0}
        for name, rows in metric_rows.items()
    }

    arm_means = {
        name: {m: float(v.mean()) for m, v in log.items()}
        for name, log in arm_logs.items()
    }
    baseline = config.arms[0].name
    lifts: list[LiftRow] = []
    for arm in config.arms[1:]:
        lifts.extend(
            ab_compare(
                arm_logs[baseline],
                arm_logs[arm.name],
                bootstrap_n=config.bootstrap_n,
                seed=stream_seed_for(config.seed, arm.name),
                baseline=baseline,
                treatment=arm.name,
            )
        )

    return ExperimentReport(
        config_echo=experiment_config_to_dict(config),
        arm_means=arm_means,
        lifts=tuple(lifts),
        per_day=tuple(per_day),
        audit=tuple(audit),
        region_weights={
            name: None if rw is None else rw.as_tuple()
            for name, rw in arm_region_weights.items()
        },
    )


def stream_seed_for(seed: int, label: str) -> int:
    """Stable derived seed for a named sub-computation."""
    return int(stream(seed, "derived_seed", label).integers(0, 2**63 - 1))


def world_config_to_dict(config: WorldConfig) -> dict[str, Any]:
    from dataclasses import asdict

    out = asdict(config)
    for key in ("true_region_effects", "fixed_effect_scales", "history_effects"):
        out[key] = list(out[key])
    return out


def world_config_from_dict(payload: dict[str, Any]) -> WorldConfig:
    kwargs = dict(payload)
    for key in ("true_region_effects", "fixed_effect_scales", "history_effects"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return WorldConfig(**kwargs)


def experiment_config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    return {
        "world": world_config_to_dict(config.world),
        "arms": [
            {
                "name": arm.name,
                "satisfaction_mode": arm.satisfaction_mode,
                "reward_weights": dict(arm.reward_weights),
            }
            for arm in config.arms
        ],
        "days": config.days,
        "sessions_per_day": config.sessions_per_day,
        "warmup_days": config.warmup_days,
        "seed": config.seed,
        "weight_panel_events": config.weight_panel_events,
        "weight_stage2": config.weight_stage2,
        "bootstrap_n": config.bootstrap_n,
        "prior_variance": config.prior_variance,
        "horizon": {
            "delta_short_days": config.horizon.delta_short_days,
            "delta_long_days": config.horizon.delta_long_days,
        },
        "reestimate_ctr_weights": config.reestimate_ctr_weights,
        "ctr_weight_sessions": config.ctr_weight_sessions,
    }


def experiment_config_from_dict(payload: dict[str, Any]) -> ExperimentConfig:
    horizon = payload.get("horizon")
    return ExperimentConfig(
        world=world_config_from_dict(payload["world"]),
        arms=tuple(
            ArmConfig(
                name=a["name"],
                satisfaction_mode=a["satisfaction_mode"],
                reward_weights=a["reward_weights"],
            )
            for a in payload["arms"]
        ),
        days=payload["days"],
        sessions_per_day=payload["sessions_per_day"],
        warmup_days=payload["warmup_days"],
        seed=payload["seed"],
        weight_panel_events=payload.get("weight_panel_events", 8000),
        weight_stage2=payload.get("weight_stage2", "ols"),
        bootstrap_n=payload.get("bootstrap_n", 1000),
        prior_variance=payload.get("prior_variance", 1.0),
        horizon=(
            HorizonConfig()
            if horizon is None
            else HorizonConfig(
                delta_short_days=horizon["delta_short_days"],
                delta_long_days=horizon["delta_long_days"],
            )
        ),
        reestimate_ctr_weights=payload.get("reestimate_ctr_weights", False),
        ctr_weight_sessions=payload.get("ctr_weight_sessions", 2000),
    )


REPORT_SCHEMA_VERSION = 1


def report_to_dict(report: ExperimentReport) -> dict[str, Any]:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "experiment_report",
        "config": report.config_echo,
        "arm_means": report.arm_means,
        "lifts": [
            {
                "baseline": r.baseline,
                "treatment": r.treatment,
                "metric": r.metric,
                "lift": r.lift,
                "ci_low": r.ci_low,
                "ci_high": r.ci_high,
            }
            for r in report.lifts
        ],
        "per_day": list(report.per_day),
        "audit": list(report.audit),
        "region_weights": {
            name: None if rw is None else list(rw)
            for name, rw in report.region_weights.items()
        },
    }


def report_from_dict(payload: dict[str, Any]) -> ExperimentReport:
    if payload.get("kind") != "experiment_report":
        raise DomainError(f"not a report payload: kind={payload.get('kind')!r}")
    return ExperimentReport(
        config_echo=payload["config"],
        arm_means=payload["arm_means"],
        lifts=tuple(
            LiftRow(
                baseline=r["baseline"],
                treatment=r["treatment"],
                metric=r["metric"],
                lift=r["lift"],
                ci_low=r["ci_low"],
                ci_high=r["ci_high"],
            )
            for r in payload["lifts"]
        ),
        per_day=tuple(payload["per_day"]),
        audit=tuple(payload["audit"]),
        region_weights={
            name: None if rw is None else tuple(rw)
            for name, rw in payload["region_weights"].items()
        },
    )


def report_json(report: ExperimentReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def save_report(report: ExperimentReport, path: str | Path) -> None:
    Path(path).write_text(report_json(report))


def load_report(path: str | Path) -> ExperimentReport:
    return report_from_dict(json.loads(Path(path).read_text()))


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
