"""Command-line front end.

Five subcommands cover the workflow end to end: ``simulate`` writes a logged
event panel, ``estimate`` fits the causal model on it, ``rank`` does a
one-shot template selection for a context, ``experiment`` runs the
three-arm comparison, and ``report`` re-renders a saved report. Exit codes:
0 success, 1 usage, domain or file-system error (or a closed stdout), 2
estimation failure (de-averaging that does not converge included), 3
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Any

import numpy as np

from ..bandit.ranker import (
    NON_ABANDONMENT,
    REVENUE,
    frozen_reward,
    incremental_retrain,
    new_bundle,
    select_template,
)
from ..dml.panel import read_panel_csv, write_panel_csv
from ..dml.pipeline import DmlConfig, derive_region_weights, estimate_dvwpx
from ..domain import ContextFeatures, Device
from ..errors import DomainError, EstimationError, InvariantViolation
from ..rng import stream
from ..sim.panel import CONFOUNDED, RANDOMIZED, X_COLUMNS, simulate_panel
from ..sim.session import serve_pages
from ..sim.world import WorldConfig, generate_world
from .experiment import (
    SATISFACTION_DVWPX,
    SATISFACTION_NONE,
    ArmConfig,
    ExperimentConfig,
    config_from_json,
    config_to_json,
    default_experiment_config,
    draw_sessions,
    field_from_json,
    load_report,
    region_weights_for,
    render_report,
    request_table,
    run_experiment,
    same_day_targets,
    save_report,
    write_per_day_csv,
)

# the `arm` a context file leaves out
RANK_ARM = {
    "name": "rank",
    "satisfaction_mode": SATISFACTION_NONE,
    "reward_weights": {REVENUE: 0.5, NON_ABANDONMENT: 0.2},
}

OK = 0
USAGE_ERROR = 1
ESTIMATION_FAILURE = 2
INVARIANT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; usage errors here are exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _load_json(path: str, what: str) -> dict[str, Any]:
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise DomainError(f"{what} not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"{what} is not valid JSON: {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DomainError(f"{what} must be a JSON object: {path}")
    return payload


def _take(cfg: dict[str, Any], key: str, kind: Any, default: Any) -> Any:
    """Remove ``key`` from the config and read it as ``kind``, or ``default``
    when it is absent. Each command takes its keys, then `_reject_rest`."""
    if key not in cfg:
        return default
    return field_from_json(kind, cfg.pop(key), f"config.{key}")


def _reject_rest(cfg: dict[str, Any]) -> None:
    if cfg:
        raise DomainError(f"config has unknown fields {sorted(cfg)}")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config, "config file") if args.config else {}
    seed = 0 if args.seed is None else args.seed
    world_cfg = _take(cfg, "world", WorldConfig, WorldConfig(seed=seed))
    n_events = _take(cfg, "n_events", int, 20_000)
    policy = _take(cfg, "policy", str, CONFOUNDED)
    event_seed = _take(cfg, "event_seed", int, world_cfg.seed if args.seed is None else seed)
    _reject_rest(cfg)
    if policy not in (CONFOUNDED, RANDOMIZED):
        raise DomainError(f"policy must be '{CONFOUNDED}' or '{RANDOMIZED}', got {policy!r}")
    out = _out_dir(args)

    world = generate_world(world_cfg)
    panel = simulate_panel(world, n_events, policy, event_seed)
    write_panel_csv(panel, out / "panel.csv")
    (out / "world.json").write_text(
        json.dumps(
            {
                "world": config_to_json(world_cfg),
                "policy": policy,
                "n_events": n_events,
                "event_seed": event_seed,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {panel.n_rows} events under policy {policy} to {out / 'panel.csv'}")
    return OK


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config, "config file") if args.config else {}
    panel_path = Path(_take(cfg, "panel", str, str(Path(args.out) / "panel.csv")))
    # the rest is a DmlConfig, whose seed only --seed sets
    if "seed" in cfg:
        raise DomainError("config has unknown fields ['seed']; set the seed with --seed")
    flags = {"stage2": args.stage2, "seed": args.seed}
    dml_cfg = replace(
        config_from_json(DmlConfig, cfg, "config"),
        **{k: v for k, v in flags.items() if v is not None},
    )
    if not panel_path.exists():
        raise DomainError(f"no panel at {panel_path}; run `simulate` first or set 'panel'")
    out = _out_dir(args)
    panel = read_panel_csv(panel_path)

    model = estimate_dvwpx(panel, dml_cfg)
    weights = derive_region_weights(model, X_COLUMNS)
    est = model.estimate

    stderr = None  # a LASSO stage 2 has no standard error
    if est.stderr_beta is not None:
        stderr = dict(zip(panel.x_names, map(float, est.stderr_beta)))
    lines = ["coefficient            beta    stderr"]
    for name, b in zip(panel.x_names, est.beta):
        se = "-" if stderr is None else f"{stderr[name]:.4f}"
        lines.append(f"{name:<18}{b:>10.4f}{se:>10}")
    for name, t in zip(panel.m_names, est.theta):
        lines.append(f"{name:<18}{t:>10.4f}{'':>10}")
    for name, g in zip(panel.h_names, est.gamma):
        lines.append(f"{name:<18}{g:>10.4f}{'':>10}")
    if est.lambda_selected is not None:
        lines.append(f"lambda_selected   {est.lambda_selected:>10.6f}")
    w = weights.as_tuple()
    lines.append(f"region weights    ({w[0]:.4f}, {w[1]:.4f}, {w[2]:.4f})")
    print("\n".join(lines))

    (out / "estimate.json").write_text(
        json.dumps(
            {
                "beta": dict(zip(panel.x_names, map(float, est.beta))),
                "stderr_beta": stderr,
                "theta": dict(zip(panel.m_names, map(float, est.theta))),
                "gamma": dict(zip(panel.h_names, map(float, est.gamma))),
                "lambda_selected": est.lambda_selected,
                "region_weights": list(w),
                "stage2": dml_cfg.stage2,
                "diagnostics": est.diagnostics,
            },
            indent=2,
            sort_keys=True,
            default=float,
        )
        + "\n"
    )
    return OK


def _train_rank_bundle(world, arm: ArmConfig, n_sessions: int, seed: int):
    """Fit a quick bundle on uniformly served sessions so `rank` has posteriors:
    one warm-up day of `draw_sessions` under a label no experiment day uses,
    each session's served row gathered from `request_table`."""
    if arm.satisfaction_mode == SATISFACTION_DVWPX:
        raise DomainError("rank supports satisfaction modes 'none' and 'ctr'; run `experiment` for dvwpx arms")
    region_weights = region_weights_for(arm, None)
    if n_sessions < 1:
        raise DomainError("warmup_sessions must be >= 1")

    ci, qi, mobile, ti, available, u, z = draw_sessions(world, seed, "rank", n_sessions)
    targets = same_day_targets(serve_pages(world, ci, qi, ti, available, u, z), region_weights)

    bundle = new_bundle(
        categories=world.categories,
        signal_names=world.signal_names,
        reward=frozen_reward(arm.reward_weights, targets),
        region_weights=region_weights,
        with_satisfaction=region_weights is not None,
    )
    members = world.customers.membership[ci]
    rows = request_table(world)[mobile.astype(np.intp), qi, members, ti]
    return incremental_retrain(
        bundle, (rows, mobile, targets), sample_fraction=1.0, rng=stream(seed, "rank_retrain")
    )


def cmd_rank(args: argparse.Namespace) -> int:
    if not args.config:
        raise DomainError("rank needs --config pointing at a context file")
    cfg = _load_json(args.config, "context file")
    seed = _take(cfg, "seed", int, 0)
    seed = seed if args.seed is None else args.seed
    world_cfg = _take(cfg, "world", WorldConfig, WorldConfig(seed=seed))
    qi = _take(cfg, "query_index", int, None)
    candidate_ids = _take(cfg, "templates", tuple[str, ...], None)
    n_sessions = _take(cfg, "warmup_sessions", int, 400)
    arm = config_from_json(ArmConfig, cfg.pop("arm", {}), "config.arm", RANK_ARM)
    given = {f.name: cfg.pop(f.name) for f in fields(ContextFeatures) if f.name in cfg}
    _reject_rest(cfg)

    world = generate_world(world_cfg)
    query = {}
    if qi is not None:
        # the query's own context, which any context key given overrides
        if not 0 <= qi < world.config.n_queries:
            raise DomainError(f"query_index out of range: {qi}")
        query = {
            "device": Device.DESKTOP,
            "query_specificity": world.queries[qi].specificity,
            "category_id": world.queries[qi].category_id,
            "membership": 0,
            "content_signals": {
                t.template_id: tuple(world.content_signals[qi, ti])
                for ti, t in enumerate(world.templates)
            },
        }
    context = config_from_json(ContextFeatures, given, "config", query)
    by_id = {t.template_id: t for t in world.templates}
    candidate_ids = list(by_id) if candidate_ids is None else candidate_ids
    unknown = [t for t in candidate_ids if t not in by_id]
    if unknown:
        raise DomainError(f"unknown template ids: {unknown}")
    repeated = sorted({t for t in candidate_ids if candidate_ids.count(t) > 1})
    if repeated:
        raise DomainError(f"repeated template ids: {repeated}")
    candidates = [by_id[t] for t in candidate_ids]
    out = None if args.out is None else _out_dir(args)
    bundle = _train_rank_bundle(world, arm, n_sessions, seed)
    chosen, scores = select_template(
        context, candidates, bundle, stream(seed, "rank_select")
    )

    lines = [f"chosen template: {chosen.template_id}", "candidate scores"]
    for sc in scores:
        marker = " *" if sc.chosen else ""
        lines.append(f"  {sc.template_id:<16}{sc.score:>10.4f}{marker}")
    print("\n".join(lines))

    if out is not None:
        (out / "rank.json").write_text(
            json.dumps(
                {
                    "chosen": chosen.template_id,
                    "scores": [
                        {
                            "template_id": sc.template_id,
                            "score": sc.score,
                            "samples": dict(sc.samples),
                            "chosen": sc.chosen,
                        }
                        for sc in scores
                    ],
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    return OK


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        config = config_from_json(
            ExperimentConfig, _load_json(args.config, "config file"), "config"
        )
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    else:
        config = default_experiment_config(seed=args.seed if args.seed is not None else 0)
    if args.arms is not None:
        names = [n.strip() for n in args.arms.split(",") if n.strip()]
        known = {arm.name for arm in config.arms}
        unknown = [n for n in names if n not in known]
        if unknown:
            raise DomainError(f"unknown arms: {unknown}; config has {sorted(known)}")
        config = replace(
            config, arms=tuple(arm for arm in config.arms if arm.name in names)
        )
    if args.days is not None:
        config = replace(config, days=args.days)
    return config


def cmd_experiment(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    out = _out_dir(args)
    report = run_experiment(config)
    save_report(report, out / "report.json")
    write_per_day_csv(report, out / "per_day.csv")
    print(render_report(report), end="")
    print(f"report: {out / 'report.json'}")
    return OK


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.config) if args.config else Path(args.out) / "report.json"
    if not path.exists():
        raise DomainError(f"no report at {path}")
    try:
        report = load_report(path)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"malformed report {path}: {exc}") from exc
    print(render_report(report), end="")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wpxlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, fn, help_text: str, out_default=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument(
            "--out",
            default=out_default,
            help="output directory" + ("" if out_default is None else f" (default {out_default})"),
        )
        p.set_defaults(fn=fn)
        return p

    add("simulate", cmd_simulate, "generate a world and emit a logged event panel", "out")
    p_est = add("estimate", cmd_estimate, "fit the causal model on a panel", "out")
    p_est.add_argument(
        "--stage2", choices=("ols", "lasso"), default=None, help="second-stage fit"
    )
    p_rank = add("rank", cmd_rank, "one-shot template selection for a context file")
    p_exp = add("experiment", cmd_experiment, "run the multi-arm comparison", "out")
    p_exp.add_argument("--arms", default=None, help="comma-separated arm subset")
    p_exp.add_argument("--days", type=int, default=None, help="override day count")
    add("report", cmd_report, "re-render a saved report", "out")
    # rank only writes when asked to
    p_rank.set_defaults(out=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`wpxlab rank ... | head -1`): point it
        # at devnull so the interpreter's exit flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except EstimationError as exc:
        print(f"estimation failure: {exc}", file=sys.stderr)
        return ESTIMATION_FAILURE
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
