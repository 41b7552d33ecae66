"""serve: a closed loop of template selections with nightly retrains, then a
cold start of ``wpxlab rank``.

One client sends a ``select_template`` request (6 candidates, desktop and
mobile mixed) only after the previous one returns. After each day of
requests the bundle retrains on that day's impressions, so both the read
path and the write path of the posteriors are timed. The CLI cold start is
the one latency a command-line user waits for.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wpxlab.bandit import ranker
from wpxlab.domain import Device, PageLayout
from wpxlab.metrics import CTR_REGION_WEIGHTS
from wpxlab.sim import world as sim_world

import checks
import inputs
from bench import OUT, ROOT, Round, child_env, median, percentile, rate

DAY_REQUESTS = 1000
WARMUP_IMPRESSIONS = 400
PRIOR_VARIANCE = 1.0
NOISE_VARIANCE_FLOOR = 1e-6
REWARD_WEIGHTS = {ranker.REVENUE: 0.5, ranker.NON_ABANDONMENT: 0.2, ranker.SATISFACTION: 0.3}
CLI_CHILD = Path(__file__).resolve().parent.parent / "cli_child.py"


@dataclass
class State:
    seed: int
    world: sim_world.World
    candidates: list[PageLayout]
    bundle: ranker.RankerBundle
    tmp: Path


def _targets(log, name: str) -> np.ndarray:
    return np.array([float(getattr(rec.targets, name)) for rec in log])


def _noise_tuned(bundle, log):
    return ranker.with_noise_variances(
        bundle,
        max(float(_targets(log, ranker.REVENUE).var()), NOISE_VARIANCE_FLOOR),
        max(float(_targets(log, ranker.SATISFACTION).var()), NOISE_VARIANCE_FLOOR),
    )


def _retrain_rng(seed: int, day: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0x7E7, day])


def setup(seed: int) -> State:
    world = sim_world.generate_world(sim_world.WorldConfig(seed=seed))
    log = inputs.impressions(world, seed, 0, WARMUP_IMPRESSIONS)
    stats = {
        name: ranker.ObjectiveStats(float(v.mean()), max(float(v.std()), 1e-6))
        for name in REWARD_WEIGHTS
        for v in [_targets(log, name)]
    }
    bundle = ranker.new_bundle(
        categories=world.categories,
        signal_names=world.signal_names,
        reward=ranker.RewardWeights(weights=REWARD_WEIGHTS, stats=stats),
        region_weights=CTR_REGION_WEIGHTS,
        with_satisfaction=True,
        prior_variance=PRIOR_VARIANCE,
    )
    bundle = ranker.incremental_retrain(
        _noise_tuned(bundle, log), log, sample_fraction=1.0, rng=_retrain_rng(seed, 0)
    )
    tmp = OUT / f"tmp-serve-{seed}"
    tmp.mkdir(parents=True, exist_ok=True)
    candidates = [PageLayout(template_id=t.template_id, slots=()) for t in world.templates]
    return State(seed, world, candidates, bundle, tmp)


def teardown(state: State) -> None:
    shutil.rmtree(state.tmp, ignore_errors=True)


def run_round(state: State, index: int, tracer=None) -> Round:
    day = index + 1
    world = state.world
    reqs = inputs.requests(world, state.seed, day, DAY_REQUESTS)
    template_index = {t.template_id: i for i, t in enumerate(world.templates)}
    rng = np.random.default_rng([state.seed, 0x5E1, day])
    bundle = state.bundle
    r = Round(attempted=DAY_REQUESTS + 2)
    day_log = []
    served_rows = []
    for i, context in enumerate(reqs.contexts):
        try:
            t0 = time.perf_counter()
            chosen, scores = ranker.select_template(context, state.candidates, bundle, rng)
            r.sample("select_us", (time.perf_counter() - t0) * 1e6)
        except Exception:
            r.operation_failed("select_template")
            continue
        mobile = context.device is Device.MOBILE
        r.check(checks.selection, chosen.template_id, scores, bundle.reward, mobile)
        ti = template_index[chosen.template_id]
        day_log.append(inputs.record(world, reqs, i, ti, day))
        served_rows.append(reqs.features[i, ti])

    try:
        rev_var = float(_targets(day_log, ranker.REVENUE).var())
        sat_var = float(_targets(day_log, ranker.SATISFACTION).var())
        t0 = time.perf_counter()
        tuned = ranker.with_noise_variances(
            bundle, max(rev_var, NOISE_VARIANCE_FLOOR), max(sat_var, NOISE_VARIANCE_FLOOR)
        )
        retrained = ranker.incremental_retrain(
            tuned, day_log, sample_fraction=1.0, rng=_retrain_rng(state.seed, day)
        )
        r.sample("retrain_s", time.perf_counter() - t0)
        state.bundle = retrained
        r.check(_retrain_checks, tuned, retrained, np.array(served_rows), day_log)
    except Exception:
        r.operation_failed("incremental_retrain")

    _rank_cold_start(state, day, r, tracer)
    return r


def _retrain_checks(tuned, retrained, X: np.ndarray, day_log) -> list[str]:
    problems = []
    for name in (ranker.REVENUE, ranker.SATISFACTION):
        problems += checks.batch_posterior(
            tuned.model_for(name), retrained.model_for(name), X, _targets(day_log, name), name
        )
    prior = PRIOR_VARIANCE
    final = retrained.non_abandonment_model.posterior.cov
    problems += checks.probit_variances(final, prior, "after the day's retrain")
    if np.any(final > tuned.non_abandonment_model.posterior.cov):
        problems.append("a probit variance grew over the day's retrain")
    # every single ADF step: feed the desktop impressions one at a time
    step = tuned
    for k, rec in enumerate(day_log):
        if rec.context.device is not Device.DESKTOP:
            continue
        step = ranker.incremental_retrain(step, [rec], sample_fraction=1.0, rng=_retrain_rng(0, k))
        found = checks.probit_variances(
            step.non_abandonment_model.posterior.cov, prior, f"after ADF update {k}"
        )
        if found:
            return problems + found
    return problems


def _rank_cold_start(state: State, day: int, r: Round, tracer) -> None:
    query_index = day % state.world.config.n_queries
    config = state.tmp / f"rank-{day}.json"
    config.write_text(
        json.dumps(
            {
                "world": {"seed": state.seed},
                "query_index": query_index,
                "device": "mobile" if day % 2 else "desktop",
            }
        )
    )
    args = ["rank", "--config", str(config), "--seed", str(state.seed)]
    stats_path = state.tmp / f"rank-{day}-trace.json"
    if tracer is None:
        cmd = [sys.executable, "-m", "wpxlab.harness.cli", *args]
    else:
        cmd = [sys.executable, str(CLI_CHILD), str(stats_path), *args]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        r.failed += 1
        print(f"operation failed: wpxlab rank exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return
    r.sample("rank_cli_s", elapsed)
    r.check(checks.rank_output, proc.stdout)
    if tracer is not None:
        child = json.loads(stats_path.read_text())
        tracer.add_external(child["layers"], child["covered_s"])


def summarize(samples: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    """latency: one selection; items: impressions retrained on."""
    select = samples["select_us"]
    # the tail moves by a quarter or more from run to run on a shared machine,
    # and the cold start is mostly the import that setup_s already times, so
    # both are reference figures, not gated metrics
    print(
        f"reference: select.p99_us {percentile(select, 99.0):.1f} over {len(select)} requests; "
        f"rank_cli.p50_s {median(samples['rank_cli_s']):.3f} over {len(samples['rank_cli_s'])} cold starts",
        file=sys.stderr,
    )
    return {
        "latency_ms": (median(select) / 1e3, "ms"),
        "items_per_s": (rate(DAY_REQUESTS, samples["retrain_s"]), "items/s"),
    }
