"""experiment: the stock three-arm comparison, 8 days x 400 sessions per arm.

Mixes the bandit's reads and writes, session simulation and a small
estimate (the 8,000-event weight panel), so a gain in one layer that costs
another shows here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from wpxlab.dml import pipeline
from wpxlab.harness import experiment as harness
from wpxlab.metrics import CTR_REGION_WEIGHTS
from wpxlab.sim import panel as sim_panel
from wpxlab.sim import world as sim_world

import checks
from bench import Round, median, rate

#: Size of the independent panel whose standard errors size the t2-weight
#: tolerance; they are scaled to the harness's panel size by sqrt(n).
SE_PANEL_EVENTS = 2000


@dataclass
class State:
    seed: int
    config: harness.ExperimentConfig
    world: sim_world.World
    weight_tolerance: np.ndarray | None = None


def setup(seed: int) -> State:
    config = harness.default_experiment_config(seed)
    return State(seed, config, sim_world.generate_world(config.world))


def teardown(state: State) -> None:
    pass


def arm_sessions(config: harness.ExperimentConfig) -> int:
    return len(config.arms) * config.days * config.sessions_per_day


#: 3 arms x 8 days x 400 sessions; the stock size does not depend on the seed.
ARM_SESSIONS = arm_sessions(harness.default_experiment_config())


def run_round(state: State, index: int, tracer=None) -> Round:
    r = Round(attempted=1)
    try:
        t0 = time.perf_counter()
        report = harness.run_experiment(state.config)
        r.sample("experiment_s", time.perf_counter() - t0)
    except Exception:
        r.operation_failed("run_experiment")
        return r
    r.check(_report_checks, state, report)
    return r


def planted_weights(world) -> np.ndarray:
    effects = np.maximum(np.asarray(world.config.true_region_effects, dtype=float), 0.0)
    return effects / effects.sum()


def _weight_tolerance(state: State) -> np.ndarray:
    """Tolerance on t2's weights from the standard errors of an estimate on an
    independent randomized panel, scaled to the harness's panel size."""
    if state.weight_tolerance is None:
        panel = sim_panel.simulate_panel(
            state.world, SE_PANEL_EVENTS, sim_panel.RANDOMIZED, seed=state.seed * 1_000_003 + 17
        )
        est = pipeline.estimate_dvwpx(panel, pipeline.DmlConfig(seed=state.seed)).estimate
        se = est.stderr_beta * np.sqrt(SE_PANEL_EVENTS / state.config.weight_panel_events)
        state.weight_tolerance = checks.weight_tolerance(se, state.world.config.true_region_effects)
    return state.weight_tolerance


def _report_checks(state: State, report) -> list[str]:
    return checks.experiment_report(
        report,
        state.config,
        planted_weights(state.world),
        _weight_tolerance(state),
        CTR_REGION_WEIGHTS.as_tuple(),
    )


def summarize(samples: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    """latency: one experiment; items: arm-sessions simulated and served."""
    return {
        "latency_ms": (median(samples["experiment_s"]) * 1e3, "ms"),
        "items_per_s": (rate(ARM_SESSIONS, samples["experiment_s"]), "items/s"),
    }
