"""simulate: a 20k-event confounded panel, then its CSV round trip.

Per-event simulator work dominates; the estimator barely runs (only in the
checks), so a faster simulator shows here and nowhere else.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from wpxlab.dml import pipeline
from wpxlab.dml import panel as dml_panel
from wpxlab.sim import panel as sim_panel
from wpxlab.sim import world as sim_world

import checks
from bench import OUT, Round, median, rate

N_EVENTS = 20_000
#: CSV round trips per simulated panel; one takes about half a second, so
#: several give the median enough samples.
CSV_REPEATS = 5


@dataclass
class State:
    seed: int
    world: sim_world.World
    tmp: Path


def setup(seed: int) -> State:
    tmp = OUT / f"tmp-simulate-{seed}"
    tmp.mkdir(parents=True, exist_ok=True)
    return State(seed, sim_world.generate_world(sim_world.WorldConfig(seed=seed)), tmp)


def teardown(state: State) -> None:
    shutil.rmtree(state.tmp, ignore_errors=True)


def run_round(state: State, index: int, tracer=None) -> Round:
    r = Round(attempted=1 + CSV_REPEATS)
    try:
        t0 = time.perf_counter()
        panel = sim_panel.simulate_panel(
            state.world, N_EVENTS, sim_panel.CONFOUNDED, seed=state.seed * 1_000_003 + index
        )
        r.sample("simulate_s", time.perf_counter() - t0)
    except Exception:
        r.operation_failed("simulate_panel")
        r.failed += CSV_REPEATS  # the round trips have no panel to write
        return r
    path = state.tmp / "panel.csv"
    for _ in range(CSV_REPEATS):
        try:
            t0 = time.perf_counter()
            dml_panel.write_panel_csv(panel, path)
            reread = dml_panel.read_panel_csv(path)
            r.sample("csv_s", time.perf_counter() - t0)
        except Exception:
            r.operation_failed("panel CSV round trip")
            continue
        r.check(checks.csv_round_trip, panel, reread)
    world = state.world
    r.check(checks.panel_invariants, panel, world.customers.history, N_EVENTS, world.n_slots)
    r.check(_recovery, panel, world.config.true_region_effects)
    return r


def _recovery(panel, planted) -> list[str]:
    """DML recovers the planted region effects; naive OLS does not."""
    est = pipeline.estimate_dvwpx(panel, pipeline.DmlConfig()).estimate
    problems = checks.planted_recovery(est.beta, est.stderr_beta, planted, "simulate DML")
    naive_beta, _ = pipeline.naive_ols(panel)
    return problems + checks.naive_biased(naive_beta, planted, checks.K_SE * est.stderr_beta)


def summarize(samples: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    """latency: one 20k-event panel; items: panel rows through the CSV round trip."""
    return {
        "latency_ms": (median(samples["simulate_s"]) * 1e3, "ms"),
        "items_per_s": (rate(N_EVENTS, samples["csv_s"]), "items/s"),
    }
