"""estimate: OLS-stage DML on a 2x10^5-row planted panel, over several fold seeds.

De-averaging, cross-fitting and the linear fits do all the work; the
simulator does none, so a simulator change should leave this flat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from wpxlab.dml import pipeline
from wpxlab.dml.deaverage import deaverage

import checks
import inputs
from bench import Round, median, rate

#: DmlConfig seeds fitted per round (they redraw the train/test and fold splits).
DML_SEEDS = (0, 1, 2)


@dataclass
class State:
    seed: int
    panel: object


def setup(seed: int) -> State:
    return State(seed, inputs.estimate_panel(seed))


def teardown(state: State) -> None:
    pass


def run_round(state: State, index: int, tracer=None) -> Round:
    r = Round(attempted=len(DML_SEEDS))
    for dml_seed in DML_SEEDS:
        try:
            t0 = time.perf_counter()
            model = pipeline.estimate_dvwpx(state.panel, pipeline.DmlConfig(seed=dml_seed))
            r.sample("estimate_s", time.perf_counter() - t0)
        except Exception:
            r.operation_failed(f"estimate_dvwpx seed {dml_seed}")
            continue
        r.check(_model_checks, model.estimate)
    if index == 0:
        r.check(_deaveraged_means, state.panel)
    return r


def _model_checks(est) -> list[str]:
    d = est.diagnostics
    return (
        checks.planted_recovery(est.beta, est.stderr_beta, inputs.PLANTED_BETA, "estimate beta")
        + checks.reported_group_means(d)
        + checks.rmse_near_sigma(d["test_rmse"], inputs.NOISE_SIGMA, d["n_test"])
    )


def _deaveraged_means(panel) -> list[str]:
    """Group means of the de-averaged blocks, recomputed here."""
    stacked = np.column_stack([panel.drev, panel.x, panel.m, panel.h])
    keys = [panel.query_group, panel.zip_code]
    out, _ = deaverage(stacked, keys, pipeline.DmlConfig().deaverage_iterations)
    return checks.group_means(out, keys)


def summarize(samples: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    """latency: one estimate; items: panel rows estimated."""
    return {
        "latency_ms": (median(samples["estimate_s"]) * 1e3, "ms"),
        "items_per_s": (rate(inputs.ESTIMATE_ROWS, samples["estimate_s"]), "items/s"),
    }
