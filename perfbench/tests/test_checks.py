"""Every output check passes on real output and fails on one corrupted value.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import checks  # noqa: E402
import inputs  # noqa: E402
from wpxlab.bandit import ranker  # noqa: E402
from wpxlab.bandit.posteriors import GaussianPosterior  # noqa: E402
from wpxlab.dml.deaverage import deaverage  # noqa: E402
from wpxlab.dml.panel import read_panel_csv, write_panel_csv  # noqa: E402
from wpxlab.domain import Device  # noqa: E402
from wpxlab.harness import experiment as harness  # noqa: E402
from wpxlab.metrics import CTR_REGION_WEIGHTS  # noqa: E402
from wpxlab.sim.panel import CONFOUNDED, simulate_panel  # noqa: E402
from wpxlab.sim.world import WorldConfig, generate_world  # noqa: E402
from workloads import serve  # noqa: E402


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(seed=3))


@pytest.fixture(scope="module")
def panel(world):
    return simulate_panel(world, 300, CONFOUNDED, seed=5)


# --- simulate ----------------------------------------------------------------


def _invariants(panel, world):
    return checks.panel_invariants(panel, world.customers.history, 300, world.n_slots)


def test_panel_invariants_pass(panel, world):
    assert _invariants(panel, world) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p.x.__setitem__((7, 1), 1.5),
        lambda p: p.drev.__setitem__(3, -0.5),
        lambda p: p.m.__setitem__((4, 1), 2.5),
        lambda p: p.h.__setitem__((9, 0), p.h[9, 0] + 1.0),
        lambda p: p.event_id.__setitem__(slice(0, 2), p.event_id[1::-1]),
    ],
    ids=["x_range", "drev_negative", "engagement_fraction", "history_row", "event_order"],
)
def test_panel_invariants_fail(panel, world, corrupt):
    bad = panel.subset(np.arange(panel.n_rows))
    corrupt(bad)
    assert _invariants(bad, world)


def test_panel_row_count_fails(panel, world):
    assert checks.panel_invariants(panel, world.customers.history, 301, world.n_slots)


def test_csv_round_trip(panel, tmp_path):
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    reread = read_panel_csv(path)
    assert checks.csv_round_trip(panel, reread) == []
    reread.drev[11] = np.nextafter(reread.drev[11], np.inf)
    assert checks.csv_round_trip(panel, reread)


def test_planted_recovery():
    planted = np.array([1.0, 0.6, 0.0])
    se = np.array([0.03, 0.01, 0.01])
    assert checks.planted_recovery(planted + 2 * se, se, planted, "ok") == []
    shifted = planted + np.array([0.0, 7 * se[1], 0.0])
    assert checks.planted_recovery(shifted, se, planted, "shifted beta")


def test_naive_bias():
    planted = np.array([1.0, 0.6, 0.0])
    tolerance = np.full(3, 0.2)
    assert checks.naive_biased(np.array([2.2, 1.1, 0.1]), planted, tolerance) == []
    assert checks.naive_biased(np.array([1.1, 0.6, 0.0]), planted, tolerance)


# --- estimate ----------------------------------------------------------------


def test_group_means():
    small = inputs.estimate_panel(4, n_rows=5000)
    keys = [small.query_group, small.zip_code]
    out, _ = deaverage(np.column_stack([small.drev, small.x]), keys, 20)
    assert checks.group_means(out, keys) == []
    out[0, 2] += 0.5
    assert checks.group_means(out, keys)


def test_reported_group_means():
    assert checks.reported_group_means(
        {"deaverage_max_group_mean_query": 1e-10, "deaverage_max_group_mean_zip": 2e-11}
    ) == []
    assert checks.reported_group_means(
        {"deaverage_max_group_mean_query": 1e-10, "deaverage_max_group_mean_zip": 3e-6}
    )


def test_rmse_near_sigma():
    assert checks.rmse_near_sigma(0.503, 0.5, 20_000) == []
    assert checks.rmse_near_sigma(0.55, 0.5, 20_000)


# --- experiment --------------------------------------------------------------


@pytest.fixture(scope="module")
def small_experiment():
    config = replace(
        harness.default_experiment_config(2),
        days=3,
        warmup_days=1,
        sessions_per_day=30,
        weight_panel_events=2000,
        bootstrap_n=50,
    )
    return config, harness.run_experiment(config)


def _report_problems(config, report, tolerance=np.ones(3)):
    planted = np.array([0.625, 0.375, 0.0])
    return checks.experiment_report(
        report, config, planted, tolerance, CTR_REGION_WEIGHTS.as_tuple()
    )


def test_experiment_report_passes(small_experiment):
    config, report = small_experiment
    assert _report_problems(config, report) == []


def _with_row(report, index, **changes):
    rows = [dict(r) for r in report.per_day]
    rows[index].update(changes)
    return replace(report, per_day=tuple(rows))


def test_experiment_warmup_value_changed(small_experiment):
    config, report = small_experiment
    first = report.per_day[0]
    assert first["warmup"]
    bad = _with_row(report, 0, revenue=first["revenue"] + 1e-9)
    assert _report_problems(config, bad)


def test_experiment_session_count_changed(small_experiment):
    config, report = small_experiment
    assert _report_problems(config, _with_row(report, 4, n_sessions=29))


def test_experiment_arm_mean_changed(small_experiment):
    config, report = small_experiment
    means = {arm: dict(m) for arm, m in report.arm_means.items()}
    means["t1"]["ctr"] *= 1.001
    assert _report_problems(config, replace(report, arm_means=means))


@pytest.mark.parametrize(
    "arm, weights",
    [("t2", (0.2, 0.3, 0.5)), ("t1", (0.5, 0.3, 0.2)), ("control", (1.0, 0.0, 0.0))],
)
def test_experiment_region_weights_changed(small_experiment, arm, weights):
    config, report = small_experiment
    changed = {**report.region_weights, arm: weights}
    bad = replace(report, region_weights=changed)
    assert _report_problems(config, bad, tolerance=np.full(3, 0.2))


def test_weight_tolerance_is_delta_method():
    se = np.array([0.05, 0.02, 0.02])
    tol = checks.weight_tolerance(se, (1.0, 0.6, 0.0), k=1.0)
    # w_top = b1 / (b1 + b2 + b3): d/db1 = (1 - w)/S, d/db2 = d/db3 = -w/S
    s, w = 1.6, 0.625
    expected_top = np.sqrt(((1 - w) / s * se[0]) ** 2 + (w / s * se[1]) ** 2 + (w / s * se[2]) ** 2)
    assert tol[0] == pytest.approx(expected_top)


# --- serve -------------------------------------------------------------------


@pytest.fixture(scope="module")
def serving():
    state = serve.setup(1)
    yield state
    serve.teardown(state)


def _select(state, device):
    reqs = inputs.requests(state.world, 1, 1, 20)
    context = next(c for c in reqs.contexts if c.device is device)
    chosen, scores = ranker.select_template(
        context, state.candidates, state.bundle, np.random.default_rng(0)
    )
    return chosen.template_id, scores


def test_selection_passes(serving):
    for device in (Device.DESKTOP, Device.MOBILE):
        chosen, scores = _select(serving, device)
        assert checks.selection(chosen, scores, serving.bundle.reward, device is Device.MOBILE) == []


def test_selection_swapped_argmax(serving):
    chosen, scores = _select(serving, Device.DESKTOP)
    other = next(sc for sc in scores if not sc.chosen)
    swapped = [replace(sc, chosen=sc.template_id == other.template_id) for sc in scores]
    assert checks.selection(other.template_id, swapped, serving.bundle.reward, False)


def test_selection_score_changed(serving):
    chosen, scores = _select(serving, Device.DESKTOP)
    bad = [replace(scores[0], score=scores[0].score + 1e-6), *scores[1:]]
    assert checks.selection(chosen, bad, serving.bundle.reward, False)


def test_selection_mobile_with_non_abandonment(serving):
    chosen, scores = _select(serving, Device.DESKTOP)
    assert checks.selection(chosen, scores, serving.bundle.reward, True)


def _retrained(state, n=60):
    log = inputs.impressions(state.world, 1, 9, n)
    tuned = serve._noise_tuned(state.bundle, log)
    out = ranker.incremental_retrain(tuned, log, sample_fraction=1.0, rng=np.random.default_rng(1))
    reqs = inputs.requests(state.world, 1, 9, n)
    index = {t.template_id: i for i, t in enumerate(state.world.templates)}
    X = np.array([reqs.features[i, index[rec.template_id]] for i, rec in enumerate(log)])
    return tuned, out, X, log


def test_batch_posterior_passes(serving):
    tuned, out, X, log = _retrained(serving)
    y = np.array([rec.targets.revenue for rec in log])
    assert checks.batch_posterior(tuned.revenue_model, out.revenue_model, X, y, "revenue") == []
    assert serve._retrain_checks(tuned, out, X, log) == []


def test_batch_posterior_perturbed_entry(serving):
    tuned, out, X, log = _retrained(serving)
    y = np.array([rec.targets.satisfaction for rec in log])
    post = out.satisfaction_model.posterior
    mean = post.mean.copy()
    mean[5] *= 1 + 1e-6
    bad = replace(out.satisfaction_model, posterior=GaussianPosterior(mean=mean, cov=post.cov))
    assert checks.batch_posterior(tuned.satisfaction_model, bad, X, y, "satisfaction")


def test_probit_variances():
    assert checks.probit_variances(np.array([0.5, 1.0]), 1.0, "ok") == []
    assert checks.probit_variances(np.array([0.5, 1.0 + 1e-12]), 1.0, "above prior")
    assert checks.probit_variances(np.array([0.5, 0.0]), 1.0, "zero")


RANK_OUTPUT = """chosen template: brand_top
candidate scores
  organic_grid       -0.5123
  brand_top           1.2040 *
  brand_mid           0.3311
"""


def test_rank_output():
    assert checks.rank_output(RANK_OUTPUT) == []
    swapped = RANK_OUTPUT.replace("1.2040 *", "1.2040").replace("0.3311", "0.3311 *")
    assert checks.rank_output(swapped)
    assert checks.rank_output("chosen template: brand_top\n")



def test_merged_rounds_keep_their_deferred_checks():
    from bench import Round

    total, late = Round(), Round()
    late.check(lambda: ["late problem"])
    total.merge(late)
    total.run_checks()
    assert total.problems == ["late problem"]
