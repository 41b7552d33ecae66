"""End-to-end acceptance checks, one test per promised guarantee.

Each test states its tolerance inline and fails loudly if the package stops
meeting it. Heavy artifacts (the 50,000-event confounded panel, the 20-seed
experiment sweep) are built once per module and shared.
"""

import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import stationary_best_template_rate
from oracles import predict_mean
from scipy.stats import kstest, norm

from wpxlab.bandit.posteriors import (
    GaussianPosterior,
    blr_update,
    linear_model,
    probit_model,
    thompson_sample_predict,
)
from wpxlab.dml.deaverage import deaverage
from wpxlab.dml.linear import lasso_fit, lasso_lambda_max, ols_fit
from wpxlab.dml.pipeline import DmlConfig, derive_region_weights, estimate_dvwpx
from wpxlab.harness.experiment import (
    default_experiment_config,
    report_json,
    run_experiment,
)
from wpxlab.metrics import RegionWeights, region_bmr_columns, weighted_bmr
from wpxlab.domain import PageRegion
from wpxlab.sim.panel import CONFOUNDED, X_COLUMNS, simulate_panel
from wpxlab.sim.world import WorldConfig, generate_world

TRUE_BETA = np.array([1.0, 0.6, 0.0])
TRUE_WEIGHTS = np.array([0.625, 0.375, 0.0])


@pytest.fixture(scope="module")
def confounded_fit():
    t0 = time.perf_counter()
    world = generate_world(WorldConfig(seed=0))
    panel = simulate_panel(world, 50_000, CONFOUNDED, seed=123)
    model = estimate_dvwpx(panel, DmlConfig())
    elapsed = time.perf_counter() - t0
    return panel, model, elapsed


@pytest.fixture(scope="module")
def experiment_sweep():
    t0 = time.perf_counter()
    reports = [run_experiment(default_experiment_config(seed=s)) for s in range(20)]
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_criterion_1_planted_effects_recovered_from_confounded_logs(confounded_fit):
    _, model, elapsed = confounded_fit
    beta_err = np.abs(np.asarray(model.estimate.beta) - TRUE_BETA)
    assert beta_err.max() <= 0.05, f"beta errors {beta_err} exceed 0.05"
    weights = derive_region_weights(model, X_COLUMNS)
    weight_err = np.abs(np.asarray(weights.as_tuple()) - TRUE_WEIGHTS)
    assert weight_err.max() <= 0.03, f"weight errors {weight_err} exceed 0.03"
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_2_naive_regression_is_biased_where_the_pipeline_is_not(
    confounded_fit,
):
    panel, model, elapsed = confounded_fit
    design = np.column_stack([np.ones(panel.n_rows), panel.x])
    naive = np.linalg.lstsq(design, panel.drev, rcond=None)[0][1:4]
    naive_bias = np.abs(naive - TRUE_BETA)
    dml_err = np.abs(np.asarray(model.estimate.beta) - TRUE_BETA)
    assert naive_bias.max() > 0.15, f"naive bias {naive_bias} unexpectedly small"
    assert dml_err.max() <= 0.05, f"pipeline errors {dml_err} exceed 0.05"
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_3_demeaning_matches_dummy_variable_regression():
    rng = np.random.default_rng(77)
    n, n_q, n_z = 200, 10, 8
    qk = rng.integers(0, n_q, n)
    zk = rng.integers(0, n_z, n)
    alpha = rng.normal(0.0, 1.0, n_q)
    zeta = rng.normal(0.0, 1.0, n_z)
    x = rng.normal(size=(n, 3))
    beta = np.array([1.2, -0.7, 0.3])
    y = x @ beta + alpha[qk] + zeta[zk] + 0.1 * rng.normal(size=n)

    demeaned, diag = deaverage(np.column_stack([y, x]), [qk, zk], iterations=20)
    yd, xd = demeaned[:, 0], demeaned[:, 1:]
    beta_path = np.linalg.lstsq(
        np.column_stack([np.ones(n), xd]), yd, rcond=None
    )[0][1:]

    dummies = [np.ones(n)]
    dummies.extend((qk == g).astype(float) for g in range(1, n_q))
    dummies.extend((zk == g).astype(float) for g in range(1, n_z))
    design = np.column_stack([dummies[0], x, *dummies[1:]])
    beta_dummy = np.linalg.lstsq(design, y, rcond=None)[0][1:4]

    assert np.abs(beta_path - beta_dummy).max() <= 1e-4
    assert max(diag.max_group_means) < 1e-6


def kkt_violation(x, y, b, lam):
    g = x.T @ (y - x @ b) / len(y)
    worst = 0.0
    for j in range(len(b)):
        if b[j] != 0.0:
            worst = max(worst, abs(g[j] - lam * np.sign(b[j])))
        else:
            worst = max(worst, max(0.0, abs(g[j]) - lam))
    return worst


def test_criterion_4_lasso_limits_and_stationarity():
    rng = np.random.default_rng(55)
    x = rng.normal(size=(60, 5))
    y = x @ np.array([1.0, -0.5, 0.0, 0.3, 0.0]) + 0.2 * rng.normal(size=60)

    beta_zero_penalty = lasso_fit(x, y, 0.0)
    beta_ols, _ = ols_fit(x, y)
    assert np.abs(beta_zero_penalty - beta_ols).max() <= 1e-8

    lam_max = lasso_lambda_max(x, y)
    assert np.all(lasso_fit(x, y, lam_max) == 0.0)
    assert np.all(lasso_fit(x, y, 2.0 * lam_max) == 0.0)

    for i in range(100):
        r = np.random.default_rng(1000 + i)
        n = int(r.integers(30, 101))
        p = int(r.integers(2, 9))
        xi = r.normal(size=(n, p))
        yi = xi @ r.normal(size=p) + 0.3 * r.normal(size=n)
        lam = float(r.uniform(0.05, 0.8)) * lasso_lambda_max(xi, yi)
        b = lasso_fit(xi, yi, lam)
        assert kkt_violation(xi, yi, b, lam) < 1e-6, f"instance {i}"


def test_criterion_5_posterior_math_is_exact():
    model = linear_model(("x",), prior_variance=1.0, noise_variance=1.0)
    updated = blr_update(model, np.array([1.0]), 2.0)
    assert updated.posterior.mean[0] == pytest.approx(1.0, abs=1e-12)
    assert updated.posterior.cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(31)
    a = rng.normal(size=(4, 4))
    post = GaussianPosterior(mean=rng.normal(size=4), cov=a @ a.T + 0.1 * np.eye(4))
    lin = replace(linear_model(("a", "b", "c", "d"), noise_variance=1.0), posterior=post)
    feat = np.array([0.5, -1.0, 2.0, 0.25])
    draw_rng = np.random.default_rng(99)
    draws = np.array(
        [thompson_sample_predict(lin, feat, draw_rng) for _ in range(10_000)]
    )
    loc = float(post.mean @ feat)
    scale = float(np.sqrt(feat @ post.full_cov() @ feat))
    stat = kstest(draws, norm(loc=loc, scale=scale).cdf).statistic
    assert stat < 0.02, f"KS statistic {stat:.4f}"

    probit = probit_model(("a", "b"))
    assert predict_mean(probit, np.array([3.0, -2.0])) == 0.5


def test_criterion_6_bandit_converges_on_the_best_template():
    t0 = time.perf_counter()
    rates = [stationary_best_template_rate(seed) for seed in range(10)]
    elapsed = time.perf_counter() - t0
    median_rate = float(np.median(rates))
    assert median_rate > 0.9, f"median best-template rate {median_rate:.3f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_7_long_term_arm_wins_without_short_term_regression(
    experiment_sweep,
):
    reports, elapsed = experiment_sweep
    lifts = []
    for report in reports:
        by_arm = {}
        for row in report.lifts:
            by_arm.setdefault(row.treatment, {})[row.metric] = row.lift
        lifts.append(by_arm)

    t2_wins = sum(
        1
        for l in lifts
        if l["t2"]["long_term_revenue"] > 0.0
        and l["t2"]["long_term_revenue"] >= l["t1"]["long_term_revenue"]
    )
    assert t2_wins >= 15, f"t2 long-term wins in only {t2_wins}/20 seeds"

    for arm in ("t1", "t2"):
        for metric in ("revenue", "ctr"):
            mean_lift = float(np.mean([l[arm][metric] for l in lifts]))
            assert mean_lift >= 0.0, f"{arm} mean {metric} lift {mean_lift:.4f} < 0"
    assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"


def test_criterion_8_page_metric_matches_brute_force():
    regions = (PageRegion.TOP, PageRegion.MIDDLE, PageRegion.BOTTOM)
    rng = np.random.default_rng(88)
    for _ in range(1000):
        n_slots = int(rng.integers(1, 31))
        slots = tuple(
            (
                regions[int(rng.integers(3))],
                float(rng.uniform(1.0, 500.0)),
                int(rng.integers(2)),
            )
            for _ in range(n_slots)
        )
        w = rng.dirichlet((1.0, 1.0, 1.0))
        weights = RegionWeights(float(w[0]), float(w[1]), 1.0 - float(w[0]) - float(w[1]))

        expected = 0.0
        for region, weight in zip(regions, weights.as_tuple()):
            area = sum(a for r, a, _ in slots if r is region)
            matched = sum(a for r, a, m in slots if r is region and m == 1)
            expected += weight * (matched / area if area > 0.0 else 0.0)

        codes = np.array([regions.index(r) for r, _, _ in slots])
        areas = np.array([a for _, a, _ in slots])
        matches = np.array([m for _, _, m in slots])
        value = weighted_bmr(tuple(region_bmr_columns(codes, areas, matches)), weights)
        assert value == pytest.approx(expected, abs=1e-12)


def test_criterion_9_reports_are_byte_identical_across_reruns(experiment_sweep):
    reports, _ = experiment_sweep
    rerun = run_experiment(default_experiment_config(seed=0))
    assert report_json(rerun) == report_json(reports[0])
    digest = hashlib.sha256(report_json(reports[0]).encode()).hexdigest()
    assert digest == "36e8083d09e4d3cc3e4aba956f771e9bee688a12a2c2b320d5cfacee2e844efe"
