"""Three-stage estimation pipeline on synthetic panels with known truth."""

from dataclasses import replace

import numpy as np
import pytest

from wpxlab.dml import pipeline
from wpxlab.dml.deaverage import deaverage
from wpxlab.dml.panel import PanelDataset, split_train_test
from wpxlab.dml.pipeline import (
    DmlConfig,
    DmlEstimate,
    DvwpxModel,
    crossfit_residualize,
    derive_region_weights,
    estimate_dvwpx,
    naive_ols,
)
from wpxlab.dml.linear import ols_fit
from wpxlab.errors import DomainError, EstimationError
from wpxlab.metrics import RegionWeights
from wpxlab.sim.panel import CONFOUNDED, simulate_panel

X_NAMES = ("x_bmr_top", "x_bmr_mid", "x_bmr_bot")
M_NAMES = ("m_short_rev", "m_engagement")
H_NAMES = ("h_spend", "h_orders", "h_engage", "h_tenure")

TRUE_BETA = np.array([1.0, 0.6, 0.0])
TRUE_THETA = np.array([0.35, 0.10])
TRUE_GAMMA = np.array([0.4, -0.2, 0.1, 0.05])


def synthetic_panel(
    n: int,
    seed: int,
    fe_scale: float = 0.0,
    confound: float = 0.0,
    noise: float = 0.3,
    n_q: int = 8,
    n_z: int = 6,
) -> PanelDataset:
    """Panel with planted linear effects, optional fixed effects and a
    history-to-surrogate confounding channel."""
    rng = np.random.default_rng(seed)
    qi = rng.integers(0, n_q, n)
    zi = rng.integers(0, n_z, n)
    h = rng.normal(size=(n, 4))
    x = rng.random((n, 3)) + confound * np.tanh(h[:, :1])
    m = rng.normal(size=(n, 2)) + confound * np.tanh(h[:, 1:2])
    alpha = fe_scale * rng.normal(size=n_q)
    zeta = fe_scale * rng.normal(size=n_z)
    y = (
        x @ TRUE_BETA
        + m @ TRUE_THETA
        + h @ TRUE_GAMMA
        + alpha[qi]
        + zeta[zi]
        + noise * rng.normal(size=n)
    )
    return PanelDataset(
        event_id=np.array([f"e{i:06d}" for i in range(n)], dtype=object),
        customer_id=np.array([f"c{i % 500:04d}" for i in range(n)], dtype=object),
        query_group=np.array([f"q{v}" for v in qi], dtype=object),
        zip_code=np.array([f"z{v}" for v in zi], dtype=object),
        drev=y,
        x=x,
        m=m,
        h=h,
        x_names=X_NAMES,
        m_names=M_NAMES,
        h_names=H_NAMES,
    )


def _model_with_beta(beta) -> DvwpxModel:
    beta = np.asarray(beta, dtype=float)
    estimate = DmlEstimate(
        beta=beta,
        theta=np.zeros(2),
        gamma=np.zeros(4),
        stderr_beta=np.zeros(len(beta)),
        lambda_selected=None,
    )
    return DvwpxModel(estimate=estimate, surrogate_schema=X_NAMES[: len(beta)])


class TestSplitTrainTest:
    def test_ten_rows_at_ninety_percent(self):
        train, test = split_train_test(10, 0.9, seed=0)
        assert len(train) == 9 and len(test) == 1

    def test_same_seed_gives_identical_partition(self):
        a = split_train_test(100, 0.8, seed=7)
        b = split_train_test(100, 0.8, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_thousand_rows_fraction_within_tenth_percent(self):
        train, test = split_train_test(1000, 0.9, seed=3)
        assert 0.899 <= len(train) / 1000 <= 0.901
        assert len(train) + len(test) == 1000
        assert len(np.intersect1d(train, test)) == 0

    def test_guards(self):
        with pytest.raises(DomainError):
            split_train_test(10, 1.0, seed=0)
        with pytest.raises(EstimationError):
            split_train_test(1, 0.9, seed=0)


class TestCrossfitResidualize:
    def test_exactly_linear_outcome_residualizes_to_zero(self):
        rng = np.random.default_rng(31)
        H = rng.normal(size=(200, 4))
        w = np.array([1.0, -2.0, 0.5, 0.25])
        y = H @ w + 3.0
        result = crossfit_residualize(y, H, folds=2, seed=0)
        assert np.max(np.abs(result.residuals)) < 1e-8

    def test_independent_outcome_keeps_mean_and_variance(self):
        rng = np.random.default_rng(33)
        H = rng.normal(size=(10_000, 3))
        y = rng.normal(size=10_000)
        result = crossfit_residualize(y, H, folds=2, seed=1)
        resid = result.residuals[:, 0]
        assert abs(resid.mean()) < 0.05
        assert abs(resid.var() / y.var() - 1.0) < 0.05

    def test_fixed_seed_is_bitwise_reproducible(self):
        rng = np.random.default_rng(35)
        H = rng.normal(size=(300, 3))
        Y = rng.normal(size=(300, 2))
        a = crossfit_residualize(Y, H, folds=3, seed=9)
        b = crossfit_residualize(Y, H, folds=3, seed=9)
        assert np.array_equal(a.residuals, b.residuals)
        assert np.array_equal(a.fold_of_row, b.fold_of_row)

    def test_no_row_predicted_by_a_model_that_saw_it(self):
        rng = np.random.default_rng(37)
        H = rng.normal(size=(150, 3))
        y = rng.normal(size=150)
        result = crossfit_residualize(y, H, folds=3, seed=2)
        for f, train_rows in enumerate(result.model_train_rows):
            held_out = np.flatnonzero(result.fold_of_row == f)
            assert len(np.intersect1d(held_out, train_rows)) == 0
            assert len(held_out) + len(train_rows) == 150

    def test_guards(self):
        rng = np.random.default_rng(39)
        with pytest.raises(DomainError):
            crossfit_residualize(rng.normal(size=20), rng.normal(size=(20, 2)), 1, 0)
        with pytest.raises(EstimationError):
            crossfit_residualize(rng.normal(size=3), rng.normal(size=(3, 2)), 2, 0)


class TestEstimateDvwpx:
    def test_matches_plain_ols_without_confounding_or_fixed_effects(self):
        panel = synthetic_panel(3000, seed=41, fe_scale=0.0, confound=0.0)
        model = estimate_dvwpx(panel, DmlConfig(seed=0))
        design = np.column_stack([np.ones(panel.n_rows), panel.x, panel.m, panel.h])
        coef, stderr = ols_fit(design, panel.drev)
        ols_beta, ols_se = coef[1:4], stderr[1:4]
        assert np.all(np.abs(model.estimate.beta - ols_beta) <= 2.0 * ols_se)

    def test_zero_effect_surrogate_covered_by_two_stderr(self):
        hits = 0
        for seed in range(20):
            panel = synthetic_panel(2000, seed=100 + seed, fe_scale=0.5, confound=0.4)
            model = estimate_dvwpx(panel, DmlConfig(seed=seed))
            est = model.estimate
            hits += int(abs(est.beta[2]) < 2.0 * est.stderr_beta[2])
        assert hits >= 18

    def test_recovers_planted_effects_under_fixed_effects(self):
        panel = synthetic_panel(6000, seed=43, fe_scale=1.0, confound=0.5)
        model = estimate_dvwpx(panel, DmlConfig(seed=1))
        assert np.max(np.abs(model.estimate.beta - TRUE_BETA)) < 0.1
        assert np.max(np.abs(model.estimate.theta - TRUE_THETA)) < 0.1

    def test_lasso_stage2_runs_and_records_lambda(self):
        panel = synthetic_panel(1500, seed=45)
        model = estimate_dvwpx(panel, DmlConfig(stage2="lasso", seed=2))
        assert model.estimate.lambda_selected is not None
        assert model.estimate.lambda_selected > 0.0
        # a classical covariance at a penalized fit is not a standard error
        assert model.estimate.stderr_beta is None

    def test_lasso_stage2_ignores_the_scale_of_a_residual_column(self):
        panel = synthetic_panel(3000, seed=51, fe_scale=0.5, confound=0.4)
        # short-term revenue's residuals are ~100x the surrogates' on simulated panels
        scaled = replace(panel, m=panel.m * np.array([100.0, 1.0]))
        ols = estimate_dvwpx(scaled, DmlConfig(seed=4)).estimate
        lasso = estimate_dvwpx(scaled, DmlConfig(stage2="lasso", seed=4)).estimate
        unscaled = estimate_dvwpx(panel, DmlConfig(stage2="lasso", seed=4)).estimate
        assert np.max(np.abs(lasso.beta - unscaled.beta)) < 1e-6
        assert lasso.lambda_selected == pytest.approx(unscaled.lambda_selected, rel=1e-6)
        assert np.max(np.abs(lasso.beta - ols.beta)) < 0.1
        assert lasso.theta[0] == pytest.approx(unscaled.theta[0] / 100.0, rel=1e-6)

    def test_lasso_stage2_yields_region_weights_on_a_simulated_panel(self, default_world):
        panel = simulate_panel(default_world, 8000, CONFOUNDED, seed=5)
        ols = estimate_dvwpx(panel, DmlConfig()).estimate
        model = estimate_dvwpx(panel, DmlConfig(stage2="lasso"))
        beta = model.estimate.beta
        assert beta[0] > beta[1] > 0.0
        assert np.max(np.abs(beta - ols.beta)) < 0.1
        weights = derive_region_weights(model, X_NAMES)
        assert weights.w_top > weights.w_mid

    def test_too_few_rows_fails_in_validate_stage(self):
        panel = synthetic_panel(100, seed=47)
        with pytest.raises(EstimationError, match="stage validate"):
            estimate_dvwpx(panel, DmlConfig())

    @pytest.mark.parametrize("field", ["query_group", "zip_code"])
    @pytest.mark.parametrize("dtype", [object, str])
    def test_empty_key_fails_in_validate_stage(self, field, dtype):
        # `<U` keys are what the simulator and read_panel_csv build; object keys
        # are any other caller's string arrays
        panel = synthetic_panel(600, seed=53)
        keys = np.array(getattr(panel, field), dtype=dtype)
        keys[17] = ""
        panel = replace(panel, **{field: keys})
        name = "zip" if field == "zip_code" else field
        with pytest.raises(DomainError, match=f"stage validate: empty {name} key"):
            estimate_dvwpx(panel, DmlConfig())

    @pytest.mark.parametrize("maxima", [(float("nan"), 0.0), (0.0, float("nan"))])
    def test_nan_group_mean_fails_in_deaverage_stage(self, monkeypatch, maxima):
        # `max(...) >= tol` is False for a NaN, and max() drops one that is not first
        def nan_deaverage(values, group_keys, iterations):
            out, diag = deaverage(values, group_keys, iterations)
            return out, replace(diag, max_group_means=maxima)

        monkeypatch.setattr(pipeline, "deaverage", nan_deaverage)
        panel = synthetic_panel(600, seed=55)
        with pytest.raises(EstimationError, match="stage deaverage: a group mean of nan"):
            estimate_dvwpx(panel, DmlConfig())

    def test_diagnostics_cover_convergence_and_folds(self):
        panel = synthetic_panel(1200, seed=49, fe_scale=0.5)
        model = estimate_dvwpx(panel, DmlConfig(seed=3))
        diag = model.estimate.diagnostics
        assert diag["deaverage_max_group_mean_query"] < 1e-6
        assert diag["deaverage_max_group_mean_zip"] < 1e-6
        assert diag["deaverage_converged"] is True
        assert diag["deaverage_iterations_run"] < DmlConfig().deaverage_iterations
        assert diag["n_train"] + diag["n_test"] == 1200
        assert diag["test_rmse"] > 0.0

    def test_stopped_short_of_the_early_stop_is_reported(self):
        # five passes leave a query-group mean of about 8e-9, between the early
        # stop (1e-9) and the estimator's DEAVERAGE_TOL (1e-6); six converge
        panel = synthetic_panel(1200, seed=49, fe_scale=0.5)
        model = estimate_dvwpx(panel, DmlConfig(seed=3, deaverage_iterations=5))
        diag = model.estimate.diagnostics
        assert diag["deaverage_iterations_run"] == 5
        assert diag["deaverage_converged"] is False

    def test_surrogate_linear_in_history_reports_near_zero_residual_variance(self):
        panel = synthetic_panel(3000, seed=57, fe_scale=0.5, confound=0.4)
        rng = np.random.default_rng(57)
        # x_bmr_mid is history plus a part too small to identify its beta
        x = panel.x.copy()
        x[:, 1] = 0.5 + panel.h @ np.array([0.2, -0.1, 0.05, 0.3]) + 1e-7 * rng.normal(size=3000)
        diag = estimate_dvwpx(replace(panel, x=x), DmlConfig(seed=5)).estimate.diagnostics
        variance = diag["stage1_residual_variance"]
        assert list(variance) == list(X_NAMES)
        assert variance["x_bmr_mid"] < 1e-12
        assert variance["x_bmr_top"] > 0.05 and variance["x_bmr_bot"] > 0.05
        # exactly linear, its residual is rounding noise, which stage 2 rejects
        x[:, 1] = 0.5 + panel.h @ np.array([0.2, -0.1, 0.05, 0.3])
        with pytest.raises(EstimationError, match="stage stage2: design matrix is rank deficient"):
            estimate_dvwpx(replace(panel, x=x), DmlConfig(seed=5))

    def test_no_svd_solve_and_no_string_sort(self, monkeypatch, default_world):
        # `<U` keys, as the simulator and read_panel_csv build them
        panel = simulate_panel(default_world, 4000, CONFOUNDED, seed=2)
        calls = {"lstsq": 0, "string unique": 0}
        lstsq, unique = np.linalg.lstsq, np.unique

        def counted_lstsq(*args, **kwargs):
            calls["lstsq"] += 1
            return lstsq(*args, **kwargs)

        def counted_unique(ar, *args, **kwargs):
            calls["string unique"] += np.asarray(ar).dtype.kind in "UO"
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        monkeypatch.setattr(np, "unique", counted_unique)
        for stage2 in ("ols", "lasso"):
            estimate_dvwpx(panel, DmlConfig(stage2=stage2))
        assert calls == {"lstsq": 0, "string unique": 0}

    def test_deaveraging_stopped_at_its_cap_fails_in_deaverage_stage(self, default_world):
        # two passes leave query-group means of order 0.05 on a confounded panel
        panel = simulate_panel(default_world, 4000, CONFOUNDED, seed=0)
        with pytest.raises(EstimationError, match="stage deaverage: a group mean of"):
            estimate_dvwpx(panel, DmlConfig(deaverage_iterations=2))
        converged = estimate_dvwpx(panel, DmlConfig()).estimate.diagnostics
        assert converged["deaverage_max_group_mean_query"] < 1e-6

    def test_config_guards(self):
        with pytest.raises(DomainError):
            DmlConfig(train_fraction=1.2)
        with pytest.raises(DomainError):
            DmlConfig(crossfit_folds=1)
        with pytest.raises(DomainError):
            DmlConfig(stage2="ridge")
        with pytest.raises(DomainError):
            DmlConfig(deaverage_iterations=0)


class TestReferenceEstimators:
    def test_fixed_effects_ols_recovers_truth(self):
        # the within estimator: de-average, then one joint least-squares fit
        panel = synthetic_panel(4000, seed=51, fe_scale=1.0)
        stacked = np.column_stack([panel.drev, panel.x, panel.m, panel.h])
        out, _ = deaverage(stacked, [panel.query_group, panel.zip_code], 20)
        coef, _ = ols_fit(np.column_stack([np.ones(panel.n_rows), out[:, 1:]]), out[:, 0])
        beta, theta = coef[1:4], coef[4:6]
        assert np.max(np.abs(beta - TRUE_BETA)) < 0.1
        assert np.max(np.abs(theta - TRUE_THETA)) < 0.1

    def test_naive_ols_is_biased_under_confounding(self):
        panel = synthetic_panel(4000, seed=53, fe_scale=1.0, confound=1.2)
        beta_naive, _ = naive_ols(panel)
        model = estimate_dvwpx(panel, DmlConfig(seed=4))
        naive_err = np.max(np.abs(beta_naive - TRUE_BETA))
        dml_err = np.max(np.abs(model.estimate.beta - TRUE_BETA))
        assert naive_err > dml_err


class TestDeriveRegionWeights:
    def test_published_shape_passes_through(self):
        weights = derive_region_weights(_model_with_beta([0.63, 0.37, 0.0]), X_NAMES)
        assert weights.as_tuple() == pytest.approx((0.63, 0.37, 0.0), abs=1e-12)

    def test_equal_effects_give_thirds(self):
        weights = derive_region_weights(_model_with_beta([1.0, 1.0, 1.0]), X_NAMES)
        assert weights.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    def test_negative_effect_clamps_before_normalizing(self):
        weights = derive_region_weights(_model_with_beta([2.0, 1.0, -0.5]), X_NAMES)
        assert weights.as_tuple() == pytest.approx((2 / 3, 1 / 3, 0.0), abs=1e-12)

    def test_all_clamped_is_an_estimation_error(self):
        with pytest.raises(EstimationError):
            derive_region_weights(_model_with_beta([-1.0, -0.5, 0.0]), X_NAMES)

    def test_unknown_surrogate_name_rejected(self):
        with pytest.raises(DomainError):
            derive_region_weights(
                _model_with_beta([1.0, 1.0, 1.0]), ("x_bmr_top", "nope", "x_bmr_bot")
            )

    def test_output_satisfies_region_weight_invariants(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            beta = rng.normal(size=3)
            try:
                weights = derive_region_weights(_model_with_beta(beta), X_NAMES)
            except EstimationError:
                assert np.all(np.maximum(beta, 0.0) == 0.0)
                continue
            assert isinstance(weights, RegionWeights)
            assert min(weights.as_tuple()) >= 0.0
            assert sum(weights.as_tuple()) == pytest.approx(1.0, abs=1e-12)
