"""Least squares and L1 fitting against closed-form and KKT oracles."""

import numpy as np
import pytest

from wpxlab.dml.linear import (
    lasso_cv_path,
    lasso_fit,
    lasso_lambda_max,
    ols_fit,
)
from wpxlab.dml.pipeline import LinearPredictor
from wpxlab.errors import DomainError, EstimationError


def kkt_violation(X, y, b, lam):
    """Worst subgradient-optimality residual of the lasso objective."""
    n = len(y)
    g = X.T @ (y - X @ b) / n
    worst = 0.0
    for j in range(len(b)):
        if b[j] != 0.0:
            worst = max(worst, abs(g[j] - lam * np.sign(b[j])))
        else:
            worst = max(worst, max(0.0, abs(g[j]) - lam))
    return worst


class TestOls:
    def test_exact_fit_slope_two_zero_stderr(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = 2.0 * X[:, 0]
        beta, stderr = ols_fit(X, y)
        assert beta[0] == pytest.approx(2.0, abs=1e-12)
        assert stderr[0] == pytest.approx(0.0, abs=1e-9)

    def test_orthonormal_columns_give_projections(self):
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.normal(size=(20, 3)))
        y = rng.normal(size=20)
        beta, _ = ols_fit(Q, y)
        assert np.allclose(beta, Q.T @ y, atol=1e-10)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        beta, _ = ols_fit(X, y)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.max(np.abs(beta - oracle)) < 1e-10

    def test_rank_deficient_design_rejected(self):
        X = np.ones((10, 2))
        with pytest.raises(EstimationError):
            ols_fit(X, np.arange(10.0))

    def test_more_columns_than_rows_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(EstimationError):
            ols_fit(rng.normal(size=(3, 5)), rng.normal(size=3))

    def test_non_finite_inputs_rejected(self):
        X = np.ones((5, 1))
        y = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        with pytest.raises(DomainError):
            ols_fit(X, y)


def _design(seed: int, n: int, scales: np.ndarray):
    """Intercept plus columns of the given scales (means half a scale off 0),
    and a target with coefficients of order one per unit of each column."""
    rng = np.random.default_rng(seed)
    p = len(scales)
    X = (rng.normal(size=(n, p)) + 0.5 * rng.normal(size=p)) * scales
    coef = rng.uniform(0.5, 2.0, p + 1) * rng.choice([-1.0, 1.0], p + 1) / np.r_[1.0, scales]
    y = np.column_stack([np.ones(n), X]) @ coef + rng.normal(size=n)
    return X, y


def _lstsq_equilibrated(X, Y):
    """lstsq on unit-norm columns, mapped back: on a design whose columns
    differ in scale by 10⁶, lstsq on the raw columns is itself off by about
    1e-10 in the largest column's coefficient."""
    norm = np.linalg.norm(X, axis=0)
    coef = np.linalg.lstsq(X / norm, Y, rcond=None)[0]
    return (coef.T / norm).T


def _relative(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


WELL_CONDITIONED = [(seed, n, np.ones(p)) for seed, n, p in [(1, 60, 2), (2, 500, 4), (3, 5000, 6)]]
SCALED = (4, 200_000, np.geomspace(1e-3, 1e3, 5))  # columns 10⁶ apart in scale


class TestCholeskySolves:
    """The Cholesky normal-equation solves against lstsq."""

    @pytest.mark.parametrize("seed,n,scales", WELL_CONDITIONED)
    def test_ols_matches_lstsq_on_well_conditioned_designs(self, seed, n, scales):
        X, y = _design(seed, n, scales)
        design = np.column_stack([np.ones(n), X])
        beta, stderr = ols_fit(design, y)
        ref = np.linalg.lstsq(design, y, rcond=None)[0]
        assert _relative(beta, ref) < 1e-10
        resid = y - design @ ref
        sigma2 = resid @ resid / (n - design.shape[1])
        ref_se = np.sqrt(sigma2 * np.diag(np.linalg.inv(design.T @ design)))
        assert _relative(stderr, ref_se) < 1e-10

    def test_ols_matches_lstsq_on_columns_a_million_apart_in_scale(self):
        seed, n, scales = SCALED
        X, y = _design(seed, n, scales)
        design = np.column_stack([np.ones(n), X])
        beta, _ = ols_fit(design, y)
        assert _relative(beta, _lstsq_equilibrated(design, y)) < 1e-10

    @pytest.mark.parametrize("seed,n,scales", [*WELL_CONDITIONED, SCALED])
    def test_linear_predictor_matches_lstsq(self, seed, n, scales):
        X, y = _design(seed, n, scales)
        Y = np.column_stack([y, X[:, 0] - 3.0 * y + 7.0])
        model = LinearPredictor().fit(X, Y)
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        ref = np.linalg.lstsq(Xs, Y - Y.mean(axis=0), rcond=None)[0]
        assert not model.used_ridge_fallback
        assert _relative(model.coef, ref) < 1e-10
        fitted = Y.mean(axis=0) + Xs @ ref
        assert np.max(np.abs(model.predict(X) - fitted)) < 1e-10 * np.max(np.abs(Y))

    @pytest.mark.parametrize("kind", ["duplicated", "constant", "constant_inexact_mean"])
    def test_dependent_column_takes_the_fallback_or_raises(self, kind):
        # summed row by row, 200,000 copies of 0.1 do not average to 0.1, so
        # that column's centered values are rounding noise rather than zeros
        n = 200_000 if kind == "constant_inexact_mean" else 2000
        X, y = _design(5, n, np.ones(3))
        extra = {"duplicated": X[:, 1], "constant": 3.0, "constant_inexact_mean": 0.1}[kind]
        X = np.column_stack([X, np.full(len(y), extra)])
        model = LinearPredictor().fit(X, y)
        assert model.used_ridge_fallback
        assert np.all(np.isfinite(model.predict(X)))
        with pytest.raises(EstimationError, match="rank deficient"):
            ols_fit(np.column_stack([np.ones(len(y)), X]), y)

    def test_correlated_but_full_rank_design_is_solved(self):
        rng = np.random.default_rng(6)
        n = 20_000
        z = rng.normal(size=n)
        w = 0.999 * z + np.sqrt(1.0 - 0.999**2) * rng.normal(size=n)
        X = np.column_stack([z, w])
        y = X @ np.array([1.0, -1.0]) + 0.1 * rng.normal(size=n)
        model = LinearPredictor().fit(X, y)
        assert not model.used_ridge_fallback
        design = np.column_stack([np.ones(n), X])
        beta, _ = ols_fit(design, y)
        assert _relative(beta[1:], np.linalg.lstsq(design, y, rcond=None)[0][1:]) < 1e-10


class TestLassoFit:
    def test_zero_penalty_equals_ols(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        beta_ols, _ = ols_fit(X, y)
        beta = lasso_fit(X, y, 0.0)
        assert np.max(np.abs(beta - beta_ols)) < 1e-8

    def test_penalty_at_lambda_max_annihilates(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        lam_max = lasso_lambda_max(X, y)
        assert np.all(lasso_fit(X, y, lam_max) == 0.0)
        assert np.all(lasso_fit(X, y, 1.5 * lam_max) == 0.0)

    def test_kkt_conditions_on_fixed_instance(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        beta = lasso_fit(X, y, 0.1)
        assert kkt_violation(X, y, beta, 0.1) < 1e-6

    def test_kkt_conditions_across_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(25, 80))
            p = int(rng.integers(2, 7))
            X = rng.normal(size=(n, p))
            w = rng.normal(size=p) * (rng.random(p) < 0.7)
            y = X @ w + 0.5 * rng.normal(size=n)
            lam = float(rng.uniform(0.01, 1.0)) * lasso_lambda_max(X, y)
            beta = lasso_fit(X, y, lam)
            assert kkt_violation(X, y, beta, lam) < 1e-6

    def test_negative_penalty_rejected(self):
        with pytest.raises(DomainError):
            lasso_fit(np.ones((4, 1)), np.ones(4), -0.1)

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(DomainError):
            lasso_fit(np.array([[np.inf]]), np.ones(1), 0.1)

    def test_constant_zero_column_gets_zero_coefficient(self):
        rng = np.random.default_rng(16)
        X = np.column_stack([rng.normal(size=25), np.zeros(25)])
        y = 2.0 * X[:, 0]
        beta = lasso_fit(X, y, 0.01)
        assert beta[1] == 0.0


class TestLassoCv:
    def test_near_noiseless_picks_small_penalty_close_to_ols(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(100, 5))
        w = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        y = X @ w + 0.001 * rng.normal(size=100)
        grid, _, lam_star, beta = lasso_cv_path(X, y, grid_points=20, folds=3, seed=0)
        # smallest decile of a 20-point grid = the two smallest candidates
        assert lam_star <= np.sort(grid)[1]
        beta_ols, _ = ols_fit(X, y)
        rel = np.linalg.norm(beta - beta_ols) / np.linalg.norm(beta_ols)
        assert rel < 0.05

    def test_pure_noise_mostly_selects_all_zero(self):
        zero_count = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            X = rng.normal(size=(60, 4))
            y = rng.normal(size=60)
            *_, beta = lasso_cv_path(X, y, grid_points=20, folds=3, seed=seed)
            zero_count += int(np.all(beta == 0.0))
        assert zero_count >= 11

    def test_grid_has_exactly_twenty_log_spaced_points(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(50, 3))
        y = X @ np.array([1.0, 0.0, -1.0]) + 0.1 * rng.normal(size=50)
        grid, mse, lam_star, _ = lasso_cv_path(X, y, grid_points=20, folds=3, seed=1)
        lam_max = lasso_lambda_max(X, y)
        assert len(grid) == 20 and len(mse) == 20
        assert grid[0] == pytest.approx(lam_max, rel=1e-12)
        assert grid[-1] == pytest.approx(1e-4 * lam_max, rel=1e-9)
        assert np.all(np.diff(grid) < 0)
        assert lam_star in grid

    def test_zero_variance_target_rejected(self):
        with pytest.raises(EstimationError):
            lasso_cv_path(np.random.default_rng(0).normal(size=(30, 2)), np.ones(30))

    def test_fold_count_guards(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        with pytest.raises(DomainError):
            lasso_cv_path(X, y, folds=1)
        with pytest.raises(EstimationError):
            lasso_cv_path(X[:2], y[:2], folds=3)
