"""Conjugate Gaussian and probit-ADF posteriors against analytic oracles."""

import copy
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from oracles import EXACT_RTOL, exact_linear_posterior, probit_update_per_row, relative_error
from scipy.stats import kstest, norm

from wpxlab.bandit.posteriors import (
    BLOCK_ROWS,
    GaussianPosterior,
    ModelKind,
    ObjectiveModel,
    blr_update,
    blr_update_rows,
    gaussian_prior,
    linear_model,
    predict_mean,
    probit_model,
    probit_update,
    probit_update_rows,
    sample_weights,
    thompson_sample_predict,
)
from wpxlab.errors import DomainError, InvariantViolation

SCHEMA_1D = ("x",)
SCHEMA_3D = ("a", "b", "c")
# Rows that take a vague prior to a tight posterior cancel most of the
# covariance: blocks then keep about 1e-13 (5e-13 at worst below, 31 rows of
# 3 features at noise variance 0.05) and single-row updates 3e-14.
ONE_BLOCK_RTOL = 1e-12


def assert_near_exact(updated, start, X, y, rtol=EXACT_RTOL, mean_rtol=None):
    """`updated`'s covariance is within `rtol`, and its mean within
    `mean_rtol` (default `rtol`), of the exact conjugate posterior of `start`
    after rows `X`, targets `y` (relative, Frobenius)."""
    mean, cov = exact_linear_posterior(start.posterior, [(X, y, start.noise_variance)])
    assert relative_error(updated.posterior.full_cov(), cov) <= rtol
    assert relative_error(updated.posterior.mean, mean) <= (mean_rtol or rtol)


class TestGaussianPosterior:
    def test_prior_is_zero_mean_isotropic(self):
        post = gaussian_prior(3, variance=2.0)
        assert np.array_equal(post.mean, np.zeros(3))
        assert np.array_equal(post.cov, 2.0 * np.eye(3))

    def test_diagonal_mode(self):
        post = gaussian_prior(4, variance=0.5, diagonal=True)
        assert post.diagonal
        assert np.array_equal(post.variance_vector(), np.full(4, 0.5))
        assert np.array_equal(post.full_cov(), 0.5 * np.eye(4))

    def test_guards(self):
        with pytest.raises(DomainError):
            gaussian_prior(0)
        with pytest.raises(DomainError):
            gaussian_prior(2, variance=0.0)
        with pytest.raises(DomainError):
            GaussianPosterior(mean=np.zeros(2), cov=np.eye(3))
        with pytest.raises(InvariantViolation):
            GaussianPosterior(mean=np.zeros(2), cov=np.array([[1.0, 0.9], [0.1, 1.0]]))
        with pytest.raises(InvariantViolation):
            GaussianPosterior(mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(InvariantViolation):
            GaussianPosterior(mean=np.zeros(2), cov=np.array([1.0, 0.0]))


class TestKeptFactor:
    def _full(self):
        a = np.random.default_rng(4).standard_normal((4, 4))
        return GaussianPosterior(mean=np.arange(4.0), cov=a @ a.T + 0.5 * np.eye(4))

    def test_factor_is_the_cholesky_factor_of_the_covariance(self):
        post = self._full()
        assert np.array_equal(post.factor, np.linalg.cholesky(post.cov))
        assert not post.factor.flags.writeable
        diagonal = GaussianPosterior(mean=np.zeros(3), cov=np.array([1.0, 4.0, 9.0]))
        assert np.array_equal(diagonal.factor, [1.0, 2.0, 3.0])
        moved = replace(post, cov=2.0 * post.cov)
        assert np.array_equal(moved.factor, np.linalg.cholesky(2.0 * post.cov))

    def test_factor_does_not_enter_equality(self):
        post = self._full()
        assert [f.name for f in fields(GaussianPosterior) if f.compare] == ["mean", "cov"]
        other = copy.copy(post)
        object.__setattr__(other, "factor", np.zeros((4, 4)))
        assert other == post

    def test_draws_use_the_factor_as_before(self):
        post = self._full()
        z = np.random.default_rng(8).standard_normal(4)
        expected = post.mean + np.linalg.cholesky(post.cov) @ z
        assert np.array_equal(sample_weights(post, np.random.default_rng(8)), expected)
        diagonal = GaussianPosterior(mean=np.ones(4), cov=np.array([0.5, 1.0, 2.0, 3.0]))
        expected = diagonal.mean + np.sqrt(diagonal.cov) * z
        assert np.array_equal(sample_weights(diagonal, np.random.default_rng(8)), expected)


class TestBlrUpdate:
    def test_no_observations_means_prior(self):
        model = linear_model(SCHEMA_3D, prior_variance=1.0, noise_variance=1.0)
        assert np.array_equal(model.posterior.mean, np.zeros(3))
        assert np.array_equal(model.posterior.cov, np.eye(3))

    def test_one_dimensional_conjugate_oracle(self):
        model = linear_model(SCHEMA_1D, prior_variance=1.0, noise_variance=1.0)
        updated = blr_update(model, np.array([1.0]), 2.0)
        assert updated.posterior.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert updated.posterior.cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_batch_conjugate_solution(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        noise = 0.7
        model = linear_model(SCHEMA_3D, prior_variance=2.0, noise_variance=noise)
        for x, target in zip(X, y):
            model = blr_update(model, x, target)
        prec = np.eye(3) / 2.0 + X.T @ X / noise
        cov_oracle = np.linalg.inv(prec)
        mean_oracle = cov_oracle @ (X.T @ y / noise)
        assert np.allclose(model.posterior.mean, mean_oracle, atol=1e-8)
        assert np.allclose(model.posterior.cov, cov_oracle, atol=1e-8)

    def test_variance_never_increases_along_any_direction(self):
        rng = np.random.default_rng(5)
        model = linear_model(SCHEMA_3D, prior_variance=1.5, noise_variance=0.8)
        for _ in range(40):
            before = model.posterior.full_cov()
            x = rng.normal(size=3)
            model = blr_update(model, x, float(rng.normal()))
            after = model.posterior.full_cov()
            for _ in range(10):
                d = rng.normal(size=3)
                assert d @ after @ d <= d @ before @ d + 1e-12

    def test_update_order_invariance(self):
        rng = np.random.default_rng(7)
        pairs = [(rng.normal(size=3), float(rng.normal())) for _ in range(10)]
        forward = linear_model(SCHEMA_3D)
        backward = linear_model(SCHEMA_3D)
        for x, y in pairs:
            forward = blr_update(forward, x, y)
        for x, y in reversed(pairs):
            backward = blr_update(backward, x, y)
        assert np.allclose(forward.posterior.mean, backward.posterior.mean, atol=1e-8)
        assert np.allclose(forward.posterior.cov, backward.posterior.cov, atol=1e-8)

    def test_positive_definiteness_survives_collinear_streams(self):
        rng = np.random.default_rng(9)
        model = linear_model(SCHEMA_3D, noise_variance=0.2)
        base = rng.normal(size=3)
        for i in range(300):
            x = base + 1e-6 * rng.normal(size=3)
            model = blr_update(model, x, float(rng.normal()))
        assert np.min(np.linalg.eigvalsh(model.posterior.cov)) > 0.0

    def test_guards(self):
        model = linear_model(SCHEMA_3D)
        with pytest.raises(DomainError):
            blr_update(model, np.zeros(2), 1.0)
        with pytest.raises(DomainError):
            blr_update(model, np.array([1.0, np.nan, 0.0]), 1.0)
        with pytest.raises(DomainError):
            blr_update(model, np.zeros(3), float("inf"))
        probit = probit_model(SCHEMA_3D)
        with pytest.raises(DomainError):
            blr_update(probit, np.zeros(3), 1.0)


class TestProbitUpdate:
    def test_zero_weights_predict_half(self):
        model = probit_model(SCHEMA_3D)
        x = np.array([0.4, -1.2, 2.0])
        assert predict_mean(model, x) == 0.5

    def test_balanced_stream_keeps_means_near_zero(self):
        x = np.array([1.0, -0.5, 0.25])
        model = probit_model(SCHEMA_3D)
        for i in range(1000):
            sign = 1.0 if (i // 2) % 2 == 0 else -1.0
            label = 1 - (i % 2)
            model = probit_update(model, sign * x, label)
        assert np.max(np.abs(model.posterior.mean)) <= 0.05

    def test_per_coordinate_variance_non_increasing(self):
        rng = np.random.default_rng(11)
        model = probit_model(SCHEMA_3D)
        for _ in range(1000):
            before = model.posterior.cov.copy()
            x = rng.normal(size=3)
            model = probit_update(model, x, int(rng.integers(0, 2)))
            assert np.all(model.posterior.cov <= before + 1e-12)
            assert np.all(model.posterior.cov > 0.0)

    def test_consistent_labels_move_prediction_toward_them(self):
        x = np.array([1.0, 0.0, 0.0])
        model = probit_model(SCHEMA_3D)
        for _ in range(50):
            model = probit_update(model, x, 1)
        assert predict_mean(model, x) > 0.8

    def test_guards(self):
        model = probit_model(SCHEMA_3D)
        with pytest.raises(DomainError):
            probit_update(model, np.zeros(3), 2)
        linear = linear_model(SCHEMA_3D)
        with pytest.raises(DomainError):
            probit_update(linear, np.zeros(3), 1)
        with pytest.raises(DomainError):
            ObjectiveModel(
                kind=ModelKind.PROBIT,
                posterior=gaussian_prior(3),
                feature_schema=SCHEMA_3D,
            )


class TestRowKernels:
    """A block of rows streams through the same steps as one update per row."""

    @pytest.mark.parametrize(
        "n_rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
    )
    @pytest.mark.parametrize("diagonal_start", [False, True])
    @pytest.mark.parametrize("noise", [0.05, 1.0, 30.0])
    def test_blr_rows_match_exact_posterior(self, noise, diagonal_start, n_rows):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(n_rows, 3))
        y = rng.normal(size=n_rows) * 3.0
        model = linear_model(SCHEMA_3D, prior_variance=2.0, noise_variance=noise)
        if diagonal_start:
            model = replace(model, posterior=GaussianPosterior(np.ones(3), np.array([1.0, 2.0, 0.5])))
        rows = blr_update_rows(model, X, y)
        assert_near_exact(rows, model, X, y, ONE_BLOCK_RTOL)
        assert np.array_equal(rows.posterior.cov, rows.posterior.cov.T)
        one = model
        for x, target in zip(X, y):
            one = blr_update(one, x, target)
        assert_near_exact(one, model, X, y, ONE_BLOCK_RTOL)

    def test_ill_conditioned_satisfaction_like_rows_match_exact_posterior(self):
        # the bias column is the sum of the category one-hots, so only the
        # prior pins that direction; at a satisfaction-sized noise variance the
        # covariance's condition number is near 1e5. The information form
        # (precision += X'X / sigma^2, then invert) misses the covariance by
        # 1e-12 and the mean by 1e-11; blocks keep 3e-16 and 1e-14, per-row
        # steps 2e-15 and 2e-13.
        rng = np.random.default_rng(21)
        n = 2000
        signals = rng.random((n, 4))
        X = np.column_stack(
            [np.ones(n), rng.random(n) < 0.35, rng.random(n), np.eye(3)[rng.integers(0, 3, n)], signals]
        )
        y = np.clip(signals @ [0.6, 0.25, 0.15, 0.0] + 0.05 * rng.standard_normal(n), 0.0, 1.0)
        model = linear_model(tuple("abcdefghij"), noise_variance=float(y.var()))
        assert_near_exact(blr_update_rows(model, X, y), model, X, y, mean_rtol=1e-12)

    def test_probit_rows_match_per_row_oracle_bit_for_bit(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(300, 3)) * 2.0
        labels = [int(v) for v in rng.random(300) < 0.7]
        model = probit_model(SCHEMA_3D, prior_variance=1.5)
        oracle = model
        for x, label in zip(X, labels):
            oracle = probit_update_per_row(oracle, x, label)
        rows = probit_update_rows(model, X, labels)
        assert np.array_equal(rows.posterior.mean, oracle.posterior.mean)
        assert np.array_equal(rows.posterior.cov, oracle.posterior.cov)
        one = model
        for x, label in zip(X, labels):
            one = probit_update(one, x, label)
        assert np.array_equal(one.posterior.mean, oracle.posterior.mean)

    def test_no_rows_return_the_model(self):
        linear, probit = linear_model(SCHEMA_3D), probit_model(SCHEMA_3D)
        assert blr_update_rows(linear, np.empty((0, 3)), []) is linear
        assert probit_update_rows(probit, np.empty((0, 3)), []) is probit

    def test_block_guards(self):
        linear, probit = linear_model(SCHEMA_3D), probit_model(SCHEMA_3D)
        X = np.ones((4, 3))
        with pytest.raises(DomainError, match="non-finite target"):
            blr_update_rows(linear, X, [1.0, 2.0, float("nan"), 0.0])
        with pytest.raises(DomainError, match="label must be 0 or 1"):
            probit_update_rows(probit, X, [1, 0, 2, 1])
        with pytest.raises(DomainError, match="does not match schema"):
            blr_update_rows(linear, np.ones((4, 2)), [1.0] * 4)
        with pytest.raises(DomainError, match="feature rows for"):
            probit_update_rows(probit, X, [1, 0])
        bad = X.copy()
        bad[3, 1] = np.inf
        with pytest.raises(DomainError, match="non-finite feature"):
            blr_update_rows(linear, bad, [1.0] * 4)
        with pytest.raises(DomainError):
            blr_update_rows(probit, X, [1.0] * 4)
        with pytest.raises(DomainError):
            probit_update_rows(linear, X, [1] * 4)


class TestThompsonSampling:
    def test_degenerate_covariance_returns_mean_prediction(self):
        mean = np.array([0.7, -0.2, 1.1])
        model = ObjectiveModel(
            kind=ModelKind.LINEAR,
            posterior=GaussianPosterior(mean=mean, cov=1e-18 * np.eye(3)),
            feature_schema=SCHEMA_3D,
            noise_variance=1.0,
        )
        x = np.array([1.0, 2.0, -0.5])
        draw = thompson_sample_predict(model, x, np.random.default_rng(0))
        assert draw == pytest.approx(float(mean @ x), abs=1e-7)

    def test_draws_match_analytic_gaussian_by_ks(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(3, 3))
        cov = A @ A.T + 0.1 * np.eye(3)
        mean = rng.normal(size=3)
        model = ObjectiveModel(
            kind=ModelKind.LINEAR,
            posterior=GaussianPosterior(mean=mean, cov=cov),
            feature_schema=SCHEMA_3D,
            noise_variance=1.0,
        )
        x = np.array([0.8, -1.0, 0.3])
        draw_rng = np.random.default_rng(99)
        draws = np.array(
            [thompson_sample_predict(model, x, draw_rng) for _ in range(10_000)]
        )
        mu = float(mean @ x)
        sigma = math.sqrt(float(x @ cov @ x))
        stat = kstest(draws, norm(loc=mu, scale=sigma).cdf).statistic
        assert stat < 0.02

    def test_same_seed_same_draw(self):
        model = linear_model(SCHEMA_3D)
        x = np.array([1.0, 0.5, -0.5])
        a = thompson_sample_predict(model, x, np.random.default_rng(42))
        b = thompson_sample_predict(model, x, np.random.default_rng(42))
        assert a == b

    def test_probit_sampling_passes_through_link(self):
        mean = np.array([2.0, 0.0, 0.0])
        model = ObjectiveModel(
            kind=ModelKind.PROBIT,
            posterior=GaussianPosterior(mean=mean, cov=np.full(3, 1e-18)),
            feature_schema=SCHEMA_3D,
        )
        x = np.array([1.0, 0.0, 0.0])
        draw = thompson_sample_predict(model, x, np.random.default_rng(5))
        assert draw == pytest.approx(norm.cdf(2.0), abs=1e-7)

    def test_sample_weights_covariance_is_respected(self):
        post = gaussian_prior(2, variance=4.0)
        rng = np.random.default_rng(17)
        draws = np.array([sample_weights(post, rng) for _ in range(4000)])
        assert np.allclose(draws.std(axis=0), 2.0, atol=0.15)
