"""Scalarization, Thompson template selection, and incremental retraining."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import stationary_best_template_rate

from wpxlab.bandit.features import CONTEXT_FEATURE_NAMES, build_features, feature_schema
from wpxlab.bandit.posteriors import GaussianPosterior, thompson_sample_predict
from wpxlab.bandit.ranker import (
    NON_ABANDONMENT,
    REVENUE,
    SATISFACTION,
    STD_FLOOR,
    ImpressionRecord,
    ObjectiveStats,
    RewardWeights,
    apply_impression,
    bundle_from_dict,
    bundle_to_dict,
    candidate_features,
    frozen_reward,
    incremental_retrain,
    load_bundle,
    new_bundle,
    read_impressions,
    sample_rows,
    save_bundle,
    scalarize,
    score_candidates,
    select_template,
    with_noise_variances,
    write_impressions,
)
from wpxlab.domain import ContentKind, ContextFeatures, Device, ObjectiveVector, PageLayout, PageTemplate
from wpxlab.errors import DomainError
from wpxlab.metrics import CTR_REGION_WEIGHTS

CATEGORIES = ("c0", "c1")
SIGNALS = ("s0",)


def _reward(weights=None):
    weights = weights or {REVENUE: 0.5, NON_ABANDONMENT: 0.2}
    stats = {name: ObjectiveStats(mean=1.0, std=2.0) for name in weights}
    return RewardWeights(weights=weights, stats=stats)


def _bundle(with_satisfaction=False, weights=None):
    if with_satisfaction and weights is None:
        weights = {REVENUE: 0.5, NON_ABANDONMENT: 0.2, SATISFACTION: 0.3}
    return new_bundle(
        categories=CATEGORIES,
        signal_names=SIGNALS,
        reward=_reward(weights),
        region_weights=CTR_REGION_WEIGHTS if with_satisfaction else None,
        with_satisfaction=with_satisfaction,
    )


def _context(device=Device.DESKTOP, signals=None):
    return ContextFeatures(
        device=device,
        query_specificity=0.5,
        category_id="c0",
        membership=0,
        content_signals=signals or {"a": (1.0,), "b": (0.0,)},
    )


def _record(context, template_id, revenue, label, satisfaction=None, ts=1):
    return ImpressionRecord(
        ts=ts,
        context=context,
        template_id=template_id,
        targets=ObjectiveVector(
            revenue=revenue, non_abandonment=label, satisfaction=satisfaction
        ),
        long_term_revenue=0.0,
        long_term_available_on=ts + 84,
    )


class _ZeroNoiseRng:
    """Stands in for a Generator; every posterior draw lands on the mean."""

    def standard_normal(self, n):
        return np.zeros(n)


class TestFeatureEncoding:
    def test_schema_order_and_length(self):
        schema = feature_schema(CATEGORIES, SIGNALS)
        assert schema == (*CONTEXT_FEATURE_NAMES, "category_c0", "category_c1", "signal_s0")

    def test_encoding_layout(self):
        x = build_features(_context(), "a", CATEGORIES, SIGNALS)
        assert np.array_equal(x, np.array([1.0, 0.0, 0.5, 0.0, 1.0, 0.0, 1.0]))
        x_mobile = build_features(_context(device=Device.MOBILE), "b", CATEGORIES, SIGNALS)
        assert x_mobile[1] == 1.0 and x_mobile[-1] == 0.0

    def test_guards(self):
        with pytest.raises(DomainError):
            feature_schema(("c", "c"), SIGNALS)
        with pytest.raises(DomainError):
            build_features(_context(), "missing", CATEGORIES, SIGNALS)
        with pytest.raises(DomainError):
            build_features(_context(signals={"a": (1.0, 2.0)}), "a", CATEGORIES, SIGNALS)


class TestScalarize:
    def test_sample_at_mean_scores_zero(self):
        reward = RewardWeights(
            weights={REVENUE: 1.0}, stats={REVENUE: ObjectiveStats(3.0, 2.0)}
        )
        assert scalarize({REVENUE: 3.0}, reward) == 0.0

    def test_all_objectives_at_means_score_zero(self):
        reward = RewardWeights(
            weights={REVENUE: 0.5, NON_ABANDONMENT: 0.2, SATISFACTION: 0.3},
            stats={
                REVENUE: ObjectiveStats(10.0, 4.0),
                NON_ABANDONMENT: ObjectiveStats(0.6, 0.5),
                SATISFACTION: ObjectiveStats(0.4, 0.1),
            },
        )
        samples = {REVENUE: 10.0, NON_ABANDONMENT: 0.6, SATISFACTION: 0.4}
        assert scalarize(samples, reward) == 0.0

    def test_positive_rescaling_preserves_argmax(self):
        rng = np.random.default_rng(19)
        stats = {
            REVENUE: ObjectiveStats(1.0, 2.0),
            NON_ABANDONMENT: ObjectiveStats(0.5, 0.3),
        }
        for _ in range(50):
            w = {REVENUE: float(rng.uniform(0.1, 2)), NON_ABANDONMENT: float(rng.uniform(0.1, 2))}
            c = float(rng.uniform(0.1, 10.0))
            scaled = RewardWeights({k: c * v for k, v in w.items()}, stats)
            base = RewardWeights(w, stats)
            candidates = [
                {REVENUE: float(rng.normal()), NON_ABANDONMENT: float(rng.normal())}
                for _ in range(5)
            ]
            scores = [scalarize(s, base) for s in candidates]
            scaled_scores = [scalarize(s, scaled) for s in candidates]
            assert int(np.argmax(scores)) == int(np.argmax(scaled_scores))
            for s, ss in zip(scores, scaled_scores):
                assert ss == pytest.approx(c * s, rel=1e-12, abs=1e-12)

    def test_guards(self):
        reward = _reward()
        with pytest.raises(DomainError):
            scalarize({"unknown": 1.0}, reward)
        with pytest.raises(DomainError):
            ObjectiveStats(mean=0.0, std=0.0)
        with pytest.raises(DomainError):
            RewardWeights(weights={REVENUE: 0.0}, stats={REVENUE: ObjectiveStats(0, 1)})
        with pytest.raises(DomainError):
            RewardWeights(weights={REVENUE: 1.0}, stats={})


def _inject_posteriors(bundle, mean_vector, variance=1e-12):
    p = len(bundle.revenue_model.feature_schema)
    mean = np.asarray(mean_vector, dtype=float)
    assert mean.shape == (p,)
    revenue = replace(
        bundle.revenue_model,
        posterior=GaussianPosterior(mean=mean, cov=variance * np.eye(p)),
    )
    non_ab = replace(
        bundle.non_abandonment_model,
        posterior=GaussianPosterior(mean=mean, cov=np.full(p, variance)),
    )
    return replace(bundle, revenue_model=revenue, non_abandonment_model=non_ab)


class TestSelectTemplate:
    def test_single_candidate_is_chosen(self):
        bundle = _bundle()
        layout = PageLayout(template_id="a", slots=())
        chosen, trace = select_template(
            _context(), [layout], bundle, np.random.default_rng(0)
        )
        assert chosen is layout
        assert len(trace) == 1 and trace[0].chosen

    def test_dominant_candidate_wins_nearly_always(self):
        bundle = _bundle()
        p = len(bundle.revenue_model.feature_schema)
        mean = np.zeros(p)
        mean[-1] = 5.0  # reward rides on the content signal
        bundle = _inject_posteriors(bundle, mean)
        candidates = [PageLayout("good", ()), PageLayout("bad", ())]
        context = _context(signals={"good": (1.0,), "bad": (0.0,)})
        wins = 0
        for seed in range(100):
            chosen, _ = select_template(
                context, candidates, bundle, np.random.default_rng(seed)
            )
            wins += int(chosen.template_id == "good")
        assert wins >= 99

    def test_identical_candidates_tie_break_to_lowest_template_id(self):
        bundle = _bundle()
        candidates = [PageLayout("b", ()), PageLayout("a", ())]
        context = _context(signals={"a": (1.0,), "b": (1.0,)})
        chosen, trace = select_template(context, candidates, bundle, _ZeroNoiseRng())
        assert chosen.template_id == "a"
        assert [t.score for t in trace] == [trace[0].score] * 2

    def test_deterministic_given_bundle_candidates_and_seed(self):
        bundle = _bundle()
        candidates = [PageLayout("a", ()), PageLayout("b", ())]
        runs = []
        for _ in range(2):
            chosen, trace = select_template(
                _context(), candidates, bundle, np.random.default_rng(123)
            )
            runs.append((chosen.template_id, [(t.template_id, t.score) for t in trace]))
        assert runs[0] == runs[1]

    def test_mobile_requests_skip_non_abandonment(self):
        bundle = _bundle(with_satisfaction=True)
        assert bundle.active_objectives(Device.DESKTOP) == (
            REVENUE,
            NON_ABANDONMENT,
            SATISFACTION,
        )
        assert bundle.active_objectives(Device.MOBILE) == (REVENUE, SATISFACTION)
        _, trace = select_template(
            _context(device=Device.MOBILE),
            [PageLayout("a", ())],
            bundle,
            np.random.default_rng(1),
        )
        assert NON_ABANDONMENT not in trace[0].samples

    def test_page_templates_are_candidates_and_the_chosen_one_is_returned(self):
        plan = ((ContentKind.ORGANIC, 1.0),)
        candidates = (PageTemplate("a", plan), PageTemplate("b", plan))
        chosen, trace = select_template(
            _context(), candidates, _bundle(), np.random.default_rng(3)
        )
        starred = next(sc.template_id for sc in trace if sc.chosen)
        assert chosen is candidates[[c.template_id for c in candidates].index(starred)]

    def test_empty_candidates_rejected(self):
        with pytest.raises(DomainError):
            select_template(_context(), [], _bundle(), np.random.default_rng(0))


def _per_candidate_selection(context, template_ids, bundle, rng):
    """The selection written one candidate and one objective at a time: each
    weight vector is its own draw, in candidate order, then objective order."""
    traces, best = [], -1
    for i, tid in enumerate(template_ids):
        x = build_features(context, tid, bundle.categories, bundle.signal_names)
        samples = {
            name: thompson_sample_predict(bundle.model_for(name), x, rng)
            for name in bundle.active_objectives(context.device)
        }
        traces.append((samples, scalarize(samples, bundle.reward)))
        if best < 0 or traces[i][1] > traces[best][1] or (
            traces[i][1] == traces[best][1] and tid < template_ids[best]
        ):
            best = i
    return best, traces


def _trained_bundle(with_satisfaction):
    bundle = _bundle(with_satisfaction=with_satisfaction)
    rng = np.random.default_rng(21)
    log = [
        _record(
            _context(device, {"a": (rng.random(),), "b": (rng.random(),), "c": (rng.random(),)}),
            tid,
            float(rng.gamma(2.0)),
            int(rng.random() < 0.4),
            float(rng.random()) if with_satisfaction else None,
        )
        for device in Device
        for tid in ("a", "b", "c", "b")
    ]
    return incremental_retrain(bundle, log, sample_fraction=1.0, rng=rng)


class TestScoreCandidates:
    @pytest.mark.parametrize("device", list(Device))
    @pytest.mark.parametrize("with_satisfaction", [False, True])
    def test_core_matches_per_candidate_draws_and_select_template(self, device, with_satisfaction):
        bundle = _trained_bundle(with_satisfaction)
        assert not bundle.revenue_model.posterior.diagonal
        context = _context(device, {"a": (0.3,), "b": (0.9,), "c": (0.6,)})
        ids = ["b", "c", "a"]
        for seed in range(5):
            expected = _per_candidate_selection(context, ids, bundle, np.random.default_rng(seed))
            features = candidate_features(context, ids, bundle)
            core = score_candidates(features, ids, bundle, device, np.random.default_rng(seed))
            assert core == expected
            chosen, trace = select_template(
                context, [PageLayout(t, ()) for t in ids], bundle, np.random.default_rng(seed)
            )
            assert chosen.template_id == ids[core[0]]
            assert [(sc.samples, sc.score) for sc in trace] == core[1]
            assert [sc.chosen for sc in trace] == [i == core[0] for i in range(len(ids))]

    def test_exact_tie_breaks_to_lowest_template_id(self):
        bundle = _trained_bundle(with_satisfaction=True)
        context = _context(signals={"a": (0.5,), "b": (0.5,), "c": (0.5,)})
        ids = ["c", "a", "b"]
        features = candidate_features(context, ids, bundle)
        best, traces = score_candidates(features, ids, bundle, Device.DESKTOP, _ZeroNoiseRng())
        assert len({score for _, score in traces}) == 1
        assert ids[best] == "a"
        assert (best, traces) == _per_candidate_selection(context, ids, bundle, _ZeroNoiseRng())

    def test_features_are_checked_and_read_only(self):
        bundle = _bundle()
        features = candidate_features(_context(), ["a", "b"], bundle)
        assert features.shape == (2, len(bundle.revenue_model.feature_schema))
        assert not features.flags.writeable
        with pytest.raises(DomainError):
            candidate_features(_context(), ["a", "zz"], bundle)


class TestFrozenReward:
    def test_zero_variance_objective_std_is_floored(self):
        context = _context()
        log = [_record(context, "a", 2.0, 1), _record(context, "b", 2.0, 0)]
        reward = frozen_reward({REVENUE: 0.5, NON_ABANDONMENT: 0.2}, log, False)
        assert STD_FLOOR == 1e-6
        assert reward.stats == {
            REVENUE: ObjectiveStats(2.0, STD_FLOOR),
            NON_ABANDONMENT: ObjectiveStats(0.5, 0.5),
        }

    def test_satisfaction_and_unweighted_objectives_are_omitted(self):
        context = _context()
        log = [
            _record(context, "a", 1.0, 1, satisfaction=0.2),
            _record(context, "b", 3.0, 0, satisfaction=0.6),
        ]
        assert set(frozen_reward({REVENUE: 1.0}, log, True).stats) == {REVENUE}
        weights = {REVENUE: 1.0, SATISFACTION: 0.3}
        reward = frozen_reward(weights, log, True)
        assert set(reward.stats) == {REVENUE, SATISFACTION}
        assert reward.stats[SATISFACTION].mean == pytest.approx(0.4)
        assert reward.stats[SATISFACTION].std == pytest.approx(0.2)
        with pytest.raises(DomainError):
            frozen_reward(weights, log, False)


class TestImpressionRecord:
    def test_long_term_embargo_date_cannot_precede_impression(self):
        with pytest.raises(DomainError):
            ImpressionRecord(
                ts=10,
                context=_context(),
                template_id="a",
                targets=ObjectiveVector(1.0, 1),
                long_term_revenue=0.0,
                long_term_available_on=9,
            )

    def test_jsonl_round_trip(self, tmp_path):
        records = [
            _record(_context(), "a", 1.5, 1, ts=2),
            _record(_context(device=Device.MOBILE), "b", 0.0, 0, ts=3),
        ]
        path = tmp_path / "log.jsonl"
        write_impressions(records, path)
        loaded = read_impressions(path)
        assert loaded == records


class TestRetraining:
    def test_sample_rows_takes_ceil_of_fraction(self):
        rng = np.random.default_rng(21)
        assert len(sample_rows(1000, 0.5, rng)) == 500
        assert len(sample_rows(5, 0.5, rng)) == 3
        assert sorted(sample_rows(7, 1.0, rng)) == list(range(7))
        with pytest.raises(DomainError):
            sample_rows(10, 0.0, rng)

    def test_thousand_rows_train_exactly_five_hundred(self):
        bundle = _bundle()
        log = [
            _record(_context(), "a" if i % 2 else "b", float(i % 5), i % 2)
            for i in range(1000)
        ]
        out = incremental_retrain(bundle, log, rng=np.random.default_rng(3))
        assert out.rows_trained == 500

    def test_empty_log_returns_bundle_untouched(self):
        bundle = _bundle()
        assert incremental_retrain(bundle, [], rng=np.random.default_rng(0)) is bundle

    def test_missing_rng_rejected(self):
        with pytest.raises(DomainError):
            incremental_retrain(_bundle(), [_record(_context(), "a", 1.0, 1)])

    def test_two_retrains_compose_like_one_pass_over_sampled_rows(self):
        bundle = _bundle()
        log = [
            _record(_context(), "a" if i % 3 else "b", float(i % 7) / 2.0, i % 2)
            for i in range(40)
        ]
        first, second = log[:24], log[24:]
        two_step = incremental_retrain(
            incremental_retrain(bundle, first, rng=np.random.default_rng(11)),
            second,
            rng=np.random.default_rng(22),
        )
        manual = bundle
        for idx in sample_rows(len(first), 0.5, np.random.default_rng(11)):
            manual = apply_impression(manual, first[idx])
        for idx in sample_rows(len(second), 0.5, np.random.default_rng(22)):
            manual = apply_impression(manual, second[idx])
        assert np.allclose(
            two_step.revenue_model.posterior.mean,
            manual.revenue_model.posterior.mean,
            atol=1e-10,
        )
        assert np.allclose(
            two_step.revenue_model.posterior.cov,
            manual.revenue_model.posterior.cov,
            atol=1e-10,
        )
        assert np.allclose(
            two_step.non_abandonment_model.posterior.mean,
            manual.non_abandonment_model.posterior.mean,
            atol=1e-10,
        )

    def test_desktop_only_updates_for_non_abandonment(self):
        bundle = _bundle()
        mobile_record = _record(_context(device=Device.MOBILE), "a", 1.0, 1)
        out = apply_impression(bundle, mobile_record)
        assert np.array_equal(
            out.non_abandonment_model.posterior.mean,
            bundle.non_abandonment_model.posterior.mean,
        )
        assert not np.array_equal(
            out.revenue_model.posterior.mean, bundle.revenue_model.posterior.mean
        )
        desktop_record = _record(_context(), "a", 1.0, 1)
        out2 = apply_impression(bundle, desktop_record)
        assert not np.array_equal(
            out2.non_abandonment_model.posterior.mean,
            bundle.non_abandonment_model.posterior.mean,
        )

    def test_satisfaction_bundle_requires_target(self):
        bundle = _bundle(with_satisfaction=True)
        with pytest.raises(DomainError):
            apply_impression(bundle, _record(_context(), "a", 1.0, 1, satisfaction=None))
        out = apply_impression(bundle, _record(_context(), "a", 1.0, 1, satisfaction=0.7))
        assert out.rows_trained == 1

    def test_noise_variance_swap_guards(self):
        bundle = _bundle()
        swapped = with_noise_variances(bundle, 2.5)
        assert swapped.revenue_model.noise_variance == 2.5
        with pytest.raises(DomainError):
            with_noise_variances(bundle, 0.0)
        with pytest.raises(DomainError):
            with_noise_variances(bundle, 1.0, satisfaction_noise_variance=2.0)
        sat_bundle = _bundle(with_satisfaction=True)
        swapped2 = with_noise_variances(sat_bundle, 1.0, 3.0)
        assert swapped2.satisfaction_model.noise_variance == 3.0


class TestBundleStructure:
    def test_control_style_bundle_has_no_satisfaction_model(self):
        assert _bundle(with_satisfaction=False).satisfaction_model is None

    def test_satisfaction_requires_region_weights(self):
        with pytest.raises(DomainError):
            new_bundle(
                categories=CATEGORIES,
                signal_names=SIGNALS,
                reward=_reward({REVENUE: 0.5, SATISFACTION: 0.3}),
                region_weights=None,
                with_satisfaction=True,
            )

    def test_serialization_round_trip(self, tmp_path):
        bundle = _bundle(with_satisfaction=True)
        bundle = incremental_retrain(
            bundle,
            [_record(_context(), "a", 1.0, 1, satisfaction=0.4) for _ in range(8)],
            rng=np.random.default_rng(7),
        )
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded.rows_trained == bundle.rows_trained
        assert np.allclose(
            loaded.revenue_model.posterior.mean, bundle.revenue_model.posterior.mean
        )
        assert np.allclose(
            loaded.satisfaction_model.posterior.cov,
            bundle.satisfaction_model.posterior.cov,
        )
        assert loaded.reward.weights == dict(bundle.reward.weights)
        assert loaded.region_weights == bundle.region_weights

    def test_wrong_payload_kind_rejected(self):
        payload = bundle_to_dict(_bundle())
        payload["kind"] = "nope"
        with pytest.raises(DomainError):
            bundle_from_dict(payload)


class TestStationaryEnvironmentConvergence:
    def test_best_template_dominates_final_thousand_rounds(self):
        assert stationary_best_template_rate(seed=0) > 0.9
