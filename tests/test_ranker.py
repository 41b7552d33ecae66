"""Scalarization, Thompson template selection, and incremental retraining."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import stationary_best_template_rate
from oracles import (
    EXACT_RTOL,
    apply_impression_per_row,
    build_features_per_field,
    exact_linear_posterior,
    per_candidate_scores,
    relative_error,
)

from wpxlab.bandit.features import CONTEXT_FEATURE_NAMES, build_features, encode_rows, feature_schema
from wpxlab.bandit.posteriors import BLOCK_ROWS, GaussianPosterior, thompson_sample_predict
from wpxlab.bandit.ranker import (
    NON_ABANDONMENT,
    REVENUE,
    SATISFACTION,
    STD_FLOOR,
    ImpressionRecord,
    ObjectiveStats,
    RewardWeights,
    apply_impression,
    candidate_features,
    frozen_reward,
    incremental_retrain,
    new_bundle,
    sample_rows,
    scalarize,
    select_template,
    thompson_scores,
    with_noise_variances,
)
from wpxlab.domain import ContentKind, ContextFeatures, Device, ObjectiveVector, PageLayout, PageTemplate
from wpxlab.errors import DomainError, InvariantViolation
from wpxlab.metrics import CTR_REGION_WEIGHTS
from wpxlab.sim.world import WorldConfig, generate_world

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


def _serve_shaped_day(world, rng, n, ts):
    """A day of uniformly served impressions over the world's queries, with
    revenue and satisfaction targets shaped like the simulator's."""
    log = []
    for _ in range(n):
        q = int(rng.integers(world.config.n_queries))
        query = world.queries[q]
        context = ContextFeatures(
            device=Device.MOBILE if rng.random() < world.config.mobile_fraction else Device.DESKTOP,
            query_specificity=query.specificity,
            category_id=query.category_id,
            membership=int(rng.random() < world.config.membership_rate),
            content_signals={
                t.template_id: tuple(world.content_signals[q, i]) for i, t in enumerate(world.templates)
            },
        )
        t = int(rng.integers(len(world.templates)))
        s = world.content_signals[q, t]
        revenue = max(0.0, 20.0 + 60.0 * s[0] + 25.0 * s[1] + 15.0 * rng.standard_normal())
        satisfaction = 0.6 * s[0] + 0.25 * s[1] + 0.15 * s[2] + 0.05 * rng.standard_normal()
        log.append(
            _record(context, world.templates[t].template_id, revenue, int(rng.random() < 0.6),
                    float(np.clip(satisfaction, 0.0, 1.0)), ts)
        )
    return log


def _posteriors(bundle):
    return [(m.posterior.mean.copy(), m.posterior.cov.copy()) for m in
            (bundle.revenue_model, bundle.non_abandonment_model, bundle.satisfaction_model)]


def _assert_unchanged(bundle, before):
    for (mean0, cov0), (mean1, cov1) in zip(before, _posteriors(bundle)):
        assert np.array_equal(mean0, mean1) and np.array_equal(cov0, cov1)
    assert bundle.rows_trained == 0


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

    def test_block_encoder_matches_per_field_oracle_bit_for_bit(self):
        world = generate_world(WorldConfig(seed=0))
        served = _serve_shaped_day(world, np.random.default_rng(3), 200, 1)
        cases = [
            ([(r.context, r.template_id) for r in served], (world.categories, world.signal_names)),
            ([(_context(signals={"a": (1, 0)}), "a")], (CATEGORIES, ("s0", "s1"))),  # integers
        ]
        for rows, schema in cases:
            block = encode_rows(rows, *schema)
            want = np.array([build_features_per_field(c, t, *schema) for c, t in rows])
            assert block.tobytes() == want.tobytes()
            for (context, template_id), row in zip(rows, block):
                assert build_features(context, template_id, *schema).tobytes() == row.tobytes()
            assert encode_rows([], *schema).shape == (0, len(feature_schema(*schema)))

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


def _trained_bundle(with_satisfaction, diagonal=False):
    """A bundle trained on both devices; `diagonal` keeps only the variances of
    its linear posteriors."""
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
    bundle = incremental_retrain(bundle, log, sample_fraction=1.0, rng=rng)
    if not diagonal:
        return bundle
    linear = {
        name: replace(
            model,
            posterior=GaussianPosterior(model.posterior.mean, np.diag(model.posterior.cov)),
        )
        for name, model in (
            ("revenue_model", bundle.revenue_model),
            ("satisfaction_model", bundle.satisfaction_model),
        )
        if model is not None
    }
    return replace(bundle, **linear)


def _block(bundle, ids, devices, seed):
    """Request contexts and their stacked candidate features, one request per
    device, each with its own content signals."""
    rng = np.random.default_rng(seed)
    contexts = [_context(d, {t: (float(rng.normal()),) for t in ids}) for d in devices]
    features = np.stack([candidate_features(c, ids, bundle) for c in contexts])
    return contexts, features


def _one_request(context, ids, bundle, rng):
    """thompson_scores on a block of one request, in the shape of the oracle."""
    features = candidate_features(context, ids, bundle)
    mobile = np.array([context.device is Device.MOBILE])
    best, scores, samples = thompson_scores(features[None], mobile, ids, bundle, [rng])
    names = bundle.active_objectives(context.device)
    return int(best[0]), [
        ({name: float(samples[name][0, i]) for name in names}, float(scores[0, i]))
        for i in range(len(ids))
    ]


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
            core = _one_request(context, ids, bundle, np.random.default_rng(seed))
            assert core == expected
            chosen, trace = select_template(
                context, [PageLayout(t, ()) for t in ids], bundle, np.random.default_rng(seed)
            )
            assert chosen.template_id == ids[core[0]]
            assert [(sc.samples, sc.score) for sc in trace] == core[1]
            assert [sc.chosen for sc in trace] == [i == core[0] for i in range(len(ids))]

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("with_satisfaction", [False, True])
    def test_block_matches_per_candidate_oracle_bit_for_bit(self, with_satisfaction, diagonal):
        bundle = _trained_bundle(with_satisfaction, diagonal)
        assert bundle.revenue_model.posterior.diagonal is diagonal
        ids = ["b", "c", "a", "d"]
        devices = [Device.MOBILE, Device.DESKTOP, Device.DESKTOP, Device.MOBILE, Device.DESKTOP] * 3
        contexts, features = _block(bundle, ids, devices, seed=5)
        mobile = np.array([d is Device.MOBILE for d in devices])
        rngs = [np.random.default_rng(100 + i) for i in range(len(devices))]
        best, scores, samples = thompson_scores(features, mobile, ids, bundle, rngs)
        assert best.shape == (len(devices),) and scores.shape == (len(devices), len(ids))
        for i, device in enumerate(devices):
            want_best, want = per_candidate_scores(
                features[i], ids, bundle, device, np.random.default_rng(100 + i)
            )
            assert best[i] == want_best
            assert scores[i].tolist() == [score for _, score in want]
            for name in bundle.active_objectives(device):
                assert samples[name][i].tolist() == [s[name] for s, _ in want]
            if device is Device.MOBILE:
                assert np.all(np.isnan(samples[NON_ABANDONMENT][i]))

    def test_exact_tie_breaks_to_lowest_template_id(self):
        bundle = _trained_bundle(with_satisfaction=True)
        context = _context(signals={"a": (0.5,), "b": (0.5,), "c": (0.5,)})
        ids = ["c", "a", "b"]
        best, traces = _one_request(context, ids, bundle, _ZeroNoiseRng())
        assert len({score for _, score in traces}) == 1
        assert ids[best] == "a"
        assert (best, traces) == _per_candidate_selection(context, ids, bundle, _ZeroNoiseRng())
        # in a mixed block every row ties, and each takes "a", not the first column
        devices = [Device.MOBILE, Device.DESKTOP, Device.MOBILE]
        contexts = [_context(d, {"a": (0.5,), "b": (0.5,), "c": (0.5,)}) for d in devices]
        features = np.stack([candidate_features(c, ids, bundle) for c in contexts])
        mobile = np.array([d is Device.MOBILE for d in devices])
        block_best, scores, _ = thompson_scores(
            features, mobile, ids, bundle, [_ZeroNoiseRng()] * len(devices)
        )
        assert [ids[b] for b in block_best] == ["a"] * len(devices)
        for i, device in enumerate(devices):
            assert len(set(scores[i].tolist())) == 1
            assert block_best[i] == per_candidate_scores(
                features[i], ids, bundle, device, _ZeroNoiseRng()
            )[0]

    def test_active_objective_without_weight_raises_like_scalarize(self):
        bundle = _bundle(weights={REVENUE: 1.0})
        ids = ["a", "b"]
        _, features = _block(bundle, ids, [Device.MOBILE, Device.DESKTOP], seed=2)
        with pytest.raises(DomainError, match="non_abandonment"):
            per_candidate_scores(
                features[1], ids, bundle, Device.DESKTOP, np.random.default_rng(0)
            )
        with pytest.raises(DomainError, match="non_abandonment"):
            thompson_scores(
                features, np.array([True, False]), ids, bundle,
                [np.random.default_rng(i) for i in range(2)],
            )
        # a mobile-only block never activates the unweighted objective
        best, _, _ = thompson_scores(
            features[:1], np.array([True]), ids, bundle, [np.random.default_rng(0)]
        )
        assert best[0] == per_candidate_scores(
            features[0], ids, bundle, Device.MOBILE, np.random.default_rng(0)
        )[0]

    def test_features_are_checked_and_read_only(self):
        bundle = _bundle()
        features = candidate_features(_context(), ["a", "b"], bundle)
        assert features.shape == (2, len(bundle.revenue_model.feature_schema))
        assert not features.flags.writeable
        with pytest.raises(DomainError):
            candidate_features(_context(), ["a", "zz"], bundle)


class TestFrozenReward:
    def test_zero_variance_objective_std_is_floored(self):
        targets = {REVENUE: np.array([2.0, 2.0]), NON_ABANDONMENT: np.array([1.0, 0.0])}
        reward = frozen_reward({REVENUE: 0.5, NON_ABANDONMENT: 0.2}, targets)
        assert STD_FLOOR == 1e-6
        assert reward.stats == {
            REVENUE: ObjectiveStats(2.0, STD_FLOOR),
            NON_ABANDONMENT: ObjectiveStats(0.5, 0.5),
        }

    def test_satisfaction_and_unweighted_objectives_are_omitted(self):
        targets = {
            REVENUE: np.array([1.0, 3.0]),
            NON_ABANDONMENT: np.array([1.0, 0.0]),
            SATISFACTION: np.array([0.2, 0.6]),
        }
        assert set(frozen_reward({REVENUE: 1.0}, targets).stats) == {REVENUE}
        weights = {REVENUE: 1.0, SATISFACTION: 0.3}
        reward = frozen_reward(weights, targets)
        assert set(reward.stats) == {REVENUE, SATISFACTION}
        assert reward.stats[SATISFACTION].mean == pytest.approx(0.4)
        assert reward.stats[SATISFACTION].std == pytest.approx(0.2)
        without_satisfaction = {k: v for k, v in targets.items() if k != SATISFACTION}
        with pytest.raises(DomainError):
            frozen_reward(weights, without_satisfaction)


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
        sampled = []
        for part, seed in ((first, 11), (second, 22)):
            for idx in sample_rows(len(part), 0.5, np.random.default_rng(seed)):
                manual = apply_impression(manual, part[idx])
                sampled.append(part[idx])
        # the linear model sees exactly the sampled rows, whichever blocks they form
        X = encode_rows([(r.context, r.template_id) for r in sampled], CATEGORIES, SIGNALS)
        y = np.array([r.targets.revenue for r in sampled])
        mean, cov = exact_linear_posterior(bundle.revenue_model.posterior, [(X, y, 1.0)])
        for got in (two_step, manual):
            assert relative_error(got.revenue_model.posterior.mean, mean) <= EXACT_RTOL
            assert relative_error(got.revenue_model.posterior.cov, cov) <= EXACT_RTOL
        # ADF depends on row order, so the probit posterior must match bit for bit
        assert np.array_equal(
            two_step.non_abandonment_model.posterior.mean,
            manual.non_abandonment_model.posterior.mean,
        )
        assert np.array_equal(
            two_step.non_abandonment_model.posterior.cov,
            manual.non_abandonment_model.posterior.cov,
        )

    @pytest.mark.parametrize("with_satisfaction", [False, True])
    def test_retrain_matches_per_row_oracle(self, with_satisfaction):
        bundle = with_noise_variances(
            _bundle(with_satisfaction=with_satisfaction), 0.7, 0.3 if with_satisfaction else None
        )
        rng = np.random.default_rng(8)
        log = [
            _record(
                _context(Device.MOBILE if rng.random() < 0.4 else Device.DESKTOP,
                         {"a": (float(rng.normal()),), "b": (float(rng.normal()),)}),
                "a" if rng.random() < 0.5 else "b",
                float(rng.gamma(2.0)),
                int(rng.random() < 0.6),
                float(rng.random()) if with_satisfaction else None,
            )
            for _ in range(120)
        ]
        day = bundle
        for seed in (1, 2):
            day = incremental_retrain(day, log, rng=np.random.default_rng(seed))
        oracle = bundle
        sampled = []
        for seed in (1, 2):
            for idx in sample_rows(len(log), 0.5, np.random.default_rng(seed)):
                oracle = apply_impression_per_row(oracle, log[idx])
                sampled.append(log[idx])
        assert day.rows_trained == oracle.rows_trained == 120
        # ADF is sequential: bit for bit the per-row steps
        got, want = day.non_abandonment_model.posterior, oracle.non_abandonment_model.posterior
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.cov, want.cov)
        assert np.array_equal(got.factor, want.factor)
        # the linear models: the exact conjugate posterior of the sampled rows
        X = encode_rows([(r.context, r.template_id) for r in sampled], CATEGORIES, SIGNALS)
        for name in bundle.active_objectives(Device.MOBILE):
            model = bundle.model_for(name)
            y = np.array([getattr(r.targets, name) for r in sampled])
            mean, cov = exact_linear_posterior(model.posterior, [(X, y, model.noise_variance)])
            got = day.model_for(name).posterior
            assert relative_error(got.mean, mean) <= EXACT_RTOL, name
            assert relative_error(got.cov, cov) <= EXACT_RTOL, name

    def test_serve_shaped_week_matches_exact_posterior_better_than_per_row_steps(self):
        # eight nightly retrains (400 rows, then 1,000 a day) on the simulator's
        # features, each day at its own noise variance; satisfaction's is near
        # 0.02, which makes its precision's condition number near 1e6
        world = generate_world(WorldConfig(seed=0))
        rng = np.random.default_rng(0)
        reward = RewardWeights(
            weights={REVENUE: 0.5, SATISFACTION: 0.3},
            stats={REVENUE: ObjectiveStats(40.0, 20.0), SATISFACTION: ObjectiveStats(0.3, 0.15)},
        )
        start = new_bundle(world.categories, world.signal_names, reward, CTR_REGION_WEIGHTS, True)
        day = oracle = start
        batches = {REVENUE: [], SATISFACTION: []}
        for ts in range(8):
            log = _serve_shaped_day(world, rng, 400 if ts == 0 else 1000, ts)
            X = encode_rows([(r.context, r.template_id) for r in log], world.categories, world.signal_names)
            noise = {}
            for name in batches:
                y = np.array([getattr(r.targets, name) for r in log])
                noise[name] = float(y.var())
                batches[name].append((X, y, noise[name]))
            day = with_noise_variances(day, noise[REVENUE], noise[SATISFACTION])
            day = incremental_retrain(day, log, sample_fraction=1.0, rng=np.random.default_rng(ts))
            oracle = with_noise_variances(oracle, noise[REVENUE], noise[SATISFACTION])
            for idx in sample_rows(len(log), 1.0, np.random.default_rng(ts)):
                oracle = apply_impression_per_row(oracle, log[idx])
        for name, batch in batches.items():
            mean, cov = exact_linear_posterior(start.model_for(name).posterior, batch)
            got, per_row = day.model_for(name).posterior, oracle.model_for(name).posterior
            assert relative_error(got.cov, cov) <= EXACT_RTOL, name
            assert relative_error(got.cov, cov) <= relative_error(per_row.cov, cov), name
            # the mean carries the condition number: ~4e-14 blocked, ~3e-13 per row
            assert relative_error(got.mean, mean) <= 10 * EXACT_RTOL, name
            assert relative_error(got.mean, mean) <= relative_error(per_row.mean, mean), name

    @pytest.mark.parametrize(
        "fault", ["non-finite target", "label outside {0, 1}", "wrong-width features", "no satisfaction"]
    )
    def test_bad_day_raises_before_any_model_changes(self, fault):
        bundle = _bundle(with_satisfaction=True)
        before = _posteriors(bundle)
        log = [_record(_context(), "a" if i % 2 else "b", 1.0, i % 2, 0.5) for i in range(9)]
        if fault == "non-finite target":
            bad = _record(_context(), "a", float("inf"), 1, 0.5)
        elif fault == "label outside {0, 1}":
            # ObjectiveVector rejects this label, so forge a corrupted record
            bad = _record(_context(), "a", 1.0, 1, 0.5)
            object.__setattr__(bad.targets, "non_abandonment", 2)
        elif fault == "wrong-width features":
            bad = _record(_context(signals={"a": (1.0, 2.0)}), "a", 1.0, 1, 0.5)
        else:
            bad = _record(_context(), "a", 1.0, 1, None)
        with pytest.raises(DomainError):
            incremental_retrain(bundle, [*log, bad], sample_fraction=1.0, rng=np.random.default_rng(0))
        _assert_unchanged(bundle, before)

    @pytest.mark.parametrize(
        "fault, error",
        [
            ("non-finite target", DomainError),
            ("negative revenue", DomainError),
            ("label outside {0, 1}", DomainError),
            ("fractional label", DomainError),
            ("satisfaction outside [0, 1]", DomainError),
            ("wrong-width features", DomainError),
            ("short device flags", DomainError),
            ("no satisfaction", DomainError),
            ("long-term revenue target", InvariantViolation),
        ],
    )
    def test_bad_block_raises_before_any_model_changes(self, fault, error):
        # the checks an ObjectiveVector makes per record, made on a forged block
        bundle = _bundle(with_satisfaction=True)
        before = _posteriors(bundle)
        n = 10
        X = encode_rows([(_context(), "a" if i % 2 else "b") for i in range(n)], CATEGORIES, SIGNALS)
        mobile = np.arange(n) % 3 == 0
        targets = {
            REVENUE: np.ones(n),
            NON_ABANDONMENT: (np.arange(n) % 2).astype(float),
            SATISFACTION: np.full(n, 0.5),
        }
        if fault == "non-finite target":
            targets[REVENUE][-1] = np.inf
        elif fault == "negative revenue":
            targets[REVENUE][-1] = -0.5
        elif fault == "label outside {0, 1}":
            targets[NON_ABANDONMENT][0] = 2.0
        elif fault == "fractional label":
            # a mobile row: the probit update never sees it
            assert mobile[0]
            targets[NON_ABANDONMENT][0] = 0.5
        elif fault == "satisfaction outside [0, 1]":
            targets[SATISFACTION][-1] = 1.5
        elif fault == "wrong-width features":
            X = np.column_stack([X, np.ones(n)])
        elif fault == "short device flags":
            mobile = mobile[:-1]
        elif fault == "no satisfaction":
            del targets[SATISFACTION]
        else:
            # the embargoed long-horizon outcome is never a training target
            targets["long_term_revenue"] = np.full(n, 40.0)
        with pytest.raises(error):
            incremental_retrain(bundle, (X, mobile, targets), sample_fraction=1.0, rng=np.random.default_rng(0))
        _assert_unchanged(bundle, before)

    @pytest.mark.parametrize(
        "prior_variance, noise_variance", [(1e6, 1e-10), (1e6, 1e-12), (1e4, 1e-12), (1e2, 1e-14)]
    )
    def test_covariance_losing_positive_definiteness_raises_at_that_row(
        self, prior_variance, noise_variance
    ):
        # a huge prior against almost noiseless, almost collinear rows: a
        # per-row step sees x^T S x < 0, and the block's innovation matrix
        # does not factor
        bundle = new_bundle(
            CATEGORIES, SIGNALS, _reward(), None, False, prior_variance=prior_variance
        )
        bundle = with_noise_variances(bundle, noise_variance)
        log = [
            _record(_context(Device.MOBILE, {"a": (1.0 + 1e-9 * i,)}), "a", 1.0 + 0.1 * i, 1)
            for i in range(12)
        ]
        with pytest.raises(InvariantViolation):
            apply_impression_per_row(bundle, log[0])
        with pytest.raises(InvariantViolation, match=r"innovation matrix not positive definite over rows \d+\.\.\d+"):
            incremental_retrain(bundle, log, sample_fraction=1.0, rng=np.random.default_rng(0))

    def test_retrain_factors_once_per_block_and_posterior(self, monkeypatch):
        # per-row revalidation factored every posterior it built: 200 per model;
        # a blocked update factors each block's innovation matrix, then the
        # posterior it ends at once
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(a.shape)
            return cholesky(a)

        bundle = _bundle(with_satisfaction=True)
        log = [
            _record(_context(Device.MOBILE if i % 3 else Device.DESKTOP), "a" if i % 2 else "b",
                    float(i % 5), i % 2, (i % 7) / 7.0)
            for i in range(200)
        ]
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        out = incremental_retrain(bundle, log, sample_fraction=1.0, rng=np.random.default_rng(4))
        assert out.rows_trained == 200
        # the counter is live (the linear posteriors are full); two linear models
        assert 0 < len(calls) <= 2 * (math.ceil(200 / BLOCK_ROWS) + 1)

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


class TestStationaryEnvironmentConvergence:
    def test_best_template_dominates_final_thousand_rounds(self):
        assert stationary_best_template_rate(seed=0) > 0.9
