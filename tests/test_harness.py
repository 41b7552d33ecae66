"""A/B comparison math and the day-by-day experiment loop."""

import hashlib
import json
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from wpxlab.bandit.ranker import (
    NON_ABANDONMENT,
    REVENUE,
    SATISFACTION,
    ImpressionRecord,
    ObjectiveStats,
    RewardWeights,
    incremental_retrain,
    new_bundle,
    with_noise_variances,
)
from wpxlab.domain import ContextFeatures, Device, ObjectiveVector
from wpxlab.dml.pipeline import DmlConfig
from wpxlab.errors import DomainError, EstimationError
from wpxlab.harness.experiment import (
    METRIC_NAMES,
    ArmConfig,
    ExperimentConfig,
    ab_compare,
    config_from_json,
    config_to_json,
    default_experiment_config,
    estimate_dvwpx_region_weights,
    load_report,
    render_report,
    report_from_dict,
    report_json,
    report_to_dict,
    request_context,
    request_rows,
    run_experiment,
    save_report,
    serve_pages,
    write_per_day_csv,
)
from wpxlab.metrics import CTR_REGION_WEIGHTS, layout_region_bmrs, weighted_bmr
from wpxlab.sim.session import (
    build_layout,
    draw_availability,
    realize_long_term,
    simulate_session,
)
from wpxlab.sim.world import WorldConfig, generate_world

BASE_WEIGHTS = {REVENUE: 0.5, NON_ABANDONMENT: 0.2}
SAT_WEIGHTS = {**BASE_WEIGHTS, SATISFACTION: 0.3}


def _metric_log(rng, n=200, scale=1.0):
    return {
        "revenue": scale * rng.lognormal(0.0, 0.8, n),
        "long_term_revenue": scale * rng.lognormal(0.5, 0.6, n),
        "ctr": scale * rng.uniform(0.01, 0.4, n),
        "pr_wp_bmr": scale * rng.uniform(0.05, 0.9, n),
    }


def _two_arm_config(seed=17):
    return ExperimentConfig(
        world=WorldConfig(seed=seed),
        arms=(
            ArmConfig("control", "none", BASE_WEIGHTS),
            ArmConfig("t1", "ctr", SAT_WEIGHTS),
        ),
        days=3,
        sessions_per_day=50,
        warmup_days=1,
        seed=seed,
        bootstrap_n=150,
    )


@pytest.fixture(scope="module")
def two_arm_report():
    return run_experiment(_two_arm_config())


def _ab(control, treatment, bootstrap_n=1000, seed=0):
    return ab_compare({"control": control, "treatment": treatment}, "control", bootstrap_n, seed)


class TestAbCompare:
    def test_self_comparison_has_zero_lift_and_covering_ci(self):
        log = _metric_log(np.random.default_rng(1))
        rows = _ab(log, log, bootstrap_n=300, seed=2)
        assert [r.metric for r in rows] == list(METRIC_NAMES)
        for row in rows:
            assert row.lift == 0.0
            assert row.ci_low <= 0.0 <= row.ci_high

    def test_uniform_scaling_recovers_the_scale(self):
        control = _metric_log(np.random.default_rng(3))
        treatment = {m: 1.1 * v for m, v in control.items()}
        rows = _ab(control, treatment, bootstrap_n=200, seed=4)
        for row in rows:
            assert row.lift == pytest.approx(0.1, rel=1e-12)
            # each resample gathers the same sessions from both arms, so every
            # resampled lift is the scale too
            assert abs(row.ci_low - 0.1) < 1e-12 and abs(row.ci_high - 0.1) < 1e-12

    def test_null_intervals_cover_zero_most_of_the_time(self):
        rng = np.random.default_rng(5)
        covered = 0
        for _ in range(100):
            a = {"revenue": rng.lognormal(0.0, 0.5, 200)}
            b = {"revenue": rng.lognormal(0.0, 0.5, 200)}
            row = _ab(a, b, bootstrap_n=1000, seed=6)[0]
            covered += int(row.ci_low <= 0.0 <= row.ci_high)
        assert covered >= 90

    def test_swapping_arms_negates_the_lift_on_the_odds_scale(self):
        rng = np.random.default_rng(7)
        a = _metric_log(rng)
        b = _metric_log(rng, scale=1.3)
        forward = _ab(a, b, bootstrap_n=50, seed=8)
        backward = _ab(b, a, bootstrap_n=50, seed=8)
        for f, g in zip(forward, backward):
            assert g.lift == pytest.approx(-f.lift / (1.0 + f.lift), rel=1e-12)

    def test_zero_control_mean_rejected(self):
        control = {"revenue": np.zeros(50)}
        treatment = {"revenue": np.ones(50)}
        with pytest.raises(EstimationError):
            _ab(control, treatment, bootstrap_n=10, seed=0)

    def test_log_guards(self):
        log = _metric_log(np.random.default_rng(9))
        with pytest.raises(DomainError):
            _ab({}, log)
        with pytest.raises(DomainError):
            _ab({"revenue": log["revenue"]}, {"ctr": log["ctr"]})

    def test_arms_of_unequal_session_counts_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(DomainError, match=r"120 sessions.*200"):
            _ab(_metric_log(rng), _metric_log(rng, n=120))

    def test_single_arm_draws_no_resamples(self, monkeypatch):
        def no_stream(*args):
            raise AssertionError("a single arm drew resamples")

        monkeypatch.setattr("wpxlab.harness.experiment.stream", no_stream)
        log = _metric_log(np.random.default_rng(11))
        assert ab_compare({"control": log}, "control", bootstrap_n=100, seed=0) == []


class TestRunExperiment:
    def test_single_arm_run_reports_no_lifts(self):
        config = ExperimentConfig(
            world=WorldConfig(seed=5),
            arms=(ArmConfig("control", "none", BASE_WEIGHTS),),
            days=2,
            sessions_per_day=40,
            warmup_days=1,
            seed=5,
            bootstrap_n=100,
        )
        report = run_experiment(config)
        assert report.lifts == ()
        assert report.region_weights == {"control": None}
        assert set(report.arm_means) == {"control"}
        assert set(report.arm_means["control"]) == set(METRIC_NAMES)
        assert len(report.per_day) == 2

    def test_report_of_a_pinned_run(self):
        # any change to a random stream or an output byte of the three-arm
        # loop moves this digest
        config = replace(default_experiment_config(3), days=3, sessions_per_day=60)
        digest = hashlib.sha256(report_json(run_experiment(config)).encode()).hexdigest()
        assert digest == "f1f8cb003c4882cad25d35dd3849ac7140925361ff05f480723025f7498be550"

    def test_rerun_is_byte_identical(self, two_arm_report):
        again = run_experiment(_two_arm_config())
        assert report_json(again) == report_json(two_arm_report)

    def test_warmup_serving_is_shared_across_arms(self, two_arm_report):
        day_one = [r for r in two_arm_report.per_day if r["day"] == 1]
        assert all(r["warmup"] for r in day_one)
        control, t1 = day_one
        for m in METRIC_NAMES:
            assert control[m] == t1[m]

    def test_arm_region_weights_reflect_satisfaction_mode(self, two_arm_report):
        assert two_arm_report.region_weights["control"] is None
        assert two_arm_report.region_weights["t1"] == CTR_REGION_WEIGHTS.as_tuple()

    def test_render_and_per_day_csv(self, two_arm_report, tmp_path):
        text = render_report(two_arm_report)
        assert "control" in text and "t1" in text
        assert "relative lifts vs control" in text
        path = tmp_path / "per_day.csv"
        write_per_day_csv(two_arm_report, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 2
        assert lines[0].split(",") == ["day", "arm", "warmup", "n_sessions", *METRIC_NAMES]

    def test_report_save_load_round_trip(self, two_arm_report, tmp_path):
        path = tmp_path / "report.json"
        save_report(two_arm_report, path)
        loaded = load_report(path)
        assert report_json(loaded) == report_json(two_arm_report)

    @pytest.mark.parametrize("version", ["missing", True, 1.0])
    def test_loading_another_schema_version_rejected(self, two_arm_report, version):
        payload = report_to_dict(two_arm_report)
        if version == "missing":
            del payload["schema_version"]
        else:
            payload["schema_version"] = version
        with pytest.raises(DomainError, match="report.schema_version must be 2"):
            report_from_dict(payload)

    def test_loading_non_report_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(DomainError):
            load_report(path)


class TestServing:
    def test_request_context_reads_the_query_row(self, default_world):
        world, qi = default_world, 5
        context = request_context(world, qi, Device.MOBILE, 1)
        query = world.queries[qi]
        assert (context.device, context.membership) == (Device.MOBILE, 1)
        assert context.query_specificity == query.specificity
        assert context.category_id == query.category_id
        assert list(context.content_signals) == [t.template_id for t in world.templates]
        for ti, t in enumerate(world.templates):
            assert context.content_signals[t.template_id] == tuple(world.content_signals[qi, ti])

    @pytest.mark.parametrize(
        "shared_rng, region_weights", [(False, CTR_REGION_WEIGHTS), (True, None)]
    )
    def test_serve_page_matches_the_explicit_chain(
        self, default_world, shared_rng, region_weights
    ):
        # a block of pages served at once against one page at a time through
        # the object-level chain; `shared_rng` draws a page's long-term noise
        # from its session generator, as `rank`'s warm-up does
        world = default_world
        ci = np.array([7, 0, 33, 7, 120, 5, 61])
        qi = np.array([3, 3, 0, 11, 49, 20, 3])
        ti = np.array([2, 0, 5, 1, 3, 4, 2])
        available = np.array(
            [draw_availability(world, np.random.default_rng(i)) for i in range(len(ci))]
        )

        def rngs(i):
            session_rng = np.random.default_rng(100 + i)
            return session_rng, session_rng if shared_rng else np.random.default_rng(200 + i)

        u, z = np.empty((len(ci), 3, world.n_slots)), np.empty(len(ci))
        for i in range(len(ci)):
            session_rng, long_term_rng = rngs(i)
            u[i] = session_rng.random((3, world.n_slots))
            z[i] = long_term_rng.standard_normal()
        sessions, long_terms, targets = serve_pages(
            world, ci, qi, ti, available, u, z, region_weights
        )
        expected_names = [REVENUE, NON_ABANDONMENT] + ([] if region_weights is None else [SATISFACTION])
        assert list(targets) == expected_names
        assert all(v.shape == (len(ci),) for v in targets.values())
        for i in range(len(ci)):
            session_rng, long_term_rng = rngs(i)
            c, q, t = int(ci[i]), int(qi[i]), int(ti[i])
            layout = build_layout(world, q, t, available[i])
            session = simulate_session(world, c, q, layout, session_rng)
            long_term = realize_long_term(world, c, q, layout, session, long_term_rng)
            expected_bmrs = layout_region_bmrs(layout, world.brands[world.query_brand[q]])
            # the targets pass the checks an ObjectiveVector makes
            served = ObjectiveVector(
                revenue=float(targets[REVENUE][i]),
                non_abandonment=int(targets[NON_ABANDONMENT][i]),
                satisfaction=None if region_weights is None else float(targets[SATISFACTION][i]),
            )
            assert served == ObjectiveVector(
                revenue=session.short_term_revenue,
                non_abandonment=session.non_abandonment,
                satisfaction=(
                    None if region_weights is None else weighted_bmr(expected_bmrs, region_weights)
                ),
            )
            assert targets[NON_ABANDONMENT][i] == session.non_abandonment
            assert long_terms[i] == long_term.long_term_revenue
            assert sessions.engagement[i] == session.engagement_a
            assert tuple(sessions.region_bmrs[i].tolist()) == expected_bmrs


class TestTrainingBlock:
    @pytest.mark.parametrize("region_weights", [None, CTR_REGION_WEIGHTS])
    def test_block_retrain_equals_record_retrain_bit_for_bit(self, default_world, region_weights):
        # an experiment-shaped day: 400 sessions served uniformly, the block
        # gathered from the request table, the records built one per session
        world, day, n = default_world, 3, 400
        rng = np.random.default_rng(5)
        ci = rng.integers(0, world.config.n_customers, n)
        qi = rng.integers(0, world.config.n_queries, n)
        ti = rng.integers(0, len(world.templates), n)
        mobile = rng.random(n) < world.config.mobile_fraction
        available = np.array([draw_availability(world, rng) for _ in range(n)])
        u, z = rng.random((n, 3, world.n_slots)), rng.standard_normal(n)
        _, long_term, targets = serve_pages(world, ci, qi, ti, available, u, z, region_weights)
        members = world.customers.membership[ci]
        weights = BASE_WEIGHTS if region_weights is None else SAT_WEIGHTS
        reward = RewardWeights(weights, {name: ObjectiveStats(0.0, 1.0) for name in weights})
        start = new_bundle(
            world.categories, world.signal_names, reward, region_weights, region_weights is not None
        )
        start = with_noise_variances(
            start, 40.0, None if region_weights is None else 0.02
        )
        rows = request_rows(world, start, mobile, qi, members)[np.arange(n), ti]
        block = (rows, mobile, targets)
        sat = targets.get(SATISFACTION, np.full(n, None))
        records = [
            ImpressionRecord(
                ts=day,
                context=request_context(
                    world, int(qi[i]), Device.MOBILE if mobile[i] else Device.DESKTOP, int(members[i])
                ),
                template_id=world.templates[ti[i]].template_id,
                targets=ObjectiveVector(
                    revenue=float(targets[REVENUE][i]),
                    non_abandonment=int(targets[NON_ABANDONMENT][i]),
                    satisfaction=None if sat[i] is None else float(sat[i]),
                ),
                long_term_revenue=float(long_term[i]),
                long_term_available_on=day + 84,
            )
            for i in range(n)
        ]
        by_block = by_records = start
        for seed in (1, 2):
            by_block = incremental_retrain(by_block, block, rng=np.random.default_rng(seed))
            by_records = incremental_retrain(by_records, records, rng=np.random.default_rng(seed))
        assert by_block.rows_trained == by_records.rows_trained == n
        names = [REVENUE, NON_ABANDONMENT] + ([] if region_weights is None else [SATISFACTION])
        for name in names:
            got, want = by_block.model_for(name).posterior, by_records.model_for(name).posterior
            assert np.array_equal(got.mean, want.mean), name
            assert np.array_equal(got.cov, want.cov), name
        # the block still moved every model off its prior
        for name in names:
            assert not np.array_equal(by_block.model_for(name).posterior.mean, start.model_for(name).posterior.mean)

    def test_run_experiment_builds_no_per_session_objects(self, monkeypatch):
        counts = dict.fromkeys(["ImpressionRecord", "ContextFeatures"], 0)
        for cls in (ImpressionRecord, ContextFeatures):

            def counted(self, original=cls.__post_init__, name=cls.__name__):
                counts[name] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        config = _two_arm_config()
        run_experiment(config)
        assert counts["ImpressionRecord"] == 0
        # one context per (device, query, membership), not one per session
        assert 0 < counts["ContextFeatures"] <= 2 * config.world.n_queries * 2
        assert 2 * config.world.n_queries * 2 < len(config.arms) * config.days * config.sessions_per_day


class TestRegionWeightEstimation:
    def test_causal_weights_from_randomized_panel(self):
        config = ExperimentConfig(
            world=WorldConfig(seed=29),
            arms=(ArmConfig("control", "none", BASE_WEIGHTS),),
            days=1,
            sessions_per_day=1,
            warmup_days=1,
            seed=29,
            weight_panel_events=1500,
        )
        world = generate_world(config.world)
        weights = estimate_dvwpx_region_weights(world, config)
        assert weights.w_top > weights.w_bot
        assert sum(weights.as_tuple()) == pytest.approx(1.0, abs=1e-12)


OFF_DEFAULT_WORLD = WorldConfig(
    n_customers=300,
    n_queries=7,
    n_zips=5,
    n_brands=9,
    n_templates=4,
    true_region_effects=(2, 0.5, -0.1),
    short_term_carry=0.3,
    engagement_carry=0.2,
    fixed_effect_scales=(0.4, 0.2),
    noise_scale=0.6,
    position_bias_decay=0.9,
    widget_attention_multiplier=1.1,
    seed=5,
    n_items=100,
    n_categories=2,
    history_effects=(0.1, 0.2, 0.3, 0.4),
    confound_strength=1.5,
    propensity_noise=0.4,
    availability_rate=0.8,
    purchase_prob=0.2,
    brand_click_boost=1.4,
    brand_conversion_boost=1.2,
    organic_brand_bonus=0.3,
    spend_sensitivity=0.7,
    high_appeal_threshold=0.5,
    mobile_fraction=0.5,
    membership_rate=0.3,
)
OFF_DEFAULT_ARM = ArmConfig("t1", "ctr", {REVENUE: 1, SATISFACTION: 0.25})
# each dataclass a command-line config file is read into, every field off its default
OFF_DEFAULT_CONFIGS = (
    OFF_DEFAULT_WORLD,
    OFF_DEFAULT_ARM,
    ExperimentConfig(
        world=OFF_DEFAULT_WORLD,
        arms=(ArmConfig("c", "none", BASE_WEIGHTS), OFF_DEFAULT_ARM),
        days=3,
        sessions_per_day=20,
        warmup_days=1,
        seed=4,
        weight_panel_events=900,
        weight_stage2="lasso",
        bootstrap_n=50,
        prior_variance=2,
    ),
    DmlConfig(
        deaverage_iterations=5,
        train_fraction=0.8,
        crossfit_folds=3,
        stage2="lasso",
        lasso_grid_points=7,
        lasso_cv_folds=4,
        seed=9,
    ),
    ContextFeatures(
        device=Device.MOBILE,
        query_specificity=0.25,
        category_id="cat1",
        membership=1,
        content_signals={"organic_grid": (0.1, 2), "brand_top": (0.5, 0.0)},
    ),
)


def _fields_at_default(config):
    def default(f):
        return f.default_factory() if f.default_factory is not MISSING else f.default

    return [
        f.name
        for f in fields(config)
        if (f.default, f.default_factory) != (MISSING, MISSING)
        and getattr(config, f.name) == default(f)
    ]


class TestConfigSerialization:
    def test_round_trip_preserves_equality(self):
        config = _two_arm_config(seed=31)
        payload = config_to_json(config)
        assert json.loads(json.dumps(payload)) == payload
        assert config_from_json(ExperimentConfig, payload, "config") == config

    @pytest.mark.parametrize("config", OFF_DEFAULT_CONFIGS, ids=lambda c: type(c).__name__)
    def test_every_field_off_its_default_round_trips(self, config):
        assert _fields_at_default(config) == []
        payload = json.loads(json.dumps(config_to_json(config)))
        assert config_from_json(type(config), payload, "config") == config

    def test_guards(self):
        with pytest.raises(DomainError):
            ArmConfig("c", "none", {REVENUE: 0.5, SATISFACTION: 0.3})
        with pytest.raises(DomainError):
            ArmConfig("t", "ctr", BASE_WEIGHTS)
        with pytest.raises(DomainError):
            ArmConfig("t", "bogus", SAT_WEIGHTS)
        with pytest.raises(DomainError):
            ExperimentConfig(
                world=WorldConfig(seed=0),
                arms=(),
                days=2,
                sessions_per_day=10,
                warmup_days=1,
                seed=0,
            )
        arm = ArmConfig("control", "none", BASE_WEIGHTS)
        with pytest.raises(DomainError):
            ExperimentConfig(
                world=WorldConfig(seed=0),
                arms=(arm, arm),
                days=2,
                sessions_per_day=10,
                warmup_days=1,
                seed=0,
            )
        with pytest.raises(DomainError):
            ExperimentConfig(
                world=WorldConfig(seed=0),
                arms=(arm,),
                days=1,
                sessions_per_day=10,
                warmup_days=2,
                seed=0,
            )
