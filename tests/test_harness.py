"""A/B comparison math and the day-by-day experiment loop."""

import json

import numpy as np
import pytest

from wpxlab.bandit.ranker import NON_ABANDONMENT, REVENUE, SATISFACTION
from wpxlab.domain import Device, HorizonConfig, ObjectiveVector
from wpxlab.errors import DomainError, EstimationError
from wpxlab.harness import experiment
from wpxlab.harness.experiment import (
    METRIC_NAMES,
    ArmConfig,
    ExperimentConfig,
    ab_compare,
    estimate_ctr_region_weights,
    estimate_dvwpx_region_weights,
    experiment_config_from_dict,
    experiment_config_to_dict,
    load_report,
    render_report,
    report_json,
    request_context,
    run_experiment,
    save_report,
    serve_page,
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


class TestAbCompare:
    def test_self_comparison_has_zero_lift_and_covering_ci(self):
        log = _metric_log(np.random.default_rng(1))
        rows = ab_compare(log, log, bootstrap_n=300, seed=2)
        assert [r.metric for r in rows] == list(METRIC_NAMES)
        for row in rows:
            assert row.lift == 0.0
            assert row.ci_low <= 0.0 <= row.ci_high

    def test_uniform_scaling_recovers_the_scale(self):
        control = _metric_log(np.random.default_rng(3))
        treatment = {m: 1.1 * v for m, v in control.items()}
        rows = ab_compare(control, treatment, bootstrap_n=100, seed=4)
        for row in rows:
            assert row.lift == pytest.approx(0.1, rel=1e-12)

    def test_null_intervals_cover_zero_most_of_the_time(self):
        rng = np.random.default_rng(5)
        covered = 0
        for _ in range(100):
            a = {"revenue": rng.lognormal(0.0, 0.5, 200)}
            b = {"revenue": rng.lognormal(0.0, 0.5, 200)}
            row = ab_compare(a, b, bootstrap_n=1000, seed=6)[0]
            covered += int(row.ci_low <= 0.0 <= row.ci_high)
        assert covered >= 90

    def test_swapping_arms_negates_the_lift_on_the_odds_scale(self):
        rng = np.random.default_rng(7)
        a = _metric_log(rng)
        b = _metric_log(rng, scale=1.3)
        forward = ab_compare(a, b, bootstrap_n=50, seed=8)
        backward = ab_compare(b, a, bootstrap_n=50, seed=8)
        for f, g in zip(forward, backward):
            assert g.lift == pytest.approx(-f.lift / (1.0 + f.lift), rel=1e-12)

    def test_zero_control_mean_rejected(self):
        control = {"revenue": np.zeros(50)}
        treatment = {"revenue": np.ones(50)}
        with pytest.raises(EstimationError):
            ab_compare(control, treatment, bootstrap_n=10, seed=0)

    def test_log_guards(self):
        log = _metric_log(np.random.default_rng(9))
        with pytest.raises(DomainError):
            ab_compare({}, log)
        with pytest.raises(DomainError):
            ab_compare({"revenue": log["revenue"]}, {"ctr": log["ctr"]})


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

    def test_rerun_is_byte_identical(self, two_arm_report):
        again = run_experiment(_two_arm_config())
        assert report_json(again) == report_json(two_arm_report)

    def test_audit_shows_embargoed_long_term_and_capped_consumption(
        self, two_arm_report
    ):
        assert len(two_arm_report.audit) == 3 * 2
        for row in two_arm_report.audit:
            assert row["consumed_max_availability"] <= row["day"]
            assert row["long_term_min_availability"] > row["day"]
            assert row["long_term_embargoed"] is True
            assert row["rows"] == 50

    def test_warmup_serving_is_shared_across_arms(self, two_arm_report):
        day_one = [r for r in two_arm_report.per_day if r["day"] == 1]
        assert all(r["warmup"] for r in day_one)
        control, t1 = day_one
        for m in METRIC_NAMES:
            assert control[m] == t1[m]

    def test_arm_region_weights_reflect_satisfaction_mode(self, two_arm_report):
        assert two_arm_report.region_weights["control"] is None
        assert two_arm_report.region_weights["t1"] == CTR_REGION_WEIGHTS.as_tuple()

    def test_reestimated_click_weights_replace_the_fixed_ones(self):
        config = ExperimentConfig(
            world=WorldConfig(seed=23),
            arms=(
                ArmConfig("control", "none", BASE_WEIGHTS),
                ArmConfig("t1", "ctr", SAT_WEIGHTS),
            ),
            days=1,
            sessions_per_day=30,
            warmup_days=1,
            seed=23,
            bootstrap_n=50,
            reestimate_ctr_weights=True,
            ctr_weight_sessions=200,
        )
        report = run_experiment(config)
        weights = report.region_weights["t1"]
        assert weights is not None
        assert weights != CTR_REGION_WEIGHTS.as_tuple()
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

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
        world, ci, qi, ti, day = default_world, 7, 3, 2, 4
        horizon = HorizonConfig()
        available = draw_availability(world, np.random.default_rng(1))
        context = request_context(world, qi, Device.DESKTOP, 0)

        def rngs():
            session_rng = np.random.default_rng(8)
            return session_rng, session_rng if shared_rng else np.random.default_rng(9)

        record, engagement, bmrs = serve_page(
            world, ci, qi, ti, available, context, day, horizon, region_weights, *rngs()
        )
        session_rng, long_term_rng = rngs()
        layout = build_layout(world, qi, ti, available)
        session = simulate_session(world, ci, qi, layout, session_rng)
        long_term = realize_long_term(world, ci, qi, layout, session, long_term_rng)
        expected_bmrs = layout_region_bmrs(layout, world.brands[world.queries[qi].brand_index])
        assert record.context is context
        assert record.template_id == world.templates[ti].template_id
        assert record.targets == ObjectiveVector(
            revenue=session.short_term_revenue,
            non_abandonment=session.non_abandonment,
            satisfaction=(
                None if region_weights is None else weighted_bmr(expected_bmrs, region_weights)
            ),
        )
        assert record.long_term_revenue == long_term.long_term_revenue
        assert (record.ts, record.long_term_available_on) == (day, day + horizon.delta_long_days)
        assert engagement == session.engagement_a
        assert bmrs == expected_bmrs


class TestRegionWeightEstimation:
    def test_click_share_weights_decay_down_the_page(self, default_world):
        weights = estimate_ctr_region_weights(default_world, 400, seed=2)
        again = estimate_ctr_region_weights(default_world, 400, seed=2)
        assert weights == again
        assert weights.w_top > weights.w_mid > weights.w_bot
        assert sum(weights.as_tuple()) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DomainError):
            estimate_ctr_region_weights(default_world, 0, seed=2)

    def test_click_counts_of_a_pinned_run(self, default_world):
        # 4,487 clicks in 400 sessions: 2,504 top, 1,304 middle, 679 bottom
        weights = estimate_ctr_region_weights(default_world, 400, seed=2)
        assert weights.as_tuple() == (2504 / 4487, 1304 / 4487, 679 / 4487)

    def test_click_weights_do_not_depend_on_the_block_size(self, default_world, monkeypatch):
        whole = estimate_ctr_region_weights(default_world, 300, seed=5)
        monkeypatch.setattr(experiment, "CHUNK_EVENTS", 64)
        assert estimate_ctr_region_weights(default_world, 300, seed=5) == whole

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


class TestConfigSerialization:
    def test_round_trip_preserves_equality(self):
        config = _two_arm_config(seed=31)
        payload = experiment_config_to_dict(config)
        assert json.loads(json.dumps(payload)) == payload
        assert experiment_config_from_dict(payload) == config

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
