"""World generation and session realization behave like the planted model."""

import hashlib
from dataclasses import fields

import numpy as np
import pytest
from conftest import make_item, make_layout
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import layout_item_indices_per_slot, template_plan, validate_layout

from wpxlab.domain import ContentKind, PageLayout, PageRegion, Slot
from wpxlab.errors import DomainError
from wpxlab.metrics import region_bmr_columns
from wpxlab.sim.session import (
    LongTermOutcome,
    SessionOutcome,
    build_layout,
    draw_availability,
    realize_long_term,
    simulate_session,
)
from wpxlab.sim.world import (
    HISTORY_COLUMNS,
    WorldConfig,
    generate_world,
    page_item_indices,
)

ZERO_WELFARE = dict(
    true_region_effects=(0.0, 0.0, 0.0),
    short_term_carry=0.0,
    engagement_carry=0.0,
    history_effects=(0.0, 0.0, 0.0, 0.0),
    fixed_effect_scales=(0.0, 0.0),
    noise_scale=0.0,
)


def _flat_layout(n_slots, appeal, brand="zzz", price=10.0):
    item = make_item(brand=brand, appeal=appeal, price=price)
    slots = tuple(
        Slot(position=i + 1, content_kind=ContentKind.ORGANIC, item=item, pixel_area=90.0)
        for i in range(n_slots)
    )
    return PageLayout(template_id="flat", slots=slots)


def _zero_session(n=24):
    return SessionOutcome(
        clicks=(0,) * n,
        non_abandonment=0,
        short_term_revenue=0.0,
        engagement_a=0.0,
        purchase_amounts=(0.0,) * n,
    )


class TestWorldGeneration:
    def test_same_seed_reproduces_every_table(self):
        a = generate_world(WorldConfig(seed=7))
        b = generate_world(WorldConfig(seed=7))
        assert np.array_equal(a.item_price, b.item_price)
        assert np.array_equal(a.item_appeal, b.item_appeal)
        assert np.array_equal(a.customers.history, b.customers.history)
        assert np.array_equal(a.customers.spend_multiplier, b.customers.spend_multiplier)
        assert np.array_equal(a.query_alpha, b.query_alpha)
        assert np.array_equal(a.zip_zeta, b.zip_zeta)
        assert np.array_equal(a.organic_order, b.organic_order)
        assert np.array_equal(a.content_signals, b.content_signals)
        assert a.queries == b.queries

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"spend_sensitivity": 1e308}, "spend_sensitivity"),
            ({"spend_sensitivity": -1e308}, "spend_sensitivity"),
            ({"spend_sensitivity": 1000.0}, "spend_sensitivity"),  # only exp overflows
            ({"history_effects": (1e308, 1e308, 1.0, 1.0)}, "history_effects"),
            ({"history_effects": (0.0, -1e308, 0.0, 0.0)}, "history_effects"),
            # each product fits, their sum does not
            ({"history_effects": (0.0, 0.0, 1.7e308, 1.7e307)}, "history_effects"),
        ],
    )
    def test_overflowing_customer_scale_is_named(self, change, field):
        with pytest.raises(DomainError, match=f"^{field} overflows? a customer's"):
            generate_world(WorldConfig(seed=0, n_customers=500, **change))

    def test_large_scales_that_fit_build_a_finite_world(self):
        world = generate_world(
            WorldConfig(
                seed=0, n_customers=500, spend_sensitivity=100.0, history_effects=(1e300, 0.0, 0.0, 0.0)
            )
        )
        assert np.isfinite(world.customers.spend_multiplier).all()
        assert np.isfinite(world.customers.history_effect).all()
        assert world.customers.history_effect.max() > 1e300

    def test_zero_scales_silence_fixed_effects(self):
        world = generate_world(WorldConfig(seed=3, fixed_effect_scales=(0.0, 0.0)))
        assert np.all(world.query_alpha == 0.0)
        assert np.all(world.zip_zeta == 0.0)

    def test_propensity_visibly_correlates_with_spend_history(self):
        world = generate_world(WorldConfig(seed=5, n_customers=10_000))
        spend = world.customers.history[:, HISTORY_COLUMNS.index("h_spend")]
        propensity = np.log(world.customers.spend_multiplier) / world.config.spend_sensitivity
        corr = np.corrcoef(spend, propensity)[0, 1]
        assert corr > 0.3

    def test_config_guards(self):
        with pytest.raises(DomainError):
            WorldConfig(n_customers=0)
        with pytest.raises(DomainError):
            WorldConfig(position_bias_decay=0.0)
        with pytest.raises(DomainError):
            WorldConfig(n_templates=99)
        with pytest.raises(DomainError):
            WorldConfig(history_effects=(1.0,))

    def test_world_tables_keep_their_bytes(self):
        # the slot tables, content signals and widget orders of worlds 0-4 at
        # 1, 3 and 6 templates, dtype, shape and bytes
        digest = hashlib.sha256()
        for seed in range(5):
            for n_templates in (1, 3, 6):
                world = generate_world(WorldConfig(seed=seed, n_templates=n_templates))
                arrays = [getattr(world.slots, f.name) for f in fields(world.slots)]
                for a in (*arrays, world.content_signals, *world.widget_order):
                    digest.update(f"{a.dtype.str}{a.shape}".encode())
                    digest.update(np.ascontiguousarray(a).tobytes())
        assert (
            digest.hexdigest()
            == "48f46a172bd114e7f8ba2e1d11b88ef33c5c2a16d9034c6c5f6cdd79bf9821e7"
        )

    def test_built_layouts_validate_against_their_templates(self, default_world):
        world = default_world
        available = np.ones(world.config.n_items, dtype=bool)
        for ti, template in enumerate(world.templates):
            layout = build_layout(world, 0, ti, available)
            assert layout.template_id == template.template_id
            assert validate_layout(layout, template.template_id, template_plan(ti)) == []
            # each item is built from the catalog arrays at the filled index
            picks = layout_item_indices_per_slot(world, 0, ti, available)
            for slot, j in zip(layout.slots, picks):
                assert slot.item.item_id == f"i{j:05d}"
                assert slot.item.brand_id == world.brands[world.item_brand[j]]
                assert slot.item.base_appeal == world.item_appeal[j]
                assert slot.item.price == world.item_price[j]

    def test_availability_draw_is_per_item_bernoulli(self, default_world):
        avail = draw_availability(default_world, np.random.default_rng(1), 50)
        again = draw_availability(default_world, np.random.default_rng(1), 50)
        assert avail.shape == (50, default_world.config.n_items)
        assert avail.dtype == bool
        assert np.array_equal(avail, again)
        rate = avail.mean()
        assert 0.88 < rate < 0.92
        # rows fill in order: the first rows of a block are the shorter draw
        assert np.array_equal(avail[:7], draw_availability(default_world, np.random.default_rng(1), 7))


FILL_WORLDS = {
    "default": generate_world(WorldConfig(seed=11)),
    # brand pools of 6 items run out inside 8-slot widget blocks
    "many_brands": generate_world(WorldConfig(seed=0, n_brands=40)),
    # a 30-item catalog often cannot fill a 24-slot page
    "small_catalog": generate_world(WorldConfig(seed=4, n_items=30, n_brands=5)),
    # brands without items and an empty high-appeal pool
    "empty_pools": generate_world(
        WorldConfig(seed=6, n_brands=300, high_appeal_threshold=1.0)
    ),
}


class TestBatchedFill:
    @settings(max_examples=60, deadline=None)
    @given(
        world_name=st.sampled_from(sorted(FILL_WORLDS)),
        rate=st.floats(0.05, 1.0),
        n_pages=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    # most pages come up short in the first scanned prefix and rescan whole orders
    @example(world_name="default", rate=0.3, n_pages=40, seed=29)
    @example(world_name="default", rate=0.2, n_pages=40, seed=29)
    def test_equals_the_scalar_fill_for_random_availability(
        self, world_name, rate, n_pages, seed
    ):
        world = FILL_WORLDS[world_name]
        cfg = world.config
        rng = np.random.default_rng(seed)
        query_idx = rng.integers(0, cfg.n_queries, n_pages)
        template_idx = rng.integers(0, cfg.n_templates, n_pages)
        available = rng.random((n_pages, cfg.n_items)) < rate
        expected = []
        for qi, ti, avail in zip(query_idx, template_idx, available):
            try:
                expected.append(layout_item_indices_per_slot(world, int(qi), int(ti), avail))
            except DomainError:
                expected = None
                break
        if expected is None:
            with pytest.raises(DomainError, match="catalog exhausted"):
                page_item_indices(world, query_idx, template_idx, available)
        else:
            got = page_item_indices(world, query_idx, template_idx, available)
            assert np.array_equal(got, np.array(expected))

    @pytest.mark.parametrize("world_name", sorted(FILL_WORLDS))
    def test_content_signals_equal_the_scalar_fill(self, world_name):
        world = FILL_WORLDS[world_name]
        cfg = world.config
        all_available = np.ones(cfg.n_items, dtype=bool)
        expected = np.empty_like(world.content_signals)
        for qi in range(cfg.n_queries):
            for ti in range(cfg.n_templates):
                picks = layout_item_indices_per_slot(world, qi, ti, all_available)
                widget = world.slots.widget[ti]
                area = world.slots.area[ti]
                appeal = world.item_appeal[picks]
                match = world.item_brand[picks] == world.query_brand[qi]
                expected[qi, ti, :3] = region_bmr_columns(world.slots.region[ti], area, match)
                expected[qi, ti, 3:] = (
                    float(np.mean(appeal[~widget])) if not widget.all() else 0.0,
                    float(np.mean(appeal[widget])) if widget.any() else 0.0,
                    area[widget].sum() / area.sum(),
                )
        assert world.content_signals.tobytes() == expected.tobytes()

    def test_slot_tables_follow_the_templates(self, default_world):
        slots = default_world.slots
        for ti in range(len(default_world.templates)):
            plan = template_plan(ti)
            layout = build_layout(
                default_world, 0, ti, np.ones(default_world.config.n_items, dtype=bool)
            )
            assert [s.region for s in layout.slots] == [
                (PageRegion.TOP, PageRegion.MIDDLE, PageRegion.BOTTOM)[c]
                for c in slots.region[ti]
            ]
            assert list(slots.area[ti]) == [area for _, area in plan]
            assert list(slots.widget[ti]) == [kind is ContentKind.WIDGET for kind, _ in plan]
            cfg = default_world.config
            assert list(slots.examination[ti]) == [
                min(
                    cfg.position_bias_decay**p
                    * (cfg.widget_attention_multiplier if kind is ContentKind.WIDGET else 1.0),
                    1.0,
                )
                for p, (kind, _) in enumerate(plan)
            ]


class TestSimulateSession:
    def test_vanishing_position_bias_confines_clicks_to_slot_one(self):
        world = generate_world(WorldConfig(seed=2, position_bias_decay=1e-9))
        layout = _flat_layout(8, appeal=1.0)
        rng = np.random.default_rng(0)
        for _ in range(500):
            out = simulate_session(world, 0, 0, layout, rng)
            assert out.clicks[0] == 1
            assert sum(out.clicks[1:]) == 0

    def test_zero_appeal_page_produces_nothing(self, default_world):
        layout = _flat_layout(8, appeal=0.0)
        rng = np.random.default_rng(4)
        for _ in range(200):
            out = simulate_session(default_world, 0, 0, layout, rng)
            assert out.clicks == (0,) * 8
            assert out.non_abandonment == 0
            assert out.short_term_revenue == 0.0
            assert out.engagement_a == 0.0

    def test_position_one_to_eight_ctr_ratio_tracks_decay(self, default_world):
        decay = default_world.config.position_bias_decay
        layout = _flat_layout(8, appeal=0.5)
        rng = np.random.default_rng(8)
        counts = np.zeros(8)
        n_sessions = 100_000
        for _ in range(n_sessions):
            out = simulate_session(default_world, 0, 0, layout, rng)
            counts += out.clicks
        ratio = counts[0] / counts[7]
        assert ratio == pytest.approx(decay ** -7, rel=0.10)

    def test_conservation_and_click_indicator(self, default_world):
        rng = np.random.default_rng(12)
        for i in range(200):
            qi = int(rng.integers(default_world.config.n_queries))
            ti = int(rng.integers(default_world.config.n_templates))
            ci = int(rng.integers(default_world.config.n_customers))
            layout = build_layout(
                default_world, qi, ti, draw_availability(default_world, rng, 1)[0]
            )
            out = simulate_session(default_world, ci, qi, layout, rng)
            assert out.short_term_revenue == pytest.approx(
                sum(out.purchase_amounts), rel=1e-12, abs=1e-9
            )
            assert out.non_abandonment == int(any(out.clicks))
            assert out.engagement_a == sum(out.clicks)

    def test_same_stream_same_outcome(self, default_world):
        layout = build_layout(
            default_world, 1, 0, np.ones(default_world.config.n_items, dtype=bool)
        )
        a = simulate_session(default_world, 3, 1, layout, np.random.default_rng(77))
        b = simulate_session(default_world, 3, 1, layout, np.random.default_rng(77))
        assert a == b

    def test_outcome_guards(self):
        with pytest.raises(DomainError):
            SessionOutcome(
                clicks=(1, 0),
                non_abandonment=0,
                short_term_revenue=0.0,
                engagement_a=1.0,
                purchase_amounts=(0.0, 0.0),
            )
        with pytest.raises(DomainError):
            SessionOutcome(
                clicks=(0,),
                non_abandonment=0,
                short_term_revenue=-1.0,
                engagement_a=0.0,
                purchase_amounts=(0.0,),
            )
        with pytest.raises(DomainError):
            LongTermOutcome(long_term_revenue=-0.5)


class TestRealizeLongTerm:
    def test_fully_silenced_welfare_returns_exact_zero(self):
        world = generate_world(WorldConfig(seed=1, **ZERO_WELFARE))
        brand = world.brands[world.query_brand[0]]
        layout = make_layout([True] * 24, query_brand=brand)
        out = realize_long_term(
            world, 0, 0, layout, _zero_session(), np.random.default_rng(0)
        )
        assert out.long_term_revenue == 0.0

    def test_top_versus_bottom_match_gap_equals_planted_effect(self):
        cfg = dict(ZERO_WELFARE)
        cfg["true_region_effects"] = (1.0, 0.6, 0.0)
        world = generate_world(WorldConfig(seed=1, **cfg))
        brand = world.brands[world.query_brand[0]]
        top = make_layout([True] * 8 + [False] * 16, query_brand=brand, other_brand="x")
        bottom = make_layout([False] * 16 + [True] * 8, query_brand=brand, other_brand="x")
        lt_top = realize_long_term(
            world, 0, 0, top, _zero_session(), np.random.default_rng(0)
        )
        lt_bottom = realize_long_term(
            world, 0, 0, bottom, _zero_session(), np.random.default_rng(0)
        )
        assert lt_top.long_term_revenue - lt_bottom.long_term_revenue == 1.0

    def test_monotone_in_top_region_match_rate(self, default_world):
        brand = default_world.brands[default_world.query_brand[0]]
        layouts = [
            make_layout(
                [True] * k + [False] * (8 - k) + [False] * 16,
                query_brand=brand,
                other_brand="x",
            )
            for k in range(9)
        ]
        pick = np.random.default_rng(99)
        session = _zero_session()
        for i in range(10_000):
            k_lo, k_hi = sorted(pick.integers(0, 9, size=2))
            lt_lo = realize_long_term(
                default_world, 0, 0, layouts[k_lo], session, np.random.default_rng(i)
            )
            lt_hi = realize_long_term(
                default_world, 0, 0, layouts[k_hi], session, np.random.default_rng(i)
            )
            assert lt_hi.long_term_revenue >= lt_lo.long_term_revenue

    def test_same_stream_same_long_term(self, default_world):
        layout = build_layout(
            default_world, 2, 1, np.ones(default_world.config.n_items, dtype=bool)
        )
        session = simulate_session(
            default_world, 5, 2, layout, np.random.default_rng(6)
        )
        a = realize_long_term(
            default_world, 5, 2, layout, session, np.random.default_rng(42)
        )
        b = realize_long_term(
            default_world, 5, 2, layout, session, np.random.default_rng(42)
        )
        assert a == b
