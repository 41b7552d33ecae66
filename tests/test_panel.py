"""Event logging, panel emission, and CSV round-trips."""

import numpy as np
import pytest

from wpxlab.dml.panel import (
    KEY_COLUMNS,
    PanelDataset,
    read_panel_csv,
    write_panel_csv,
)
from wpxlab.domain import PageLayout, Slot
from wpxlab.errors import DomainError
from wpxlab.metrics import layout_region_bmrs
from wpxlab.rng import stream
from wpxlab.sim import panel as sim_panel
from wpxlab.sim.panel import (
    CONFOUNDED,
    M_COLUMNS,
    RANDOMIZED,
    X_COLUMNS,
    assign_templates,
    emit_panel,
    generate_events,
    simulate_panel,
)
from wpxlab.sim.session import (
    build_layout,
    draw_availability,
    realize_long_term,
    simulate_session,
)
from wpxlab.sim.world import HISTORY_COLUMNS, WorldConfig, generate_world


def _page_layout(world, template_index, items):
    template = world.templates[template_index]
    return PageLayout(
        template.template_id,
        tuple(
            Slot(p + 1, kind, world.items[item], area)
            for p, ((kind, area), item) in enumerate(zip(template.slot_plan, items))
        ),
    )


def _scalar_panel(world, n_events, policy, seed):
    """The per-event composition the batch simulator replaces, one page at a
    time: stream(seed, i, purpose) -> draw_availability -> build_layout ->
    simulate_session -> realize_long_term."""
    cfg = world.config
    r = stream(seed, "panel_events")
    customer_idx = r.integers(0, cfg.n_customers, n_events)
    query_idx = r.integers(0, cfg.n_queries, n_events)
    template_idx = assign_templates(
        world, customer_idx, query_idx, policy, stream(seed, "panel_assignment")
    )
    x, m, drev = [], [], []
    for i in range(n_events):
        ci, qi, ti = int(customer_idx[i]), int(query_idx[i]), int(template_idx[i])
        available = draw_availability(world, stream(seed, i, "availability"))
        layout = build_layout(world, qi, ti, available)
        session = simulate_session(world, ci, qi, layout, stream(seed, i, "session"))
        long_term = realize_long_term(
            world, ci, qi, layout, session, stream(seed, i, "long_term")
        )
        x.append(layout_region_bmrs(layout, world.brands[world.queries[qi].brand_index]))
        m.append((session.short_term_revenue, session.engagement_a))
        drev.append(long_term.long_term_revenue)
    return customer_idx, query_idx, np.array(x), np.array(m), np.array(drev)


@pytest.fixture(scope="module")
def many_brands_world():
    """Brand pools of 6 items, smaller than an 8-slot widget block, so
    brand widgets fall through to the organic order."""
    return generate_world(WorldConfig(seed=0, n_brands=40))


class TestEventGeneration:
    def test_single_event_panel_mirrors_its_layout(self, default_world):
        events = generate_events(default_world, 1, RANDOMIZED, seed=5)
        panel = emit_panel(default_world, events)
        ci, qi = int(events.customer_index[0]), int(events.query_index[0])
        layout = _page_layout(default_world, int(events.template_index[0]), events.items[0])
        brand = default_world.brands[default_world.queries[qi].brand_index]
        assert tuple(panel.x[0]) == layout_region_bmrs(layout, brand)
        assert panel.m[0, 0] == events.short_term_revenue[0]
        assert panel.m[0, 1] == events.engagement[0]
        assert panel.drev[0] == events.long_term_revenue[0]
        assert panel.event_id[0] == "e00000000"
        assert panel.customer_id[0] == f"c{ci:06d}"

    def test_rows_sorted_by_event_id_regardless_of_input_order(self, default_world):
        events = generate_events(default_world, 10, RANDOMIZED, seed=6)
        shuffled = events.take(np.array([7, 2, 9, 0, 4, 1, 8, 3, 6, 5]))
        a = emit_panel(default_world, events)
        b = emit_panel(default_world, shuffled)
        assert np.array_equal(a.event_id, b.event_id)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.drev, b.drev)

    def test_randomized_assignment_uniform_and_seeded(self, default_world):
        rng = np.random.default_rng(2)
        ci = rng.integers(0, default_world.config.n_customers, 4000)
        qi = rng.integers(0, default_world.config.n_queries, 4000)
        t1 = assign_templates(default_world, ci, qi, RANDOMIZED, np.random.default_rng(9))
        t2 = assign_templates(default_world, ci, qi, RANDOMIZED, np.random.default_rng(9))
        assert np.array_equal(t1, t2)
        assert t1.min() >= 0 and t1.max() < len(default_world.templates)
        counts = np.bincount(t1, minlength=len(default_world.templates))
        assert counts.min() > 0.5 * counts.mean()

    def test_confounded_assignment_tilts_by_propensity(self, default_world):
        order = np.argsort(default_world.customers.u_lin)
        low = order[:1000]
        high = order[-1000:]
        qi = np.zeros(1000, dtype=np.intp)
        t_low = assign_templates(
            default_world, low, qi, CONFOUNDED, np.random.default_rng(3)
        )
        t_high = assign_templates(
            default_world, high, qi, CONFOUNDED, np.random.default_rng(3)
        )
        affinity = default_world.template_affinity
        assert affinity[t_high].mean() > affinity[t_low].mean()

    def test_guards(self, default_world):
        with pytest.raises(DomainError):
            generate_events(default_world, 0, RANDOMIZED, seed=0)
        with pytest.raises(DomainError):
            assign_templates(
                default_world,
                np.zeros(2, dtype=np.intp),
                np.zeros(2, dtype=np.intp),
                "greedy",
                np.random.default_rng(0),
            )
        events = generate_events(default_world, 1, RANDOMIZED, seed=0)
        with pytest.raises(DomainError):
            emit_panel(default_world, events.take(np.array([], dtype=np.intp)))


class TestBatchMatchesScalarChain:
    @pytest.mark.parametrize("policy", [CONFOUNDED, RANDOMIZED])
    @pytest.mark.parametrize("world_name", ["default_world", "many_brands_world"])
    def test_panel_equals_per_event_composition_bit_for_bit(
        self, request, monkeypatch, world_name, policy
    ):
        world = request.getfixturevalue(world_name)
        # several blocks, the last one partial
        monkeypatch.setattr(sim_panel, "CHUNK_EVENTS", 64)
        panel = simulate_panel(world, 150, policy, seed=21)
        customer_idx, query_idx, x, m, drev = _scalar_panel(world, 150, policy, seed=21)
        assert np.array_equal(panel.x, x)
        assert np.array_equal(panel.m, m)
        assert np.array_equal(panel.drev, drev)
        assert np.array_equal(panel.h, world.customers.history[customer_idx])
        assert list(panel.customer_id) == [f"c{c:06d}" for c in customer_idx]
        assert list(panel.query_group) == [world.queries[q].query_id for q in query_idx]
        assert list(panel.event_id) == [f"e{i:08d}" for i in range(150)]

    def test_block_size_does_not_change_the_panel(self, default_world, monkeypatch):
        whole = simulate_panel(default_world, 100, CONFOUNDED, seed=9)
        monkeypatch.setattr(sim_panel, "CHUNK_EVENTS", 7)
        blocked = simulate_panel(default_world, 100, CONFOUNDED, seed=9)
        for name in ("event_id", "customer_id", "drev", "x", "m", "h"):
            assert np.array_equal(getattr(whole, name), getattr(blocked, name))

    def test_many_brands_world_exercises_widget_fallback(self, many_brands_world):
        events = generate_events(many_brands_world, 200, RANDOMIZED, seed=2)
        world = many_brands_world
        fell_through = 0
        for ti, qi, items in zip(events.template_index, events.query_index, events.items):
            widget = world.slots.widget[ti]
            if world.templates[ti].eligible_item_filter == "query_brand":
                off_brand = world.item_brand[items[widget]] != world.query_brand[qi]
                fell_through += int(off_brand.any())
        assert fell_through > 0


class TestPanelDataset:
    def test_header_layout(self, default_world):
        panel = simulate_panel(default_world, 5, RANDOMIZED, seed=1)
        header = tuple(panel.header())
        assert header == (
            *KEY_COLUMNS,
            "drev",
            *X_COLUMNS,
            *M_COLUMNS,
            *HISTORY_COLUMNS,
        )
        assert len(header) == 14

    def test_csv_round_trip_is_bit_exact(self, default_world, tmp_path):
        panel = simulate_panel(default_world, 60, RANDOMIZED, seed=8)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        loaded = read_panel_csv(path)
        assert np.array_equal(loaded.event_id, panel.event_id)
        assert np.array_equal(loaded.customer_id, panel.customer_id)
        assert np.array_equal(loaded.query_group, panel.query_group)
        assert np.array_equal(loaded.zip_code, panel.zip_code)
        assert np.array_equal(loaded.drev, panel.drev)
        assert np.array_equal(loaded.x, panel.x)
        assert np.array_equal(loaded.m, panel.m)
        assert np.array_equal(loaded.h, panel.h)
        assert loaded.x_names == panel.x_names
        assert loaded.m_names == panel.m_names
        assert loaded.h_names == panel.h_names

    def test_simulate_panel_deterministic_per_seed(self, default_world):
        a = simulate_panel(default_world, 40, CONFOUNDED, seed=13)
        b = simulate_panel(default_world, 40, CONFOUNDED, seed=13)
        c = simulate_panel(default_world, 40, CONFOUNDED, seed=14)
        assert np.array_equal(a.drev, b.drev)
        assert np.array_equal(a.x, b.x)
        assert not np.array_equal(a.drev, c.drev)

    def test_subset_keeps_row_alignment(self, default_world):
        panel = simulate_panel(default_world, 20, RANDOMIZED, seed=3)
        idx = np.array([4, 0, 11])
        sub = panel.subset(idx)
        assert sub.n_rows == 3
        assert np.array_equal(sub.drev, panel.drev[idx])
        assert np.array_equal(sub.x, panel.x[idx])
        assert np.array_equal(sub.query_group, panel.query_group[idx])

    def test_dataset_guards(self, default_world):
        panel = simulate_panel(default_world, 6, RANDOMIZED, seed=4)
        with pytest.raises(DomainError):
            PanelDataset(
                event_id=panel.event_id,
                customer_id=panel.customer_id,
                query_group=panel.query_group,
                zip_code=panel.zip_code,
                drev=panel.drev[:-1],
                x=panel.x,
                m=panel.m,
                h=panel.h,
                x_names=panel.x_names,
                m_names=panel.m_names,
                h_names=panel.h_names,
            )
        with pytest.raises(DomainError):
            PanelDataset(
                event_id=panel.event_id,
                customer_id=panel.customer_id,
                query_group=panel.query_group,
                zip_code=panel.zip_code,
                drev=panel.drev,
                x=panel.x[:, :2],
                m=panel.m,
                h=panel.h,
                x_names=panel.x_names,
                m_names=panel.m_names,
                h_names=panel.h_names,
            )

    def test_read_bad_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DomainError):
            read_panel_csv(empty)
        headless = tmp_path / "headless.csv"
        headless.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DomainError):
            read_panel_csv(headless)
