"""Event logging, panel emission, and CSV round-trips."""

import csv
import io
from dataclasses import fields

import numpy as np
import pytest

from oracles import read_panel_csv_per_cell, traced_peak, write_panel_csv_per_row
from wpxlab.dml import panel as dml_panel
from wpxlab.dml.panel import (
    KEY_COLUMNS,
    PanelDataset,
    read_panel_csv,
    write_panel_csv,
)
from wpxlab.domain import ContentKind
from wpxlab.errors import DomainError
from wpxlab.metrics import layout_region_bmrs
from wpxlab.rng import stream
from wpxlab.sim import panel as sim_panel
from wpxlab.sim.panel import (
    CONFOUNDED,
    M_COLUMNS,
    RANDOMIZED,
    X_COLUMNS,
    EventBatch,
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

ODD_KEYS = ("a,b", 'say "hi"', '"lead', "two\r\nlines", "one\nline", " padded ", "naïve ✓")
ODD_FLOATS = (5e-324, -0.0, 0.1, 1e-05, 1e16, 1.7976931348623157e308, -2.5)


def _scalar_pages(world, n_events, policy, seed):
    """Each event's customer, query and page, one page at a time:
    stream(seed, i, "availability") -> draw_availability -> build_layout."""
    cfg = world.config
    r = stream(seed, "panel_events")
    customer_idx = r.integers(0, cfg.n_customers, n_events)
    query_idx = r.integers(0, cfg.n_queries, n_events)
    template_idx = assign_templates(
        world, customer_idx, query_idx, policy, stream(seed, "panel_assignment")
    )
    for i in range(n_events):
        ci, qi, ti = int(customer_idx[i]), int(query_idx[i]), int(template_idx[i])
        available = draw_availability(world, stream(seed, i, "availability"))
        yield ci, qi, build_layout(world, qi, ti, available)


def _scalar_panel(world, n_events, policy, seed):
    """The per-event composition the batch simulator replaces, one page at a
    time: `_scalar_pages` -> simulate_session -> realize_long_term, each on
    stream(seed, i, purpose)."""
    keys, x, m, drev = [], [], [], []
    for i, (ci, qi, layout) in enumerate(_scalar_pages(world, n_events, policy, seed)):
        session = simulate_session(world, ci, qi, layout, stream(seed, i, "session"))
        long_term = realize_long_term(
            world, ci, qi, layout, session, stream(seed, i, "long_term")
        )
        keys.append((ci, qi))
        x.append(layout_region_bmrs(layout, world.brands[world.query_brand[qi]]))
        m.append((session.short_term_revenue, session.engagement_a))
        drev.append(long_term.long_term_revenue)
    customer_idx, query_idx = np.array(keys).T
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
        ((ci, qi, layout),) = _scalar_pages(default_world, 1, RANDOMIZED, seed=5)
        assert (ci, qi) == (events.customer_index[0], events.query_index[0])
        brand = default_world.brands[default_world.query_brand[qi]]
        assert tuple(panel.x[0]) == layout_region_bmrs(layout, brand)
        assert panel.m[0, 0] == events.short_term_revenue[0]
        assert panel.m[0, 1] == events.engagement[0]
        assert panel.drev[0] == events.long_term_revenue[0]
        assert panel.event_id[0] == "e00000000"
        assert panel.customer_id[0] == f"c{ci:06d}"

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
        empty = EventBatch(**{f.name: getattr(events, f.name)[:0] for f in fields(events)})
        with pytest.raises(DomainError):
            emit_panel(default_world, empty)


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
        world = many_brands_world
        by_id = {t.template_id: t for t in world.templates}
        fell_through = 0
        for _, qi, layout in _scalar_pages(world, 200, RANDOMIZED, seed=2):
            if by_id[layout.template_id].eligible_item_filter == "query_brand":
                brand = world.brands[world.query_brand[qi]]
                fell_through += any(
                    s.item.brand_id != brand
                    for s in layout.slots
                    if s.content_kind is ContentKind.WIDGET
                )
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
        # rows 3 and 4 of the odd panel start on lines 6 and 10, after keys that
        # span two lines: a short row and a non-number cell name those lines
        odd = tmp_path / "odd.csv"
        write_panel_csv(_odd_panel(str), odd)
        with odd.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        for i, edit, where in (
            (4, lambda cells: cells[:-1], "line 6 has 7 cells, the header 8"),
            (5, lambda cells: [*cells[:4], "abc", *cells[5:]], "line 10 column drev"),
        ):
            with odd.open("w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows([*rows[:i], edit(rows[i]), *rows[i + 1 :]])
            for read in (read_panel_csv, read_panel_csv_per_cell):
                with pytest.raises(DomainError, match=where):
                    read(odd)


def _odd_panel(key_dtype) -> PanelDataset:
    n = len(ODD_KEYS)
    keys = np.array(ODD_KEYS, dtype=key_dtype)
    drev = np.array(ODD_FLOATS)
    return PanelDataset(
        event_id=keys,
        customer_id=keys[::-1].copy(),
        query_group=np.array([f"q{i}" for i in range(n)], dtype=key_dtype),
        zip_code=np.array(["", *ODD_KEYS[1:]], dtype=key_dtype),
        drev=drev,
        x=np.column_stack([drev[::-1], -drev]),
        m=drev[:, None] / 3.0,
        h=np.empty((n, 0)),
        x_names=("x_a", "x_b"),
        m_names=("m_a",),
        h_names=(),
    )


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_same_arrays(got: PanelDataset, ref: PanelDataset) -> None:
    for name in ("event_id", "customer_id", "query_group", "zip_code"):
        keys = getattr(got, name)
        assert keys.dtype.kind == "U"
        assert keys.tolist() == getattr(ref, name).tolist()
    for name in ("drev", "x", "m", "h"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(_bits(a), _bits(b))
    for name in ("x_names", "m_names", "h_names"):
        assert getattr(got, name) == getattr(ref, name)


@pytest.mark.filterwarnings("error")
class TestPanelCsvMatchesPerRowReference:
    """The chunked writer against one ``writerow`` per row, byte for byte;
    the numpy reader against ``csv.reader`` and ``float()``, bit for bit."""

    @pytest.fixture(params=["simulated", "odd_str_keys", "odd_object_keys", "header_only"])
    def panel(self, request, default_world):
        if request.param == "simulated":
            return simulate_panel(default_world, 300, CONFOUNDED, seed=12)
        odd = _odd_panel(object if request.param == "odd_object_keys" else str)
        return odd.subset(np.array([], dtype=np.intp)) if request.param == "header_only" else odd

    @pytest.mark.parametrize("chunk_rows", [3, dml_panel.CHUNK_ROWS])
    def test_writer_bytes_equal_the_reference(self, panel, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(dml_panel, "CHUNK_ROWS", chunk_rows)
        write_panel_csv(panel, tmp_path / "new.csv")
        write_panel_csv_per_row(panel, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_writer_writes_a_none_key_as_the_reference(self, tmp_path):
        panel = _odd_panel(object)
        panel.zip_code[0] = None
        write_panel_csv(panel, tmp_path / "new.csv")
        write_panel_csv_per_row(panel, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("line_end", ["\r\n", "\n"])
    def test_reader_arrays_equal_the_reference(self, panel, tmp_path, line_end):
        path = tmp_path / "panel.csv"
        write_panel_csv_per_row(panel, path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", line_end.encode()))
        got = read_panel_csv(path)
        _assert_same_arrays(got, read_panel_csv_per_cell(path))
        if line_end == "\r\n":
            _assert_same_arrays(got, panel)
        assert got.n_rows == panel.n_rows

    # unended: the last row has no line end, so a blank line must not be the last
    @pytest.mark.parametrize(
        "record, ended", [(2, True), (4, True), (8, True), (9, True), (2, False), (8, False)]
    )
    @pytest.mark.parametrize("odd", [False, True], ids=["simulated", "odd_keys"])
    def test_blank_line_is_an_error_naming_it(self, default_world, tmp_path, odd, record, ended):
        path = tmp_path / "panel.csv"
        panel = _odd_panel(str) if odd else simulate_panel(default_world, 7, RANDOMIZED, seed=2)
        write_panel_csv(panel, path)
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        # odd keys hold quoted line breaks, so physical lines outnumber csv records
        above = io.StringIO()
        csv.writer(above).writerows(rows[: record - 1])
        line = len(above.getvalue().encode().splitlines()) + 1
        assert odd or line == record
        rows.insert(record - 1, [])
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        if not ended:
            path.write_bytes(path.read_bytes().removesuffix(b"\r\n"))
        with pytest.raises(DomainError, match=f"line {line} has 0 cells"):
            read_panel_csv(path)
        with pytest.raises(DomainError, match=f"line {line} has 0 cells"):
            read_panel_csv_per_cell(path)

    def test_cell_loadtxt_rejects_but_float_accepts_names_the_file(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_panel_csv(_odd_panel(str), path)
        path.write_text(path.read_text(encoding="utf-8").replace("-2.5", "1_0"), encoding="utf-8")
        with pytest.raises(DomainError, match="panel.csv: "):
            read_panel_csv(path)

    def test_signed_zeros_keep_their_sign(self, tmp_path):
        panel = _odd_panel(str)
        panel.drev[:] = [0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.0]
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        with path.open(encoding="utf-8", newline="") as fh:
            cells = [row[4] for row in csv.reader(fh)][1:]
        assert cells == ["0.0", "-0.0", "0.0", "-0.0", "1.0", "-0.0", "0.0"]
        assert np.array_equal(_bits(read_panel_csv(path).drev), _bits(panel.drev))

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_panel_csv(_odd_panel(str), path)
        data = path.read_bytes()
        at = data.index(b"q5")
        path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        # a physical line: quoted line breaks count
        line = data[:at].count(b"\n") + 1
        with pytest.raises(DomainError, match=f"panel.csv: line {line} is not valid UTF-8"):
            read_panel_csv(path)


class TestPanelCsvMemory:
    """Each CSV function's traced peak, as a multiple of the file's bytes, on a
    20k-row simulated panel: the reader holds about one decoded copy of the
    text, the writer one chunk of formatted rows."""

    @pytest.fixture(scope="class")
    def panel(self, default_world):
        return simulate_panel(default_world, 20_000, CONFOUNDED, seed=3)

    def test_reader_holds_at_most_seven_file_sizes(self, panel, tmp_path):
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        loaded, peak = traced_peak(read_panel_csv, path)
        _assert_same_arrays(loaded, panel)
        assert peak <= 7 * path.stat().st_size

    def test_writer_holds_at_most_three_file_sizes(self, panel, tmp_path):
        path = tmp_path / "panel.csv"
        _, peak = traced_peak(write_panel_csv, panel, path)
        assert peak <= 3 * path.stat().st_size
