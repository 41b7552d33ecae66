"""Synthetic marketplace with planted causal structure.

The world holds a catalog, customers with history vectors, branded query
groups, ZIP effects, and a fixed template pool. Long-term revenue follows a
known welfare function whose region coefficients are the ground truth every
estimator in the repo is judged against. Customers carry a latent spend
propensity correlated with their history; the confounded logging policy
routes high-propensity customers toward brand-heavy templates, which is
exactly the bias the estimation pipeline must remove.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..domain import ContentKind, Item, PageTemplate, region_of_position
from ..errors import DomainError
from ..metrics import REGION_ORDER, region_bmr_columns
from ..rng import stream

HISTORY_COLUMNS = ("h_spend", "h_orders", "h_engage", "h_tenure")
SIGNAL_NAMES = (
    "expected_bmr_top",
    "expected_bmr_mid",
    "expected_bmr_bot",
    "organic_appeal",
    "widget_appeal",
    "widget_pixel_share",
)

ORGANIC_AREA = 1.0
WIDGET_AREA = 1.5
REGION_SPAN = 8
PAGE_SLOTS = 24

# canonical pool: (template_id, widget block position range or None, item filter,
#                  assignment affinity to customer propensity, fixed-effect loading)
TEMPLATE_TABLE = (
    ("organic_grid", None, "any", 0.0, 0.0),
    ("brand_top", (1, 4), "query_brand", 1.0, 0.8),
    ("brand_mid", (9, 16), "query_brand", 0.7, 0.5),
    ("brand_bottom", (17, 24), "query_brand", 0.5, 0.3),
    ("trending_top", (1, 4), "high_appeal", 0.2, 0.1),
    ("trending_mid", (13, 16), "high_appeal", 0.1, 0.0),
)


@dataclass(frozen=True)
class WorldConfig:
    """Population sizes, welfare coefficients, and behavioral knobs."""

    n_customers: int = 2000
    n_queries: int = 50
    n_zips: int = 30
    n_brands: int = 12
    n_templates: int = 6
    true_region_effects: tuple[float, float, float] = (1.0, 0.6, 0.0)
    short_term_carry: float = 0.35
    engagement_carry: float = 0.10
    fixed_effect_scales: tuple[float, float] = (0.5, 0.3)
    noise_scale: float = 0.5
    position_bias_decay: float = 0.93
    widget_attention_multiplier: float = 1.3
    seed: int = 0
    n_items: int = 240
    n_categories: int = 3
    history_effects: tuple[float, ...] = (0.02, 0.8, 0.5, 0.1)
    confound_strength: float = 2.0
    propensity_noise: float = 0.5
    availability_rate: float = 0.9
    purchase_prob: float = 0.30
    brand_click_boost: float = 1.55
    brand_conversion_boost: float = 1.35
    organic_brand_bonus: float = 0.25
    spend_sensitivity: float = 0.8
    high_appeal_threshold: float = 0.6
    mobile_fraction: float = 0.35
    membership_rate: float = 0.4

    def __post_init__(self) -> None:
        counts = {
            "n_customers": self.n_customers,
            "n_queries": self.n_queries,
            "n_zips": self.n_zips,
            "n_brands": self.n_brands,
            "n_templates": self.n_templates,
            "n_items": self.n_items,
            "n_categories": self.n_categories,
        }
        for name, value in counts.items():
            if value < 1:
                raise DomainError(f"{name} must be >= 1, got {value}")
        if self.n_templates > len(TEMPLATE_TABLE):
            raise DomainError(
                f"template pool supports up to {len(TEMPLATE_TABLE)} templates"
            )
        scales = (
            *self.fixed_effect_scales,
            self.noise_scale,
            self.propensity_noise,
        )
        if any(s < 0 for s in scales):
            raise DomainError("scale parameters must be >= 0")
        if not 0.0 < self.position_bias_decay < 1.0:
            raise DomainError("position_bias_decay must be in (0, 1)")
        if self.widget_attention_multiplier <= 0.0:
            raise DomainError("widget_attention_multiplier must be > 0")
        if len(self.history_effects) != len(HISTORY_COLUMNS):
            raise DomainError(
                f"history_effects must have {len(HISTORY_COLUMNS)} entries"
            )
        if not 0.0 < self.availability_rate <= 1.0:
            raise DomainError("availability_rate must be in (0, 1]")
        for name in ("purchase_prob", "mobile_fraction", "membership_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise DomainError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class CustomerTable:
    """Column-oriented customer population."""

    history: np.ndarray  # (n, len(HISTORY_COLUMNS))
    u_lin: np.ndarray  # history-predictable core of the latent propensity
    propensity: np.ndarray  # u_lin plus private noise
    zip_index: np.ndarray
    membership: np.ndarray  # 0/1
    spend_multiplier: np.ndarray  # exp(spend_sensitivity * propensity)
    history_effect: np.ndarray  # history_effects @ history row


@dataclass(frozen=True)
class SlotTable:
    """Per-template slot columns: one row per template, one column per position."""

    region: np.ndarray  # code into metrics.REGION_ORDER
    area: np.ndarray  # pixel area
    widget: np.ndarray  # True for widget slots
    examination: np.ndarray  # examination probability of the click model


@dataclass(frozen=True)
class QueryGroup:
    query_id: str
    brand_index: int
    specificity: float
    category_id: str
    alpha: float


@dataclass(frozen=True)
class World:
    """Everything fixed before any session runs."""

    config: WorldConfig
    items: tuple[Item, ...]
    item_appeal: np.ndarray
    item_price: np.ndarray
    item_brand: np.ndarray  # brand index per item
    brands: tuple[str, ...]
    customers: CustomerTable
    queries: tuple[QueryGroup, ...]
    query_alpha: np.ndarray
    query_brand: np.ndarray  # brand index per query
    zip_ids: tuple[str, ...]
    zip_zeta: np.ndarray
    categories: tuple[str, ...]
    templates: tuple[PageTemplate, ...]
    template_affinity: np.ndarray
    template_fe_loading: np.ndarray
    slots: SlotTable = field(repr=False)
    organic_order: np.ndarray = field(repr=False)  # (n_queries, n_items)
    appeal_order: np.ndarray = field(repr=False)  # (n_items,)
    # per template, (n_queries, pool size) widget fill order padded with n_items
    widget_order: tuple[np.ndarray, ...] = field(repr=False)
    content_signals: np.ndarray = field(repr=False)  # (n_queries, n_templates, 6)
    signal_names: tuple[str, ...] = SIGNAL_NAMES

    @property
    def n_slots(self) -> int:
        return PAGE_SLOTS


def examination_probability(config: WorldConfig, position: int, widget: bool) -> float:
    """Click-model examination probability of a 1-based page position: geometric
    position decay, widget slots drawing extra attention, capped at 1."""
    e = config.position_bias_decay ** (position - 1)
    if widget:
        e *= config.widget_attention_multiplier
    return min(e, 1.0)


def _make_templates(n_templates: int) -> tuple[PageTemplate, ...]:
    templates = []
    for template_id, widget_range, item_filter, _, _ in TEMPLATE_TABLE[:n_templates]:
        plan = []
        for pos in range(1, PAGE_SLOTS + 1):
            if widget_range is not None and widget_range[0] <= pos <= widget_range[1]:
                plan.append((ContentKind.WIDGET, WIDGET_AREA))
            else:
                plan.append((ContentKind.ORGANIC, ORGANIC_AREA))
        templates.append(
            PageTemplate(
                template_id=template_id,
                slot_plan=tuple(plan),
                eligible_item_filter=item_filter,
            )
        )
    return tuple(templates)


def _slot_table(config: WorldConfig, templates: tuple[PageTemplate, ...]) -> SlotTable:
    plans = [t.slot_plan for t in templates]
    widget = np.array([[kind is ContentKind.WIDGET for kind, _ in plan] for plan in plans])
    return SlotTable(
        region=np.array(
            [
                [REGION_ORDER.index(region_of_position(p + 1)) for p in range(len(plan))]
                for plan in plans
            ]
        ),
        area=np.array([[area for _, area in plan] for plan in plans]),
        widget=widget,
        examination=np.array(
            [
                [examination_probability(config, p + 1, w) for p, w in enumerate(row)]
                for row in widget
            ]
        ),
    )


def _widget_orders(
    config: WorldConfig,
    templates: tuple[PageTemplate, ...],
    query_brand: np.ndarray,
    item_brand: np.ndarray,
    item_appeal: np.ndarray,
    appeal_order: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Each template's widget pool per query, by descending appeal, padded with
    ``n_items`` to the largest pool: ``query_brand`` keeps the query's brand,
    ``high_appeal`` items at or above the threshold, ``any`` every item."""
    orders = []
    for template in templates:
        item_filter = template.eligible_item_filter
        if item_filter == "query_brand":
            keep = item_brand[appeal_order] == query_brand[:, None]
        elif item_filter == "high_appeal":
            keep = np.broadcast_to(
                item_appeal[appeal_order] >= config.high_appeal_threshold,
                (config.n_queries, config.n_items),
            )
        else:
            keep = np.ones((config.n_queries, config.n_items), dtype=bool)
        pools = [appeal_order[row] for row in keep]
        order = np.full((config.n_queries, max(map(len, pools))), config.n_items)
        for qi, pool in enumerate(pools):
            order[qi, : len(pool)] = pool
        orders.append(order)
    return tuple(orders)


def _standardize(v: np.ndarray) -> np.ndarray:
    sd = v.std()
    return (v - v.mean()) / sd if sd > 0 else np.zeros_like(v)


def generate_world(config: WorldConfig) -> World:
    """Materialize a world deterministically from the config seed."""
    seed = config.seed

    r_items = stream(seed, "world", "items")
    appeal = r_items.beta(2.0, 2.0, config.n_items)
    price = np.exp(r_items.normal(3.0, 0.45, config.n_items))
    brand_idx = np.arange(config.n_items) % config.n_brands
    brands = tuple(f"b{i:03d}" for i in range(config.n_brands))
    items = tuple(
        Item(
            item_id=f"i{i:05d}",
            brand_id=brands[brand_idx[i]],
            base_appeal=float(appeal[i]),
            price=float(price[i]),
        )
        for i in range(config.n_items)
    )

    r_cust = stream(seed, "world", "customers")
    spend = r_cust.gamma(4.0, 25.0, config.n_customers)
    orders = r_cust.poisson(8.0, config.n_customers).astype(float)
    engage = r_cust.beta(2.0, 2.0, config.n_customers)
    tenure = r_cust.uniform(0.0, 10.0, config.n_customers)
    history = np.column_stack([spend, orders, engage, tenure])
    u_lin = 0.6 * _standardize(spend) + 0.4 * _standardize(orders)
    propensity = u_lin + config.propensity_noise * r_cust.standard_normal(
        config.n_customers
    )
    # per-customer scalars, each evaluated as a scalar expression per row so the
    # batch and single-page paths of the session model read identical floats
    history_weights = np.asarray(config.history_effects)
    customers = CustomerTable(
        history=history,
        u_lin=u_lin,
        propensity=propensity,
        zip_index=r_cust.integers(0, config.n_zips, config.n_customers),
        membership=(r_cust.random(config.n_customers) < config.membership_rate).astype(
            np.int64
        ),
        spend_multiplier=np.array(
            [float(np.exp(config.spend_sensitivity * p)) for p in propensity]
        ),
        history_effect=np.array([float(history_weights @ row) for row in history]),
    )

    r_fe = stream(seed, "world", "fixed_effects")
    sigma_q, sigma_z = config.fixed_effect_scales
    query_alpha = sigma_q * r_fe.standard_normal(config.n_queries)
    zip_zeta = sigma_z * r_fe.standard_normal(config.n_zips)
    zip_ids = tuple(f"z{i:03d}" for i in range(config.n_zips))
    categories = tuple(f"cat{i}" for i in range(config.n_categories))

    r_query = stream(seed, "world", "queries")
    q_brand = r_query.integers(0, config.n_brands, config.n_queries)
    q_spec = r_query.uniform(0.3, 1.0, config.n_queries)
    q_cat = r_query.integers(0, config.n_categories, config.n_queries)
    queries = tuple(
        QueryGroup(
            query_id=f"q{i:03d}",
            brand_index=int(q_brand[i]),
            specificity=float(q_spec[i]),
            category_id=categories[q_cat[i]],
            alpha=float(query_alpha[i]),
        )
        for i in range(config.n_queries)
    )

    templates = _make_templates(config.n_templates)
    affinity = np.array([row[3] for row in TEMPLATE_TABLE[: config.n_templates]])
    fe_loading = np.array([row[4] for row in TEMPLATE_TABLE[: config.n_templates]])

    idx = np.arange(config.n_items)
    organic_order = np.empty((config.n_queries, config.n_items), dtype=np.intp)
    for qi, query in enumerate(queries):
        score = appeal + config.organic_brand_bonus * (brand_idx == query.brand_index)
        organic_order[qi] = np.lexsort((idx, -score))
    appeal_order = np.lexsort((idx, -appeal))

    world = World(
        config=config,
        items=items,
        item_appeal=appeal,
        item_price=price,
        item_brand=brand_idx,
        brands=brands,
        customers=customers,
        queries=queries,
        query_alpha=query_alpha,
        query_brand=q_brand,
        zip_ids=zip_ids,
        zip_zeta=zip_zeta,
        categories=categories,
        templates=templates,
        template_affinity=affinity,
        template_fe_loading=fe_loading,
        slots=_slot_table(config, templates),
        organic_order=organic_order,
        appeal_order=appeal_order,
        widget_order=_widget_orders(
            config, templates, q_brand, brand_idx, appeal, appeal_order
        ),
        content_signals=np.zeros((config.n_queries, config.n_templates, len(SIGNAL_NAMES))),
    )
    return replace(world, content_signals=_content_signal_table(world))


def _widget_source(world: World, template_index: int, query_index: int) -> np.ndarray:
    """Widget fill order: predicate pool by descending appeal."""
    order = world.widget_order[template_index][query_index]
    return order[order < world.config.n_items]


def layout_item_indices(
    world: World,
    query_index: int,
    template_index: int,
    available: np.ndarray,
) -> np.ndarray:
    """Pick the catalog item for every slot of a template, in position order.

    Widget slots draw from the template's predicate pool by appeal; organic
    slots draw from the query's relevance order; no item repeats on a page.
    An exhausted widget pool falls through to the organic order so the page
    always fills.
    """
    template = world.templates[template_index]
    organic_src = world.organic_order[query_index]
    widget_src = _widget_source(world, template_index, query_index)
    used = np.zeros(world.config.n_items, dtype=bool)
    chosen = np.empty(len(template.slot_plan), dtype=np.intp)
    o_ptr = 0
    w_ptr = 0

    def take(source: np.ndarray, ptr: int) -> tuple[int, int]:
        while ptr < len(source):
            cand = source[ptr]
            ptr += 1
            if available[cand] and not used[cand]:
                return int(cand), ptr
        return -1, ptr

    for slot_i, (kind, _) in enumerate(template.slot_plan):
        item = -1
        if kind is ContentKind.WIDGET:
            item, w_ptr = take(widget_src, w_ptr)
        if item < 0:
            item, o_ptr = take(organic_src, o_ptr)
        if item < 0:
            raise DomainError("catalog exhausted while filling a page")
        used[item] = True
        chosen[slot_i] = item
    return chosen


#: Leading positions of an order scanned first: pages almost always fill from
#: there, and the whole order is scanned only when some page of a block does not.
_SCAN_PREFIX = 2 * PAGE_SLOTS


def page_item_indices(
    world: World,
    query_idx: np.ndarray,
    template_idx: np.ndarray,
    available: np.ndarray,
) -> np.ndarray:
    """:func:`layout_item_indices` for a block of pages: row ``i`` is the page
    of (``query_idx[i]``, ``template_idx[i]``) under ``available[i]``.

    Works one template at a time. A template's widget slots form one block, so
    a page is a run of organic picks, up to the block's size of widget picks,
    then organic picks again; every run takes the first available, unused
    items of its order, located by a masked cumulative count.
    """
    page = np.empty((len(query_idx), PAGE_SLOTS), dtype=np.intp)
    for ti in np.unique(template_idx):
        rows = np.flatnonzero(template_idx == ti)
        page[rows] = _fill_template(world, int(ti), query_idx[rows], available[rows])
    return page


def _first_free(
    free: np.ndarray, order: np.ndarray, need: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and 0-based rank of the first ``need[row]`` items of each
    row of ``order`` that are ``free``; a row with fewer yields all it has."""
    scan = order[:, :_SCAN_PREFIX]
    in_order = np.take_along_axis(free, scan, axis=1)
    rank = np.cumsum(in_order, axis=1)
    if scan.shape[1] < order.shape[1] and np.any(rank[:, -1] < need):
        in_order = np.take_along_axis(free, order, axis=1)
        rank = np.cumsum(in_order, axis=1)
    r, c = np.nonzero(in_order & (rank <= need[:, None]))
    return r, c, rank[r, c] - 1


def _fill_template(
    world: World, template_index: int, query_idx: np.ndarray, available: np.ndarray
) -> np.ndarray:
    n, n_items = available.shape
    widget_slots = np.flatnonzero(world.slots.widget[template_index])
    page = np.empty((n, PAGE_SLOTS), dtype=np.intp)
    organic = world.organic_order[query_idx]
    # available and not on the page, by item; the last column is the padding
    # of the widget orders and never free
    free = np.zeros((n, n_items + 1), dtype=bool)
    free[:, :n_items] = available
    lead = widget_slots[0] if len(widget_slots) else PAGE_SLOTS
    n_widget = np.zeros(n, dtype=np.intp)
    if len(widget_slots):
        # the organic slots above the block take the first `lead` available items
        r, c, _ = _first_free(free, organic, np.full(n, lead))
        free[r, organic[r, c]] = False
        # the block takes the first free items of its widget pool
        pool = world.widget_order[template_index][query_idx]
        r, c, k = _first_free(free, pool, np.full(n, len(widget_slots)))
        page[r, lead + k] = pool[r, c]
        n_widget = np.bincount(r, minlength=n)
        # the organic order resumes where the first run stopped, so only the
        # widget picks leave it
        free[:, :n_items] = available
        free[r, pool[r, c]] = False
    # organic rank k < lead fills slot k; later ranks skip the widget picks, and
    # an exhausted widget pool leaves its remaining block slots to them
    need = PAGE_SLOTS - n_widget
    r, c, k = _first_free(free, organic, need)
    if len(r) < need.sum():
        raise DomainError("catalog exhausted while filling a page")
    page[r, k + np.where(k >= lead, n_widget[r], 0)] = organic[r, c]
    return page


def _content_signal_table(world: World) -> np.ndarray:
    """Per-(query, template) signals under full availability.

    These are what the ranker sees at inference time, before any
    availability noise realizes the actual page.
    """
    cfg = world.config
    slots = world.slots
    # every (query, template) page in one block, query-major
    query_idx, template_idx = np.divmod(
        np.arange(cfg.n_queries * cfg.n_templates), cfg.n_templates
    )
    picks = page_item_indices(
        world, query_idx, template_idx, np.ones((len(query_idx), cfg.n_items), dtype=bool)
    ).reshape(cfg.n_queries, cfg.n_templates, PAGE_SLOTS)
    table = np.empty((cfg.n_queries, cfg.n_templates, len(SIGNAL_NAMES)))
    table[..., :3] = region_bmr_columns(
        slots.region, slots.area, world.item_brand[picks] == world.query_brand[:, None, None]
    )
    for ti in range(cfg.n_templates):
        widget = slots.widget[ti]
        area = slots.area[ti]
        appeal = world.item_appeal[picks[:, ti]]
        # one 1-D mean per page: a mean along an axis of a 2-D block sums in
        # another order and can differ in the last bit
        for kind, col in ((~widget, 3), (widget, 4)):
            table[:, ti, col] = [np.mean(row) for row in appeal[:, kind]] if kind.any() else 0.0
        table[:, ti, 5] = area[widget].sum() / area.sum()
    return table
