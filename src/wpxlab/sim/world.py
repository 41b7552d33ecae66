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

from ..domain import PageTemplate, region_of_position, require_finite
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
        require_finite(self)
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
        lengths = {
            "true_region_effects": len(REGION_ORDER),
            "fixed_effect_scales": 2,
            "history_effects": len(HISTORY_COLUMNS),
        }
        for name, n in lengths.items():
            if len(getattr(self, name)) != n:
                raise DomainError(f"{name} must have {n} entries")
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
    zip_index: np.ndarray
    membership: np.ndarray  # 0/1
    spend_multiplier: np.ndarray  # exp(spend_sensitivity * (u_lin + private noise))
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
    specificity: float
    category_id: str


@dataclass(frozen=True)
class World:
    """Everything fixed before any session runs. The catalog is its ``item_*``
    columns, item ``j`` of brand ``brands[item_brand[j]]``; ``templates`` are
    ids and item filters, and ``slots`` holds their layouts."""

    config: WorldConfig
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


def _slot_table(config: WorldConfig) -> SlotTable:
    """Each pooled template's slot columns from its `TEMPLATE_TABLE` widget
    range: widget slots of `WIDGET_AREA` inside it, organic slots of
    `ORGANIC_AREA` elsewhere."""
    pos = range(1, PAGE_SLOTS + 1)
    # an empty range for a template without a widget block
    spans = [row[1] or (0, 0) for row in TEMPLATE_TABLE[: config.n_templates]]
    widget = [[lo <= p <= hi for p in pos] for lo, hi in spans]
    region = [REGION_ORDER.index(region_of_position(p)) for p in pos]
    return SlotTable(
        region=np.array([region] * len(spans)),
        area=np.where(widget, WIDGET_AREA, ORGANIC_AREA),
        widget=np.array(widget),
        examination=np.array(
            [[examination_probability(config, p, w) for p, w in zip(pos, row)] for row in widget]
        ),
    )


def _widget_orders(
    config: WorldConfig,
    templates: tuple[PageTemplate, ...],
    query_brand: np.ndarray,
    item_brand: np.ndarray,
    item_appeal: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Each template's widget pool per query, by descending appeal, padded with
    ``n_items`` to the largest pool: ``query_brand`` keeps the query's brand,
    ``high_appeal`` items at or above the threshold, ``any`` every item."""
    appeal_order = np.lexsort((np.arange(config.n_items), -item_appeal))
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
    # per-customer scalars, one scalar expression per row: one `history @ weights`
    # product sums in another order, and on world seeds 0-19 it moves the last
    # bits of 15,695 of 40,000 history effects (a vectorized `exp` matched all)
    history_weights = np.asarray(config.history_effects)
    with np.errstate(over="raise"):
        try:
            spend_multiplier = [float(np.exp(config.spend_sensitivity * p)) for p in propensity]
        except FloatingPointError:
            raise DomainError("spend_sensitivity overflows a customer's spend multiplier") from None
        try:
            history_effect = [float(history_weights @ row) for row in history]
        except FloatingPointError:
            raise DomainError("history_effects overflow a customer's history effect") from None
    customers = CustomerTable(
        history=history,
        u_lin=u_lin,
        zip_index=r_cust.integers(0, config.n_zips, config.n_customers),
        membership=(r_cust.random(config.n_customers) < config.membership_rate).astype(
            np.int64
        ),
        spend_multiplier=np.array(spend_multiplier),
        history_effect=np.array(history_effect),
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
            specificity=float(q_spec[i]),
            category_id=categories[q_cat[i]],
        )
        for i in range(config.n_queries)
    )

    pool = TEMPLATE_TABLE[: config.n_templates]
    templates = tuple(PageTemplate(row[0], eligible_item_filter=row[2]) for row in pool)
    affinity = np.array([row[3] for row in pool])
    fe_loading = np.array([row[4] for row in pool])

    idx = np.arange(config.n_items)
    organic_order = np.empty((config.n_queries, config.n_items), dtype=np.intp)
    for qi, brand in enumerate(q_brand):
        score = appeal + config.organic_brand_bonus * (brand_idx == brand)
        organic_order[qi] = np.lexsort((idx, -score))

    world = World(
        config=config,
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
        slots=_slot_table(config),
        organic_order=organic_order,
        widget_order=_widget_orders(config, templates, q_brand, brand_idx, appeal),
        content_signals=np.zeros((config.n_queries, config.n_templates, len(SIGNAL_NAMES))),
    )
    return replace(world, content_signals=_content_signal_table(world))


def layout_item_indices(
    world: World,
    query_index: int,
    template_index: int,
    available: np.ndarray,
) -> np.ndarray:
    """Pick the catalog item for every slot of a template, in position order:
    the one-page case of :func:`page_item_indices`."""
    return page_item_indices(
        world, np.array([query_index]), np.array([template_index]), np.asarray(available)[None]
    )[0]


#: Leading positions of an order scanned first; only the pages of a block that
#: come up short there are scanned again, over twice as many, up to whole orders.
_SCAN_PREFIX = 2 * PAGE_SLOTS


def page_item_indices(
    world: World,
    query_idx: np.ndarray,
    template_idx: np.ndarray,
    available: np.ndarray,
) -> np.ndarray:
    """The catalog item of every slot of a block of pages, in position order:
    row ``i`` is the page of (``query_idx[i]``, ``template_idx[i]``) under
    ``available[i]``.

    Widget slots draw from the template's predicate pool by appeal; organic
    slots draw from the query's relevance order; no item repeats on a page.
    An exhausted widget pool falls through to the organic order so the page
    always fills; an exhausted catalog is a DomainError.

    A template's widget slots form one block, so a page is a run of organic
    picks, up to the block's size of widget picks, then organic picks again.
    All templates' pages are filled at once by running counts over a prefix
    of each order: the organic order's ends the first run, the widget pool's
    skips that run's items, and the organic order's less the widget picks
    fills the rest.
    """
    n_items = world.config.n_items
    flat = np.asarray(available, dtype=bool).reshape(-1)
    # each item's position in each query's organic order; the widget padding's is -1
    position = np.full((world.config.n_queries, n_items + 1), -1)
    np.put_along_axis(position, world.organic_order, np.arange(n_items), axis=1)
    page = np.empty((len(query_idx), PAGE_SLOTS), dtype=np.intp)
    rows, width = np.arange(len(query_idx)), _SCAN_PREFIX
    while len(rows):
        page[rows], short = _fill(world, position, query_idx, template_idx, flat, rows, width)
        if short.any() and width >= n_items:
            raise DomainError("catalog exhausted while filling a page")
        rows, width = rows[short], 2 * width
    return page


def _fill(
    world: World,
    position: np.ndarray,
    query_idx: np.ndarray,
    template_idx: np.ndarray,
    available: np.ndarray,
    rows: np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pages ``rows`` of the block (``available`` flattened row-major) filled
    from the first ``width`` positions of their orders, and which came up short."""
    n, n_items = len(rows), world.config.n_items
    width = min(width, n_items)
    query_idx, template_idx = query_idx[rows], template_idx[rows]
    count_type = np.min_scalar_type(width)  # a running count never passes `width`
    widget = world.slots.widget
    lead = np.where(widget.any(axis=1), widget.argmax(axis=1), PAGE_SLOTS)
    lead, n_block = (a[template_idx].astype(count_type) for a in (lead, widget.sum(axis=1)))
    page = np.empty(n * PAGE_SLOTS, dtype=np.intp)
    offset = (rows * n_items)[:, None]
    organic = world.organic_order[query_idx, :width]
    free = available.take(organic + offset)
    count = _running_count(free, count_type)
    # the organic run above the widget block ends at its lead-th item
    cut = np.where(lead > 0, np.argmax(count >= lead[:, None], axis=1) + 1, 0)
    pool_widths = np.array([order.shape[1] for order in world.widget_order])
    templates = [t for t in np.unique(template_idx) if widget[t].any()]
    pool_width = min(width, max(pool_widths[templates], default=0))
    pool = np.full((n, pool_width), n_items)
    for t in templates:
        pages = np.flatnonzero(template_idx == t)
        pool[pages, : pool_widths[t]] = world.widget_order[t][query_idx[pages], :pool_width]
    # padding has position -1, so it is never eligible; `clip` keeps its index in range
    pool_position = position.reshape(-1).take(pool + (query_idx * (n_items + 1))[:, None])
    eligible = (pool_position >= cut[:, None]) & available.take(pool + offset, mode="clip")
    rank = _running_count(eligible, count_type)
    picked = np.flatnonzero(eligible & (rank <= n_block[:, None]))
    r = picked // max(pool_width, 1)
    page[r * PAGE_SLOTS + lead[r] + rank.reshape(-1)[picked] - 1] = pool.reshape(-1)[picked]
    n_widget = np.bincount(r, minlength=n)
    short = (n_widget < n_block) & (pool_widths[template_idx] > pool_width)
    # the widget picks leave the organic order
    at = pool_position.reshape(-1)[picked]
    free.reshape(-1)[(r * width + at)[at < width]] = False
    # organic rank k < lead fills slot k; later ranks skip the widget picks, and
    # an exhausted widget pool leaves its remaining block slots to them
    count = _running_count(free, count_type)
    need = (PAGE_SLOTS - n_widget).astype(count_type)
    picked = np.flatnonzero(free & (count <= need[:, None]))
    r, k = picked // width, count.reshape(-1)[picked] - 1
    page[r * PAGE_SLOTS + k + (k >= lead[r]) * n_widget[r]] = organic.reshape(-1)[picked]
    return page.reshape(n, PAGE_SLOTS), short | (count[:, -1] < need)


def _running_count(mask: np.ndarray, count_type: np.dtype) -> np.ndarray:
    """Inclusive running count of ``mask`` along its rows, one column add at a
    time, which beats numpy's cumulative sum along rows this short."""
    count = mask.astype(count_type)
    for j in range(1, count.shape[1]):
        count[:, j] += count[:, j - 1]
    return count


def _content_signal_table(world: World) -> np.ndarray:
    """Per-(query, template) signals under full availability.

    These are what the ranker sees at inference time, before any
    availability noise realizes the actual page.
    """
    cfg = world.config
    slots = world.slots
    # every (query, template) page in one block, query-major
    query_idx, template_idx = np.divmod(np.arange(cfg.n_queries * cfg.n_templates), cfg.n_templates)
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
