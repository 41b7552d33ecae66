"""Per-session click, purchase, and delayed-revenue realization.

The click model is positional: the examination probability of a slot decays
geometrically with position and widget slots draw extra attention. Clicks
turn into purchases, purchases into short-term revenue, and the planted
welfare function turns page quality plus short-term outcomes into long-term
revenue.

The model is written once, as array kernels over slot columns of shape
``(..., n_slots)`` (:func:`click_model`, :func:`welfare`). Every shipped
caller serves blocks of pages through :func:`serve_pages`, which fills them
as catalog item indices; :func:`simulate_session` and
:func:`realize_long_term` feed the kernels one hand-built or materialized
:class:`PageLayout`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domain import ContentKind, Item, PageLayout, Slot
from ..errors import DomainError
from ..metrics import layout_region_bmrs, region_bmr_columns
from .world import (
    World, WorldConfig, examination_probability, layout_item_indices, page_item_indices
)


@dataclass(frozen=True)
class SessionOutcome:
    """What one served page produced within the short horizon."""

    clicks: tuple[int, ...]
    non_abandonment: int
    short_term_revenue: float
    engagement_a: float
    purchase_amounts: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.non_abandonment != int(any(self.clicks)):
            raise DomainError("non_abandonment must indicate at least one click")
        if self.short_term_revenue < 0.0:
            raise DomainError("short_term_revenue must be >= 0")


@dataclass(frozen=True)
class LongTermOutcome:
    long_term_revenue: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.long_term_revenue) or self.long_term_revenue < 0.0:
            raise DomainError("long_term_revenue must be finite and >= 0")


@dataclass(frozen=True)
class PageSessions:
    """A block of served pages, one row per page: its request, its page's
    region brand match rates and both horizons' outcomes."""

    customer_index: np.ndarray  # (n,)
    query_index: np.ndarray  # (n,)
    region_bmrs: np.ndarray  # (n, 3) in metrics.REGION_ORDER
    short_term_revenue: np.ndarray  # (n,)
    engagement: np.ndarray  # (n,) click count, as float
    long_term_revenue: np.ndarray  # (n,)


def build_layout(
    world: World,
    query_index: int,
    template_index: int,
    available: np.ndarray,
) -> PageLayout:
    """Materialize the page a template produces given today's availability.

    Each slot's kind and pixel area come from ``world.slots``; its `Item` is
    built from the catalog arrays at the filled index, with id ``i{j:05d}``.
    """
    picks = layout_item_indices(world, query_index, template_index, available)
    widget = world.slots.widget[template_index].tolist()
    area = world.slots.area[template_index].tolist()
    slots = tuple(
        Slot(
            position=p + 1,
            content_kind=ContentKind.WIDGET if widget[p] else ContentKind.ORGANIC,
            item=Item(
                item_id=f"i{j:05d}",
                brand_id=world.brands[world.item_brand[j]],
                base_appeal=float(world.item_appeal[j]),
                price=float(world.item_price[j]),
            ),
            pixel_area=area[p],
        )
        for p, j in enumerate(picks.tolist())
    )
    return PageLayout(template_id=world.templates[template_index].template_id, slots=slots)


def draw_availability(world: World, rng: np.random.Generator, n: int) -> np.ndarray:
    """Item availability of ``n`` events, ``(n, n_items)``: an independent
    stockout coin per event and item, drawn in row order."""
    return rng.random((n, world.config.n_items)) < world.config.availability_rate


def click_model(
    config: WorldConfig,
    examination: np.ndarray,
    appeal: np.ndarray,
    match: np.ndarray,
    price: np.ndarray,
    spend_multiplier: np.ndarray | float,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Clicks and purchase amounts of pages given as ``(..., n_slots)`` columns.

    ``u`` holds ``(..., 3, n_slots)`` uniforms: the examination, click and
    purchase draws of every slot. Brand-matching items click and convert
    more; a purchase spends the price times the customer's multiplier
    (``(...,)``). Returns the click mask and the per-slot amounts.
    """
    click_p = np.minimum(np.where(match, appeal * config.brand_click_boost, appeal), 1.0)
    purchase_p = np.minimum(
        np.where(
            match, config.purchase_prob * config.brand_conversion_boost, config.purchase_prob
        ),
        1.0,
    )
    clicked = (u[..., 0, :] < examination) & (u[..., 1, :] < click_p)
    purchased = clicked & (u[..., 2, :] < purchase_p)
    spend = np.asarray(spend_multiplier)[..., None]
    return clicked, np.where(purchased, price * spend, 0.0)


def welfare(
    config: WorldConfig,
    short_term_revenue: np.ndarray | float,
    engagement: np.ndarray | float,
    region_bmrs: np.ndarray,
    history_effect: np.ndarray | float,
    alpha: np.ndarray | float,
    zeta: np.ndarray | float,
    z: np.ndarray | float,
) -> np.ndarray:
    """The planted long-term revenue, elementwise over events.

    Carries forward short-term revenue and engagement, adds the true
    per-region quality effects on the realized page (``region_bmrs``,
    ``(..., 3)``), the customer's history effect, both fixed effects and
    ``noise_scale * z``; negative totals floor at 0.
    """
    c_top, c_mid, c_bot = config.true_region_effects
    total = (
        config.short_term_carry * short_term_revenue
        + config.engagement_carry * engagement
        + c_top * region_bmrs[..., 0]
        + c_mid * region_bmrs[..., 1]
        + c_bot * region_bmrs[..., 2]
        + history_effect
        + alpha
        + zeta
        + config.noise_scale * z
    )
    return np.maximum(total, 0.0)


def serve_pages(
    world: World,
    customer_idx: np.ndarray,
    query_idx: np.ndarray,
    template_idx: np.ndarray,
    available: np.ndarray,
    u: np.ndarray,
    z: np.ndarray,
) -> PageSessions:
    """Serve a block of requests, one template each.

    Row ``i`` fills its page under ``available[i]``, realizes its session from
    the ``(3, n_slots)`` uniforms ``u[i]`` of :func:`click_model` and its
    long-term revenue from the normal ``z[i]`` through :func:`welfare`. A
    long-term revenue that overflows or is not finite is a DomainError.
    """
    items = page_item_indices(world, query_idx, template_idx, available)
    match = world.item_brand[items] == world.query_brand[query_idx][:, None]
    slots, customers = world.slots, world.customers
    clicked, amounts = click_model(
        world.config,
        slots.examination[template_idx],
        world.item_appeal[items],
        match,
        world.item_price[items],
        customers.spend_multiplier[customer_idx],
        u,
    )
    short_term = amounts.sum(axis=-1)
    engagement = clicked.sum(axis=-1).astype(float)
    region_bmrs = region_bmr_columns(slots.region[template_idx], slots.area[template_idx], match)
    try:
        with np.errstate(over="raise"):
            long_term = welfare(
                world.config,
                short_term,
                engagement,
                region_bmrs,
                customers.history_effect[customer_idx],
                world.query_alpha[query_idx],
                world.zip_zeta[customers.zip_index[customer_idx]],
                z,
            )
    except FloatingPointError:
        raise DomainError(
            "long_term_revenue overflows float64: the world's welfare scales "
            "(noise_scale, the carries, the region, history and fixed effects) are too large"
        ) from None
    if not np.all(np.isfinite(long_term)):
        raise DomainError("long_term_revenue must be finite")
    return PageSessions(
        customer_index=customer_idx,
        query_index=query_idx,
        region_bmrs=region_bmrs,
        short_term_revenue=short_term,
        engagement=engagement,
        long_term_revenue=long_term,
    )


def simulate_session(
    world: World,
    customer_index: int,
    query_index: int,
    layout: PageLayout,
    rng: np.random.Generator,
) -> SessionOutcome:
    """Realize one session on a page.

    Consumes exactly 3 * n_slots uniforms in a fixed order (examination,
    click, purchase), so outcomes are reproducible per event stream.
    """
    slots = layout.slots
    query_brand = world.brands[world.query_brand[query_index]]
    clicked, amounts = click_model(
        world.config,
        np.array(
            [
                examination_probability(
                    world.config, s.position, s.content_kind is ContentKind.WIDGET
                )
                for s in slots
            ]
        ),
        np.array([s.item.base_appeal for s in slots]),
        np.array([s.item.brand_id == query_brand for s in slots], dtype=bool),
        np.array([s.item.price for s in slots]),
        world.customers.spend_multiplier[customer_index],
        rng.random((3, len(slots))),
    )
    return SessionOutcome(
        clicks=tuple(int(c) for c in clicked),
        non_abandonment=int(clicked.any()),
        short_term_revenue=float(amounts.sum()),
        engagement_a=float(clicked.sum()),
        purchase_amounts=tuple(float(a) for a in amounts),
    )


def realize_long_term(
    world: World,
    customer_index: int,
    query_index: int,
    layout: PageLayout,
    session: SessionOutcome,
    rng: np.random.Generator,
) -> LongTermOutcome:
    """Evaluate the planted welfare function (:func:`welfare`) for one event."""
    revenue = welfare(
        world.config,
        session.short_term_revenue,
        session.engagement_a,
        np.array(layout_region_bmrs(layout, world.brands[world.query_brand[query_index]])),
        world.customers.history_effect[customer_index],
        world.query_alpha[query_index],
        world.zip_zeta[world.customers.zip_index[customer_index]],
        rng.standard_normal(),
    )
    return LongTermOutcome(long_term_revenue=float(revenue))
