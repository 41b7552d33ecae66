"""Per-session click, purchase, and delayed-revenue realization.

The click model is positional: the examination probability of a slot decays
geometrically with position and widget slots draw extra attention. Clicks
turn into purchases, purchases into short-term revenue, and the planted
welfare function turns page quality plus short-term outcomes into long-term
revenue.

The model is written once, as array kernels over slot columns of shape
``(..., n_slots)`` (:func:`click_model`, :func:`welfare`). Batch code feeds
them pages of catalog item indices (:func:`page_sessions`,
:func:`page_long_term`); :func:`simulate_session` and
:func:`realize_long_term` feed them one hand-built or materialized
:class:`PageLayout`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domain import ContentKind, PageLayout, Slot
from ..errors import DomainError
from ..metrics import layout_region_bmrs, region_bmr_columns
from .world import World, WorldConfig, examination_probability, layout_item_indices


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
    """Short-horizon outcomes of a block of pages, one row per page."""

    clicked: np.ndarray  # (n, n_slots) bool
    short_term_revenue: np.ndarray  # (n,)
    engagement: np.ndarray  # (n,) click count, as float
    region_bmrs: np.ndarray  # (n, 3) in metrics.REGION_ORDER


def build_layout(
    world: World,
    query_index: int,
    template_index: int,
    available: np.ndarray,
) -> PageLayout:
    """Materialize the page a template produces given today's availability."""
    template = world.templates[template_index]
    picks = layout_item_indices(world, query_index, template_index, available)
    slots = tuple(
        Slot(
            position=i + 1,
            content_kind=kind,
            item=world.items[picks[i]],
            pixel_area=area,
        )
        for i, (kind, area) in enumerate(template.slot_plan)
    )
    return PageLayout(template_id=template.template_id, slots=slots)


def draw_availability(world: World, rng: np.random.Generator) -> np.ndarray:
    """Per-event item availability: independent stockout coin per item."""
    return rng.random(world.config.n_items) < world.config.availability_rate


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


def page_sessions(
    world: World,
    customer_idx: np.ndarray,
    query_idx: np.ndarray,
    template_idx: np.ndarray,
    items: np.ndarray,
    u: np.ndarray,
) -> PageSessions:
    """Realize the sessions of pages given as ``(n, n_slots)`` catalog item
    indices, with the ``(n, 3, n_slots)`` uniforms of :func:`click_model`."""
    match = world.item_brand[items] == world.query_brand[query_idx][:, None]
    slots = world.slots
    clicked, amounts = click_model(
        world.config,
        slots.examination[template_idx],
        world.item_appeal[items],
        match,
        world.item_price[items],
        world.customers.spend_multiplier[customer_idx],
        u,
    )
    return PageSessions(
        clicked=clicked,
        short_term_revenue=amounts.sum(axis=-1),
        engagement=clicked.sum(axis=-1).astype(float),
        region_bmrs=region_bmr_columns(
            slots.region[template_idx], slots.area[template_idx], match
        ),
    )


def page_long_term(
    world: World,
    customer_idx: np.ndarray,
    query_idx: np.ndarray,
    sessions: PageSessions,
    z: np.ndarray,
) -> np.ndarray:
    """Long-term revenue of the pages behind ``sessions``, one normal draw each."""
    customers = world.customers
    revenue = welfare(
        world.config,
        sessions.short_term_revenue,
        sessions.engagement,
        sessions.region_bmrs,
        customers.history_effect[customer_idx],
        world.query_alpha[query_idx],
        world.zip_zeta[customers.zip_index[customer_idx]],
        z,
    )
    if not np.all(np.isfinite(revenue)):
        raise DomainError("long_term_revenue must be finite")
    return revenue


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
