"""Logged event generation and panel emission for the estimator.

Two logging policies: a confounded one that routes high-propensity customers
and high-effect query groups toward brand-heavy templates (what production
traffic looks like), and a randomized one that assigns templates uniformly
(what a weight-estimation experiment looks like).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import DomainError
from ..rng import keyed_normals, keyed_uniforms, stream, stream_keys
from .world import HISTORY_COLUMNS, World, page_item_indices
from .session import page_long_term, page_sessions
from ..dml.panel import PanelDataset

X_COLUMNS = ("x_bmr_top", "x_bmr_mid", "x_bmr_bot")
M_COLUMNS = ("m_short_rev", "m_engagement")

CONFOUNDED = "confounded"
RANDOMIZED = "randomized"

#: Events realized per block; bounds the simulator's working memory.
CHUNK_EVENTS = 4096


@dataclass(frozen=True)
class EventBatch:
    """Logged search events as columns: one row per event, with its page and
    both horizons' outcomes."""

    event_index: np.ndarray  # position in the generated sequence; names the event
    customer_index: np.ndarray
    query_index: np.ndarray
    template_index: np.ndarray
    items: np.ndarray  # (n, n_slots) catalog item per page position
    region_bmrs: np.ndarray  # (n, 3) top, middle, bottom
    short_term_revenue: np.ndarray
    engagement: np.ndarray
    long_term_revenue: np.ndarray

    def __len__(self) -> int:
        return len(self.event_index)

    def take(self, idx: np.ndarray) -> "EventBatch":
        return EventBatch(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})


def assign_templates(
    world: World,
    customer_idx: np.ndarray,
    query_idx: np.ndarray,
    policy: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick a template per event under the named logging policy."""
    n = len(customer_idx)
    n_templates = len(world.templates)
    if policy == RANDOMIZED:
        return rng.integers(0, n_templates, n)
    if policy != CONFOUNDED:
        raise DomainError(f"unknown logging policy {policy!r}")
    u = world.customers.u_lin[customer_idx]
    fe = (
        world.query_alpha[query_idx]
        + world.zip_zeta[world.customers.zip_index[customer_idx]]
    )
    systematic = world.config.confound_strength * (
        np.outer(u, world.template_affinity) + np.outer(fe, world.template_fe_loading)
    )
    noise = rng.gumbel(size=(n, n_templates))
    return np.argmax(systematic + noise, axis=1)


def generate_events(
    world: World,
    n_events: int,
    policy: str,
    seed: int,
) -> EventBatch:
    """Draw customers and queries, assign templates, realize both horizons.

    Event ``i`` draws its availability, session and long-term noise from
    ``stream(seed, i, purpose)``, so an event's outcome does not depend
    on how the events are blocked.
    """
    if n_events < 1:
        raise DomainError("n_events must be >= 1")
    cfg = world.config
    r = stream(seed, "panel_events")
    customer_idx = r.integers(0, cfg.n_customers, n_events)
    query_idx = r.integers(0, cfg.n_queries, n_events)
    template_idx = assign_templates(
        world, customer_idx, query_idx, policy, stream(seed, "panel_assignment")
    )
    blocks = []
    for start in range(0, n_events, CHUNK_EVENTS):
        ids = np.arange(start, min(start + CHUNK_EVENTS, n_events))
        ci, qi, ti = customer_idx[ids], query_idx[ids], template_idx[ids]
        purposes = ("availability", "session", "long_term")
        keys = {p: stream_keys(seed, (), ids, (p,)) for p in purposes}
        # draw_availability's coin, replayed for every event of the block
        available = keyed_uniforms(keys["availability"], cfg.n_items) < cfg.availability_rate
        items = page_item_indices(world, qi, ti, available)
        u = keyed_uniforms(keys["session"], 3 * world.n_slots)
        sessions = page_sessions(world, ci, qi, ti, items, u.reshape(len(ids), 3, -1))
        blocks.append(
            EventBatch(
                event_index=ids,
                customer_index=ci,
                query_index=qi,
                template_index=ti,
                items=items,
                region_bmrs=sessions.region_bmrs,
                short_term_revenue=sessions.short_term_revenue,
                engagement=sessions.engagement,
                long_term_revenue=page_long_term(
                    world, ci, qi, sessions, keyed_normals(keys["long_term"])
                ),
            )
        )
    return EventBatch(
        **{
            f.name: np.concatenate([getattr(b, f.name) for b in blocks])
            for f in fields(EventBatch)
        }
    )


def emit_panel(world: World, events: EventBatch) -> PanelDataset:
    """Flatten events into the estimator's panel: keys, target, X, M, H.

    Rows are ordered by event index regardless of input order, so blocked or
    parallel generation cannot change the output.
    """
    if len(events) == 0:
        raise DomainError("no events to emit")
    events = events.take(np.argsort(events.event_index, kind="stable"))
    customers = world.customers
    query_ids = np.array([q.query_id for q in world.queries])
    return PanelDataset(
        event_id=np.array([f"e{i:08d}" for i in events.event_index.tolist()]),
        customer_id=np.array([f"c{c:06d}" for c in events.customer_index.tolist()]),
        query_group=query_ids[events.query_index],
        zip_code=np.array(world.zip_ids)[customers.zip_index[events.customer_index]],
        drev=events.long_term_revenue,
        x=events.region_bmrs,
        m=np.column_stack([events.short_term_revenue, events.engagement]),
        h=customers.history[events.customer_index],
        x_names=X_COLUMNS,
        m_names=M_COLUMNS,
        h_names=HISTORY_COLUMNS,
    )


def simulate_panel(
    world: World, n_events: int, policy: str, seed: int
) -> PanelDataset:
    """Generate events under a policy and emit the estimation panel."""
    return emit_panel(world, generate_events(world, n_events, policy, seed))
