"""Logged event generation and panel emission for the estimator.

Two logging policies: a confounded one that routes high-propensity customers
and high-effect query groups toward brand-heavy templates (what production
traffic looks like), and a randomized one that assigns templates uniformly
(what a weight-estimation experiment looks like).
"""

from __future__ import annotations

from dataclasses import fields
from functools import partial

import numpy as np

from ..errors import DomainError
from ..rng import RNG_BLOCK, block_rows, stream
from .world import HISTORY_COLUMNS, World
from .session import PageSessions, draw_availability, serve_pages
from ..dml.panel import PanelDataset

X_COLUMNS = ("x_bmr_top", "x_bmr_mid", "x_bmr_bot")
M_COLUMNS = ("m_short_rev", "m_engagement")

CONFOUNDED = "confounded"
RANDOMIZED = "randomized"

#: Events realized per chunk; bounds the simulator's working memory. One
#: random block per chunk, so no block's draws are made twice.
CHUNK_EVENTS = RNG_BLOCK


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
) -> PageSessions:
    """Draw customers and queries, assign templates, and serve the events
    block by block through `serve_pages`, which realizes both horizons.

    Event ``i`` reads its customer, query, availability (`draw_availability`),
    ``(3, n_slots)`` session uniforms and long-term normal as row ``i`` of the
    block-keyed purposes ``"customer"``, ``"query"``, ``"availability"``,
    ``"session"`` and ``"long_term"`` (`rng.block_rows`), and its template as
    row ``i`` of the policy's draw from the stream ``"panel_assignment"``. So
    no draw depends on the chunking, and a panel's first m events are the
    m-event panel.
    """
    if n_events < 1:
        raise DomainError("n_events must be >= 1")
    cfg = world.config
    customer_idx = block_rows(
        seed, ("customer",), 0, n_events, lambda g, m: g.integers(0, cfg.n_customers, m)
    )
    query_idx = block_rows(
        seed, ("query",), 0, n_events, lambda g, m: g.integers(0, cfg.n_queries, m)
    )
    template_idx = assign_templates(
        world, customer_idx, query_idx, policy, stream(seed, "panel_assignment")
    )
    blocks = []
    for start in range(0, n_events, CHUNK_EVENTS):
        stop = min(start + CHUNK_EVENTS, n_events)
        rows = slice(start, stop)
        available = block_rows(
            seed, ("availability",), start, stop, partial(draw_availability, world)
        )
        u = block_rows(
            seed, ("session",), start, stop, lambda g, m: g.random((m, 3, world.n_slots))
        )
        z = block_rows(seed, ("long_term",), start, stop, lambda g, m: g.standard_normal(m))
        blocks.append(
            serve_pages(
                world, customer_idx[rows], query_idx[rows], template_idx[rows], available, u, z
            )
        )
    return PageSessions(
        **{
            f.name: np.concatenate([getattr(b, f.name) for b in blocks])
            for f in fields(PageSessions)
        }
    )


def _numbered(prefix: str, numbers: np.ndarray, width: int) -> np.ndarray:
    """``f"{prefix}{k:0{width}d}"`` for every non-negative ``k`` in ``numbers``."""
    return np.char.add(prefix, np.char.zfill(numbers.astype(str), width))


def emit_panel(world: World, events: PageSessions) -> PanelDataset:
    """Flatten served pages into the estimator's panel: keys, target, X, M, H.

    Panel row ``i`` is event ``i``, with event id ``e{i:08d}``; customer ``c``
    has id ``c{c:06d}``.
    """
    n = len(events.customer_index)
    if n == 0:
        raise DomainError("no events to emit")
    customers = world.customers
    query_ids = np.array([q.query_id for q in world.queries])
    customer_ids = _numbered("c", np.arange(world.config.n_customers), 6)
    return PanelDataset(
        event_id=_numbered("e", np.arange(n), 8),
        customer_id=customer_ids[events.customer_index],
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
