"""Synthetic marketplace simulator with planted causal ground truth."""

from .panel import (
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
from .session import (
    LongTermOutcome,
    SessionOutcome,
    build_layout,
    draw_availability,
    realize_long_term,
    simulate_session,
)
from .world import (
    HISTORY_COLUMNS,
    SIGNAL_NAMES,
    TEMPLATE_TABLE,
    CustomerTable,
    QueryGroup,
    World,
    WorldConfig,
    generate_world,
    layout_item_indices,
)

__all__ = [
    "CONFOUNDED",
    "M_COLUMNS",
    "RANDOMIZED",
    "X_COLUMNS",
    "EventBatch",
    "assign_templates",
    "emit_panel",
    "generate_events",
    "simulate_panel",
    "LongTermOutcome",
    "SessionOutcome",
    "build_layout",
    "draw_availability",
    "realize_long_term",
    "simulate_session",
    "HISTORY_COLUMNS",
    "SIGNAL_NAMES",
    "TEMPLATE_TABLE",
    "CustomerTable",
    "QueryGroup",
    "World",
    "WorldConfig",
    "generate_world",
    "layout_item_indices",
]
