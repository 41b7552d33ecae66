"""Synthetic marketplace simulator with planted causal ground truth."""

from .panel import simulate_panel
from .world import WorldConfig, generate_world

__all__ = ["WorldConfig", "generate_world", "simulate_panel"]
