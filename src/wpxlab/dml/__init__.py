"""Causal estimation of page-quality effects on long-horizon revenue."""

from .pipeline import DmlConfig, derive_region_weights, estimate_dvwpx

__all__ = ["DmlConfig", "estimate_dvwpx", "derive_region_weights"]
