"""Whole-page brand satisfaction: pixel- and region-weighted brand match rate.

The metric scores how much of a page's visual real estate is devoted to items
matching the query's brand. Matches are pixel-weighted within each page
region, and the three region rates are combined with weights summing to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import PageLayout, PageRegion
from .errors import DomainError

_WEIGHT_SUM_TOL = 1e-12

#: Order of the three region rates everywhere they travel as a triple or array.
REGION_ORDER = (PageRegion.TOP, PageRegion.MIDDLE, PageRegion.BOTTOM)


@dataclass(frozen=True)
class RegionWeights:
    """Non-negative weights over (top, middle, bottom), summing to one."""

    w_top: float
    w_mid: float
    w_bot: float

    def __post_init__(self) -> None:
        if min(self.w_top, self.w_mid, self.w_bot) < 0.0:
            raise DomainError(f"region weights must be >= 0, got {self.as_tuple()}")
        total = self.w_top + self.w_mid + self.w_bot
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise DomainError(f"region weights must sum to 1, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_top, self.w_mid, self.w_bot)


#: Region weights derived from the empirical click-through distribution.
CTR_REGION_WEIGHTS = RegionWeights(0.60, 0.25, 0.15)


def layout_region_bmrs(layout: PageLayout, query_brand: str) -> tuple[float, float, float]:
    """(top, middle, bottom) pixel-weighted brand match rates of a layout, by
    :func:`region_bmr_columns` over its slots."""
    if not query_brand:
        raise DomainError("query_brand must be non-empty")
    slots = layout.slots
    if not slots:
        return (0.0, 0.0, 0.0)
    rates = region_bmr_columns(
        np.array([REGION_ORDER.index(slot.region) for slot in slots], dtype=np.intp),
        np.array([slot.pixel_area for slot in slots], dtype=float),
        np.array([slot.item.brand_id == query_brand for slot in slots], dtype=bool),
    )
    return tuple(rates.tolist())


def region_bmr_columns(
    region: np.ndarray, area: np.ndarray, match: np.ndarray
) -> np.ndarray:
    """Pixel-weighted brand match rate of every region of a block of pages held
    as slot columns of shape ``(..., n_slots)``: region codes into
    ``REGION_ORDER``, pixel areas and 0/1 (or bool) brand matches. Returns
    ``(..., 3)``.

    A region's rate is its matched over its total area, each summed in slot
    order, one slot of every page at a time. An empty region rates 0: a page
    that leaves a region unfilled provides no brand-aligned content there.
    """
    codes = np.arange(len(REGION_ORDER))
    for s in range(region.shape[-1]):
        # each page's slot-s area in its own region's column, else 0
        in_region = np.where(region[..., s, None] == codes, area[..., s, None], 0.0)
        hit = np.where(match[..., s, None], in_region, 0.0)
        if s == 0:
            total, matched = in_region, hit
        else:
            total += in_region
            matched += hit
    return np.divide(matched, total, out=np.zeros(matched.shape), where=total > 0.0)


def weighted_bmr(
    bmrs: np.ndarray | tuple[float, float, float], weights: RegionWeights
) -> np.ndarray:
    """Combine precomputed ``(..., 3)`` region rates into ``(...)`` page
    scores; keeps batch code off the slot types. The products sum left to
    right and the result is clamped to [0, 1], as for a single page."""
    rates = np.asarray(bmrs, dtype=float)
    bad = ~(np.isfinite(rates) & (rates >= -1e-9) & (rates <= 1.0 + 1e-9))
    if bad.any():
        raise DomainError(f"region rate out of [0, 1]: {rates[bad][0].item()}")
    value = (
        weights.w_top * rates[..., 0]
        + weights.w_mid * rates[..., 1]
        + weights.w_bot * rates[..., 2]
    )
    return np.minimum(1.0, np.maximum(0.0, value))
