"""Desk-scale laboratory for whole-page search experience optimization.

Four pieces that fit together: a synthetic marketplace with planted causal
structure, a pixel-and-region-weighted brand-match metric, a debiased
estimator of how page quality moves long-horizon revenue, and a
Thompson-sampling template ranker driven by those estimates.
"""

from .domain import (
    ContentKind,
    ContextFeatures,
    Device,
    Item,
    ObjectiveVector,
    PageLayout,
    PageRegion,
    PageTemplate,
    Slot,
    region_of_position,
)
from .errors import DomainError, EstimationError, InvariantViolation, WpxError
from .metrics import (
    CTR_REGION_WEIGHTS,
    RegionWeights,
    layout_region_bmrs,
)
from .rng import stream

__version__ = "0.1.0"

__all__ = [
    "ContentKind",
    "ContextFeatures",
    "Device",
    "Item",
    "ObjectiveVector",
    "PageLayout",
    "PageRegion",
    "PageTemplate",
    "Slot",
    "region_of_position",
    "DomainError",
    "EstimationError",
    "InvariantViolation",
    "WpxError",
    "CTR_REGION_WEIGHTS",
    "RegionWeights",
    "layout_region_bmrs",
    "stream",
    "__version__",
]
