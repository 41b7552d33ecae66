"""Core vocabulary: items, pages, regions, objectives, contexts.

All types here are immutable values and safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Any

from .errors import DomainError


class PageRegion(enum.Enum):
    TOP = "top"
    MIDDLE = "middle"
    BOTTOM = "bottom"


class ContentKind(enum.Enum):
    ORGANIC = "organic"
    WIDGET = "widget"


class Device(enum.Enum):
    MOBILE = "mobile"
    DESKTOP = "desktop"


# Region boundaries over whole-page ordinals. Widget items consume positions
# just like organic ones, so boundaries apply to the visual order of the page.
TOP_LAST_POSITION = 8
MIDDLE_LAST_POSITION = 16


def region_of_position(position: int) -> PageRegion:
    """Map a 1-based whole-page position to its region.

    Positions 1-8 are TOP, 9-16 MIDDLE, and everything beyond is BOTTOM.
    """
    if position < 1:
        raise DomainError(f"position must be >= 1, got {position}")
    if position <= TOP_LAST_POSITION:
        return PageRegion.TOP
    if position <= MIDDLE_LAST_POSITION:
        return PageRegion.MIDDLE
    return PageRegion.BOTTOM


def require_finite(config: Any) -> None:
    """Raise a DomainError naming the first float of the dataclass ``config``,
    inside tuples and mappings too, that is NaN or infinite. Config classes
    call it in ``__post_init__`` ahead of their range checks, which NaN passes."""

    def check(value: Any, name: str) -> None:
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
        if isinstance(value, (tuple, list)):
            for i, v in enumerate(value):
                check(v, f"{name}[{i}]")
        elif isinstance(value, Mapping):
            for k, v in value.items():
                check(v, f"{name}.{k}")

    for f in fields(config):
        check(getattr(config, f.name), f.name)


@dataclass(frozen=True)
class Item:
    """One catalog item. ``base_appeal`` is the latent purchase propensity
    used only by the simulator."""

    item_id: str
    brand_id: str
    base_appeal: float
    price: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.base_appeal <= 1.0):
            raise DomainError(f"base_appeal must be in [0, 1], got {self.base_appeal}")
        if not self.price > 0.0:
            raise DomainError(f"price must be positive, got {self.price}")


@dataclass(frozen=True)
class Slot:
    """One rendered position on the page, organic or widget."""

    position: int
    content_kind: ContentKind
    item: Item
    pixel_area: float

    def __post_init__(self) -> None:
        if self.position < 1:
            raise DomainError(f"slot position must be >= 1, got {self.position}")
        if not self.pixel_area > 0.0:
            raise DomainError(f"pixel_area must be positive, got {self.pixel_area}")

    @property
    def region(self) -> PageRegion:
        return region_of_position(self.position)


@dataclass(frozen=True)
class PageTemplate:
    """An eligible arrangement of organic and widget slots, by id.

    The world's slot table holds each template's kind and pixel area per
    position; the item filter id names a predicate restricting which items
    may fill the widget slots.
    """

    template_id: str
    eligible_item_filter: str = "any"


@dataclass(frozen=True)
class PageLayout:
    """A concrete page: the template plus the ordered items filling it.

    Construction is permissive: it does not check the slots against the
    template.
    """

    template_id: str
    slots: tuple[Slot, ...]


@dataclass(frozen=True)
class ObjectiveVector:
    """Realized per-impression targets for the ranker's objectives.

    ``satisfaction`` is None when the logging arm does not compute a
    satisfaction metric.
    """

    revenue: float
    non_abandonment: int
    satisfaction: float | None = None

    def __post_init__(self) -> None:
        if self.revenue < 0.0:
            raise DomainError(f"revenue must be >= 0, got {self.revenue}")
        if self.non_abandonment not in (0, 1):
            raise DomainError(
                f"non_abandonment must be 0 or 1, got {self.non_abandonment}"
            )
        if self.satisfaction is not None and not (0.0 <= self.satisfaction <= 1.0):
            raise DomainError(
                f"satisfaction must be in [0, 1], got {self.satisfaction}"
            )


@dataclass(frozen=True)
class ContextFeatures:
    """Request-level features: context and customer signals, plus per-candidate
    content signals keyed by template id.

    Content signal vectors must share one length within a request.
    """

    device: Device
    query_specificity: float
    category_id: str
    membership: int
    content_signals: Mapping[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.query_specificity <= 1.0):
            raise DomainError(
                f"query_specificity must be in [0, 1], got {self.query_specificity}"
            )
        if self.membership not in (0, 1):
            raise DomainError(f"membership must be 0 or 1, got {self.membership}")
        lengths = {len(v) for v in self.content_signals.values()}
        if len(lengths) > 1:
            raise DomainError(f"content signal lengths differ across candidates: {lengths}")
        for tid, vec in self.content_signals.items():
            if not all(math.isfinite(v) for v in vec):
                raise DomainError(f"non-finite content signal for template {tid!r}")
