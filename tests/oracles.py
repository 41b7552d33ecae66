"""Reference checks the package itself does not ship, kept for the tests."""

from __future__ import annotations

from collections.abc import Callable

from wpxlab.domain import ContentKind, Item, PageLayout, PageTemplate


def validate_layout(
    layout: PageLayout,
    template: PageTemplate,
    widget_item_filter: Callable[[Item], bool] | None = None,
) -> list[str]:
    """Check a layout against its template; return every violation found.

    Violations are data, not failures: an empty list means the layout is ok.
    ``widget_item_filter`` is the resolved predicate for the template's
    ``eligible_item_filter``; when omitted, eligibility is not checked.
    """
    violations: list[str] = []
    if layout.template_id != template.template_id:
        violations.append(
            f"template mismatch: layout says {layout.template_id!r}, "
            f"template is {template.template_id!r}"
        )
    if layout.n_slots != template.n_slots:
        violations.append(
            f"slot count {layout.n_slots} != template plan length {template.n_slots}"
        )
    positions = [slot.position for slot in layout.slots]
    if positions != list(range(1, len(positions) + 1)):
        violations.append(f"non-contiguous positions: {positions}")
    for slot, (kind, area) in zip(layout.slots, template.slot_plan):
        if slot.content_kind is not kind:
            violations.append(
                f"kind mismatch at position {slot.position}: "
                f"{slot.content_kind.value} in a {kind.value} slot"
            )
        if slot.pixel_area != area:
            violations.append(
                f"pixel area mismatch at position {slot.position}: "
                f"{slot.pixel_area} != {area}"
            )
        if (
            widget_item_filter is not None
            and slot.content_kind is ContentKind.WIDGET
            and not widget_item_filter(slot.item)
        ):
            violations.append(
                f"ineligible item {slot.item.item_id!r} at position {slot.position}"
            )
    return violations
