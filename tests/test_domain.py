"""Region mapping, layout validation, and value-type guards."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wpxlab.domain import (
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
from wpxlab.errors import DomainError

from conftest import make_item
from oracles import validate_layout


class TestRegionOfPosition:
    def test_position_one_is_top(self):
        assert region_of_position(1) is PageRegion.TOP

    def test_position_sixteen_is_middle(self):
        assert region_of_position(16) is PageRegion.MIDDLE

    def test_position_seventeen_is_bottom(self):
        assert region_of_position(17) is PageRegion.BOTTOM

    def test_boundaries_are_eight_and_sixteen(self):
        assert region_of_position(8) is PageRegion.TOP
        assert region_of_position(9) is PageRegion.MIDDLE
        assert region_of_position(100) is PageRegion.BOTTOM

    def test_position_below_one_rejected(self):
        with pytest.raises(DomainError):
            region_of_position(0)
        with pytest.raises(DomainError):
            region_of_position(-5)

    @given(st.integers(min_value=1, max_value=5000))
    def test_piecewise_constant_over_the_three_bands(self, position):
        expected = (
            PageRegion.TOP
            if position <= 8
            else PageRegion.MIDDLE
            if position <= 16
            else PageRegion.BOTTOM
        )
        assert region_of_position(position) is expected


def _slot(position, kind=ContentKind.ORGANIC, area=100.0, brand="b0"):
    return Slot(
        position=position,
        content_kind=kind,
        item=make_item(brand=brand, item_id=f"i{position}"),
        pixel_area=area,
    )


def _template(plan, template_id="tpl"):
    return PageTemplate(template_id=template_id, slot_plan=tuple(plan))


class TestValidateLayout:
    def test_exact_match_is_ok(self):
        template = _template([(ContentKind.ORGANIC, 100.0), (ContentKind.WIDGET, 150.0)])
        layout = PageLayout(
            template_id="tpl",
            slots=(_slot(1), _slot(2, kind=ContentKind.WIDGET, area=150.0)),
        )
        assert validate_layout(layout, template) == []

    def test_non_contiguous_positions_reported(self):
        template = _template([(ContentKind.ORGANIC, 100.0)] * 2)
        layout = PageLayout(template_id="tpl", slots=(_slot(1), _slot(3)))
        violations = validate_layout(layout, template)
        assert any("non-contiguous" in v for v in violations)

    def test_widget_in_organic_slot_reported_as_kind_mismatch(self):
        template = _template([(ContentKind.ORGANIC, 100.0)])
        layout = PageLayout(
            template_id="tpl", slots=(_slot(1, kind=ContentKind.WIDGET),)
        )
        violations = validate_layout(layout, template)
        assert any("kind mismatch" in v for v in violations)

    def test_slot_count_mismatch_reported(self):
        template = _template([(ContentKind.ORGANIC, 100.0)] * 3)
        layout = PageLayout(template_id="tpl", slots=(_slot(1),))
        violations = validate_layout(layout, template)
        assert any("slot count" in v for v in violations)

    def test_pixel_area_mismatch_reported(self):
        template = _template([(ContentKind.ORGANIC, 100.0)])
        layout = PageLayout(template_id="tpl", slots=(_slot(1, area=99.0),))
        violations = validate_layout(layout, template)
        assert any("pixel area mismatch" in v for v in violations)

    def test_template_id_mismatch_reported(self):
        template = _template([(ContentKind.ORGANIC, 100.0)], template_id="other")
        layout = PageLayout(template_id="tpl", slots=(_slot(1),))
        violations = validate_layout(layout, template)
        assert any("template mismatch" in v for v in violations)

    def test_ineligible_widget_item_reported(self):
        template = _template([(ContentKind.WIDGET, 100.0)])
        layout = PageLayout(
            template_id="tpl", slots=(_slot(1, kind=ContentKind.WIDGET, brand="bad"),)
        )
        violations = validate_layout(
            layout, template, widget_item_filter=lambda item: item.brand_id == "good"
        )
        assert any("ineligible item" in v for v in violations)

    def test_eligible_widget_item_passes_filter(self):
        template = _template([(ContentKind.WIDGET, 100.0)])
        layout = PageLayout(
            template_id="tpl", slots=(_slot(1, kind=ContentKind.WIDGET, brand="good"),)
        )
        violations = validate_layout(
            layout, template, widget_item_filter=lambda item: item.brand_id == "good"
        )
        assert violations == []


class TestValueGuards:
    def test_item_appeal_must_be_unit_interval(self):
        with pytest.raises(DomainError):
            Item("i", "b", base_appeal=1.5, price=1.0)
        with pytest.raises(DomainError):
            Item("i", "b", base_appeal=-0.1, price=1.0)

    def test_item_price_must_be_positive(self):
        with pytest.raises(DomainError):
            Item("i", "b", base_appeal=0.5, price=0.0)

    def test_slot_position_and_area_guards(self):
        with pytest.raises(DomainError):
            _slot(0)
        with pytest.raises(DomainError):
            _slot(1, area=0.0)

    def test_slot_region_property_follows_position(self):
        assert _slot(3).region is PageRegion.TOP
        assert _slot(12).region is PageRegion.MIDDLE
        assert _slot(20).region is PageRegion.BOTTOM

    def test_template_requires_slots_and_positive_areas(self):
        with pytest.raises(DomainError):
            PageTemplate(template_id="t", slot_plan=())
        with pytest.raises(DomainError):
            PageTemplate(template_id="t", slot_plan=((ContentKind.ORGANIC, 0.0),))

    def test_objective_vector_guards(self):
        ObjectiveVector(revenue=0.0, non_abandonment=0)
        ObjectiveVector(revenue=1.0, non_abandonment=1, satisfaction=0.5)
        with pytest.raises(DomainError):
            ObjectiveVector(revenue=-1.0, non_abandonment=0)
        with pytest.raises(DomainError):
            ObjectiveVector(revenue=1.0, non_abandonment=2)
        with pytest.raises(DomainError):
            ObjectiveVector(revenue=1.0, non_abandonment=1, satisfaction=1.5)

    def test_context_features_guards(self):
        ContextFeatures(
            device=Device.DESKTOP,
            query_specificity=0.5,
            category_id="c",
            membership=1,
            content_signals={"a": (0.1, 0.2), "b": (0.3, 0.4)},
        )
        with pytest.raises(DomainError):
            ContextFeatures(Device.DESKTOP, 1.5, "c", 0)
        with pytest.raises(DomainError):
            ContextFeatures(Device.DESKTOP, 0.5, "c", 3)
        with pytest.raises(DomainError):
            ContextFeatures(
                Device.DESKTOP, 0.5, "c", 0,
                content_signals={"a": (0.1,), "b": (0.1, 0.2)},
            )
        with pytest.raises(DomainError):
            ContextFeatures(
                Device.DESKTOP, 0.5, "c", 0, content_signals={"a": (float("nan"),)}
            )
