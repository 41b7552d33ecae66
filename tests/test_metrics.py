"""Pixel- and region-weighted brand match rate: examples and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpxlab.domain import PageRegion
from wpxlab.errors import DomainError
from wpxlab.metrics import (
    CTR_REGION_WEIGHTS,
    BrandMatchPage,
    RegionWeights,
    brand_match,
    brand_match_page,
    layout_region_bmrs,
    pr_wp_bmr,
    region_bmr,
    region_bmr_columns,
    weighted_bmr,
)

from conftest import make_item, make_layout

DVWPX_WEIGHTS = RegionWeights(0.63, 0.37, 0.0)

REGIONS = (PageRegion.TOP, PageRegion.MIDDLE, PageRegion.BOTTOM)


def _page(slots):
    """slots: iterable of (region, area, match) triples."""
    return BrandMatchPage(tuple(slots))


def _oracle(page: BrandMatchPage, weights: RegionWeights) -> float:
    """Independent weighted-sum evaluation, region rates from scratch."""
    total = 0.0
    for region, w in zip(REGIONS, weights.as_tuple()):
        area = sum(a for r, a, _ in page.slots if r is region)
        hit = sum(a * m for r, a, m in page.slots if r is region)
        total += w * (hit / area if area > 0 else 0.0)
    return total


def _random_page(rng: np.random.Generator) -> BrandMatchPage:
    n = int(rng.integers(1, 30))
    return _page(
        (
            REGIONS[int(rng.integers(0, 3))],
            float(rng.uniform(1.0, 500.0)),
            int(rng.integers(0, 2)),
        )
        for _ in range(n)
    )


class TestBrandMatch:
    def test_same_brand_matches(self):
        assert brand_match(make_item(brand="acme"), "acme") == 1

    def test_different_brand_does_not_match(self):
        assert brand_match(make_item(brand="acme"), "apex") == 0

    def test_deterministic(self):
        item = make_item(brand="acme")
        assert brand_match(item, "acme") == brand_match(item, "acme")

    def test_empty_query_brand_rejected(self):
        with pytest.raises(DomainError):
            brand_match(make_item(), "")


class TestRegionBmr:
    def test_all_matching_slots_give_one(self):
        page = _page([(PageRegion.TOP, 120.0, 1), (PageRegion.TOP, 80.0, 1)])
        assert region_bmr(page, PageRegion.TOP) == 1.0

    def test_empty_region_gives_zero(self):
        page = _page([(PageRegion.TOP, 120.0, 1)])
        assert region_bmr(page, PageRegion.BOTTOM) == 0.0

    def test_area_weighted_mean(self):
        page = _page([(PageRegion.MIDDLE, 300.0, 1), (PageRegion.MIDDLE, 100.0, 0)])
        assert region_bmr(page, PageRegion.MIDDLE) == 0.75

    def test_guards_on_slot_values(self):
        with pytest.raises(DomainError):
            _page([(PageRegion.TOP, 0.0, 1)])
        with pytest.raises(DomainError):
            _page([(PageRegion.TOP, 10.0, 2)])


class TestRegionBmrColumns:
    def test_equals_region_bmr_bit_for_bit_on_random_pages(self):
        rng = np.random.default_rng(17)
        pages = [_random_page(rng) for _ in range(200)]
        for page in pages:
            region = np.array([REGIONS.index(r) for r, _, _ in page.slots])
            area = np.array([a for _, a, _ in page.slots])
            match = np.array([m for _, _, m in page.slots])
            expected = [region_bmr(page, r) for r in REGIONS]
            assert region_bmr_columns(region, area, match).tolist() == expected

    def test_rows_of_a_block_are_independent_pages(self):
        region = np.array([0, 0, 1, 2])
        area = np.array([[1.0, 3.0, 2.0, 1.0], [1.0, 3.0, 2.0, 1.0]])
        match = np.array([[1, 0, 1, 0], [0, 1, 0, 0]])
        assert region_bmr_columns(region, area, match).tolist() == [
            [0.25, 1.0, 0.0],
            [0.75, 0.0, 0.0],
        ]


class TestRegionWeights:
    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            RegionWeights(-0.1, 0.6, 0.5)

    def test_sum_must_be_one(self):
        with pytest.raises(DomainError):
            RegionWeights(0.5, 0.3, 0.1)

    def test_as_tuple_round_trip(self):
        assert RegionWeights(0.6, 0.25, 0.15).as_tuple() == (0.6, 0.25, 0.15)


class TestPrWpBmr:
    FULL = [
        (PageRegion.TOP, 200.0, 1),
        (PageRegion.TOP, 90.0, 1),
        (PageRegion.MIDDLE, 150.0, 1),
        (PageRegion.BOTTOM, 60.0, 1),
    ]

    @pytest.mark.parametrize(
        "weights",
        [
            RegionWeights(1.0, 0.0, 0.0),
            RegionWeights(0.0, 1.0, 0.0),
            RegionWeights(0.0, 0.0, 1.0),
            CTR_REGION_WEIGHTS,
            RegionWeights(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        ],
    )
    def test_fully_matched_page_scores_one(self, weights):
        assert pr_wp_bmr(_page(self.FULL), weights) == pytest.approx(1.0, abs=1e-12)

    def test_top_only_match_under_ctr_weights(self):
        page = _page(
            [
                (PageRegion.TOP, 100.0, 1),
                (PageRegion.MIDDLE, 100.0, 0),
                (PageRegion.BOTTOM, 100.0, 0),
            ]
        )
        assert pr_wp_bmr(page, CTR_REGION_WEIGHTS) == pytest.approx(0.60, abs=1e-15)

    def test_bottom_only_match_under_estimated_weights(self):
        page = _page(
            [
                (PageRegion.TOP, 100.0, 0),
                (PageRegion.MIDDLE, 100.0, 0),
                (PageRegion.BOTTOM, 100.0, 1),
            ]
        )
        assert pr_wp_bmr(page, DVWPX_WEIGHTS) == 0.0

    def test_top_weight_one_equals_region_bmr(self):
        rng = np.random.default_rng(7)
        weights = RegionWeights(1.0, 0.0, 0.0)
        for _ in range(50):
            page = _random_page(rng)
            assert pr_wp_bmr(page, weights) == region_bmr(page, PageRegion.TOP)

    def test_monotone_in_any_single_match_flip(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            page = _random_page(rng)
            weights = _random_weights(rng)
            base = pr_wp_bmr(page, weights)
            zeros = [i for i, (_, _, m) in enumerate(page.slots) if m == 0]
            if not zeros:
                continue
            i = zeros[int(rng.integers(0, len(zeros)))]
            flipped = list(page.slots)
            region, area, _ = flipped[i]
            flipped[i] = (region, area, 1)
            assert pr_wp_bmr(_page(flipped), weights) >= base - 1e-12

    def test_per_region_area_scaling_is_invariant(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            page = _random_page(rng)
            weights = _random_weights(rng)
            region = REGIONS[int(rng.integers(0, 3))]
            c = float(rng.uniform(0.01, 100.0))
            scaled = _page(
                (r, a * c if r is region else a, m) for r, a, m in page.slots
            )
            assert pr_wp_bmr(scaled, weights) == pytest.approx(
                pr_wp_bmr(page, weights), abs=1e-12
            )

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            value = pr_wp_bmr(_random_page(rng), _random_weights(rng))
            assert 0.0 <= value <= 1.0

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            page = _random_page(rng)
            weights = _random_weights(rng)
            assert abs(pr_wp_bmr(page, weights) - _oracle(page, weights)) <= 1e-12


def _random_weights(rng: np.random.Generator) -> RegionWeights:
    raw = rng.dirichlet((1.0, 1.0, 1.0))
    w0, w1 = float(raw[0]), float(raw[1])
    return RegionWeights(w0, w1, 1.0 - w0 - w1)


class TestLayoutHelpers:
    def test_layout_region_bmrs_by_position_bands(self):
        # 20 slots: top 1-8 all match, middle 9-16 half match, bottom 17-20 none
        matches = [1] * 8 + [1, 0] * 4 + [0] * 4
        layout = make_layout(matches, query_brand="b7", other_brand="x")
        top, mid, bot = layout_region_bmrs(layout, "b7")
        assert top == 1.0
        assert mid == 0.5
        assert bot == 0.0

    def test_weighted_bmr_agrees_with_slot_level_metric(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            matches = [int(rng.integers(0, 2)) for _ in range(int(rng.integers(1, 25)))]
            layout = make_layout(matches, query_brand="b1", other_brand="b2")
            weights = _random_weights(rng)
            via_page = pr_wp_bmr(brand_match_page(layout, "b1"), weights)
            via_rates = weighted_bmr(layout_region_bmrs(layout, "b1"), weights)
            assert via_rates == pytest.approx(via_page, abs=1e-12)

    def test_weighted_bmr_rejects_out_of_range_rates(self):
        with pytest.raises(DomainError):
            weighted_bmr((1.2, 0.0, 0.0), CTR_REGION_WEIGHTS)
        with pytest.raises(DomainError):
            weighted_bmr((float("nan"), 0.0, 0.0), CTR_REGION_WEIGHTS)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(REGIONS),
            st.floats(min_value=0.5, max_value=1000.0, allow_nan=False),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_pr_wp_bmr_equals_oracle_property(slots):
    page = _page(slots)
    for weights in (CTR_REGION_WEIGHTS, DVWPX_WEIGHTS, RegionWeights(0.2, 0.3, 0.5)):
        value = pr_wp_bmr(page, weights)
        assert abs(value - min(1.0, max(0.0, _oracle(page, weights)))) <= 1e-12
        assert 0.0 <= value <= 1.0
