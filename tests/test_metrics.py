"""Pixel- and region-weighted brand match rate: examples and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpxlab.domain import PageRegion
from wpxlab.errors import DomainError
from wpxlab.metrics import (
    CTR_REGION_WEIGHTS,
    RegionWeights,
    layout_region_bmrs,
    region_bmr_columns,
    weighted_bmr,
)

from conftest import make_layout

DVWPX_WEIGHTS = RegionWeights(0.63, 0.37, 0.0)

REGIONS = (PageRegion.TOP, PageRegion.MIDDLE, PageRegion.BOTTOM)


def _rates(slots) -> np.ndarray:
    """Region rates of a page given as (region, area, match) triples, by the
    shipped kernel."""
    slots = list(slots)
    return region_bmr_columns(
        np.array([REGIONS.index(r) for r, _, _ in slots]),
        np.array([a for _, a, _ in slots]),
        np.array([m for _, _, m in slots]),
    )


def _score(slots, weights: RegionWeights) -> float:
    """The whole-page metric as the package computes it."""
    return weighted_bmr(tuple(_rates(slots)), weights)


def _region_bmr(slots, region: PageRegion) -> float:
    """Scalar reference: one region's matched over total area, each summed in
    slot order; an empty region rates 0."""
    matched_area = 0.0
    total_area = 0.0
    for slot_region, area, match in slots:
        if slot_region is region:
            total_area += area
            matched_area += area * match
    return matched_area / total_area if total_area > 0.0 else 0.0


def _oracle(slots, weights: RegionWeights) -> float:
    """Independent weighted-sum evaluation, region rates from scratch."""
    total = 0.0
    for region, w in zip(REGIONS, weights.as_tuple()):
        area = sum(a for r, a, _ in slots if r is region)
        hit = sum(a * m for r, a, m in slots if r is region)
        total += w * (hit / area if area > 0 else 0.0)
    return total


def _random_page(rng: np.random.Generator) -> list:
    n = int(rng.integers(1, 30))
    return [
        (
            REGIONS[int(rng.integers(0, 3))],
            float(rng.uniform(1.0, 500.0)),
            int(rng.integers(0, 2)),
        )
        for _ in range(n)
    ]


def _one_slot_layout(brand: str):
    return make_layout([1], query_brand=brand)


class TestBrandMatch:
    def test_same_brand_matches(self):
        assert layout_region_bmrs(_one_slot_layout("acme"), "acme") == (1.0, 0.0, 0.0)

    def test_different_brand_does_not_match(self):
        assert layout_region_bmrs(_one_slot_layout("acme"), "apex") == (0.0, 0.0, 0.0)

    def test_deterministic(self):
        layout = _one_slot_layout("acme")
        assert layout_region_bmrs(layout, "acme") == layout_region_bmrs(layout, "acme")

    def test_empty_query_brand_rejected(self):
        with pytest.raises(DomainError):
            layout_region_bmrs(_one_slot_layout("acme"), "")


class TestRegionBmr:
    def test_all_matching_slots_give_one(self):
        rates = _rates([(PageRegion.TOP, 120.0, 1), (PageRegion.TOP, 80.0, 1)])
        assert rates[0] == 1.0

    def test_empty_region_gives_zero(self):
        assert _rates([(PageRegion.TOP, 120.0, 1)])[2] == 0.0

    def test_area_weighted_mean(self):
        rates = _rates([(PageRegion.MIDDLE, 300.0, 1), (PageRegion.MIDDLE, 100.0, 0)])
        assert rates[1] == 0.75


class TestRegionBmrColumns:
    def test_equals_region_bmr_bit_for_bit_on_random_pages(self):
        rng = np.random.default_rng(17)
        pages = [_random_page(rng) for _ in range(200)]
        for page in pages:
            expected = [_region_bmr(page, r) for r in REGIONS]
            assert _rates(page).tolist() == expected

    @pytest.mark.parametrize("n_slots", [5, 24])
    @pytest.mark.parametrize("match_dtype", [bool, np.int64], ids=["bool", "0/1"])
    @pytest.mark.parametrize("one_region_row", [False, True], ids=["per-row", "broadcast"])
    def test_rows_of_a_random_block_equal_region_bmr_bit_for_bit(
        self, n_slots, match_dtype, one_region_row
    ):
        rng = np.random.default_rng(29)
        n = 400
        region = rng.integers(0, 3, n_slots if one_region_row else (n, n_slots))
        # thirds are not dyadic, so a sum in another order moves the last bits
        area = rng.uniform(1.0, 500.0, (n, n_slots)) / 3.0
        match = (rng.random((n, n_slots)) < 0.4).astype(match_dtype)
        got = region_bmr_columns(region, area, match)
        assert got.shape == (n, 3)
        for i in range(n):
            codes = region if one_region_row else region[i]
            page = [(REGIONS[c], a, m) for c, a, m in zip(codes, area[i], match[i])]
            assert got[i].tolist() == [_region_bmr(page, r) for r in REGIONS]

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
        assert _score(self.FULL, weights) == pytest.approx(1.0, abs=1e-12)

    def test_top_only_match_under_ctr_weights(self):
        page = [
            (PageRegion.TOP, 100.0, 1),
            (PageRegion.MIDDLE, 100.0, 0),
            (PageRegion.BOTTOM, 100.0, 0),
        ]
        assert _score(page, CTR_REGION_WEIGHTS) == pytest.approx(0.60, abs=1e-15)

    def test_bottom_only_match_under_estimated_weights(self):
        page = [
            (PageRegion.TOP, 100.0, 0),
            (PageRegion.MIDDLE, 100.0, 0),
            (PageRegion.BOTTOM, 100.0, 1),
        ]
        assert _score(page, DVWPX_WEIGHTS) == 0.0

    def test_top_weight_one_equals_region_bmr(self):
        rng = np.random.default_rng(7)
        weights = RegionWeights(1.0, 0.0, 0.0)
        for _ in range(50):
            page = _random_page(rng)
            assert _score(page, weights) == _region_bmr(page, PageRegion.TOP)

    def test_monotone_in_any_single_match_flip(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            page = _random_page(rng)
            weights = _random_weights(rng)
            base = _score(page, weights)
            zeros = [i for i, (_, _, m) in enumerate(page) if m == 0]
            if not zeros:
                continue
            i = zeros[int(rng.integers(0, len(zeros)))]
            flipped = list(page)
            region, area, _ = flipped[i]
            flipped[i] = (region, area, 1)
            assert _score(flipped, weights) >= base - 1e-12

    def test_per_region_area_scaling_is_invariant(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            page = _random_page(rng)
            weights = _random_weights(rng)
            region = REGIONS[int(rng.integers(0, 3))]
            c = float(rng.uniform(0.01, 100.0))
            scaled = [(r, a * c if r is region else a, m) for r, a, m in page]
            assert _score(scaled, weights) == pytest.approx(
                _score(page, weights), abs=1e-12
            )

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            value = _score(_random_page(rng), _random_weights(rng))
            assert 0.0 <= value <= 1.0

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            page = _random_page(rng)
            weights = _random_weights(rng)
            assert abs(_score(page, weights) - _oracle(page, weights)) <= 1e-12


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
            slots = [
                (slot.region, slot.pixel_area, int(slot.item.brand_id == "b1"))
                for slot in layout.slots
            ]
            via_page = _oracle(slots, weights)
            via_rates = weighted_bmr(layout_region_bmrs(layout, "b1"), weights)
            assert via_rates == pytest.approx(via_page, abs=1e-12)

    def test_weighted_bmr_of_a_block_equals_the_per_page_formula_bitwise(self):
        rng = np.random.default_rng(59)
        rates = rng.random((40, 3))
        rates[::7] = np.round(rates[::7])
        rates[3], rates[5] = (-1e-10, 0.0, 0.0), (1.0 + 1e-10, 1.0, 1.0)
        for w in (CTR_REGION_WEIGHTS, DVWPX_WEIGHTS, _random_weights(rng)):
            expected = [
                min(1.0, max(0.0, w.w_top * top + w.w_mid * mid + w.w_bot * bot))
                for top, mid, bot in rates.tolist()
            ]
            assert weighted_bmr(rates, w).tolist() == expected
            blocks = weighted_bmr(rates.reshape(8, 5, 3), w)
            assert blocks.shape == (8, 5) and blocks.ravel().tolist() == expected

    def test_weighted_bmr_rejects_out_of_range_rates(self):
        with pytest.raises(DomainError):
            weighted_bmr((1.2, 0.0, 0.0), CTR_REGION_WEIGHTS)
        with pytest.raises(DomainError):
            weighted_bmr((float("nan"), 0.0, 0.0), CTR_REGION_WEIGHTS)
        rates = np.full((6, 3), 0.5)
        rates[2, 1], rates[4, 0] = float("inf"), -0.25
        with pytest.raises(DomainError, match="out of \\[0, 1\\]: inf$"):
            weighted_bmr(rates, CTR_REGION_WEIGHTS)


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
    for weights in (CTR_REGION_WEIGHTS, DVWPX_WEIGHTS, RegionWeights(0.2, 0.3, 0.5)):
        value = _score(slots, weights)
        assert abs(value - min(1.0, max(0.0, _oracle(slots, weights)))) <= 1e-12
        assert 0.0 <= value <= 1.0
