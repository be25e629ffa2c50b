"""Edge cases of the bounds-check classifiers.

``classify_index`` (hull-level, used by the elimination pass) and
``classify_access`` (component-wise, used by diagnostics) must agree on
the easy cases and stay conservative on the hard ones: symbolic bounds,
strided progressions, missing sizes, ⊤/⊥ lattice extremes.
"""

from __future__ import annotations

import pytest

from repro.core.bounds import Bound, NEG_INF, POS_INF
from repro.core.ranges import RangeError, StridedRange
from repro.core.rangeset import RangeSet
from repro.opt.boundscheck import (
    SAFE,
    UNKNOWN,
    UNSAFE,
    AccessClassification,
    classify_access,
    classify_index,
)


def _set(*ranges) -> RangeSet:
    return RangeSet.from_ranges(list(ranges))


class TestClassifyIndex:
    def test_no_size_is_unknown(self):
        assert classify_index(RangeSet.constant(3), None) == UNKNOWN

    def test_top_and_bottom_are_unknown(self):
        assert classify_index(RangeSet.top(), 10) == UNKNOWN
        assert classify_index(RangeSet.bottom(), 10) == UNKNOWN

    def test_inside_is_safe(self):
        assert classify_index(_set(StridedRange.span(1.0, 0, 9)), 10) == SAFE

    def test_entirely_negative_is_unsafe(self):
        assert classify_index(_set(StridedRange.span(1.0, -5, -1)), 10) == UNSAFE

    def test_entirely_above_is_unsafe(self):
        assert classify_index(_set(StridedRange.span(1.0, 10, 12)), 10) == UNSAFE

    def test_straddling_is_unknown(self):
        assert classify_index(_set(StridedRange.span(1.0, -2, 3)), 10) == UNKNOWN

    def test_symbolic_upper_bound_is_unknown(self):
        # [0 : n-1] against size 10: n is unknown, so no verdict.
        index = _set(
            StridedRange(1.0, Bound.number(0), Bound.symbolic("n", -1), 1)
        )
        assert classify_index(index, 10) == UNKNOWN

    def test_symbolic_against_symbolic_size_stays_unknown(self):
        index = _set(StridedRange.symbol(1.0, "n"))
        assert classify_index(index, 10) == UNKNOWN

    def test_infinite_upper_bound_is_unknown(self):
        index = _set(StridedRange(1.0, Bound.number(0), Bound.number(POS_INF), 1))
        assert classify_index(index, 10) == UNKNOWN

    def test_infinite_lower_bound_is_unknown(self):
        index = _set(StridedRange(1.0, Bound.number(NEG_INF), Bound.number(5), 1))
        assert classify_index(index, 10) == UNKNOWN


class TestRangeConstruction:
    def test_negative_stride_raises(self):
        with pytest.raises(RangeError):
            StridedRange.span(1.0, 0, 10, stride=-2)

    def test_inverted_range_raises(self):
        with pytest.raises(RangeError):
            StridedRange.span(1.0, 10, 0)

    def test_empty_range_set_is_bottom(self):
        assert RangeSet.from_ranges([]).is_bottom
        # ...and a ⊥ index cannot be classified.
        assert classify_index(RangeSet.from_ranges([]), 10) == UNKNOWN


class TestClassifyAccess:
    def test_no_size(self):
        verdict = classify_access(RangeSet.constant(3), None)
        assert verdict == AccessClassification(UNKNOWN, False, 0.0)

    def test_definite_oob_single(self):
        verdict = classify_access(RangeSet.constant(10), 10)
        assert verdict.classification == UNSAFE
        assert verdict.definitely_oob
        assert verdict.oob_mass == 1.0

    def test_safe_inside(self):
        verdict = classify_access(_set(StridedRange.span(1.0, 0, 9)), 10)
        assert verdict == AccessClassification(SAFE, False, 0.0)

    def test_mixed_components_partial_mass(self):
        # 0.25 on the out-of-bounds constant, 0.75 safely inside.
        index = _set(
            StridedRange.single(0.25, 15),
            StridedRange.span(0.75, 0, 9),
        )
        verdict = classify_access(index, 10)
        assert verdict.classification == UNSAFE
        assert not verdict.definitely_oob
        assert verdict.oob_mass == pytest.approx(0.25)

    def test_straddling_component_contributes_fractional_mass(self):
        # [-2:7] has 10 values, 2 below zero.
        verdict = classify_access(_set(StridedRange.span(1.0, -2, 7)), 10)
        assert verdict.classification == UNKNOWN
        assert verdict.oob_mass == pytest.approx(0.2)

    def test_strided_component_counts_progression_members(self):
        # {0, 4, 8, 12}: 4 members, 1 outside [0, 10).
        verdict = classify_access(
            _set(StridedRange.span(1.0, 0, 12, stride=4)), 10
        )
        assert verdict.classification == UNKNOWN
        assert verdict.oob_mass == pytest.approx(0.25)

    def test_widened_infinite_range_contributes_no_mass(self):
        # A widened [0:+inf] is an over-approximation, not a proof that
        # large indices occur.
        index = _set(StridedRange(1.0, Bound.number(0), Bound.number(POS_INF), 1))
        verdict = classify_access(index, 10)
        assert verdict.classification == UNKNOWN
        assert verdict.oob_mass == 0.0
        assert not verdict.definitely_oob

    def test_symbolic_component_is_undecided_not_oob(self):
        index = _set(
            StridedRange(1.0, Bound.number(0), Bound.symbolic("n", -1), 1)
        )
        verdict = classify_access(index, 10)
        assert verdict.classification == UNKNOWN
        assert verdict.oob_mass == 0.0

    def test_all_components_outside_is_definite(self):
        index = _set(
            StridedRange.span(0.5, -4, -1),
            StridedRange.span(0.5, 20, 25),
        )
        verdict = classify_access(index, 10)
        assert verdict.classification == UNSAFE
        assert verdict.definitely_oob
        assert verdict.oob_mass == pytest.approx(1.0)

    def test_negative_single_is_definite(self):
        verdict = classify_access(RangeSet.constant(-1), 10)
        assert verdict.classification == UNSAFE
        assert verdict.definitely_oob
