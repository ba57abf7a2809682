"""Tests for the disjoint interval union."""

import math

import pytest
from hypothesis import given, strategies as st

from dtwsi.intervals import IntervalUnion

INF = math.inf


def test_normalization_merges_overlap_and_touching():
    u = IntervalUnion([(3.0, 4.0), (0.0, 1.0), (1.0, 2.0), (3.5, 3.8)])
    assert u.intervals == ((0.0, 2.0), (3.0, 4.0))


def test_rejects_reversed_and_nan():
    with pytest.raises(ValueError):
        IntervalUnion([(2.0, 1.0)])
    with pytest.raises(ValueError):
        IntervalUnion([(0.0, math.nan)])


def test_membership_with_tolerance():
    u = IntervalUnion([(0.0, 1.0)])
    assert u.contains(0.5)
    assert u.contains(1.0)
    assert not u.contains(1.0 + 1e-9)
    assert u.contains(1.0 + 1e-9, tol=1e-8)


def test_intersect_basic():
    a = IntervalUnion([(-INF, 0.0), (1.0, 5.0)])
    b = IntervalUnion([(-2.0, 2.0), (4.0, INF)])
    assert a.intersect(b).intervals == ((-2.0, 0.0), (1.0, 2.0), (4.0, 5.0))
    assert a.intersect(IntervalUnion.empty()).is_empty


def test_subset_checks():
    inner = IntervalUnion([(0.0, 1.0), (2.0, 3.0)])
    outer = IntervalUnion([(-1.0, 4.0)])
    assert inner.is_subset_of(outer)
    assert not outer.is_subset_of(inner)
    nudged = IntervalUnion([(-1e-12, 1.0)])
    assert nudged.is_subset_of(IntervalUnion([(0.0, 1.0)]), tol=1e-9)
    assert not nudged.is_subset_of(IntervalUnion([(0.0, 1.0)]))


def test_clip_lower():
    u = IntervalUnion([(-1.0, 1.0), (2.0, 3.0)])
    assert u.clip_lower(0.5).intervals == ((0.5, 1.0), (2.0, 3.0))
    assert u.clip_lower(5.0).is_empty


def test_point_intervals():
    u = IntervalUnion([(0.0, 0.0), (1.0, 2.0)])
    assert u.intervals == ((0.0, 0.0), (1.0, 2.0))
    assert u.contains(0.0)
    assert not u.contains(0.5)


finite_floats = st.floats(-50, 50, allow_nan=False)


@st.composite
def unions(draw):
    pairs = draw(st.lists(st.tuples(finite_floats, finite_floats), min_size=0, max_size=6))
    return IntervalUnion([(min(a, b), max(a, b)) for a, b in pairs])


@given(unions(), unions(), finite_floats)
def test_intersection_agrees_with_membership(a, b, x):
    assert a.intersect(b).contains(x) == (a.contains(x) and b.contains(x))


@given(unions())
def test_normal_form_sorted_disjoint(u):
    for (lo1, hi1), (lo2, hi2) in zip(u.intervals, u.intervals[1:]):
        assert lo1 <= hi1
        assert hi1 < lo2
