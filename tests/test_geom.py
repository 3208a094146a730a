import math

import pytest
from hypothesis import given, strategies as st

from monowatch.geom import (
    TAU_ONEDGE,
    Angle,
    GeometryError,
    Point,
    Polygon,
    Segment,
    normalize_deg,
    orient,
    ring_contains,
)

from conftest import chord_through_vertex, corpus_polygon, reflect_point

# half-integer grid keeps every cross product an exact multiple of 0.25,
# far from the collinearity tolerance
grid_coord = st.integers(min_value=-50, max_value=50).map(lambda v: v / 2.0)
grid_point = st.tuples(grid_coord, grid_coord).map(lambda t: Point(*t))

real_coord = st.floats(min_value=-100.0, max_value=100.0,
                       allow_nan=False, allow_infinity=False)
real_point = st.tuples(real_coord, real_coord).map(lambda t: Point(*t))


def test_orient_examples():
    assert orient(Point(0, 0), Point(1, 0), Point(0, 1)) == 1
    assert orient(Point(0, 0), Point(1, 0), Point(2, 0)) == 0
    assert orient(Point(0, 0), Point(0, 1), Point(1, 0)) == -1


@given(grid_point, grid_point, grid_point)
def test_orient_antisymmetric(p, q, r):
    s = orient(p, q, r)
    assert orient(q, p, r) == -s
    assert orient(p, r, q) == -s
    assert orient(r, q, p) == -s


def test_reflect_examples():
    assert reflect_point(Point(1, 1), Segment(Point(0, 0), Point(2, 0))) == \
        pytest.approx((1, -1))
    on_line = reflect_point(Point(1, 0), Segment(Point(0, 0), Point(2, 0)))
    assert on_line == pytest.approx((1, 0))
    assert reflect_point(Point(0, 2), Segment(Point(0, 0), Point(1, 1))) == \
        pytest.approx((2, 0))


@given(real_point, real_point, real_point)
def test_reflect_involution(p, a, b):
    if math.dist(a, b) < 1e-3:
        return
    m = Segment(a, b)
    back = reflect_point(reflect_point(p, m), m)
    assert math.dist(p, back) <= 1e-9 * (1.0 + math.dist(p, (0, 0)))


def test_reflect_degenerate_mirror_rejected():
    with pytest.raises(GeometryError):
        reflect_point(Point(1, 1), Segment(Point(2, 3), Point(2, 3)))


@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_angle_normalization(value):
    a = Angle(value)
    assert 0.0 <= a.degrees < 180.0
    assert Angle(a.degrees).degrees == a.degrees


def test_angle_wrap_points():
    assert Angle(180.0).degrees == 0.0
    assert Angle(185.0).degrees == 5.0
    assert Angle(-5.0).degrees == 175.0
    assert normalize_deg(360.0) == 0.0


def test_polygon_merges_collinear_vertices():
    P = Polygon([Point(0, 0), Point(2, 0), Point(4, 0),
                 Point(4, 4), Point(0, 4)])
    assert P.n == 4


def test_polygon_rejects_duplicates():
    with pytest.raises(GeometryError):
        Polygon([Point(0, 0), Point(4, 0), Point(4, 4),
                 Point(0, 4), Point(0, 0)])


def test_polygon_rejects_clockwise():
    with pytest.raises(GeometryError):
        Polygon([Point(0, 0), Point(0, 4), Point(4, 4), Point(4, 0)])


def test_polygon_rejects_self_intersection():
    with pytest.raises(GeometryError):
        Polygon([Point(0, 0), Point(4, 4), Point(4, 0), Point(0, 4)])


def test_max_chord_fixture_values(double, unotch):
    c = chord_through_vertex(double, 7, Angle(0.0))
    assert {tuple(c.lo), tuple(c.hi)} == {(0.0, 2.0), (5.5, 2.0)}
    c = chord_through_vertex(double, 2, Angle(0.0))
    assert {tuple(c.lo), tuple(c.hi)} == {(2.5, 4.0), (8.0, 4.0)}
    c = chord_through_vertex(unotch, 4, Angle(0.0))
    assert {tuple(c.lo), tuple(c.hi)} == {(0.0, 2.0), (8.0, 2.0)}


def _on_boundary(P, p, tol):
    return any(
        _point_seg_dist(p, P.vertices[i], P.vertices[(i + 1) % P.n]) <= tol
        for i in range(P.n))


def _point_seg_dist(p, a, b):
    ax, ay = b.x - a.x, b.y - a.y
    t = ((p.x - a.x) * ax + (p.y - a.y) * ay) / (ax * ax + ay * ay)
    t = min(1.0, max(0.0, t))
    return math.hypot(p.x - (a.x + t * ax), p.y - (a.y + t * ay))


def test_max_chord_endpoints_on_boundary_midpoint_inside():
    for seed in range(8):
        P = corpus_polygon(seed)
        for v in P.reflex_indices:
            for th in (13.7, 61.2, 149.9):
                c = chord_through_vertex(P, v, Angle(th))
                assert _on_boundary(P, c.lo, 10 * TAU_ONEDGE)
                assert _on_boundary(P, c.hi, 10 * TAU_ONEDGE)
                mid = Point((c.lo.x + c.hi.x) / 2, (c.lo.y + c.hi.y) / 2)
                assert ring_contains(P.vertices, mid) == 1
