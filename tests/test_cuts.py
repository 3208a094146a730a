import math
import random

import pytest

from monowatch import (
    Angle,
    EventAngleError,
    classify_vertex,
    compute_cuts,
    left_region_contains,
)
from monowatch.cuts import VertexClass
from monowatch.geom import (
    Point,
    chord_through_vertex,
    ring_contains,
    split_ring,
)

from conftest import corpus_polygon

VALIDITY_DEG = math.degrees(math.atan(4.0))  # edge slope shared by fixtures


def test_classify_fixture_vertices(double, square):
    assert classify_vertex(double, 7, Angle(0.0)) is VertexClass.BLUE
    assert classify_vertex(double, 7, Angle(90.0)) is VertexClass.UNCOLORED
    assert classify_vertex(double, 2, Angle(0.0)) is VertexClass.RED
    for v in range(square.n):
        assert classify_vertex(square, v, Angle(0.0)) is VertexClass.CONVEX


def test_classify_edge_parallel_is_boundary(double):
    assert classify_vertex(double, 7, Angle(VALIDITY_DEG)) is \
        VertexClass.BOUNDARY


def test_cuts_double_at_zero(double):
    cuts = compute_cuts(double, Angle(0.0))
    table = {(c.vertex_index, c.color.value, c.kind.value):
             (tuple(c.chord.a), tuple(c.chord.b)) for c in cuts}
    assert table == {
        (2, "Red", "Forward"): ((6.0, 4.0), (8.0, 4.0)),
        (2, "Red", "Backward"): ((2.5, 4.0), (6.0, 4.0)),
        (7, "Blue", "Forward"): ((2.0, 2.0), (0.0, 2.0)),
        (7, "Blue", "Backward"): ((5.5, 2.0), (2.0, 2.0)),
    }
    # directed as stated: forward leaves the vertex, backward enters it
    for c in cuts:
        if c.kind.value == "Forward":
            assert tuple(c.chord.a) == tuple(c.vertex)
        else:
            assert tuple(c.chord.b) == tuple(c.vertex)


def test_cuts_empty_cases(square, double):
    assert compute_cuts(square, Angle(37.0)) == []
    assert compute_cuts(double, Angle(90.0)) == []


def test_cuts_refuse_validity_angle(double):
    with pytest.raises(EventAngleError):
        compute_cuts(double, Angle(VALIDITY_DEG))


def test_cuts_refuse_chord_ending_at_vertex_or_neighbour(toothgap):
    # just below the event of edge (6,0)->(6.5,6) the edge is not yet
    # parallel within TAU_ORIENT, but vertex 2's backward chord ends at
    # the vertex itself (-1e-8) or at its neighbour (-1e-7)
    event = math.degrees(math.atan2(6.0, 0.5))
    for d in (1e-8, 1e-7):
        with pytest.raises(EventAngleError) as ei:
            compute_cuts(toothgap, Angle(event - d))
        assert (ei.value.kind, ei.value.witness) == ("Validity", (2,))


def test_cut_pair_union_is_max_chord():
    for seed in (0, 3, 11):
        P = corpus_polygon(seed)
        for th in (17.3, 101.9):
            try:
                cuts = compute_cuts(P, Angle(th))
            except EventAngleError:
                continue
            by_vertex = {}
            for c in cuts:
                by_vertex.setdefault(c.vertex_index, []).append(c)
            for v, pair in by_vertex.items():
                assert len(pair) == 2
                assert {c.kind.value for c in pair} == {"Forward", "Backward"}
                assert len({c.color for c in pair}) == 1
                chord = chord_through_vertex(P, v, Angle(th))
                ends = {tuple(c.far_point) for c in pair}
                for e in (chord.lo, chord.hi):
                    assert any(math.dist(e, f) <= 1e-7 for f in ends)


def test_cut_count_matches_colored_vertices():
    for seed in range(10):
        P = corpus_polygon(seed)
        try:
            cuts = compute_cuts(P, Angle(64.1))
        except EventAngleError:
            continue
        colored = sum(
            1 for v in range(P.n)
            if classify_vertex(P, v, Angle(64.1)) in
            (VertexClass.RED, VertexClass.BLUE))
        assert len(cuts) == 2 * colored
        assert len(cuts) <= 2 * len(P.reflex_indices)


def test_seam_swaps_color_keeps_kind_and_far_edge(unotch):
    """Crossing 180 -> 0 reverses the sweep direction: the chord at each
    reflex vertex is unchanged as a set, so its kind and far edge hold,
    while left and right trade places and recolor the vertex."""
    before = compute_cuts(unotch, Angle(179.9999))
    after = compute_cuts(unotch, Angle(0.0001))
    key = lambda c: (c.vertex_index, c.kind.value, c.far_edge)
    assert sorted(map(key, before)) == sorted(map(key, after))
    colors_b = {c.vertex_index: c.color.value for c in before}
    colors_a = {c.vertex_index: c.color.value for c in after}
    swap = {"Red": "Blue", "Blue": "Red"}
    assert colors_a == {v: swap[c] for v, c in colors_b.items()}


def _cut(cuts, vertex, kind):
    return next(c for c in cuts
                if c.vertex_index == vertex and c.kind.value == kind)


def test_left_region_examples(double):
    cuts = compute_cuts(double, Angle(0.0))
    bb = _cut(cuts, 7, "Backward")
    assert left_region_contains(double, bb, Point(1.0, 1.0))
    assert not left_region_contains(double, bb, Point(7.0, 5.0))
    mid = Point((bb.chord.a.x + bb.chord.b.x) / 2,
                (bb.chord.a.y + bb.chord.b.y) / 2)
    assert left_region_contains(double, bb, mid)


def test_interior_points_fall_on_exactly_one_side(double):
    cuts = compute_cuts(double, Angle(0.0))
    rng = random.Random(7)
    xlo, ylo, xhi, yhi = double.bbox
    pts = []
    while len(pts) < 60:
        p = Point(rng.uniform(xlo, xhi), rng.uniform(ylo, yhi))
        if ring_contains(double.vertices, p) == 1:
            pts.append(p)
    for c in cuts:
        left, right = split_ring(double.vertices, c.chord.a, c.chord.b)
        for p in pts:
            if _point_chord_dist(p, c.chord) < 1e-6:
                continue
            sl = ring_contains(left, p)
            sr = ring_contains(right, p)
            if sl == 0 or sr == 0:
                continue  # grazing the shared boundary, no side defined
            assert (sl == 1) != (sr == 1)
            assert left_region_contains(double, c, p) == (sl == 1)


def _point_chord_dist(p, chord):
    ax, ay = chord.b.x - chord.a.x, chord.b.y - chord.a.y
    t = ((p.x - chord.a.x) * ax + (p.y - chord.a.y) * ay) / \
        (ax * ax + ay * ay)
    t = min(1.0, max(0.0, t))
    return math.hypot(p.x - (chord.a.x + t * ax), p.y - (chord.a.y + t * ay))
