import math
import random
from typing import List, Optional

import pytest

from monowatch import Angle, EventAngleError
from monowatch.cuts import (
    CutColor,
    CutKind,
    ThetaCut,
    VertexClass,
    _classify_direction,
    _validity_event,
    compute_cuts,
    left_region,
)
from monowatch.geom import (
    CHORD_NUDGE_DEG,
    TAU_ONEDGE,
    ChordHit,
    GeometryError,
    Point,
    Polygon,
    Segment,
    ring_contains,
)
from monowatch.rotor import enumerate_candidate_events

from conftest import (
    _reference_split_ring,
    chord_through_vertex,
    classify_vertex,
    comb,
    corpus_polygon,
    left_region_contains,
    mixed_corpus,
    spiral_corridor,
)

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
        left, right = _reference_split_ring(double.vertices, c.chord.a,
                                            c.chord.b)
        for p in pts:
            if _point_chord_dist(p, c.chord) < 1e-6:
                continue
            sl = ring_contains(left, p)
            sr = ring_contains(right, p)
            if sl == 0 or sr == 0:
                continue  # grazing the shared boundary, no side defined
            assert (sl == 1) != (sr == 1)
            assert left_region_contains(double, c, p) == (sl == 1)


def _assert_left_regions_match(P, cuts):
    for c in cuts:
        # repr tells -0.0 from 0.0 and prints every float exactly
        want = _reference_split_ring(P.vertices, *c.chord)[0]
        assert repr(left_region(P, c)) == repr(want), c.describe()


def test_left_region_matches_ring_split(corpus_solves):
    """Walking each cut's boundary arc builds the left ring the ring
    split built, on every cut of every solvable reference case."""
    compared = 0
    for P, th, res in corpus_solves:
        _assert_left_regions_match(P, res.cuts)
        compared += len(res.cuts)
    assert compared > 10000


def test_left_region_matches_ring_split_near_events(toothgap, double,
                                                    unotch, spiral):
    """Same, 1e-9 and 1e-7 degrees off every candidate event, where
    chord ends come within TAU_ONEDGE of vertices."""
    polys = list(mixed_corpus(200)) + [comb(k) for k in (2, 8, 16)]
    polys += [spiral_corridor(seed) for seed in range(8)]
    polys += [toothgap, double, unotch, spiral]
    compared = 0
    for P in polys:
        for e in enumerate_candidate_events(P):
            for d in (-1e-9, 1e-9, -1e-7, 1e-7):
                try:
                    cuts = compute_cuts(P, Angle(e.angle_deg + d))
                except EventAngleError:
                    continue
                _assert_left_regions_match(P, cuts)
                compared += len(cuts)
    assert compared > 20000


def test_left_region_snaps_far_end_to_vertex(double):
    """At atan(2/3) the chord of vertex 2 is nudged off vertex 0, and its
    backward cut's far end, where the walk ends, lands on edge 0 within
    TAU_ONEDGE of vertex 0.  The far end takes vertex 0's key, so the
    ring ends at the far end and leaves vertex 0 out, as the ring split
    did; keyed on its edge, vertex 0 would be walked and the far end
    collapsed into it."""
    diagnostics = []
    cuts = compute_cuts(double, Angle(math.degrees(math.atan2(2, 3))),
                        diagnostics)
    assert any("vertex 2" in msg for msg in diagnostics)
    c = _cut(cuts, 2, "Backward")
    corner = double.vertices[0]
    assert c.far_point != corner
    assert math.dist(c.far_point, corner) <= TAU_ONEDGE
    ring = left_region(double, c)
    assert ring[-1] == c.far_point and corner not in ring
    _assert_left_regions_match(double, [c])


def _point_chord_dist(p, chord):
    ax, ay = chord.b.x - chord.a.x, chord.b.y - chord.a.y
    t = ((p.x - chord.a.x) * ax + (p.y - chord.a.y) * ay) / \
        (ax * ax + ay * ay)
    t = min(1.0, max(0.0, t))
    return math.hypot(p.x - (chord.a.x + t * ax), p.y - (chord.a.y + t * ay))


# The per-vertex chord loop and the cut loop that called it, kept as the
# reference ``chords_at`` must reproduce bit for bit.

def _reference_chord_through_vertex(P: Polygon, vi: int, theta: Angle,
                         diagnostics: Optional[list] = None) -> ChordHit:
    """Maximal chord of P through vertex vi in direction theta.

    The chord is the connected component, around the vertex, of the line
    clipped to the polygon; when the line enters the interior on one side
    of the vertex only, the vertex itself is the other endpoint.  When
    the line meets a second vertex or runs along an edge the angle is
    perturbed by +1e-7 degrees for this query only; the perturbation is
    appended to ``diagnostics`` when given.
    """
    n = P.n
    v = P.vertices[vi]
    base = theta.degrees
    for attempt in range(6):
        used = base + attempt * CHORD_NUDGE_DEG
        r = math.radians(used)
        ux = math.cos(r)
        uy = math.sin(r)
        degenerate = False
        offs = []
        for j, w in enumerate(P.vertices):
            if j == vi:
                offs.append(0.0)
                continue
            s = ux * (w.y - v.y) - uy * (w.x - v.x)
            # relative test: one CHORD_NUDGE_DEG step swings the line by
            # ~1.7e-9 rad, enough to clear this margin at any distance
            d = math.hypot(w.x - v.x, w.y - v.y)
            if abs(s) <= 1e-9 * d:
                degenerate = True
                break
            offs.append(s)
        if degenerate:
            continue
        crossings = []
        for i in range(n):
            j = (i + 1) % n
            if i == vi or j == vi:
                continue  # incident edges meet the line only at v itself
            sa = offs[i]
            sb = offs[j]
            if (sa > 0.0) == (sb > 0.0):
                continue
            f = sa / (sa - sb)
            a = P.vertices[i]
            b = P.vertices[j]
            px = a.x + f * (b.x - a.x)
            py = a.y + f * (b.y - a.y)
            t = ux * (px - v.x) + uy * (py - v.y)
            crossings.append((t, i, Point(px, py)))
        # a ray only counts when it leaves v into the interior wedge,
        # which runs counterclockwise from the outgoing edge direction
        # to the incoming one; a locally exterior ray ends the chord at
        # v even if it re-enters the polygon further out
        two_pi = 2.0 * math.pi
        a_next = math.atan2(P.vertices[(vi + 1) % n].y - v.y,
                            P.vertices[(vi + 1) % n].x - v.x)
        a_prev = math.atan2(P.vertices[(vi - 1) % n].y - v.y,
                            P.vertices[(vi - 1) % n].x - v.x)
        span = (a_prev - a_next) % two_pi
        ang_u = math.atan2(uy, ux)
        fwd_in = (ang_u - a_next) % two_pi < span
        bwd_in = (ang_u + math.pi - a_next) % two_pi < span
        if not fwd_in and not bwd_in:
            raise GeometryError(
                f"no chord through vertex {vi} at {used:.9f} degrees; "
                "the vertex does not admit an interior line in this direction")
        t_lo = None if bwd_in else (0.0, (vi - 1) % n, v)
        t_hi = None if fwd_in else (0.0, vi, v)
        for t, ei, pt in crossings:
            if bwd_in and t < 0.0 and (t_lo is None or t > t_lo[0]):
                t_lo = (t, ei, pt)
            elif fwd_in and t > 0.0 and (t_hi is None or t < t_hi[0]):
                t_hi = (t, ei, pt)
        if t_lo is None or t_hi is None:
            raise GeometryError(
                f"chord through vertex {vi} at {used:.9f} degrees found no "
                "boundary exit; the polygon is not simple")
        if attempt > 0 and diagnostics is not None:
            diagnostics.append(
                f"chord through vertex {vi}: angle nudged by "
                f"{attempt * CHORD_NUDGE_DEG:g} degrees to avoid a vertex hit")
        return ChordHit(t_lo[2], t_hi[2], t_lo[1], t_hi[1])
    raise GeometryError(
        f"chord through vertex {vi} stays degenerate after nudging; "
        "input is outside the supported general position")


def _reference_compute_cuts(P: Polygon, theta: Angle,
                 diagnostics: Optional[list] = None) -> List[ThetaCut]:
    """All cuts of P at angle theta, ordered by issuing vertex index.

    Raises EventAngleError when any reflex vertex classifies as
    Boundary, or when its chord ends at the vertex or a neighbour: theta
    is then a validity event and the cut structure is not well defined.
    """
    r = theta.radians
    ux = math.cos(r)
    uy = math.sin(r)
    out: List[ThetaCut] = []
    for vi in P.reflex_indices:
        cls = _classify_direction(P, vi, ux, uy)
        if cls is VertexClass.BOUNDARY:
            raise _validity_event(P, theta, vi)
        if cls not in (VertexClass.RED, VertexClass.BLUE):
            continue
        color = CutColor.RED if cls is VertexClass.RED else CutColor.BLUE
        hit = _reference_chord_through_vertex(P, vi, theta, diagnostics)
        # an edge just off parallel (TAU_ORIENT is absolute) can leave a
        # chord end at the vertex itself or at a neighbour, where the
        # left region degenerates: that is the same validity event
        v = P.vertices[vi]
        near = (P.vertices[vi - 1], v, P.vertices[(vi + 1) % P.n])
        if any(math.dist(q, w) <= TAU_ONEDGE
               for q in (hit.lo, hit.hi) for w in near):
            raise _validity_event(P, theta, vi)
        off_lo = (hit.edge_lo - vi) % P.n
        off_hi = (hit.edge_hi - vi) % P.n
        # the forward endpoint is the chord end reached first on a
        # counterclockwise boundary walk from the vertex
        if off_lo < off_hi:
            e_f, ef_edge = hit.lo, hit.edge_lo
            e_b, eb_edge = hit.hi, hit.edge_hi
        else:
            e_f, ef_edge = hit.hi, hit.edge_hi
            e_b, eb_edge = hit.lo, hit.edge_lo
        out.append(ThetaCut(v, vi, Segment(v, e_f), color,
                            CutKind.FORWARD, theta, ef_edge))
        out.append(ThetaCut(v, vi, Segment(e_b, v), color,
                            CutKind.BACKWARD, theta, eb_edge))
    return out


def test_cuts_match_reference_chord_loop(corpus_solves):
    """Chord ends, far edges and nudge diagnostics of every cut equal the
    per-vertex loop's, on every solvable case of the reference corpus."""
    for P, th, res in corpus_solves:
        got_diag, want_diag = [], []
        got = compute_cuts(P, Angle(th), got_diag)
        want = _reference_compute_cuts(P, Angle(th), want_diag)
        # repr tells -0.0 from 0.0 and prints every float exactly
        assert repr(got) == repr(want), th
        assert got_diag == want_diag, th
        assert repr(res.cuts) == repr(tuple(want)), th
    assert len(corpus_solves) >= 2000


def _chord_outcome(fn, P, vi, th):
    diag = []
    try:
        return repr(fn(P, vi, Angle(th), diag)), diag
    except GeometryError as exc:
        return f"{type(exc).__name__}: {exc}", diag


def test_chord_nudges_match_reference(toothgap, double, unotch):
    """At, and 1e-9 degrees off, every candidate event, where lines meet
    second vertices and get nudged, every reflex vertex's chord, error
    and diagnostics equal the per-vertex loop's."""
    nudged = 0
    for P in (toothgap, double, unotch, comb(2), spiral_corridor(0),
              spiral_corridor(1)):
        for e in enumerate_candidate_events(P):
            for d in (0.0, -1e-9, 1e-9):
                th = (e.angle_deg + d) % 180.0
                for vi in P.reflex_indices:
                    got = _chord_outcome(chord_through_vertex, P, vi, th)
                    want = _chord_outcome(_reference_chord_through_vertex,
                                          P, vi, th)
                    assert got == want, (P.n, th, vi)
                    nudged += bool(want[1])
    assert nudged > 0
