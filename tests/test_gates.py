import math
import random

import pytest

from itertools import permutations
from typing import Dict, Optional, Sequence, Union

from monowatch import Angle, EventAngleError, solve_theta
from monowatch.cuts import (
    ThetaCut,
    boundary_arc,
    compute_cuts,
    left_region,
)
from monowatch.gates import (
    AREA_CHECK_REL,
    ReducedPolygon,
    _refuse_collinear_same_color,
    _removal_side,
    compute_gates,
    reduce_polygon,
)
from monowatch.geom import (
    TAU_ONEDGE,
    GeometryError,
    Point,
    Polygon,
    ring_area,
    ring_contains,
)
from monowatch.rotor import enumerate_candidate_events

from conftest import (
    DOUBLE_PTS,
    UNOTCH_PTS,
    _reference_split_ring,
    comb,
    corpus_polygon,
    dominates,
    make_polygon,
    mixed_corpus,
    spiral_corridor,
)


def _cut(cuts, vertex, kind):
    return next(c for c in cuts
                if c.vertex_index == vertex and c.kind.value == kind)


def test_dominates_double_cases(double):
    cuts = compute_cuts(double, Angle(0.0))
    bf = _cut(cuts, 7, "Forward")
    bb = _cut(cuts, 7, "Backward")
    rf = _cut(cuts, 2, "Forward")
    rb = _cut(cuts, 2, "Backward")
    # strict containment: nothing dominates itself
    for c in (bf, bb, rf, rb):
        assert not dominates(double, c, c)
    # the two backward regions overlap without nesting
    assert not dominates(double, rb, bb)
    assert not dominates(double, bb, rb)
    # the backward region at (2,2) pokes past the forward chord into the
    # top-left pocket, so it is not nested in the forward region
    assert not dominates(double, bb, bf)
    # each forward cut is dominated across colors
    assert dominates(double, rb, bf)
    assert dominates(double, bb, rf)


def test_gates_double(double):
    cuts = compute_cuts(double, Angle(0.0))
    gates = compute_gates(double, cuts)
    got = {(g.vertex_index, g.color.value, g.kind.value,
            g.far_edge) for g in gates}
    assert got == {(2, "Red", "Backward", 6), (7, "Blue", "Backward", 1)}
    chords = {tuple(sorted((tuple(g.chord.a), tuple(g.chord.b))))
              for g in gates}
    assert chords == {((2.5, 4.0), (6.0, 4.0)), ((2.0, 2.0), (5.5, 2.0))}


def test_gates_unotch(unotch):
    cuts = compute_cuts(unotch, Angle(0.0))
    gates = compute_gates(unotch, cuts)
    assert len(gates) == 2
    assert all(tuple(g.vertex) == (4.0, 2.0) for g in gates)
    assert {g.kind.value for g in gates} == {"Forward", "Backward"}


def test_gates_square(square):
    assert compute_gates(square, compute_cuts(square, Angle(25.0))) == []


def test_gate_wrapper_invariants(double, unotch, toothgap):
    for P, th in ((double, 0.0), (unotch, 0.0), (toothgap, 10.0),
                  (toothgap, 130.0)):
        gates = compute_gates(P, compute_cuts(P, Angle(th)))
        for g in gates:
            a = P.vertices[g.far_edge]
            b = P.vertices[(g.far_edge + 1) % P.n]
            far = g.far_point
            assert _seg_dist(far, a, b) <= TAU_ONEDGE


def _seg_dist(p, a, b):
    ax, ay = b.x - a.x, b.y - a.y
    t = ((p.x - a.x) * ax + (p.y - a.y) * ay) / (ax * ax + ay * ay)
    t = min(1.0, max(0.0, t))
    return math.hypot(p.x - (a.x + t * ax), p.y - (a.y + t * ay))


def test_gates_pairwise_nondominating():
    for seed in range(12):
        P = corpus_polygon(seed)
        try:
            cuts = compute_cuts(P, Angle(49.3))
        except EventAngleError:
            continue
        gates = compute_gates(P, cuts)
        for g in gates:
            for h in gates:
                if g is not h:
                    assert not dominates(P, g, h)
        # one vertex can issue two gates, so the bound is on gate vertices
        gate_vertices = {g.vertex_index for g in gates}
        assert len(gate_vertices) <= len(cuts) // 2
        assert len(cuts) // 2 <= len(P.reflex_indices)


def test_nongate_cuts_dominated_by_a_gate(double, unotch, toothgap):
    for P, th in ((double, 0.0), (unotch, 0.0), (toothgap, 10.0)):
        cuts = compute_cuts(P, Angle(th))
        gates = compute_gates(P, cuts)
        gate_keys = {(g.vertex_index, g.kind) for g in gates}
        for c in cuts:
            if (c.vertex_index, c.kind) in gate_keys:
                continue
            assert any(dominates(P, g, c) for g in gates)


def test_reduce_double(double):
    gates = compute_gates(double, compute_cuts(double, Angle(0.0)))
    rp = reduce_polygon(double, gates, Angle(0.0))
    assert rp.polygon.n == 4
    assert {tuple(v) for v in rp.polygon.vertices} == \
        {(2.0, 2.0), (5.5, 2.0), (6.0, 4.0), (2.5, 4.0)}
    assert len(rp.essential) == 2
    for edge_index, gate in rp.essential:
        a = rp.polygon.vertices[edge_index]
        b = rp.polygon.vertices[(edge_index + 1) % rp.polygon.n]
        assert a.y == b.y and a.y in (2.0, 4.0)


def test_reduce_unotch(unotch):
    gates = compute_gates(unotch, compute_cuts(unotch, Angle(0.0)))
    rp = reduce_polygon(unotch, gates, Angle(0.0))
    chords = {tuple(sorted((tuple(rp.polygon.vertices[i]),
                            tuple(rp.polygon.vertices[(i + 1) %
                                                      rp.polygon.n]))))
              for i, _ in rp.essential}
    assert chords == {((0.0, 2.0), (4.0, 2.0)), ((4.0, 2.0), (8.0, 2.0))}
    # both towers above the chords are gone
    assert all(v.y <= 2.0 + 1e-12 for v in rp.polygon.vertices)


def test_reduce_identity_without_gates(square):
    rp = reduce_polygon(square, [], Angle(70.0))
    assert rp.polygon.n == square.n
    assert rp.essential == ()
    assert rp.removed_area == 0.0


def test_reduce_area_bookkeeping(double, unotch, toothgap):
    cases = [(double, 0.0), (unotch, 0.0), (toothgap, 10.0),
             (toothgap, 130.0)]
    for seed in range(8):
        cases.append((corpus_polygon(seed), 23.7))
    for P, th in cases:
        try:
            gates = compute_gates(P, compute_cuts(P, Angle(th)))
        except EventAngleError:
            continue
        rp = reduce_polygon(P, gates, Angle(th))
        total = ring_area(P.vertices)
        kept = ring_area(rp.polygon.vertices)
        assert kept + rp.removed_area == pytest.approx(total, rel=1e-6)


def _ring_dominates(P, c1, c2):
    """Reference: c1's chord (ends and midpoint) lies in c2's left
    region and c2's chord does not lie in c1's, probed on split rings."""
    def chord_inside(probe, region):
        ring = _reference_split_ring(P.vertices, *region.chord)[0]
        a, b = probe.chord
        return all(ring_contains(ring, q) >= 0
                   for q in (a, b, probe.chord.midpoint()))

    if c1.vertex_index == c2.vertex_index and c1.kind == c2.kind:
        return False
    return chord_inside(c1, c2) and not chord_inside(c2, c1)


def test_gates_match_ring_reference():
    cases = []
    for i, P in enumerate(mixed_corpus(200)):
        rng = random.Random(i)
        cases.extend((P, rng.uniform(0.0, 180.0)) for _ in range(10))
    for seed in range(4):
        P = spiral_corridor(seed)
        rng = random.Random(seed)
        cases.extend((P, rng.uniform(0.0, 180.0)) for _ in range(30))
    compared = with_common = 0
    for P, th in cases:
        try:
            res = solve_theta(P, Angle(th))
        except EventAngleError:
            continue
        cuts = res.cuts
        want = [c for c in cuts
                if not any(_ring_dominates(P, o, c) for o in cuts if o is not c)]
        assert compute_gates(P, cuts) == want, (P, th)
        assert list(res.gates) == want
        if res.common_point is not None:
            with_common += 1
            for g in res.gates:
                ring = left_region(P, g)
                assert ring_contains(ring, res.common_point) >= 0, (P, th)
        compared += 1
    assert compared >= 2000 and with_common > 0


def _reference_refuse_collinear_same_color(cuts: Sequence[ThetaCut]) -> None:
    """Raise on the first pair of same-colored cuts from different
    vertices whose chords lie on one line (a domination event)."""
    for i, c1 in enumerate(cuts):
        d = None
        for c2 in cuts[i + 1:]:
            if c1.color is not c2.color or c1.vertex_index == c2.vertex_index:
                continue
            if d is None:
                # c1's unit direction and anchor, once for all its pairs
                d = c1.chord.direction()
                dx, dy = d
                ax, ay = c1.chord.a
            (px, py), (qx, qy) = c2.chord
            if (abs(dx * (py - ay) - dy * (px - ax)) > TAU_ONEDGE
                    or abs(dx * (qy - ay) - dy * (qx - ax)) > TAU_ONEDGE):
                continue
            raise EventAngleError(
                f"theta={c1.theta.degrees:.9f} is a domination event: "
                f"cuts from vertices {c1.vertex_index} and "
                f"{c2.vertex_index} share a chord line",
                angle=c1.theta.degrees, kind="Domination",
                witness=(c1.vertex_index, c2.vertex_index))


def _refusal(fn, cuts):
    try:
        fn(cuts)
    except EventAngleError as exc:
        return (str(exc), exc.angle, exc.kind, exc.witness)
    return None


def test_collinear_check_matches_pairwise_reference(toothgap):
    """At, and 1e-9 and 1e-7 degrees off, every candidate event, the
    grouped check refuses the same first pair as the all-pairs check."""
    polys = list(mixed_corpus(200)) + [comb(k) for k in (2, 8, 16)]
    polys += [spiral_corridor(seed) for seed in range(8)] + [toothgap]
    compared = refused = 0
    for P in polys:
        for e in enumerate_candidate_events(P):
            for d in (0.0, -1e-9, 1e-9, -1e-7, 1e-7):
                try:
                    cuts = compute_cuts(P, Angle(e.angle_deg + d))
                except EventAngleError:
                    continue
                want = _refusal(_reference_refuse_collinear_same_color, cuts)
                assert _refusal(_refuse_collinear_same_color, cuts) == want
                compared += 1
                refused += want is not None
    assert compared > 10000 and refused > 0


def _reference_reduce_polygon(P: Polygon, gates: Sequence[ThetaCut],
                              theta: Optional[Angle] = None) -> ReducedPolygon:
    """Remove every gate's left region from P.

    The removed regions are pairwise disjoint for a consistent gate set;
    an area bookkeeping check guards that assumption.  With no gates the
    polygon is returned unchanged.
    """
    gates = list(gates)
    if theta is None:
        theta = gates[0].theta if gates else Angle(0.0)
    if not gates:
        return ReducedPolygon(P, (), theta, P, 0.0, tuple(range(P.n)))

    arcs = [boundary_arc(P, g) for g in gates]
    removed_total = 0.0
    current = tuple(P.vertices)
    for gi, g in enumerate(gates):
        left, right = _reference_split_ring(current, g.chord.a, g.chord.b)
        side = _removal_side(arcs[gi], arcs[:gi] + arcs[gi + 1:], P.n)
        removal, kept = (left, right) if side == "left" else (right, left)
        removed_total += abs(ring_area(removal))
        current = kept

    reduced = Polygon.raw(current)
    if reduced.area <= TAU_ONEDGE:
        raise GeometryError("reduction removed the entire polygon")
    budget = AREA_CHECK_REL * max(1.0, P.area)
    if abs(P.area - reduced.area - removed_total) > budget:
        raise GeometryError(
            "removed gate regions overlap; area bookkeeping failed "
            f"({P.area:.9f} != {reduced.area:.9f} + {removed_total:.9f})")

    # the ring split copies every ring point and chord end exactly, so each
    # reduced vertex is found by value; a chord end it merged into a
    # vertex within TAU_ONEDGE is that vertex
    index = {p: i for i, p in enumerate(reduced.vertices)}
    m = reduced.n
    essential = []
    for g in gates:
        i, j = (index[q] if q in index else reduced.find_vertex(q)
                for q in g.chord)
        if i is not None and j == (i + 1) % m:
            essential.append((i, g))
        elif j is not None and i == (j + 1) % m:
            essential.append((j, g))
        else:
            raise GeometryError(
                f"gate chord {g.describe()} is not an edge of the reduced "
                "polygon")
    essential.sort(key=lambda pair: pair[0])
    where: Dict[Point, Union[int, ThetaCut]] = {}
    for g in gates:
        where.setdefault(g.far_point, g)
    where.update((p, i) for i, p in enumerate(P.vertices))
    try:
        origins = tuple(where[p] for p in reduced.vertices)
    except KeyError as exc:
        raise GeometryError(f"reduced vertex {tuple(exc.args[0])} is neither "
                            "a polygon vertex nor a gate chord end") from None
    return ReducedPolygon(reduced, tuple(essential), theta, P, removed_total,
                          origins)


def _reduction(fn, P, gates, theta):
    try:
        rp = fn(P, gates, theta)
    except GeometryError as exc:
        return ("refused", str(exc))
    return (repr(rp.polygon.vertices), rp.essential, rp.origins,
            rp.removed_area)


def test_reduce_matches_split_reference_on_corpus(corpus_solves):
    """The boundary walk builds the same reduced polygon, essential
    edges, origins and removed area as one ring split per gate."""
    compared = 0
    for P, th, res in corpus_solves:
        if not res.rivals:
            continue
        assert (_reduction(reduce_polygon, P, res.gates, res.theta)
                == _reduction(_reference_reduce_polygon, P, res.gates,
                              res.theta)), (P, th)
        compared += 1
    assert compared >= 900


def test_reduce_matches_split_reference_near_events(toothgap):
    """Same, on solves 1e-9 and 1e-7 degrees off every candidate event,
    where chord ends come within TAU_ONEDGE of vertices."""
    polys = list(mixed_corpus(40)) + [comb(k) for k in (2, 8, 16)]
    polys += [spiral_corridor(seed) for seed in range(8)] + [toothgap]
    compared = 0
    for P in polys:
        for e in enumerate_candidate_events(P):
            for d in (-1e-9, 1e-9, -1e-7, 1e-7):
                try:
                    res = solve_theta(P, Angle(e.angle_deg + d))
                except GeometryError:
                    continue
                if not res.rivals:
                    continue
                assert (_reduction(reduce_polygon, P, res.gates, res.theta)
                        == _reduction(_reference_reduce_polygon, P,
                                      res.gates, res.theta)), (P, e, d)
                compared += 1
    assert compared >= 1700


def test_reduce_matches_split_reference_on_hand_picked_cuts():
    """Every ordered list of one to three cuts of two small polygons,
    taken as gates: both versions agree, refusals included, and some
    lists remove a gate's complement (the "right" side), as facing cuts
    whose left regions cover P together do."""
    compared = right = 0
    for pts in (DOUBLE_PTS, UNOTCH_PTS):
        P = make_polygon(pts)
        for th in (0.0, 10.0, 45.0, 130.0):
            cuts = compute_cuts(P, Angle(th))
            for r in (1, 2, 3):
                for picked in permutations(cuts, r):
                    gates = list(picked)
                    got = _reduction(reduce_polygon, P, gates, Angle(th))
                    assert got == _reduction(_reference_reduce_polygon, P,
                                             gates, Angle(th)), (pts, th)
                    compared += 1
                    arcs = [boundary_arc(P, c) for c in picked]
                    if r == 2 and got[0] != "refused" and "right" in (
                            _removal_side(arcs[0], arcs[1:], P.n),
                            _removal_side(arcs[1], arcs[:1], P.n)):
                        right += 1
    assert compared > 100 and right > 0
