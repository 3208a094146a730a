import math
import random

import pytest

from typing import Sequence

from monowatch import (
    Angle,
    EventAngleError,
    compute_cuts,
    compute_gates,
    dominates,
    enumerate_candidate_events,
    left_region,
    reduce_polygon,
    solve_theta,
)
from monowatch.cuts import ThetaCut
from monowatch.gates import _refuse_collinear_same_color
from monowatch.geom import TAU_ONEDGE, ring_area, ring_contains

from conftest import comb, corpus_polygon, mixed_corpus, spiral_corridor


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
    got = {(g.cut.vertex_index, g.cut.color.value, g.cut.kind.value,
            g.gate_edge) for g in gates}
    assert got == {(2, "Red", "Backward", 6), (7, "Blue", "Backward", 1)}
    chords = {tuple(sorted((tuple(g.cut.chord.a), tuple(g.cut.chord.b))))
              for g in gates}
    assert chords == {((2.5, 4.0), (6.0, 4.0)), ((2.0, 2.0), (5.5, 2.0))}


def test_gates_unotch(unotch):
    cuts = compute_cuts(unotch, Angle(0.0))
    gates = compute_gates(unotch, cuts)
    assert len(gates) == 2
    assert all(tuple(g.gate_vertex) == (4.0, 2.0) for g in gates)
    assert {g.cut.kind.value for g in gates} == {"Forward", "Backward"}


def test_gates_square(square):
    assert compute_gates(square, compute_cuts(square, Angle(25.0))) == []


def test_gate_wrapper_invariants(double, unotch, toothgap):
    for P, th in ((double, 0.0), (unotch, 0.0), (toothgap, 10.0),
                  (toothgap, 130.0)):
        gates = compute_gates(P, compute_cuts(P, Angle(th)))
        for g in gates:
            assert tuple(g.gate_vertex) == tuple(g.cut.vertex)
            a = P.vertices[g.gate_edge]
            b = P.vertices[(g.gate_edge + 1) % P.n]
            far = g.cut.far_point
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
                    assert not dominates(P, g.cut, h.cut)
        # one vertex can issue two gates, so the bound is on gate vertices
        gate_vertices = {g.cut.vertex_index for g in gates}
        assert len(gate_vertices) <= len(cuts) // 2
        assert len(cuts) // 2 <= len(P.reflex_indices)


def test_nongate_cuts_dominated_by_a_gate(double, unotch, toothgap):
    for P, th in ((double, 0.0), (unotch, 0.0), (toothgap, 10.0)):
        cuts = compute_cuts(P, Angle(th))
        gates = compute_gates(P, cuts)
        gate_keys = {(g.cut.vertex_index, g.cut.kind) for g in gates}
        for c in cuts:
            if (c.vertex_index, c.kind) in gate_keys:
                continue
            assert any(dominates(P, g.cut, c) for g in gates)


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
        ring = left_region(P, region)
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
        assert [g.cut for g in compute_gates(P, cuts)] == want, (P, th)
        assert [g.cut for g in res.gates] == want
        if res.common_point is not None:
            with_common += 1
            for g in res.gates:
                ring = left_region(P, g.cut)
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
