"""Selection of the gates and reduction of the polygon along their chords.

A gate is a cut whose left region is minimal under inclusion among all
cuts at the same angle.  Touring every gate chord is enough to see the
whole polygon, so the solver only keeps the part of the polygon on the
non-left side of each gate.

Gates are compared by their boundary arcs and the polygon is reduced by
the boundary walk, both from ``cuts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from .geom import (
    TAU_ONEDGE,
    Angle,
    EventAngleError,
    GeometryError,
    Point,
    Polygon,
    ring_area,
)
from .cuts import (
    CutColor,
    ThetaCut,
    _strictly_within,
    boundary_arc,
    boundary_walk,
    in_arc,
    snap_key,
)

# relative slack for the area bookkeeping check in reduce_polygon
AREA_CHECK_REL = 1e-6


def _refuse_collinear_same_color(cuts: Sequence[ThetaCut]) -> None:
    """Raise on the first pair of same-colored cuts from different
    vertices whose chords lie on one line (a domination event).

    A pair is c1 = cuts[i], c2 = cuts[j] with i < j, and it shares a
    line when both ends of c2 lie within TAU_ONEDGE of the line through
    c1's chord, along c1's own unit direction; the first such pair in
    (i, j) order is raised.  All cuts at one angle are parallel, so only
    cuts of one color whose chords have nearly the same offset along the
    normal of theta are tested: the cuts of each color are sorted by
    that offset and each is paired with those within ``reach`` of it.
    ``reach`` adds to TAU_ONEDGE the most by which the offset of c2's
    end from c1's line along c1's direction can differ from the
    difference of offsets along theta's normal: the tilt of c1's
    direction from theta by rounding (under 8 units in the last place of
    the largest coordinate over the shortest chord's length, plus 2
    units), times the distance of c2's end from c1's anchor, and the
    rounding of both offsets.
    """
    first = None
    for color in (CutColor.RED, CutColor.BLUE):
        group = [i for i, c in enumerate(cuts) if c.color is color]
        if len({cuts[i].vertex_index for i in group}) < 2:
            continue
        chords = [cuts[i].chord for i in group]
        ux, uy = cuts[group[0]].theta.direction()
        ulp = 2.0 ** -52
        big = max(max(abs(q[0]), abs(q[1])) for ch in chords for q in ch)
        shortest = max(min(ch.length() for ch in chords), TAU_ONEDGE)
        tilt = 8.0 * ulp * big / shortest + 2.0 * ulp
        reach = TAU_ONEDGE + tilt * 3.0 * big + 16.0 * ulp * big
        offset = {i: ux * ch.a.y - uy * ch.a.x for i, ch in zip(group, chords)}
        group.sort(key=offset.__getitem__)
        for pos, i in enumerate(group):
            for j in group[pos + 1:]:
                if offset[j] - offset[i] > reach:
                    break
                pair = (i, j) if i < j else (j, i)
                if first is not None and pair >= first:
                    continue
                c1, c2 = cuts[pair[0]], cuts[pair[1]]
                if c1.vertex_index == c2.vertex_index:
                    continue
                dx, dy = c1.chord.direction()
                ax, ay = c1.chord.a
                (px, py), (qx, qy) = c2.chord
                if max(abs(dx * (py - ay) - dy * (px - ax)),
                       abs(dx * (qy - ay) - dy * (qx - ax))) <= TAU_ONEDGE:
                    first = pair
    if first is not None:
        c1, c2 = cuts[first[0]], cuts[first[1]]
        raise EventAngleError(
            f"theta={c1.theta.degrees:.9f} is a domination event: "
            f"cuts from vertices {c1.vertex_index} and "
            f"{c2.vertex_index} share a chord line",
            angle=c1.theta.degrees, kind="Domination",
            witness=(c1.vertex_index, c2.vertex_index))


def compute_gates(P: Polygon, cuts: Sequence[ThetaCut]) -> List[ThetaCut]:
    """Minimal cuts under left-region inclusion, in cut order.

    Two same-colored cuts from different vertices on one line make the
    minimal set ambiguous; that is a domination event and is refused.
    """
    cuts = list(cuts)
    _refuse_collinear_same_color(cuts)
    arcs = [boundary_arc(P, c) for c in cuts]
    return [c for c, a in zip(cuts, arcs)
            if not any(_strictly_within(b, a, P.n) for b in arcs)]


@dataclass
class ReducedPolygon:
    """Polygon with every gate's left region cut away.

    ``essential`` lists, per gate, the boundary edge index of ``polygon``
    that coincides with the gate chord, in ring order.  ``source`` keeps
    the original polygon.  ``origins`` says what each vertex of
    ``polygon`` is: the index of the source vertex it is, or the gate
    whose chord's far end it is.
    """

    polygon: Polygon
    essential: Tuple[Tuple[int, ThetaCut], ...]
    theta: Angle
    source: Polygon
    removed_area: float
    origins: Tuple[Union[int, ThetaCut], ...]


def _removal_side(arc: Tuple[float, float],
                  other_arcs: Sequence[Tuple[float, float]], n: int) -> str:
    # a chord lies on one side of another, so its two keys place it
    for side, keys in (("left", arc), ("right", (arc[1], arc[0]))):
        if not any(all(in_arc(k, keys, n) for k in b) for b in other_arcs):
            return side
    raise GeometryError("gate chords separate each other; reduction is "
                        "not well defined at this angle")


def _chord_end(P: Polygon, q: Point, key: float, gates: Sequence[ThetaCut]):
    """(walk key, point, origin) of a chord end.  Its origin is the
    vertex it equals, else the first gate whose far end it is."""
    key = snap_key(P, q, key)
    j = int(key) % P.n
    return key, q, (j if q == P.vertices[j]
                    else next(g for g in gates if g.far_point == q))


def reduce_polygon(P: Polygon, gates: Sequence[ThetaCut],
                   theta: Angle) -> ReducedPolygon:
    """Remove every gate's left region from P in one boundary walk.

    Each gate removes a stretch of the boundary keyed as in
    ``boundary_arc``: its arc, or the complement when another gate lies
    in the arc.  The walk runs counterclockwise from the far end of the
    last gate's stretch, skips each stretch's inner vertices and emits
    its chord ends, so chords and origins are known by construction.
    The removed regions are disjoint for a consistent gate set, which an
    area bookkeeping check guards.
    """
    if not gates:
        return ReducedPolygon(P, (), theta, P, 0.0, tuple(range(P.n)))
    arcs = [boundary_arc(P, g) for g in gates]
    stretches, removed_total = [], 0.0
    for gi, g in enumerate(gates):
        ends = [_chord_end(P, q, k, gates)  # the arc runs from b to a
                for q, k in zip(g.chord[::-1], arcs[gi])]
        if _removal_side(arcs[gi], arcs[:gi] + arcs[gi + 1:], P.n) == "right":
            ends.reverse()
        removed = [q for q, _ in boundary_walk(P, *ends)]
        removed_total += abs(ring_area(removed))
        stretches.append((*ends, g))
    before = stretches[-1][1]
    walk = sorted(stretches[:-1], key=lambda st: (st[0][0] - before[0]) % P.n)
    pts, origins, essential = [], [], []
    for start, end, g in walk + stretches[-1:]:
        for q, origin in boundary_walk(P, before, start):
            # a point within TAU_ONEDGE of the one before collapses into it
            if not pts or ((pts[-1][0] - q[0]) ** 2 + (pts[-1][1] - q[1]) ** 2
                           > TAU_ONEDGE * TAU_ONEDGE):
                pts.append(q)
                origins.append(origin)
        essential.append((len(pts) - 1, g))
        before = end

    reduced = Polygon.raw(pts)
    if reduced.area <= TAU_ONEDGE:
        raise GeometryError("reduction removed the entire polygon")
    budget = AREA_CHECK_REL * max(1.0, P.area)
    if abs(P.area - reduced.area - removed_total) > budget:
        raise GeometryError(
            "removed gate regions overlap; area bookkeeping failed "
            f"({P.area:.9f} != {reduced.area:.9f} + {removed_total:.9f})")
    return ReducedPolygon(reduced, tuple(essential), theta, P, removed_total,
                          tuple(origins))
