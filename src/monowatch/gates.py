"""Gate selection and reduction of the polygon along gate chords.

A gate is a cut whose left region is minimal under inclusion among all
cuts at the same angle.  Touring every gate chord is enough to see the
whole polygon, so the solver only keeps the part of the polygon on the
non-left side of each gate.

All cuts at one angle are parallel chords that never cross, so left
regions are compared through their boundary arcs (``boundary_arc``),
by positions along the boundary, without building the regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .geom import (
    TAU_ONEDGE,
    Angle,
    EventAngleError,
    GeometryError,
    Point,
    Polygon,
    Segment,
    point_segment_distance,
    ring_area,
    split_ring,
)
from .cuts import CutKind, ThetaCut

# relative slack for the area bookkeeping check in reduce_polygon
AREA_CHECK_REL = 1e-6


@dataclass(frozen=True)
class Gate:
    """A non-dominated cut, with its vertex and far edge made explicit."""

    cut: ThetaCut

    @property
    def gate_vertex(self) -> Point:
        return self.cut.vertex

    @property
    def gate_edge(self) -> int:
        return self.cut.far_edge

    @property
    def chord(self) -> Segment:
        return self.cut.chord

    def describe(self) -> str:
        return "gate from " + self.cut.describe()


def boundary_arc(P: Polygon, cut: ThetaCut) -> Tuple[float, float]:
    """Boundary part of the cut's left region as (start, end) keys.

    The arc runs counterclockwise from ``chord.b`` to ``chord.a``.  A
    boundary position is keyed ``edge + t``: the vertex end sits at
    ``vertex_index`` and the far end at ``far_edge`` plus the parameter
    of the far point on that edge.
    """
    a = P.vertices[cut.far_edge]
    b = P.vertices[(cut.far_edge + 1) % P.n]
    p = cut.far_point
    dx, dy = b.x - a.x, b.y - a.y
    t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / (dx * dx + dy * dy)
    far = (cut.far_edge + t) % P.n
    v = float(cut.vertex_index)
    return (far, v) if cut.kind is CutKind.FORWARD else (v, far)


def in_arc(key: float, arc: Tuple[float, float], n: int) -> bool:
    """Whether a boundary key lies in the closed arc."""
    return (key - arc[0]) % n <= (arc[1] - arc[0]) % n


def _strictly_within(inner: Tuple[float, float], outer: Tuple[float, float],
                     n: int) -> bool:
    s = outer[0]
    return inner != outer and ((inner[0] - s) % n <= (inner[1] - s) % n
                               <= (outer[1] - s) % n)


def dominates(P: Polygon, c1: ThetaCut, c2: ThetaCut) -> bool:
    """True when the left region of c1 is strictly inside that of c2.

    Cuts at one angle are parallel chords that never cross, so their
    left regions are nested, disjoint or cover P together, and region
    inclusion is arc inclusion; two arcs inside each other are equal.
    Cuts at different angles cannot be compared.
    """
    if c1.theta.degrees != c2.theta.degrees:
        raise GeometryError("cannot compare cuts at different angles")
    return _strictly_within(boundary_arc(P, c1), boundary_arc(P, c2), P.n)


def _refuse_collinear_same_color(cuts: Sequence[ThetaCut]) -> None:
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


def compute_gates(P: Polygon, cuts: Sequence[ThetaCut]) -> List[Gate]:
    """Minimal cuts under left-region inclusion, in cut order.

    Two same-colored cuts from different vertices on one line make the
    minimal set ambiguous; that is a domination event and is refused.
    """
    cuts = list(cuts)
    _refuse_collinear_same_color(cuts)
    arcs = [boundary_arc(P, c) for c in cuts]
    return [Gate(c) for c, a in zip(cuts, arcs)
            if not any(_strictly_within(b, a, P.n) for b in arcs)]


@dataclass
class ReducedPolygon:
    """Polygon with every gate's left region cut away.

    ``essential`` lists, per gate, the boundary edge index of ``polygon``
    that coincides with the gate chord.  ``source`` keeps the original
    polygon so later stages can recover its reflex vertices.
    """

    polygon: Polygon
    essential: Tuple[Tuple[int, Gate], ...]
    theta: Angle
    source: Polygon
    removed_area: float = 0.0


def _removal_side(arc: Tuple[float, float],
                  other_arcs: Sequence[Tuple[float, float]], n: int) -> str:
    # a chord lies on one side of another, so its two keys place it
    for side, keys in (("left", arc), ("right", (arc[1], arc[0]))):
        if not any(all(in_arc(k, keys, n) for k in b) for b in other_arcs):
            return side
    raise GeometryError("gate chords separate each other; reduction is "
                        "not well defined at this angle")


def reduce_polygon(P: Polygon, gates: Sequence[Gate],
                   theta: Optional[Angle] = None) -> ReducedPolygon:
    """Remove every gate's left region from P.

    The removed regions are pairwise disjoint for a consistent gate set;
    an area bookkeeping check guards that assumption.  With no gates the
    polygon is returned unchanged.
    """
    gates = list(gates)
    if theta is None:
        theta = gates[0].cut.theta if gates else Angle(0.0)
    if not gates:
        return ReducedPolygon(P, (), theta, P)

    arcs = [boundary_arc(P, g.cut) for g in gates]
    removed_total = 0.0
    current = tuple(P.vertices)
    for gi, g in enumerate(gates):
        left, right = split_ring(current, g.chord.a, g.chord.b)
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

    essential = []
    for g in gates:
        found = None
        for ei in range(reduced.n):
            e = reduced.edge(ei)
            if ((point_segment_distance(g.chord.a, e) <= TAU_ONEDGE and
                 point_segment_distance(g.chord.b, e) <= TAU_ONEDGE and
                 abs(e.length() - g.chord.length()) <= 10 * TAU_ONEDGE)):
                found = ei
                break
        if found is None:
            raise GeometryError(
                f"gate chord {g.describe()} is not an edge of the reduced "
                "polygon")
        essential.append((found, g))
    essential.sort(key=lambda pair: pair[0])
    return ReducedPolygon(reduced, tuple(essential), theta, P, removed_total)
