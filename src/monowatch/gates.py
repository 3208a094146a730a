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
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .geom import (
    TAU_ONEDGE,
    Angle,
    EventAngleError,
    GeometryError,
    Point,
    Polygon,
    Segment,
    ring_area,
    split_ring,
)
from .cuts import CutColor, CutKind, ThetaCut

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
    polygon.  ``origins`` says what each vertex of ``polygon`` is: the
    index of the source vertex it is, or the gate whose chord's far end
    it is.
    """

    polygon: Polygon
    essential: Tuple[Tuple[int, Gate], ...]
    theta: Angle
    source: Polygon
    removed_area: float = 0.0
    origins: Tuple[Union[int, Gate], ...] = ()


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
        return ReducedPolygon(P, (), theta, P, 0.0, tuple(range(P.n)))

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

    # split_ring copies every ring point and chord end exactly, so each
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
    where: Dict[Point, Union[int, Gate]] = {}
    for g in gates:
        where.setdefault(g.cut.far_point, g)
    where.update((p, i) for i, p in enumerate(P.vertices))
    try:
        origins = tuple(where[p] for p in reduced.vertices)
    except KeyError as exc:
        raise GeometryError(f"reduced vertex {tuple(exc.args[0])} is neither "
                            "a polygon vertex nor a gate chord end") from None
    return ReducedPolygon(reduced, tuple(essential), theta, P, removed_total,
                          origins)
