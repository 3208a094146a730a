"""Reflex vertex coloring and cut construction for a fixed direction.

For a direction theta, each reflex vertex whose incident edges both lie
strictly on one side of the line through it issues two directed cuts
along the maximal chord in that direction: a forward cut leaving the
vertex and a backward cut arriving at it.  Everything downstream (gates,
reduction, the rotating sweep) consumes these cuts.

Cuts at one angle are parallel chords that never cross, so a cut's left
region is known by its boundary arc (``boundary_arc``), the
counterclockwise stretch of boundary between the chord's ends, keyed by
boundary position.  Regions are compared by their arcs, and the one
boundary walk (``boundary_walk``) turns an arc into the region's ring
(``left_region``) or the polygon into its reduction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .geom import (
    TAU_ONEDGE,
    TAU_ORIENT,
    Angle,
    EventAngleError,
    GeometryError,
    Point,
    Polygon,
    Segment,
    _dist2,
    chords_at,
    settle_chord,
)


class CutColor(enum.Enum):
    RED = "Red"
    BLUE = "Blue"


class CutKind(enum.Enum):
    FORWARD = "Forward"
    BACKWARD = "Backward"


class VertexClass(enum.Enum):
    """Classification of a polygon vertex against a directed line."""

    CONVEX = "Convex"
    RED = "Red"
    BLUE = "Blue"
    UNCOLORED = "Uncolored"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class ThetaCut:
    """One directed cut issued by a colored reflex vertex.

    ``chord`` runs from the issuing vertex to the far endpoint for a
    forward cut and from the far endpoint to the vertex for a backward
    cut, so the segment direction always matches the cut direction.
    ``far_edge`` is the index of the polygon edge containing the far
    endpoint.  ``near`` lists, in index order with their points, the
    reflex vertices within 2 * TAG_TOL of the chord's line, the issuing
    vertex among them: every reflex vertex that can lie within TAG_TOL
    of a point of the chord.
    """

    vertex: Point
    vertex_index: int
    chord: Segment
    color: CutColor
    kind: CutKind
    theta: Angle
    far_edge: int
    near: Tuple[Tuple[int, Point], ...] = field(default=(), repr=False,
                                                 compare=False)

    @property
    def far_point(self) -> Point:
        return self.chord.b if self.kind is CutKind.FORWARD else self.chord.a

    def direction(self) -> Point:
        """Unit direction of the cut; Blue cuts run against theta."""
        u = self.theta.direction()
        return u if self.color is CutColor.RED else Point(-u.x, -u.y)

    def describe(self) -> str:
        return (f"{self.color.value} {self.kind.value} cut at vertex "
                f"{self.vertex_index} {tuple(self.vertex)}")


def _classify_direction(P: Polygon, vi: int, ux: float, uy: float) -> VertexClass:
    if not P.is_reflex(vi):
        return VertexClass.CONVEX
    return _reflex_class(P, vi, ux, uy)


def _reflex_class(P: Polygon, vi: int, ux: float, uy: float) -> VertexClass:
    """Class of reflex vertex vi against the line of direction (ux, uy)."""
    v = P.vertices[vi]
    prev = P.vertices[(vi - 1) % P.n]
    nxt = P.vertices[(vi + 1) % P.n]
    s_prev = ux * (prev.y - v.y) - uy * (prev.x - v.x)
    s_next = ux * (nxt.y - v.y) - uy * (nxt.x - v.x)
    return color_of_sides(s_prev, s_next)


def color_of_sides(s_prev: float, s_next: float) -> VertexClass:
    """Class of a reflex vertex from the sides of its two neighbours.

    Each side is the cross product of the line's direction with the
    offset from the vertex to that neighbour.
    """
    if abs(s_prev) <= TAU_ORIENT or abs(s_next) <= TAU_ORIENT:
        return VertexClass.BOUNDARY
    if s_prev < 0.0 and s_next < 0.0:
        return VertexClass.RED
    if s_prev > 0.0 and s_next > 0.0:
        return VertexClass.BLUE
    return VertexClass.UNCOLORED


def _validity_event(P: Polygon, theta: Angle, vi: int) -> EventAngleError:
    return EventAngleError(
        f"theta={theta.degrees:.9f} is a validity event: an edge at "
        f"reflex vertex {vi} {tuple(P.vertices[vi])} is parallel to it",
        angle=theta.degrees, kind="Validity", witness=(vi,))


def compute_cuts(P: Polygon, theta: Angle,
                 diagnostics: Optional[list] = None) -> List[ThetaCut]:
    """All cuts of P at angle theta, ordered by issuing vertex index.

    The chords of all colored reflex vertices are found together by
    ``chords_at``; a chord whose line meets a second vertex is nudged on
    its own by ``settle_chord``.  The same sweep gives each
    cut's ``near``, so tour points on the chord are later tagged from it
    and their identity instead of a search of the polygon.  Raises
    EventAngleError when any reflex vertex classifies as Boundary, or
    when its chord ends at the vertex or a neighbour: theta is then a
    validity event and the cut structure is not well defined.  Errors
    are raised for the first vertex in index order that has one.
    """
    r = theta.radians
    ux = math.cos(r)
    uy = math.sin(r)
    colored: List[Tuple[int, CutColor]] = []
    boundary = None
    for vi in P.reflex_indices:
        cls = _reflex_class(P, vi, ux, uy)
        if cls is VertexClass.BOUNDARY:
            boundary = vi
            break
        if cls is VertexClass.RED:
            colored.append((vi, CutColor.RED))
        elif cls is VertexClass.BLUE:
            colored.append((vi, CutColor.BLUE))
    base = theta.degrees
    hits, near_reflex = (chords_at(P, [vi for vi, _ in colored], base)
                         if colored else ([], []))
    out: List[ThetaCut] = []
    for (vi, color), hit, close in zip(colored, hits, near_reflex):
        hit = settle_chord(P, vi, base, hit, diagnostics)
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
                            CutKind.FORWARD, theta, ef_edge, close))
        out.append(ThetaCut(v, vi, Segment(e_b, v), color,
                            CutKind.BACKWARD, theta, eb_edge, close))
    if boundary is not None:
        raise _validity_event(P, theta, boundary)
    return out


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


def snap_key(P: Polygon, q: Point, key: float) -> float:
    """Walk key of a chord end q with boundary key ``key``: within
    TAU_ONEDGE of a vertex of its edge it takes that vertex's key, so
    the walk neither emits the vertex nor keeps a sliver edge to it."""
    for j in (int(key) % P.n, (int(key) + 1) % P.n):
        dx, dy = q[0] - P.vertices[j][0], q[1] - P.vertices[j][1]
        if dx * dx + dy * dy <= TAU_ONEDGE * TAU_ONEDGE:
            return float(j)
    return key


def boundary_walk(P: Polygon, a: tuple, b: tuple) -> list:
    """(point, origin) from chord end a to chord end b, each given as
    (walk key, point, origin), with the polygon vertices strictly
    between them on the counterclockwise boundary and their indices."""
    stop = b[0] if b[0] >= a[0] else b[0] + P.n
    inner = (i % P.n for i in range(int(a[0]) + 1, math.ceil(stop)))
    return [a[1:], *((P.vertices[i], i) for i in inner), b[1:]]


def left_region(P: Polygon, cut: ThetaCut) -> Tuple[Point, ...]:
    """Closed region of P locally left of the directed cut, as a CCW ring.

    The ring walks the cut's boundary arc from the chord's head to its
    tail and is closed by the chord itself.  A point within TAU_ONEDGE
    of the one before it, or of the first, collapses into it.
    """
    ends = [(snap_key(P, q, k), q, None)  # the arc runs from b to a
            for q, k in zip(cut.chord[::-1], boundary_arc(P, cut))]
    tol2 = TAU_ONEDGE * TAU_ONEDGE
    ring: List[Point] = []
    for q, _ in boundary_walk(P, *ends):
        if not ring or _dist2(ring[-1], q) > tol2:
            ring.append(q)
    while len(ring) > 1 and _dist2(ring[0], ring[-1]) <= tol2:
        ring.pop()
    if len(ring) < 3:
        raise GeometryError(f"left region of {cut.describe()} is degenerate")
    return tuple(ring)
