"""Frozen tour structures, maintained as a kinetic data structure.

A full solve at one angle fixes the tour's combinatorics: which tour
vertices sit at polygon vertices, which touch a gate chord's far end,
and which reflect off a gate chord in between.  ``freeze_structure``
keeps that structure, and those of every other candidate tour the solve
compared, and ``evaluate_close_tour`` gives the tour's length at a
nearby angle in closed form.  Every evaluation checks certificates whose
failure marks an event between the two angles, following Basch, Guibas
& Hershberger, "Data structures for mobile data" (J. Algorithms 1999);
the failure names the event type, so the sweep's event types live here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .cuts import ThetaCut, VertexClass, _classify_direction, color_of_sides
from .gates import Gate
from .geom import (
    TAU_ORIENT,
    GeometryError,
    Point,
    Polygon,
    Segment,
    point_segment_distance,
    segments_properly_cross,
)
from .sleeve import TAG_TOL, Tour, _dist2
from .solver import SolveResult, beats


class EventType(enum.Enum):
    VALIDITY = "Validity"
    DOMINATION = "Domination"
    JUMPING = "Jumping"
    PASSING = "Passing"
    BENDING = "Bending"
    CUDDLE = "Cuddle"


class StructureInfeasibleError(GeometryError):
    """A frozen tour structure stops being realizable at the asked angle.

    Signals that a structure event happens between the freeze angle and
    the requested one.  A failed certificate names the event type its
    failure marks and the vertex it watches; other refusals name
    neither.
    """

    def __init__(self, message: str, event_type: Optional[EventType] = None,
                 witness: Tuple[int, ...] = ()):
        super().__init__(message)
        self.event_type = event_type
        self.witness = witness


def _touched_end(p: Point, cut: ThetaCut) -> Optional[str]:
    """The chord end a moving tour vertex sits on: "far", "vertex" or None.

    The far end is tested first, so a vertex within TAG_TOL of both
    counts as a far touch.
    """
    if _dist2(p, cut.far_point) <= TAG_TOL * TAG_TOL:
        return "far"
    if _dist2(p, cut.vertex) <= TAG_TOL * TAG_TOL:
        return "vertex"
    return None


@dataclass(frozen=True)
class FrozenAnchor:
    """One tour vertex of a frozen structure, or one gate of a point tour.

    ``index`` is the polygon vertex the anchor answers for: the stable
    vertex itself, or the reflex vertex issuing the anchor's gate.
    ``wedge`` is the bisector of the exterior wedge at a stable reflex
    vertex, as the sum of its two edges' unit vectors.  ``side`` is the
    side of a point tour's common point on the line of a gate chord (0
    leaves it unwatched).
    """

    kind: str  # "stable" | "touch_far" | "interior" | "gate"
    point: Point
    gate_vertex: Optional[Point] = None
    gate_edge: Optional[Segment] = None
    ray_sign: float = 0.0
    index: Optional[int] = None
    wedge: Optional[Tuple[float, float]] = None
    side: float = 0.0


@dataclass
class FrozenStructure:
    """Tour combinatorics pinned at one angle, re-evaluable nearby.

    Stable anchors stay put; a far-endpoint touch follows the gate
    chord's intersection with its frozen polygon edge; interior moving
    anchors re-solve as perfect reflections on the rotated chord lines.
    ``colors`` holds every reflex vertex with the offsets to its two
    neighbours and its color at the freeze angle, and ``walls`` every
    polygon edge with a reflex end, as (index, x, y) for each end, the
    index None unless that end is reflex.

    Every candidate tour of the freezing solve is kept: ``rivals`` holds
    one frozen tour per distinct tour, up to rotation, and ``order``
    places each candidate, in the solve's order, as (rival, offset) with
    its cycle starting ``offset`` vertices into the rival's.  Rival 0 is
    the winner, ``anchors``, and ``watched`` holds per rival the
    (anchor, certificate) pairs to check.  A point tour keeps one
    "gate" anchor per gate and, in ``common``, the gate its point lies
    on with the point's fraction of that chord.
    """

    polygon: Polygon
    theta_deg: float
    base_length: float
    kind: str  # "point" or "tour"
    anchors: Tuple[FrozenAnchor, ...] = ()
    colors: Tuple[Tuple[int, float, float, float, float, VertexClass],
                  ...] = ()
    walls: Tuple[tuple, ...] = ()
    common: Optional[Tuple[int, float]] = None
    rivals: Tuple[Tuple[FrozenAnchor, ...], ...] = ()
    order: Tuple[Tuple[int, int], ...] = ()
    watched: Tuple[FrozenSet[Tuple[int, str]], ...] = ()


def _reflex_colors(P: Polygon, u: Point):
    """Each reflex vertex, the offsets to its neighbours and its color."""
    out = []
    for vi in P.reflex_indices:
        v = P.vertices[vi]
        a = P.vertices[vi - 1]
        b = P.vertices[(vi + 1) % P.n]
        out.append((vi, a.x - v.x, a.y - v.y, b.x - v.x, b.y - v.y,
                    _classify_direction(P, vi, u.x, u.y)))
    return tuple(out)


def _gate_anchor(kind: str, p: Point, gate: Gate, P: Polygon, u: Point,
                 index: int) -> FrozenAnchor:
    v = gate.cut.vertex
    far = gate.cut.far_point
    sign = 1.0 if ((far.x - v.x) * u.x + (far.y - v.y) * u.y) > 0 else -1.0
    return FrozenAnchor(kind, p, v, P.edge(gate.cut.far_edge), sign, index)


def _wedge(P: Polygon, wi: int) -> Tuple[float, float]:
    w = P.vertices[wi]
    a = P.vertices[wi - 1]
    b = P.vertices[(wi + 1) % P.n]
    da = math.dist(a, w)
    db = math.dist(b, w)
    return ((a.x - w.x) / da + (b.x - w.x) / db,
            (a.y - w.y) / da + (b.y - w.y) / db)


def _tour_anchors(P: Polygon, tour: Tour, gates: Sequence[Gate],
                  u: Point) -> Tuple[FrozenAnchor, ...]:
    """One anchor per tour vertex, in cycle order.

    A stable vertex that issues exactly one gate carries that gate's
    chord, so that its release into the chord can be watched.
    """
    reflex = P.reflex_indices
    anchors: List[FrozenAnchor] = []
    for p, t in zip(tour.cycle, tour.tags):
        if t.kind == "moving":
            g = t.gate
            if g is None:
                raise GeometryError("moving tour vertex without a gate")
            kind = ("touch_far" if _touched_end(p, g.cut) == "far"
                    else "interior")
            anchors.append(_gate_anchor(kind, p, g, P, u,
                                        g.cut.vertex_index))
            continue
        vi = t.vertex_index
        own = [g for g in gates if g.cut.vertex_index == vi]
        a = (_gate_anchor("stable", p, own[0], P, u, vi) if len(own) == 1
             else FrozenAnchor("stable", p, index=vi))
        anchors.append(replace(a, wedge=_wedge(P, vi)) if vi in reflex
                       else a)
    return tuple(anchors)


def _rotation(shape: tuple, other: tuple) -> Optional[int]:
    """The offset r with other[k] == shape[(k + r) % m], if any."""
    m = len(shape)
    if len(other) != m:
        return None
    for r in range(m):
        if all(other[k] == shape[(k + r) % m] for k in range(m)):
            return r
    return None


def freeze_structure(P: Polygon, res: SolveResult) -> FrozenStructure:
    """Freeze the solve's tour and every candidate tour it tried.

    A candidate tour's first vertex is its start, where the solve pinned
    it, so a certificate there is not watched for that candidate.  The
    candidates that are one tour from different starts share one frozen
    rival, which watches every certificate that holds at the freeze
    angle and is free to fail for at least one of them.
    """
    tour = res.tour
    u = res.theta.direction()
    colors = _reflex_colors(P, u)
    reflex = set(P.reflex_indices)
    walls = []
    for i in range(P.n):
        j = (i + 1) % P.n
        if i in reflex or j in reflex:
            a, b = P.vertices[i], P.vertices[j]
            walls.append((i if i in reflex else None, a.x, a.y,
                          j if j in reflex else None, b.x, b.y))
    walls = tuple(walls)
    if len(tour.cycle) == 1:
        return _freeze_point(P, res, colors, walls)
    tours = list(res.rivals) or [tour]
    first = next(i for i, t in enumerate(tours) if t is tour)
    rivals: List[Tuple[FrozenAnchor, ...]] = []
    shapes: List[tuple] = []
    starts: List[set] = []
    order: List[Tuple[int, int]] = [(0, 0)] * len(tours)
    for i in [first] + [j for j in range(len(tours)) if j != first]:
        anchors = _tour_anchors(P, tours[i], res.gates, u)
        shape = tuple((a.kind, a.index, a.ray_sign) for a in anchors)
        for ri, known in enumerate(shapes):
            r = _rotation(known, shape)
            if r is not None:
                order[i] = (ri, r)
                starts[ri].add(r)
                break
        else:
            order[i] = (len(rivals), 0)
            rivals.append(anchors)
            shapes.append(shape)
            starts.append({0})
    watched = []
    for anchors, pinned_at in zip(rivals, starts):
        held: FrozenSet[Tuple[int, str]] = frozenset()
        if any(a.kind != "interior" for a in anchors):
            _, _, _, checks = _tour_state(anchors, u.x, u.y, None)
            broken = {(k, name) for k, name, _, violated, _ in checks
                      if violated}
            held = frozenset((k, name) for k, name, _, _, _ in checks
                             if pinned_at != {k}) - broken
        watched.append(held)
    return FrozenStructure(P, res.theta.degrees, tour.length, "tour",
                           rivals[0], colors, walls, None, tuple(rivals),
                           tuple(order), tuple(watched))


def _freeze_point(P: Polygon, res: SolveResult, colors, walls):
    """A point tour: one anchor per gate, with the side of the point on
    each gate chord's line, and the gate the point lies on."""
    tour = res.tour
    u = res.theta.direction()
    p = tour.cycle[0]
    gates = res.gates
    owner = next((k for k, g in enumerate(gates)
                  if point_segment_distance(p, g.chord) <= TAG_TOL), None)
    anchors = []
    for g in gates:
        v = g.cut.vertex
        side = u.x * (p.y - v.y) - u.y * (p.x - v.x)
        a = _gate_anchor("gate", g.cut.far_point, g, P, u, g.cut.vertex_index)
        anchors.append(replace(a, side=math.copysign(1.0, side)
                               if abs(side) > TAG_TOL else 0.0))
    common = None
    if owner is not None:
        g = gates[owner]
        common = (owner, math.dist(p, g.cut.vertex)
                  / math.dist(g.cut.far_point, g.cut.vertex))
    return FrozenStructure(P, res.theta.degrees, tour.length, "point",
                           tuple(anchors), colors, walls, common)


def _far_endpoint(anchor: FrozenAnchor, ux: float, uy: float) -> Point:
    """Where the frozen gate chord meets its frozen polygon edge."""
    v = anchor.gate_vertex
    e = anchor.gate_edge
    dx = ux * anchor.ray_sign
    dy = uy * anchor.ray_sign
    ex = e.b.x - e.a.x
    ey = e.b.y - e.a.y
    denom = dx * ey - dy * ex
    if abs(denom) <= TAU_ORIENT:
        raise StructureInfeasibleError("gate chord runs parallel to its "
                                       "frozen edge")
    wx = e.a.x - v.x
    wy = e.a.y - v.y
    t = (wx * ey - wy * ex) / denom
    s = (wx * dy - wy * dx) / denom
    if t <= TAU_ORIENT:
        raise StructureInfeasibleError("gate chord leaves its frozen edge "
                                       "behind the vertex")
    if s < -1e-9 or s > 1.0 + 1e-9:
        raise StructureInfeasibleError("gate far endpoint slides off its "
                                       "frozen edge")
    return Point(v.x + t * dx, v.y + t * dy)


def _unfold(a0: float, s0: float, lines: Sequence[float], a1: float,
            s1: float) -> Tuple[float, List[float]]:
    """Geodesic from (a0, s0) to (a1, s1) bouncing off lines s = c in order.

    Coordinates run along u (a) and normal to it (s).  Every chord line
    is parallel to u, so a reflection maps s to 2c - s and keeps a: the
    unfolded mirrors and the image of the end are one-dimensional, and
    a foot keeps its along coordinate when folded back.  Returns the
    length and each foot's along coordinate.
    """
    img: List[float] = []
    for c in lines:
        for d in img:
            c = 2.0 * d - c
        img.append(c)
    s = s1
    for d in img:
        s = 2.0 * d - s
    da = a1 - a0
    ds = s - s0
    feet: List[float] = []
    if img and abs(ds) <= TAU_ORIENT * 1e-3:
        raise StructureInfeasibleError("unfolded run is parallel to a chord "
                                       "line")
    prev = 0.0
    for d in img:
        t = (d - s0) / ds
        if t < prev - 1e-9 or t > 1.0 + 1e-9:
            raise StructureInfeasibleError("reflection feet leave order on "
                                           "the unfolded segment")
        prev = max(prev, t)
        feet.append(a0 + t * da)
    return math.hypot(da, ds), feet


def _certificate(name: str, vi: Optional[int], what: str,
                 etype: Optional[EventType]) -> StructureInfeasibleError:
    return StructureInfeasibleError(f"{name} certificate of vertex {vi} "
                                    f"fails: {what}", etype,
                                    () if vi is None else (vi,))


def evaluate_close_tour(S: FrozenStructure, eps_deg: float) -> float:
    """Tour length of the frozen structure at theta + eps_deg, certified.

    Raises StructureInfeasibleError when a certificate fails at the
    perturbed angle, which means an event sits in between.  The error
    names the certificate, the vertex it watches and the event type its
    failure marks:

    - colour: a reflex vertex changes color (Validity);
    - inside: an interior moving vertex comes within TAG_TOL of its
      chord's far end (Cuddle) or reflex vertex (Bending);
    - press: a touch, or a stable vertex on its own gate chord, would
      slide more than TAG_TOL into the chord if released (Cuddle for a
      touch, Bending for a stable vertex);
    - turn: the tour stops wrapping around a stable reflex vertex
      (Bending);
    - edge: a tour edge properly crosses an edge at a reflex vertex,
      which then catches the tour (Bending);
    - rival: another candidate tour of the freezing solve changes its
      own structure, or would now be chosen under the solve's rule
      ``beats``;
    - side: a point tour's common point crosses the line of a gate
      chord.

    The first five read the tags ``structure_signature`` reads, with the
    tagging tolerance, so each fails where the signature of a full solve
    changes.  The last two name no event type: the solves on either
    side tell.
    """
    phi = S.theta_deg + eps_deg
    r = math.radians(phi)
    ux = math.cos(r)
    uy = math.sin(r)
    for vi, ax, ay, bx, by, color in S.colors:
        if color_of_sides(ux * ay - uy * ax, ux * by - uy * bx) is not color:
            raise _certificate("colour", vi, f"it changes color between "
                               f"{S.theta_deg:.6f} and {phi:.6f} degrees",
                               EventType.VALIDITY)
    if S.kind == "point":
        _check_point(S, ux, uy)
        return 0.0
    if all(a.kind == "interior" for a in S.anchors):
        return _all_interior_length(S, Point(ux, uy))

    states = []
    watched = S.watched or (frozenset(),)
    for i, anchors in enumerate(S.rivals or (S.anchors,)):
        al, no, length, failed = _tour_state(anchors, ux, uy, watched[i])
        if failed:
            k, name, etype, _, what = failed[0]
            if i == 0:
                raise _certificate(name, anchors[k].index, what, etype)
            raise _certificate("rival", anchors[0].index, f"the candidate "
                               f"tour through it changes: {what}", None)
        states.append((length, al, no))
    _, al, no = states[0]
    pts = [Point(a * ux - s * uy, a * uy + s * ux) for a, s in zip(al, no)]
    m = len(pts)
    for k in range(m):
        wi = _caught_by(pts[k], pts[(k + 1) % m], S.walls)
        if wi is not None:
            raise _certificate("edge", wi, "a tour edge crosses the "
                               "boundary at it", EventType.BENDING)
    if len(S.order) > 1:
        best = None
        for ri, off in S.order:
            length, al, no = states[ri]
            cyc = _Cycle(al, no, off, ux, uy)
            if best is None or beats(length, cyc, best[1], best[2]):
                best = (ri, length, cyc)
        if best[0] != 0:
            raise _certificate("rival", S.rivals[best[0]][0].index,
                               "the candidate tour through it would be "
                               "chosen", None)
    return states[0][0]


class _Cycle:
    """A frozen tour's vertices in world coordinates, from its coordinates
    along and normal to u, starting ``off`` vertices in; made only if
    ``beats`` needs to break a tie."""

    def __init__(self, al, no, off, ux, uy):
        self.al, self.no, self.off, self.ux, self.uy = al, no, off, ux, uy

    def __len__(self) -> int:
        return len(self.al)

    def __iter__(self):
        m = len(self.al)
        for j in range(m):
            a = self.al[(j + self.off) % m]
            s = self.no[(j + self.off) % m]
            yield (a * self.ux - s * self.uy, a * self.uy + s * self.ux)


def _tour_state(anchors: Sequence[FrozenAnchor], ux: float, uy: float,
                watch: Optional[FrozenSet[Tuple[int, str]]]):
    """A frozen tour at direction u, and the checks of its certificates.

    Needs at least one pinned (stable or touching) anchor.  Returns the
    coordinates of every tour vertex along u and normal to it, the
    length and the checks as (anchor, certificate, event type, violated,
    message): every check when watch is None, else only the watched ones
    that are violated.
    """
    m = len(anchors)
    al: List[float] = [0.0] * m  # coordinate along u
    no: List[float] = [0.0] * m  # coordinate normal to u
    lines: List[float] = [0.0] * m
    pinned: List[int] = []
    for k, a in enumerate(anchors):
        if a.gate_vertex is not None:
            v = a.gate_vertex
            lines[k] = v.y * ux - v.x * uy
        if a.kind != "interior":
            p = a.point if a.kind == "stable" else _far_endpoint(a, ux, uy)
            al[k] = p.x * ux + p.y * uy
            no[k] = p.y * ux - p.x * uy
            pinned.append(k)

    # runs between consecutive pinned anchors: (i, interior run, j)
    runs = []
    total = 0.0
    for pi, i in enumerate(pinned):
        j = pinned[(pi + 1) % len(pinned)]
        run = [(i + d) % m for d in range(1, (j - i) % m or m)]
        length, feet = _unfold(al[i], no[i], [lines[q] for q in run],
                               al[j], no[j])
        for q, foot in zip(run, feet):
            al[q], no[q] = foot, lines[q]
        runs.append((i, run, j))
        total += length

    checks = []
    for k, a in enumerate(anchors):
        if a.kind != "interior" or (watch is not None
                                    and (k, "inside") not in watch):
            continue
        v = a.gate_vertex
        av = v.x * ux + v.y * uy
        t = (al[k] - av) * a.ray_sign
        far = _far_endpoint(a, ux, uy)
        t_far = (far.x * ux + far.y * uy - av) * a.ray_sign
        checks.append((k, "inside", EventType.CUDDLE, t >= t_far - TAG_TOL,
                       "the moving vertex reaches the far end of its chord"))
        checks.append((k, "inside", EventType.BENDING, t <= TAG_TOL,
                       "the moving vertex reaches its reflex vertex"))
    for pi, k in enumerate(pinned if len(pinned) > 1 else ()):
        a = anchors[k]
        if a.wedge is not None and (watch is None or (k, "turn") in watch):
            checks.append((k, "turn", EventType.BENDING,
                           not _wraps(a.wedge, al, no, k, ux, uy),
                           "the tour stops wrapping around the vertex"))
        if a.gate_vertex is None or (watch is not None
                                     and (k, "press") not in watch):
            continue
        # where the vertex would sit if released into its chord
        i, left, _ = runs[pi - 1]
        _, right, j = runs[pi]
        try:
            _, feet = _unfold(al[i], no[i],
                              [lines[q] for q in left + [k] + right],
                              al[j], no[j])
        except StructureInfeasibleError:
            continue
        av = a.gate_vertex.x * ux + a.gate_vertex.y * uy
        t = (feet[len(left)] - av) * a.ray_sign
        if a.kind == "touch_far":
            checks.append((k, "press", EventType.CUDDLE,
                           t < (al[k] - av) * a.ray_sign - TAG_TOL,
                           "the far-end touch releases into its chord"))
        else:
            checks.append((k, "press", EventType.BENDING, t > TAG_TOL,
                           "the tour releases the vertex into its gate "
                           "chord"))
    if watch is not None:
        checks = [c for c in checks if c[3]]
    return al, no, total, checks


def _wraps(wedge: Tuple[float, float], al: Sequence[float],
           no: Sequence[float], k: int, ux: float, uy: float) -> bool:
    """Whether the tour corner at anchor k wraps around its reflex vertex.

    A geodesic bends at a reflex vertex only around the polygon's
    exterior wedge there, which then lies inside the angle between its
    two legs: the legs' bisector points the way of the wedge's.  Once
    the legs straighten and bend the other way, the corner no longer
    holds the tour.  Works in the coordinates along and normal to u.
    """
    m = len(al)
    sx = sy = 0.0
    for q in (k - 1, (k + 1) % m):
        dx = al[q] - al[k]
        dy = no[q] - no[k]
        d = math.hypot(dx, dy)
        if d > 0.0:
            sx += dx / d
            sy += dy / d
    wx, wy = wedge
    return (wx * ux + wy * uy) * sx + (wy * ux - wx * uy) * sy > 0.0


def _check_point(S: FrozenStructure, ux: float, uy: float) -> None:
    """The common point stays on its side of every gate chord line."""
    if S.common is None:
        return
    owner, lam = S.common
    g = S.anchors[owner]
    far = _far_endpoint(g, ux, uy)
    v = g.gate_vertex
    px = v.x + lam * (far.x - v.x)
    py = v.y + lam * (far.y - v.y)
    for h in S.anchors:
        w = h.gate_vertex
        if h.side and h.side * (ux * (py - w.y) - uy * (px - w.x)) <= 0.0:
            raise _certificate("side", h.index, "the common point crosses "
                               "the line of its gate chord", None)


def _caught_by(p: Point, q: Point, walls) -> Optional[int]:
    """A reflex vertex at which the segment pq leaves the polygon.

    pq must properly cross an edge at a reflex vertex (as
    ``segments_properly_cross`` decides); the vertex is the reflex end
    nearer the crossing, and it must stand off the line of pq by more
    than the funnel's angular tolerance (TAU_ORIENT, a sine) seen from
    p, where the funnel that built the tour had its apex, since the
    funnel bends the tour there only then.
    """
    px, py = p
    qx, qy = q
    dx = qx - px
    dy = qy - py
    eps = TAU_ORIENT
    for ia, ax, ay, ib, bx, by in walls:
        sa = dx * (ay - py) - dy * (ax - px)
        sb = dx * (by - py) - dy * (bx - px)
        if not ((sa > eps and sb < -eps) or (sa < -eps and sb > eps)):
            continue
        ex = bx - ax
        ey = by - ay
        tp = ex * (py - ay) - ey * (px - ax)
        tq = ex * (qy - ay) - ey * (qx - ax)
        if not ((tp > eps and tq < -eps) or (tp < -eps and tq > eps)):
            continue
        if ib is None or (ia is not None and abs(sa) < abs(sb)):
            wi, wx, wy, sw = ia, ax, ay, sa
        else:
            wi, wx, wy, sw = ib, bx, by, sb
        if abs(sw) > eps * math.hypot(dx, dy) * math.hypot(wx - px, wy - py):
            return wi
    return None


def _all_interior_length(S: FrozenStructure, u: Point) -> float:
    """Closed tour that only reflects, off chord lines parallel to u.

    The same unfolding as ``_unfold``: reflecting across lines parallel
    to u keeps the unfolded tour's component along u, so a tour that
    closes runs across the chords at right angles.  Its length is the
    normal distance between consecutive chord lines, summed, and all its
    vertices share one coordinate along u, which must lie on every
    chord.
    """
    anchors = S.anchors
    total = 0.0
    lows: List[float] = []
    highs: List[float] = []
    for i, a in enumerate(anchors):
        v = a.gate_vertex
        w = anchors[i - 1].gate_vertex
        total += abs(u.x * (v.y - w.y) - u.y * (v.x - w.x))
        far = _far_endpoint(a, u.x, u.y)
        ends = sorted((v.x * u.x + v.y * u.y, far.x * u.x + far.y * u.y))
        lows.append(ends[0])
        highs.append(ends[1])
    if min(highs) < max(lows) - 1e-9:
        raise StructureInfeasibleError("parallel chords no longer overlap; "
                                       "the tour across them breaks")
    return total
