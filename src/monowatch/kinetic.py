"""Frozen tour structures, maintained as a kinetic data structure.

A full solve at one angle fixes the tour's combinatorics: which tour
vertices sit at polygon vertices, which touch a gate chord's far end,
and which reflect off a gate chord in between; ``structure_signature``
names it.  ``freeze_structure`` keeps that structure, and those of every
other candidate tour the solve compared, and ``evaluate_close_tour``
gives the tour's length at a nearby angle in closed form.  Every
evaluation checks certificates whose failure marks an event between the
two angles, following Basch, Guibas & Hershberger, "Data structures for
mobile data" (J. Algorithms 1999): a structure watches the certificates
that hold at its freeze angle, which it works out from its own candidate
tours when it is built.  The failure names the event type, so the
sweep's event types live here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .cuts import ThetaCut, VertexClass, _classify_direction, color_of_sides
from .geom import (
    TAG_TOL,
    TAU_ORIENT,
    GeometryError,
    Point,
    Polygon,
    Segment,
    _dist2,
    point_segment_distance,
)
from .sleeve import Tour
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


def _touches_far(p: Point, cut: ThetaCut) -> bool:
    """Whether a moving tour vertex sits on its chord's far end.

    A moving vertex never sits on the chord's own reflex vertex:
    ``sleeve.chord_tag`` tags a point within TAG_TOL of any vertex in
    ``cut.near``, which holds that one, stable there.
    """
    return _dist2(p, cut.far_point) <= TAG_TOL * TAG_TOL


def structure_signature(res: SolveResult) -> tuple:
    """Combinatorial identity of a solve result, stable within an interval.

    Four sets: stable tour vertices, gate vertices, gate far edges, and
    far-end touches.  Far-edge entries carry (vertex, kind, far edge) but
    not color: the kind and the far endpoint are fixed by the geometry
    of the chord, so the entry survives the 180 degree wrap where color
    swaps Red for Blue.
    """
    tour = res.tour
    stable = tuple(sorted({
        t.vertex_index for t in tour.tags
        if t.kind == "stable" and t.vertex_index is not None}))
    gate_vertices = tuple(sorted({g.vertex_index for g in res.gates}))
    gate_edges = tuple(sorted((g.vertex_index, g.kind.value, g.far_edge)
                              for g in res.gates))
    touches = {(t.gate.vertex_index, t.gate.kind.value, "far")
               for p, t in zip(tour.cycle, tour.tags)
               if t.kind == "moving" and t.gate is not None
               and _touches_far(p, t.gate)}
    return (stable, gate_vertices, gate_edges, tuple(sorted(touches)))


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
    No length is stored: ``evaluate_close_tour(S, 0.0)`` gives the length
    at ``theta_deg``.  ``colors`` holds every reflex vertex with the
    offsets to its two neighbours and its color at the freeze angle, and
    ``walls`` every polygon edge with a reflex end, as (index, x, y) for
    each end, the index None unless that end is reflex.

    Every candidate tour of the freezing solve is kept: ``rivals`` holds
    one frozen tour per distinct tour, up to rotation, and ``order``
    places each candidate, in the solve's order, as (rival, offset) with
    its cycle starting ``offset`` vertices into the rival's.  Rival 0 is
    the winner, ``anchors``.  A point tour keeps one "gate" anchor per
    gate and, in ``common``, the gate its point lies on with the point's
    fraction of that chord.

    Construction compiles each rival (the anchors alone when there are
    no rivals) into a ``_Plan`` with every check, runs the checks once
    at ``theta_deg``, and keeps in ``watched``, per rival, the (anchor,
    certificate) pairs none of whose checks fails there; a pair at an
    anchor where every candidate of the rival starts is left out, since
    the solve pinned it.  Evaluation runs only the plans, with the
    watched checks.  A plan holds every gate anchor as (vx, vy,
    ray_sign, ex, ey, wx, wy): the chord's vertex, its sign along u, its
    frozen edge's direction and the offset from the vertex to that
    edge's start.  It holds the pinned anchors, each with a stable
    point's coordinates or a touch's gate; the runs of interior anchors
    between consecutive pinned ones, with the gate vertices whose chord
    lines they reflect off; and the checks in the order they are
    reported: the inside checks by anchor, then each pinned anchor's
    turn and press checks.
    """

    polygon: Polygon
    theta_deg: float
    kind: str  # "point" or "tour"
    anchors: Tuple[FrozenAnchor, ...] = ()
    colors: Tuple[Tuple[int, float, float, float, float, VertexClass],
                  ...] = ()
    walls: Tuple[tuple, ...] = ()
    common: Optional[Tuple[int, float]] = None
    rivals: Tuple[Tuple[FrozenAnchor, ...], ...] = ()
    order: Tuple[Tuple[int, int], ...] = ()
    watched: Tuple[FrozenSet[Tuple[int, str]], ...] = field(init=False)
    plans: Tuple["_Plan", ...] = field(init=False, repr=False,
                                       compare=False)

    def __post_init__(self) -> None:
        r = math.radians(self.theta_deg)
        ux, uy = math.cos(r), math.sin(r)
        watched, plans = [], []
        for ri, anchors in enumerate(self.rivals):
            plan = _compile(anchors)
            held: FrozenSet[Tuple[int, str]] = frozenset()
            if plan.pinned:
                # an (anchor, certificate) pair holds only if none of
                # its checks fails: "inside" makes two
                starts = {off for i, off in self.order if i == ri}
                al, no, _ = _place(plan, ux, uy)
                checks = list(_checks(plan, al, no, ux, uy))
                broken = {(k, name) for k, name, _, violated, _ in checks
                          if violated}
                held = frozenset((k, name) for k, name, _, _, _ in checks
                                 if starts != {k}) - broken
            watched.append(held)
            plans.append(_watch(plan, held))
        self.watched = tuple(watched)
        self.plans = (tuple(plans)
                      or (_watch(_compile(self.anchors), frozenset()),))


# A gate anchor compiled for evaluation: (vx, vy, ray_sign, ex, ey, wx, wy)
_Gate = Tuple[float, float, float, float, float, float, float]


class _Plan(NamedTuple):
    """One frozen tour compiled at construction; see FrozenStructure.

    Per anchor, ``index`` holds the polygon vertex a refusal names, and
    ``gates`` the compiled gate, None for a stable anchor without one.
    ``pinned`` holds (anchor, gate, x, y): a touch's gate, or None and a
    stable anchor's coordinates.  ``runs`` holds (i, run, gate vertices,
    j) from each pinned anchor i to the next, j.  ``inside`` holds the
    inside checks as (anchor, gate); ``corners`` holds, per pinned
    anchor with a turn or press check, (anchor, its position in
    ``pinned``, wedge, gate, touch), with the wedge or the gate None
    where that check is not made.  ``_compile`` gives every check and
    ``_watch`` keeps the watched ones.
    """

    index: Tuple[Optional[int], ...]
    gates: Tuple[Optional[_Gate], ...]
    pinned: Tuple[Tuple[int, Optional[_Gate], float, float], ...]
    runs: Tuple[Tuple[int, Tuple[int, ...],
                      Tuple[Tuple[float, float], ...], int], ...]
    inside: Tuple[Tuple[int, _Gate], ...]
    corners: Tuple[Tuple[int, int, Optional[Tuple[float, float]],
                         Optional[_Gate], bool], ...]


def _compile_gate(a: FrozenAnchor) -> Optional[_Gate]:
    v = a.gate_vertex
    if v is None:
        return None
    e = a.gate_edge
    return (v.x, v.y, a.ray_sign, e.b.x - e.a.x, e.b.y - e.a.y,
            e.a.x - v.x, e.a.y - v.y)


def _compile(anchors: Sequence[FrozenAnchor]) -> _Plan:
    """A frozen tour's plan, with every check."""
    m = len(anchors)
    gates = tuple(_compile_gate(a) for a in anchors)
    pinned = [k for k, a in enumerate(anchors) if a.kind != "interior"]
    runs = []
    for pi, i in enumerate(pinned):
        j = pinned[(pi + 1) % len(pinned)]
        run = tuple((i + d) % m for d in range(1, (j - i) % m or m))
        runs.append((i, run, tuple(gates[q][:2] for q in run), j))

    corners = tuple((k, pi, anchors[k].wedge, gates[k],
                     anchors[k].kind == "touch_far")
                    for pi, k in enumerate(pinned if len(pinned) > 1 else ())
                    if anchors[k].wedge is not None or gates[k] is not None)
    return _Plan(
        tuple(a.index for a in anchors), gates,
        tuple((k, None, anchors[k].point.x, anchors[k].point.y)
              if anchors[k].kind == "stable" else (k, gates[k], 0.0, 0.0)
              for k in pinned),
        tuple(runs),
        tuple((k, gates[k]) for k, a in enumerate(anchors)
              if a.kind == "interior"),
        corners)


def _watch(plan: _Plan, held: FrozenSet[Tuple[int, str]]) -> _Plan:
    """The plan with only the checks of the pairs in held."""
    corners = ((k, pi, wedge if (k, "turn") in held else None,
                gate if (k, "press") in held else None, touch)
               for k, pi, wedge, gate, touch in plan.corners)
    return plan._replace(
        inside=tuple(c for c in plan.inside if (c[0], "inside") in held),
        corners=tuple(c for c in corners
                      if c[2] is not None or c[3] is not None))


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


def _gate_anchor(kind: str, p: Point, gate: ThetaCut, P: Polygon, u: Point,
                 wedge: Optional[Tuple[float, float]] = None,
                 side: float = 0.0) -> FrozenAnchor:
    v = gate.vertex
    far = gate.far_point
    sign = 1.0 if ((far.x - v.x) * u.x + (far.y - v.y) * u.y) > 0 else -1.0
    return FrozenAnchor(kind, p, v, P.edge(gate.far_edge), sign,
                        gate.vertex_index, wedge, side)


def _wedge(P: Polygon, wi: int) -> Tuple[float, float]:
    w = P.vertices[wi]
    a = P.vertices[wi - 1]
    b = P.vertices[(wi + 1) % P.n]
    da = math.dist(a, w)
    db = math.dist(b, w)
    return ((a.x - w.x) / da + (b.x - w.x) / db,
            (a.y - w.y) / da + (b.y - w.y) / db)


def _tour_anchors(P: Polygon, tour: Tour, gates: Sequence[ThetaCut],
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
            kind = "touch_far" if _touches_far(p, g) else "interior"
            anchors.append(_gate_anchor(kind, p, g, P, u))
            continue
        vi = t.vertex_index
        own = [g for g in gates if g.vertex_index == vi]
        wedge = _wedge(P, vi) if vi in reflex else None
        anchors.append(_gate_anchor("stable", p, own[0], P, u, wedge)
                       if len(own) == 1
                       else FrozenAnchor("stable", p, index=vi, wedge=wedge))
    return tuple(anchors)


def _rotation(shape: tuple, other: tuple) -> Optional[int]:
    """The offset r with other[k] == shape[(k + r) % m], if any."""
    m = len(shape)
    if len(other) != m:
        return None
    return next((r for r in range(m)
                 if all(other[k] == shape[(k + r) % m] for k in range(m))),
                None)


def freeze_structure(P: Polygon, res: SolveResult) -> FrozenStructure:
    """Freeze the solve's tour and every candidate tour it tried.

    The candidates that are one tour from different starts share one
    frozen rival; ``FrozenStructure`` works out which certificates each
    rival watches.
    """
    tour = res.tour
    u = res.theta.direction()
    colors = _reflex_colors(P, u)
    reflex = set(P.reflex_indices)
    ends = [(i if i in reflex else None, v.x, v.y)
            for i, v in enumerate(P.vertices)]
    walls = tuple(a + b for a, b in zip(ends, ends[1:] + ends[:1])
                  if a[0] is not None or b[0] is not None)
    if len(tour.cycle) == 1:
        return _freeze_point(P, res, colors, walls)
    tours = list(res.rivals) or [tour]
    first = next(i for i, t in enumerate(tours) if t is tour)
    rivals: List[Tuple[FrozenAnchor, ...]] = []
    shapes: List[tuple] = []
    order: List[Tuple[int, int]] = [(0, 0)] * len(tours)
    for i in [first] + [j for j in range(len(tours)) if j != first]:
        anchors = _tour_anchors(P, tours[i], res.gates, u)
        shape = tuple((a.kind, a.index, a.ray_sign) for a in anchors)
        for ri, known in enumerate(shapes):
            r = _rotation(known, shape)
            if r is not None:
                order[i] = (ri, r)
                break
        else:
            order[i] = (len(rivals), 0)
            rivals.append(anchors)
            shapes.append(shape)
    return FrozenStructure(P, res.theta.degrees, "tour", rivals[0], colors,
                           walls, None, tuple(rivals), tuple(order))


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
        v = g.vertex
        side = u.x * (p.y - v.y) - u.y * (p.x - v.x)
        anchors.append(_gate_anchor(
            "gate", g.far_point, g, P, u,
            side=math.copysign(1.0, side) if abs(side) > TAG_TOL else 0.0))
    common = None
    if owner is not None:
        g = gates[owner]
        common = (owner, math.dist(p, g.vertex)
                  / math.dist(g.far_point, g.vertex))
    return FrozenStructure(P, res.theta.degrees, "point", tuple(anchors),
                           colors, walls, common)


def _far_endpoint(gate: _Gate, ux: float,
                  uy: float) -> Tuple[float, float]:
    """Where the frozen gate chord meets its frozen polygon edge."""
    vx, vy, sign, ex, ey, wx, wy = gate
    dx = ux * sign
    dy = uy * sign
    denom = dx * ey - dy * ex
    if abs(denom) <= TAU_ORIENT:
        raise StructureInfeasibleError("gate chord runs parallel to its "
                                       "frozen edge")
    t = (wx * ey - wy * ex) / denom
    s = (wx * dy - wy * dx) / denom
    if t <= TAU_ORIENT:
        raise StructureInfeasibleError("gate chord leaves its frozen edge "
                                       "behind the vertex")
    if s < -1e-9 or s > 1.0 + 1e-9:
        raise StructureInfeasibleError("gate far endpoint slides off its "
                                       "frozen edge")
    return vx + t * dx, vy + t * dy


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
    plans = S.plans
    if not plans[0].pinned:
        return _all_interior_length(plans[0].gates, ux, uy)

    states = []
    for i, plan in enumerate(plans):
        al, no, length = _place(plan, ux, uy)
        for k, name, etype, violated, what in _checks(plan, al, no, ux, uy):
            if not violated:
                continue
            if i == 0:
                raise _certificate(name, plan.index[k], what, etype)
            raise _certificate("rival", plan.index[0], f"the candidate "
                               f"tour through it changes: {what}", None)
        states.append((length, al, no))
    _, al, no = states[0]
    pts = [(a * ux - s * uy, a * uy + s * ux) for a, s in zip(al, no)]
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
            raise _certificate("rival", plans[best[0]].index[0],
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


def _place(plan: _Plan, ux: float,
           uy: float) -> Tuple[List[float], List[float], float]:
    """A frozen tour at direction u: the coordinates of every tour vertex
    along u and normal to it, and the length.

    Needs at least one pinned (stable or touching) anchor.
    """
    m = len(plan.gates)
    al: List[float] = [0.0] * m  # coordinate along u
    no: List[float] = [0.0] * m  # coordinate normal to u
    for k, gate, x, y in plan.pinned:
        if gate is not None:
            x, y = _far_endpoint(gate, ux, uy)
        al[k] = x * ux + y * uy
        no[k] = y * ux - x * uy
    total = 0.0
    for i, run, verts, j in plan.runs:
        if not run:
            total += math.hypot(al[j] - al[i], no[j] - no[i])
            continue
        lines = [vy * ux - vx * uy for vx, vy in verts]
        length, feet = _unfold(al[i], no[i], lines, al[j], no[j])
        for q, c, foot in zip(run, lines, feet):
            al[q], no[q] = foot, c
        total += length
    return al, no, total


def _checks(plan: _Plan, al: Sequence[float], no: Sequence[float],
            ux: float, uy: float):
    """The plan's checks at direction u, in order, as (anchor,
    certificate, event type, violated, message).

    The inside checks are all built before the first is yielded, so
    that every far end they need is found, and may refuse, before any
    check is reported; the turn and press checks raise nothing and
    follow one at a time.
    """
    inside = []
    for k, gate in plan.inside:
        vx, vy, sign = gate[0], gate[1], gate[2]
        av = vx * ux + vy * uy
        t = (al[k] - av) * sign
        fx, fy = _far_endpoint(gate, ux, uy)
        t_far = (fx * ux + fy * uy - av) * sign
        inside.append((k, "inside", EventType.CUDDLE, t >= t_far - TAG_TOL,
                       "the moving vertex reaches the far end of its chord"))
        inside.append((k, "inside", EventType.BENDING, t <= TAG_TOL,
                       "the moving vertex reaches its reflex vertex"))
    yield from inside
    runs = plan.runs
    for k, pi, wedge, gate, touch in plan.corners:
        if wedge is not None:
            yield (k, "turn", EventType.BENDING,
                   not _wraps(wedge, al, no, k, ux, uy),
                   "the tour stops wrapping around the vertex")
        if gate is None:
            continue
        # where the vertex would sit if released into its chord; an
        # interior vertex's normal coordinate is its chord line
        i, left, _, _ = runs[pi - 1]
        _, right, _, j = runs[pi]
        vx, vy, sign = gate[0], gate[1], gate[2]
        try:
            _, feet = _unfold(al[i], no[i],
                              [no[q] for q in left] + [vy * ux - vx * uy]
                              + [no[q] for q in right], al[j], no[j])
        except StructureInfeasibleError:
            continue
        av = vx * ux + vy * uy
        t = (feet[len(left)] - av) * sign
        if touch:
            yield (k, "press", EventType.CUDDLE,
                   t < (al[k] - av) * sign - TAG_TOL,
                   "the far-end touch releases into its chord")
        else:
            yield (k, "press", EventType.BENDING, t > TAG_TOL,
                   "the tour releases the vertex into its gate chord")


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
    gates = S.plans[0].gates
    vx, vy = gates[owner][:2]
    fx, fy = _far_endpoint(gates[owner], ux, uy)
    px = vx + lam * (fx - vx)
    py = vy + lam * (fy - vy)
    for h, gate in zip(S.anchors, gates):
        wx, wy = gate[:2]
        if h.side and h.side * (ux * (py - wy) - uy * (px - wx)) <= 0.0:
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


def _all_interior_length(gates: Sequence[_Gate], ux: float,
                         uy: float) -> float:
    """Closed tour that only reflects, off chord lines parallel to u.

    The same unfolding as ``_unfold``: reflecting across lines parallel
    to u keeps the unfolded tour's component along u, so a tour that
    closes runs across the chords at right angles.  Its length is the
    normal distance between consecutive chord lines, summed, and all its
    vertices share one coordinate along u, which must lie on every
    chord.
    """
    total = 0.0
    lows: List[float] = []
    highs: List[float] = []
    for i, gate in enumerate(gates):
        vx, vy = gate[:2]
        wx, wy = gates[i - 1][:2]
        total += abs(ux * (vy - wy) - uy * (vx - wx))
        fx, fy = _far_endpoint(gate, ux, uy)
        ends = sorted((vx * ux + vy * uy, fx * ux + fy * uy))
        lows.append(ends[0])
        highs.append(ends[1])
    if min(highs) < max(lows) - 1e-9:
        raise StructureInfeasibleError("parallel chords no longer overlap; "
                                       "the tour across them breaks")
    return total
