"""Rotating sweep: find the direction whose watchman tour is shortest.

Candidate event angles (validity and vertex-pair alignments) cut
[0, 180) into intervals.  Inside each interval the tour structure is
expected to persist; samples are screened for hidden structure changes
and length jumps, which are bisected down to events of their own.

The scan records each local minimum of a clean interval as a bracket
together with the solve it already holds there.  Once every interval
is scanned, a flat zero-length interval, if any exists, wins outright:
flat intervals compete by width with the midpoint as representative and
no bracket is refined.  Otherwise each bracket gets a golden-section
search on the structure frozen at its sample, which costs a closed form
per angle instead of a solve; an angle the frozen structure cannot
reach is solved in full and the structure re-frozen there.  The
argmin of each bracket is confirmed by a full solve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from .cuts import ThetaCut, VertexClass, _classify_direction
from .geom import (
    TAU_ORIENT,
    Angle,
    EventAngleError,
    GeometryError,
    Point,
    Polygon,
    Segment,
    normalize_deg,
    reflect_point,
    segments_properly_cross,
)
from .sleeve import TAG_TOL, Tour, _dist2
from .solver import SolveResult, solve_theta

# angular tolerance for merging event angles into interval boundaries
ANGLE_MERGE_DEG = 1e-9
# probe offset used when classifying a pair alignment
CLASSIFY_PROBE_DEG = 1e-6


class StructureInfeasibleError(GeometryError):
    """A frozen tour structure stops being realizable at the asked angle.

    Signals that a structure event (Bending or Cuddle at least) happens
    between the freeze angle and the requested one.
    """


class EventType(enum.Enum):
    VALIDITY = "Validity"
    DOMINATION = "Domination"
    JUMPING = "Jumping"
    PASSING = "Passing"
    BENDING = "Bending"
    CUDDLE = "Cuddle"


@dataclass(frozen=True)
class Event:
    angle: Angle
    type: EventType
    witnesses: Tuple = ()

    @property
    def angle_deg(self) -> float:
        return self.angle.degrees

    def sort_key(self):
        return (self.angle.degrees, self.type.value, self.witnesses)


@dataclass
class SweepConfig:
    samples_per_interval: int = 64
    refine_tol_deg: float = 1e-6
    jump_threshold: float = 0.05
    grid_fallback_step_deg: float = 0.05


@dataclass
class SweepReport:
    best_theta: Angle
    best_length: float
    best_tour: Tour
    events: Tuple[Event, ...]
    samples: Tuple[Tuple[float, float], ...]
    intervals: Tuple[Tuple[float, float], ...]
    diagnostics: Tuple[str, ...] = ()


def _segment_visible(P: Polygon, i: int, j: int) -> bool:
    n = P.n
    a = P.vertices[i]
    b = P.vertices[j]
    for e in range(n):
        if e == i or (e + 1) % n == i or e == j or (e + 1) % n == j:
            continue
        if segments_properly_cross(a, b, P.vertices[e], P.vertices[(e + 1) % n]):
            return False
    mid = Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
    return P.contains(mid) >= 0


def _classify_pair(P: Polygon, ui: int, wi: int, ang: float) -> EventType:
    for probe in (ang + CLASSIFY_PROBE_DEG, ang - CLASSIFY_PROBE_DEG):
        r = math.radians(probe)
        cu = _classify_direction(P, ui, math.cos(r), math.sin(r))
        cw = _classify_direction(P, wi, math.cos(r), math.sin(r))
        if VertexClass.BOUNDARY in (cu, cw):
            continue
        if cw not in (VertexClass.RED, VertexClass.BLUE):
            return EventType.PASSING
        if cu not in (VertexClass.RED, VertexClass.BLUE):
            return EventType.PASSING
        return EventType.DOMINATION if cu is cw else EventType.JUMPING
    return EventType.PASSING


def enumerate_candidate_events(P: Polygon) -> List[Event]:
    """Validity and pair alignment events, sorted by angle.

    Validity events come one per (reflex vertex, incident edge) with
    multiplicity preserved.  Pair events pair each reflex vertex with
    every other vertex it can see along a straight segment inside the
    polygon; the type reflects the pairing just past the angle.
    """
    n = P.n
    events: List[Event] = []
    for vi in P.reflex_indices:
        for edge_idx in ((vi - 1) % n, vi):
            a = P.vertices[edge_idx]
            b = P.vertices[(edge_idx + 1) % n]
            ang = normalize_deg(math.degrees(math.atan2(b.y - a.y, b.x - a.x)))
            events.append(Event(Angle(ang), EventType.VALIDITY, (vi, edge_idx)))
    for ui in P.reflex_indices:
        u = P.vertices[ui]
        for wi in range(n):
            if wi == ui or wi == (ui - 1) % n or wi == (ui + 1) % n:
                continue
            w = P.vertices[wi]
            if not _segment_visible(P, ui, wi):
                continue
            ang = normalize_deg(math.degrees(math.atan2(w.y - u.y, w.x - u.x)))
            events.append(Event(Angle(ang), _classify_pair(P, ui, wi, ang),
                                (ui, wi)))
    events.sort(key=Event.sort_key)
    return events


def structure_signature(res: SolveResult) -> tuple:
    """Combinatorial identity of a solve result, stable within an interval.

    Four sets: stable tour vertices, gate vertices, gate far edges, and
    endpoint touches.  Gate entries carry (vertex, kind, far edge) but
    not color: the kind and the far endpoint are fixed by the geometry
    of the chord, so the entry survives the 180 degree wrap where color
    swaps Red for Blue.
    """
    tour = res.tour
    stable = tuple(sorted({
        t.vertex_index for t in tour.tags
        if t.kind == "stable" and t.vertex_index is not None}))
    gate_vertices = tuple(sorted({g.cut.vertex_index for g in res.gates}))
    gate_edges = tuple(sorted((g.cut.vertex_index, g.cut.kind.value,
                               g.cut.far_edge) for g in res.gates))
    touches = set()
    for p, t in zip(tour.cycle, tour.tags):
        if t.kind != "moving" or t.gate is None:
            continue
        end = _touched_end(p, t.gate.cut)
        if end is not None:
            touches.add((t.gate.cut.vertex_index, t.gate.cut.kind.value, end))
    return (stable, gate_vertices, gate_edges, tuple(sorted(touches)))


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


def _solve_robust(P: Polygon, ang_deg: float) -> Optional[SolveResult]:
    for nudge in (0.0, 1e-7, -1e-7, 5e-7):
        try:
            return solve_theta(P, Angle(ang_deg + nudge))
        except EventAngleError:
            continue
    return None


# ---------------------------------------------------------------------------
# frozen structures


@dataclass(frozen=True)
class FrozenAnchor:
    kind: str  # "stable" | "touch_vertex" | "touch_far" | "interior"
    point: Point
    gate_vertex: Optional[Point] = None
    gate_edge: Optional[Segment] = None
    ray_sign: float = 0.0


@dataclass
class FrozenStructure:
    """Tour combinatorics pinned at one angle, re-evaluable nearby.

    Stable anchors stay put; a far-endpoint touch follows the gate
    chord's intersection with its frozen polygon edge; interior moving
    anchors re-solve as perfect reflections on the rotated chord lines.
    ``colors`` holds the color of every reflex vertex at the freeze
    angle, so that an evaluation past a Validity event is refused.
    """

    polygon: Polygon
    theta_deg: float
    base_length: float
    kind: str  # "point" or "tour"
    anchors: Tuple[FrozenAnchor, ...] = ()
    colors: Tuple[VertexClass, ...] = ()


def _reflex_colors(P: Polygon, ux: float, uy: float) -> Tuple[VertexClass, ...]:
    return tuple(_classify_direction(P, vi, ux, uy) for vi in P.reflex_indices)


def freeze_structure(P: Polygon, res: SolveResult) -> FrozenStructure:
    tour = res.tour
    u = res.theta.direction()
    colors = _reflex_colors(P, u.x, u.y)
    if len(tour.cycle) == 1:
        return FrozenStructure(P, res.theta.degrees, tour.length, "point",
                               colors=colors)
    anchors: List[FrozenAnchor] = []
    for p, t in zip(tour.cycle, tour.tags):
        if t.kind == "stable":
            anchors.append(FrozenAnchor("stable", p))
            continue
        g = t.gate
        if g is None:
            raise GeometryError("moving tour vertex without a gate")
        v = g.cut.vertex
        far = g.cut.far_point
        sign = 1.0 if ((far.x - v.x) * u.x + (far.y - v.y) * u.y) > 0 else -1.0
        edge = P.edge(g.cut.far_edge)
        end = _touched_end(p, g.cut)
        if end == "far":
            anchors.append(FrozenAnchor("touch_far", p, v, edge, sign))
        elif end == "vertex":
            anchors.append(FrozenAnchor("touch_vertex", v, v, edge, sign))
        else:
            anchors.append(FrozenAnchor("interior", p, v, edge, sign))
    return FrozenStructure(P, res.theta.degrees, tour.length, "tour",
                           tuple(anchors), colors)


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


def _line_intersection_param(a: Point, b: Point, mirror: Segment) -> float:
    """Param t on segment a->b where it meets the mirror's line."""
    q = mirror.a
    dx = mirror.b.x - q.x
    dy = mirror.b.y - q.y
    rx = b.x - a.x
    ry = b.y - a.y
    denom = rx * dy - ry * dx
    if abs(denom) <= TAU_ORIENT * 1e-3:
        raise StructureInfeasibleError("unfolded run is parallel to a chord "
                                       "line")
    return ((q.x - a.x) * dy - (q.y - a.y) * dx) / denom


def evaluate_close_tour(S: FrozenStructure, eps_deg: float) -> float:
    """Tour length of the frozen structure at theta + eps_deg.

    Raises StructureInfeasibleError when the structure cannot exist at
    the perturbed angle, which means some event sits in between.  A
    reflex vertex whose color differs from its color at the freeze
    angle marks a Validity event in between.
    """
    phi = S.theta_deg + eps_deg
    r = math.radians(phi)
    ux = math.cos(r)
    uy = math.sin(r)
    if _reflex_colors(S.polygon, ux, uy) != S.colors:
        raise StructureInfeasibleError(
            f"a reflex vertex changes color between {S.theta_deg:.6f} and "
            f"{phi:.6f} degrees")
    if S.kind == "point":
        return 0.0
    u = Point(ux, uy)

    known: List[Optional[Point]] = []
    for a in S.anchors:
        if a.kind == "stable" or a.kind == "touch_vertex":
            known.append(a.point)
        elif a.kind == "touch_far":
            known.append(_far_endpoint(a, ux, uy))
        else:
            known.append(None)

    m = len(S.anchors)
    if all(k is None for k in known):
        return _all_interior_length(S, u)

    start = next(i for i in range(m) if known[i] is not None)
    total = 0.0
    i = start
    while True:
        j = (i + 1) % m
        run: List[int] = []
        while known[j] is None:
            run.append(j)
            j = (j + 1) % m
        total += _run_length(S, known[i], run, known[j], u)
        i = j
        if i == start:
            break
    return total


def _chord_param_bounds(S: FrozenStructure, idx: int, u: Point) -> Tuple[float, float]:
    a = S.anchors[idx]
    far = _far_endpoint(a, u.x, u.y)
    v = a.gate_vertex
    t_far = (far.x - v.x) * u.x * a.ray_sign + (far.y - v.y) * u.y * a.ray_sign
    return (0.0, t_far)


def _run_length(S: FrozenStructure, A: Point, run: Sequence[int], B: Point,
                u: Point) -> float:
    """Geodesic length from A to B bouncing off each run chord in order."""
    if not run:
        return math.dist(A, B)
    # unfold: mirror k is the image of chord line k under the reflections
    # accumulated so far, and B is pushed through the whole stack
    mirrors: List[Segment] = []
    for i in run:
        v = S.anchors[i].gate_vertex
        m = Segment(v, Point(v.x + u.x, v.y + u.y))
        for prev in mirrors:
            m = Segment(reflect_point(m.a, prev), reflect_point(m.b, prev))
        mirrors.append(m)
    B_img = B
    for m in mirrors:
        B_img = reflect_point(B_img, m)

    length = math.dist(A, B_img)
    # feet of the straight unfolded segment, checked against chord extents
    prev_t = 0.0
    feet_world: List[Point] = []
    for k, m in enumerate(mirrors):
        t = _line_intersection_param(A, B_img, m)
        if t < prev_t - 1e-9 or t > 1.0 + 1e-9:
            raise StructureInfeasibleError("reflection feet leave order on "
                                           "the unfolded segment")
        prev_t = max(prev_t, t)
        foot = Point(A.x + t * (B_img.x - A.x), A.y + t * (B_img.y - A.y))
        # fold the foot back to the original chord line
        for back in reversed(mirrors[:k]):
            foot = reflect_point(foot, back)
        feet_world.append(foot)
    for k, idx in enumerate(run):
        lo, hi = _chord_param_bounds(S, idx, u)
        v = S.anchors[idx].gate_vertex
        sgn = S.anchors[idx].ray_sign
        t = ((feet_world[k].x - v.x) * u.x + (feet_world[k].y - v.y) * u.y) * sgn
        if t < lo - 1e-7 or t > hi + 1e-7:
            raise StructureInfeasibleError("a moving vertex slides off its "
                                           "gate chord")
    return length


def _all_interior_length(S: FrozenStructure, u: Point) -> float:
    """Closed tour that only reflects, off chord lines parallel to u.

    The same unfolding as ``_run_length``: reflecting across lines
    parallel to u keeps the unfolded tour's component along u, so a tour
    that closes runs across the chords at right angles.  Its length is
    the normal distance between consecutive chord lines, summed, and
    all its vertices share one coordinate along u, which must lie on
    every chord.
    """
    anchors = S.anchors
    total = 0.0
    lows: List[float] = []
    highs: List[float] = []
    for i, a in enumerate(anchors):
        v = a.gate_vertex
        w = anchors[i - 1].gate_vertex
        total += abs(u.x * (v.y - w.y) - u.y * (v.x - w.x))
        lo, hi = _chord_param_bounds(S, i, u)
        p = v.x * u.x + v.y * u.y
        ends = sorted((p + a.ray_sign * lo, p + a.ray_sign * hi))
        lows.append(ends[0])
        highs.append(ends[1])
    if min(highs) < max(lows) - 1e-9:
        raise StructureInfeasibleError("parallel chords no longer overlap; "
                                       "the tour across them breaks")
    return total


# ---------------------------------------------------------------------------
# sweep


def _interval_list(P: Polygon, events: Sequence[Event]) -> List[Tuple[float, float]]:
    angles: List[float] = []
    for e in sorted(ev.angle_deg for ev in events):
        if not angles or e - angles[-1] > ANGLE_MERGE_DEG:
            angles.append(e)
    if not angles:
        return [(0.0, 180.0)]
    out = []
    for i in range(len(angles) - 1):
        if angles[i + 1] - angles[i] > ANGLE_MERGE_DEG:
            out.append((angles[i], angles[i + 1]))
    out.append((angles[-1], angles[0] + 180.0))
    return out


@dataclass
class _ScanState:
    detected: List[Event] = field(default_factory=list)
    samples: List[Tuple[float, float]] = field(default_factory=list)
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    candidates: List[Tuple[float, float]] = field(default_factory=list)
    flats: List[Tuple[float, float]] = field(default_factory=list)
    # local minima left for refinement: (a, b, sample angle, sample solve)
    brackets: List[Tuple[float, float, float, SolveResult]] = field(
        default_factory=list)
    notes: List[str] = field(default_factory=list)


def _crossed_vertex(n: int, e_old: int, e_new: int) -> Optional[int]:
    """Boundary vertex a sliding chord endpoint crossed between two edges."""
    if (e_old + 1) % n == e_new:
        return e_new
    if (e_new + 1) % n == e_old:
        return e_old
    return None


def _classify_split(P: Polygon, res_a: Optional[SolveResult],
                    res_b: Optional[SolveResult]) -> EventType:
    if res_a is None or res_b is None:
        return EventType.VALIDITY
    sa = structure_signature(res_a)
    sb = structure_signature(res_b)
    ga, gb = sa[2], sb[2]
    if ga != gb:
        if len(ga) != len(gb) or sa[1] != sb[1]:
            return EventType.DOMINATION
        da = {(v, k): e for v, k, e in ga}
        db = {(v, k): e for v, k, e in gb}
        if set(da) != set(db):
            return EventType.JUMPING
        # far endpoints moved: past a convex corner the chord only
        # passes, past a reflex corner it jumps to the far side
        reflex = set(P.reflex_indices)
        for key, e_old in da.items():
            e_new = db[key]
            if e_old == e_new:
                continue
            w = _crossed_vertex(P.n, e_old, e_new)
            if w is None or w in reflex:
                return EventType.JUMPING
        return EventType.PASSING
    if sa[3] != sb[3]:
        return EventType.CUDDLE
    return EventType.BENDING


def _bisect_change(P: Polygon, a: float, res_a: SolveResult, b: float,
                   res_b: SolveResult, tol: float) -> Tuple[float, EventType]:
    sig_a = structure_signature(res_a)
    lo, hi = a, b
    res_lo, res_hi = res_a, res_b
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats; tol is below their spacing
        r = _solve_robust(P, mid)
        if r is None:
            break
        if structure_signature(r) == sig_a:
            lo, res_lo = mid, r
        else:
            hi, res_hi = mid, r
    return 0.5 * (lo + hi), _classify_split(P, res_lo, res_hi)


def _frozen_at(P: Polygon, x: float,
               res: SolveResult) -> Tuple[FrozenStructure, float]:
    """Structure frozen from a solve made for sweep angle x.

    Also returns the sweep angle the solve actually ran at: x plus any
    nudge ``_solve_robust`` applied, kept on the sweep's unwrapped
    scale so that offsets from it stay small across the 180 seam.
    """
    return (freeze_structure(P, res),
            x + math.remainder(res.theta.degrees - x, 180.0))


def _refine_minimum(P: Polygon, a: float, b: float, x0: float,
                    res0: SolveResult, tol: float,
                    notes: List[str]) -> Optional[Tuple[float, float]]:
    """Golden-section minimum over (a, b) on the structures frozen in it.

    The search starts with the structure frozen at x0.  An angle is
    evaluated on the newest frozen structure that reaches it; an angle
    none of them reaches is solved in full, noted with the newest
    structure's refusal, and the structure frozen there joins the
    others.  The returned length comes from a full solve at the argmin.
    """
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    bracket = f"bracket ({a:.6f}, {b:.6f}) deg"
    frozen = [_frozen_at(P, x0, res0)]

    def f(x: float) -> float:
        refusal = None
        for S, base in reversed(frozen):
            try:
                return evaluate_close_tour(S, x - base)
            except StructureInfeasibleError as exc:
                if refusal is None:
                    refusal = exc
        notes.append(f"frozen refine on {bracket} fell back to a full "
                     f"solve at {x:.6f}: {refusal}")
        r = _solve_robust(P, x)
        if r is None:
            return math.inf
        frozen.append(_frozen_at(P, x, r))
        return r.tour.length

    x1 = b - gr * (b - a)
    x2 = a + gr * (b - a)
    f1, f2 = f(x1), f(x2)
    iters = 0
    while b - a > tol and iters < 80:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - gr * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + gr * (b - a)
            f2 = f(x2)
        iters += 1
    x = 0.5 * (a + b)
    r = _solve_robust(P, x)
    if r is None:
        return None
    return (x, r.tour.length)


def _scan_interval(P: Polygon, lo: float, hi: float, cfg: SweepConfig,
                   depth: int, state: _ScanState) -> None:
    width = hi - lo
    if width <= max(cfg.refine_tol_deg, 10 * ANGLE_MERGE_DEG) or depth > 6:
        mid = 0.5 * (lo + hi)
        r = _solve_robust(P, mid)
        if r is not None:
            state.samples.append((normalize_deg(mid), r.tour.length))
            state.candidates.append((mid, r.tour.length))
        state.intervals.append((lo, hi))
        return

    delta = min(1e-4, width / 100.0)
    n = int(min(cfg.samples_per_interval,
                max(8, math.ceil(width / cfg.grid_fallback_step_deg) + 1)))
    xs = [lo + delta + i * (width - 2 * delta) / (n - 1) for i in range(n)]
    solved = [(x, _solve_robust(P, x)) for x in xs]
    pts = [(x, r) for x, r in solved if r is not None]
    if not pts:
        state.intervals.append((lo, hi))
        state.notes.append(f"interval ({lo:.6f},{hi:.6f}) unsolvable")
        return
    sigs = [structure_signature(r) for _, r in pts]
    lens = [r.tour.length for _, r in pts]
    jump_cap = cfg.jump_threshold * (1.0 + P.diameter)

    for i in range(len(pts) - 1):
        if sigs[i] != sigs[i + 1] or abs(lens[i + 1] - lens[i]) > jump_cap:
            ang, etype = _bisect_change(P, pts[i][0], pts[i][1],
                                        pts[i + 1][0], pts[i + 1][1],
                                        cfg.refine_tol_deg)
            state.detected.append(Event(Angle(ang), etype))
            _scan_interval(P, lo, ang, cfg, depth + 1, state)
            _scan_interval(P, ang, hi, cfg, depth + 1, state)
            return

    state.intervals.append((lo, hi))
    state.samples.extend((normalize_deg(x), r.tour.length) for x, r in pts)
    if all(L <= 1e-12 for L in lens):
        state.flats.append((width, normalize_deg(0.5 * (lo + hi))))
        state.candidates.append((0.5 * (lo + hi), 0.0))
        return

    minima: List[Tuple[float, int]] = []
    for i in range(len(pts)):
        left = lens[i - 1] if i > 0 else math.inf
        right = lens[i + 1] if i + 1 < len(pts) else math.inf
        if lens[i] <= left and lens[i] <= right:
            minima.append((lens[i], i))
    minima.sort()
    for _, i in minima[:16]:
        a = pts[i - 1][0] if i > 0 else lo + delta
        b = pts[i + 1][0] if i + 1 < len(pts) else hi - delta
        state.brackets.append((a, b) + pts[i])


def _check_config(cfg: SweepConfig) -> None:
    """Refuse config values the sweep cannot run on, naming the key."""
    spi = cfg.samples_per_interval
    if not isinstance(spi, int) or spi < 2:
        raise GeometryError(
            f"sweep config samples_per_interval must be an integer >= 2, "
            f"got {spi!r}")
    for key, strict in (("refine_tol_deg", True),
                        ("grid_fallback_step_deg", True),
                        ("jump_threshold", False)):
        val = getattr(cfg, key)
        if not (math.isfinite(val) and (val > 0.0 if strict else val >= 0.0)):
            bound = "> 0" if strict else ">= 0"
            raise GeometryError(
                f"sweep config {key} must be finite and {bound}, got {val!r}")


def _sweep(P: Polygon, spans: Sequence[Tuple[float, float]],
           cfg: SweepConfig) -> Tuple[_ScanState, float, float]:
    """Scan every span, then refine; returns the best angle and length.

    A flat interval always wins, so the brackets are refined only when
    the scan found none.
    """
    _check_config(cfg)
    state = _ScanState()
    for lo, hi in spans:
        _scan_interval(P, lo, hi, cfg, 0, state)
    if state.flats:
        _, mid = max(state.flats)
        return state, mid, 0.0
    for a, b, x0, res0 in state.brackets:
        refined = _refine_minimum(P, a, b, x0, res0, cfg.refine_tol_deg,
                                  state.notes)
        if refined is not None:
            state.candidates.append(refined)
    if not state.candidates:
        raise GeometryError("no solvable angle in the sweep")
    best = min(state.candidates, key=lambda c: (c[1], c[0]))
    return state, best[0], best[1]


def minimize_interval(P: Polygon, lo: Union[Angle, float],
                      hi: Union[Angle, float],
                      config: Optional[SweepConfig] = None) -> Tuple[Angle, float]:
    """Shortest tour over an angle interval, splitting at hidden events.

    Returns the minimizing angle and its length.  The interval is taken
    in degrees; hi may exceed 180 to express wraparound past 0.
    """
    lo_deg = lo.degrees if isinstance(lo, Angle) else float(lo)
    hi_deg = hi.degrees if isinstance(hi, Angle) else float(hi)
    if hi_deg < lo_deg:
        hi_deg += 180.0
    if hi_deg <= lo_deg:
        raise GeometryError("empty angle interval")
    _, theta, length = _sweep(P, [(lo_deg, hi_deg)], config or SweepConfig())
    return Angle(theta), length


def _merge_detected(base: Sequence[Event],
                    detected: Sequence[Event]) -> List[Event]:
    """Combine enumerated and detected events for the report.

    Detected events are numeric discoveries; one within half the
    refusal window of an already known angle restates that event and is
    dropped.  Enumerated events keep their multiplicity untouched.
    """
    merged = list(base)
    window = 0.5 * 1e-3
    for ev in sorted(detected, key=Event.sort_key):
        a = ev.angle.degrees
        close = False
        for kept in merged:
            d = abs(kept.angle.degrees - a)
            if min(d, 180.0 - d) <= window:
                close = True
                break
        if not close:
            merged.append(ev)
    merged.sort(key=Event.sort_key)
    return merged


def optimize(P: Polygon, config: Optional[SweepConfig] = None) -> SweepReport:
    """Sweep all directions and return the best angle with its tour.

    Flat zero-length stretches win by width, represented by their
    midpoint; otherwise the refined global minimum wins.  The report
    carries every event (enumerated and detected), the per-interval
    samples, and the final event-free intervals.
    """
    base_events = enumerate_candidate_events(P)
    state, best_theta, _ = _sweep(P, _interval_list(P, base_events),
                                  config or SweepConfig())
    best_theta = normalize_deg(best_theta)
    best = _solve_robust(P, best_theta)
    if best is None:
        best = _solve_robust(P, best_theta + 1e-5)
    if best is None:
        raise GeometryError("best angle is unsolvable")

    events = _merge_detected(base_events, state.detected)
    samples = tuple(sorted(state.samples))
    intervals = tuple(sorted(state.intervals))
    return SweepReport(Angle(best_theta), best.tour.length, best.tour,
                       tuple(events), samples, intervals,
                       tuple(state.notes))
