"""Planar primitives and predicates shared by every other module.

All arithmetic is double precision with two explicit tolerances:
``TAU_ORIENT`` for signed-area comparisons and ``TAU_ONEDGE`` for
point-on-segment distances.  Exact arithmetic is out of scope; inputs
are expected at desk scale (coordinates of magnitude ~1e3 or less).

Rings are bare counterclockwise vertex tuples with area and
point-location predicates only; a cut's left region is not split from
a ring here but walked from the cut's boundary arc in ``cuts``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

TAU_ORIENT = 1e-9
TAU_ONEDGE = 1e-7
# how near a tour vertex on a gate chord must sit to a reflex vertex to
# be pinned there
TAG_TOL = 1e-6

# Degenerate chord queries (the chord line meets a second polygon vertex)
# are retried after perturbing the query angle by this many degrees.
CHORD_NUDGE_DEG = 1e-7


class GeometryError(ValueError):
    """Invalid geometric input or an operation outside its contract."""


class EventAngleError(GeometryError):
    """Raised when an operation is asked to solve at a critical angle.

    Carries enough context for callers to name the event and suggest
    nearby angles instead.
    """

    def __init__(self, message: str, *, angle: Optional[float] = None,
                 kind: str = "", witness: tuple = ()):  # noqa: D401
        super().__init__(message)
        self.angle = angle
        self.kind = kind
        self.witness = witness


class Point(NamedTuple):
    x: float
    y: float


class Segment(NamedTuple):
    a: Point
    b: Point

    def length(self) -> float:
        return math.hypot(self.b.x - self.a.x, self.b.y - self.a.y)

    def midpoint(self) -> Point:
        return Point((self.a.x + self.b.x) / 2.0, (self.a.y + self.b.y) / 2.0)

    def direction(self) -> Point:
        """Unit vector from a to b."""
        dx = self.b.x - self.a.x
        dy = self.b.y - self.a.y
        n = math.hypot(dx, dy)
        if n <= 0.0:
            raise GeometryError("degenerate segment has no direction")
        return Point(dx / n, dy / n)


def normalize_deg(value: float) -> float:
    """Map an angle in degrees into [0, 180)."""
    v = math.fmod(value, 180.0)
    if v < 0.0:
        v += 180.0
    if v >= 180.0:  # fmod can round up to 180 for inputs just below a multiple
        v -= 180.0
    return v + 0.0  # normalize -0.0


@dataclass(frozen=True)
class Angle:
    """Direction of a family of parallel lines, in degrees within [0, 180)."""

    degrees: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.degrees):
            raise GeometryError("angle must be finite")
        object.__setattr__(self, "degrees", normalize_deg(self.degrees))

    @property
    def radians(self) -> float:
        return math.radians(self.degrees)

    def direction(self) -> Point:
        r = self.radians
        return Point(math.cos(r), math.sin(r))


def orient_value(p: Point, q: Point, r: Point) -> float:
    """Twice the signed area of triangle pqr."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def orient(p: Point, q: Point, r: Point) -> int:
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if v > TAU_ORIENT:
        return 1
    if v < -TAU_ORIENT:
        return -1
    return 0


def _dist2(p: Point, q: Point) -> float:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def point_segment_distance(p: Point, seg: Segment) -> float:
    ax, ay = seg.a
    bx, by = seg.b
    dx = bx - ax
    dy = by - ay
    d2 = dx * dx + dy * dy
    if d2 <= 0.0:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / d2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(p[0] - (ax + t * dx), p[1] - (ay + t * dy))


def segments_properly_cross(p1: Point, p2: Point, q1: Point, q2: Point,
                            eps: float = TAU_ORIENT) -> bool:
    """True when the open segments cross transversally (no touch cases)."""
    d1 = orient_value(q1, q2, p1)
    d2 = orient_value(q1, q2, p2)
    d3 = orient_value(p1, p2, q1)
    d4 = orient_value(p1, p2, q2)
    return ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and \
           ((d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps))


def segment_segment_intersection(p1: Point, p2: Point, q1: Point, q2: Point,
                                 tol: float = TAU_ONEDGE) -> Optional[Point]:
    """Intersection point of two closed segments, or None.

    Touching configurations (endpoint on the other segment) count; for
    collinear overlaps the point closest to p1 is returned.
    """
    rx = p2[0] - p1[0]
    ry = p2[1] - p1[1]
    sx = q2[0] - q1[0]
    sy = q2[1] - q1[1]
    denom = rx * sy - ry * sx
    qpx = q1[0] - p1[0]
    qpy = q1[1] - p1[1]
    if abs(denom) > TAU_ORIENT:
        t = (qpx * sy - qpy * sx) / denom
        u = (qpx * ry - qpy * rx) / denom
        slack_t = tol / max(math.hypot(rx, ry), tol)
        slack_u = tol / max(math.hypot(sx, sy), tol)
        if -slack_t <= t <= 1.0 + slack_t and -slack_u <= u <= 1.0 + slack_u:
            return Point(p1[0] + t * rx, p1[1] + t * ry)
        return None
    # parallel: check collinear overlap
    if abs(qpx * ry - qpy * rx) > max(tol, TAU_ORIENT) * max(math.hypot(rx, ry), 1.0):
        return None
    r2 = rx * rx + ry * ry
    if r2 <= 0.0:
        return None
    t0 = (qpx * rx + qpy * ry) / r2
    t1 = t0 + (sx * rx + sy * ry) / r2
    lo, hi = min(t0, t1), max(t0, t1)
    lo = max(lo, 0.0)
    hi = min(hi, 1.0)
    if lo > hi:
        return None
    return Point(p1[0] + lo * rx, p1[1] + lo * ry)


# ---------------------------------------------------------------------------
# rigid transforms, stored as (xx, xy, yx, yy, tx, ty)

T_IDENTITY = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def t_apply(t: tuple, p: Point) -> Point:
    xx, xy, yx, yy, tx, ty = t
    return Point(xx * p[0] + xy * p[1] + tx, yx * p[0] + yy * p[1] + ty)


def t_compose(outer: tuple, inner: tuple) -> tuple:
    """Transform equal to applying inner first, then outer."""
    oxx, oxy, oyx, oyy, otx, oty = outer
    ixx, ixy, iyx, iyy, itx, ity = inner
    return (
        oxx * ixx + oxy * iyx,
        oxx * ixy + oxy * iyy,
        oyx * ixx + oyy * iyx,
        oyx * ixy + oyy * iyy,
        oxx * itx + oxy * ity + otx,
        oyx * itx + oyy * ity + oty,
    )


def t_invert(t: tuple) -> tuple:
    # linear part of a rigid transform is orthogonal, so inverse = transpose
    xx, xy, yx, yy, tx, ty = t
    return (xx, yx, xy, yy, -(xx * tx + yx * ty), -(xy * tx + yy * ty))


def t_reflection(mirror: Segment) -> tuple:
    """Reflection across the supporting line of mirror, as a transform."""
    ax, ay = mirror.a
    dx = mirror.b.x - ax
    dy = mirror.b.y - ay
    d2 = dx * dx + dy * dy
    if d2 <= TAU_ORIENT * TAU_ORIENT:
        raise GeometryError("cannot reflect across a degenerate mirror")
    # R = 2*P - I with P the projector onto the mirror direction
    xx = (dx * dx - dy * dy) / d2
    xy = 2.0 * dx * dy / d2
    # translation chosen so that mirror.a is a fixed point
    tx = ax - (xx * ax + xy * ay)
    ty = ay - (xy * ax - xx * ay)
    return (xx, xy, xy, -xx, tx, ty)


# ---------------------------------------------------------------------------
# rings (bare CCW vertex tuples; cuts.left_region builds the left regions)

def ring_area(ring: Sequence[Point]) -> float:
    s = 0.0
    n = len(ring)
    for i in range(n):
        ax, ay = ring[i]
        bx, by = ring[(i + 1) % n]
        s += ax * by - bx * ay
    return 0.5 * s


def ring_contains(ring: Sequence[Point], p: Point, tol: float = TAU_ONEDGE) -> int:
    """+1 strictly inside, 0 on the boundary within tol, -1 outside."""
    px, py = p
    n = len(ring)
    # boundary test first
    for i in range(n):
        ax, ay = ring[i]
        bx, by = ring[(i + 1) % n]
        dx = bx - ax
        dy = by - ay
        d2 = dx * dx + dy * dy
        if d2 <= 0.0:
            if (px - ax) * (px - ax) + (py - ay) * (py - ay) <= tol * tol:
                return 0
            continue
        t = ((px - ax) * dx + (py - ay) * dy) / d2
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        ex = px - (ax + t * dx)
        ey = py - (ay + t * dy)
        if ex * ex + ey * ey <= tol * tol:
            return 0
    inside = False
    for i in range(n):
        ax, ay = ring[i]
        bx, by = ring[(i + 1) % n]
        if (ay > py) != (by > py):
            xcross = ax + (py - ay) * (bx - ax) / (by - ay)
            if px < xcross:
                inside = not inside
    return 1 if inside else -1


# ---------------------------------------------------------------------------


class Polygon:
    """Simple polygon with a counterclockwise vertex ring.

    Validation merges collinear consecutive vertices, rejects duplicate
    neighbors, demands positive signed area, and checks the boundary for
    self intersection.  ``Polygon.raw`` skips all of that for rings that
    are correct by construction (reduced polygons), which may
    legitimately contain collinear chains.
    """

    __slots__ = ("vertices", "_area", "_reflex", "_bbox", "_diameter",
                 "_frame")

    def __init__(self, vertices: Sequence, validate: bool = True):
        pts = [Point(float(p[0]), float(p[1])) for p in vertices]
        for p in pts:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise GeometryError("polygon vertices must be finite")
        if validate:
            pts = self._sanitize(pts)
        self.vertices: tuple = tuple(pts)
        self._area: Optional[float] = None
        self._reflex: Optional[tuple] = None
        self._bbox: Optional[tuple] = None
        self._diameter: Optional[float] = None
        self._frame: Optional[tuple] = None
        if validate:
            self._validate()

    @classmethod
    def raw(cls, vertices: Sequence) -> "Polygon":
        return cls(vertices, validate=False)

    @staticmethod
    def _sanitize(pts):
        n = len(pts)
        if n < 3:
            raise GeometryError("a polygon needs at least 3 vertices")
        for i in range(n):
            j = (i + 1) % n
            if math.hypot(pts[i].x - pts[j].x, pts[i].y - pts[j].y) <= TAU_ONEDGE:
                raise GeometryError(f"duplicate consecutive vertices at index {i}")
        # merge collinear consecutive vertices (repeat until stable)
        changed = True
        while changed and len(pts) > 3:
            changed = False
            for i in range(len(pts)):
                a = pts[(i - 1) % len(pts)]
                b = pts[i]
                c = pts[(i + 1) % len(pts)]
                if orient(a, b, c) == 0:
                    del pts[i]
                    changed = True
                    break
        return pts

    def _validate(self) -> None:
        n = len(self.vertices)
        if n < 3:
            raise GeometryError("a polygon needs at least 3 vertices")
        if self.area <= TAU_ORIENT:
            raise GeometryError("vertex ring must be counterclockwise "
                                "(signed area is not positive)")
        v = self.vertices
        for i in range(n):
            p1, p2 = v[i], v[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                q1, q2 = v[j], v[(j + 1) % n]
                if segments_properly_cross(p1, p2, q1, q2):
                    raise GeometryError(
                        f"boundary self-intersection between edges {i} and {j}")
            # non-adjacent vertex sitting on an edge also breaks simplicity
            for j in range(n):
                if j == i or j == (i + 1) % n:
                    continue
                if point_segment_distance(v[j], Segment(p1, p2)) <= TAU_ONEDGE:
                    raise GeometryError(
                        f"vertex {j} lies on edge {i}; boundary is not simple")

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge(self, i: int) -> Segment:
        v = self.vertices
        return Segment(v[i % len(v)], v[(i + 1) % len(v)])

    @property
    def area(self) -> float:
        if self._area is None:
            self._area = ring_area(self.vertices)
        return self._area

    @property
    def bbox(self) -> tuple:
        if self._bbox is None:
            xs = [p.x for p in self.vertices]
            ys = [p.y for p in self.vertices]
            self._bbox = (min(xs), min(ys), max(xs), max(ys))
        return self._bbox

    @property
    def diameter(self) -> float:
        if self._diameter is None:
            x0, y0, x1, y1 = self.bbox
            self._diameter = math.hypot(x1 - x0, y1 - y0)
        return self._diameter

    @property
    def reflex_indices(self) -> tuple:
        if self._reflex is None:
            v = self.vertices
            n = len(v)
            out = []
            for i in range(n):
                if orient(v[(i - 1) % n], v[i], v[(i + 1) % n]) < 0:
                    out.append(i)
            self._reflex = tuple(out)
        return self._reflex

    @property
    def chord_frame(self) -> tuple:
        """What ``chords_at`` reads of the polygon besides its vertices,
        built once: per vertex, the direction of its outgoing edge and
        the angle of its interior wedge, counterclockwise from that edge
        to the incoming one; the sweep's window; the two edges at each
        vertex; and whether each vertex is reflex.

        The window bounds how far the difference of two vertices' normal
        coordinates can lie from zero while the offset of one from the
        line through the other still passes the vertex-hit test: 1e-9 of
        the diameter, which no distance between two vertices exceeds,
        plus 1e-14 of the largest coordinate, over twice what the two
        computations can differ by in rounding (under 16 units in the
        last place of that coordinate).
        """
        if self._frame is None:
            v = self.vertices
            n = len(v)
            two_pi = 2.0 * math.pi
            a_next = [math.atan2(v[(i + 1) % n].y - v[i].y,
                                 v[(i + 1) % n].x - v[i].x) for i in range(n)]
            a_prev = [math.atan2(v[i - 1].y - v[i].y, v[i - 1].x - v[i].x)
                      for i in range(n)]
            span = [(b - a) % two_pi for a, b in zip(a_next, a_prev)]
            big = max(max(abs(p.x), abs(p.y)) for p in v)
            window = 1e-9 * self.diameter * (1.0 + 1e-6) + 1e-14 * big
            incident = [frozenset(((i - 1) % n, i)) for i in range(n)]
            reflex = [False] * n
            for i in self.reflex_indices:
                reflex[i] = True
            self._frame = (a_next, span, window, incident, reflex)
        return self._frame

    def is_reflex(self, i: int) -> bool:
        return i % len(self.vertices) in self.reflex_indices

    def contains(self, p: Point, tol: float = TAU_ONEDGE) -> int:
        """+1 inside, 0 on the boundary within tol, -1 outside."""
        return ring_contains(self.vertices, p, tol)

    def find_vertex(self, p: Point, tol: float = TAU_ONEDGE) -> Optional[int]:
        for i, v in enumerate(self.vertices):
            if math.hypot(v.x - p[0], v.y - p[1]) <= tol:
                return i
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polygon({len(self.vertices)} vertices, area={self.area:.3f})"


class ChordHit(NamedTuple):
    lo: Point
    hi: Point
    edge_lo: int
    edge_hi: int


def chords_at(P: Polygon, rows: Sequence[int], degrees: float) -> tuple:
    """Maximal chords of P through the vertices ``rows``, all in direction
    ``degrees``, found in one sweep of the polygon's vertices.

    Returns (hits, near).  Each entry of ``hits`` is the vertex's
    ChordHit, None when the line through it meets a second vertex (the
    caller nudges the angle and asks again), or the GeometryError to
    raise for it.  Each entry of ``near`` lists, in index order with
    their points, the reflex vertices within 2 * TAG_TOL of the line
    through the vertex: every reflex vertex that can lie within TAG_TOL
    of a point of its chord.

    The vertices are swept in order of their offset along the line's
    normal.  When the sweep reaches a row's vertex v, the edges with one
    end swept and one not are those whose ends lie on either side of the
    line through v, up to the rounding of that order; the vertices whose
    offset is within ``P.chord_frame``'s window of v's (or within
    2 * TAG_TOL, if that is wider) are measured exactly instead, and
    their edges join the candidates.  Every offset, crossing and
    distance along the line is then computed with v's own arithmetic,
    exactly as if every edge were tested against the line: the window
    is wide enough that no vertex outside it can pass the vertex-hit
    test or have its side misjudged.
    """
    r = math.radians(degrees)
    ux = math.cos(r)
    uy = math.sin(r)
    verts = P.vertices
    n = len(verts)
    a_next, span, window, incident, reflex = P.chord_frame
    ang_u = math.atan2(uy, ux)
    two_pi = 2.0 * math.pi
    sig = [ux * y - uy * x for x, y in verts]
    order = sorted(range(n), key=sig.__getitem__)
    ranked = [sig[j] for j in order]
    want = {vi: row for row, vi in enumerate(rows)}
    hits: list = [None] * len(rows)
    near: list = [()] * len(rows)
    active: set = set()
    left = len(want)
    reach = max(window, 2.0 * TAG_TOL)

    def chord(vi: int, row: int):
        v = verts[vi]
        vx, vy = v
        s = sig[vi]
        lo = bisect.bisect_left(ranked, s - reach)
        hi = bisect.bisect_right(ranked, s + reach)
        near[row] = tuple((w, verts[w]) for w in sorted(order[lo:hi])
                          if reflex[w] and abs(sig[w] - s) <= 2.0 * TAG_TOL)
        cand = set(active)
        for w in order[lo:hi]:
            if w == vi:
                continue
            wx, wy = verts[w]
            # relative test: one CHORD_NUDGE_DEG step swings the line by
            # ~1.7e-9 rad, enough to clear this margin at any distance
            if (abs(ux * (wy - vy) - uy * (wx - vx))
                    <= 1e-9 * math.hypot(wx - vx, wy - vy)):
                return None
            cand.add(w - 1 if w else n - 1)
            cand.add(w)
        # incident edges meet the line only at v itself
        cand.discard(vi)
        cand.discard(vi - 1 if vi else n - 1)
        fwd_in = (ang_u - a_next[vi]) % two_pi < span[vi]
        bwd_in = (ang_u + math.pi - a_next[vi]) % two_pi < span[vi]
        if not fwd_in and not bwd_in:
            return GeometryError(
                f"no chord through vertex {vi} at {degrees:.9f} degrees; "
                "the vertex does not admit an interior line in this "
                "direction")
        # a ray only counts when it leaves v into the interior wedge,
        # which runs counterclockwise from the outgoing edge direction
        # to the incoming one; a locally exterior ray ends the chord at
        # v even if it re-enters the polygon further out
        lo = None if bwd_in else (0.0, (vi - 1) % n, vx, vy)
        hi = None if fwd_in else (0.0, vi, vx, vy)
        for i in sorted(cand):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            sa = ux * (ay - vy) - uy * (ax - vx)
            sb = ux * (by - vy) - uy * (bx - vx)
            if (sa > 0.0) == (sb > 0.0):
                continue
            f = sa / (sa - sb)
            px = ax + f * (bx - ax)
            py = ay + f * (by - ay)
            t = ux * (px - vx) + uy * (py - vy)
            if bwd_in and t < 0.0 and (lo is None or t > lo[0]):
                lo = (t, i, px, py)
            elif fwd_in and t > 0.0 and (hi is None or t < hi[0]):
                hi = (t, i, px, py)
        if lo is None or hi is None:
            return GeometryError(
                f"chord through vertex {vi} at {degrees:.9f} degrees found "
                "no boundary exit; the polygon is not simple")
        return ChordHit(v if lo[0] == 0.0 else Point(lo[2], lo[3]),
                        v if hi[0] == 0.0 else Point(hi[2], hi[3]),
                        lo[1], hi[1])

    for j in order:
        row = want.get(j)
        if row is not None:
            hits[row] = chord(j, row)
            left -= 1
            if not left:
                break
        active ^= incident[j]
    return hits, near


def settle_chord(P: Polygon, vi: int, degrees: float, hit,
                 diagnostics: Optional[list] = None) -> ChordHit:
    """The chord through vertex vi from its ``chords_at`` entry at
    ``degrees``, nudging the angle by CHORD_NUDGE_DEG at a time while the
    line meets a second vertex.  A nudge is appended to ``diagnostics``
    when given."""
    attempt = 0
    while hit is None:
        attempt += 1
        if attempt == 6:
            raise GeometryError(
                f"chord through vertex {vi} stays degenerate after nudging; "
                "input is outside the supported general position")
        hit = chords_at(P, (vi,), degrees + attempt * CHORD_NUDGE_DEG)[0][0]
    if isinstance(hit, GeometryError):
        raise hit
    if attempt > 0 and diagnostics is not None:
        diagnostics.append(
            f"chord through vertex {vi}: angle nudged by "
            f"{attempt * CHORD_NUDGE_DEG:g} degrees to avoid a vertex hit")
    return hit
