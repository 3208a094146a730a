"""Triangulation, sleeve unrolling, and taut paths through the sleeve.

A tour that must visit the essential edges e_1..e_k in boundary order
is a shortest path in a stack of reflected copies of the reduced
polygon: copy i is the image of copy i-1 reflected across e_i.  The
shortest closed tour through a boundary vertex v is then the geodesic
from v in copy 0 to its image in copy k, computed by a funnel walk over
the triangle panels connecting them, and folded back into the original
polygon afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cuts import ThetaCut
from .gates import ReducedPolygon
from .geom import (
    T_IDENTITY,
    TAG_TOL,
    TAU_ONEDGE,
    TAU_ORIENT,
    Angle,
    GeometryError,
    Point,
    Polygon,
    Segment,
    _dist2,
    orient_value,
    point_segment_distance,
    segment_segment_intersection,
    t_compose,
    t_invert,
    t_reflection,
)


@dataclass
class Triangulation:
    """Ear-clipping triangulation of a polygon, with adjacency maps."""

    polygon: Polygon
    triangles: Tuple[Tuple[int, int, int], ...]
    neighbors: Tuple[Tuple[int, ...], ...]
    edge_tris: Dict[Tuple[int, int], Tuple[int, ...]]
    vertex_tris: Dict[int, Tuple[int, ...]]
    # dual-tree paths found by _tree_path, keyed by (sources, targets)
    _legs: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[int, ...]] = \
        field(default_factory=dict, repr=False, compare=False)

    def boundary_edge_triangle(self, ei: int) -> int:
        m = self.polygon.n
        key = _edge_key(ei, (ei + 1) % m)
        tris = self.edge_tris.get(key, ())
        if len(tris) != 1:
            raise GeometryError(f"boundary edge {ei} is not covered by "
                                "exactly one triangle")
        return tris[0]


def _edge_key(i: int, j: int) -> Tuple[int, int]:
    return (i, j) if i < j else (j, i)


def triangulate(rp) -> Triangulation:
    """Triangulate a reduced polygon (or a bare Polygon) by ear clipping.

    Zero-area corners from collinear boundary chains are skipped until
    they open up, which keeps reduced polygons with chord-on-chord
    chains legal.  Each round clips the lowest-index vertex that is a
    strict ear (no other vertex on or inside its triangle), or failing
    that the lowest-index loose ear (none strictly inside).

    Ear flags are cached, as in Held's FIST, and a corner is tested only
    when the search for the lowest-index ear reaches it.  Clipping b
    changes only its two neighbours' triangles, and removing a vertex
    can only unblock an ear, so a clip marks for re-testing the two
    neighbours and the blocked corners whose triangle held b; every
    other flag stays exact.  An ear test is O(n) and on reduced polygons
    a clip re-tests about two corners, so the clipping costs O(n^2)
    instead of the O(n^3) of re-testing every corner after every clip.
    """
    polygon = rp.polygon if isinstance(rp, ReducedPolygon) else rp
    verts = polygon.vertices
    m = len(verts)
    if m < 3:
        raise GeometryError("cannot triangulate fewer than 3 vertices")

    xs = [p[0] for p in verts]
    ys = [p[1] for p in verts]
    prv = [(i - 1) % m for i in range(m)]
    nxt = [(i + 1) % m for i in range(m)]
    alive = [True] * m
    # per corner: not tested against the current ring yet; maybe a strict
    # ear (untested, or tested and found one); tested and a loose ear.
    # The extra last entry of the two ear lists ends every search.
    untested = [True] * m
    maybe_strict = [True] * (m + 1)
    loose_ear = [False] * m + [True]
    # convex corners that another vertex keeps from being a strict ear,
    # with the operands of their triangle's orientation tests
    blocked: Dict[int, Tuple[float, ...]] = {}
    neg = -TAU_ORIENT

    def test(v: int) -> None:
        """Set the strict and loose ear flags of corner v."""
        a, c = prv[v], nxt[v]
        ax, ay, bx, by, cx, cy = xs[a], ys[a], xs[v], ys[v], xs[c], ys[c]
        # operands in the order of orient_value(a, b, c) and of
        # orient_value(a, b, w), (b, c, w), (c, a, w) below
        abx, aby = bx - ax, by - ay
        bcx, bcy = cx - bx, cy - by
        cax, cay = ax - cx, ay - cy
        untested[v] = maybe_strict[v] = loose_ear[v] = False
        if abx * (cy - ay) - aby * (cx - ax) <= TAU_ORIENT:
            return
        strict = loose = True
        w = nxt[c]
        while w != a:
            wx, wy = xs[w], ys[w]
            w = nxt[w]
            o1 = abx * (wy - ay) - aby * (wx - ax)
            if o1 < neg:
                continue
            o2 = bcx * (wy - by) - bcy * (wx - bx)
            if o2 < neg:
                continue
            o3 = cax * (wy - cy) - cay * (wx - cx)
            if o3 < neg:
                continue
            strict = False
            if o1 > TAU_ORIENT and o2 > TAU_ORIENT and o3 > TAU_ORIENT:
                loose = False
                break
        maybe_strict[v], loose_ear[v] = strict, loose
        if not strict:
            blocked[v] = (ax, ay, abx, aby, bx, by, bcx, bcy, cx, cy, cax, cay)

    triangles: List[Tuple[int, int, int]] = []
    remaining = m
    while remaining > 3:
        # lowest-index strict ear, testing the untested corners up to it
        b = maybe_strict.index(True)
        while b < m and untested[b]:
            test(b)
            b = maybe_strict.index(True, b)
        if b == m:
            b = loose_ear.index(True)
            if b == m:
                raise GeometryError("ear clipping failed; the ring is not a "
                                    "simple polygon")
        a, c = prv[b], nxt[b]
        triangles.append((a, b, c))
        alive[b] = maybe_strict[b] = loose_ear[b] = False
        nxt[a], prv[c] = c, a
        remaining -= 1
        # b may have been what blocked a corner whose triangle held it
        wx, wy = xs[b], ys[b]
        for v in (a, b, c):
            blocked.pop(v, None)
        for v, (ax, ay, abx, aby, bx, by, bcx, bcy, cx, cy, cax,
                cay) in list(blocked.items()):
            if (abx * (wy - ay) - aby * (wx - ax) >= neg
                    and bcx * (wy - by) - bcy * (wx - bx) >= neg
                    and cax * (wy - cy) - cay * (wx - cx) >= neg):
                del blocked[v]
                untested[v] = maybe_strict[v] = True
        untested[a] = maybe_strict[a] = untested[c] = maybe_strict[c] = True
    a, b, c = (v for v in range(m) if alive[v])
    if orient_value(verts[a], verts[b], verts[c]) <= TAU_ORIENT:
        raise GeometryError("triangulation left a degenerate final triangle")
    triangles.append((a, b, c))

    edge_tris: Dict[Tuple[int, int], list] = {}
    vertex_tris: Dict[int, list] = {}
    for ti, tri in enumerate(triangles):
        for s in range(3):
            key = _edge_key(tri[s], tri[(s + 1) % 3])
            edge_tris.setdefault(key, []).append(ti)
            vertex_tris.setdefault(tri[s], []).append(ti)
    neighbors: List[Tuple[int, ...]] = []
    for ti, tri in enumerate(triangles):
        adj = []
        for s in range(3):
            key = _edge_key(tri[s], tri[(s + 1) % 3])
            for other in edge_tris[key]:
                if other != ti:
                    adj.append(other)
        neighbors.append(tuple(adj))
    return Triangulation(
        polygon,
        tuple(triangles),
        tuple(neighbors),
        {k: tuple(v) for k, v in edge_tris.items()},
        {k: tuple(v) for k, v in vertex_tris.items()},
    )


class Portal(NamedTuple):
    left: Point
    right: Point
    mirror: int  # mirror index for gate crossings, -1 for plain diagonals


@dataclass
class Sleeve:
    """Unrolled corridor of triangle panels from a vertex back to itself.

    The panels themselves are not kept: a path through them is fixed by
    the portals between consecutive panels, crossed in order, and by
    the source and its image.
    """

    portals: Tuple[Portal, ...]
    mirrors: Tuple[Segment, ...]
    gates: Tuple[ThetaCut, ...]
    transforms: Tuple[tuple, ...]
    source: Point
    image: Point
    source_index: int
    rp: ReducedPolygon
    # the reduced-polygon vertex at each portal's left and right end
    portal_vertices: Tuple[Tuple[int, int], ...] = ()


def _tree_path(tri: Triangulation, sources: Sequence[int],
               targets: Sequence[int]) -> Tuple[int, ...]:
    """Shortest dual-tree path from a source triangle to a target one.

    The candidate sleeves of a solve walk the same gate-to-gate legs, so
    each path is found once per triangulation and kept in ``tri._legs``.
    """
    key = (tuple(sources), tuple(targets))
    hit_path = tri._legs.get(key)
    if hit_path is not None:
        return hit_path
    target_set = set(targets)
    parent: Dict[int, Optional[int]] = {s: None for s in sources}
    queue = list(sources)
    qi = 0
    hit = None
    for s in queue:
        if s in target_set:
            hit = s
            break
    while hit is None and qi < len(queue):
        cur = queue[qi]
        qi += 1
        for nb in tri.neighbors[cur]:
            if nb in parent:
                continue
            parent[nb] = cur
            if nb in target_set:
                hit = nb
                break
            queue.append(nb)
    if hit is None:
        raise GeometryError("triangulation dual graph is disconnected")
    path = [hit]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    tri._legs[key] = hit_path = tuple(path)
    return hit_path


def unroll(rp: ReducedPolygon, tri: Triangulation, vi: int) -> Sleeve:
    """Unroll the sleeve of panels from vertex vi across every gate chord.

    Essential edges are taken in the order a counterclockwise boundary
    walk from vi meets them; each one becomes a mirror and everything
    after it is reflected across the mirror's current image.

    Each reduced-polygon vertex is mapped at most once per copy, with
    the arithmetic of ``t_apply``; the portal ends, mirrors and image of
    that copy all share the mapped point.  The dual-tree legs
    between gates come from the triangulation's memo, so the candidate
    sleeves of one solve search each leg once.
    """
    polygon = rp.polygon
    verts = polygon.vertices
    m = polygon.n
    v_pt = verts[vi]

    order = sorted(rp.essential, key=lambda pair: (pair[0] - vi) % m)
    if not order:
        return Sleeve((), (), (), (T_IDENTITY,), v_pt, v_pt, vi, rp)

    # copy c's image of vertex i is maps[c][i]; t_apply's operand order
    # keeps every mapped point bit-identical to t_apply(transforms[c], .)
    transforms = [T_IDENTITY]
    maps: List[Dict[int, Point]] = []

    def map_into(pts: Dict[int, Point], t: tuple, idx) -> None:
        xx, xy, yx, yy, tx, ty = t
        for i in idx:
            if i not in pts:
                x, y = verts[i]
                pts[i] = Point(xx * x + xy * y + tx, yx * x + yy * y + ty)

    mirrors: List[Segment] = []
    for ei, _gate in order:
        ea, eb = ei % m, (ei + 1) % m
        pts: Dict[int, Point] = {}
        map_into(pts, transforms[-1], (ea, eb))
        maps.append(pts)
        mirror = Segment(pts[ea], pts[eb])
        mirrors.append(mirror)
        transforms.append(t_compose(t_reflection(mirror), transforms[-1]))
    maps.append({})

    v_tris = tri.vertex_tris.get(vi)
    if not v_tris:
        raise GeometryError(f"vertex {vi} belongs to no triangle")
    gate_tris = [tri.boundary_edge_triangle(ei) for ei, _ in order]

    legs = [_tree_path(tri, v_tris, (gate_tris[0],))]
    for i in range(len(order) - 1):
        legs.append(_tree_path(tri, (gate_tris[i],), (gate_tris[i + 1],)))
    legs.append(_tree_path(tri, (gate_tris[-1],), v_tris))

    triangles = tri.triangles
    portals: List[Portal] = []
    ends: List[Tuple[int, int]] = []
    prev_tv: Tuple[int, ...] = ()
    for copy, leg in enumerate(legs):
        pts = maps[copy]
        map_into(pts, transforms[copy],
                 {i for ti in leg for i in triangles[ti]})
        for j, ti in enumerate(leg):
            tv = triangles[ti]
            a, b, c = tv
            if prev_tv:
                if j == 0:
                    # crossing mirror `copy`: portal is the mirror segment
                    ei = order[copy - 1][0]
                    s0, s1 = ei % m, (ei + 1) % m
                    left, right = mirrors[copy - 1]
                    mirror_idx = copy - 1
                else:
                    shared = [x for x in prev_tv if x in tv]
                    if len(shared) != 2:
                        raise GeometryError("consecutive panels share no "
                                            "diagonal")
                    s0, s1 = shared
                    left, right = pts[s0], pts[s1]
                    mirror_idx = -1
                # r_world is the corner off the portal; the test below is
                # orient_value(left, right, r_world) < 0.0, inlined
                r_world = pts[a + b + c - s0 - s1]
                if ((right[0] - left[0]) * (r_world[1] - left[1])
                        - (right[1] - left[1]) * (r_world[0] - left[0]) < 0.0):
                    left, right, s0, s1 = right, left, s1, s0
                portals.append(Portal(left, right, mirror_idx))
                ends.append((s0, s1))
            prev_tv = tv

    return Sleeve(tuple(portals), tuple(mirrors),
                  tuple(g for _, g in order), tuple(transforms),
                  v_pt, maps[-1][vi], vi, rp, tuple(ends))


def shortest_path(sleeve: Sleeve) -> Tuple[Point, ...]:
    """Taut path from sleeve.source to sleeve.image through the portals.

    Classic funnel walk: maintain an apex with left and right chains,
    emit the blocking chain point on crossover and restart there.

    The walk runs on coordinates relative to the apex, and keeps each
    chain point's offset and length until the apex moves.  A turn is the
    cross product of two offsets, taken in ``orient_value``'s operand
    order and divided by the product of their ``math.hypot`` lengths
    (``math.dist`` computes the same), so it is the sine of the turn:
    the TAU_ORIENT comparison becomes an angular tolerance, which keeps
    funnel decisions sharp inside very thin sleeves where raw cross
    products underflow an absolute threshold.
    """
    src = sleeve.source
    dst = sleeve.image
    if not sleeve.portals:
        if _dist2(src, dst) <= (TAU_ONEDGE) ** 2:
            return (src,)
        return (src, dst)

    gates_pts = [(p.left, p.right) for p in sleeve.portals]
    gates_pts.append((dst, dst))
    n_gates = len(gates_pts)
    eps = TAU_ORIENT
    neg_eps = -eps
    hypot = math.hypot
    # chain points this close to the apex carry no direction, only the
    # rounding noise of the unrolling transforms
    noise2 = 1e-12 ** 2

    path: List[Point] = [src]
    ax, ay = src
    # the chain points, whether they sit at the apex (squared offset
    # <= noise2), and else their offsets from the apex and lengths.  A
    # turn is tested only between two points off the apex, whose lengths
    # both exceed 1e-12, so the divisor is positive.
    pl = pr = src
    pl_at = pr_at = True
    plx = ply = prx = pry = pl_len = pr_len = 0.0
    li = ri = -1
    i = 0
    guard = 0
    max_steps = 16 * (n_gates + 2) ** 2 + 64
    while i < n_gates:
        guard += 1
        if guard > max_steps:
            raise GeometryError("funnel failed to converge")
        l, r = gates_pts[i]
        # tighten the right side; a portal point at the apex narrows
        # nothing and must not be judged by its rounding noise
        x, y = r[0] - ax, r[1] - ay
        r_at = x ** 2 + y ** 2 <= noise2
        r_len = 0.0 if r_at else hypot(x, y)
        if r_at or pr_at or (prx * y - pry * x) / (pr_len * r_len) >= neg_eps:
            if r_at or pl_at or (plx * y - ply * x) / (pl_len * r_len) <= eps:
                pr, pr_at, prx, pry, pr_len, ri = r, r_at, x, y, r_len, i
            else:
                # right chain crossed the left: bend at the left point
                path.append(pl)
                pr = pl
                ax, ay = pl
                pl_at = pr_at = True
                i = li + 1
                li = ri = i - 1
                continue
        # tighten the left side
        x, y = l[0] - ax, l[1] - ay
        l_at = x ** 2 + y ** 2 <= noise2
        l_len = 0.0 if l_at else hypot(x, y)
        if l_at or pl_at or (plx * y - ply * x) / (pl_len * l_len) <= eps:
            if (l_at or pr_at
                    or (prx * y - pry * x) / (pr_len * l_len) >= neg_eps):
                pl, pl_at, plx, ply, pl_len, li = l, l_at, x, y, l_len, i
            else:
                path.append(pr)
                pl = pr
                ax, ay = pr
                pl_at = pr_at = True
                i = ri + 1
                li = ri = i - 1
                continue
        i += 1

    if _dist2(path[-1], dst) > 0.0:
        path.append(dst)
    out: List[Point] = []
    for p in path:
        if out and _dist2(out[-1], p) <= (1e-12) ** 2:
            continue
        out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class TourTag:
    """Why a tour vertex is where it is: pinned or sliding with theta."""

    kind: str  # "stable" or "moving"
    vertex_index: Optional[int] = None  # source polygon vertex for stable tags
    gate: Optional[ThetaCut] = None  # touched gate for moving tags


@dataclass
class Tour:
    """Closed watchman tour: a weakly simple cyclic polyline with tags."""

    cycle: Tuple[Point, ...]
    tags: Tuple[TourTag, ...]
    length: float
    theta: Angle

    def is_point(self) -> bool:
        return len(self.cycle) == 1


def tour_length(cycle: Sequence[Point]) -> float:
    if len(cycle) < 2:
        return 0.0
    total = 0.0
    for i in range(len(cycle)):
        total += math.dist(cycle[i], cycle[(i + 1) % len(cycle)])
    return total


def chord_tag(p: Point, gate: ThetaCut) -> TourTag:
    """Tag of a tour point on a gate chord: stable at the first reflex
    vertex within TAG_TOL of it, else moving on the gate.  Only the
    gate's own vertex can be that close, except near an event angle;
    ``gate.near`` holds every reflex vertex that can."""
    for vi, q in gate.near:
        if _dist2(q, p) <= TAG_TOL * TAG_TOL:
            return TourTag("stable", vertex_index=vi)
    return TourTag("moving", gate=gate)


def fold_back(sleeve: Sleeve, path: Sequence[Point]) -> Tour:
    """Map a sleeve path back into the polygon as a closed tagged tour.

    The path is cut at its crossing with each mirror in order; piece j
    is mapped by the inverse of the j-th accumulated reflection.  Tags
    come from identity, not from a search.  Every point of the path is
    the source, its image or a portal end, which
    ``sleeve.portal_vertices`` names as a reduced vertex.  Its origin is
    a source vertex, where the point is stable, or a gate chord's far
    end.  A mirror crossing lies on its mirror's gate chord, and so does
    a far end: a point on a gate chord is tagged by ``chord_tag``.

    A path segment is tested for a mirror crossing only when it is the
    segment of the previous crossing, or when its end lies beyond the
    mirror or at one of the mirror's two vertices; a segment ending in
    an earlier copy elsewhere cannot reach the mirror.
    """
    theta = sleeve.rp.theta
    rp = sleeve.rp
    points = [Point(p[0], p[1]) for p in path]
    if not points:
        raise GeometryError("cannot fold an empty path")

    k = len(sleeve.mirrors)
    if k == 0 or len(points) == 1:
        p0 = points[0]
        for m in sleeve.mirrors:
            if point_segment_distance(p0, m) > TAU_ONEDGE:
                raise GeometryError("degenerate path misses a mirror")
        origin = rp.origins[sleeve.source_index]
        tag = (chord_tag(p0, origin) if isinstance(origin, ThetaCut)
               else TourTag("stable", vertex_index=origin))
        return Tour((p0,), (tag,), 0.0, theta)

    # the reduced vertex and the copy of each path point, found by
    # walking the portals forward: the funnel bends only at portal ends,
    # in portal order, and each copy's points are its own objects
    portals = sleeve.portals
    ends = sleeve.portal_vertices
    vids = [sleeve.source_index]
    copies = [0]
    mirror_ends: List[Tuple[int, int]] = []
    pi = copy = 0
    for p in path[1:]:
        while pi < len(portals):
            portal = portals[pi]
            if p is portal.left:
                vids.append(ends[pi][0])
                break
            if p is portal.right:
                vids.append(ends[pi][1])
                break
            if portal.mirror >= 0:
                mirror_ends.append(ends[pi])
                copy += 1
            pi += 1
        else:
            if p is not sleeve.image:
                raise GeometryError(f"path point {tuple(p)} is not a "
                                    "vertex of the sleeve")
            vids.append(sleeve.source_index)
            copy = k
        copies.append(copy)
    mirror_ends.extend(pair for portal, pair in zip(portals[pi:], ends[pi:])
                       if portal.mirror >= 0)

    # locate the ordered mirror crossings along the polyline
    cross: List[Tuple[int, float, Point]] = []
    last = len(points) - 1
    si, st = 0, 0.0
    for mi, mirror in enumerate(sleeve.mirrors):
        on = mirror_ends[mi]
        found = None
        j = si
        while j < last:
            if j == si or copies[j + 1] > mi or vids[j + 1] in on:
                p, q = points[j], points[j + 1]
                x = segment_segment_intersection(p, q, mirror.a, mirror.b)
                if x is not None:
                    seg2 = _dist2(p, q)
                    t = 0.0 if seg2 <= 0.0 else (
                        ((x[0] - p[0]) * (q[0] - p[0]) +
                         (x[1] - p[1]) * (q[1] - p[1])) / seg2)
                    if j > si or t >= st - 1e-9:
                        found = (j, max(t, st if j == si else 0.0), x)
                        break
            j += 1
        if found is None:
            raise GeometryError(
                f"sleeve path never crosses mirror {mi}; the funnel output "
                "is inconsistent")
        cross.append(found)
        si, st, _ = found

    # cut into k+1 pieces and push each one back through its transform;
    # beside each point goes its origin, the gate for a mirror crossing
    path_origins = [rp.origins[i] for i in vids]
    pieces: List[Tuple[List[Point], list]] = []
    start, start_origin = points[0], path_origins[0]
    si = 0
    for (j, _t, x), gate in zip(cross, sleeve.gates):
        pieces.append(([start, *points[si + 1:j + 1], x],
                       [start_origin, *path_origins[si + 1:j + 1], gate]))
        start, start_origin = x, gate
        si = j
    pieces.append(([start, *points[si + 1:]],
                   [start_origin, *path_origins[si + 1:]]))

    folded: List[Point] = []
    origins: list = []
    for copy, (piece, piece_origins) in enumerate(pieces):
        xx, xy, yx, yy, tx, ty = t_invert(sleeve.transforms[copy])
        # t_apply's arithmetic
        mapped = [Point(xx * x + xy * y + tx, yx * x + yy * y + ty)
                  for x, y in piece]
        if folded:
            if _dist2(folded[-1], mapped[0]) > (10 * TAU_ONEDGE) ** 2:
                raise GeometryError("mirror crossing folds to inconsistent "
                                    "joints; path exits the sleeve")
            mapped = mapped[1:]
            piece_origins = piece_origins[1:]
        folded.extend(mapped)
        origins.extend(piece_origins)

    # close the cycle: drop the duplicated return to the source vertex
    dedup: List[Point] = []
    kept: list = []
    for p, o in zip(folded, origins):
        if dedup and _dist2(dedup[-1], p) <= (1e-9) ** 2:
            continue
        dedup.append(p)
        kept.append(o)
    while len(dedup) > 1 and _dist2(dedup[0], dedup[-1]) <= (1e-9) ** 2:
        dedup.pop()
        kept.pop()

    cycle = tuple(dedup)
    # tags are immutable, so the points at one vertex share its tag
    stable: Dict[int, TourTag] = {}
    tags = []
    for p, o in zip(cycle, kept):
        if isinstance(o, ThetaCut):
            tags.append(chord_tag(p, o))
            continue
        tag = stable.get(o)
        if tag is None:
            tag = stable[o] = TourTag("stable", vertex_index=o)
        tags.append(tag)
    return Tour(cycle, tuple(tags), tour_length(cycle), theta)
