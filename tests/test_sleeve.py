import math
import random
from typing import List, Sequence, Tuple

import pytest

from monowatch import Angle, EventAngleError, solve_theta
from monowatch.cuts import ThetaCut, compute_cuts
from monowatch.gates import ReducedPolygon, compute_gates, reduce_polygon
from monowatch.geom import (
    T_IDENTITY,
    TAU_ONEDGE,
    TAU_ORIENT,
    GeometryError,
    Point,
    Polygon,
    Segment,
    orient_value,
    point_segment_distance,
    ring_area,
    ring_contains,
    segment_segment_intersection,
    t_apply,
    t_compose,
    t_invert,
    t_reflection,
)
from monowatch.sleeve import (
    TAG_TOL,
    Portal,
    Sleeve,
    Tour,
    TourTag,
    fold_back,
    shortest_path,
    tour_length,
    triangulate,
    unroll,
)

from conftest import (
    comb,
    corpus_polygon,
    inputs,
    make_polygon,
    mixed_corpus,
    notched_polygon,
    reflect_point,
    solve_or_none,
    solve_stages,
    spiral_corridor,
)


def _reduced(P, theta_deg):
    ang = Angle(theta_deg)
    gates = compute_gates(P, compute_cuts(P, ang))
    return reduce_polygon(P, gates, ang)


def test_triangulate_counts(square, double):
    assert len(triangulate(_reduced(square, 70.0)).triangles) == 2
    pentagon = make_polygon([(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)])
    assert len(triangulate(_reduced(pentagon, 70.0)).triangles) == 3
    # the reduced band between the two chords is a quadrilateral
    rp = _reduced(double, 0.0)
    assert rp.polygon.n == 4
    assert len(triangulate(rp).triangles) == 2


def test_triangulate_partition_invariants():
    for seed in range(10):
        P = corpus_polygon(seed)
        try:
            rp = _reduced(P, 19.0)
        except EventAngleError:
            continue
        tri = triangulate(rp)
        assert len(tri.triangles) == rp.polygon.n - 2
        tri_area = sum(
            abs(ring_area([rp.polygon.vertices[i] for i in t]))
            for t in tri.triangles)
        assert tri_area == pytest.approx(ring_area(rp.polygon.vertices),
                                         rel=1e-9)


def _reference_triangulate(rp):
    """The O(n^3) ear clipper that re-tests every corner after each clip;
    ``triangulate`` must clip the same ears in the same order."""
    polygon = rp.polygon if isinstance(rp, ReducedPolygon) else rp
    verts = polygon.vertices
    m = len(verts)
    if m < 3:
        raise GeometryError("cannot triangulate fewer than 3 vertices")

    ids = list(range(m))
    triangles = []

    def is_ear(pos: int, strict_boundary: bool) -> bool:
        a = verts[ids[pos - 1]]
        b = verts[ids[pos]]
        c = verts[ids[(pos + 1) % len(ids)]]
        if orient_value(a, b, c) <= TAU_ORIENT:
            return False
        excluded = {ids[pos - 1], ids[pos], ids[(pos + 1) % len(ids)]}
        for other in ids:
            if other in excluded:
                continue
            w = verts[other]
            o1 = orient_value(a, b, w)
            o2 = orient_value(b, c, w)
            o3 = orient_value(c, a, w)
            if strict_boundary:
                if o1 >= -TAU_ORIENT and o2 >= -TAU_ORIENT and o3 >= -TAU_ORIENT:
                    return False
            else:
                if o1 > TAU_ORIENT and o2 > TAU_ORIENT and o3 > TAU_ORIENT:
                    return False
        return True

    while len(ids) > 3:
        clipped = False
        for strict in (True, False):
            for pos in range(len(ids)):
                if is_ear(pos, strict):
                    triangles.append((ids[pos - 1], ids[pos],
                                      ids[(pos + 1) % len(ids)]))
                    del ids[pos]
                    clipped = True
                    break
            if clipped:
                break
        if not clipped:
            raise GeometryError("ear clipping failed; the ring is not a "
                                "simple polygon")
    a, b, c = ids
    if orient_value(verts[a], verts[b], verts[c]) <= TAU_ORIENT:
        raise GeometryError("triangulation left a degenerate final triangle")
    triangles.append((a, b, c))
    return tuple(triangles)


def _outcome(fn, ring):
    try:
        return fn(ring)
    except GeometryError as exc:
        return "refused: " + str(exc)


def _assert_same_triangles(ring):
    want = _outcome(_reference_triangulate, ring)
    got = _outcome(lambda r: triangulate(r).triangles, ring)
    assert got == want, ring
    return want


def _reduced_or_none(P, theta_deg):
    try:
        return _reduced(P, theta_deg)
    except EventAngleError:
        return None


def test_triangulate_matches_reference_on_reduced_polygons():
    cases = []
    for i, P in enumerate(mixed_corpus(200)):
        rng = random.Random(i)
        cases.extend((P, rng.uniform(0.0, 180.0)) for _ in range(10))
    for k in (2, 8, 16, 32):
        P = comb(k)
        rng = random.Random(k)
        cases.extend((P, rng.uniform(7.5 * j, 7.5 * (j + 1)))
                     for j in range(24))
    for seed in range(4):
        P = spiral_corridor(seed)
        rng = random.Random(seed)
        cases.extend((P, rng.uniform(0.0, 180.0)) for _ in range(30))
    compared = 0
    for P, th in cases:
        rp = _reduced_or_none(P, th)
        if rp is None:
            continue
        _assert_same_triangles(rp)
        compared += 1
    assert compared >= 2000


def test_triangulate_matches_reference_with_collinear_points():
    rng = random.Random(7)
    for P in mixed_corpus(200):
        v = P.vertices
        ring = []
        for i, p in enumerate(v):
            ring.append(p)
            if rng.random() < 0.5:
                q = v[(i + 1) % len(v)]
                ring.append(Point(0.5 * (p.x + q.x), 0.5 * (p.y + q.y)))
        _assert_same_triangles(Polygon.raw(ring))


def test_triangulate_matches_reference_on_degenerate_rings():
    # vertex 1 is only a loose ear (vertex 3 repeats it), and clipping
    # it turns vertex 0 into a strict ear
    ring = Polygon.raw([(0, 3), (3, 1), (2, 2), (3, 1), (2, 3)])
    assert triangulate(ring).triangles == ((0, 1, 2), (4, 0, 2), (2, 3, 4))
    _assert_same_triangles(ring)
    rng = random.Random(3)
    refused = 0
    for _ in range(6000):
        ring = Polygon.raw([Point(float(rng.randint(0, 3)),
                                  float(rng.randint(0, 3)))
                            for _ in range(rng.randint(5, 9))])
        refused += isinstance(_assert_same_triangles(ring), str)
    assert 0 < refused < 6000


def test_essential_edges_survive_triangulation(double):
    rp = _reduced(double, 0.0)
    tri = triangulate(rp)
    n = rp.polygon.n
    for edge_index, _ in rp.essential:
        pair = {edge_index, (edge_index + 1) % n}
        assert any(pair <= set(t) for t in tri.triangles)


def test_unroll_degenerate_without_essential_edges(square):
    rp = _reduced(square, 70.0)
    S = unroll(rp, triangulate(rp),
               rp.polygon.find_vertex(square.vertices[0]))
    assert len(S.mirrors) == 0
    assert tuple(S.source) == tuple(S.image)
    path = shortest_path(S)
    assert sum(map(math.dist, path, path[1:])) == 0.0


def test_unroll_double_from_lower_gate_vertex(double):
    rp = _reduced(double, 0.0)
    S = unroll(rp, triangulate(rp), rp.polygon.find_vertex(Point(2.0, 2.0)))
    assert len(S.mirrors) == 2
    assert math.dist(S.source, S.image) == pytest.approx(4.0, abs=1e-12)
    # the image is the double reflection of the source
    img = reflect_point(reflect_point(S.source, S.mirrors[0]), S.mirrors[1])
    assert math.dist(img, S.image) <= 1e-9


def test_unroll_unotch_collinear_mirrors(unotch):
    rp = _reduced(unotch, 0.0)
    S = unroll(rp, triangulate(rp), rp.polygon.find_vertex(Point(4.0, 2.0)))
    assert math.dist(S.source, S.image) <= 1e-12


def test_panel_count_bound():
    checked = 0
    for seed in range(12):
        P = notched_polygon(seed)
        for th in (19.0, 101.0):
            res = solve_or_none(P, th)
            if res is None or not res.rivals:
                continue
            rp, tri, cands = solve_stages(P, res)
            if len(rp.essential) < 2:
                continue
            for v in cands:
                S = unroll(rp, tri, rp.polygon.find_vertex(v))
                # a sleeve has one portal fewer than panels
                assert len(S.portals) + 1 <= 6 * len(tri.triangles)
                checked += 1
    assert checked > 0


# unroll and shortest_path as they were before the per-copy vertex
# mapping, the dual-tree leg memo and the apex-relative funnel; the
# library must build the same sleeves and paths, bit for bit
def _reference_tree_path(tri, sources, targets):
    target_set = set(targets)
    parent = {s: None for s in sources}
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
    return path


def _reference_unroll(rp, tri, v):
    """Unroll the sleeve of panels from vertex v across every gate chord.

    Essential edges are taken in the order a counterclockwise boundary
    walk from v meets them; each one becomes a mirror and everything
    after it is reflected across the mirror's current image.
    """
    polygon = rp.polygon
    m = polygon.n
    if isinstance(v, int):
        vi = v % m
    else:
        vi = polygon.find_vertex(Point(v[0], v[1]))
        if vi is None:
            raise GeometryError(f"{v} is not a vertex of the reduced polygon")
    v_pt = polygon.vertices[vi]

    order = sorted(rp.essential, key=lambda pair: (pair[0] - vi) % m)
    if not order:
        return Sleeve((), (), (), (T_IDENTITY,), v_pt, v_pt, vi, rp)

    transforms = [T_IDENTITY]
    mirrors = []
    for ei, _gate in order:
        e = polygon.edge(ei)
        mirror = Segment(t_apply(transforms[-1], e.a), t_apply(transforms[-1], e.b))
        mirrors.append(mirror)
        transforms.append(t_compose(t_reflection(mirror), transforms[-1]))

    v_tris = tri.vertex_tris.get(vi)
    if not v_tris:
        raise GeometryError(f"vertex {vi} belongs to no triangle")
    gate_tris = [tri.boundary_edge_triangle(ei) for ei, _ in order]

    legs = [_reference_tree_path(tri, v_tris, [gate_tris[0]])]
    for i in range(len(order) - 1):
        legs.append(_reference_tree_path(tri, [gate_tris[i]],
                                         [gate_tris[i + 1]]))
    legs.append(_reference_tree_path(tri, [gate_tris[-1]], v_tris))

    portals = []
    prev = None
    for copy, leg in enumerate(legs):
        t = transforms[copy]
        for j, ti in enumerate(leg):
            if prev is not None:
                if j == 0:
                    # crossing mirror `copy`: portal is the mirror segment
                    ei = order[copy - 1][0]
                    shared = (ei, (ei + 1) % m)
                    portal_pts = (mirrors[copy - 1].a, mirrors[copy - 1].b)
                    mirror_idx = copy - 1
                else:
                    shared = tuple(x for x in tri.triangles[prev]
                                   if x in tri.triangles[ti])
                    if len(shared) != 2:
                        raise GeometryError("consecutive panels share no "
                                            "diagonal")
                    portal_pts = (t_apply(t, polygon.vertices[shared[0]]),
                                  t_apply(t, polygon.vertices[shared[1]]))
                    mirror_idx = -1
                ropp = next(x for x in tri.triangles[ti] if x not in shared)
                r_world = t_apply(t, polygon.vertices[ropp])
                left, right = portal_pts
                if orient_value(left, right, r_world) < 0.0:
                    left, right = right, left
                portals.append(Portal(left, right, mirror_idx))
            prev = ti

    return Sleeve(tuple(portals), tuple(mirrors),
                  tuple(g for _, g in order), tuple(transforms),
                  v_pt, t_apply(transforms[-1], v_pt), vi, rp)


def _dist2(a, b):
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _orient_sin(a, b, c):
    """Orientation of (a, b, c) normalized to the sine of the turn angle.

    Dividing the raw cross product by |ab| |ac| turns the TAU_ORIENT
    comparison into an angular tolerance, which keeps funnel decisions
    sharp inside very thin sleeves where raw cross products underflow
    an absolute threshold.
    """
    v = orient_value(a, b, c)
    s = math.dist(a, b) * math.dist(a, c)
    if s <= 0.0:
        return 0.0
    return v / s


def _reference_shortest_path(sleeve):
    """Taut path from sleeve.source to sleeve.image through the portals.

    Classic funnel walk: maintain an apex with left and right chains,
    emit the blocking chain point on crossover and restart there.
    """
    src = sleeve.source
    dst = sleeve.image
    if not sleeve.portals:
        if _dist2(src, dst) <= (TAU_ONEDGE) ** 2:
            return (src,)
        return (src, dst)

    gates_pts = [(p.left, p.right) for p in sleeve.portals]
    gates_pts.append((dst, dst))
    eps = TAU_ORIENT
    # chain points this close to the apex carry no direction, only the
    # rounding noise of the unrolling transforms
    noise2 = 1e-12 ** 2

    path = [src]
    apex = src
    pl, pr = src, src
    li = ri = -1
    i = 0
    guard = 0
    max_steps = 16 * (len(gates_pts) + 2) ** 2 + 64
    while i < len(gates_pts):
        guard += 1
        if guard > max_steps:
            raise GeometryError("funnel failed to converge")
        l, r = gates_pts[i]
        # tighten the right side; a portal point at the apex narrows
        # nothing and must not be judged by its rounding noise
        if (_dist2(apex, r) <= noise2 or _dist2(apex, pr) <= noise2
                or _orient_sin(apex, pr, r) >= -eps):
            if (_dist2(apex, r) <= noise2 or _dist2(apex, pl) <= noise2
                    or _orient_sin(apex, pl, r) <= eps):
                pr = r
                ri = i
            else:
                # right chain crossed the left: bend at the left point
                path.append(pl)
                apex = pl
                pl, pr = apex, apex
                i = li + 1
                li = ri = i - 1
                continue
        # tighten the left side
        if (_dist2(apex, l) <= noise2 or _dist2(apex, pl) <= noise2
                or _orient_sin(apex, pl, l) <= eps):
            if (_dist2(apex, l) <= noise2 or _dist2(apex, pr) <= noise2
                    or _orient_sin(apex, pr, l) >= -eps):
                pl = l
                li = i
            else:
                path.append(pr)
                apex = pr
                pl, pr = apex, apex
                i = ri + 1
                li = ri = i - 1
                continue
        i += 1

    if _dist2(path[-1], dst) > 0.0:
        path.append(dst)
    out = []
    for p in path:
        if out and _dist2(out[-1], p) <= (1e-12) ** 2:
            continue
        out.append(p)
    return tuple(out)




def _sleeve_cases():
    cases = []
    for i, P in enumerate(mixed_corpus(200)):
        rng = random.Random(i)
        cases.extend((P, rng.uniform(0.0, 180.0)) for _ in range(10))
    for k in (2, 8, 16, 32):
        P = comb(k)
        rng = random.Random(k)
        cases.extend((P, rng.uniform(7.5 * j, 7.5 * (j + 1)))
                     for j in range(24))
    for seed in range(4):
        P = spiral_corridor(seed)
        rng = random.Random(seed)
        cases.extend((P, rng.uniform(0.0, 180.0)) for _ in range(30))
    P = make_polygon(inputs.TOOTHGAP_PTS)
    cases.extend((P, 3.0 * j + 0.5) for j in range(60))
    return cases


def test_unroll_and_shortest_path_match_reference():
    sleeves = paths_with_bends = 0
    for P, th in _sleeve_cases():
        res = solve_or_none(P, th)
        if res is None or not res.rivals:
            continue
        rp, tri, cands = solve_stages(P, res)
        for v in cands:
            want = _reference_unroll(rp, tri, v)
            got = unroll(rp, tri, rp.polygon.find_vertex(v))
            # repr tells -0.0 from 0.0 and prints every float exactly
            for name in ("portals", "mirrors", "transforms",
                         "image", "source", "source_index", "gates"):
                assert repr(getattr(got, name)) == repr(getattr(want, name)), \
                    (name, th)
            path = _reference_shortest_path(want)
            assert repr(shortest_path(got)) == repr(path), th
            sleeves += 1
            paths_with_bends += len(path) > 2
    assert sleeves >= 2000
    assert paths_with_bends > 0


def test_shortest_path_double_bends_at_chord_end(double):
    """The straight segment from (2,2) to its image leaves the sleeve;
    the funnel bends at the unrolled copy of (2.5,4)."""
    rp = _reduced(double, 0.0)
    S = unroll(rp, triangulate(rp), rp.polygon.find_vertex(Point(2.0, 2.0)))
    path = shortest_path(S)
    assert len(path) == 3
    assert sum(map(math.dist, path, path[1:])) == pytest.approx(
        math.sqrt(17.0), abs=1e-12)
    tour = fold_back(S, path)
    assert tour.length == pytest.approx(math.sqrt(17.0), abs=1e-12)
    assert sorted(tuple(p) for p in tour.cycle) == [(2.0, 2.0), (2.5, 4.0)]


def test_fold_back_point_tour(unotch):
    rp = _reduced(unotch, 0.0)
    S = unroll(rp, triangulate(rp), rp.polygon.find_vertex(Point(4.0, 2.0)))
    tour = fold_back(S, shortest_path(S))
    assert tour.length == 0.0
    assert len(tour.cycle) == 1
    assert tuple(tour.cycle[0]) == (4.0, 2.0)


def test_fold_back_isometry_and_shortest_choice():
    positive = 0
    for seed in range(10):
        for P in (corpus_polygon(seed), notched_polygon(seed)):
            res = solve_or_none(P, 19.0)
            if res is None or not res.rivals:
                continue
            rp, tri, cands = solve_stages(P, res)
            if len(rp.essential) < 2:
                continue
            best = math.inf
            for v in cands:
                S = unroll(rp, tri, rp.polygon.find_vertex(v))
                path = shortest_path(S)
                tour = fold_back(S, path)
                path_len = sum(map(math.dist, path, path[1:]))
                assert abs(tour.length - path_len) <= 1e-9
                best = min(best, tour.length)
            assert res.tour.length == pytest.approx(best, abs=1e-9)
            if res.tour.length > 1e-9:
                positive += 1
    assert positive > 0


def _heron_angles_ok(tour, tol_rad=1e-6):
    n = len(tour.cycle)
    if n < 2:
        return True
    for i, (p, tag) in enumerate(zip(tour.cycle, tour.tags)):
        if tag.kind != "moving" or tag.gate is None:
            continue
        chord = tag.gate.chord
        if (math.dist(p, chord.a) <= 1e-6
                or math.dist(p, chord.b) <= 1e-6):
            continue  # endpoint touches reflect degenerately
        prev = tour.cycle[(i - 1) % n]
        nxt = tour.cycle[(i + 1) % n]
        if math.dist(prev, p) <= 1e-9 or math.dist(nxt, p) <= 1e-9:
            continue
        ux, uy = chord.b.x - chord.a.x, chord.b.y - chord.a.y
        un = math.hypot(ux, uy)
        a_in = abs((( (p.x - prev.x) * ux + (p.y - prev.y) * uy)
                    / (math.dist(prev, p) * un)))
        a_out = abs((((nxt.x - p.x) * ux + (nxt.y - p.y) * uy)
                     / (math.dist(nxt, p) * un)))
        a_in = min(1.0, a_in)
        a_out = min(1.0, a_out)
        if abs(math.acos(a_in) - math.acos(a_out)) > tol_rad:
            return False
    return True


def test_reflection_law_at_interior_moving_vertices(double, toothgap):
    for P, th in ((double, 10.0), (double, 130.0), (toothgap, 10.0),
                  (toothgap, 60.0), (toothgap, 130.0)):
        res = solve_theta(P, Angle(th))
        assert _heron_angles_ok(res.tour)


def test_tour_structural_invariants(toothgap):
    for th in (10.0, 60.0, 120.0, 155.0):
        res = solve_theta(toothgap, Angle(th))
        tour = res.tour
        # closing length is consistent
        assert tour.length == pytest.approx(tour_length(tour.cycle),
                                            abs=1e-9)
        reflex_pts = [toothgap.vertices[i]
                      for i in toothgap.reflex_indices]
        for p, tag in zip(tour.cycle, tour.tags):
            assert ring_contains(toothgap.vertices, p) >= 0
            if tag.kind == "stable":
                # unrolling round-trips through a few reflections, so
                # allow rounding noise on the way back
                assert min(math.dist(p, rv) for rv in reflex_pts) <= 1e-9
            elif tag.gate is not None:
                chord = tag.gate.chord
                assert _seg_dist(p, chord.a, chord.b) <= TAU_ONEDGE


def _seg_dist(p, a, b):
    ax, ay = b.x - a.x, b.y - a.y
    t = ((p.x - a.x) * ax + (p.y - a.y) * ay) / (ax * ax + ay * ay)
    t = min(1.0, max(0.0, t))
    return math.hypot(p.x - (a.x + t * ax), p.y - (a.y + t * ay))


# Tagging by search and the fold that used it, kept as the reference
# that tagging by identity must reproduce.

def _reference_tag_point(p: Point, source: Polygon, gates: Sequence[ThetaCut]) -> TourTag:
    """Tag p stable at a reflex vertex of the source polygon, else moving
    on the first gate chord it touches, else stable at any vertex."""
    for vi in source.reflex_indices:
        if _dist2(source.vertices[vi], p) <= TAG_TOL * TAG_TOL:
            return TourTag("stable", vertex_index=vi)
    for g in gates:
        if point_segment_distance(p, g.chord) <= TAG_TOL:
            return TourTag("moving", gate=g)
    # non-optimal candidate tours may bend at convex polygon vertices
    for vi in range(source.n):
        if _dist2(source.vertices[vi], p) <= TAG_TOL * TAG_TOL:
            return TourTag("stable", vertex_index=vi)
    raise GeometryError(f"tour vertex {tuple(p)} is neither a polygon vertex "
                        "nor on a gate chord")


def _reference_fold_back(sleeve: Sleeve, path: Sequence[Point]) -> Tour:
    """Map a sleeve path back into the polygon as a closed tagged tour.

    The path is cut at its crossing with each mirror in order; piece j
    is mapped by the inverse of the j-th accumulated reflection.  Points
    are tagged stable when they sit on a reflex vertex of the source
    polygon and moving when they sit on a gate chord.
    """
    theta = sleeve.rp.theta
    source = sleeve.rp.source
    gates = sleeve.gates
    points = [Point(p[0], p[1]) for p in path]
    if not points:
        raise GeometryError("cannot fold an empty path")

    k = len(sleeve.mirrors)
    if k == 0 or len(points) == 1:
        p0 = points[0]
        for m in sleeve.mirrors:
            if point_segment_distance(p0, m) > TAU_ONEDGE:
                raise GeometryError("degenerate path misses a mirror")
        tag = _reference_tag_point(p0, source, gates)
        return Tour((p0,), (tag,), 0.0, theta)

    # locate the ordered mirror crossings along the polyline
    cross: List[Tuple[int, float, Point]] = []
    si, st = 0, 0.0
    for mi, mirror in enumerate(sleeve.mirrors):
        found = None
        j = si
        while j < len(points) - 1:
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

    # cut into k+1 pieces and push each one back through its transform
    pieces: List[List[Point]] = []
    start = points[0]
    si, st = 0, 0.0
    for j, t, x in cross:
        piece = [start]
        piece.extend(points[si + 1:j + 1])
        piece.append(x)
        pieces.append(piece)
        start = x
        si, st = j, t
    tail = [start]
    tail.extend(points[si + 1:])
    pieces.append(tail)

    folded: List[Point] = []
    for copy, piece in enumerate(pieces):
        inv = t_invert(sleeve.transforms[copy])
        mapped = [t_apply(inv, p) for p in piece]
        if copy > 0 and folded:
            joint = mapped[0]
            if _dist2(folded[-1], joint) > (10 * TAU_ONEDGE) ** 2:
                raise GeometryError("mirror crossing folds to inconsistent "
                                    "joints; path exits the sleeve")
        folded.extend(mapped if not folded else mapped[1:])

    # close the cycle: drop the duplicated return to the source vertex
    dedup: List[Point] = []
    for p in folded:
        if dedup and _dist2(dedup[-1], p) <= (1e-9) ** 2:
            continue
        dedup.append(p)
    while len(dedup) > 1 and _dist2(dedup[0], dedup[-1]) <= (1e-9) ** 2:
        dedup.pop()

    cycle = tuple(dedup)
    tags = tuple(_reference_tag_point(p, source, gates) for p in cycle)
    return Tour(cycle, tags, tour_length(cycle), theta)


def _tag_key(tag):
    return (tag.kind, tag.vertex_index, tag.gate)


def test_fold_back_matches_reference_tags(corpus_solves):
    """Every candidate tour of every solvable reference case, and every
    point tour, has the cycle, length and tags of the fold that tagged by
    search."""
    folds = points = 0
    for P, th, res in corpus_solves:
        if not res.rivals:
            assert len(res.tour.cycle) == 1
            want = _reference_tag_point(res.tour.cycle[0], P, res.gates)
            assert _tag_key(res.tour.tags[0]) == _tag_key(want), th
            points += 1
            continue
        rp, tri, cands = solve_stages(P, res)
        for v, rival in zip(cands, res.rivals):
            S = unroll(rp, tri, rp.polygon.find_vertex(v))
            path = shortest_path(S)
            want = _reference_fold_back(S, path)
            got = fold_back(S, path)
            for tour in (got, rival):
                assert repr(tour.cycle) == repr(want.cycle), th
                assert repr(tour.length) == repr(want.length), th
                assert ([_tag_key(t) for t in tour.tags]
                        == [_tag_key(t) for t in want.tags]), th
            folds += 1
    assert len(corpus_solves) >= 2000
    assert folds > 2000 and points > 0
