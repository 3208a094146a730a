"""Shared fixtures: the test polygons and seeded polygon families.

The families (comb, spiral, star, notched) and the toothgap points are
generated by the benchmark's ``perfbench/inputs.py``, so tests and
benchmark measure the same polygons.  It is loaded by file path under a
module name of its own, since ``perfbench`` is not a package.
"""

import importlib.util
import math
import random
from pathlib import Path
from typing import Optional, Sequence

import pytest
from hypothesis import settings

from monowatch import Angle, EventAngleError, solver
from monowatch.cuts import (
    ThetaCut,
    VertexClass,
    _classify_direction,
    _strictly_within,
    boundary_arc,
    left_region,
)
from monowatch.gates import reduce_polygon
from monowatch.geom import (
    TAU_ONEDGE,
    TAU_ORIENT,
    ChordHit,
    GeometryError,
    Point,
    Polygon,
    Segment,
    chords_at,
    ring_contains,
    settle_chord,
)
from monowatch.rotor import enumerate_candidate_events
from monowatch.sleeve import triangulate


def _load_inputs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("monowatch_bench_inputs",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()

# one fixed example sequence per test, so that every run of the suite
# draws the same cases; each test keeps its own max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

SQUARE_PTS = [(0, 0), (4, 0), (4, 4), (0, 4)]
UNOTCH_PTS = [(0, 0), (8, 0), (8, 6), (5, 6), (4, 2), (3, 6), (0, 6)]
DOUBLE_PTS = [(0, 0), (5, 0), (6, 4), (7, 0), (8, 0),
              (8, 6), (3, 6), (2, 2), (1, 6), (0, 6)]
# corridor winding 1.25 turns; tours are positive on [0, 90) and a
# single point covers everything on [90, 180)
SPIRAL_PTS = [(0, 0), (10, 0), (10, 8), (2, 8), (2, 3), (4, 3), (4, 6),
              (8, 6), (8, 2), (0, 2)]
# a random simple 25-gon (2-opt, seed 42) whose tours pass through three
# gates at every angle of THREE_GATE_DEG, a 1 degree grid clear of events
THREE_GATE_PTS = [
    (19.144, 6.732), (16.143, 14.595), (17.234, 11.547), (16.95, 12.075),
    (16.588, 12.37), (16.116, 13.963), (10.725, 19.462), (14.729, 13.534),
    (4.373, 10.107), (4.409, 11.785), (2.02, 5.559), (1.596, 4.656),
    (0.531, 3.977), (1.855, 1.934), (5.501, 4.464), (8.438, 0.596),
    (6.805, 3.11), (12.714, 7.297), (4.558, 5.788), (7.571, 11.041),
    (12.998, 10.899), (12.789, 0.5), (16.189, 0.13), (17.844, 1.739),
    (14.091, 0.916)]
THREE_GATE_DEG = [96.5 + k for k in range(27)]


def make_polygon(pts):
    return Polygon([Point(float(x), float(y)) for x, y in pts])


@pytest.fixture(scope="session")
def square():
    return make_polygon(SQUARE_PTS)


@pytest.fixture(scope="session")
def unotch():
    return make_polygon(UNOTCH_PTS)


@pytest.fixture(scope="session")
def double():
    return make_polygon(DOUBLE_PTS)


@pytest.fixture(scope="session")
def toothgap():
    return make_polygon(inputs.TOOTHGAP_PTS)


@pytest.fixture(scope="session")
def spiral():
    return make_polygon(SPIRAL_PTS)


@pytest.fixture(scope="session")
def threegate():
    return make_polygon(THREE_GATE_PTS)


def comb(k: int, seed: int = 0) -> Polygon:
    return make_polygon(inputs.comb(k, seed))


def spiral_corridor(seed: int) -> Polygon:
    return make_polygon(inputs.spiral(seed))


def star_polygon(n: int, seed: int) -> Polygon:
    """The first ring of ``inputs.star(n, seed)`` that is a simple polygon."""
    for pts in inputs.star(n, seed):
        try:
            return make_polygon(pts)
        except GeometryError:
            continue
    raise GeometryError(f"no simple star polygon for n={n}, seed={seed}")


def corpus_polygon(seed: int) -> Polygon:
    return star_polygon(6 + seed % 9, seed)


def notched_polygon(seed: int) -> Polygon:
    return make_polygon(inputs.notched(seed))


def mixed_corpus(count: int):
    """Alternating star-shaped and notched instances, seeded by index."""
    out = []
    for i in range(count):
        if i % 5 < 3:
            out.append(corpus_polygon(i))
        else:
            out.append(notched_polygon(i))
    return out


def nonevent_angles(P: Polygon, rng: random.Random, count: int,
                    margin: float = 2e-3):
    """Random angles at least `margin` degrees away from any candidate event."""
    evs = sorted(e.angle_deg for e in enumerate_candidate_events(P))

    def clear(t: float) -> bool:
        for a in evs:
            d = abs(a - t)
            if min(d, 180.0 - d) <= margin:
                return False
        return True

    out = []
    while len(out) < count:
        t = rng.uniform(0.0, 180.0)
        if clear(t):
            out.append(t)
    return out


def solve_or_none(P: Polygon, theta: float):
    try:
        return solver.solve_theta(P, Angle(theta))
    except EventAngleError:
        return None


def solve_stages(P: Polygon, res):
    """The reduced polygon, its triangulation and the candidate start
    vertices of a solve that compared tours (``res.rivals`` not empty),
    rebuilt by calling each stage; the candidates come in the order of
    ``res.rivals``."""
    rp = reduce_polygon(P, res.gates, res.theta)
    tri = triangulate(rp)
    return rp, tri, [rp.polygon.vertices[vi]
                     for vi in solver._candidate_indices(rp, tri, {})]


def reference_corpus():
    """(polygon, angle) pairs the reference comparisons solve: the mixed
    corpus at 10 angles each, combs k=2..128 at one angle in each 7.5
    degree slice, spiral seeds 0-7 at 30 angles each and toothgap at 60."""
    cases = []
    for i, P in enumerate(mixed_corpus(200)):
        rng = random.Random(i)
        cases.extend((P, rng.uniform(0.0, 180.0)) for _ in range(10))
    for k in (2, 8, 16, 32, 64, 128):
        P = comb(k)
        rng = random.Random(k)
        cases.extend((P, rng.uniform(7.5 * j, 7.5 * (j + 1)))
                     for j in range(24))
    for seed in range(8):
        P = spiral_corridor(seed)
        rng = random.Random(seed)
        cases.extend((P, rng.uniform(0.0, 180.0)) for _ in range(30))
    P = make_polygon(inputs.TOOTHGAP_PTS)
    cases.extend((P, 3.0 * j + 0.5) for j in range(60))
    return cases


@pytest.fixture(scope="session")
def corpus_solves():
    """(polygon, angle, solve result) for every solvable reference case."""
    out = []
    for P, th in reference_corpus():
        res = solve_or_none(P, th)
        if res is not None:
            out.append((P, th, res))
    return out


# The ring split that built left regions before they were walked from
# boundary arcs, kept as the reference ``left_region`` and
# ``reduce_polygon`` must reproduce bit for bit.

def _reference_ring_locate(ring: Sequence[Point], p: Point, tol: float) -> tuple:
    """Position of a boundary point as (edge_index, param in [0,1))."""
    n = len(ring)
    for i in range(n):
        ax, ay = ring[i]
        if (p[0] - ax) * (p[0] - ax) + (p[1] - ay) * (p[1] - ay) <= tol * tol:
            return (i, 0.0)
    best = None
    for i in range(n):
        ax, ay = ring[i]
        bx, by = ring[(i + 1) % n]
        dx = bx - ax
        dy = by - ay
        d2 = dx * dx + dy * dy
        if d2 <= 0.0:
            continue
        t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / d2
        if t < 0.0 or t > 1.0:
            continue
        ex = p[0] - (ax + t * dx)
        ey = p[1] - (ay + t * dy)
        d = ex * ex + ey * ey
        if d <= tol * tol and (best is None or d < best[0]):
            best = (d, (i, t))
    if best is None:
        raise GeometryError(f"point {p} does not lie on the ring boundary")
    return best[1]


def _reference_split_ring(ring: Sequence[Point], a: Point, b: Point,
               tol: float = TAU_ONEDGE) -> tuple:
    """Split a CCW ring along the chord a-b into two CCW rings.

    Returns (left, right) where left is the component locally to the
    left of the directed chord a->b: its boundary runs counterclockwise
    from b around to a and is closed by the chord edge a->b.  Both chord
    endpoints must lie on the ring boundary.
    """
    n = len(ring)
    ka = sum(_reference_ring_locate(ring, a, tol))
    kb = sum(_reference_ring_locate(ring, b, tol))
    # cyclic position keys: vertex i sits at key i, an interior point of
    # edge i at key i + t
    span_ba = (ka - kb) % n
    span_ab = (kb - ka) % n
    if span_ba <= 1e-12 or span_ab <= 1e-12:
        raise GeometryError("chord endpoints coincide on the ring")

    def collect(k_from, start_pt, span, end_pt):
        pts = [start_pt]
        base = int(math.floor(k_from))
        for step in range(1, n + 1):
            idx = (base + step) % n
            off = (idx - k_from) % n
            if off <= 1e-12:
                continue
            if off >= span - 1e-12:
                break
            pts.append(ring[idx])
        pts.append(end_pt)
        return pts

    def dedupe(pts):
        out: list = []
        for p in pts:
            if out and (out[-1][0] - p[0]) ** 2 + (out[-1][1] - p[1]) ** 2 <= tol * tol:
                continue
            out.append(Point(p[0], p[1]))
        while len(out) > 1 and (out[0][0] - out[-1][0]) ** 2 + (out[0][1] - out[-1][1]) ** 2 <= tol * tol:
            out.pop()
        return tuple(out)

    left = dedupe(collect(kb, b, span_ba, a))
    right = dedupe(collect(ka, a, span_ab, b))
    if len(left) < 3 or len(right) < 3:
        raise GeometryError("chord split produced a degenerate component")
    return left, right


# Geometry that only the tests call, kept here verbatim from ``geom`` and
# ``cuts``.

def reflect_point(p: Point, mirror: Segment) -> Point:
    """Image of p under reflection across the supporting line of mirror."""
    ax, ay = mirror.a
    dx = mirror.b.x - ax
    dy = mirror.b.y - ay
    d2 = dx * dx + dy * dy
    if d2 <= TAU_ORIENT * TAU_ORIENT:
        raise GeometryError("cannot reflect across a degenerate mirror")
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / d2
    fx = ax + t * dx
    fy = ay + t * dy
    return Point(2.0 * fx - p[0], 2.0 * fy - p[1])


def chord_through_vertex(P: Polygon, vi: int, theta: Angle,
                         diagnostics: Optional[list] = None) -> ChordHit:
    """Maximal chord of P through vertex vi in direction theta.

    The chord is the connected component, around the vertex, of the line
    clipped to the polygon; when the line enters the interior on one side
    of the vertex only, the vertex itself is the other endpoint.  When
    the line meets a second vertex or runs along an edge the angle is
    perturbed by +1e-7 degrees for this query only; the perturbation is
    appended to ``diagnostics`` when given.
    """
    base = theta.degrees
    return settle_chord(P, vi, base, chords_at(P, (vi,), base)[0][0],
                        diagnostics)


def classify_vertex(P: Polygon, v, theta: Angle) -> VertexClass:
    """Color of vertex v against the directed line at angle theta.

    Red means both incident edges stay locally right of the line, Blue
    means left, Uncolored means they straddle it.  Boundary flags an
    incident edge parallel to theta, where the coloring is undefined.
    """
    if isinstance(v, int):
        vi = v % P.n
    else:
        vi = P.find_vertex(Point(v[0], v[1]))
        if vi is None:
            raise GeometryError(f"{v} is not a vertex of the polygon")
    r = theta.radians
    return _classify_direction(P, vi, math.cos(r), math.sin(r))


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


def left_region_contains(P: Polygon, cut: ThetaCut, p: Point) -> bool:
    """Whether p lies in the closed left region of the cut, within
    TAU_ONEDGE.

    p must lie in the closed polygon; asking about outside points is a
    contract violation and raises.
    """
    p = Point(p[0], p[1])
    if P.contains(p) < 0:
        raise GeometryError(f"point {tuple(p)} lies outside the polygon")
    return ring_contains(left_region(P, cut), p) >= 0
