"""Fixed-angle solver for shortest watchman tours under one direction.

Pipeline: cuts, gates, an early exit when a single point meets every
gate region, otherwise reduction, triangulation, and one sleeve
shortest-path per candidate start vertex.  The best folded tour wins;
ties go to the earliest candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .cuts import CutKind, ThetaCut, boundary_arc, compute_cuts, in_arc
from .gates import ReducedPolygon, compute_gates, reduce_polygon
from .geom import (
    TAU_ONEDGE,
    Angle,
    GeometryError,
    Point,
    Polygon,
    point_segment_distance,
    segment_segment_intersection,
)
from .sleeve import (
    Sleeve,
    Tour,
    TourTag,
    Triangulation,
    chord_tag,
    fold_back,
    shortest_path,
    triangulate,
    unroll,
)


@dataclass
class MaximalMovingSubpath:
    """Run of moving tour vertices between stable anchors.

    ``indices`` are positions in the tour cycle; for non-cyclic subpaths
    they start and end at the bounding stable vertices.  A tour with no
    stable vertex yields one subpath flagged cyclic.
    """

    indices: Tuple[int, ...]
    moving_indices: Tuple[int, ...]
    gates: Tuple[ThetaCut, ...]
    cyclic: bool

    @property
    def moving_count(self) -> int:
        return len(self.moving_indices)


@dataclass
class SolveResult:
    """A solve's tour and what its callers read of how it was found.

    ``rivals`` holds the tour folded from each candidate start vertex,
    in the order tried, each starting at its candidate; ``tour`` is one
    of them, or the point tour when there are none.  ``common_point``
    is that point when one lies in every gate's region.  The reduced
    polygon, its triangulation and the candidates live only while the
    solve runs; ``reduce_polygon``, ``triangulate`` and
    ``_candidate_indices`` rebuild them from ``gates`` and ``theta``.
    """

    tour: Tour
    cuts: Tuple[ThetaCut, ...]
    gates: Tuple[ThetaCut, ...]
    theta: Angle
    diagnostics: Tuple[str, ...]
    common_point: Optional[Point] = None
    rivals: Tuple[Tour, ...] = ()


def _gate_key(g: ThetaCut) -> Tuple[int, int]:
    return (g.vertex_index, 0 if g.kind is CutKind.FORWARD else 1)


def _lowest_leftmost_index(P: Polygon) -> int:
    best = 0
    for i, p in enumerate(P.vertices):
        q = P.vertices[best]
        if (p.y, p.x) < (q.y, q.x):
            best = i
    return best


def _common_tour_point(P: Polygon, gates: Sequence[ThetaCut]
                       ) -> Optional[Tuple[Point, ThetaCut]]:
    """A point of some gate chord lying in every other gate's region,
    with the gate whose chord it was taken from.

    Candidates on each chord are its midpoint and every gate chord end
    on it, its own two included; the first gate owning a feasible
    candidate wins, closest to its vertex end first.  A chord end is
    placed by its boundary key, the midpoint by both keys of its chord.
    """
    arcs = [boundary_arc(P, g) for g in gates]

    def in_all_others(keys: Tuple[float, ...], skip: int) -> bool:
        return all(in_arc(k, arc, P.n) for j, arc in enumerate(arcs)
                   if j != skip for k in keys)

    for gi, g in enumerate(gates):
        cands = [(g.chord.midpoint(), arcs[gi], g)]
        for h, (kb, ka) in zip(gates, arcs):
            for q, k in ((h.chord.a, ka), (h.chord.b, kb)):
                if point_segment_distance(q, g.chord) <= TAU_ONEDGE:
                    cands.append((Point(q[0], q[1]), (k,), h))
        feasible = [(q, h) for q, keys, h in cands if in_all_others(keys, gi)]
        if feasible:
            v = g.vertex
            return min(feasible, key=lambda qh: math.dist(qh[0], v))
    return None


def _arc_interior(rp: ReducedPolygon, e_from: int, e_to: int) -> List[int]:
    m = rp.polygon.n
    gap = (e_to - (e_from + 1)) % m
    return [(e_from + 1 + t) % m for t in range(1, gap)]


def _same_color_picks(rp: ReducedPolygon) -> List[int]:
    """Per boundary arc between same-colored adjacent gates, the reflex
    vertex of the source polygon farthest to the cut's left side."""
    ess = rp.essential
    poly = rp.polygon
    reflex = set(rp.source.reflex_indices)
    picks: List[int] = []
    for (ei, gi), (ej, gj) in zip(ess, ess[1:] + ess[:1]):
        if gi.color is not gj.color:
            continue
        interior = _arc_interior(rp, ei, ej)
        if not interior:
            continue
        d = gi.direction()
        nx, ny = -d.y, d.x

        # only a source vertex can be reflex; a far end's origin is a gate
        pool = [idx for idx in interior
                if not isinstance(rp.origins[idx], ThetaCut)
                and rp.origins[idx] in reflex]
        if not pool:
            pool = interior
        best = pool[0]
        best_s = poly.vertices[best].x * nx + poly.vertices[best].y * ny
        for idx in pool[1:]:
            s = poly.vertices[idx].x * nx + poly.vertices[idx].y * ny
            if s > best_s + TAU_ONEDGE:
                best, best_s = idx, s
        picks.append(best)
    return picks


def _sleeve_path(rp: ReducedPolygon, tri: Triangulation, vi: int,
                 sleeve_cache: dict) -> Tuple[Sleeve, Tuple[Point, ...]]:
    """The sleeve from vertex vi and its taut path, built once per solve."""
    hit = sleeve_cache.get(vi)
    if hit is None:
        sleeve = unroll(rp, tri, vi)
        hit = sleeve_cache[vi] = (sleeve, shortest_path(sleeve))
    return hit


def _candidate_indices(rp: ReducedPolygon, tri: Triangulation,
                       sleeve_cache: dict) -> List[int]:
    poly = rp.polygon
    k = len(rp.essential)
    if k < 2:
        raise GeometryError("candidate generation needs at least two "
                            "essential edges")

    colors = {g.color for _, g in rp.essential}
    if k == 2 and len(colors) == 1:
        picks = _same_color_picks(rp)
        if len(picks) == 2:
            return _dedupe(picks)

    # in canonical gate order, each gate's two chord ends: its essential
    # edge joins them, and the vertex end is the one whose origin is the
    # gate's vertex
    m = poly.n
    out: List[int] = []
    for ei, g in sorted(rp.essential, key=lambda pair: _gate_key(pair[1])):
        a, b = ei, (ei + 1) % m
        out.extend((a, b) if rp.origins[a] == g.vertex_index else (b, a))
    # copy 0 of a sleeve holds the reduced vertices themselves
    index = {p: i for i, p in enumerate(poly.vertices)}
    # last bend of each endpoint's taut path before it first leaves copy 0
    for vi in list(out):
        extra = _last_vertex_before_first_mirror(
            *_sleeve_path(rp, tri, vi, sleeve_cache))
        if extra is not None:
            wi = index.get(extra)
            if wi is not None:
                out.append(wi)
    if k >= 3:
        out.extend(_same_color_picks(rp))
    return _dedupe(out)


def _key_less(a: Sequence[Point], b: Sequence[Point]) -> bool:
    """Whether cycle a sorts before cycle b by their coordinates rounded to
    nine decimals, compared point by point."""
    for p, q in zip(a, b):
        kp = (round(p[0], 9), round(p[1], 9))
        kq = (round(q[0], 9), round(q[1], 9))
        if kp != kq:
            return kp < kq
    return len(a) < len(b)


def beats(length: float, cycle: Sequence[Point], best_length: float,
          best_cycle: Sequence[Point]) -> bool:
    """Whether a candidate tour replaces the best one so far.

    It must be shorter by more than a tie of 1e-9 * (1 + length), or
    within the tie with the smaller canonical key, so that exact ties
    (symmetric polygons) go to a stable function of theta rather than
    to float noise.
    """
    tie = 1e-9 * (1.0 + min(length, best_length))
    if length < best_length - tie:
        return True
    return length < best_length + tie and _key_less(cycle, best_cycle)


def _dedupe(seq: Sequence[int]) -> List[int]:
    seen = set()
    out = []
    for x in seq:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def _last_vertex_before_first_mirror(sleeve: Sleeve,
                                     path: Tuple[Point, ...]) -> Optional[Point]:
    if len(path) < 2 or not sleeve.mirrors:
        return None
    mirror = sleeve.mirrors[0]
    for j in range(len(path) - 1):
        x = segment_segment_intersection(path[j], path[j + 1],
                                         mirror.a, mirror.b)
        if x is None:
            continue
        if j == 0:
            d2 = (x[0] - path[0][0]) ** 2 + (x[1] - path[0][1]) ** 2
            if d2 <= TAU_ONEDGE * TAU_ONEDGE:
                return None  # crossing starts at the source itself
            return path[0]
        return path[j]
    return None


def solve_theta(P: Polygon, theta) -> SolveResult:
    """Shortest watchman tour of P for lines of direction theta.

    Raises EventAngleError at validity and domination angles, where the
    combinatorial structure is ambiguous.
    """
    if not isinstance(theta, Angle):
        theta = Angle(float(theta))
    diag: List[str] = []
    cuts = tuple(compute_cuts(P, theta, diag))

    if not cuts:
        vi = _lowest_leftmost_index(P)
        pt = P.vertices[vi]
        tour = Tour((pt,), (TourTag("stable", vertex_index=vi),), 0.0, theta)
        return SolveResult(tour, (), (), theta, tuple(diag))

    gates = tuple(compute_gates(P, cuts))
    if not gates:
        raise GeometryError("cuts exist but no gate was selected")

    found = _common_tour_point(P, gates)
    if found is not None:
        common, owner = found
        tour = Tour((common,), (chord_tag(common, owner),), 0.0, theta)
        return SolveResult(tour, cuts, gates, theta, tuple(diag),
                           common_point=common)

    rp = reduce_polygon(P, gates, theta)
    tri = triangulate(rp)
    sleeve_cache: dict = {}
    cand = _candidate_indices(rp, tri, sleeve_cache)

    best: Optional[Tour] = None
    rivals: List[Tour] = []
    for vi in cand:
        tour = fold_back(*_sleeve_path(rp, tri, vi, sleeve_cache))
        rivals.append(tour)
        if best is None or beats(tour.length, tour.cycle, best.length,
                                 best.cycle):
            best = tour
    if best is None:
        raise GeometryError("no candidate produced a tour")
    decompose_subpaths(best)  # refuses a tour that breaks persistence
    return SolveResult(best, cuts, gates, theta, tuple(diag),
                       rivals=tuple(rivals))


def decompose_subpaths(tour: Tour) -> List[MaximalMovingSubpath]:
    """Maximal runs of moving vertices, validated against persistence.

    Each subpath carries at most three moving vertices and consecutive
    moving vertices touch gates of different colors; violations raise
    GeometryError since downstream perturbation arguments rely on them.
    """
    n = len(tour.cycle)
    moving = [i for i, t in enumerate(tour.tags) if t.kind == "moving"]
    if not moving:
        return []
    stable = [i for i, t in enumerate(tour.tags) if t.kind == "stable"]

    def check(sub: MaximalMovingSubpath) -> MaximalMovingSubpath:
        if sub.moving_count > 3:
            raise GeometryError(
                f"moving subpath with {sub.moving_count} vertices exceeds "
                "the persistence bound of 3")
        gs = sub.gates
        pairs = list(zip(gs, gs[1:]))
        if sub.cyclic and len(gs) > 1:
            pairs.append((gs[-1], gs[0]))
        for a, b in pairs:
            if a.color is b.color:
                raise GeometryError(
                    "consecutive moving vertices share the gate color "
                    f"{a.color.value}; persistence structure violated")
        return sub

    if not stable:
        gs = tuple(tour.tags[i].gate for i in moving)
        return [check(MaximalMovingSubpath(tuple(range(n)), tuple(moving),
                                           gs, True))]

    out: List[MaximalMovingSubpath] = []
    for si, s in enumerate(stable):
        nxt = stable[(si + 1) % len(stable)]
        idxs = [s]
        j = (s + 1) % n
        movings = []
        while j != nxt:
            idxs.append(j)
            if tour.tags[j].kind == "moving":
                movings.append(j)
            j = (j + 1) % n
        idxs.append(nxt)
        if movings:
            gs = tuple(tour.tags[i].gate for i in movings)
            out.append(check(MaximalMovingSubpath(tuple(idxs), tuple(movings),
                                                  gs, False)))
    return out
