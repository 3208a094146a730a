"""Independent checks for tours and brute-force reference minima.

Everything here is deliberately written against the problem statement
rather than against the solver: coverage is re-derived from raw cuts,
and the reference minimum first looks for one point in every cut's
closed left region, a tour of length 0, among the finitely many points
where such a point must exist if any does.  Only when there is none
does it discretize the gate chords.  With two gates the tour runs
there and back along one straight join, so the chord-sample pairs are
decided nearest first and the search stops at the first that stays
inside; otherwise, and when none of the nearest does, it builds one
segment mask per unordered pair of chords and runs a min-plus chain
product over candidate visiting orders.  numpy is confined to this
module.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .cuts import ThetaCut, compute_cuts, left_region
from .gates import compute_gates
from .geom import (
    TAU_ONEDGE,
    Angle,
    EventAngleError,
    GeometryError,
    Point,
    Polygon,
    Segment,
    normalize_deg,
    point_segment_distance,
    ring_contains,
    segment_segment_intersection,
)
from .sleeve import Tour
from .solver import solve_theta

PointLike = Union[Point, Tuple[float, float]]

# the most gates the reference searches; it tries (K - 1)!/2 orders
MAX_GATES = 4
# each tour edge is tested for leaving the polygon at the interior
# division points of this many equal parts
EDGE_SAMPLES = 16


@dataclass
class CutCoverage:
    cut: ThetaCut
    covered: bool
    violation: float


@dataclass
class ValidationReport:
    valid: bool
    violated_cuts: List[ThetaCut] = field(default_factory=list)
    max_violation: float = 0.0
    coverage: List[CutCoverage] = field(default_factory=list)
    messages: Tuple[str, ...] = ()


def _check_count(name: str, value) -> None:
    if not isinstance(value, numbers.Integral) or value < 2:
        raise GeometryError(f"{name} must be an integer >= 2, got {value!r}")


def _as_points(tour: Union[Tour, Sequence[PointLike]]) -> List[Point]:
    cycle = tour.cycle if isinstance(tour, Tour) else tour
    return [Point(float(p[0]), float(p[1])) for p in cycle]


def validate_tour(P: Polygon, theta: Union[Angle, float],
                  tour: Union[Tour, Sequence[PointLike]]) -> ValidationReport:
    """Check a closed tour stays inside P and covers every cut.

    A cut is covered when the tour meets the closed region left of the
    cut: some tour vertex lies in it, or some tour edge touches the
    chord.  Violations report the distance by which the tour misses the
    chord.  Each tour edge is tested for leaving P at its
    `EDGE_SAMPLES` − 1 interior division points.  Every test is made
    within TAU_ONEDGE.
    """
    ang = theta if isinstance(theta, Angle) else Angle(theta)
    pts = _as_points(tour)
    if not pts:
        raise GeometryError("empty tour")
    messages: List[str] = []
    for p in pts:
        if P.contains(p) < 0:
            raise GeometryError(
                f"tour vertex ({p.x:.6f},{p.y:.6f}) lies outside the polygon")
    m = len(pts)
    edges = [(pts[i], pts[(i + 1) % m]) for i in range(m)] if m > 1 else []
    inside = True
    for a, b in edges:
        for k in range(1, EDGE_SAMPLES):
            t = k / EDGE_SAMPLES
            q = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            if P.contains(q) < 0:
                inside = False
                messages.append(
                    f"tour edge leaves the polygon near ({q.x:.6f},{q.y:.6f})")
                break

    cuts = compute_cuts(P, ang)
    coverage: List[CutCoverage] = []
    violated: List[ThetaCut] = []
    worst = 0.0
    for c in cuts:
        ring = left_region(P, c)
        hit = any(ring_contains(ring, p) >= 0 for p in pts)
        if not hit:
            for a, b in edges:
                if segment_segment_intersection(a, b, c.chord.a,
                                                c.chord.b) is not None:
                    hit = True
                    break
        violation = 0.0
        if not hit:
            best = math.inf
            for p in pts:
                best = min(best, point_segment_distance(p, c.chord))
            for a, b in edges:
                leg = Segment(a, b)
                best = min(best, point_segment_distance(c.chord.a, leg),
                           point_segment_distance(c.chord.b, leg))
            violation = best
            worst = max(worst, violation)
            violated.append(c)
        coverage.append(CutCoverage(c, hit, violation))
    valid = inside and not violated
    return ValidationReport(valid, violated, worst, coverage, tuple(messages))


# ---------------------------------------------------------------------------
# discretized reference minimum


@dataclass
class ReferenceResult:
    length: float
    slack: float
    order: Tuple[int, ...]
    points: Tuple[Point, ...]


def _common_point(P: Polygon, cuts: Sequence[ThetaCut]) -> Optional[Point]:
    """A point in the closed left region of every cut, or None.

    Cuts at one angle are parallel chords that never cross, so when the
    regions share a point their intersection has a corner that is a
    polygon vertex or a chord end.  Those points are tried in that
    order, within `ring_contains`'s default tolerance of 1e-7, which is
    also `validate_tour`'s.  With no cuts the first polygon vertex is
    returned.
    """
    rings = [left_region(P, c) for c in cuts]
    for p in itertools.chain(P.vertices, (q for c in cuts for q in c.chord)):
        if all(ring_contains(ring, p) >= 0 for ring in rings):
            return p
    return None


def _grid_point(row: np.ndarray) -> Point:
    return Point(float(row[0]), float(row[1]))


def _chord_samples(cut: ThetaCut, m: int) -> np.ndarray:
    a, b = cut.chord.a, cut.chord.b
    t = np.linspace(0.0, 1.0, m)
    return np.stack([a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)], axis=1)


def _segment_mask(P: Polygon, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Which straight segments A[i] -> B[j] stay inside the polygon."""
    return _segments_inside(P, A[:, 0][:, None], A[:, 1][:, None],
                            B[:, 0][None, :], B[:, 1][None, :])


def _segments_inside(P: Polygon, Ax: np.ndarray, Ay: np.ndarray,
                     Bx: np.ndarray, By: np.ndarray) -> np.ndarray:
    """Which straight segments (Ax, Ay) -> (Bx, By) stay inside the
    polygon, over the broadcast shape of the four coordinate arrays.

    `_segment_mask` passes a column of A against a row of B to decide a
    grid; the two-gate search passes 1-D arrays of paired ends.  Every
    element runs the same arithmetic in either shape.

    A segment is refused when it properly crosses an edge, or when its
    midpoint lies outside the polygon and farther than 10·TAU_ONEDGE
    from every edge.  Edges that cannot change the mask are skipped,
    and each skip is exact for any set of segments, so the mask equals
    the one that tests every edge against every segment:

    - Crossing: a segment properly crosses edge k only where
      d1·d2 < −1e-12, with d1 and d2 its ends' sides of the edge.
      Rounded multiplication is monotone in each factor, so no product
      is below the smallest of the four products of the extremes of d1
      and d2; when that corner minimum is ≥ −1e-12 no segment crosses
      edge k and its o1/o2 work is skipped.
    - Ray cast: an edge toggles `inside` only where exactly one of its
      ends lies above the midpoint's y.  An edge with both ends above
      My.max(), or both at or below My.min(), toggles no midpoint.
    - Near: `ok &= inside | near` changes only the entries where ok
      holds and inside does not, so `near` is computed on those
      midpoints alone.
    """
    verts = np.array(P.vertices)
    n = len(verts)
    PX, PY = verts[:, 0], verts[:, 1]
    QX, QY = np.roll(PX, -1), np.roll(PY, -1)
    dx = Bx - Ax
    dy = By - Ay
    ok = np.ones(dx.shape, dtype=bool)
    # every end's side of every edge at once, one edge per leading row
    lead = (n,) + (1,) * dx.ndim
    px, py = PX.reshape(lead), PY.reshape(lead)
    ex, ey = QX.reshape(lead) - px, QY.reshape(lead) - py
    D1 = ex * (Ay - py) - ey * (Ax - px)
    D2 = ex * (By - py) - ey * (Bx - px)
    lo1, hi1 = D1.reshape(n, -1).min(axis=1), D1.reshape(n, -1).max(axis=1)
    lo2, hi2 = D2.reshape(n, -1).min(axis=1), D2.reshape(n, -1).max(axis=1)
    corner = np.minimum(np.minimum(lo1 * lo2, lo1 * hi2),
                        np.minimum(hi1 * lo2, hi1 * hi2))
    for k in np.flatnonzero(corner < -1e-12):
        px, py, qx, qy = PX[k], PY[k], QX[k], QY[k]
        o1 = dx * (py - Ay) - dy * (px - Ax)
        o2 = dx * (qy - Ay) - dy * (qx - Ax)
        proper = (D1[k] * D2[k] < -1e-12) & (o1 * o2 < -1e-12)
        ok &= ~proper
    # midpoints must not fall outside (catches segments through notches
    # that only touch the boundary at vertices)
    Mx = (Ax + Bx) / 2.0
    My = (Ay + By) / 2.0
    ylo, yhi = My.min(), My.max()
    inside = np.zeros(ok.shape, dtype=bool)
    level = ~(((PY > yhi) & (QY > yhi)) | ((PY <= ylo) & (QY <= ylo)))
    for k in np.flatnonzero(level):
        px, py, qx, qy = PX[k], PY[k], QX[k], QY[k]
        cond = (py > My) != (qy > My)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = px + (My - py) * (qx - px) / (qy - py)
        inside ^= cond & (Mx < xcross)
    # distance of the remaining midpoints to each edge
    open_ = ok & ~inside
    if not open_.any():
        return ok
    Mx = Mx[open_]
    My = My[open_]
    near = np.zeros(Mx.shape, dtype=bool)
    for k in range(n):
        px, py, qx, qy = PX[k], PY[k], QX[k], QY[k]
        ex = qx - px
        ey = qy - py
        L2 = ex * ex + ey * ey
        t = ((Mx - px) * ex + (My - py) * ey) / L2
        t = np.clip(t, 0.0, 1.0)
        ddx = Mx - (px + t * ex)
        ddy = My - (py + t * ey)
        near |= (ddx * ddx + ddy * ddy) <= (10 * TAU_ONEDGE) ** 2
    ok[open_] = near
    return ok


def _distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.hypot(A[:, 0][:, None] - B[:, 0][None, :],
                    A[:, 1][:, None] - B[:, 1][None, :])


def _nearest_inside(P: Polygon, A: np.ndarray, B: np.ndarray,
                    d: np.ndarray) -> Optional[Tuple[int, int]]:
    """The row-major-first (i, j) of least d[i, j] whose segment
    A[i] -> B[j] stays inside P, or None when none of about the nearest
    1,024 pairs does.

    Each round decides the pairs not yet decided whose distance is at
    most the one at a fixed rank: the least distance, then the 1,024th.
    A round that finds a segment inside has decided every pair at the
    least distance found, ties included, and every nearer pair before
    it, so its pick is the grid's.
    """
    flat = d.ravel()
    decided = -np.inf
    for rank in (0, 1023):
        rank = min(rank, flat.size - 1)
        t = np.partition(flat, rank)[rank] if rank else flat.min()
        sel = np.flatnonzero((flat > decided) & (flat <= t))
        decided = t
        if not sel.size:
            continue
        i, j = np.divmod(sel, d.shape[1])
        hit = sel[_segments_inside(P, A[i, 0], A[i, 1], B[j, 0], B[j, 1])]
        if hit.size:
            best = hit[np.argmin(flat[hit])]
            return divmod(int(best), d.shape[1])
    return None


def _minplus(D: np.ndarray, C: np.ndarray) -> np.ndarray:
    out = np.empty((D.shape[0], C.shape[1]))
    for i in range(D.shape[0]):
        out[i] = np.min(D[i][:, None] + C, axis=0)
    return out


def reference_min_tour(P: Polygon, theta: Union[Angle, float],
                       m: int = 200) -> ReferenceResult:
    """Brute-force near-optimal tour: a point tour if one exists, else
    the best tour through a grid on the gate chords.

    A point in every cut's closed left region is a tour of length 0.
    It is searched for exactly among the polygon vertices and chord
    ends (`_common_point`), without the gates or the solver, and
    returned as the one point of a `ReferenceResult` with length and
    slack 0 and an empty order.

    Otherwise touch points are restricted to a grid on each gate chord,
    and consecutive touch points join by straight segments that stay
    inside the polygon.  With two gates the tour is twice one join, so
    the sample pairs are decided in order of distance
    (`_nearest_inside`) and the nearest inside, the first in row-major
    order among equals, is the answer.  With more gates, or when none
    of about the nearest 1,024 pairs stays inside, each unordered pair
    of chords gets one mask, the reverse direction is its transpose,
    and all cyclic visiting orders are tried; two gates then give the
    same pick.  The result length is an upper bound on the true
    optimum; `slack` bounds how far above the optimum the grid
    restriction alone can push it.  `m`, the number of samples per
    chord, must be an integer ≥ 2.  More than `MAX_GATES` gates are
    refused.
    """
    _check_count("m", m)
    ang = theta if isinstance(theta, Angle) else Angle(theta)
    cuts = compute_cuts(P, ang)
    witness = _common_point(P, cuts)
    if witness is not None:
        return ReferenceResult(0.0, 0.0, (), (witness,))
    gates = compute_gates(P, cuts)
    K = len(gates)
    if K > MAX_GATES:
        raise GeometryError(f"reference oracle capped at {MAX_GATES} gates, "
                            f"got {K}")
    chords = [g.chord for g in gates]
    grids = [_chord_samples(g, m) for g in gates]
    slack = sum(c.length() / (m - 1) for c in chords)

    dists: dict = {}
    masks: dict = {}

    def cost(i: int, j: int) -> np.ndarray:
        # not recursive: a closure that calls itself is a reference cycle
        # and keeps its masks alive until the cyclic GC runs
        key = (min(i, j), max(i, j))
        if key not in masks:
            A, B = grids[key[0]], grids[key[1]]
            d = dists[key] if key in dists else _distances(A, B)
            mask = _segment_mask(P, A, B)
            masks[key] = np.where(mask, d, np.inf)
        return masks[key] if i < j else masks[key].T

    if K == 2:
        # the tour is d + d, so the grid's pick is the nearest pair
        d = dists[0, 1] = _distances(grids[0], grids[1])
        hit = _nearest_inside(P, grids[0], grids[1], d)
        if hit is not None:
            i, j = hit
            return ReferenceResult(float(d[i, j] + d[i, j]), slack, (0, 1),
                                   (_grid_point(grids[0][i]),
                                    _grid_point(grids[1][j])))

    seen = set()
    orders = []
    for rest in itertools.permutations(range(1, K)):
        o = (0,) + rest
        canon = min(o, (0,) + tuple(reversed(rest)))
        if canon not in seen:
            seen.add(canon)
            orders.append(o)

    best = math.inf
    best_order: Tuple[int, ...] = ()
    best_points: Tuple[Point, ...] = ()
    for order in orders:
        D = cost(order[0], order[1])
        trace = [D]
        for s in range(1, K - 1):
            D = _minplus(D, cost(order[s], order[s + 1]))
            trace.append(D)
        total = D + cost(order[K - 1], order[0]).T
        idx = np.unravel_index(np.argmin(total), total.shape)
        val = float(total[idx])
        if val < best:
            best = val
            best_order = order
            start, end = idx
            # recover intermediate touch points by backtracking
            picks = [int(end)]
            for s in range(K - 2, 0, -1):
                prev = trace[s - 1][start]
                step = cost(order[s], order[s + 1])[:, picks[-1]]
                picks.append(int(np.argmin(prev + step)))
            picks.append(int(start))
            picks.reverse()
            best_points = tuple(_grid_point(grids[order[s]][picks[s]])
                                for s in range(K))
    if math.isinf(best):
        raise GeometryError("no feasible straight-line tour on the grid")
    return ReferenceResult(best, slack, best_order, best_points)


# ---------------------------------------------------------------------------
# sweeps


def dense_sweep(P: Polygon,
                step_deg: float = 0.25) -> List[Tuple[float, float]]:
    """Solve on the grid k·`step_deg` over [0, 180), nudging off event
    angles.

    `step_deg` must be finite and positive, or the grid would never end.
    """
    if not (math.isfinite(step_deg) and step_deg > 0.0):
        raise GeometryError(
            f"step_deg must be finite and positive, got {step_deg!r}")
    out: List[Tuple[float, float]] = []
    k = 0
    while True:
        theta = k * step_deg
        if theta >= 180.0 - 1e-12:
            break
        length: Optional[float] = None
        for nudge in (0.0, 1e-5, -1e-5, 3e-5):
            try:
                res = solve_theta(P, Angle(theta + nudge))
                length = res.tour.length
                break
            except EventAngleError:
                continue
        if length is not None:
            out.append((normalize_deg(theta), length))
        k += 1
    return out

