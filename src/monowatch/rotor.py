"""Rotating sweep: find the direction whose watchman tour is shortest.

Candidate event angles (validity and vertex-pair alignments) cut
[0, 180) into intervals.  Inside each interval the tour structure is
expected to persist; samples are screened for hidden structure changes
(Cuddle and Bending events) and length jumps, which are bisected down
to events of their own.

The scan treats a full solve as a kinetic data structure: the solve is
frozen, with its tour and every candidate tour it compared, and later
samples are closed-form evaluations on it.  Each evaluation checks
certificates that fail where the solve's tags would change (see
``evaluate_close_tour``); an angle where no frozen structure holds is
solved in full and frozen in turn.  So an event-free interval costs one
full solve, plus one audit solve at its last sample that must match the
frozen signature and length; a mismatch, noted in the report, has the
same scan and bisection run over the interval again with every angle
solved in full.

The scan records each local minimum of a clean interval as a bracket
together with the structure its sample was evaluated on.  Once every
interval is scanned, a flat zero-length interval, if any exists, wins
outright: flat intervals compete by width with the midpoint as
representative and no bracket is refined.  Otherwise each bracket gets
a golden-section search on the same certified structures, solving in
full where none holds, and keeps the length read at its argmin.  Only
the best candidate is confirmed by a full solve; one that disagrees is
noted and replaced by the solve's length, and the best is picked again.

How densely the sweep samples is fixed by four constants:
SAMPLES_PER_INTERVAL, GRID_FALLBACK_STEP_DEG, JUMP_THRESHOLD and
REFINE_TOL_DEG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .cuts import VertexClass, _classify_direction
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
    segments_properly_cross,
)
from .kinetic import (
    EventType,
    FrozenStructure,
    StructureInfeasibleError,
    evaluate_close_tour,
    freeze_structure,
    structure_signature,
)
from .sleeve import Tour
from .solver import SolveResult, solve_theta

# angular tolerance for merging event angles into interval boundaries
ANGLE_MERGE_DEG = 1e-9
# probe offset used when classifying a pair alignment
CLASSIFY_PROBE_DEG = 1e-6
# angles this close to a candidate event count as the event itself: the
# CLI refuses to solve there, and a detected event this close to an
# enumerated one restates it
EVENT_WINDOW_DEG = 1e-3
# most samples an event-free interval is scanned with
SAMPLES_PER_INTERVAL = 64
# widest spacing of an interval's samples, unless that would take more
# than SAMPLES_PER_INTERVAL of them
GRID_FALLBACK_STEP_DEG = 0.05
# largest length change between neighbouring samples, per unit of
# 1 + diameter, that is not bisected as an event
JUMP_THRESHOLD = 0.05
# width to which a bisected event and a refined minimum are narrowed;
# an interval no wider is solved once at its midpoint
REFINE_TOL_DEG = 1e-6


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
class SweepReport:
    best_theta: Angle
    best_length: float
    best_tour: Tour
    events: Tuple[Event, ...]
    samples: Tuple[Tuple[float, float], ...]
    intervals: Tuple[Tuple[float, float], ...]
    diagnostics: Tuple[str, ...] = ()


def _segment_visible(P: Polygon, i: int, j: int) -> bool:
    """Whether the segment from vertex i to vertex j stays in P.

    It must cross no edge properly.  A segment can still leave P where
    it passes through a vertex, so it is split at every vertex within
    TAU_ONEDGE of it and the midpoint of each piece must lie in P.
    """
    n = P.n
    a = P.vertices[i]
    b = P.vertices[j]
    for e in range(n):
        if e == i or (e + 1) % n == i or e == j or (e + 1) % n == j:
            continue
        if segments_properly_cross(a, b, P.vertices[e], P.vertices[(e + 1) % n]):
            return False
    seg = Segment(a, b)
    dx, dy = b.x - a.x, b.y - a.y
    ts = sorted([0.0, 1.0] + [
        ((v.x - a.x) * dx + (v.y - a.y) * dy) / (dx * dx + dy * dy)
        for k, v in enumerate(P.vertices)
        if k != i and k != j and point_segment_distance(v, seg) <= TAU_ONEDGE])
    return all(P.contains(Point(a.x + 0.5 * (s + t) * dx,
                                a.y + 0.5 * (s + t) * dy)) >= 0
               for s, t in zip(ts, ts[1:]))


def _classify_pair(P: Polygon, ui: int, wi: int, ang: float) -> EventType:
    for probe in (ang + CLASSIFY_PROBE_DEG, ang - CLASSIFY_PROBE_DEG):
        r = math.radians(probe)
        cu = _classify_direction(P, ui, math.cos(r), math.sin(r))
        cw = _classify_direction(P, wi, math.cos(r), math.sin(r))
        if VertexClass.BOUNDARY in (cu, cw):
            continue
        if {cu, cw} - {VertexClass.RED, VertexClass.BLUE}:
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


def _solve_robust(P: Polygon, ang_deg: float) -> Optional[SolveResult]:
    for nudge in (0.0, 1e-7, -1e-7, 5e-7):
        try:
            return solve_theta(P, Angle(ang_deg + nudge))
        except EventAngleError:
            continue
    return None


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
class _Frozen:
    """A structure frozen from a full solve at sweep angle x.

    x is the angle the solve actually ran at, kept on the sweep's
    unwrapped scale (plus any nudge ``_solve_robust`` applied) so that
    offsets from it stay small across the 180 seam.
    """

    x: float
    S: FrozenStructure
    sig: tuple

    def length(self, x: float) -> float:
        return evaluate_close_tour(self.S, x - self.x)


def _frozen_at(P: Polygon, x: float, res: SolveResult) -> _Frozen:
    return _Frozen(x + math.remainder(res.theta.degrees - x, 180.0),
                   freeze_structure(P, res), structure_signature(res))


class _Structures:
    """The structures frozen so far in one scan or one refinement.

    An angle is evaluated on the structure frozen nearest to it whose
    certificates hold there; where none holds, it is solved in full and
    the structure frozen there joins the others.
    """

    def __init__(self, P: Polygon, frozen: Sequence[_Frozen] = ()):
        self.P = P
        self.frozen = list(frozen)

    def at(self, x: float):
        """(structure, length, refusal) at x, or None if x is unsolvable.

        refusal is the nearest structure's failed certificate when x had
        to be solved in full, else None.
        """
        refusal = None
        for fz in sorted(self.frozen, key=lambda f: abs(f.x - x)):
            try:
                return fz, fz.length(x), None
            except StructureInfeasibleError as exc:
                refusal = refusal or exc
        r = _solve_robust(self.P, x)
        if r is None:
            return None
        fz = _frozen_at(self.P, x, r)
        self.frozen.append(fz)
        return fz, r.tour.length, refusal


class _Solves(_Structures):
    """Structures that solve every angle in full, trusting no frozen one.

    The scan runs on these where an audit solve disagrees with the
    frozen structures.
    """

    def at(self, x: float):
        r = _solve_robust(self.P, x)
        if r is None:
            return None
        return _frozen_at(self.P, x, r), r.tour.length, None


@dataclass
class _ScanState:
    detected: List[Event] = field(default_factory=list)
    samples: List[Tuple[float, float]] = field(default_factory=list)
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    candidates: List[Tuple[float, float]] = field(default_factory=list)
    flats: List[Tuple[float, float]] = field(default_factory=list)
    # local minima left for refinement: (a, b, structure read there)
    brackets: List[Tuple[float, float, _Frozen]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


def _crossed_vertex(n: int, e_old: int, e_new: int) -> Optional[int]:
    """Boundary vertex a sliding chord endpoint crossed between two edges."""
    if (e_old + 1) % n == e_new:
        return e_new
    if (e_new + 1) % n == e_old:
        return e_old
    return None


def _classify_split(P: Polygon, sa: tuple, sb: tuple) -> EventType:
    """The event between two structure signatures."""
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


def _refine_minimum(P: Polygon, a: float, b: float, start: _Frozen,
                    notes: List[str]) -> Optional[Tuple[float, float]]:
    """Golden-section minimum over (a, b) on the structures frozen in it.

    The search starts with the structure start and evaluates each angle
    as ``_Structures.at`` does; an angle solved in full is noted with
    the certificate that refused it.  The argmin is read the same way,
    so its length is certified, or a full solve's where no structure
    holds; ``_sweep`` confirms only the winner by a full solve.  Returns
    None if the argmin is unsolvable.
    """
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    bracket = f"bracket ({a:.6f}, {b:.6f}) deg"
    known = _Structures(P, [start])

    def f(x: float) -> float:
        hit = known.at(x)
        if hit is None:
            return math.inf
        _, length, refusal = hit
        if refusal is not None:
            notes.append(f"frozen refine on {bracket} fell back to a full "
                         f"solve at {x:.6f}: {refusal}")
        return length

    x1 = b - gr * (b - a)
    x2 = a + gr * (b - a)
    f1, f2 = f(x1), f(x2)
    iters = 0
    while b - a > REFINE_TOL_DEG and iters < 80:
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
    length = f(x)
    if length == math.inf:
        return None
    return (x, length)


def _bisect_change(P: Polygon, known: _Structures, a: float, fa: _Frozen,
                   b: float, fb: _Frozen
                   ) -> Tuple[float, EventType, Tuple[int, ...]]:
    """Narrow a structure change between a and b down to an event.

    Each midpoint is read as ``known.at`` reads it, and its signature
    decides which half keeps the change.  The event's type and witness
    come from the certificate the lower structure fails at the upper
    end; a certificate that names no type leaves it to the signatures on
    either side.
    """
    lo, hi = a, b
    f_lo, f_hi = fa, fb
    while hi - lo > REFINE_TOL_DEG:
        mid = 0.5 * (lo + hi)
        hit = known.at(mid)
        if hit is None:
            break
        if hit[0].sig == fa.sig:
            lo, f_lo = mid, hit[0]
        else:
            hi, f_hi = mid, hit[0]
    witness: Tuple[int, ...] = ()
    try:
        f_lo.length(hi)
    except StructureInfeasibleError as exc:
        if exc.event_type is not None:
            return 0.5 * (lo + hi), exc.event_type, exc.witness
        witness = exc.witness
    return 0.5 * (lo + hi), _classify_split(P, f_lo.sig, f_hi.sig), witness


def _scan_interval(P: Polygon, lo: float, hi: float, depth: int, state: _ScanState,
                   known: Optional[_Structures] = None) -> None:
    """Sample one event-free interval on certified frozen structures.

    Each sample is evaluated as ``known.at`` does, on the structures
    handed down from the scan that split this interval off; the first
    sample with none of them holding is solved in full.  Two
    neighbouring samples whose signatures differ, or whose lengths jump,
    are narrowed by ``_bisect_change`` to a detected event, and both
    sides are scanned again with the same structures.  A clean interval
    ends with an audit solve at its last sample, unless that sample was
    solved in full already; a signature or length other than the frozen
    one there has the interval scanned again on ``_Solves``, which
    solves every angle in full and is audited no further.
    """
    width = hi - lo
    if width <= max(REFINE_TOL_DEG, 10 * ANGLE_MERGE_DEG) or depth > 6:
        mid = 0.5 * (lo + hi)
        r = _solve_robust(P, mid)
        if r is not None:
            state.samples.append((normalize_deg(mid), r.tour.length))
            state.candidates.append((mid, r.tour.length))
        state.intervals.append((lo, hi))
        return

    delta = min(1e-4, width / 100.0)
    n = int(min(SAMPLES_PER_INTERVAL,
                max(8, math.ceil(width / GRID_FALLBACK_STEP_DEG) + 1)))
    xs = [lo + delta + i * (width - 2 * delta) / (n - 1) for i in range(n)]
    if known is None:
        known = _Structures(P)
    pts = [(x, hit[0], hit[1]) for x, hit in ((x, known.at(x)) for x in xs)
           if hit is not None]
    if not pts:
        state.intervals.append((lo, hi))
        state.notes.append(f"interval ({lo:.6f},{hi:.6f}) unsolvable")
        return
    jump_cap = JUMP_THRESHOLD * (1.0 + P.diameter)

    for (x, f, L), (y, g, M) in zip(pts, pts[1:]):
        if f.sig != g.sig or abs(M - L) > jump_cap:
            ang, etype, witness = _bisect_change(P, known, x, f, y, g)
            state.detected.append(Event(Angle(ang), etype, witness))
            _scan_interval(P, lo, ang, depth + 1, state, known)
            _scan_interval(P, ang, hi, depth + 1, state, known)
            return

    x, f, L = pts[-1]
    if f.x != x and not isinstance(known, _Solves):
        audit = _solve_robust(P, x)
        if audit is None:
            why = "is unsolvable"
        elif structure_signature(audit) != f.sig:
            why = "gives another signature than the frozen structure"
        elif abs(audit.tour.length - L) > 1e-9 * (1.0 + L):
            why = (f"gives length {audit.tour.length:.9f} where the frozen "
                   f"structure gives {L:.9f}")
        else:
            why = None
        if why is not None:
            state.notes.append(
                f"interval ({lo:.6f},{hi:.6f}): the audit solve at "
                f"{x:.6f} deg {why}; changes located by full solves")
            _scan_interval(P, lo, hi, depth, state, _Solves(P))
            return
    _record_clean(lo, hi, delta, pts, state)


def _record_clean(lo: float, hi: float, delta: float,
                  pts: Sequence[Tuple[float, _Frozen, float]],
                  state: _ScanState) -> None:
    """Keep a clean interval's samples, and its flat or its minima.

    Each sample is (angle, structure read there, length); every local
    minimum becomes a bracket between its neighbours.
    """
    state.intervals.append((lo, hi))
    state.samples.extend((normalize_deg(x), L) for x, _, L in pts)
    lens = [L for _, _, L in pts]
    if all(L <= 1e-12 for L in lens):
        state.flats.append((hi - lo, normalize_deg(0.5 * (lo + hi))))
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
        state.brackets.append((a, b, pts[i][1]))


def _solve_at(P: Polygon, theta: float) -> Optional[SolveResult]:
    """A full solve at theta, else 1e-5 degrees past it, else None."""
    res = _solve_robust(P, theta)
    return res if res is not None else _solve_robust(P, theta + 1e-5)


def _confirm(P: Polygon, candidates: Sequence[Tuple[float, float]],
             notes: List[str]) -> Tuple[float, SolveResult]:
    """The best candidate angle, confirmed by a full solve there.

    The best is the smallest normalized angle among the candidates
    within the tie of ``beats`` of the shortest, so that a plateau of
    equal tours gives an angle that float noise does not pick.  A full
    solve whose length differs from the candidate's by more than that
    tie replaces it, with a note, and the choice is made again.
    """
    lengths = [L for _, L in candidates]
    solved = {}
    while True:
        low = min(lengths)
        if low == math.inf:
            raise GeometryError("best angle is unsolvable")
        tie = 1e-9 * (1.0 + low)
        i = min((i for i, L in enumerate(lengths) if L < low + tie),
                key=lambda i: normalize_deg(candidates[i][0]))
        x, L = candidates[i][0], lengths[i]
        if i in solved:
            return x, solved[i]
        theta = normalize_deg(x)
        res = solved[i] = _solve_at(P, theta)
        full = math.inf if res is None else res.tour.length
        if abs(full - L) <= 1e-9 * (1.0 + L):
            return x, res
        notes.append(f"the full solve at {theta:.6f} deg gives length "
                     f"{full:.9f} where the sweep read {L:.9f}; the best "
                     f"angle is picked again")
        lengths[i] = full


def _sweep(P: Polygon, spans: Sequence[Tuple[float, float]]
           ) -> Tuple[_ScanState, float, float, Optional[SolveResult]]:
    """Scan every span, then refine; returns the best angle and length
    with the full solve that confirmed them.

    A flat interval always wins, so the brackets are refined only when
    the scan found none; its midpoint is returned with length 0 and no
    solve.  Otherwise ``_confirm`` picks the best candidate.
    """
    state = _ScanState()
    for lo, hi in spans:
        _scan_interval(P, lo, hi, 0, state)
    if state.flats:
        _, mid = max(state.flats)
        return state, mid, 0.0, None
    for a, b, start in state.brackets:
        refined = _refine_minimum(P, a, b, start, state.notes)
        if refined is not None:
            state.candidates.append(refined)
    if not state.candidates:
        raise GeometryError("no solvable angle in the sweep")
    theta, res = _confirm(P, state.candidates, state.notes)
    return state, theta, res.tour.length, res


def _merge_detected(base: Sequence[Event],
                    detected: Sequence[Event]) -> List[Event]:
    """Combine enumerated and detected events for the report.

    Detected events are numeric discoveries; one within half the
    refusal window of an already known angle restates that event and is
    dropped.  Enumerated events keep their multiplicity untouched.
    """
    merged = list(base)
    window = 0.5 * EVENT_WINDOW_DEG
    for ev in sorted(detected, key=Event.sort_key):
        a = ev.angle.degrees
        if all(min(d, 180.0 - d) > window
               for d in (abs(kept.angle.degrees - a) for kept in merged)):
            merged.append(ev)
    merged.sort(key=Event.sort_key)
    return merged


def optimize(P: Polygon) -> SweepReport:
    """Sweep all directions and return the best angle with its tour.

    Flat zero-length stretches win by width, represented by their
    midpoint; otherwise the refined global minimum wins.  The report
    carries every event (enumerated and detected), the per-interval
    samples, and the final event-free intervals.
    """
    base_events = enumerate_candidate_events(P)
    state, best_theta, _, best = _sweep(P, _interval_list(P, base_events))
    best_theta = normalize_deg(best_theta)
    if best is None:
        best = _solve_at(P, best_theta)
    if best is None:
        raise GeometryError("best angle is unsolvable")

    events = _merge_detected(base_events, state.detected)
    samples = tuple(sorted(state.samples))
    intervals = tuple(sorted(state.intervals))
    return SweepReport(Angle(best_theta), best.tour.length, best.tour,
                       tuple(events), samples, intervals,
                       tuple(state.notes))
