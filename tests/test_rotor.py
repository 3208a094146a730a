import collections
import math
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Sequence, Tuple

import pytest

from monowatch import (Angle, EventAngleError, GeometryError, kinetic, rotor,
                       solve_theta)
from monowatch.cuts import color_of_sides
from monowatch.geom import TAG_TOL, TAU_ORIENT, Point, Segment, normalize_deg
from monowatch.oracle import dense_sweep, validate_tour
from monowatch.kinetic import (
    EventType,
    FrozenAnchor,
    FrozenStructure,
    StructureInfeasibleError,
    _caught_by,
    _certificate,
    _Cycle,
    _unfold,
    _wraps,
    evaluate_close_tour,
    freeze_structure,
)
from monowatch.solver import beats
from monowatch.rotor import (
    ANGLE_MERGE_DEG,
    Event,
    enumerate_candidate_events,
    optimize,
    structure_signature,
)

from conftest import (
    DOUBLE_PTS,
    SPIRAL_PTS,
    SQUARE_PTS,
    UNOTCH_PTS,
    comb,
    corpus_polygon,
    inputs,
    make_polygon,
    notched_polygon,
    spiral_corridor,
)
from test_acceptance import SWEEP_JIT_SEEDS, SWEEP_NOTCH_SEEDS

# best tour lengths of spiral-corridor seeds 0-7, all positive, as the
# full-solve scan (``_reference_scan``) and its refinement found them
SPIRAL_BEST = {0: 32.00004204900216, 1: 12.167388781825078,
               2: 12.118853679525888, 3: 32.00980913569557,
               4: 12.01312209914476, 5: 31.543325506678674,
               6: 32.82385748514271, 7: 32.05186086124718}


# ---------------------------------------------------------------------------
# reference: the interval scan that solved every sample in full


@dataclass
class _RefState:
    detected: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    intervals: list = field(default_factory=list)
    candidates: list = field(default_factory=list)
    flats: list = field(default_factory=list)
    brackets: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _reference_bisect(P, a, res_a, b, res_b):
    sig_a = structure_signature(res_a)
    lo, hi = a, b
    res_lo, res_hi = res_a, res_b
    while hi - lo > rotor.REFINE_TOL_DEG:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats; tol is below their spacing
        r = rotor._solve_robust(P, mid)
        if r is None:
            break
        if structure_signature(r) == sig_a:
            lo, res_lo = mid, r
        else:
            hi, res_hi = mid, r
    return 0.5 * (lo + hi), rotor._classify_split(
        P, structure_signature(res_lo), structure_signature(res_hi))


def _reference_scan(P, lo, hi, depth, state):
    width = hi - lo
    if width <= max(rotor.REFINE_TOL_DEG, 10 * ANGLE_MERGE_DEG) or depth > 6:
        mid = 0.5 * (lo + hi)
        r = rotor._solve_robust(P, mid)
        if r is not None:
            state.samples.append((normalize_deg(mid), r.tour.length))
            state.candidates.append((mid, r.tour.length))
        state.intervals.append((lo, hi))
        return

    delta = min(1e-4, width / 100.0)
    n = int(min(rotor.SAMPLES_PER_INTERVAL,
                max(8, math.ceil(width / rotor.GRID_FALLBACK_STEP_DEG) + 1)))
    xs = [lo + delta + i * (width - 2 * delta) / (n - 1) for i in range(n)]
    solved = [(x, rotor._solve_robust(P, x)) for x in xs]
    pts = [(x, r) for x, r in solved if r is not None]
    if not pts:
        state.intervals.append((lo, hi))
        state.notes.append(f"interval ({lo:.6f},{hi:.6f}) unsolvable")
        return
    sigs = [structure_signature(r) for _, r in pts]
    lens = [r.tour.length for _, r in pts]
    jump_cap = rotor.JUMP_THRESHOLD * (1.0 + P.diameter)

    for i in range(len(pts) - 1):
        if sigs[i] != sigs[i + 1] or abs(lens[i + 1] - lens[i]) > jump_cap:
            ang, etype = _reference_bisect(P, pts[i][0], pts[i][1],
                                           pts[i + 1][0], pts[i + 1][1])
            state.detected.append(Event(Angle(ang), etype))
            _reference_scan(P, lo, ang, depth + 1, state)
            _reference_scan(P, ang, hi, depth + 1, state)
            return

    state.intervals.append((lo, hi))
    state.samples.extend((normalize_deg(x), r.tour.length) for x, r in pts)
    if all(L <= 1e-12 for L in lens):
        state.flats.append((width, normalize_deg(0.5 * (lo + hi))))
        state.candidates.append((0.5 * (lo + hi), 0.0))
        return

    minima = []
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


def _reference_sweep(P):
    """The reference scan over every event-free interval, then the best
    length: a flat interval wins, else each bracket is refined."""
    state = _RefState()
    spans = rotor._interval_list(P, enumerate_candidate_events(P))
    for lo, hi in spans:
        _reference_scan(P, lo, hi, 0, state)
    if state.flats:
        return state, 0.0
    for a, b, x0, res0 in state.brackets:
        got = rotor._refine_minimum(P, a, b, rotor._frozen_at(P, x0, res0),
                                    [])
        if got is not None:
            state.candidates.append(got)
    return state, min(L for _, L in state.candidates)


# ---------------------------------------------------------------------------
# reference: the frozen evaluator that rebuilt each rival's pinned list,
# runs and checks on every call


def _reference_far_endpoint(anchor: FrozenAnchor, ux: float,
                            uy: float) -> Point:
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


def _reference_evaluate_close_tour(S: FrozenStructure,
                                   eps_deg: float) -> float:
    """The evaluator that rebuilt each rival's state on every call."""
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
        _reference_check_point(S, ux, uy)
        return 0.0
    if all(a.kind == "interior" for a in S.anchors):
        return _reference_all_interior_length(S, Point(ux, uy))

    states = []
    watched = S.watched or (frozenset(),)
    for i, anchors in enumerate(S.rivals or (S.anchors,)):
        al, no, length, failed = _reference_tour_state(anchors, ux, uy,
                                                       watched[i])
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


def _reference_tour_state(anchors: Sequence[FrozenAnchor], ux: float,
                          uy: float,
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
            p = (a.point if a.kind == "stable"
                 else _reference_far_endpoint(a, ux, uy))
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
        far = _reference_far_endpoint(a, ux, uy)
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


def _reference_check_point(S: FrozenStructure, ux: float, uy: float) -> None:
    """The common point stays on its side of every gate chord line."""
    if S.common is None:
        return
    owner, lam = S.common
    g = S.anchors[owner]
    far = _reference_far_endpoint(g, ux, uy)
    v = g.gate_vertex
    px = v.x + lam * (far.x - v.x)
    py = v.y + lam * (far.y - v.y)
    for h in S.anchors:
        w = h.gate_vertex
        if h.side and h.side * (ux * (py - w.y) - uy * (px - w.x)) <= 0.0:
            raise _certificate("side", h.index, "the common point crosses "
                               "the line of its gate chord", None)


def _reference_all_interior_length(S: FrozenStructure, u: Point) -> float:
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
        far = _reference_far_endpoint(a, u.x, u.y)
        ends = sorted((v.x * u.x + v.y * u.y, far.x * u.x + far.y * u.y))
        lows.append(ends[0])
        highs.append(ends[1])
    if min(highs) < max(lows) - 1e-9:
        raise StructureInfeasibleError("parallel chords no longer overlap; "
                                       "the tour across them breaks")
    return total


def _reference_watched(S):
    """The certificates each rival of S watches, found as the freeze that
    ran the reference checks found them; a rival's starts are the
    offsets ``order`` gives its candidates."""
    u = Angle(S.theta_deg).direction()
    watched = []
    for ri, anchors in enumerate(S.rivals):
        pinned_at = {off for r, off in S.order if r == ri}
        held = frozenset()
        if any(a.kind != "interior" for a in anchors):
            _, _, _, checks = _reference_tour_state(anchors, u.x, u.y, None)
            broken = {(k, name) for k, name, _, violated, _ in checks
                      if violated}
            held = frozenset((k, name) for k, name, _, _, _ in checks
                             if pinned_at != {k}) - broken
        watched.append(held)
    return tuple(watched)


def _comparison_inputs():
    """The fixtures, combs k=2/4/8, spiral seeds 0-7 and the 25
    criterion-7 polygons, by label."""
    out = {"square": make_polygon(SQUARE_PTS),
           "unotch": make_polygon(UNOTCH_PTS),
           "double": make_polygon(DOUBLE_PTS),
           "spiral": make_polygon(SPIRAL_PTS),
           "toothgap": make_polygon(inputs.TOOTHGAP_PTS)}
    for k in (2, 4, 8):
        out[f"comb{k}"] = comb(k)
    for seed in range(8):
        out[f"spiral{seed}"] = spiral_corridor(seed)
    for seed in SWEEP_JIT_SEEDS:
        out[f"star{seed}"] = corpus_polygon(seed)
    for seed in SWEEP_NOTCH_SEEDS:
        out[f"notched{seed}"] = notched_polygon(seed)
    return out


def _refusal(exc):
    return (str(exc), exc.event_type, exc.witness)


def _outcome(evaluate, S, eps):
    """The length's repr, or the refusal's message, type and witness."""
    try:
        return repr(evaluate(S, eps))
    except StructureInfeasibleError as exc:
        return _refusal(exc)


@pytest.fixture(scope="module")
def rotor_sweeps():
    """The rotor's sweeps of the comparison inputs, recorded.

    Returns label -> (state, best length), every structure frozen on the
    way, and every evaluation made as (structure, eps, outcome), the
    outcome being the length's repr or the refusal's (message, event
    type, witness).
    """
    sweeps, frozen, evals = {}, [], []
    freeze = rotor.freeze_structure
    evaluate = rotor.evaluate_close_tour

    def recording_freeze(P, res):
        frozen.append(freeze(P, res))
        return frozen[-1]

    def recording_evaluate(S, eps):
        try:
            length = evaluate(S, eps)
        except StructureInfeasibleError as exc:
            evals.append((S, eps, _refusal(exc)))
            raise
        evals.append((S, eps, repr(length)))
        return length

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rotor, "freeze_structure", recording_freeze)
        mp.setattr(rotor, "evaluate_close_tour", recording_evaluate)
        for label, P in _comparison_inputs().items():
            spans = rotor._interval_list(P, enumerate_candidate_events(P))
            state, _, best, _ = rotor._sweep(P, spans)
            sweeps[label] = (state, best)
    return sweeps, frozen, evals


@pytest.fixture(scope="module")
def scan_pairs(rotor_sweeps):
    """Label -> (polygon, reference state and best, rotor state and best)."""
    return {label: (P, _reference_sweep(P), rotor_sweeps[0][label])
            for label, P in _comparison_inputs().items()}


def _counting(mp, name):
    """Replace rotor.<name> with a wrapper that counts its calls."""
    calls = [0]
    fn = getattr(rotor, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    mp.setattr(rotor, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def spiral_sweeps():
    """Seed -> (polygon, report, full solves, frozen evaluations)."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        solves = _counting(mp, "solve_theta")
        evals = _counting(mp, "evaluate_close_tour")
        for seed in SPIRAL_BEST:
            P = spiral_corridor(seed)
            solves[0] = evals[0] = 0
            out[seed] = (P, optimize(P), solves[0], evals[0])
    return out


def _type_counts(events):
    return dict(collections.Counter(e.type.value for e in events))


def _angle_set(events, digits=4):
    return sorted({round(e.angle_deg, digits) for e in events})


def test_enumerate_convex_polygon_has_no_events(square):
    assert enumerate_candidate_events(square) == []


def test_enumerate_unotch(unotch):
    ev = enumerate_candidate_events(unotch)
    assert _type_counts(ev) == {"Passing": 4, "Validity": 2}
    assert _angle_set(ev) == [26.5651, 45.0, 75.9638, 104.0362, 135.0,
                              153.4349]


def test_enumerate_double(double):
    ev = enumerate_candidate_events(double)
    assert len(ev) == 14
    assert _type_counts(ev) == {"Jumping": 2, "Passing": 8, "Validity": 4}
    assert _angle_set(ev) == [26.5651, 33.6901, 45.0, 75.9638, 104.0362,
                              116.5651, 146.3099]
    # both reflex chains contribute, so each angle shows up twice
    per_angle = collections.Counter(round(e.angle_deg, 4) for e in ev)
    assert all(c == 2 for c in per_angle.values())


def test_enumerate_validity_multiplicity(unotch, double, spiral):
    for P in (unotch, double, spiral):
        ev = enumerate_candidate_events(P)
        n_val = sum(1 for e in ev if e.type is EventType.VALIDITY)
        assert n_val == 2 * len(P.reflex_indices)


def test_enumerate_drops_pairs_leaving_through_a_vertex():
    """(10,8)-(14,12) and (10,6)-(14,2) have a reflex vertex at their
    midpoints and leave the corridor on both sides of it."""
    ws = {e.witnesses for e in enumerate_candidate_events(spiral_corridor(0))}
    assert not ws & {(9, 13), (13, 9), (10, 14), (14, 10)}
    assert {(9, 6), (10, 5)} <= ws


def test_frozen_structure_matches_fresh_solves(double):
    res = solve_theta(double, Angle(165.8))
    S = freeze_structure(double, res)
    assert evaluate_close_tour(S, 0.0) == pytest.approx(res.tour.length,
                                                        abs=1e-12)
    for eps in (-0.1, -0.05, 0.05, 0.1):
        fresh = solve_theta(double, Angle(165.8 + eps)).tour.length
        assert evaluate_close_tour(S, eps) == pytest.approx(fresh, abs=1e-9)


def test_frozen_structure_detects_slide_off(double):
    S = freeze_structure(double, solve_theta(double, Angle(165.8)))
    with pytest.raises(StructureInfeasibleError):
        evaluate_close_tour(S, 0.2)


def _interior(x, y0, y1):
    """Interior anchor on the vertical chord from (x, y0) to the line y1."""
    edge = Segment(Point(x - 5.0, y1), Point(x + 5.0, y1))
    sign = 1.0 if y1 > y0 else -1.0
    return FrozenAnchor("interior", Point(x, 0.5 * (y0 + y1)), Point(x, y0),
                        edge, sign)


def test_frozen_tour_of_interior_reflections(square):
    # four parallel chords overlapping on y in [1.5, 3]: the closed tour
    # runs across them at right angles, 3 + 2 + 3 + 4 long at 90 degrees
    chords = [(0.0, 0.0, 4.0), (3.0, 5.0, 1.0), (1.0, 0.5, 4.5),
              (4.0, 3.0, 1.5)]
    S = FrozenStructure(square, 90.0, "tour",
                        tuple(_interior(*c) for c in chords))
    assert evaluate_close_tour(S, 0.0) == pytest.approx(12.0, abs=1e-12)
    r = math.radians(91.0)
    nx, ny = -math.sin(r), math.cos(r)
    xs = [(x, y0) for x, y0, _ in chords]
    tilted = sum(abs(nx * (xs[i][0] - xs[i - 1][0])
                     + ny * (xs[i][1] - xs[i - 1][1])) for i in range(4))
    assert evaluate_close_tour(S, 1.0) == pytest.approx(tilted, abs=1e-12)
    apart = FrozenStructure(square, 90.0, "tour",
                            S.anchors[:3] + (_interior(4.0, 4.6, 6.0),))
    with pytest.raises(StructureInfeasibleError, match="overlap"):
        evaluate_close_tour(apart, 0.0)


def test_watched_drops_a_certificate_with_any_failed_check(square):
    # the tour A -> I -> B -> A reflects at I off the vertical chord from
    # (2, 0.5) up to y = 1.5, but its foot sits at y = 2, past the far
    # end: the Cuddle check of I's inside certificate fails at the freeze
    # angle and its Bending check holds, so the certificate is not
    # watched and the structure reads its own angle; B's turn holds
    a = FrozenAnchor("stable", Point(1.0, 1.0), index=0)
    b = FrozenAnchor("stable", Point(1.0, 3.0), index=1, wedge=(1.0, -2.0))
    anchors = (a, _interior(2.0, 0.5, 1.5), b)
    S = FrozenStructure(square, 90.0, "tour", anchors, rivals=(anchors,),
                        order=((0, 0),))
    assert (1, "inside") not in S.watched[0]
    assert S.watched == _reference_watched(S) == (frozenset({(2, "turn")}),)
    assert evaluate_close_tour(S, 0.0) == pytest.approx(
        2.0 + 2.0 * math.sqrt(2.0), abs=1e-12)


def test_freeze_compiles_each_rival_once(monkeypatch):
    # a freeze compiles each rival once, with every check, and keeps the
    # watched ones; a point tour compiles its gate anchors once
    compiled = [0]
    compile_plan = kinetic._compile

    def counting(*args):
        compiled[0] += 1
        return compile_plan(*args)

    counts = []
    freeze = rotor.freeze_structure

    def recording(P, res):
        before = compiled[0]
        S = freeze(P, res)
        counts.append((S.kind, len(S.rivals), compiled[0] - before))
        return S

    monkeypatch.setattr(kinetic, "_compile", counting)
    monkeypatch.setattr(rotor, "freeze_structure", recording)
    for P in (make_polygon(DOUBLE_PTS), make_polygon(SPIRAL_PTS),
              spiral_corridor(1), comb(4)):
        spans = rotor._interval_list(P, enumerate_candidate_events(P))
        rotor._sweep(P, spans)
    assert all(got == (rivals or 1) for _, rivals, got in counts), counts
    assert any(kind == "point" for kind, _, _ in counts)
    assert any(rivals > 1 for _, rivals, _ in counts)


def test_moving_vertices_touch_only_far_ends(corpus_solves):
    # chord_tag tags a point within TAG_TOL of any vertex in cut.near
    # stable, and cut.near holds the gate's own vertex: a moving tour
    # vertex touches its chord at the far end or nowhere, and those far
    # touches are the signature's touches
    far = 0
    for P, th, res in corpus_solves:
        for tour in (res.tour,) + tuple(res.rivals):
            for p, t in zip(tour.cycle, tour.tags):
                if t.kind == "moving":
                    v = t.gate.vertex
                    assert math.dist(p, v) > TAG_TOL, (th, p)
        touches = {(t.gate.vertex_index, t.gate.kind.value, "far")
                   for p, t in zip(res.tour.cycle, res.tour.tags)
                   if t.kind == "moving"
                   and kinetic._touches_far(p, t.gate)}
        assert structure_signature(res)[3] == tuple(sorted(touches)), th
        far += len(touches)
    assert far


def test_frozen_structure_refuses_past_validity_event():
    # spiral seed 1 has its best tour just below the Validity event of
    # reflex vertex 14 and edge 14; past it, without the color check,
    # the frozen length reads 12.08 where a solve gives 55.86
    P = spiral_corridor(1)
    event = next(e for e in enumerate_candidate_events(P)
                 if e.type is EventType.VALIDITY and e.witnesses == (14, 14))
    assert event.angle_deg == pytest.approx(12.11602, abs=1e-5)
    th = event.angle_deg - 1e-3
    S = freeze_structure(P, solve_theta(P, Angle(th)))
    inside = solve_theta(P, Angle(th - 0.1)).tour.length
    assert evaluate_close_tour(S, -0.1) == pytest.approx(inside, abs=1e-9)
    with pytest.raises(StructureInfeasibleError, match="color"):
        evaluate_close_tour(S, event.angle_deg + 0.2 - th)


def test_chord_along_its_edge_is_a_validity_event():
    # within 1e-7 degrees past the Validity event of vertex 14, edge
    # 14->15 is not yet parallel within TAU_ORIENT, and the Blue forward
    # chord runs along it to end 2.5e-8 from vertex 15; that angle is
    # refused as the event itself, so the robust solve steps off it
    P = spiral_corridor(1)
    event = next(e for e in enumerate_candidate_events(P)
                 if e.type is EventType.VALIDITY and e.witnesses == (14, 14))
    for d in (1e-7, 1e-8):
        with pytest.raises(EventAngleError) as ei:
            solve_theta(P, Angle(event.angle_deg + d))
        assert (ei.value.kind, ei.value.witness) == ("Validity", (14,))
        res = rotor._solve_robust(P, event.angle_deg + d)
        assert validate_tour(P, res.theta, res.tour).valid
    above = solve_theta(P, Angle(event.angle_deg + 1e-6)).tour.length
    below = solve_theta(P, Angle(event.angle_deg - 1e-6)).tour.length
    assert above == pytest.approx(55.856936996162055, rel=1e-9)
    assert below == pytest.approx(12.167347364974761, rel=1e-9)


def test_frozen_refine_falls_back_past_an_event():
    # the bracket straddles the hidden Bending at 12.7159 degrees, where
    # the tour lets go of reflex vertex 14, and the Validity events at
    # 12.87882 degrees: the structure frozen at 12.6 is refused past the
    # first, that angle is solved in full, and its structure is refused
    # past the second, which is solved in full too; the argmin's length
    # is read on the structure frozen there, so it is certified, not a
    # full solve's, and agrees with one within the audit's bound
    P = spiral_corridor(1)
    notes = []
    x, length = rotor._refine_minimum(
        P, 12.5, 13.3, rotor._frozen_at(P, 12.6, solve_theta(P, Angle(12.6))),
        notes)
    assert len(notes) == 2
    assert all("bracket (12.500000, 13.300000) deg" in n for n in notes)
    assert "press certificate of vertex 14" in notes[0]
    assert "color" in notes[1]
    assert length == 55.85588912549119
    full = solve_theta(P, Angle(x)).tour.length
    assert abs(length - full) <= 1e-9 * (1.0 + full)


def test_frozen_refine_keeps_every_frozen_structure(monkeypatch):
    # the structure frozen at 14.0 is refused past the event above it
    # and the one frozen there is refused below it; keeping both, the
    # search solves once past the event, and the argmin is read on the
    # structures, with no confirming solve
    P = spiral_corridor(1)
    res0 = solve_theta(P, Angle(14.0))
    solved = []

    def counting_solve(P, theta):
        solved.append(theta)
        return solve_theta(P, theta)

    monkeypatch.setattr(rotor, "solve_theta", counting_solve)
    notes = []
    got = rotor._refine_minimum(P, 13.5, 14.5, rotor._frozen_at(P, 14.0, res0),
                                notes)
    assert got == (14.145406184300118, 55.85066105419104)
    assert len(solved) <= 1
    assert len(notes) == len(solved)


def test_scan_freezes_each_solve_once(monkeypatch):
    # each bracket carries the structure its sample was read on, so the
    # refinement starts from it instead of freezing that solve again
    frozen = []
    freeze = rotor.freeze_structure

    def recording(P, res):
        frozen.append(res)
        return freeze(P, res)

    monkeypatch.setattr(rotor, "freeze_structure", recording)
    rep = optimize(spiral_corridor(1))
    assert rep.best_length == pytest.approx(SPIRAL_BEST[1], rel=1e-9)
    assert frozen
    assert len({id(res) for res in frozen}) == len(frozen)


def test_bisection_runs_once_per_hidden_event(double, monkeypatch):
    calls = _counting(monkeypatch, "_bisect_change")
    rep = optimize(double)
    hidden = sorted(round(e.angle_deg, 4) for e in rep.events
                    if e.type in (EventType.BENDING, EventType.CUDDLE))
    assert hidden == [165.9637, 165.9665]
    assert calls[0] == len(hidden)


def test_sweep_span_flat(square, double):
    _, _, val, _ = rotor._sweep(square, [(10.0, 170.0)])
    assert val == 0.0
    _, _, val, _ = rotor._sweep(double, [(75.9638, 104.0362)])
    assert val == 0.0
    # a flat stretch beats any positive local minimum in the interval
    _, theta, val, _ = rotor._sweep(double, [(0.001, 75.9637)])
    assert val == 0.0
    assert 26.56505 <= theta <= 75.9637


def test_sweep_span_positive(double):
    _, theta, val, _ = rotor._sweep(double, [(1.0, 26.5)])
    assert val == pytest.approx(0.010170624150936522, abs=1e-9)
    assert 26.49 <= theta <= 26.5


def test_sweep_span_wraps(double):
    # hi past 180 means the range passes the 180 -> 0 seam
    _, theta, val, _ = rotor._sweep(double, [(170.0, 200.0)])
    ang = Angle(theta)
    assert val == pytest.approx(1.0226248968307055, abs=1e-9)
    assert ang.degrees == pytest.approx(20.0, abs=1e-3)
    fresh = solve_theta(double, ang).tour.length
    assert fresh == pytest.approx(val, abs=1e-9)


def test_sweep_span_narrower_than_refine_tol():
    P = spiral_corridor(1)
    _, x, length, _ = rotor._sweep(P, [(20.0, 20.0 + 5e-7)])
    theta = Angle(x)
    assert theta.degrees == 20.00000025
    assert length == 57.34039521165123
    assert length == solve_theta(P, theta).tour.length


def test_optimize_square(square):
    rep = optimize(square)
    assert rep.best_length == 0.0
    assert rep.best_theta.degrees == pytest.approx(90.0, abs=1e-9)
    assert rep.events == ()
    assert len(rep.intervals) == 1


def test_optimize_unotch(unotch):
    rep = optimize(unotch)
    assert rep.best_length == 0.0
    assert rep.best_theta.degrees == pytest.approx(0.0, abs=1e-6)
    assert len(rep.events) == 6
    assert len(rep.intervals) == 6
    lo, hi = rep.intervals[-1]
    assert lo == pytest.approx(153.4349, abs=1e-4)
    assert hi == pytest.approx(206.5651, abs=1e-4)   # wraps past 180


def test_optimize_double(double):
    rep = optimize(double)
    assert rep.best_length == 0.0
    assert rep.best_theta.degrees == pytest.approx(60.481878, abs=1e-4)
    assert _type_counts(rep.events) == {
        "Bending": 1, "Cuddle": 1, "Jumping": 2, "Passing": 8, "Validity": 4}
    assert len(rep.intervals) == 9
    hidden = sorted(round(e.angle_deg, 4) for e in rep.events
                    if e.type in (EventType.BENDING, EventType.CUDDLE))
    assert hidden == [165.9637, 165.9665]


def test_optimize_spiral(spiral):
    rep = optimize(spiral)
    assert rep.best_length == 0.0
    # the zero stretch covers [90, 180); its midpoint wraps past 180
    assert rep.best_theta.degrees == pytest.approx(148.2825, abs=1e-2)
    assert _type_counts(rep.events) == {
        "Bending": 1, "Cuddle": 3, "Passing": 9, "Validity": 6}
    assert len(rep.intervals) == 14


def test_optimize_positive_optimum(spiral_sweeps):
    for seed, (P, rep, _, _) in spiral_sweeps.items():
        assert rep.best_length == pytest.approx(SPIRAL_BEST[seed], rel=1e-9)
        dense_min = min(v for _, v in dense_sweep(P, 0.05))
        assert rep.best_length <= dense_min + 1e-3 * (1.0 + P.diameter)


def test_ties_go_to_the_smallest_angle(spiral_sweeps):
    # spiral seeds 3 and 7 have plateaus of optimal tours, whose refined
    # lengths agree to 1e-15 relative; among the minima within the tie of
    # ``beats``, the smallest angle wins, so float noise does not pick it
    for seed, want in ((3, 21.14804768525591), (7, 28.922370888145768)):
        rep = spiral_sweeps[seed][1]
        assert rep.best_theta.degrees == pytest.approx(want, abs=1e-6)


def test_sweep_solve_counts(spiral_sweeps, toothgap, monkeypatch):
    solves = _counting(monkeypatch, "solve_theta")
    assert optimize(toothgap).best_length == 0.0
    assert solves[0] <= 45
    _, _, spiral_solves, spiral_evals = spiral_sweeps[1]
    assert spiral_solves <= 85
    assert spiral_evals > 0


def test_confirming_solve_overrules_a_wrong_read(monkeypatch):
    # the bracket holding the runner-up reads half the true length while
    # it is refined, so its argmin is picked first; the full solve there
    # disagrees, a note names the angle, and the true best wins
    P = spiral_corridor(1)
    spans = rotor._interval_list(P, enumerate_candidate_events(P))
    state, theta, length, _ = rotor._sweep(P, spans)
    runner_up = sorted(state.candidates, key=lambda c: c[1])[1][0]
    refine = rotor._refine_minimum
    evaluate = rotor.evaluate_close_tour
    lying = [False]

    def refine_lying(P, a, b, start, notes):
        lying[0] = a <= runner_up <= b
        try:
            return refine(P, a, b, start, notes)
        finally:
            lying[0] = False

    monkeypatch.setattr(rotor, "_refine_minimum", refine_lying)
    monkeypatch.setattr(rotor, "evaluate_close_tour",
                        lambda S, eps: evaluate(S, eps)
                        * (0.5 if lying[0] else 1.0))
    rep = optimize(P)
    assert rep.best_theta.degrees == normalize_deg(theta)
    assert rep.best_length == length
    assert rep.best_length == solve_theta(P, rep.best_theta).tour.length
    (note,) = rep.diagnostics
    assert f"full solve at {normalize_deg(runner_up):.6f} deg" in note


def test_flat_interval_skips_refinement(double, monkeypatch):
    def refuse(*args):
        raise AssertionError("refined although a flat interval exists")

    monkeypatch.setattr(rotor, "_refine_minimum", refuse)
    _, _, val, _ = rotor._sweep(double, [(0.001, 75.9637)])
    assert val == 0.0


def test_refine_falls_back_at_a_hidden_bending():
    P = spiral_corridor(1)
    bendings = [e.angle_deg for e in optimize(P).events
                if e.type is EventType.BENDING]
    assert any(102.8 < a < 102.95 for a in bendings)
    assert any(12.6 < a < 12.8 for a in bendings)
    # frozen at 102.9, the moving vertex on the chord of reflex vertex 13
    # reaches that vertex at the Bending near 102.8788; the refine solves
    # there and keeps the argmin and length the full-solve scan found
    notes = []
    x, length = rotor._refine_minimum(
        P, 102.8, 102.95,
        rotor._frozen_at(P, 102.9, solve_theta(P, Angle(102.9))), notes)
    assert len(notes) == 1
    assert "bracket (102.800000, 102.950000) deg" in notes[0]
    assert "inside certificate of vertex 13" in notes[0]
    assert x == pytest.approx(102.80000044706458, abs=1e-6)
    assert length == pytest.approx(51.8259747303359, rel=1e-9)
    # frozen at 12.65, the tour lets go of reflex vertex 14 at the Bending
    # near 12.7159 and gets shorter past it; extrapolating the frozen
    # structure read a constant 55.856937 there instead
    notes = []
    x, length = rotor._refine_minimum(
        P, 12.6, 12.8,
        rotor._frozen_at(P, 12.65, solve_theta(P, Angle(12.65))), notes)
    assert len(notes) == 1
    assert "press certificate of vertex 14" in notes[0]
    grid = min(solve_theta(P, Angle(12.6 + 0.2 * k / 40)).tour.length
               for k in range(1, 41))
    assert length <= grid + 1e-9
    assert length < 55.8569369961 - 1e-5


def test_optimize_best_matches_fresh_solve(unotch, double, spiral):
    for P in (unotch, double, spiral):
        rep = optimize(P)
        fresh = solve_theta(P, rep.best_theta).tour.length
        assert fresh == pytest.approx(rep.best_length, abs=1e-7)


def test_signature_constant_inside_intervals(spiral):
    rep = optimize(spiral)
    for lo, hi in rep.intervals:
        sigs = set()
        for k in range(1, 8):
            th = (lo + (hi - lo) * k / 8.0) % 180.0
            try:
                sigs.add(structure_signature(solve_theta(spiral, Angle(th))))
            except GeometryError:
                continue
        assert len(sigs) <= 1, (lo, hi)


def test_optimize_is_deterministic(double):
    a = optimize(double)
    b = optimize(double)
    assert a.best_theta.degrees == b.best_theta.degrees
    assert a.best_length == b.best_length
    assert [e.sort_key() for e in a.events] == [e.sort_key() for e in b.events]
    assert a.intervals == b.intervals
    assert a.samples == b.samples


def test_scan_matches_reference_samples_and_intervals(scan_pairs):
    for label, (_, (ref, _), (new, _)) in scan_pairs.items():
        assert sorted(new.intervals) == sorted(ref.intervals), label
        got = sorted(new.samples)
        want = sorted(ref.samples)
        assert [x for x, _ in got] == [x for x, _ in want], label
        for (_, a), (_, b) in zip(got, want):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12), label


def test_scan_matches_reference_events(scan_pairs):
    tol = rotor.REFINE_TOL_DEG
    for label, (_, (ref, _), (new, _)) in scan_pairs.items():
        got = sorted(new.detected, key=lambda e: e.angle_deg)
        want = sorted(ref.detected, key=lambda e: e.angle_deg)
        assert [e.type for e in got] == [e.type for e in want], label
        for e, f in zip(got, want):
            assert abs(e.angle_deg - f.angle_deg) <= tol, label


def test_scan_matches_reference_best_length(scan_pairs):
    for label, (P, (_, ref_best), (_, best)) in scan_pairs.items():
        assert best == pytest.approx(ref_best, rel=1e-9, abs=1e-12), label


def test_scan_events_name_witnesses_and_audits_hold(scan_pairs):
    for label, (_, _, (new, _)) in scan_pairs.items():
        assert all(e.witnesses for e in new.detected), label
        assert not [n for n in new.notes if "audit" in n], label


def test_evaluator_matches_reference(rotor_sweeps):
    # every structure the comparison sweeps froze watches the checks the
    # reference freeze found holding, and every evaluation they made reads
    # as the reference evaluator reads it: the same length bit for bit,
    # or the same refusal, message, event type and witness; so do offsets
    # out to 3 degrees, where more certificates fail at once and the
    # order in which they are reported shows
    _, frozen, evals = rotor_sweeps
    tours = [S for S in frozen if S.kind == "tour"]
    assert tours
    for S in tours:
        assert S.watched == _reference_watched(S), S.theta_deg
    wide = [(S, eps, _outcome(evaluate_close_tour, S, eps)) for S in frozen
            for eps in (-3.0, -1.0, -0.3, -0.1, -0.03, -0.01,
                        0.01, 0.03, 0.1, 0.3, 1.0, 3.0)]
    refused = 0
    for S, eps, got in evals + wide:
        want = _outcome(_reference_evaluate_close_tour, S, eps)
        refused += isinstance(want, tuple)
        assert got == want, (S.theta_deg, eps)
    assert 0 < refused < len(evals) + len(wide)


def test_audit_mismatch_falls_back_to_full_solves(double, monkeypatch):
    # every frozen length reads a little long: each clean interval's
    # audit solve disagrees, and the interval is scanned by full solves
    ref, _ = _reference_sweep(double)
    evaluate = rotor.evaluate_close_tour
    monkeypatch.setattr(rotor, "evaluate_close_tour",
                        lambda S, eps: evaluate(S, eps) * (1 + 1e-6) + 1e-6)
    spans = rotor._interval_list(double, enumerate_candidate_events(double))
    state, _, best, _ = rotor._sweep(double, spans)
    audits = [n for n in state.notes if "audit" in n]
    assert audits and all("gives length" in n for n in audits)
    assert sorted(state.intervals) == sorted(ref.intervals)
    got = sorted(state.samples)
    want = sorted(ref.samples)
    assert [x for x, _ in got] == [x for x, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)
    assert ([e.type for e in sorted(state.detected, key=Event.sort_key)]
            == [e.type for e in sorted(ref.detected, key=Event.sort_key)])
    assert best == 0.0
