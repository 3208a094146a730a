import collections
import math
from dataclasses import dataclass, field

import pytest

from monowatch import Angle, EventAngleError, GeometryError, rotor, solve_theta
from monowatch.geom import Point, Segment, normalize_deg
from monowatch.oracle import dense_sweep, validate_tour
from monowatch.kinetic import (
    EventType,
    FrozenAnchor,
    FrozenStructure,
    StructureInfeasibleError,
    evaluate_close_tour,
    freeze_structure,
)
from monowatch.rotor import (
    ANGLE_MERGE_DEG,
    Event,
    SweepConfig,
    enumerate_candidate_events,
    minimize_interval,
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


def _reference_bisect(P, a, res_a, b, res_b, tol):
    sig_a = structure_signature(res_a)
    lo, hi = a, b
    res_lo, res_hi = res_a, res_b
    while hi - lo > tol:
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
    return 0.5 * (lo + hi), rotor._classify_split(P, res_lo, res_hi)


def _reference_scan(P, lo, hi, cfg, depth, state):
    width = hi - lo
    if width <= max(cfg.refine_tol_deg, 10 * ANGLE_MERGE_DEG) or depth > 6:
        mid = 0.5 * (lo + hi)
        r = rotor._solve_robust(P, mid)
        if r is not None:
            state.samples.append((normalize_deg(mid), r.tour.length))
            state.candidates.append((mid, r.tour.length))
        state.intervals.append((lo, hi))
        return

    delta = min(1e-4, width / 100.0)
    n = int(min(cfg.samples_per_interval,
                max(8, math.ceil(width / cfg.grid_fallback_step_deg) + 1)))
    xs = [lo + delta + i * (width - 2 * delta) / (n - 1) for i in range(n)]
    solved = [(x, rotor._solve_robust(P, x)) for x in xs]
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
            ang, etype = _reference_bisect(P, pts[i][0], pts[i][1],
                                           pts[i + 1][0], pts[i + 1][1],
                                           cfg.refine_tol_deg)
            state.detected.append(Event(Angle(ang), etype))
            _reference_scan(P, lo, ang, cfg, depth + 1, state)
            _reference_scan(P, ang, hi, cfg, depth + 1, state)
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


def _reference_sweep(P, cfg):
    """The reference scan over every event-free interval, then the best
    length: a flat interval wins, else each bracket is refined."""
    state = _RefState()
    spans = rotor._interval_list(P, enumerate_candidate_events(P))
    for lo, hi in spans:
        _reference_scan(P, lo, hi, cfg, 0, state)
    if state.flats:
        return state, 0.0
    for a, b, x0, res0 in state.brackets:
        got = rotor._refine_minimum(P, a, b, rotor._frozen_at(P, x0, res0),
                                    cfg.refine_tol_deg, [])
        if got is not None:
            state.candidates.append(got)
    return state, min(L for _, L in state.candidates)


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


@pytest.fixture(scope="module")
def scan_pairs():
    """Label -> (polygon, reference state and best, rotor state and best)."""
    cfg = SweepConfig()
    out = {}
    for label, P in _comparison_inputs().items():
        ref = _reference_sweep(P, cfg)
        spans = rotor._interval_list(P, enumerate_candidate_events(P))
        state, _, best = rotor._sweep(P, spans, cfg)
        out[label] = (P, ref, (state, best))
    return out


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
    S = FrozenStructure(square, 90.0, 12.0, "tour",
                        tuple(_interior(*c) for c in chords))
    assert evaluate_close_tour(S, 0.0) == pytest.approx(12.0, abs=1e-12)
    r = math.radians(91.0)
    nx, ny = -math.sin(r), math.cos(r)
    xs = [(x, y0) for x, y0, _ in chords]
    tilted = sum(abs(nx * (xs[i][0] - xs[i - 1][0])
                     + ny * (xs[i][1] - xs[i - 1][1])) for i in range(4))
    assert evaluate_close_tour(S, 1.0) == pytest.approx(tilted, abs=1e-12)
    apart = FrozenStructure(square, 90.0, 12.0, "tour",
                            S.anchors[:3] + (_interior(4.0, 4.6, 6.0),))
    with pytest.raises(StructureInfeasibleError, match="overlap"):
        evaluate_close_tour(apart, 0.0)


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
    # past the second, which is solved in full too
    P = spiral_corridor(1)
    notes = []
    x, length = rotor._refine_minimum(
        P, 12.5, 13.3, rotor._frozen_at(P, 12.6, solve_theta(P, Angle(12.6))),
        1e-6, notes)
    assert len(notes) == 2
    assert all("bracket (12.500000, 13.300000) deg" in n for n in notes)
    assert "press certificate of vertex 14" in notes[0]
    assert "color" in notes[1]
    assert length == solve_theta(P, Angle(x)).tour.length


def test_frozen_refine_keeps_every_frozen_structure(monkeypatch):
    # the structure frozen at 14.0 is refused past the event above it
    # and the one frozen there is refused below it; keeping both, the
    # search solves once past the event and once at the argmin
    P = spiral_corridor(1)
    res0 = solve_theta(P, Angle(14.0))
    solved = []

    def counting_solve(P, theta):
        solved.append(theta)
        return solve_theta(P, theta)

    monkeypatch.setattr(rotor, "solve_theta", counting_solve)
    notes = []
    got = rotor._refine_minimum(P, 13.5, 14.5, rotor._frozen_at(P, 14.0, res0),
                                1e-6, notes)
    assert got == (14.145406184300118, 55.85066105419104)
    assert len(solved) <= 2
    assert len(notes) == len(solved) - 1


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


def test_minimize_interval_flat(square, double):
    ang, val = minimize_interval(square, 10.0, 170.0)
    assert val == 0.0
    ang, val = minimize_interval(double, 75.9638, 104.0362)
    assert val == 0.0
    # a flat stretch beats any positive local minimum in the interval
    ang, val = minimize_interval(double, 0.001, 75.9637)
    assert val == 0.0
    assert 26.56505 <= ang.degrees <= 75.9637


def test_minimize_interval_positive(double):
    ang, val = minimize_interval(double, 1.0, 26.5)
    assert val == pytest.approx(0.010170624150936522, abs=1e-9)
    assert 26.49 <= ang.degrees <= 26.5


def test_minimize_interval_wraps(double):
    # hi below lo means the range passes the 180 -> 0 seam
    ang, val = minimize_interval(double, 170.0, 20.0)
    assert val == pytest.approx(1.0226248968307055, abs=1e-9)
    assert ang.degrees == pytest.approx(20.0, abs=1e-3)
    fresh = solve_theta(double, ang).tour.length
    assert fresh == pytest.approx(val, abs=1e-9)


def test_minimize_interval_rejects_empty(double):
    with pytest.raises(GeometryError):
        minimize_interval(double, 40.0, 40.0)


def test_refine_tol_below_float_spacing_terminates(double):
    # bisection stops once its ends are adjacent floats; it used to spin
    rep = optimize(double, SweepConfig(refine_tol_deg=1e-300))
    assert rep.best_length == 0.0
    hidden = sorted(round(e.angle_deg, 4) for e in rep.events
                    if e.type in (EventType.BENDING, EventType.CUDDLE))
    assert hidden == [165.9637, 165.9665]


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


def test_sweep_solve_counts(spiral_sweeps, toothgap, monkeypatch):
    solves = _counting(monkeypatch, "solve_theta")
    assert optimize(toothgap).best_length == 0.0
    assert solves[0] <= 200
    _, _, spiral_solves, spiral_evals = spiral_sweeps[1]
    assert spiral_solves <= 400
    assert spiral_evals > 0


def test_flat_interval_skips_refinement(double, monkeypatch):
    def refuse(*args):
        raise AssertionError("refined although a flat interval exists")

    monkeypatch.setattr(rotor, "_refine_minimum", refuse)
    ang, val = minimize_interval(double, 0.001, 75.9637)
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
        rotor._frozen_at(P, 102.9, solve_theta(P, Angle(102.9))), 1e-6, notes)
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
        rotor._frozen_at(P, 12.65, solve_theta(P, Angle(12.65))), 1e-6, notes)
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
    b = optimize(double, SweepConfig())
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
    tol = SweepConfig().refine_tol_deg
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


def test_audit_mismatch_falls_back_to_full_solves(double, monkeypatch):
    # every frozen length reads a little long: each clean interval's
    # audit solve disagrees, and the interval is scanned by full solves
    cfg = SweepConfig()
    ref, _ = _reference_sweep(double, cfg)
    evaluate = rotor.evaluate_close_tour
    monkeypatch.setattr(rotor, "evaluate_close_tour",
                        lambda S, eps: evaluate(S, eps) * (1 + 1e-6) + 1e-6)
    spans = rotor._interval_list(double, enumerate_candidate_events(double))
    state, _, best = rotor._sweep(double, spans, cfg)
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
