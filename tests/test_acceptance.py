"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints as its own pass/fail line under ``pytest -v``.  The
randomized ones share a lazily built 200-polygon corpus so the whole
file stays inside its time budgets.
"""

import math
import random
import time

import pytest

from monowatch import Angle, GeometryError, solve_theta
from monowatch.oracle import dense_sweep, reference_min_tour, validate_tour
from monowatch.rotor import (
    EventType,
    enumerate_candidate_events,
    evaluate_close_tour,
    freeze_structure,
    optimize,
    structure_signature,
)
from monowatch.sleeve import fold_back, shortest_path, unroll
from monowatch.solver import decompose_subpaths

from conftest import (
    DOUBLE_PTS,
    SQUARE_PTS,
    UNOTCH_PTS,
    corpus_polygon,
    inputs,
    make_polygon,
    mixed_corpus,
    nonevent_angles,
    notched_polygon,
    solve_or_none,
    solve_stages,
)

CORPUS_SIZE = 200
ANGLES_PER_POLYGON = 10

# 25 instances small enough for a dense 0.05 degree grid in minutes
SWEEP_JIT_SEEDS = (0, 1, 2, 3, 4, 9, 10, 11, 12, 13, 18, 19, 20, 21, 22)
SWEEP_NOTCH_SEEDS = (0, 2, 3, 4, 5, 6, 7, 8, 9, 11)

_corpus_cache = None
_report_cache = {}


def _corpus():
    """(polygon, [(theta, SolveResult), ...]) for the shared corpus."""
    global _corpus_cache
    if _corpus_cache is None:
        out = []
        for i, P in enumerate(mixed_corpus(CORPUS_SIZE)):
            rng = random.Random(5000 + i)
            sols = []
            for th in nonevent_angles(P, rng, ANGLES_PER_POLYGON):
                res = solve_or_none(P, th)
                if res is not None:
                    sols.append((th, res))
            out.append((P, sols))
        _corpus_cache = out
    return _corpus_cache


def _fixture_report(name):
    if name not in _report_cache:
        pts = {"square": SQUARE_PTS, "unotch": UNOTCH_PTS,
               "double": DOUBLE_PTS, "toothgap": inputs.TOOTHGAP_PTS}[name]
        P = make_polygon(pts)
        _report_cache[name] = (P, optimize(P))
    return _report_cache[name]


def _diameter(P):
    return max(math.dist(a, b) for a in P.vertices for b in P.vertices)


def test_criterion_1_fixture_regression(square, unotch, double):
    t0 = time.perf_counter()
    assert solve_theta(double, Angle(0.0)).tour.length == pytest.approx(
        4.0, abs=1e-6)
    assert solve_theta(unotch, Angle(0.0)).tour.length == pytest.approx(
        0.0, abs=1e-9)
    rng = random.Random(1)
    for _ in range(20):
        th = rng.uniform(0.0, 180.0)
        assert solve_theta(square, Angle(th)).tour.length == 0.0
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_tours_cover_all_cuts():
    t0 = time.perf_counter()
    cases = 0
    for P, sols in _corpus():
        assert len(P.vertices) <= 14
        for th, res in sols:
            rep = validate_tour(P, Angle(th), res.tour)
            assert rep.valid, (th, rep.violated_cuts)
            cases += 1
    assert cases == CORPUS_SIZE * ANGLES_PER_POLYGON
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3_moving_runs_short_and_alternating():
    runs = 0
    for P, sols in _corpus():
        for th, res in sols:
            for sp in decompose_subpaths(res.tour):
                assert sp.moving_count <= 3
                colors = [g.color for g in sp.gates]
                pairs = list(zip(colors, colors[1:]))
                if sp.cyclic and len(colors) > 1:
                    pairs.append((colors[-1], colors[0]))
                assert all(a is not b for a, b in pairs), (th, colors)
                runs += 1
    assert runs > 0


def test_criterion_4_unrolling_is_isometric():
    folded = reflections = 0
    for P, sols in _corpus():
        for th, res in sols:
            if not res.rivals:
                continue
            rp, tri, cands = solve_stages(P, res)
            if len(rp.essential) < 2:
                continue
            for v in cands:
                S = unroll(rp, tri, rp.polygon.find_vertex(v))
                path = shortest_path(S)
                tour = fold_back(S, path)
                path_len = sum(map(math.dist, path, path[1:]))
                assert abs(tour.length - path_len) <= 1e-9
                folded += 1
            reflections += _assert_reflection_angles(res.tour)
    assert folded > 0
    assert reflections > 0


def _assert_reflection_angles(tour, tol_rad=1e-6):
    """Angle in equals angle out where the tour bounces off a gate chord
    away from its endpoints.  Returns how many vertices were checked."""
    n = len(tour.cycle)
    checked = 0
    if n < 2:
        return checked
    for i, (p, tag) in enumerate(zip(tour.cycle, tour.tags)):
        if tag.kind != "moving" or tag.gate is None:
            continue
        chord = tag.gate.chord
        if (math.dist(p, chord.a) <= 1e-6
                or math.dist(p, chord.b) <= 1e-6):
            continue
        prev = tour.cycle[(i - 1) % n]
        nxt = tour.cycle[(i + 1) % n]
        if math.dist(prev, p) <= 1e-9 or math.dist(nxt, p) <= 1e-9:
            continue
        ux, uy = chord.b.x - chord.a.x, chord.b.y - chord.a.y
        un = math.hypot(ux, uy)
        cos_in = abs(((p.x - prev.x) * ux + (p.y - prev.y) * uy)
                     / (math.dist(prev, p) * un))
        cos_out = abs(((nxt.x - p.x) * ux + (nxt.y - p.y) * uy)
                      / (math.dist(nxt, p) * un))
        a_in = math.acos(min(1.0, cos_in))
        a_out = math.acos(min(1.0, cos_out))
        assert abs(a_in - a_out) <= tol_rad
        checked += 1
    return checked


def test_criterion_5_matches_reference_oracle(square, unotch, double,
                                              toothgap):
    cases = [(square, 33.0), (unotch, 10.0), (double, 0.0),
             (double, 130.0), (toothgap, 10.0), (toothgap, 130.0)]
    seen = set()
    for P, sols in _corpus():
        if len(seen) >= 18:
            break
        for th, res in sols:
            if 2 <= len(res.gates) <= 4:
                cases.append((P, th))
                seen.add(id(P))
                break
    assert len(seen) >= 18
    compared = positive = 0
    for P, th in cases:
        res = solve_theta(P, Angle(th))
        try:
            ref = reference_min_tour(P, Angle(th), m=200)
        except GeometryError:
            # the reference joins chord samples by straight segments;
            # instances whose connections must bend around a reflex
            # vertex have no grid tour at all and give it nothing to say
            continue
        if res.gates:
            slack = 2.0 * max(g.chord.length()
                              for g in res.gates) / 200.0
        else:
            slack = 0.0
        assert res.tour.length <= ref.length + slack + 1e-12, (th, ref)
        compared += 1
        if res.tour.length > 1e-9:
            positive += 1
    assert compared >= 12
    assert positive >= 3


def test_criterion_6_frozen_structure_extrapolates(double):
    _, rep = _fixture_report("double")
    usable = [(lo, hi) for lo, hi in rep.intervals if hi - lo >= 0.05]
    assert usable
    rng = random.Random(77)
    for k in range(100):
        lo, hi = usable[k % len(usable)]
        th = lo + (hi - lo) * rng.uniform(0.25, 0.75)
        span = min(th - lo, hi - th)
        eps = rng.uniform(0.05, 0.2) * span * rng.choice((-1.0, 1.0))
        res = solve_theta(double, Angle(th % 180.0))
        S = freeze_structure(double, res)
        fresh = solve_theta(double, Angle((th + eps) % 180.0)).tour.length
        assert evaluate_close_tour(S, eps) == pytest.approx(fresh, abs=1e-9)


def test_criterion_7_sweep_matches_dense_grid():
    t0 = time.perf_counter()
    jobs = [_fixture_report(n) for n in ("square", "unotch", "double",
                                         "toothgap")]
    jobs.extend((corpus_polygon(s), None) for s in SWEEP_JIT_SEEDS)
    jobs.extend((notched_polygon(s), None) for s in SWEEP_NOTCH_SEEDS)
    for P, rep in jobs:
        if rep is None:
            rep = optimize(P)
        dense_min = min(v for _, v in dense_sweep(P, 0.05))
        tol = 1e-3 * (1.0 + _diameter(P))
        assert abs(rep.best_length - dense_min) <= tol
    assert time.perf_counter() - t0 < 300.0


def test_criterion_8_structure_constant_between_events():
    for name in ("square", "unotch", "double", "toothgap"):
        P, rep = _fixture_report(name)
        for lo, hi in rep.intervals:
            sigs = set()
            for k in range(1, 17):
                th = (lo + (hi - lo) * k / 17.0) % 180.0
                sigs.add(structure_signature(solve_theta(P, Angle(th))))
            assert len(sigs) == 1, (name, lo, hi)


def test_criterion_9_validity_event_count(square, unotch, double, toothgap):
    polys = [square, unotch, double, toothgap]
    polys.extend(corpus_polygon(s) for s in SWEEP_JIT_SEEDS)
    polys.extend(notched_polygon(s) for s in SWEEP_NOTCH_SEEDS)
    for P in polys:
        ev = enumerate_candidate_events(P)
        n_validity = sum(1 for e in ev if e.type is EventType.VALIDITY)
        assert n_validity == 2 * len(P.reflex_indices)
