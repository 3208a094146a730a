import math
import random

import pytest

from monowatch import Angle, EventAngleError, GeometryError, solve_theta
from monowatch.oracle import validate_tour
from monowatch.sleeve import tour_length
from monowatch.solver import decompose_subpaths

from conftest import (
    THREE_GATE_PTS,
    corpus_polygon,
    make_polygon,
    nonevent_angles,
    notched_polygon,
    solve_or_none,
    solve_stages,
)


def test_square_any_angle_is_point(square):
    res = solve_theta(square, Angle(37.0))
    assert res.tour.length == 0.0
    assert [tuple(p) for p in res.tour.cycle] == [(0.0, 0.0)]
    assert res.gates == ()
    assert decompose_subpaths(res.tour) == []


def test_unotch_common_point(unotch):
    res = solve_theta(unotch, Angle(0.0))
    assert res.tour.length == 0.0
    assert tuple(res.tour.cycle[0]) == (4.0, 2.0)
    assert tuple(res.common_point) == (4.0, 2.0)
    assert decompose_subpaths(res.tour) == []


def test_double_notch_at_zero(double):
    res = solve_theta(double, Angle(0.0))
    assert res.tour.length == pytest.approx(4.0, abs=1e-12)
    assert sorted(tuple(p) for p in res.tour.cycle) == [(2.5, 2.0), (2.5, 4.0)]
    assert all(t.kind == "moving" for t in res.tour.tags)
    # candidates are the endpoints of the two gate chords
    _, _, cands = solve_stages(double, res)
    assert sorted(tuple(p) for p in cands) == [
        (2.0, 2.0), (2.5, 4.0), (5.5, 2.0), (6.0, 4.0)]


def test_double_subpath_is_cyclic(double):
    res = solve_theta(double, Angle(0.0))
    sp = decompose_subpaths(res.tour)
    assert len(sp) == 1
    assert sp[0].cyclic
    assert sp[0].moving_count == 2
    assert sp[0].indices == (0, 1)
    assert len(sp[0].gates) == 2


def test_candidate_count_matches_gate_colors(toothgap):
    # two gates of one color leave exactly two starting candidates
    res = solve_theta(toothgap, Angle(10.0))
    assert {g.color.name for g in res.gates} == {"BLUE"}
    _, _, cands = solve_stages(toothgap, res)
    assert sorted(tuple(p) for p in cands) == [(6.5, 6.0), (8.0, 8.0)]
    res = solve_theta(toothgap, Angle(130.0))
    assert {g.color.name for g in res.gates} == {"RED"}
    _, _, cands = solve_stages(toothgap, res)
    assert sorted(tuple(p) for p in cands) == [(5.0, 8.0), (6.5, 6.0)]


DOUBLE_CURVE = [
    (0.5, 3.9300354082696938),
    (10.0, 2.5500455907133888),
    (26.0, 0.08820701088404911),
    (26.5648, 3.921049861253204e-05),
    (26.5649, 2.3599799210163983e-05),
    (26.565, 7.989099808011586e-06),
    (26.56505, 0.0),
    (27.0, 0.0),
    (45.0, 0.0),
    (105.0, 8.944271909999157),
    (117.0, 8.94401419246513),
    (130.0, 8.699505983697986),
    (145.0, 7.865219667964337),
    (170.0, 5.328416433384276),
    (179.5, 4.069659976243677),
]

TOOTHGAP_CURVE = [
    (0.0, 10.034662148993581),
    (10.0, 9.952926942813631),
    (130.0, 6.447309752261038),
]


def test_length_curve_regression(double, toothgap):
    for th, want in DOUBLE_CURVE:
        got = solve_theta(double, Angle(th)).tour.length
        assert got == pytest.approx(want, abs=1e-9), th
    for th, want in TOOTHGAP_CURVE:
        got = solve_theta(toothgap, Angle(th)).tour.length
        assert got == pytest.approx(want, abs=1e-9), th


@pytest.mark.parametrize("theta", [97.5, 110.5, 115.0968, 122.5])
def test_three_gate_tour_is_frame_invariant(threegate, theta):
    """A tour through three gates, the only case that adds each arc's
    same-color pick to the chord-end candidates, validates, and keeps
    its length under a cyclic shift of the vertex list and under the
    mirror (x, y) -> (x, -y) with the order reversed and theta -> 180 -
    theta."""
    res = solve_theta(threegate, Angle(theta))
    assert len(res.gates) == 3
    assert res.tour.length > 1.0
    assert validate_tour(threegate, Angle(theta), res.tour).valid
    tie = 1e-9 * (1.0 + res.tour.length)
    for s in (1, 7, 13):
        shifted = make_polygon(THREE_GATE_PTS[s:] + THREE_GATE_PTS[:s])
        got = solve_theta(shifted, Angle(theta)).tour.length
        assert abs(got - res.tour.length) <= tie, s
    mirrored = make_polygon([(x, -y) for x, y in reversed(THREE_GATE_PTS)])
    got = solve_theta(mirrored, Angle(180.0 - theta)).tour.length
    assert abs(got - res.tour.length) <= tie


def test_solve_rejects_event_angle(double):
    with pytest.raises(EventAngleError) as ei:
        solve_theta(double, Angle(math.degrees(math.atan(4.0))))
    assert ei.value.kind == "Validity"


def test_solve_rejects_nonsimple_input():
    from monowatch.geom import Polygon, Point
    with pytest.raises(GeometryError):
        Polygon([Point(0, 0), Point(2, 2), Point(2, 0), Point(0, 2)])


def test_tours_validate_on_mixed_corpus():
    checked = positive = 0
    for seed in range(14):
        P = corpus_polygon(seed) if seed % 2 else notched_polygon(seed)
        rng = random.Random(seed)
        for th in nonevent_angles(P, rng, 2):
            res = solve_or_none(P, th)
            if res is None:
                continue
            rep = validate_tour(P, Angle(th), res.tour)
            assert rep.valid, (seed, th, rep.violated_cuts)
            checked += 1
            if res.tour.length > 1e-9:
                positive += 1
    assert checked >= 10
    assert positive > 0


def test_subpath_moving_run_bound():
    """No maximal moving run needs more than three vertices."""
    runs = 0
    for seed in range(12):
        P = notched_polygon(seed)
        rng = random.Random(100 + seed)
        for th in nonevent_angles(P, rng, 3):
            res = solve_or_none(P, th)
            if res is None or res.tour.length <= 1e-9:
                continue
            for sp in decompose_subpaths(res.tour):
                assert sp.moving_count <= 3
                runs += 1
    assert runs > 0


def test_moving_vertices_locally_optimal():
    """Sliding any moving vertex along its gate chord never shortens
    the tour by more than rounding noise."""
    trials = 0
    for seed in range(8):
        P = notched_polygon(seed)
        rng = random.Random(200 + seed)
        for th in nonevent_angles(P, rng, 2):
            res = solve_or_none(P, th)
            if res is None or res.tour.length <= 1e-9:
                continue
            cyc = [p for p in res.tour.cycle]
            for i, tag in enumerate(res.tour.tags):
                if tag.kind != "moving" or tag.gate is None:
                    continue
                ch = tag.gate.chord
                ux, uy = ch.b.x - ch.a.x, ch.b.y - ch.a.y
                un = math.hypot(ux, uy)
                if un == 0.0:
                    continue
                ux, uy = ux / un, uy / un
                t0 = (cyc[i].x - ch.a.x) * ux + (cyc[i].y - ch.a.y) * uy
                for dt in (-1e-4, 1e-4):
                    t = t0 + dt
                    if t < 0.0 or t > un:
                        continue
                    moved = list(cyc)
                    from monowatch.geom import Point
                    moved[i] = Point(ch.a.x + t * ux, ch.a.y + t * uy)
                    new_len = tour_length(moved)
                    assert new_len + 1e-8 >= res.tour.length
                    trials += 1
    assert trials > 0


def test_solve_is_deterministic(double, toothgap):
    for P, th in ((double, 10.0), (double, 130.0), (toothgap, 60.0)):
        a = solve_theta(P, Angle(th))
        b = solve_theta(P, Angle(th))
        assert a.tour.length == b.tour.length
        assert [tuple(p) for p in a.tour.cycle] == [tuple(p) for p in b.tour.cycle]
        assert ([tuple(p) for p in solve_stages(P, a)[2]]
                == [tuple(p) for p in solve_stages(P, b)[2]])
