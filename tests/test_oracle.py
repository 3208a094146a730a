import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monowatch import Angle, GeometryError, oracle, solve_theta
from monowatch.cuts import CutKind
from monowatch.geom import (
    TAU_ONEDGE,
    Point,
    Polygon,
    Segment,
    point_segment_distance,
)
from monowatch.oracle import (
    dense_sweep,
    reference_min_tour,
    validate_tour,
)
from monowatch.sleeve import tour_length

from conftest import (
    THREE_GATE_DEG,
    corpus_polygon,
    left_region_contains,
    mixed_corpus,
    notched_polygon,
    spiral_corridor,
    star_polygon,
)


def test_validate_accepts_solver_output(double):
    res = solve_theta(double, Angle(0.0))
    rep = validate_tour(double, Angle(0.0), res.tour)
    assert rep.valid
    assert rep.violated_cuts == []
    assert rep.max_violation == 0.0
    assert len(rep.coverage) == 4


def test_validate_flags_uncovered_cuts(double):
    rep = validate_tour(double, Angle(0.0), [(7.0, 1.0)])
    assert not rep.valid
    got = {(c.vertex_index, c.color.value, c.kind.value)
           for c in rep.violated_cuts}
    assert got == {(2, "Red", "Forward"), (7, "Blue", "Backward")}
    assert rep.max_violation == pytest.approx(3.0, abs=1e-9)


def test_validate_point_tour(unotch):
    rep = validate_tour(unotch, Angle(0.0), [(4.0, 2.0)])
    assert rep.valid


def _coverage(rep, vertex, kind):
    return next(c for c in rep.coverage
                if c.cut.vertex_index == vertex and c.cut.kind is kind)


def test_validate_counts_an_edge_across_the_chord(double):
    # neither vertex lies left of the chord from (5.5, 2) to (2, 2), but
    # the edge crosses it at x = 5.4 (and leaves through the spike)
    tour = [(4.0, 3.0), (7.5, 0.5)]
    rep = validate_tour(double, Angle(0.0), tour)
    cov = _coverage(rep, 7, CutKind.BACKWARD)
    assert cov.cut.chord == Segment(Point(5.5, 2.0), Point(2.0, 2.0))
    assert not any(left_region_contains(double, cov.cut, Point(*p))
                   for p in tour)
    assert cov.covered and cov.violation == 0.0
    assert not rep.valid and len(rep.messages) == 2


def test_validate_violation_from_a_chord_end(double):
    # the tour misses the same cut; the chord's end (5.5, 2) is nearer to
    # its edge than either vertex is to the chord
    a, b = Point(5.7, 2.9), Point(2.3, 3.0)
    rep = validate_tour(double, Angle(0.0), [a, b])
    cov = _coverage(rep, 7, CutKind.BACKWARD)
    assert not cov.covered and rep.messages == ()
    want = point_segment_distance(Point(5.5, 2.0), Segment(a, b))
    assert cov.violation == pytest.approx(want, abs=1e-12)
    assert cov.violation < min(point_segment_distance(p, cov.cut.chord)
                               for p in (a, b)) - 0.01
    assert cov.cut in rep.violated_cuts


def test_validate_rejects_outside_points(square):
    with pytest.raises(GeometryError):
        validate_tour(square, Angle(0.0), [(2.0, 2.0), (9.0, 2.0)])


def test_validate_flags_edge_leaving_polygon(double):
    rep = validate_tour(double, 0.5, [(4.0, 1.0), (7.5, 1.0)])
    assert rep.valid is False
    assert rep.messages[0] == ("tour edge leaves the polygon near "
                               "(5.312500,1.000000)")


@pytest.mark.parametrize("m", [1, 0, -3, 2.5])
def test_reference_refuses_bad_sample_count(double, m):
    with pytest.raises(GeometryError, match="^m must be an integer"):
        reference_min_tour(double, Angle(0.0), m=m)


def test_reference_matches_exact_double(double):
    ref = reference_min_tour(double, Angle(0.0), m=200)
    assert ref.length == pytest.approx(4.000028408272647, abs=1e-9)
    assert ref.slack == pytest.approx(0.035175879396984924, abs=1e-12)
    assert ref.order == (0, 1)
    exact = solve_theta(double, Angle(0.0)).tour.length
    assert exact <= ref.length + 1e-12
    assert ref.length <= exact + ref.slack


def test_reference_zero_cases(square, unotch):
    # a convex polygon has no cuts, and the reference still names a point
    ref = reference_min_tour(square, Angle(33.0), m=50)
    assert (ref.length, ref.slack, ref.order) == (0.0, 0.0, ())
    assert ref.points == (square.vertices[0],)
    assert validate_tour(square, Angle(33.0), ref.points).valid
    assert reference_min_tour(unotch, Angle(0.0), m=50).length == 0.0


def test_reference_gate_cap(monkeypatch):
    P = notched_polygon(1)
    monkeypatch.setattr(oracle, "MAX_GATES", 1)
    with pytest.raises(GeometryError):
        reference_min_tour(P, Angle(19.0), m=20)


def test_reference_chains_three_gates(threegate, monkeypatch):
    """With every straight join allowed, a three-gate case runs the
    min-plus chain and the backtracking: the one visiting order holds
    each gate once, and its points give back the reported length."""
    monkeypatch.setattr(oracle, "_segment_mask",
                        lambda P, A, B: np.ones((len(A), len(B)), bool))
    ref = reference_min_tour(threegate, Angle(THREE_GATE_DEG[10]), m=40)
    assert sorted(ref.order) == [0, 1, 2]
    assert len(ref.points) == 3
    assert tour_length(ref.points) == pytest.approx(ref.length, abs=1e-9)


def test_reference_brackets_solver_on_notched():
    """The reference answers 0 exactly when one point lies in every
    cut's region, and otherwise visits every gate chord on its grid:
    on these cases it brackets the solver wherever it answers, zero
    tours included."""
    upper = bracketed = 0
    for seed in (0, 2, 3, 5):
        P = notched_polygon(seed)
        for th in (19.0, 101.0):
            try:
                exact = solve_theta(P, Angle(th)).tour.length
                ref = reference_min_tour(P, Angle(th), m=120)
            except GeometryError:
                continue
            assert exact <= ref.length + 1e-9
            assert ref.length - ref.slack <= exact
            upper += 1
            if exact > 1e-9:
                bracketed += 1
    assert upper >= 5
    assert bracketed >= 2


def test_reference_brackets_solver_on_mixed_corpus(monkeypatch):
    """On the mixed corpus the reference brackets the solver wherever it
    answers; a point tour's witness validates; and a grid case builds
    one mask per unordered pair of gates."""
    mask = oracle._segment_mask
    calls = []

    def spy(P, A, B):
        calls.append(1)
        return mask(P, A, B)

    monkeypatch.setattr(oracle, "_segment_mask", spy)
    points = grids = 0
    for i, P in enumerate(mixed_corpus(200)):
        th = random.Random(i).uniform(0.0, 180.0)
        try:
            exact = solve_theta(P, Angle(th)).tour.length
            calls.clear()
            ref = reference_min_tour(P, Angle(th), m=200)
        except GeometryError:
            continue
        assert ref.length - ref.slack <= exact, (i, th)
        assert exact <= ref.length + 1e-9, (i, th)
        if ref.length == 0.0:
            assert len(ref.points) == 1
            assert validate_tour(P, Angle(th), ref.points).valid, (i, th)
            assert calls == []
            points += 1
        else:
            K = len(ref.order)
            assert len(calls) == K * (K - 1) // 2, (i, th)
            grids += 1
    assert points >= 140
    assert grids >= 35


def test_dense_sweep_square_flat(square):
    rows = dense_sweep(square, step_deg=1.0)
    assert len(rows) == 180
    assert all(v == 0.0 for _, v in rows)
    assert [a for a, _ in rows] == [float(k) for k in range(180)]


def test_dense_sweep_double_row(double):
    rows = dense_sweep(double, step_deg=1.0)
    byangle = dict(rows)
    assert byangle[0.0] == pytest.approx(4.0, abs=1e-3)
    assert byangle[45.0] == 0.0
    assert byangle[130.0] == pytest.approx(8.699505983697986, abs=1e-3)


@pytest.mark.parametrize("name, value", [
    ("step_deg", 0.0), ("step_deg", -1.0), ("step_deg", math.nan),
    ("step_deg", math.inf),
])
def test_dense_sweep_refuses_endless_grid(square, monkeypatch, name, value):
    """A step that is not finite and positive is refused before any
    angle is solved."""
    def solve_theta(*args):
        raise AssertionError("dense_sweep solved an angle")

    monkeypatch.setattr(oracle, "solve_theta", solve_theta)
    with pytest.raises(GeometryError, match=f"^{name} must be finite"):
        dense_sweep(square, **{name: value})


def test_jittered_polygon_shape():
    for n, seed in ((6, 0), (9, 4), (14, 11)):
        P = star_polygon(n, seed)
        assert len(P.vertices) == n
        for v in P.vertices:
            r = math.hypot(v.x, v.y)
            assert 10.0 * 0.55 - 1e-9 <= r <= 10.0 * 1.45 + 1e-9


def test_jittered_polygon_deterministic():
    a = star_polygon(8, 3)
    b = star_polygon(8, 3)
    assert [tuple(p) for p in a.vertices] == [tuple(p) for p in b.vertices]
    c = star_polygon(8, 4)
    assert [tuple(p) for p in a.vertices] != [tuple(p) for p in c.vertices]


# ---------------------------------------------------------------------------
# the pruned segment mask against the mask that tests every edge


def _reference_segment_mask(P: Polygon, A: np.ndarray,
                            B: np.ndarray) -> np.ndarray:
    """Which straight segments A[i] -> B[j] stay inside the polygon."""
    verts = np.array(P.vertices)
    E0 = verts
    E1 = np.roll(verts, -1, axis=0)
    mA = A.shape[0]
    mB = B.shape[0]
    ok = np.ones((mA, mB), dtype=bool)
    Ax = A[:, 0][:, None]
    Ay = A[:, 1][:, None]
    Bx = B[:, 0][None, :]
    By = B[:, 1][None, :]
    dx = Bx - Ax
    dy = By - Ay
    for k in range(len(verts)):
        px, py = E0[k]
        qx, qy = E1[k]
        ex = qx - px
        ey = qy - py
        d1 = ex * (Ay - py) - ey * (Ax - px)
        d2 = ex * (By - py) - ey * (Bx - px)
        o1 = dx * (py - Ay) - dy * (px - Ax)
        o2 = dx * (qy - Ay) - dy * (qx - Ax)
        proper = (d1 * d2 < -1e-12) & (o1 * o2 < -1e-12)
        ok &= ~proper
    # midpoints must not fall outside (catches segments through notches
    # that only touch the boundary at vertices)
    Mx = (Ax + Bx) / 2.0
    My = (Ay + By) / 2.0
    inside = np.zeros((mA, mB), dtype=bool)
    near = np.zeros((mA, mB), dtype=bool)
    for k in range(len(verts)):
        px, py = E0[k]
        qx, qy = E1[k]
        cond = (py > My) != (qy > My)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = px + (My - py) * (qx - px) / (qy - py)
        inside ^= cond & (Mx < xcross)
        # distance of midpoints to this edge
        ex = qx - px
        ey = qy - py
        L2 = ex * ex + ey * ey
        t = ((Mx - px) * ex + (My - py) * ey) / L2
        t = np.clip(t, 0.0, 1.0)
        ddx = Mx - (px + t * ex)
        ddy = My - (py + t * ey)
        near |= (ddx * ddx + ddy * ddy) <= (10 * TAU_ONEDGE) ** 2
    ok &= inside | near
    return ok


MASK_POLYGONS = ([corpus_polygon(s) for s in range(9)]
                 + [notched_polygon(s) for s in range(5)]
                 + [spiral_corridor(s) for s in range(4)])


def _mask_points(P: Polygon, draw, label: str) -> np.ndarray:
    """Up to 12 points: anywhere in P's bounding box, at a vertex's
    height, on a vertex or on an edge midpoint, so that segments touch
    the boundary and midpoints sit level with vertices."""
    vs = P.vertices
    n = len(vs)
    x0, x1 = min(v.x for v in vs), max(v.x for v in vs)
    y0, y1 = min(v.y for v in vs), max(v.y for v in vs)
    unit = st.floats(min_value=0.0, max_value=1.0)
    point = st.one_of(
        st.tuples(unit, unit).map(
            lambda uv: (x0 + uv[0] * (x1 - x0), y0 + uv[1] * (y1 - y0))),
        st.tuples(unit, st.integers(0, n - 1)).map(
            lambda uk: (x0 + uk[0] * (x1 - x0), vs[uk[1]].y)),
        st.integers(0, n - 1).map(lambda k: (vs[k].x, vs[k].y)),
        st.integers(0, n - 1).map(
            lambda k: ((vs[k].x + vs[(k + 1) % n].x) / 2.0,
                       (vs[k].y + vs[(k + 1) % n].y) / 2.0)))
    pts = draw(st.lists(point, min_size=1, max_size=12), label=label)
    return np.array(pts, dtype=float)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_segment_mask_equals_unpruned_mask(data):
    P = data.draw(st.sampled_from(MASK_POLYGONS), label="polygon")
    A = _mask_points(P, data.draw, "A")
    B = _mask_points(P, data.draw, "B")
    assert np.array_equal(oracle._segment_mask(P, A, B),
                          _reference_segment_mask(P, A, B))


def _reference_answer(P: Polygon, theta: float):
    try:
        ref = reference_min_tour(P, Angle(theta), m=60)
    except GeometryError as exc:
        return str(exc)
    return ref.length, ref.slack, ref.order, ref.points


def test_reference_answers_equal_unpruned_mask(monkeypatch):
    cases = [(P, random.Random(i).uniform(0.0, 180.0))
             for i, P in enumerate(mixed_corpus(200))]
    cases += [(spiral_corridor(s), th)
              for s in range(8) for th in (10.0, 40.0, 130.0)]
    pruned = [_reference_answer(P, th) for P, th in cases]
    monkeypatch.setattr(oracle, "_segment_mask", _reference_segment_mask)
    assert pruned == [_reference_answer(P, th) for P, th in cases]
