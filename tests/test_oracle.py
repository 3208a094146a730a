import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monowatch import Angle, GeometryError, oracle, solve_theta
from monowatch.cuts import CutKind, compute_cuts
from monowatch.gates import compute_gates
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
    assert all(type(c) is float for p in ref.points for c in p)
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
    answers; a point tour's witness validates; a grid case decides each
    unordered pair of gates in one direction only, and with three or
    more gates builds one mask per pair."""
    inside = oracle._segments_inside
    calls = []

    def spy(P, Ax, Ay, Bx, By):
        calls.append((Ax, Ay, Bx, By))
        return inside(P, Ax, Ay, Bx, By)

    monkeypatch.setattr(oracle, "_segments_inside", spy)
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
            continue
        K = len(ref.order)
        samples = [set(map(tuple, oracle._chord_samples(g, 200).tolist()))
                   for g in compute_gates(P, compute_cuts(P, Angle(th)))]

        def gate(xs, ys):
            ends = set(zip(xs.ravel().tolist(), ys.ravel().tolist()))
            return next(k for k, s in enumerate(samples) if ends <= s)

        pairs = {(gate(Ax, Ay), gate(Bx, By)) for Ax, Ay, Bx, By in calls}
        assert not any((b, a) in pairs for a, b in pairs), (i, th)
        masks = [c for c in calls if c[0].ndim == 2]
        if K == 2:
            # the nearest-first rounds decide disjoint sets of segments
            segs = [seg for c in calls if c[0].ndim == 1
                    for seg in zip(*(v.tolist() for v in c))]
            assert len(segs) == len(set(segs)), (i, th)
            assert len(masks) <= 1, (i, th)
        else:
            assert len(masks) == len(calls) == K * (K - 1) // 2, (i, th)
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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_segment_pairs_equal_grid_entries(data):
    """The mask's one predicate gives each segment the same answer
    whether it is decided on a grid or among paired ends."""
    P = data.draw(st.sampled_from(MASK_POLYGONS), label="polygon")
    A = _mask_points(P, data.draw, "A")
    B = _mask_points(P, data.draw, "B")
    pair = st.tuples(st.integers(0, len(A) - 1), st.integers(0, len(B) - 1))
    i, j = np.array(data.draw(st.lists(pair, min_size=1, max_size=20),
                              label="pairs")).T
    got = oracle._segments_inside(P, A[i, 0], A[i, 1], B[j, 0], B[j, 1])
    assert got.tolist() == oracle._segment_mask(P, A, B)[i, j].tolist()


def _full_grid_min_tour(P: Polygon, theta, m: int = 200):
    """The reference as it was before the nearest-first two-gate search,
    on the unpruned mask: every gate pair decided on the full grid, and
    every order run through the min-plus chain."""
    oracle._check_count("m", m)
    ang = theta if isinstance(theta, Angle) else Angle(theta)
    cuts = compute_cuts(P, ang)
    witness = oracle._common_point(P, cuts)
    if witness is not None:
        return oracle.ReferenceResult(0.0, 0.0, (), (witness,))
    gates = compute_gates(P, cuts)
    K = len(gates)
    if K > oracle.MAX_GATES:
        raise GeometryError(f"reference oracle capped at {oracle.MAX_GATES} "
                            f"gates, got {K}")
    chords = [g.chord for g in gates]
    grids = [oracle._chord_samples(g, m) for g in gates]
    slack = sum(c.length() / (m - 1) for c in chords)

    masks: dict = {}

    def cost(i: int, j: int) -> np.ndarray:
        if i > j:
            return cost(j, i).T
        key = (i, j)
        if key not in masks:
            A, B = grids[i], grids[j]
            d = np.hypot(A[:, 0][:, None] - B[:, 0][None, :],
                         A[:, 1][:, None] - B[:, 1][None, :])
            mask = _reference_segment_mask(P, A, B)
            d = np.where(mask, d, np.inf)
            masks[key] = d
        return masks[key]

    seen = set()
    orders = []
    for rest in itertools.permutations(range(1, K)):
        o = (0,) + rest
        canon = min(o, (0,) + tuple(reversed(rest)))
        if canon not in seen:
            seen.add(canon)
            orders.append(o)

    best = math.inf
    best_order: tuple = ()
    best_points: tuple = ()
    for order in orders:
        D = cost(order[0], order[1])
        trace = [D]
        for s in range(1, K - 1):
            D = oracle._minplus(D, cost(order[s], order[s + 1]))
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
            best_points = tuple(Point(*grids[order[s]][picks[s]])
                                for s in range(K))
    if math.isinf(best):
        raise GeometryError("no feasible straight-line tour on the grid")
    return oracle.ReferenceResult(best, slack, best_order, best_points)


def _answer(search, P: Polygon, theta: float, m: int = 60):
    try:
        ref = search(P, Angle(theta), m=m)
    except GeometryError as exc:
        return str(exc)
    return ref.length, ref.slack, ref.order, ref.points


def test_reference_answers_equal_unpruned_mask():
    """The pruned mask and the nearest-first two-gate search give every
    answer of the full-grid search on the unpruned mask."""
    cases = [(P, random.Random(i).uniform(0.0, 180.0))
             for i, P in enumerate(mixed_corpus(200))]
    cases += [(spiral_corridor(s), th)
              for s in range(8) for th in (10.0, 40.0, 130.0)]
    assert ([_answer(reference_min_tour, P, th) for P, th in cases]
            == [_answer(_full_grid_min_tour, P, th) for P, th in cases])


# ---------------------------------------------------------------------------
# open defects of the straight-join reference (ROADMAP item 1)

# mixed_corpus(200)[129] at this angle: the best straight join must bend
LOOSE_INDEX, LOOSE_DEG = 129, 145.0


def test_reference_loose_case_is_the_full_grid_answer():
    P = mixed_corpus(LOOSE_INDEX + 1)[LOOSE_INDEX]
    got = _answer(reference_min_tour, P, LOOSE_DEG, m=200)
    assert got == _answer(_full_grid_min_tour, P, LOOSE_DEG, m=200)
    assert got[0] == 9.537090771079605


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: a straight join cannot bend at "
                          "a reflex vertex, so the answer is loose here")
def test_reference_lower_bound_where_the_join_must_bend():
    P = mixed_corpus(LOOSE_INDEX + 1)[LOOSE_INDEX]
    ref = reference_min_tour(P, Angle(LOOSE_DEG), m=200)
    exact = solve_theta(P, Angle(LOOSE_DEG)).tour.length
    assert ref.length - ref.slack <= exact


@pytest.mark.xfail(strict=True, raises=GeometryError,
                   reason="ROADMAP item 1: straight joins find no feasible "
                          "three-gate tour on the grid")
def test_reference_answers_three_gates(threegate):
    ang = Angle(THREE_GATE_DEG[10])
    ref = reference_min_tour(threegate, ang, m=60)
    exact = solve_theta(threegate, ang).tour.length
    assert ref.length - ref.slack <= exact <= ref.length + 1e-9
