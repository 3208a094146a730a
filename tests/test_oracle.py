import math

import pytest

from monowatch import Angle, GeometryError, solve_theta
from monowatch.oracle import (
    dense_sweep,
    reference_min_tour,
    validate_tour,
)

from conftest import notched_polygon, star_polygon


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


def test_validate_rejects_outside_points(square):
    with pytest.raises(GeometryError):
        validate_tour(square, Angle(0.0), [(2.0, 2.0), (9.0, 2.0)])


def test_validate_flags_edge_leaving_polygon(double):
    rep = validate_tour(double, 0.5, [(4.0, 1.0), (7.5, 1.0)])
    assert rep.valid is False
    assert rep.messages[0] == ("tour edge leaves the polygon near "
                               "(5.312500,1.000000)")


def test_reference_matches_exact_double(double):
    ref = reference_min_tour(double, Angle(0.0), m=200)
    assert ref.length == pytest.approx(4.000028408272647, abs=1e-9)
    assert ref.slack == pytest.approx(0.035175879396984924, abs=1e-12)
    assert ref.order == (0, 1)
    exact = solve_theta(double, Angle(0.0)).tour.length
    assert exact <= ref.length + 1e-12
    assert ref.length <= exact + ref.slack


def test_reference_zero_cases(square, unotch):
    assert reference_min_tour(square, Angle(33.0), m=50).length == 0.0
    assert reference_min_tour(unotch, Angle(0.0), m=50).length == 0.0


def test_reference_gate_cap():
    P = notched_polygon(1)
    with pytest.raises(GeometryError):
        reference_min_tour(P, Angle(19.0), m=20, max_gates=1)


def test_reference_brackets_solver_on_notched():
    """The reference tours must visit every gate chord, so its value is
    always an upper bound; it matches the solver to within sampling
    slack only when the optimum is positive (a zero tour covers the
    cuts from a common interior point without touching any chord)."""
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
            upper += 1
            if exact > 1e-9:
                assert ref.length <= exact + ref.slack + 1e-9
                bracketed += 1
    assert upper >= 5
    assert bracketed >= 2


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
