"""Shared fixtures: the test polygons and seeded polygon families.

The families (comb, spiral, star, notched) and the toothgap points are
generated by the benchmark's ``perfbench/inputs.py``, so tests and
benchmark measure the same polygons.  It is loaded by file path under a
module name of its own, since ``perfbench`` is not a package.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from monowatch import Angle, EventAngleError, enumerate_candidate_events
from monowatch.geom import GeometryError, Point, Polygon


def _load_inputs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("monowatch_bench_inputs",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()

SQUARE_PTS = [(0, 0), (4, 0), (4, 4), (0, 4)]
UNOTCH_PTS = [(0, 0), (8, 0), (8, 6), (5, 6), (4, 2), (3, 6), (0, 6)]
DOUBLE_PTS = [(0, 0), (5, 0), (6, 4), (7, 0), (8, 0),
              (8, 6), (3, 6), (2, 2), (1, 6), (0, 6)]
# corridor winding 1.25 turns; tours are positive on [0, 90) and a
# single point covers everything on [90, 180)
SPIRAL_PTS = [(0, 0), (10, 0), (10, 8), (2, 8), (2, 3), (4, 3), (4, 6),
              (8, 6), (8, 2), (0, 2)]


def make_polygon(pts):
    return Polygon([Point(float(x), float(y)) for x, y in pts])


@pytest.fixture(scope="session")
def square():
    return make_polygon(SQUARE_PTS)


@pytest.fixture(scope="session")
def unotch():
    return make_polygon(UNOTCH_PTS)


@pytest.fixture(scope="session")
def double():
    return make_polygon(DOUBLE_PTS)


@pytest.fixture(scope="session")
def toothgap():
    return make_polygon(inputs.TOOTHGAP_PTS)


@pytest.fixture(scope="session")
def spiral():
    return make_polygon(SPIRAL_PTS)


def comb(k: int, seed: int = 0) -> Polygon:
    return make_polygon(inputs.comb(k, seed))


def spiral_corridor(seed: int) -> Polygon:
    return make_polygon(inputs.spiral(seed))


def star_polygon(n: int, seed: int) -> Polygon:
    """The first ring of ``inputs.star(n, seed)`` that is a simple polygon."""
    for pts in inputs.star(n, seed):
        try:
            return make_polygon(pts)
        except GeometryError:
            continue
    raise GeometryError(f"no simple star polygon for n={n}, seed={seed}")


def corpus_polygon(seed: int) -> Polygon:
    return star_polygon(6 + seed % 9, seed)


def notched_polygon(seed: int) -> Polygon:
    return make_polygon(inputs.notched(seed))


def mixed_corpus(count: int):
    """Alternating star-shaped and notched instances, seeded by index."""
    out = []
    for i in range(count):
        if i % 5 < 3:
            out.append(corpus_polygon(i))
        else:
            out.append(notched_polygon(i))
    return out


def nonevent_angles(P: Polygon, rng: random.Random, count: int,
                    margin: float = 2e-3):
    """Random angles at least `margin` degrees away from any candidate event."""
    evs = sorted(e.angle_deg for e in enumerate_candidate_events(P))

    def clear(t: float) -> bool:
        for a in evs:
            d = abs(a - t)
            if min(d, 180.0 - d) <= margin:
                return False
        return True

    out = []
    while len(out) < count:
        t = rng.uniform(0.0, 180.0)
        if clear(t):
            out.append(t)
    return out


def solve_or_none(P: Polygon, theta: float):
    from monowatch import solve_theta
    try:
        return solve_theta(P, Angle(theta))
    except EventAngleError:
        return None


def reference_corpus():
    """(polygon, angle) pairs the reference comparisons solve: the mixed
    corpus at 10 angles each, combs k=2..128 at one angle in each 7.5
    degree slice, spiral seeds 0-7 at 30 angles each and toothgap at 60."""
    cases = []
    for i, P in enumerate(mixed_corpus(200)):
        rng = random.Random(i)
        cases.extend((P, rng.uniform(0.0, 180.0)) for _ in range(10))
    for k in (2, 8, 16, 32, 64, 128):
        P = comb(k)
        rng = random.Random(k)
        cases.extend((P, rng.uniform(7.5 * j, 7.5 * (j + 1)))
                     for j in range(24))
    for seed in range(8):
        P = spiral_corridor(seed)
        rng = random.Random(seed)
        cases.extend((P, rng.uniform(0.0, 180.0)) for _ in range(30))
    P = make_polygon(inputs.TOOTHGAP_PTS)
    cases.extend((P, 3.0 * j + 0.5) for j in range(60))
    return cases


@pytest.fixture(scope="session")
def corpus_solves():
    """(polygon, angle, solve result) for every solvable reference case."""
    out = []
    for P, th in reference_corpus():
        res = solve_or_none(P, th)
        if res is not None:
            out.append((P, th, res))
    return out
