"""Shared fixtures: the four test polygons and seeded polygon families."""

import math
import random

import pytest

from monowatch import Angle, EventAngleError, enumerate_candidate_events
from monowatch.geom import Point, Polygon
from monowatch.oracle import jittered_circle_polygon

SQUARE_PTS = [(0, 0), (4, 0), (4, 4), (0, 4)]
UNOTCH_PTS = [(0, 0), (8, 0), (8, 6), (5, 6), (4, 2), (3, 6), (0, 6)]
DOUBLE_PTS = [(0, 0), (5, 0), (6, 4), (7, 0), (8, 0),
              (8, 6), (3, 6), (2, 2), (1, 6), (0, 6)]
# wider shape with three notches; exercises same-color gate pairs and
# richer sweep event mixes than the smaller fixtures
TOOTHGAP_PTS = [(0, 0), (6, 0), (6.5, 6), (7, 0), (12, 0), (12, 8), (10, 8),
                (9, 3), (8, 8), (5, 8), (4, 4), (3, 8), (0, 8)]

# corridor winding 1.25 turns; tours are positive on [0, 90) and a
# single point covers everything on [90, 180)
SPIRAL_PTS = [(0, 0), (10, 0), (10, 8), (2, 8), (2, 3), (4, 3), (4, 6),
              (8, 6), (8, 2), (0, 2)]

# 1.75-turn square spiral corridor, 16 vertices of which 6 are reflex;
# its tours have positive length at every angle
SPIRAL_BASE = [(0, 0), (16, 0), (16, 14), (0, 14), (0, 4), (12, 4),
               (12, 10), (4, 10), (4, 8), (10, 8), (10, 6), (2, 6),
               (2, 12), (14, 12), (14, 2), (0, 2)]


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
    return make_polygon(TOOTHGAP_PTS)


@pytest.fixture(scope="session")
def spiral():
    return make_polygon(SPIRAL_PTS)


def spiral_corridor(seed: int):
    """Spiral corridor: seed 0 is the base, others jitter and rotate it.

    A positive seed draws an angle from U(0, 90) degrees, moves every
    coordinate by U(-0.2, 0.2) and rotates the result about the origin.
    The benchmark generates the same family; keep the two identical.
    """
    if seed == 0:
        return [(float(x), float(y)) for x, y in SPIRAL_BASE]
    rng = random.Random(seed)
    a = math.radians(rng.uniform(0.0, 90.0))
    c, s = math.cos(a), math.sin(a)
    out = []
    for x, y in SPIRAL_BASE:
        x += rng.uniform(-0.2, 0.2)
        y += rng.uniform(-0.2, 0.2)
        out.append((c * x - s * y, s * x + c * y))
    return out


def comb(k: int, seed: int = 0):
    """Comb with k V-teeth in a (2k+2) x 10 rectangle, 3k+4 vertices.

    Even teeth rise from the bottom, odd teeth hang from the top, and
    every apex is a reflex vertex.  The benchmark generates the same
    family; keep the two identical.
    """
    rng = random.Random(seed)
    width = 2.0 * k + 2.0
    bottom, top = [], []
    for i in range(k):
        x0 = 1.1 + 2.0 * i
        x1 = x0 + 1.4
        apex = 0.5 * (x0 + x1) + rng.uniform(-0.3, 0.3)
        if i % 2 == 0:
            bottom.append((x0, apex, x1, rng.uniform(5.5, 8.0)))
        else:
            top.append((x0, apex, x1, rng.uniform(2.0, 4.5)))
    pts = [(0.0, 0.0)]
    for x0, apex, x1, h in bottom:
        pts.extend([(x0, 0.0), (apex, h), (x1, 0.0)])
    pts.extend([(width, 0.0), (width, 10.0)])
    for x0, apex, x1, h in reversed(top):
        pts.extend([(x1, 10.0), (apex, h), (x0, 10.0)])
    pts.append((0.0, 10.0))
    return pts


def corpus_polygon(seed: int) -> Polygon:
    n = 6 + seed % 9
    return jittered_circle_polygon(n, seed)


def notched_polygon(seed: int) -> Polygon:
    """Rectangle with teeth rising from the bottom edge and notches hanging
    from the top.  Radial-jitter polygons are star shaped, so some kernel
    point is a zero length tour at every angle; opposing notches are what
    force tours of positive length.
    """
    rng = random.Random(9000 + seed)
    W = rng.uniform(9.0, 13.0)
    H = rng.uniform(5.0, 8.0)
    k = rng.choice((2, 2, 3))
    sides = ["bottom", "top"]
    while len(sides) < k:
        sides.append(rng.choice(("bottom", "top")))
    rng.shuffle(sides)
    # lay the slots out as scaled widths and gaps so they stay disjoint
    widths = [rng.uniform(0.8, 2.2) for _ in range(k)]
    gaps = [rng.uniform(0.5, 1.5) for _ in range(k + 1)]
    scale = (W - 1.6) / (sum(widths) + sum(gaps))
    slots = []
    x = 0.8 + gaps[0] * scale
    for i in range(k):
        slots.append((x, x + widths[i] * scale))
        x += (widths[i] + gaps[i + 1]) * scale
    bottom, top = [], []
    for (xl, xr), side in zip(slots, sides):
        xm = rng.uniform(xl + 0.15 * (xr - xl), xr - 0.15 * (xr - xl))
        if side == "bottom":
            bottom.append((xl, xm, xr, rng.uniform(0.45 * H, 0.85 * H)))
        else:
            top.append((xl, xm, xr, rng.uniform(0.15 * H, 0.55 * H)))
    pts = [(0.0, 0.0)]
    for xl, xm, xr, h in bottom:
        pts.extend([(xl, 0.0), (xm, h), (xr, 0.0)])
    pts.extend([(W, 0.0), (W, H)])
    for xl, xm, xr, h in sorted(top, reverse=True):
        pts.extend([(xr, H), (xm, h), (xl, H)])
    pts.append((0.0, H))
    return make_polygon(pts)


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
