"""Seeded polygon families the benchmark feeds to the library.

The benchmark owns these generators so that moving or changing the
library's own corpus code cannot change what is measured.  Every
generator takes an integer seed and returns plain ``(x, y)`` tuples;
the caller builds the library's ``Polygon`` from them.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

Pts = List[Tuple[float, float]]

# fixture with three notches whose best tour is a single point; its
# sweep spends most of its full solves in minimum refinement
TOOTHGAP_PTS: Pts = [(0, 0), (6, 0), (6.5, 6), (7, 0), (12, 0), (12, 8),
                     (10, 8), (9, 3), (8, 8), (5, 8), (4, 4), (3, 8), (0, 8)]

# 1.75-turn square spiral corridor, 16 vertices of which 6 are reflex
SPIRAL_BASE: Pts = [(0, 0), (16, 0), (16, 14), (0, 14), (0, 4), (12, 4),
                    (12, 10), (4, 10), (4, 8), (10, 8), (10, 6), (2, 6),
                    (2, 12), (14, 12), (14, 2), (0, 2)]


def comb(k: int, seed: int) -> Pts:
    """Comb with k V-teeth in a (2k+2) x 10 rectangle, 3k+4 vertices.

    Tooth i has a base of width 1.4 starting at x = 1.1 + 2i and an
    apex x jittered by +-0.3 about the base centre.  Even teeth rise
    from the bottom to a height drawn from U(5.5, 8); odd teeth hang
    from the top with their tip at a y drawn from U(2, 4.5), so the
    teeth interleave and every apex is a reflex vertex.
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
    pts: Pts = [(0.0, 0.0)]
    for x0, apex, x1, h in bottom:
        pts.extend([(x0, 0.0), (apex, h), (x1, 0.0)])
    pts.extend([(width, 0.0), (width, 10.0)])
    for x0, apex, x1, h in reversed(top):
        pts.extend([(x1, 10.0), (apex, h), (x0, 10.0)])
    pts.append((0.0, 10.0))
    return pts


def spiral(seed: int) -> Pts:
    """Spiral corridor: seed 0 is the base, others jitter and rotate it.

    A positive seed draws an angle from U(0, 90) degrees, moves every
    coordinate by U(-0.2, 0.2) and rotates the result about the origin.
    """
    if seed == 0:
        return [(float(x), float(y)) for x, y in SPIRAL_BASE]
    rng = random.Random(seed)
    a = math.radians(rng.uniform(0.0, 90.0))
    c, s = math.cos(a), math.sin(a)
    out: Pts = []
    for x, y in SPIRAL_BASE:
        x += rng.uniform(-0.2, 0.2)
        y += rng.uniform(-0.2, 0.2)
        out.append((c * x - s * y, s * x + c * y))
    return out


def star(n: int, seed: int, radius: float = 10.0, jitter: float = 0.45,
         min_sep: float = 0.05):
    """Candidate rings of a star-shaped polygon, one per attempt.

    Jittered radii at sorted random angles; the caller takes the first
    ring the library accepts as a simple polygon.
    """
    rng = random.Random(seed)
    for _ in range(200):
        angs = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
        gaps = [angs[(i + 1) % n] - angs[i] for i in range(n - 1)]
        gaps.append(2.0 * math.pi - (angs[-1] - angs[0]))
        if min(gaps) < min_sep:
            continue
        pts = []
        for a in angs:
            r = radius * (1.0 + rng.uniform(-jitter, jitter))
            pts.append((r * math.cos(a), r * math.sin(a)))
        yield pts


def notched(seed: int) -> Pts:
    """Rectangle with 2-3 V-slots cut from the bottom and top edges.

    Star-shaped polygons always have a single-point tour; opposing
    notches are what force tours of positive length.
    """
    rng = random.Random(9000 + seed)
    W = rng.uniform(9.0, 13.0)
    H = rng.uniform(5.0, 8.0)
    k = rng.choice((2, 2, 3))
    sides = ["bottom", "top"]
    while len(sides) < k:
        sides.append(rng.choice(("bottom", "top")))
    rng.shuffle(sides)
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
    pts: Pts = [(0.0, 0.0)]
    for xl, xm, xr, h in bottom:
        pts.extend([(xl, 0.0), (xm, h), (xr, 0.0)])
    pts.extend([(W, 0.0), (W, H)])
    for xl, xm, xr, h in sorted(top, reverse=True):
        pts.extend([(xr, H), (xm, h), (xl, H)])
    pts.append((0.0, H))
    return pts
