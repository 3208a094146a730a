#!/usr/bin/env python3
"""Benchmark the fixed-angle solver on random polygons.

Generates two families (star-shaped jittered circles and rectangles
with carved teeth), times solve_theta over a spread of angles, checks
every tour with the coverage validator, and cross-checks lengths
against the brute-force chord-grid reference where it applies.

Usage:
    python3 scripts/benchmark_solver.py --polygons 60 --angles 8
"""

import argparse
import math
import random
import sys
import time
from pathlib import Path

# run from a checkout without installing the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from monowatch import Angle, EventAngleError, GeometryError, solve_theta
from monowatch.oracle import (
    jittered_circle_polygon,
    reference_min_tour,
    validate_tour,
)


def notched(seed, rng_offset=9000):
    """Rectangle with 2-3 teeth/notches carved from opposite sides."""
    rng = random.Random(rng_offset + seed)
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
    pts = [(0.0, 0.0)]
    for xl, xm, xr, h in bottom:
        pts.extend([(xl, 0.0), (xm, h), (xr, 0.0)])
    pts.extend([(W, 0.0), (W, H)])
    for xl, xm, xr, h in sorted(top, reverse=True):
        pts.extend([(xr, H), (xm, h), (xl, H)])
    pts.append((0.0, H))
    from monowatch import Polygon, Point
    return Polygon([Point(x, y) for x, y in pts])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--polygons", type=int, default=60,
                    help="instances per family (default 60)")
    ap.add_argument("--angles", type=int, default=8,
                    help="angles per instance (default 8)")
    ap.add_argument("--reference", action="store_true",
                    help="also cross-check against the grid oracle")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    fams = [
        ("star", lambda s: jittered_circle_polygon(6 + s % 9, s)),
        ("notched", notched),
    ]
    for fam_name, build in fams:
        solves = skipped = invalid = positive = 0
        total_t = 0.0
        lengths = []
        for s in range(args.polygons):
            P = build(s)
            for _ in range(args.angles):
                th = rng.uniform(0.0, 180.0)
                t0 = time.perf_counter()
                try:
                    res = solve_theta(P, Angle(th))
                except EventAngleError:
                    skipped += 1
                    continue
                total_t += time.perf_counter() - t0
                solves += 1
                lengths.append(res.tour.length)
                if res.tour.length > 1e-9:
                    positive += 1
                if not validate_tour(P, Angle(th), res.tour).valid:
                    invalid += 1
        ms = 1000.0 * total_t / max(solves, 1)
        print(f"{fam_name:8s} solves={solves} skipped={skipped} "
              f"invalid={invalid} positive={positive} "
              f"mean={sum(lengths) / max(len(lengths), 1):.3f} "
              f"max={max(lengths, default=0.0):.3f} {ms:.3f} ms/solve")
        if invalid:
            print("  VALIDATION FAILURES PRESENT", file=sys.stderr)
            return 1

    if args.reference:
        print("reference cross-check (gate count <= 4, m = 200):")
        agree = checked = 0
        worst = 0.0
        for s in range(min(args.polygons, 20)):
            P = notched(s)
            for th in (19.0, 64.0, 101.0, 142.0):
                try:
                    res = solve_theta(P, Angle(th))
                    ref = reference_min_tour(P, Angle(th), m=200)
                except (EventAngleError, GeometryError):
                    continue
                checked += 1
                slack = ref.slack + 1e-9
                gap = res.tour.length - ref.length
                worst = max(worst, gap)
                if gap <= slack:
                    agree += 1
        print(f"  {agree}/{checked} within slack, "
              f"worst overshoot {worst:.3e}")
        if agree < checked:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
