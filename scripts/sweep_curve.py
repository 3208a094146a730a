#!/usr/bin/env python3
"""Compare the event-driven sweep against a dense angle grid.

Computes the tour-length curve L(theta) for one polygon two ways: the
rotational sweep (event enumeration + per-interval refinement) and a
brute dense grid. Writes the curves as CSV, optionally renders the best
tour as SVG, and prints where the two minimizers land.

Usage:
    python3 scripts/sweep_curve.py --fixture double --csv curve.csv
    python3 scripts/sweep_curve.py --polygon poly.json --step-deg 0.1
"""

import argparse
import json
import sys
import time
from pathlib import Path

# run from a checkout without installing the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from monowatch import Angle, Polygon, Point, compute_cuts
from monowatch.cli import render_svg
from monowatch.oracle import dense_sweep
from monowatch.rotor import optimize

FIXTURES = {
    "square": [(0, 0), (4, 0), (4, 4), (0, 4)],
    "unotch": [(0, 0), (8, 0), (8, 6), (5, 6), (4, 2), (3, 6), (0, 6)],
    "double": [(0, 0), (5, 0), (6, 4), (7, 0), (8, 0), (8, 6), (3, 6),
               (2, 2), (1, 6), (0, 6)],
    "toothgap": [(0, 0), (6, 0), (6.5, 6), (7, 0), (12, 0), (12, 8),
                 (10, 8), (9, 3), (8, 8), (5, 8), (4, 4), (3, 8), (0, 8)],
    "spiral": [(0, 0), (10, 0), (10, 8), (2, 8), (2, 3), (4, 3), (4, 6),
               (8, 6), (8, 2), (0, 2)],
}


def load(args):
    if args.fixture:
        return Polygon([Point(float(x), float(y))
                        for x, y in FIXTURES[args.fixture]]), args.fixture
    with open(args.polygon, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    raw = doc["vertices"] if isinstance(doc, dict) else doc
    name = doc.get("name", args.polygon) if isinstance(doc, dict) \
        else args.polygon
    return Polygon([Point(float(p[0]), float(p[1])) for p in raw]), name


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--fixture", choices=sorted(FIXTURES))
    src.add_argument("--polygon", help="JSON file with a vertex list")
    ap.add_argument("--step-deg", type=float, default=0.25,
                    help="dense grid resolution (default 0.25)")
    ap.add_argument("--csv", default=None,
                    help="write both curves to this CSV file")
    ap.add_argument("--svg", default=None,
                    help="render the best tour to this SVG file")
    args = ap.parse_args()

    P, name = load(args)
    print(f"{name}: {len(P.vertices)} vertices, "
          f"{len(P.reflex_indices)} reflex")

    t0 = time.perf_counter()
    rep = optimize(P)
    t_opt = time.perf_counter() - t0
    t0 = time.perf_counter()
    rows = dense_sweep(P, args.step_deg)
    t_grid = time.perf_counter() - t0
    grid_theta, grid_len = min(rows, key=lambda r: (r[1], r[0]))

    print(f"sweep:      best L = {rep.best_length:.9f} at "
          f"theta = {rep.best_theta.degrees:.6f} deg "
          f"({len(rep.events)} events, {len(rep.intervals)} intervals, "
          f"{t_opt:.2f}s)")
    print(f"dense grid: best L = {grid_len:.9f} at "
          f"theta = {grid_theta:.6f} deg "
          f"({len(rows)} solves, {t_grid:.2f}s)")
    print(f"difference: {abs(rep.best_length - grid_len):.3e}")
    by_type = {}
    for e in rep.events:
        by_type[e.type.value] = by_type.get(e.type.value, 0) + 1
    if by_type:
        print("events:", ", ".join(f"{k} x{v}"
                                   for k, v in sorted(by_type.items())))

    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("theta_deg,length,source\n")
            for t, l in rep.samples:
                fh.write(f"{t:.9f},{l:.9f},sweep\n")
            for t, l in rows:
                fh.write(f"{t:.9f},{l:.9f},grid\n")
        print(f"wrote {args.csv}")
    if args.svg:
        try:
            cuts = compute_cuts(P, rep.best_theta)
        except Exception:
            cuts = ()
        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_svg(P, cuts, (), rep.best_tour))
        print(f"wrote {args.svg}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
