"""Command line front end: solve, optimize, verify, sweep.

Angles travel in degrees.  Outputs are deterministic: JSON documents
use sorted keys and fixed 9-digit decimals, CSV uses LF endings.  Exit
codes: 0 success, 1 malformed input, 2 event-angle refusal, 3 failed
verification.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, List, Optional, Sequence, Tuple

from .cuts import ThetaCut, compute_cuts
from .geom import (
    Angle,
    EventAngleError,
    GeometryError,
    Point,
    Polygon,
    ring_area,
)
from .oracle import dense_sweep, validate_tour
from .rotor import EVENT_WINDOW_DEG, enumerate_candidate_events, optimize
from .sleeve import Tour
from .solver import SolveResult, solve_theta

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EVENT = 2
EXIT_VERIFY = 3


class _InputError(Exception):
    pass


class _EventRefusal(Exception):
    """The requested angle sits on or near a critical angle."""

    def __init__(self, theta_deg: float, kind: str, angle_deg: float):
        super().__init__(kind)
        self.theta_deg = theta_deg
        self.kind = kind
        self.angle_deg = angle_deg


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default, which collides with the
    # event-refusal code; route usage errors to exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


# ---------------------------------------------------------------------------
# input documents


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _read_points(path: str, raw: list, what: str) -> List[Point]:
    pts: List[Point] = []
    for i, item in enumerate(raw):
        try:
            x, y = float(item[0]), float(item[1])
        except (TypeError, ValueError, IndexError):
            raise _InputError(f"{path}: {what} {i} is not an [x, y] pair")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise _InputError(f"{path}: {what} {i} is not finite")
        pts.append(Point(x, y))
    return pts


def load_polygon(path: str) -> Tuple[Polygon, Optional[str]]:
    doc = _read_json(path)
    if isinstance(doc, list):
        raw = doc
        name = None
    elif isinstance(doc, dict):
        raw = doc.get("vertices")
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise _InputError(f"{path}: name must be a string or null")
    else:
        raise _InputError(f"{path}: expected an object with a vertices list")
    if not isinstance(raw, list) or len(raw) < 3:
        raise _InputError(f"{path}: vertices must be a list of 3+ [x, y] "
                          "pairs")
    pts = _read_points(path, raw, "vertex")
    if ring_area(pts) < 0.0:
        print(f"warning: {path}: vertices are clockwise, reversing",
              file=sys.stderr)
        pts.reverse()
    try:
        return Polygon(pts), name
    except GeometryError as exc:
        raise _InputError(f"{path}: {exc}")


def load_tour(path: str) -> List[Point]:
    doc = _read_json(path)
    raw = doc
    if isinstance(doc, dict):
        for key in ("tour", "cycle", "points", "vertices"):
            if key in doc:
                raw = doc[key]
                break
        else:
            raise _InputError(f"{path}: no tour/cycle/points list found")
    if not isinstance(raw, list) or not raw:
        raise _InputError(f"{path}: tour must be a non-empty point list")
    return _read_points(path, raw, "tour point")


# ---------------------------------------------------------------------------
# output documents


def _doc_text(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9f}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_doc_text(v)}"
                         for k, v in sorted(value.items()))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_doc_text(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_text(path: Optional[str], text: str) -> None:
    """Write text to path, or to stdout when path is None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def emit_document(doc, path: Optional[str]) -> None:
    _write_text(path, _doc_text(doc) + "\n")


def _point_doc(p: Point) -> list:
    return [float(p.x), float(p.y)]


def _cut_doc(c: ThetaCut) -> dict:
    return {
        "vertex_index": c.vertex_index,
        "color": c.color.value,
        "kind": c.kind.value,
        "chord": [_point_doc(c.chord.a), _point_doc(c.chord.b)],
        "far_edge": c.far_edge,
        "theta_deg": float(c.theta.degrees),
    }


def _tour_doc(tour: Tour) -> dict:
    tags = []
    for t in tour.tags:
        tags.append({
            "kind": t.kind,
            "vertex_index": t.vertex_index,
            "gate_vertex_index": (t.gate.vertex_index
                                  if t.gate is not None else None),
        })
    return {
        "tour": [_point_doc(p) for p in tour.cycle],
        "tags": tags,
        "length": float(tour.length),
    }


def solve_document(res: SolveResult, name: Optional[str]) -> dict:
    doc = _tour_doc(res.tour)
    doc.update({
        "name": name,
        "theta_deg": float(res.theta.degrees),
        "cuts": [_cut_doc(c) for c in res.cuts],
        "gates": [_cut_doc(g) for g in res.gates],
        "common_point": (_point_doc(res.common_point)
                         if res.common_point is not None else None),
    })
    return doc


# ---------------------------------------------------------------------------
# SVG rendering (debug aid, no byte-level contract)


def render_svg(P: Polygon, cuts: Sequence[ThetaCut],
               gates: Sequence[ThetaCut], tour: Optional[Tour]) -> str:
    width = 640.0
    xlo, ylo, xhi, yhi = P.bbox
    span_x = max(xhi - xlo, 1e-9)
    span_y = max(yhi - ylo, 1e-9)
    pad = 0.05 * max(span_x, span_y)
    scale = width / (span_x + 2 * pad)
    height = (span_y + 2 * pad) * scale

    def sx(x: float) -> float:
        return (x - xlo + pad) * scale

    def sy(y: float) -> float:
        # svg y grows downward
        return (yhi - y + pad) * scale

    def path(points, close: bool) -> str:
        cmds = [f"M {sx(points[0].x):.2f} {sy(points[0].y):.2f}"]
        cmds.extend(f"L {sx(p.x):.2f} {sy(p.y):.2f}" for p in points[1:])
        if close:
            cmds.append("Z")
        return " ".join(cmds)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<path d="{path(P.vertices, True)}" fill="#f7f6f2" stroke="#222" '
        'stroke-width="1.5"/>',
    ]
    for c in cuts:
        parts.append(
            f'<path d="{path([c.chord.a, c.chord.b], False)}" fill="none" '
            'stroke="#999" stroke-width="1" stroke-dasharray="6 4"/>')
    for g in gates:
        color = "#c0392b" if g.color.value == "Red" else "#2464b4"
        parts.append(
            f'<path d="{path([g.chord.a, g.chord.b], False)}" fill="none" '
            f'stroke="{color}" stroke-width="3"/>')
    if tour is not None:
        if tour.is_point():
            p = tour.cycle[0]
            parts.append(f'<circle cx="{sx(p.x):.2f}" cy="{sy(p.y):.2f}" '
                         'r="5" fill="#1e8449"/>')
        else:
            parts.append(
                f'<path d="{path(list(tour.cycle), True)}" fill="none" '
                'stroke="#1e8449" stroke-width="2"/>')
            for p, t in zip(tour.cycle, tour.tags):
                if t.kind == "moving":
                    parts.append(
                        f'<circle cx="{sx(p.x):.2f}" cy="{sy(p.y):.2f}" '
                        'r="4" fill="#e67e22"/>')
                else:
                    parts.append(
                        f'<rect x="{sx(p.x) - 3:.2f}" y="{sy(p.y) - 3:.2f}" '
                        'width="6" height="6" fill="#1e8449"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _at_angle(P: Polygon, theta_deg: float, run: Callable[[Angle], object]):
    """run(Angle(theta_deg)), refused when theta sits on or near an event.

    The nearest candidate event within EVENT_WINDOW_DEG refuses before
    run starts; an EventAngleError from run refuses with its own kind.
    """
    def gap(ev) -> float:
        d = abs(ev.angle_deg - theta_deg)
        return min(d, 180.0 - d)

    near = min(enumerate_candidate_events(P), key=gap, default=None)
    if near is not None and gap(near) <= EVENT_WINDOW_DEG:
        raise _EventRefusal(theta_deg, near.type.value, near.angle_deg)
    try:
        return run(Angle(theta_deg))
    except EventAngleError as exc:
        ang = theta_deg if exc.angle is None else float(exc.angle)
        raise _EventRefusal(theta_deg, exc.kind or "structure", ang)


def cmd_solve(args) -> int:
    P, name = load_polygon(args.polygon)
    res = _at_angle(P, args.theta_deg, lambda ang: solve_theta(P, ang))
    emit_document(solve_document(res, name), args.json)
    if args.svg:
        _write_text(args.svg, render_svg(P, res.cuts, res.gates, res.tour))
    return EXIT_OK


def _write_csv(path: Optional[str],
               rows: Sequence[Tuple[float, float]]) -> None:
    lines = ["theta_deg,length"]
    lines.extend(f"{t:.9f},{l:.9f}" for t, l in rows)
    _write_text(path, "\n".join(lines) + "\n")


def cmd_optimize(args) -> int:
    P, name = load_polygon(args.polygon)
    report = optimize(P)
    doc = _tour_doc(report.best_tour)
    doc.pop("length")
    doc.update({
        "name": name,
        "best_theta_deg": float(report.best_theta.degrees),
        "best_length": float(report.best_length),
        "events": [{
            "angle_deg": float(e.angle.degrees),
            "type": e.type.value,
            "witnesses": [int(w) for w in e.witnesses],
        } for e in report.events],
        "intervals": [[float(lo), float(hi)] for lo, hi in report.intervals],
        "sample_count": len(report.samples),
    })
    emit_document(doc, args.json)
    if args.csv:
        _write_csv(args.csv, report.samples)
    if args.svg:
        try:
            cuts = compute_cuts(P, report.best_theta)
        except EventAngleError:
            cuts = ()
        _write_text(args.svg, render_svg(P, cuts, (), report.best_tour))
    return EXIT_OK


def cmd_verify(args) -> int:
    P, _ = load_polygon(args.polygon)
    pts = load_tour(args.tour)
    try:
        report = _at_angle(P, args.theta_deg,
                           lambda ang: validate_tour(P, ang, pts))
    except GeometryError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if report.valid:
        print(f"valid: tour covers all {len(report.coverage)} cuts")
        return EXIT_OK
    for msg in report.messages:
        print(f"invalid: {msg}", file=sys.stderr)
    for c in report.violated_cuts:
        entry = next(e for e in report.coverage if e.cut is c)
        print(f"violated: {c.describe()} (misses by {entry.violation:.6f})",
              file=sys.stderr)
    return EXIT_VERIFY


def cmd_sweep(args) -> int:
    P, _ = load_polygon(args.polygon)
    if not 0.0 < args.step_deg < math.inf:
        raise _InputError("--step-deg must be finite and positive")
    rows = dense_sweep(P, args.step_deg)
    _write_csv(args.csv, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="monowatch",
                     description="shortest watchman tours under "
                                 "direction-constrained visibility")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="fixed-angle tour")
    p_solve.add_argument("--polygon", required=True)
    p_solve.add_argument("--theta-deg", type=float, required=True)
    p_solve.add_argument("--json", default=None)
    p_solve.add_argument("--svg", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_opt = sub.add_parser("optimize", help="sweep all angles")
    p_opt.add_argument("--polygon", required=True)
    p_opt.add_argument("--csv", default=None)
    p_opt.add_argument("--json", default=None)
    p_opt.add_argument("--svg", default=None)
    p_opt.set_defaults(func=cmd_optimize)

    p_ver = sub.add_parser("verify", help="check a tour file")
    p_ver.add_argument("--polygon", required=True)
    p_ver.add_argument("--theta-deg", type=float, required=True)
    p_ver.add_argument("--tour", required=True)
    p_ver.set_defaults(func=cmd_verify)

    p_swp = sub.add_parser("sweep", help="dense grid of solves")
    p_swp.add_argument("--polygon", required=True)
    p_swp.add_argument("--step-deg", type=float, required=True)
    p_swp.add_argument("--csv", default=None)
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if hasattr(args, "theta_deg") and not (
            0.0 <= args.theta_deg < 180.0 and math.isfinite(args.theta_deg)):
        print("error: --theta-deg must lie in [0, 180)", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _EventRefusal as exc:
        lo = exc.angle_deg - 10 * EVENT_WINDOW_DEG
        hi = exc.angle_deg + 10 * EVENT_WINDOW_DEG
        print(f"error: theta {exc.theta_deg:.6f} deg sits on or near a "
              f"{exc.kind} event at {exc.angle_deg:.6f} deg; try {lo:.6f} "
              f"or {hi:.6f}", file=sys.stderr)
        return EXIT_EVENT
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
