"""The benchmark's workloads: seeded inputs, the timed call, its checks.

Each workload builds a list of cases from the workload seed.  A case's
``run`` is one closed-loop operation on the library's public entry
points, looked up on the module at call time so that the traced run
sees it; its ``check`` judges the output.  Which workload loads which
layer, and why, is in README.md next to this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from monowatch import oracle, rotor, solver
from monowatch.geom import Angle, GeometryError, Point, Polygon

import inputs

# angles closer than this to a candidate event are not asked for
EVENT_MARGIN_DEG = 2e-3
# stratified angles per comb and comb sizes k (n = 3k + 4) of solve-scale
SOLVE_ANGLES = 24
COMB_TEETH = (2, 8, 16, 32)
CORPUS_SIZE = 200
REFERENCE_SAMPLES = 200


@dataclass
class Case:
    """One operation: what it runs, how its output is judged.

    ``check`` returns None for a correct output, or a message starting
    with "wrong" (an incorrect answer) or "refused" (no answer).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    length: Callable[[object], float]


def polygon(pts: Sequence[Tuple[float, float]]) -> Polygon:
    return Polygon([Point(float(x), float(y)) for x, y in pts])


def _event_angles(pts: Sequence[Tuple[float, float]]) -> List[float]:
    """Directions from each reflex vertex to every other vertex.

    A superset of the library's candidate events (edge directions at
    reflex vertices and reflex-vertex alignments), computed here so the
    chosen angles do not depend on the code being measured.
    """
    n = len(pts)
    out = []
    for i in range(n):
        (ax, ay), (bx, by), (cx, cy) = pts[i - 1], pts[i], pts[(i + 1) % n]
        if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) >= 0.0:
            continue
        for j in range(n):
            if j != i:
                qx, qy = pts[j]
                out.append(math.degrees(math.atan2(qy - by, qx - bx)) % 180.0)
    return out


def _clear(theta: float, events: Sequence[float]) -> bool:
    for a in events:
        d = abs(a - theta) % 180.0
        if min(d, 180.0 - d) <= EVENT_MARGIN_DEG:
            return False
    return True


def _angle(rng: random.Random, lo: float, hi: float,
           events: Sequence[float]) -> float:
    for _ in range(1000):
        theta = rng.uniform(lo, hi)
        if _clear(theta, events):
            return theta
    raise RuntimeError(f"no angle in [{lo}, {hi}) clear of events")


def _tour_check(P: Polygon, theta: float, tour) -> Optional[str]:
    if not oracle.validate_tour(P, Angle(theta), tour).valid:
        return "wrong: tour fails validate_tour"
    return None


def _turned(items, seed: int):
    """Turn every (label, polygon, angles) item by the workload seed.

    Seed 0 returns the items as they are.  Any other seed turns every
    polygon together with its angles by one angle phi from U(0, 180)
    and starts each vertex list at a seeded offset.  Neither changes the
    geometry the library sees relative to the angles, so the amount of
    work is the same for every seed.
    """
    if seed == 0:
        return items
    rng = random.Random(seed)
    phi = rng.uniform(0.0, 180.0)
    c, s = math.cos(math.radians(phi)), math.sin(math.radians(phi))
    out = []
    for label, P, thetas in items:
        pts = [(c * x - s * y, s * x + c * y) for x, y in P.vertices]
        k = rng.randrange(len(pts))
        out.append((label, polygon(pts[k:] + pts[:k]),
                    [(theta + phi) % 180.0 for theta in thetas]))
    return out


# ---------------------------------------------------------------------------
# solve-scale


def solve_scale(seed: int) -> List[Case]:
    """solve_theta on the ROADMAP combs at stratified angles.

    The combs are the ROADMAP's (comb seed 0) with one angle in each of
    SOLVE_ANGLES equal slices of [0, 180) drawn from seed 0; the
    workload seed turns each comb with its angles (see ``_turned``).
    Solve time depends strongly on the angle (from 0.1 to 350 ms at
    n=100), so drawing new angles per seed moved the median n=100 solve
    between 107 and 142 ms over five seeds, and drawing new combs moved
    it by 12-15%.
    """
    rng = random.Random(0)
    step = 180.0 / SOLVE_ANGLES
    combs = []
    for k in COMB_TEETH:
        P = polygon(inputs.comb(k, 0))
        events = _event_angles(P.vertices)
        combs.append((f"n{P.n}", P,
                      [_angle(rng, j * step, (j + 1) * step, events)
                       for j in range(SOLVE_ANGLES)]))
    combs = _turned(combs, seed)
    cases = []
    for j in range(SOLVE_ANGLES):
        for label, P, thetas in combs:
            cases.append(_solve_case(label, P, thetas[j]))
    return cases


def _solve_case(label: str, P: Polygon, theta: float) -> Case:
    return Case(label,
                lambda: solver.solve_theta(P, Angle(theta)),
                lambda res: _tour_check(P, theta, res.tour),
                lambda res: res.tour.length)


# ---------------------------------------------------------------------------
# sweep-refine


def sweep_refine(seed: int) -> List[Case]:
    """optimize on toothgap and spiral seed 1, vertex lists rotated.

    The seed only shifts where each vertex list starts, so the geometry,
    and with it the optimum and the amount of work, stays the same.
    """
    cases = []
    for label, pts in (("toothgap", inputs.TOOTHGAP_PTS),
                       ("spiral1", inputs.spiral(1))):
        s = seed % len(pts)
        cases.append(_optimize_case(label, polygon(pts[s:] + pts[:s])))
    return cases


def _optimize_case(label: str, P: Polygon) -> Case:
    return Case(label,
                lambda: rotor.optimize(P),
                lambda rep: _tour_check(P, rep.best_theta.degrees,
                                        rep.best_tour),
                lambda rep: rep.best_length)


# ---------------------------------------------------------------------------
# certify


def corpus() -> List[Tuple[str, Polygon]]:
    """The test suite's mixed corpus: of every five polygons, polygon i
    seeded by i, three are star-shaped and two notched."""
    out = []
    for i in range(CORPUS_SIZE):
        if i % 5 >= 3:
            out.append(("notched", polygon(inputs.notched(i))))
            continue
        for pts in inputs.star(6 + i % 9, i):
            try:
                out.append(("star", polygon(pts)))
                break
            except GeometryError:
                continue
        else:
            raise RuntimeError(f"no simple star polygon for seed {i}")
    return out


def certify(seed: int) -> List[Case]:
    """Solve, validate and compare with the reference, as one unit.

    The corpus with one angle per polygon drawn from seed 0, turned by
    the workload seed (see ``_turned``).  Drawing new polygons or angles
    instead changes how many angles meet three or four gates (the slow
    reference cases) and moved the mean certify time by 11% between
    seeds.
    """
    rng = random.Random(0)
    base = []
    for label, P in corpus():
        base.append((label, P, [_angle(rng, 0.0, 180.0,
                                       _event_angles(P.vertices))]))
    return [_certify_case(label, P, thetas[0])
            for label, P, thetas in _turned(base, seed)]


def _certify_case(label: str, P: Polygon, theta: float) -> Case:
    def run():
        ang = Angle(theta)
        res = solver.solve_theta(P, ang)
        report = oracle.validate_tour(P, ang, res.tour)
        try:
            ref = oracle.reference_min_tour(P, ang, m=REFERENCE_SAMPLES)
        except GeometryError as exc:
            ref = exc
        return res, report, ref

    def check(out) -> Optional[str]:
        res, report, ref = out
        if not report.valid:
            return "wrong: tour fails validate_tour"
        if isinstance(ref, GeometryError):
            return f"refused: reference_min_tour: {ref}"
        if res.tour.length > ref.length + ref.slack + 1e-9:
            return (f"wrong: length {res.tour.length!r} exceeds reference "
                    f"{ref.length!r} + slack {ref.slack!r}")
        return None

    return Case(label, run, check, lambda out: out[0].tour.length)


WORKLOADS: Dict[str, Callable[[int], List[Case]]] = {
    "solve-scale": solve_scale,
    "sweep-refine": sweep_refine,
    "certify": certify,
}
