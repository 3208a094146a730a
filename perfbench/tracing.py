"""Per-layer tracing by swapping module attributes from outside.

The library has no timers of its own, so the traced run replaces the
module attributes through which each layer is called with wrappers that
record a span (name, parent, start, end, error) and put the originals
back afterwards.  Calls made through any other name are not seen: the
spans measure the solve pipeline as ``solver`` and ``rotor`` drive it,
and each oracle entry point as one opaque layer.  ``ring_contains`` and
``split_ring`` are too small and too frequent for spans, so they only
count calls, charged to the layer of the innermost open span.

An attribute that does not exist (a private helper renamed or removed
by a refactor) is skipped and the metrics that need it are left out of
the result instead of failing the run.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

# (module, attribute, span name); the span name is "<layer>.<entry>"
SPANS = (
    ("solver", "solve_theta", "solver.solve_theta"),
    ("rotor", "solve_theta", "solver.solve_theta"),
    ("solver", "compute_cuts", "cuts.compute_cuts"),
    ("solver", "compute_gates", "gates.compute_gates"),
    ("solver", "reduce_polygon", "gates.reduce_polygon"),
    ("solver", "_common_tour_point", "solver.common_point"),
    ("solver", "triangulate", "sleeve.triangulate"),
    ("solver", "_candidate_indices", "solver.candidates"),
    ("solver", "unroll", "sleeve.unroll"),
    ("solver", "shortest_path", "sleeve.shortest_path"),
    ("solver", "fold_back", "sleeve.fold_back"),
    ("rotor", "optimize", "rotor.optimize"),
    ("rotor", "enumerate_candidate_events", "rotor.enumerate_events"),
    ("rotor", "_scan_interval", "rotor.scan"),
    ("rotor", "_bisect_change", "rotor.bisect"),
    ("rotor", "_refine_minimum", "rotor.refine"),
    ("rotor", "evaluate_close_tour", "rotor.frozen_eval"),
    ("oracle", "validate_tour", "oracle.validate_tour"),
    ("oracle", "reference_min_tour", "oracle.reference_min_tour"),
)

# geometry primitives counted wherever a library module binds them
COUNTED = ("ring_contains", "split_ring")
COUNTED_IN = ("geom", "cuts", "gates", "solver", "sleeve", "rotor", "oracle")

# rotor spans that own the solves made beneath them
STAGES = {"rotor.scan": "scan", "rotor.bisect": "bisect",
          "rotor.refine": "refine", "rotor.optimize": "final"}

# per-layer metrics: name -> (unit, span names whose wrappers it needs)
LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "cuts.compute_cuts.calls": ("count", ("cuts.compute_cuts",)),
    "cuts.compute_cuts.self_ms": ("ms", ("cuts.compute_cuts",)),
    "cuts.cuts_per_solve": ("cuts/solve", ("cuts.compute_cuts",)),
    "gates.compute_gates.self_ms": ("ms", ("gates.compute_gates",)),
    "gates.reduce_polygon.self_ms": ("ms", ("gates.reduce_polygon",)),
    "gates.gates_per_cut": ("ratio", ("gates.compute_gates",)),
    "geom.ring_contains.calls.gates": ("count", ("gates.compute_gates",
                                                 "gates.reduce_polygon")),
    "geom.ring_contains.calls.solver": ("count", ("solver.solve_theta",)),
    "geom.ring_contains.calls.rotor": ("count", ("rotor.optimize",)),
    "geom.ring_contains.calls.oracle": ("count", ("oracle.validate_tour",)),
    "geom.split_ring.calls.gates": ("count", ("gates.compute_gates",
                                              "gates.reduce_polygon")),
    "geom.split_ring.calls.solver": ("count", ("solver.solve_theta",)),
    "geom.split_ring.calls.oracle": ("count", ("oracle.validate_tour",)),
    "solver.solve_theta.calls": ("count", ("solver.solve_theta",)),
    "solver.solve_theta.self_ms": ("ms", ("solver.solve_theta",)),
    "solver.common_point_ratio": ("ratio", ("solver.solve_theta",)),
    "solver.common_point.self_ms": ("ms", ("solver.common_point",)),
    "solver.candidates.self_ms": ("ms", ("solver.candidates",)),
    "solver.candidates_per_solve": ("count/solve", ("solver.candidates",)),
    "sleeve.triangulate.self_ms": ("ms", ("sleeve.triangulate",)),
    "sleeve.unroll.calls": ("count", ("sleeve.unroll",)),
    "sleeve.unroll.self_ms": ("ms", ("sleeve.unroll",)),
    "sleeve.shortest_path.calls": ("count", ("sleeve.shortest_path",)),
    "sleeve.shortest_path.self_ms": ("ms", ("sleeve.shortest_path",)),
    "sleeve.fold_back.self_ms": ("ms", ("sleeve.fold_back",)),
    "sleeve.paths_per_unroll": ("ratio", ("sleeve.unroll",
                                          "sleeve.shortest_path")),
    "rotor.enumerate_events.self_ms": ("ms", ("rotor.enumerate_events",)),
    "rotor.solve_calls": ("count", ("rotor.optimize",)),
    "rotor.scan.solves": ("count", ("rotor.scan", "rotor.bisect",
                                    "rotor.refine")),
    "rotor.bisect.solves": ("count", ("rotor.bisect",)),
    "rotor.refine.solves": ("count", ("rotor.refine",)),
    "rotor.final.solves": ("count", ("rotor.optimize", "rotor.scan")),
    "rotor.event_retries": ("count", ("rotor.optimize",)),
    "rotor.frozen_evals": ("count", ("rotor.frozen_eval",)),
    "rotor.self_ms": ("ms", ("rotor.optimize",)),
    "oracle.validate_tour.self_ms": ("ms", ("oracle.validate_tour",)),
    "oracle.reference_min_tour.self_ms": ("ms",
                                          ("oracle.reference_min_tour",)),
    "oracle.reference_refused": ("count", ("oracle.reference_min_tour",)),
    "trace.overhead_ratio": ("ratio", ()),
}


class Tracer:
    """Spans kept in flat arrays while running, written out at the end."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.errors: Dict[int, str] = {}
        self.counts: Counter = Counter()
        self.present: set = set()
        self._stack: List[int] = []
        self._layers: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span in SPANS:
            mod = self.modules.get(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._swap(mod, attr, self._spanned(span, fn))
            self.present.add(span)
        for mod_name in COUNTED_IN:
            mod = self.modules.get(mod_name)
            for attr in COUNTED:
                fn = getattr(mod, attr, None)
                if fn is not None:
                    self._swap(mod, attr, self._counted("geom." + attr, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _swap(self, mod, attr: str, wrapper) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def _spanned(self, span: str, fn):
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        layer = span.split(".", 1)[0]
        sizer = _SIZERS.get(span)
        counts = self.counts
        parent, name, start, end = self.parent, self.name, self.start, self.end
        stack, layers, clock = self._stack, self._layers, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(name)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            end.append(0.0)
            stack.append(sid)
            layers.append(layer)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end[sid] = clock()
                self.errors[sid] = type(exc).__name__
                raise
            finally:
                stack.pop()
                layers.pop()
            end[sid] = clock()
            if sizer is not None:
                sizer(counts, out, args)
            return out

        return wrapper

    def _counted(self, key: str, fn):
        counts, layers = self.counts, self._layers

        def wrapper(*args, **kwargs):
            counts[key + ".calls." + (layers[-1] if layers else "none")] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one CSV row, times in seconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,error\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.errors.get(i, '')}\n")

    # -- analysis ------------------------------------------------------------

    def self_ms(self, ranges: Sequence[Tuple[int, int]]) -> Dict[str, float]:
        """Self time per span name over the given span index ranges."""
        out: Dict[str, float] = defaultdict(float)
        for lo, hi in ranges:
            child = [0.0] * (hi - lo)
            for i in range(hi - 1, lo - 1, -1):
                dur = self.end[i] - self.start[i]
                p = self.parent[i]
                if p >= lo:
                    child[p - lo] += dur
                out[self.names[self.name[i]]] += 1e3 * (dur - child[i - lo])
        return out

    def tally(self, ranges: Sequence[Tuple[int, int]]) -> Counter:
        """Calls and errors per span name, and solves per rotor stage."""
        c: Counter = Counter()
        for lo, hi in ranges:
            stage: Dict[int, Optional[str]] = {}
            for i in range(lo, hi):
                nm = self.names[self.name[i]]
                st = STAGES.get(nm) or stage.get(self.parent[i])
                stage[i] = st
                err = self.errors.get(i)
                c[nm + ".calls"] += 1
                if err is not None:
                    c[nm + ".err." + err] += 1
                if nm == "solver.solve_theta" and st is not None:
                    c["rotor.solve_calls"] += 1
                    c[f"rotor.{st}.solves"] += 1
                    if err == "EventAngleError":
                        c["rotor.event_retries"] += 1
        return c


def _count_point_tour(counts, out, args):
    counts["solver.point_tours"] += len(out.tour.cycle) == 1


def _count_cuts(counts, out, args):
    counts["cuts.out"] += len(out)


def _count_gates(counts, out, args):
    counts["gates.cuts_in"] += len(args[1])
    counts["gates.out"] += len(out)


def _count_candidates(counts, out, args):
    counts["solver.candidates.out"] += len(out)


_SIZERS = {
    "solver.solve_theta": _count_point_tour,
    "cuts.compute_cuts": _count_cuts,
    "gates.compute_gates": _count_gates,
    "solver.candidates": _count_candidates,
}


ROTOR_SPANS = ("rotor.optimize", "rotor.scan", "rotor.bisect", "rotor.refine",
               "rotor.frozen_eval")


def layer_metrics(tr: Tracer, ranges: Sequence[Tuple[int, int]],
                  passes: int, overhead: float) -> Dict[str, dict]:
    """Every per-layer metric whose wrappers were installed, per pass.

    Times and call counts are totals divided by the number of traced
    passes over the workload's inputs; ratios are taken over the whole
    traced run.
    """
    ms = tr.self_ms(ranges)
    c = tr.tally(ranges)
    k = tr.counts
    per = 1.0 / passes

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    solves = c["solver.solve_theta.calls"]
    solved = solves - sum(v for key, v in c.items()
                          if key.startswith("solver.solve_theta.err."))
    refused = sum(v for key, v in c.items()
                  if key.startswith("oracle.reference_min_tour.err."))
    values = {
        "cuts.compute_cuts.calls": c["cuts.compute_cuts.calls"] * per,
        "cuts.compute_cuts.self_ms": ms["cuts.compute_cuts"] * per,
        "cuts.cuts_per_solve": ratio(k["cuts.out"],
                                     c["cuts.compute_cuts.calls"]),
        "gates.compute_gates.self_ms": ms["gates.compute_gates"] * per,
        "gates.reduce_polygon.self_ms": ms["gates.reduce_polygon"] * per,
        "gates.gates_per_cut": ratio(k["gates.out"], k["gates.cuts_in"]),
        "solver.solve_theta.calls": solves * per,
        "solver.solve_theta.self_ms": ms["solver.solve_theta"] * per,
        "solver.common_point_ratio": ratio(k["solver.point_tours"], solved),
        "solver.common_point.self_ms": ms["solver.common_point"] * per,
        "solver.candidates.self_ms": ms["solver.candidates"] * per,
        "solver.candidates_per_solve": ratio(k["solver.candidates.out"],
                                             c["solver.candidates.calls"]),
        "sleeve.triangulate.self_ms": ms["sleeve.triangulate"] * per,
        "sleeve.unroll.calls": c["sleeve.unroll.calls"] * per,
        "sleeve.unroll.self_ms": ms["sleeve.unroll"] * per,
        "sleeve.shortest_path.calls": c["sleeve.shortest_path.calls"] * per,
        "sleeve.shortest_path.self_ms": ms["sleeve.shortest_path"] * per,
        "sleeve.fold_back.self_ms": ms["sleeve.fold_back"] * per,
        "sleeve.paths_per_unroll": ratio(c["sleeve.shortest_path.calls"],
                                         c["sleeve.unroll.calls"]),
        "rotor.enumerate_events.self_ms": ms["rotor.enumerate_events"] * per,
        "rotor.solve_calls": c["rotor.solve_calls"] * per,
        "rotor.scan.solves": c["rotor.scan.solves"] * per,
        "rotor.bisect.solves": c["rotor.bisect.solves"] * per,
        "rotor.refine.solves": c["rotor.refine.solves"] * per,
        "rotor.final.solves": c["rotor.final.solves"] * per,
        "rotor.event_retries": c["rotor.event_retries"] * per,
        "rotor.frozen_evals": c["rotor.frozen_eval.calls"] * per,
        "rotor.self_ms": sum(ms[n] for n in ROTOR_SPANS) * per,
        "oracle.validate_tour.self_ms": ms["oracle.validate_tour"] * per,
        "oracle.reference_min_tour.self_ms":
            ms["oracle.reference_min_tour"] * per,
        "oracle.reference_refused": refused * per,
        "trace.overhead_ratio": overhead,
    }
    for key in LAYER_METRICS:
        if key.startswith("geom."):
            values[key] = k[key] * per
    out = {}
    for key, (unit, needs) in LAYER_METRICS.items():
        if all(n in tr.present for n in needs):
            out[key] = {"value": values[key], "unit": unit}
    return out
