#!/usr/bin/env python3
"""Benchmark of the monowatch library: end-to-end run or traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 0 --seconds 36 --trace 0

One process, one thread, one caller in a closed loop: each operation
starts when the previous one returns.  The run repeats whole passes
over the workload's cases, as many as come nearest to --seconds of
operations.  Every output is checked.  Standard output ends with a
report line (the end-to-end figures under the names README.md uses,
the environment and the checks) and then the result line: one JSON
object with the keys correct, attempted, failed and metrics.

--trace 1 alternates untraced and traced passes, reports the per-layer
metrics, checks that the traced tour lengths equal the untraced ones
and writes the spans to perfbench/out/.  --record writes the tour
lengths of the default seed to expected.json, the reference later runs
of that seed are held to.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

DEFAULT_SEED = 0
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
# builds of the inputs are timed for SETUP_SLOT_S before the first pass
# and again after any operation that ends SETUP_EVERY_S or more after the
# last slot, so setup_s samples the host across the whole run (a pass of
# sweep-refine takes about 20 s)
SETUP_SLOT_S = 0.2
SETUP_EVERY_S = 2.0
# relative slack on the recorded lengths (absolute below length 1)
EXPECTED_REL = 1e-9
# toothgap optimize at the commit that introduced the benchmark
TOOTHGAP_COUNTS = {"solver.solve_theta.calls": 6001,
                   "rotor.refine.solves": 4623,
                   "sleeve.unroll.calls": 21862,
                   "sleeve.shortest_path.calls": 42578}


def quantile(xs, q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha()}


class Runner:
    """Runs passes over the cases and keeps every latency and verdict."""

    def __init__(self, cases, expected, refusal):
        self.cases = cases
        self.expected = expected
        self.refusal = refusal
        self.lengths = [None] * len(cases)
        self.verdicts = [None] * len(cases)
        self.latency = []       # (case index, seconds)
        self.failures = []      # (case index, message)
        self.wrong = 0
        self.mismatches = 0

    def run_pass(self, on_op=None) -> float:
        busy = 0.0
        for i, case in enumerate(self.cases):
            t0 = time.perf_counter()
            try:
                out = case.run()
                err = None
            except self.refusal as exc:
                out, err = None, exc
            dt = time.perf_counter() - t0
            busy += dt
            self.latency.append((i, dt))
            if on_op is not None:
                on_op(i)
            if err is not None:
                self._fail(i, f"refused: {type(err).__name__}: {err}")
            else:
                self._judge(i, case, out)
        return busy

    def _judge(self, i, case, out) -> None:
        """Check the first output of a case in full, later ones against it."""
        length = case.length(out)
        if self.lengths[i] is None:
            self.lengths[i] = length
            verdict = case.check(out)
            if verdict is None and self.expected is not None:
                rec = self.expected[i]
                if length > rec + EXPECTED_REL * max(1.0, abs(rec)):
                    verdict = (f"wrong: length {length!r} exceeds the "
                               f"recorded {rec!r}")
            self.verdicts[i] = verdict
        elif length != self.lengths[i]:
            self.mismatches += 1
            self._fail(i, f"wrong: length {length!r} differs from the "
                          f"first pass {self.lengths[i]!r}")
            return
        if self.verdicts[i] is not None:
            self._fail(i, self.verdicts[i])

    def _fail(self, i, message: str) -> None:
        if message.startswith("wrong"):
            self.wrong += 1
        self.failures.append((i, message))

    def passes(self, seconds: float, on_op=None):
        """The number of whole passes whose total comes nearest `seconds`."""
        times = []
        while not times or sum(times) + 0.5 * times[-1] < seconds:
            times.append(self.run_pass(on_op))
        return times


def time_builds(build, seed: int, times: list):
    """Build the inputs for SETUP_SLOT_S, adding each build time."""
    spent = 0.0
    while spent < SETUP_SLOT_S:
        t0 = time.perf_counter()
        cases = build(seed)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return cases


def by_label(cases, latency):
    groups = {}
    for i, dt in latency:
        groups.setdefault(cases[i].label, []).append(dt)
    return {label: statistics.median(v) for label, v in groups.items()}


def named_figures(workload: str, cases, latency, pass_times) -> dict:
    """End-to-end figures under the per-workload names of README.md."""
    lat = [dt for _, dt in latency]
    out = {}
    if workload == "solve-scale":
        for label, v in by_label(cases, latency).items():
            out[f"solve_ms.{label}"] = (1e3 * v, "ms")
        out["solve_ms_p90"] = (1e3 * quantile(lat, 0.9), "ms")
        out["solves_per_s"] = (len(lat) / sum(lat), "solves/s")
    elif workload == "sweep-refine":
        for label, v in by_label(cases, latency).items():
            out[f"optimize_s.{label}"] = (v, "s")
        out["sweep_s"] = (statistics.median(pass_times), "s")
    else:
        out["certify_ms_p50"] = (1e3 * statistics.median(lat), "ms")
        out["certify_ms_p90"] = (1e3 * quantile(lat, 0.9), "ms")
        out["certified_per_s"] = (len(lat) / sum(lat), "ops/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def end_to_end(runner, setup_s: float) -> dict:
    lat = [dt for _, dt in runner.latency]
    medians = by_label(runner.cases, runner.latency).values()
    p50_gm = math.exp(statistics.fmean(math.log(m) for m in medians))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "op_ms_p50_gm": {"value": 1e3 * p50_gm, "unit": "ms"},
        "op_ms_p90": {"value": 1e3 * quantile(lat, 0.9), "unit": "ms"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def traced(args, runner, report):
    """Untraced and traced passes in turn; per-layer metrics, span file.

    The two kinds of pass alternate so that both see the same host
    speed and their ratio gives the tracing overhead.  Returns the
    per-layer metrics, the untraced pass times and their latencies.
    """
    from monowatch import geom, cuts, gates, sleeve, solver, rotor, oracle
    import tracing

    tr = tracing.Tracer({"geom": geom, "cuts": cuts, "gates": gates,
                       "sleeve": sleeve, "solver": solver, "rotor": rotor,
                       "oracle": oracle})
    ranges = []
    mark = [0]

    def on_op(i):
        ranges.append((i, mark[0], len(tr.name)))
        mark[0] = len(tr.name)

    n = len(runner.cases)
    plain, plain_latency, traced_times = [], [], []
    while not plain or (sum(plain) + sum(traced_times)
                        + 0.5 * (plain[-1] + traced_times[-1]) < args.seconds):
        plain.append(runner.run_pass())
        plain_latency.extend(runner.latency[-n:])
        tr.install()
        try:
            traced_times.append(runner.run_pass(on_op))
        finally:
            tr.uninstall()
    overhead = statistics.median(traced_times) / statistics.median(plain) - 1
    spans = [(lo, hi) for _, lo, hi in ranges]
    metrics = tracing.layer_metrics(tr, spans, len(traced_times), overhead)

    checks = {}
    labels = [runner.cases[i].label for i, _, _ in ranges]
    if args.workload == "sweep-refine" and args.seed == DEFAULT_SEED:
        tooth = [(lo, hi) for (_, lo, hi), lb in zip(ranges, labels)
                 if lb == "toothgap"]
        c = tr.tally(tooth)
        got = {k: c[k] / len(tooth) for k in TOOTHGAP_COUNTS}
        checks["toothgap_counts"] = {"expected": TOOTHGAP_COUNTS,
                                     "measured": got,
                                     "match": got == TOOTHGAP_COUNTS}
    if args.workload == "solve-scale":
        big = [(lo, hi) for (_, lo, hi), lb in zip(ranges, labels)
               if lb == "n100"]
        ms = tr.self_ms(big)
        top = sorted(ms, key=ms.get, reverse=True)[:2]
        checks["n100_top_self_ms"] = {k: ms[k] / len(big) for k in top}
    checks["traced_lengths_equal_untraced"] = runner.mismatches == 0

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tr.write(str(path))
    report["trace"] = {"untraced_pass_s": plain, "traced_pass_s": traced_times,
                       "overhead_ratio": overhead, "spans": len(tr.name),
                       "span_file": str(path.relative_to(ROOT)),
                       "checks": checks}
    return metrics, plain, plain_latency


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("solve-scale", "sweep-refine", "certify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write the default seed's lengths to expected.json")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "monowatch" / "__init__.py").is_file():
        print(f"perfbench: no library at {src / 'monowatch'}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from monowatch.geom import GeometryError
    import workloads

    build = workloads.WORKLOADS[args.workload]
    setup_times = []
    cases = time_builds(build, args.seed, setup_times)
    if args.record:
        return record(args, cases, GeometryError)
    expected = None
    if args.seed == DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text())[args.workload]
        if len(expected) != len(cases):
            raise SystemExit("expected.json does not match the workload")
    runner = Runner(cases, expected, GeometryError)
    report = {"env": environment(args.workload, args.seed)}
    if args.trace:
        metrics, pass_times, plain = traced(args, runner, report)
    else:
        last_slot = [time.perf_counter()]

        def on_op(i):
            if time.perf_counter() - last_slot[0] >= SETUP_EVERY_S:
                time_builds(build, args.seed, setup_times)
                last_slot[0] = time.perf_counter()

        pass_times = runner.passes(args.seconds, on_op)
        metrics = end_to_end(runner, statistics.median(setup_times))
        plain = runner.latency
    attempted = len(runner.latency)
    failed = len(runner.failures)
    report.update({
        "passes": len(pass_times), "cases": len(cases),
        "figures": named_figures(args.workload, cases, plain, pass_times),
        "setup_s": statistics.median(setup_times),
        "failed_ratio": failed / attempted,
        "failures": sorted({m for _, m in runner.failures})[:20],
    })
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": runner.wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def record(args, cases, refusal) -> int:
    if args.seed != DEFAULT_SEED:
        raise SystemExit("--record applies to the default seed only")
    runner = Runner(cases, None, refusal)
    runner.run_pass()
    if runner.wrong:
        raise SystemExit(f"not recording: {runner.failures}")
    data = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    data[args.workload] = runner.lengths
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
