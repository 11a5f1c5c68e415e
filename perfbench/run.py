"""Closed-loop certify benchmark for stromlab.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process, one caller, no threads: the loop certifies one sampled point,
checks every residual's verdict, and only then starts the next point.  Only
set-up starts child processes, one at a time, to time the program's import
in a fresh interpreter.  Times are in reference seconds (see hostspeed.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
points once untraced and once with spans around the program's layers, and
prints the per-layer metrics.  The last line of standard output is the
result object; the line before it is a report with every metric and its
unit.  The exit code is 0 only when every call got its expected verdict and
no must-fail residual drifted from the recorded reference.

``--record-reference`` re-records the must-fail residuals of one workload
for the reference seeds into ``reference.json``; nothing else writes it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from tracing import Tracer
from verdicts import execute

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPAN_DIR = HERE / "out"

SETUP_REPEATS = 7
REFERENCE_SEEDS = (1, 2)  # the default seed, and one held out while writing changes
DRIFT_TOLERANCE = 1e-9

# the end-to-end metrics of the result object; the report line also carries
# point_s.tail, host_speed and the three correctness metrics (see README)
END_TO_END = [
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("point_s.p50", "s"),
    ("peak_rss_mb", "MB"),
]
# (metric, unit, better, span name, statistic); statistic indexes
# [calls, total s, self s], each divided by the number of traced points
LAYER_METRICS = [
    ("jets.mul.calls", "count", "lower", "jets.mul", 0),
    ("jets.mul.self_s", "s", "lower", "jets.mul", 2),
    ("jets.compose.calls", "count", "lower", "jets.compose", 0),
    ("jets.compose.self_s", "s", "lower", "jets.compose", 2),
    ("forms.wedge.calls", "count", "lower", "forms.wedge", 0),
    ("forms.wedge.self_s", "s", "lower", "forms.wedge", 2),
    ("forms.exterior_derivative.calls", "count", "lower", "forms.exterior_derivative", 0),
    ("forms.exterior_derivative.self_s", "s", "lower", "forms.exterior_derivative", 2),
    ("forms.type_table.builds", "count", "lower", "forms.type_table", 0),
    ("forms.type_table.s", "s", "lower", "forms.type_table", 1),
    ("forms.decompose.calls", "count", "lower", "forms.decompose", 0),
    ("forms.decompose.self_s", "s", "lower", "forms.decompose", 2),
    ("forms.gram_curvature.calls", "count", "lower", "forms.gram_curvature", 0),
    ("forms.gram_curvature.s", "s", "lower", "forms.gram_curvature", 1),
    ("forms.mat_inv.calls", "count", "lower", "forms.mat_inv", 0),
    ("forms.mat_inv.self_s", "s", "lower", "forms.mat_inv", 2),
    ("twistor.frame.builds", "count", "lower", "twistor.frame", 0),
    ("twistor.frame.s", "s", "lower", "twistor.frame", 1),
    ("twistor.acs.s", "s", "lower", "twistor.acs", 1),
    ("strominger.curvature_data.builds", "count", "lower", "strominger.curvature_data", 0),
    ("strominger.curvature_data.s", "s", "lower", "strominger.curvature_data", 1),
    ("calabi.frame.builds", "count", "lower", "calabi.frame", 0),
    ("calabi.frame.s", "s", "lower", "calabi.frame", 1),
    ("hyperkahler.kappa.s", "s", "lower", "hyperkahler.kappa", 1),
]


def load_program() -> None:
    """Import stromlab from this checkout's ``src``, or stop with an error."""
    sys.path.insert(0, str(SRC))
    try:
        from stromlab import jets
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import stromlab from {SRC}: {exc}")
    if Path(jets.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: stromlab was imported from {jets.__file__}, not from {SRC}")


def per_layer_names() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    from workloads import op_labels

    names = [(m, u, b) for m, u, b, _, _ in LAYER_METRICS]
    names += [
        ("jets.mul.pairs", "count", "lower"),
        ("jets.mul.useful_pair_ratio", "ratio", "higher"),
        ("jets.table_build.count", "count", "lower"),
        ("jets.table_build.s", "s", "lower"),
    ]
    names += [(f"op.{label}.s", "s", "lower") for label in op_labels()]
    names.append(("trace.overhead_ratio", "ratio", "lower"))
    return names


# ---------------------------------------------------------------------------
# running calls


class Tally:
    """Verdicts, per-operator times, residual drift and the largest must-pass residual."""

    def __init__(self, reference: dict):
        self.reference = reference  # point index -> label -> residual -> value
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.op_seconds: dict = {}
        self.drift_max = 0.0
        self.drift_values = 0
        self.pass_max = 0.0

    def record(self, i: int, call, outcome) -> None:
        self.attempted += 1
        self.op_seconds.setdefault(call.label, []).append(outcome.seconds)
        if not outcome.ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"point {i} {call.label}: {outcome.error}")
            return
        ref = self.reference.get(str(i), {}).get(call.label, {})
        for key, gate in call.gates.items():
            value = outcome.values[key]
            if gate.must_pass:
                self.pass_max = max(self.pass_max, value)
            elif key in ref:
                self.drift_max = max(self.drift_max, abs(value - ref[key]) / abs(ref[key]))
                self.drift_values += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: max(0, 5 - len(self.errors))]
        self.drift_max = max(self.drift_max, other.drift_max)
        self.drift_values += other.drift_values
        self.pass_max = max(self.pass_max, other.pass_max)


def run_calls(calls, i: int, tally: Tally) -> None:
    for call in calls:
        tally.record(i, call, execute(call))


# run by a fresh interpreter: the program's import, as a user's process pays it
IMPORT_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
print(time.perf_counter() - t0)
"""


def time_import() -> float:
    """Seconds a fresh interpreter takes to import the program and build the workloads' models."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(SRC), str(HERE)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: importing the program in a fresh interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def set_up(workload_cls, seed: int, tally: Tally):
    """Fresh caches, fresh inputs, one untimed warm-up point (pool index 0)."""
    from workloads import reset_program_caches

    t0 = time.perf_counter()
    reset_program_caches()
    workload = workload_cls(seed)
    run_calls(workload.calls(0), 0, tally)
    return workload, time.perf_counter() - t0


# capped at p95: were p99 allowed, a run on a fast moment of the host would
# pass 1000 samples and switch percentile, which moves the value more than
# the host does
TAIL_PERCENTILES = (95.0, 90.0)


def tail(samples: list):
    """(value, percentile, n): the highest of TAIL_PERCENTILES with ten samples beyond it.

    Nearest-rank percentiles.  Below 100 samples not even p90 has ten beyond
    it, and the maximum is reported as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q * n / 100.0)
        if n - rank >= 10:
            return xs[rank - 1], q, n
    return xs[-1], 100.0, n


def metric(value, unit: str, **extra) -> dict:
    return dict({"value": value, "unit": unit}, **extra)


def check_metrics(tally: Tally) -> dict:
    return {
        "op_failure_ratio": metric(tally.failed / tally.attempted, "ratio"),
        "residual_drift_max": metric(tally.drift_max, "ratio", compared=tally.drift_values),
        "pass_residual_log10_max": metric(math.log10(tally.pass_max) if tally.pass_max > 0 else None, "log10"),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def run_untraced(workload_cls, seed: int, seconds: float, tally: Tally) -> dict:
    # every interval is timed in wall seconds and then scaled to reference
    # seconds by the probes nearest to it (see hostspeed.py)
    host = HostSpeed()
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        host.sample()
        t0 = time.perf_counter()
        imports.append((t0, time_import()))
        workload = None  # one input pool alive at a time, as in a single set-up
        t0 = time.perf_counter()
        workload, s = set_up(workload_cls, seed, tally)
        setups.append((t0, s))
    host.sample()

    points = []
    visited = set()
    i = 0
    deadline = time.perf_counter() + seconds
    while True:
        i += 1
        idx = i % workload.pool_size
        t0 = time.perf_counter()
        run_calls(workload.calls(idx), idx, tally)
        now = time.perf_counter()
        points.append((t0, now - t0))
        visited.add(idx)
        if now >= deadline:
            break
        host.maybe_sample()
    host.sample()
    for call in workload.finish(visited):
        run_calls([call], -1, tally)

    import_s = statistics.median(host.scale(t, s) for t, s in imports)
    setup_s = import_s + statistics.median(host.scale(t, s) for t, s in setups)
    setup_wall_s = statistics.median(s for _, s in imports) + statistics.median(s for _, s in setups)
    point_s = [host.scale(t, s) for t, s in points]
    wall_s = [s for _, s in points]
    tail_s, tail_pct, n = tail(point_s)
    report = {
        "setup_s": metric(setup_s, "s", wall_s=setup_wall_s, repeats=SETUP_REPEATS, import_s=import_s),
        "points_per_s": metric(n / sum(point_s), "1/s", wall=n / sum(wall_s), points=n),
        "point_s.p50": metric(statistics.median(point_s), "s", wall_s=statistics.median(wall_s), samples=n),
        "point_s.tail": metric(tail_s, "s", wall_s=tail(wall_s)[0], percentile=tail_pct, samples=n),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "host_speed": metric(host.factor(), "ref_s/s", probes=len(host.samples)),
    }
    report.update(check_metrics(tally))
    return report


def trace_points(workload_cls, seconds: float) -> int:
    """Points per phase of a traced run: whole cycles, about a third of the budget each."""
    cycles = round(seconds / (3.0 * workload_cls.point_cost_s * workload_cls.cycle))
    return workload_cls.cycle * max(1, cycles)


def run_traced(workload_cls, seed: int, seconds: float, tally: Tally, span_path: Path | None) -> dict:
    tracer = Tracer()
    with tracer.installed():
        workload, _ = set_up(workload_cls, seed, tally)
    setup_stats = tracer.take_stats()

    n = trace_points(workload_cls, seconds)
    indices = [(1 + k) % workload.pool_size for k in range(n)]

    untraced = Tally(tally.reference)
    t0 = time.perf_counter()
    for idx in indices:
        run_calls(workload.calls(idx), idx, untraced)
    untraced_s = time.perf_counter() - t0

    traced = Tally(tally.reference)
    with tracer.installed():
        t0 = time.perf_counter()
        for k, idx in enumerate(indices):
            tracer.point = k
            run_calls(workload.calls(idx), idx, traced)
        traced_s = time.perf_counter() - t0
    stats = tracer.take_stats()
    for call in workload.finish(set(indices)):
        run_calls([call], -1, untraced)
    for t in (untraced, traced):
        tally.merge(t)

    report = {}
    for name, unit, _, span, col in LAYER_METRICS:
        report[name] = metric(stats.spans.get(span, [0, 0.0, 0.0])[col] / n, unit)
    report["jets.mul.pairs"] = metric(stats.pairs / n, "count")
    useful = stats.useful_pairs / stats.pairs if stats.pairs else 0.0
    report["jets.mul.useful_pair_ratio"] = metric(useful, "ratio")
    builds = [s.spans.get("jets.table_build", [0, 0.0, 0.0]) for s in (setup_stats, stats)]
    report["jets.table_build.count"] = metric(builds[0][0] + builds[1][0], "count")
    report["jets.table_build.s"] = metric(builds[0][1] + builds[1][1], "s")
    for name, unit, _ in per_layer_names():
        if name.startswith("op."):
            times = untraced.op_seconds.get(name[3:-2])
            report[name] = metric(statistics.median(times) if times else 0.0, unit)
    report["trace.overhead_ratio"] = metric(traced_s / untraced_s, "ratio", points=n)
    if span_path is not None:
        tracer.write(span_path, workload=workload_cls.name, seed=seed, points=n)
        report["spans"] = {"count": len(tracer.spans), "path": str(span_path.relative_to(ROOT))}
    report.update(check_metrics(tally))
    return report


def load_reference(name: str, seed: int) -> dict:
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh).get(name, {}).get(str(seed), {})


def run_workload(name: str, seed: int, seconds: float, trace: bool, span_path: Path | None = None) -> dict:
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[name]
    tally = Tally(load_reference(name, seed))
    if trace:
        report = run_traced(workload_cls, seed, seconds, tally, span_path)
        wanted = [n for n, _, _ in per_layer_names()]
    else:
        report = run_untraced(workload_cls, seed, seconds, tally)
        wanted = [n for n, _ in END_TO_END]
    correct = tally.failed == 0 and tally.drift_max <= DRIFT_TOLERANCE
    return {
        "report": report,
        "errors": tally.errors,
        "result": {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": report[k]["value"], "unit": report[k]["unit"]} for k in wanted},
        },
    }


def record_reference(name: str) -> dict:
    """Must-fail residuals of the first ``reference_points`` pool entries, per reference seed."""
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[name]
    out = {}
    for seed in REFERENCE_SEEDS:
        workload = workload_cls(seed)
        points = {}
        for i in range(workload_cls.reference_points):
            for call in workload.calls(i):
                keys = [k for k, g in call.gates.items() if not g.must_pass]
                if not keys:
                    continue
                outcome = execute(call)
                if not outcome.ok:
                    raise SystemExit(f"perfbench: {name} seed {seed} point {i} {call.label}: {outcome.error}")
                points.setdefault(str(i), {})[call.label] = {k: outcome.values[k] for k in keys}
        out[str(seed)] = points
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.record_reference:
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        refs[args.workload] = record_reference(args.workload)
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"recorded {args.workload} for seeds {list(REFERENCE_SEEDS)} into {REFERENCE.relative_to(ROOT)}")
        return 0

    span_path = SPAN_DIR / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), span_path)
    for err in out["errors"]:
        print(f"perfbench: failed call: {err}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, "report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
