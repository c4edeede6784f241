#!/usr/bin/env python3
"""Run one benchmark workload against the library in ``./src`` and print
its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quiver-analyze --seed 1 \
        --seconds 15 --trace 0

The run sets up the workload three times (caches cleared before each, so
each set-up is cold) and reports the median as ``setup_s``, plus the
package import. It then repeats the workload's cycle of operations in a
closed loop, one client. ``--seconds`` fixes the amount of work: the
number of cycles is ``--seconds`` over the cycle's nominal time on the
reference machine (``cycle_s`` in ``workloads.py``), and at least enough
for 100 operations. Fixed work keeps the mix of input sizes, and the
memory the library's memos retain, the same from run to run; a faster
library finishes the same work sooner. Every output is checked outside
the timed region. Every time is scaled to the reference machine's fast
mode by the speed gauge (``gauge.py``); raw wall times go to the report.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs one
cycle untimed by spans, then the rest with every listed library function
wrapped (see ``spans.py``), and prints the per-layer metrics; the span
file and a full report go to ``.perfbench/`` in the checkout.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it is the environment stamp.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spans
from gauge import SpeedGauge

SETUP_REPEATS = 3
OUT_DIR = ".perfbench"

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

# Scaling fits: metric -> (span, input families, fit). "loglog" is the slope
# of log time against log size; "rung" is the time ratio per added rung.
SCALING = {
    "analysis.analyze.slope": ("analysis.analyze", ("monotonous", "raw"), "loglog"),
    "analysis.universal_evolution.rung_factor":
        ("analysis.universal_evolution", ("ladder",), "rung"),
    "esequence.evolutionary_sequence.slope":
        ("esequence.evolutionary_sequence", ("chain",), "loglog"),
    "esequence.terminal_ultrametric.slope":
        ("esequence.terminal_ultrametric", ("single",), "loglog"),
    "metric.tower_u.slope": ("metric.tower_u", ("ultrametric",), "loglog"),
    "metric.tower_v.slope": ("metric.tower_v", ("metric",), "loglog"),
}

FAILURE_KINDS = ("recursion", "size_guard", "check", "other")


def per_layer_catalog() -> list[tuple[str, str, str]]:
    out = []
    for span in spans.SPAN_NAMES:
        out.append((f"{span}.calls", "calls/op", "lower"))
        out.append((f"{span}.self_ms_per_op", "ms", "lower"))
    out += [(f"{layer}.self_share", "ratio", "lower") for layer in spans.LAYERS]
    out += [(f"{layer}.memo_hit_ratio", "ratio", "higher")
            for layer in ("quiver", "analysis", "esequence")]
    out.append(("memo.entries", "count", "lower"))
    out += [(name, "x" if fit == "rung" else "loglog", "lower")
            for name, (_, _, fit) in SCALING.items()]
    out += [("cli.python_start_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    out += [(f"failed.{kind}", "count", "lower") for kind in FAILURE_KINDS]
    out.append(("failed_ratio", "ratio", "lower"))
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest inputs, one set-up and one cycle (self-check)")
    return p.parse_args(argv)


def env_stamp(root: str, args) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def find_memos() -> dict[str, list]:
    """Module-level ``lru_cache`` functions of each layer, found through
    their public ``cache_info``; a layer without any has none listed."""
    found: dict[str, list] = {}
    for key, module in list(sys.modules.items()):
        if module is None or not key.startswith(spans.PACKAGE + "."):
            continue
        for value in vars(module).values():
            if callable(value) and hasattr(value, "cache_info") and \
                    getattr(value, "__module__", None) == key:
                found.setdefault(key.split(".")[-1], []).append(value)
    return found


class Runner:
    def __init__(self, workload, tracer, gauge) -> None:
        from phyloquiver.errors import SizeGuardError

        self.wl = workload
        self.tracer = tracer
        self.gauge = gauge
        self.size_guard = SizeGuardError
        self.counter = 0
        self.first_error: dict[str, str] = {}

    def op(self, cycle: int, j: int, traced: bool) -> dict:
        wl, tracer = self.wl, self.tracer
        slot = wl.slots[j]
        size, payload = wl.items[cycle][j]
        tag = f"k{self.counter}_"
        self.counter += 1
        item = wl.prepare(slot, payload, tag)
        tracer.op = cycle * len(wl.slots) + j
        self.gauge.maybe_sample()
        tracer.active = traced and not wl.trace_in_check
        error = None
        t0 = time.perf_counter()
        try:
            result = wl.run(slot, item)
        except Exception as exc:  # a failed operation is counted, never fatal
            error = ("recursion" if isinstance(exc, RecursionError) else
                     "size_guard" if isinstance(exc, self.size_guard) else "other")
            self.note(error, slot)
        t1 = time.perf_counter()
        tracer.active = traced and wl.trace_in_check
        if error is None:
            try:
                wl.check(slot, item, result)
            except Exception:  # a law broken, or the check itself raised
                error = "check"
                self.note(error, slot)
        tracer.active = False
        return {"family": slot.family, "size": size, "t0": t0, "t1": t1, "error": error}

    def note(self, error: str, slot) -> None:
        if error not in self.first_error:
            self.first_error[error] = f"{slot}: {traceback.format_exc(limit=-2)}"

    def phase(self, cycles: range, traced: bool) -> list:
        records = [self.op(c, j, traced)
                   for c in cycles for j in range(len(self.wl.slots))]
        self.gauge.sample()
        for r in records:
            r["raw"] = r["t1"] - r["t0"]
            r["dur"] = r["raw"] * self.gauge.scale(r["t0"], r["t1"])
        return records


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def end_to_end(records: list, setup_s: float) -> dict:
    durs = [r["dur"] for r in records]
    ok = sum(1 for r in records if r["error"] is None)
    return {
        "setup_s": setup_s,
        "ops_per_s": ok / sum(durs),
        "op_p50_ms": statistics.median(durs) * 1000,
        "op_p90_ms": quantile(durs, 0.9) * 1000,
        "peak_rss_mib": peak_rss_mib(),
    }


def fit(points: dict[int, list[float]], kind: str) -> float | None:
    xs, ys = [], []
    for size, times in sorted(points.items()):
        t = statistics.median(times)
        if t > 0 and size > 0:
            xs.append(size if kind == "rung" else math.log(size))
            ys.append(math.log(t))
    if len(xs) < 2:
        return None
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)
    return math.exp(slope) if kind == "rung" else slope


def per_layer(tracer, records: list, probe: list, memo_delta: dict, memo_entries,
              cli_times: dict) -> dict:
    n_ops = len(records)
    own = tracer.self_times()
    self_by = [[0.0] * n_ops for _ in spans.SPAN_NAMES]
    calls = [0] * len(spans.SPAN_NAMES)
    inclusive: dict[tuple[int, int], float] = {}
    for i, code in enumerate(tracer.name):
        op = tracer.op_id[i]
        self_by[code][op] += own[i]
        calls[code] += 1
        inclusive[(code, op)] = inclusive.get((code, op), 0.0) + \
            tracer.end[i] - tracer.start[i]
    out: dict = {}
    module_self = dict.fromkeys(spans.LAYERS, 0.0)
    for code, span in enumerate(spans.SPAN_NAMES):
        out[f"{span}.calls"] = calls[code] / n_ops
        out[f"{span}.self_ms_per_op"] = statistics.median(self_by[code]) * 1000
        module_self[span.split(".")[0]] += sum(self_by[code])
    total = sum(r["raw"] for r in records)  # spans are raw wall time too
    for layer, t in module_self.items():
        out[f"{layer}.self_share"] = t / total
    for layer in ("quiver", "analysis", "esequence"):
        hits, misses = memo_delta.get(layer, (0, 0))
        out[f"{layer}.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else None
    out["memo.entries"] = memo_entries
    for name, (span, families, kind) in SCALING.items():
        code = spans.SPAN_NAMES.index(span)
        points: dict[int, list[float]] = {}
        for op, r in enumerate(records):
            if r["family"] in families and (code, op) in inclusive:
                points.setdefault(r["size"], []).append(inclusive[(code, op)])
        out[name] = fit(points, kind)
    out["cli.python_start_ms"] = cli_times.get("python_start_ms")
    out["cli.import_ms"] = cli_times.get("import_ms")
    first = records[:len(probe)]
    out["trace.overhead_ratio"] = sum(r["dur"] for r in first) / \
        sum(r["dur"] for r in probe[:len(first)])
    every = probe + records
    for kind in FAILURE_KINDS:
        out[f"failed.{kind}"] = sum(1 for r in every if r["error"] == kind)
    out["failed_ratio"] = sum(1 for r in every if r["error"]) / len(every)
    return out


def cli_start_times(env: dict) -> dict:
    """Median wall time of a bare interpreter start, and of importing the
    CLI module on top of it, over five child runs each."""
    def median_ms(code: str) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, timeout=60)
            times.append((time.perf_counter() - t0) * 1000)
        return statistics.median(times)

    start = median_ms("pass")
    return {"python_start_ms": start,
            "import_ms": median_ms("import phyloquiver.cli") - start}


def set_up(args, root: str, gauge: SpeedGauge, memos: list):
    """Build the workload SETUP_REPEATS times, each from cold memos; return
    the last one, its cycle count and the scaled set-up times."""
    from workloads import WORKLOADS

    times = []
    workload = None
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
        for fn in memos:
            fn.cache_clear()
        gauge.sample()
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.smoke)
        cycles = workload.cycles(args.seconds)
        workload.setup(args.seed, root, cycles)
        t1 = time.perf_counter()
        gauge.sample()
        times.append((t1 - t0) * gauge.scale(t0, t1))
    return workload, cycles, times


def measure(args, workload, runner: Runner, tracer, cycles: int):
    """Run the cycles; a traced run first runs cycle 0 without spans, then
    cycle 0 again and the rest with them, so trace.overhead_ratio compares
    the same inputs. Returns (untraced probe, records, CLI start times)."""
    probe: list = []
    cli_times: dict = {}
    try:
        if not args.trace:
            return probe, runner.phase(range(cycles), traced=False), cli_times
        probe = runner.phase(range(1), traced=False)
        tracer.install()
        try:
            records = runner.phase(range(max(1, cycles - 1)), traced=True)
        finally:
            tracer.restore()
        if args.workload == "cli-cold":
            cli_times = cli_start_times(workload.env)
        return probe, records, cli_times
    finally:
        workload.teardown()


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "phyloquiver", "__init__.py")):
        print("perfbench: src/phyloquiver not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    gauge = SpeedGauge()
    gauge.sample()
    t0 = time.perf_counter()
    import phyloquiver.cli  # noqa: F401  (pulls in every layer)
    t1 = time.perf_counter()
    gauge.sample()
    import_s = (t1 - t0) * gauge.scale(t0, t1)
    import phyloquiver
    if os.path.dirname(os.path.abspath(phyloquiver.__file__)) != \
            os.path.join(src, "phyloquiver"):
        print(f"perfbench: imported {phyloquiver.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    stamp = env_stamp(root, args)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    memos = find_memos()
    all_memos = [fn for fns in memos.values() for fn in fns]

    workload, cycles, setup_times = set_up(args, root, gauge, all_memos)
    setup_s = import_s + statistics.median(setup_times)
    tracer = spans.Tracer()
    op_gauge = workload.gauge() or gauge
    runner = Runner(workload, tracer, op_gauge)
    before = {layer: [fn.cache_info() for fn in fns] for layer, fns in memos.items()}
    t_start = time.perf_counter()
    probe, records, cli_times = measure(args, workload, runner, tracer, cycles)
    wall = time.perf_counter() - t_start

    every = probe + records
    if args.trace:
        memo_delta = {}
        for layer, fns in memos.items():
            after = [fn.cache_info() for fn in fns]
            memo_delta[layer] = (sum(a.hits - b.hits for a, b in zip(after, before[layer])),
                                 sum(a.misses - b.misses for a, b in zip(after, before[layer])))
        entries = sum(fn.cache_info().currsize for fn in all_memos) if all_memos else None
        values = per_layer(tracer, records, probe, memo_delta, entries, cli_times)
        catalog = per_layer_catalog()
        tracer.write(os.path.join(root, OUT_DIR, f"spans-{args.workload}.tsv"))
    else:
        values = end_to_end(records, setup_s)
        catalog = END_TO_END
    absent = [name for name, _, _ in catalog if values[name] is None]
    metrics = {name: {"value": values[name] if values[name] is not None else 0,
                      "unit": unit} for name, unit, _ in catalog}

    families: dict[str, list[float]] = {}
    for r in every:
        families.setdefault(r["family"], []).append(r["dur"] * 1000)
    report = {
        "env": stamp,
        "wall_s": wall,
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "absent": absent,
        "first_errors": runner.first_error,
        "families_ms": {f: {"n": len(v), "median": statistics.median(v), "max": max(v)}
                        for f, v in families.items()},
        "durations_ms": [r["dur"] * 1000 for r in records],
        "raw_wall": end_to_end([dict(r, dur=r["raw"]) for r in records], None),
        "kernel_ms": {"median": statistics.median(op_gauge.kernel_s) * 1000,
                      "min": min(op_gauge.kernel_s) * 1000,
                      "samples": len(op_gauge.kernel_s)},
        "metrics": metrics,
    }
    with open(os.path.join(root, OUT_DIR, f"report-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    for kind, text in runner.first_error.items():
        print(f"perfbench: first {kind} failure: {text}", file=sys.stderr)
    print(f"# env {json.dumps(stamp, sort_keys=True)} samples={len(every)} "
          f"absent={','.join(absent) or '-'}")
    print(json.dumps({
        "correct": not any(r["error"] == "check" for r in every),
        "attempted": len(every),
        "failed": sum(1 for r in every if r["error"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
