"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this script with every ``REPRO_*`` variable removed
and ``src`` on ``PYTHONPATH``; it prints one JSON object as its last
line.  The run is: set-up (package import, inputs, cache fill), one
untimed warm-up pass, then timed passes for ``--seconds``.  With
``--trace 1`` the timed passes are split between untraced passes on the
workload's own executor, untraced serial passes (pooled workloads only),
and traced serial passes, which give the per-layer metrics.

Exit code 0 when every output check passed, 1 when one failed.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYERS, Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS, Pass, Workload  # noqa: E402

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected" / "digests.json"

#: The seed whose output digests are recorded in ``expected/digests.json``.
DEFAULT_SEED = 0

#: Fewest timed passes a run makes, however long they take.
MIN_PASSES = 3

#: Per-layer metrics besides ``<layer>.self_s`` and ``<layer>.calls``.
EXTRA_LAYER_METRICS = {
    "runtime.utilization": "ratio",
    "runtime.overhead_s": "s",
    "runtime.retries": "count",
    "cache.hit_ratio": "ratio",
    "protocol.accept_ratio": "ratio",
    "protocol.desyncs": "count",
    "protocol.resyncs": "count",
    "control.excision_count": "count",
    "control.lowpass_count": "count",
    "control.none_count": "count",
    "trace.attributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(EXTRA_LAYER_METRICS)
    return units


def digest(rows: list) -> str:
    """SHA-256 of the canonical JSON of a pass's output rows."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its largest child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def observers() -> dict:
    """Outcome counters taken at the ``control.decide`` and ``cache.get`` boundaries."""

    def decisions(counts: Counter, result) -> None:
        if isinstance(result, list):
            counts["decide_batch"] += 1
        else:
            result = [result]
        for decision in result:
            counts[f"control.{decision.kind.value}_count"] += 1

    def cache_get(counts: Counter, result) -> None:
        counts["cache.gets"] += 1
        counts["cache.hits"] += result is not None

    return {"control.decide": decisions, "cache.get": cache_get}


def timed_passes(
    workload: Workload, seconds: float, workers: int | None = None, min_passes: int = MIN_PASSES
) -> list[tuple[Pass | None, float, float]]:
    """``(pass or None if it raised, wall s, CPU s)`` for passes filling ``seconds``.

    After the first ``min_passes``, a pass starts only if a pass as long
    as the previous one still ends within ``seconds``, so that a run of
    long passes does not overrun its time.
    """
    out: list[tuple[Pass | None, float, float]] = []
    start = time.perf_counter()
    while len(out) < min_passes or time.perf_counter() - start + out[-1][1] <= seconds:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = workload.run(workers)
        except Exception as exc:  # a failed pass is counted, not fatal
            print(f"{workload.name}: pass raised {exc!r}", file=sys.stderr)
            result = None
        out.append((result, time.perf_counter() - t0, cpu_seconds() - cpu0))
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runs: list[tuple[Pass, float, float]]) -> dict:
    return {
        "packets_per_s": metric(statistics.median(p.packets / wall for p, wall, _ in runs), "1/s"),
        "cpu_s_per_packet": metric(statistics.median(cpu / p.packets for p, _, cpu in runs), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def per_layer(
    workload: Workload,
    traced: list[tuple[Pass, float, dict[str, tuple[float, int]], Counter]],
    own: list[tuple[Pass, float, float]],
    serial: list[tuple[Pass, float, float]],
    setup_totals: dict[str, tuple[float, int]],
) -> dict:
    """The per-layer metrics, per traced pass unless the README says otherwise."""
    n = len(traced)
    units = per_layer_units()
    values: dict[str, float] = dict.fromkeys(units, 0.0)
    counts: Counter = Counter()
    for _pass, _wall, totals, pass_counts in traced:
        counts.update(pass_counts)
        for layer, (seconds, calls) in totals.items():
            values[f"{layer}.self_s"] += seconds / n
            values[f"{layer}.calls"] += calls / n
    # The only puts are grid-cache-warm's cache fill, so cache.put is
    # reported per set-up.
    seconds, calls = setup_totals.get("cache.put", (0.0, 0))
    values["cache.put.self_s"], values["cache.put.calls"] = seconds, calls

    timings = [p.timing for p, _, _ in own if p.timing is not None]
    if timings:
        values["runtime.utilization"] = statistics.median(t.utilization for t in timings)
        values["runtime.overhead_s"] = statistics.median(
            t.wall_seconds - t.busy_seconds / t.workers for t in timings
        )
        values["runtime.retries"] = statistics.median(t.retries for t in timings)
    if counts["cache.gets"]:
        values["cache.hit_ratio"] = counts["cache.hits"] / counts["cache.gets"]
    for kind in ("excision", "lowpass", "none"):
        values[f"control.{kind}_count"] = counts[f"control.{kind}_count"] / n
    values.update(workload.pass_counts(traced[0][0].rows))
    traced_walls = [wall for _, wall, _, _ in traced]
    attributed = sum(s for _, _, totals, _ in traced for s, _ in totals.values())
    values["trace.attributed_ratio"] = attributed / sum(traced_walls)
    values["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(
        wall for _, wall, _ in serial
    )
    return {name: metric(values[name], unit) for name, unit in units.items()}


def measure(args: argparse.Namespace, workdir: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer(observers())
    if args.trace:
        with tracer.installed():
            workload.setup()
        setup_spans, _ = tracer.take()
    else:
        workload.setup()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # The warm-up pass runs traced so that the guards can read its counts.
    with tracer.installed():
        first = workload.run()
    _, counts = tracer.take()
    problems = workload.guard(first, counts)
    output_problems = []
    first_digest = digest(first.rows)
    if args.seed == DEFAULT_SEED:
        with open(EXPECTED) as fh:
            expected = json.load(fh).get(workload.name)
        if first_digest != expected:
            output_problems.append(f"digest {first_digest} != recorded {expected}")

    def reproduces(run: tuple) -> bool:
        return run[0] is not None and run[0].rows == first.rows

    traced: list[tuple[Pass | None, float, dict, Counter]] = []
    if args.trace:
        share = args.seconds / (3 if workload.workers else 2)
        own = timed_passes(workload, share, min_passes=1)
        serial = timed_passes(workload, share, workers=0, min_passes=1) if workload.workers else own
        pass_spans = []
        with tracer.installed():
            start = time.perf_counter()
            while len(traced) < 2 or time.perf_counter() - start < share:
                t0 = time.perf_counter()
                result = workload.run(0)
                wall = time.perf_counter() - t0
                spans, pass_counts = tracer.take()
                pass_spans.append(spans)
                traced.append((result, wall, layer_totals(spans), pass_counts))
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"setup": setup_spans, "passes": pass_spans}, fh)
        runs = own + (serial if workload.workers else []) + [(p, w, 0.0) for p, w, _, _ in traced]
    else:
        runs = timed_passes(workload, args.seconds)

    reference = workload.reference()
    if reference is not None and reference != first.rows:
        output_problems.append("rows differ from the reference run")
    good = [run for run in runs if reproduces(run)]
    attempted = first.packets * len(runs)
    failed = attempted if output_problems else first.packets * (len(runs) - len(good))
    if not good:
        print(f"{workload.name}: every pass failed", file=sys.stderr)
        return 2
    if args.trace:
        own = [run for run in own if reproduces(run)]
        serial = [run for run in serial if reproduces(run)]
        metrics = per_layer(workload, traced, own, serial, layer_totals(setup_spans))
    else:
        metrics = end_to_end(good)
    problems += output_problems
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
                "setup_s": setup_s,
                "digest": first_digest,
                "passes": len(runs),
                "problems": problems,
            }
        )
    )
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced spans to this JSON file")
    parser.add_argument("--workdir", required=True, help="scratch directory, removed at exit")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir) / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
