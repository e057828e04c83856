"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload pit_search --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``:
set-up is repeated ``SETUP_REPS`` times (median reported), then whole
operations run back to back until ``--seconds`` have passed, then the
outputs are checked.  ``--trace 1`` prints the per-layer metrics instead:
the timing wrappers of ``spans.py`` are installed before anything is
built, half of the time runs with recording off and half with it on (the
difference is ``trace_overhead_pct``), and the spans are written to
``.perfbench/traces/`` when the run ends.

Human-readable lines (including the metric names of the issue that defined
the benchmark: ``search_s``, ``sweep_s``, ``tick_us_p50``, ``val_loss``,
``front_hypervolume``, ``failure_rate``, …) precede the JSON object, which
is always the last line.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")

#: The fastest execution tier at the ROADMAP re-anchor.  A knob a later
#: change deletes is simply ignored by the program.
TIER_ENV = {
    "REPRO_COMPILE_STEP": "1",
    "REPRO_LOOP_CAPTURE": "1",
    "REPRO_GRAPH_EXEC": "source",
    "REPRO_GRAPH_OPT": "default",
    "REPRO_DTYPE": "float32",
    "REPRO_CONV_BACKEND": "im2col",
}
#: BLAS threads; the sweep runs in-process (workers=0), so this is all the
#: parallelism the benchmark uses.
BLAS_THREADS = 1
SETUP_REPS = 9


def configure_environment() -> None:
    """Pin the execution tier and BLAS threads before numpy or repro load.

    Every other ``REPRO_*`` variable is dropped, so fault injection, a
    checkpoint directory or a worker count from the calling shell cannot
    leak into the measurement.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(TIER_ENV)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


class Tally:
    """Running totals over the operations of a run.

    Per-operation layer metrics are kept only for traced operations, so an
    untraced run's memory does not grow with its operation count.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = 0.0
        self.layers = []   # (op id, per-layer metrics) of traced operations

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.work += outcome.work


def measure(workload, seconds, recorder, tag, tally):
    """Run operations back to back for about ``seconds``.

    A new operation starts while at least half a mean operation still
    fits, so the run overshoots by less than half an operation on average
    (at least one operation always runs).  Returns the wall-clock of each
    operation and adds each outcome to ``tally``.  An operation that
    raises is recorded as failed.
    """
    from repro.autograd.graph import codegen_cache_stats
    from spans import OP, fallbacks

    durations = array.array("d")
    reported = False
    begin = time.perf_counter()
    total = 0.0
    while not durations or (time.perf_counter() - begin
                            + total / len(durations) / 2 < seconds):
        args = workload.prepare()
        op_id = f"{tag}{len(durations)}"
        traced = recorder.enabled
        cache = codegen_cache_stats() if traced else None
        recorder.op = op_id
        error = result = None
        with recorder.span(OP):
            start = time.perf_counter()
            try:
                result = workload.op(args)
            except Exception as exc:  # a failed operation, counted below
                error = exc
            end = time.perf_counter()
        recorder.op = None
        if error is not None and not reported:
            traceback.print_exception(error, file=sys.stderr)
            reported = True
        durations.append(end - start)
        total += end - start
        outcome = workload.record(result, error)
        tally.add(outcome)
        if traced:
            after = codegen_cache_stats()
            outcome.layers["autograd.graph.code_cache_hits"] = (
                after["hits"] - cache["hits"])
            outcome.layers["autograd.graph.code_cache_misses"] = (
                after["misses"] - cache["misses"])
            outcome.layers["autograd.graph.fallbacks"] = fallbacks(recorder)
            tally.layers.append((op_id, outcome.layers))
    return durations


def end_to_end(workload, seconds, tally):
    import numpy as np
    from spans import Recorder

    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    recorder = Recorder()
    durations = measure(workload, 0, recorder, "op", tally)
    # What a one-shot process (``cli search`` / ``cli sweep``) peaks at;
    # read before later operations, whose count depends on machine speed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    durations += measure(workload, seconds - sum(durations), recorder,
                         "op", tally)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_p99_ms": float(np.percentile(durations, 99)) * 1e3,
        "samples_per_s": tally.work / sum(durations),
        "peak_rss_mb": peak_rss_mb,
    }, durations


def per_layer(workload, seconds, tally, trace_path):
    import spans
    import workloads

    recorder = spans.Recorder()
    spans.install(recorder)
    recorder.enabled = True
    recorder.op = "setup"
    workload.setup()
    recorder.op = None
    recorder.enabled = False
    untraced = measure(workload, seconds / 2, recorder, "untraced", tally)
    recorder.enabled = True
    traced = measure(workload, seconds / 2, recorder, "op", tally)
    recorder.enabled = False
    recorder.dump(trace_path)

    metrics = spans.summarize(recorder, [op for op, _ in tally.layers],
                              ["setup"])
    for name in workloads.OUTCOME_LAYERS:
        metrics[name] = statistics.fmean(
            layers.get(name, 0.0) for _, layers in tally.layers)
    metrics["trace_overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    return metrics, traced


def human_lines(name, metrics, units, durations, workload, attempted,
                failed):
    """Summary lines, including the issue-defined per-workload names."""
    n = len(durations)
    lines = [f"workload {name}: {n} operations, blas_threads={BLAS_THREADS}, "
             f"dse_workers=0"]
    for metric, value in metrics.items():
        lines.append(f"  {metric} = {value:.6g} {units[metric]}")
    if "op_p50_ms" in metrics:
        p50, p99 = metrics["op_p50_ms"], metrics["op_p99_ms"]
        aliases = {
            "pit_search": [("search_s", p50 / 1e3, "s")],
            "lambda_sweep": [("sweep_s", p50 / 1e3, "s")],
            "stream_serve": [("tick_us_p50", p50 * 1e3, "us"),
                             ("tick_us_p99", p99 * 1e3, "us"),
                             ("stream_samples_per_s",
                              metrics["samples_per_s"], "1/s")],
        }[name]
        for alias, value, unit in aliases:
            lines.append(f"  {alias} = {value:.6g} {unit} (n={n})")
    for key, (value, unit) in workload.summary().items():
        lines.append(f"  {key} = {value} {unit}".rstrip())
    lines.append(f"  failure_rate = {failed / max(attempted, 1):.6g} "
                 f"({failed}/{attempted})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    configure_environment()
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    scratch = os.path.join(OUT, "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        tally = Tally()
        if args.trace:
            trace_path = os.path.join(
                OUT, "traces", f"{args.workload}-seed{args.seed}.jsonl")
            metrics, durations = per_layer(workload, args.seconds, tally,
                                           trace_path)
        else:
            metrics, durations = end_to_end(workload, args.seconds, tally)
        check_failures = workload.check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
            "BENCHMARK.json")
    attempted = tally.attempted
    failed = min(attempted, tally.failed + check_failures)
    for line in human_lines(args.workload, metrics, units, durations,
                            workload, attempted, failed):
        print(line)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]}
                    for name in (m["name"] for m in section)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
