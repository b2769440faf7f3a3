"""Benchmark for amenact: exact-output workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``perfbench/workloads.py``): ``entropy-lattice`` and
``builtins``; ``--workload all`` runs each in a fresh process and prints
every result.  The library is imported from
``src/`` of the checkout this file sits in; nothing is installed.

Each workload is a closed loop with one caller: a pass is a fixed list of
operations in ``--seed``-shuffled order, the next op starts when the last
one has returned, and whole passes run until ``--seconds`` have elapsed
and at least ``MIN_SAMPLES`` ops have run.  Every output is
compared with ``perfbench/golden.json``, recorded at the seed commit; a
mismatch or exception is a failed op and makes the exit code 1.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
``SETUP_REPEATS`` fresh processes, from spawn to the first timed op),
``ops_per_s`` (verified ops over wall time), ``op_p50_s`` and ``op_p75_s``,
and ``peak_rss_mb``.  The latency percentiles are taken over the ops of a
pass, each op's latency being its mean over the run's passes.  Pooling raw
samples would put a percentile on the edge between two op kinds, and a
per-op median flips with whichever speed the machine held for most of the
run, while the mean averages the machine's slow and fast spells like
``ops_per_s`` does.  The failure ratio is ``failed / attempted`` in the
result line.

``--trace 1`` times one untraced pass, then wraps the library's public
functions (``perfbench/tracing.py``) and runs traced passes.  It reports
per-layer calls, self time and counters per pass, the growth ratio of each
workload's heaviest function at size 2n over n, and the tracing overhead,
and writes the spans to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_SAMPLES = 40  # at least ten latency samples lie beyond op_p75_s
SETUP_REPEATS = 9

# workload -> a function its traced run must reach, so that a missed
# rebinding fails loudly instead of reading as zero
WORKLOADS = {
    "entropy-lattice": "lattices.hnf",
    "builtins": "folner.greedy_tiler",
}


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import amenact
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import amenact from {SRC}: {err}")
    if Path(amenact.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: amenact came from {amenact.__file__}, not {SRC}")


def setup(workload, seed):
    import_library()
    import workloads

    ctx = workloads.Context(OUT / f"run-{os.getpid()}")
    golden = workloads.load_golden()
    return workloads, ctx, workloads.build_pass(workload, ctx, seed), golden


def measure_setup(workload, seed):
    """Median time from spawning a fresh process to its first timed op.

    The child prints ``time.perf_counter()`` when it is ready; on Linux that
    clock is CLOCK_MONOTONIC, shared by all processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(child.stdout.split()[-1]) - start)
    return statistics.median(samples)


class Tally:
    def __init__(self, check, golden):
        self.check = check
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.latencies = {}  # op key -> seconds, one per completed call

    def run(self, op):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.call()
            latency = time.perf_counter() - start
            self.check(op, result, self.golden)
        except Exception as err:  # every failure is counted, the run goes on
            self.failed += 1
            print(f"perfbench: {op.key} failed: {err!r}", file=sys.stderr)
        else:
            self.latencies.setdefault(op.key, []).append(latency)


def run_passes(ops, tally, seconds, min_ops=0, before_op=None):
    """Whole passes until ``seconds`` have elapsed and at least ``min_ops``
    ops have run; returns (passes, elapsed seconds)."""
    start = time.perf_counter()
    passes = 0
    while True:
        for op in ops:
            if before_op is not None:
                before_op(op)
            tally.run(op)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and passes * len(ops) >= min_ops:
            return passes, elapsed


def end_to_end(args, ops, tally):
    passes, elapsed = run_passes(ops, tally, args.seconds, MIN_SAMPLES)
    completed = sum(map(len, tally.latencies.values()))
    per_op = [statistics.fmean(v) for v in tally.latencies.values()]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"perfbench: {args.workload}: {passes} passes, {tally.attempted} ops, "
        f"fail_ratio {tally.failed / tally.attempted}",
        file=sys.stderr,
    )
    return {
        "setup_s": (args.setup_s, "s"),
        "ops_per_s": (completed / elapsed, "1/s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_p75_s": (statistics.quantiles(per_op, n=4)[2], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def self_time(spans, name, op_id):
    """Self time of ``name`` spans in one op, recomputed from the spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[4] == op_id and span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return sum(
        span[2] - span[1] - child[i]
        for i, span in enumerate(spans)
        if span[4] == op_id and span[0] == name
    )


def per_layer(args, workloads, ctx, ops, tally):
    from tracing import Tracer

    begin = time.perf_counter()
    run_passes(ops, tally, 0)
    untraced = time.perf_counter() - begin

    tracer = Tracer()
    tracer.install(callers=[workloads])
    op_keys = []

    def label(op):
        tracer.op = len(op_keys)
        op_keys.append(op.key)

    passes, elapsed = run_passes(ops, tally, args.seconds, before_op=label)
    expected = WORKLOADS[args.workload]
    if not tracer.calls[expected]:
        raise SystemExit(f"perfbench: {expected} was never called; is it still wrapped?")
    metrics = tracer.per_layer(passes)
    metrics["trace.overhead_ratio"] = (elapsed / passes / untraced, "ratio")

    growth = workloads.growth_ops(ctx, args.seed)
    for name, small, large in workloads.GROWTH_PAIRS:
        times = []
        for key in (small, large):
            label(growth[key])
            tally.run(growth[key])
            times.append(self_time(tracer.spans, name, tracer.op))
        metrics[f"{name}.growth_x2"] = (times[1] / times[0], "ratio")

    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json", op_keys)
    return metrics


def run_all(args):
    """Each workload in a fresh process; prints every result line."""
    results, code = {}, 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = child.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if lines else None
        print(f"{workload}: {lines[-1] if lines else '(no result)'}", flush=True)
        code = max(code, child.returncode)
    print(json.dumps(results))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workloads, ctx, ops, golden = setup(args.workload, args.seed)
    try:
        if args.setup_only:
            print(time.perf_counter())
            return 0
        tally = Tally(workloads.check, golden)
        if args.trace:
            metrics = per_layer(args, workloads, ctx, ops, tally)
        else:
            args.setup_s = measure_setup(args.workload, args.seed)
            metrics = end_to_end(args, ops, tally)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
