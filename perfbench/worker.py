"""Run one workload in this process and print its record as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up builds the workload's fields and files and notes the monotonic
clock when it is done, so that the parent can time set-up from process
start.  Then whole passes of the job list run, one job at a time, in an
order drawn from the seed.  The pass count is S divided by the workload's
nominal pass time, rounded up, so it does not depend on how fast this
machine happens to be.  With --trace 0 a host-speed probe
(hostspeed.py) samples a fixed loop all through the passes, and every
job's seconds are stated at the reference host speed; a few samples
right after set-up scale the set-up time.  With --trace 1 the first half
of the passes runs untraced and the rest traced, which gives the tracing
overhead.  The parent must put the vspart sources on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import jobs
import tracing
from hostspeed import HostSpeed

EXPECTED = Path(__file__).resolve().parent / "expected.json"
OUT_DIR = Path(__file__).resolve().parent / "out"

# Probe samples taken before each command process of the cli workload,
# and after set-up, for scaling set-up time.
PROBES_BETWEEN_COMMANDS = 2
PROBES_AFTER_SETUP = 5


def build_fields(workload: str) -> dict:
    from vspart import gf

    start = time.perf_counter()
    before = gf.make_field.cache_info().misses
    for q in jobs.FIELDS[workload]:
        gf.field_from_order(q)
    return {
        "make_field_s": time.perf_counter() - start,
        "make_field_calls": gf.make_field.cache_info().misses - before,
    }


def run_op(op: jobs.Op, tracer, expected: dict, probe: Optional[HostSpeed] = None) -> dict:
    # Each job starts with the collector's generations empty, so that the
    # cost of a collection inside it does not depend on the job before.
    gc.collect()
    root = tracer.open(tracing.ROOT) if tracer is not None else None
    stolen = probe.stolen if probe is not None else 0.0
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # an unexpected exception is a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    measured = time.perf_counter() - start
    seconds = measured
    if probe is not None:
        measured -= probe.stolen - stolen
        seconds = measured * probe.job_scale()
    if tracer is not None:
        tracer.close(root)
        trace_file = getattr(result, "trace_file", None)
        if trace_file is not None and trace_file.exists():
            tracer.adopt(json.loads(trace_file.read_text(encoding="utf-8")), root)
            trace_file.unlink()
    if error is None:
        try:
            outcome = op.check(result)
        except Exception as exc:
            outcome = jobs.Outcome(False, problem=f"check raised {type(exc).__name__}: {exc}")
    else:
        outcome = jobs.Outcome(False, problem=error)
    pins = expected.get(op.name)
    if pins is None:
        mismatch = "no pinned expectation"
    else:
        mismatch = ", ".join(
            f"{k}={outcome.observed.get(k)!r} (pinned {v!r})"
            for k, v in pins.items() if outcome.observed.get(k) != v
        )
    ok = outcome.ok and not mismatch
    problem = "; ".join(filter(None, (outcome.problem, mismatch)))
    return {
        "name": op.name, "seconds": seconds, "measured_s": measured, "ok": ok, "problem": problem,
        "known_defect": outcome.known_defect and not mismatch,
        "counts": outcome.counts, "observed": outcome.observed,
    }


def run_passes(ops, order_rng, tracer, expected, count: int, probe=None, between=0) -> list:
    passes = []
    for _ in range(count):
        order = list(ops)
        order_rng.shuffle(order)
        records = []
        for op in order:
            for _ in range(between):
                probe.sample()
            records.append(run_op(op, tracer, expected, probe))
        passes.append(records)
    return passes


def tail(samples) -> tuple:
    """The highest nearest-rank percentile with at least ten samples beyond it.

    With 20 or fewer samples no percentile above the median qualifies, and
    the maximum is reported instead.
    """
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank <= len(ordered) / 2:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def pass_walls(passes: list, key: str = "seconds") -> list:
    return [sum(r[key] for r in p) for p in passes]


def summarize(passes: list, key: str = "seconds") -> dict:
    walls = pass_walls(passes, key)
    latencies = [r[key] for p in passes for r in p]
    tail_s, tail_pct = tail(latencies)
    rates = [r["counts"]["nodes_per_s"] for p in passes for r in p if "nodes_per_s" in r["counts"]]
    return {
        "wall_s": statistics.median(walls),
        "cmd_p50_s": statistics.median(latencies),
        "cmd_tail_s": tail_s,
        "cmd_tail_pct": tail_pct,
        "cmd_samples": len(latencies),
        "nodes_per_s": statistics.median(rates) if rates else None,
        "pass_walls": walls,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(jobs.OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        fields = build_fields(args.workload)
        ctx = jobs.Context(random.Random(args.seed), workdir, dict(os.environ))
        ops = jobs.OPS[args.workload](ctx)
        # CLOCK_MONOTONIC is shared by all processes, so the parent can
        # subtract the moment it started this one.
        setup_done = time.clock_gettime(time.CLOCK_MONOTONIC)
        setup_probe = HostSpeed()
        for _ in range(PROBES_AFTER_SETUP):
            setup_probe.sample()
        if args.setup_only:
            print(json.dumps({"setup_done": setup_done, "setup_scale": setup_probe.scale()}))
            return 0
        expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(args.workload, {})
        order_rng = random.Random(f"order:{args.seed}")
        count = max(jobs.MIN_PASSES.get(args.workload, 1),
                    math.ceil(args.seconds / jobs.NOMINAL_PASS_S[args.workload]))
        traced: list = []
        probe = HostSpeed()
        if args.trace:
            plain = run_passes(ops, order_rng, None, expected, max(1, count // 2))
            ctx.tracer = tracing.Tracer()
            tracing.install(ctx.tracer)
            traced = run_passes(ops, order_rng, ctx.tracer, expected, max(1, count - count // 2))
        elif args.workload == "cli":
            # Each command probes itself (cli_child.py); the samples taken
            # just before it cover its process start.
            ctx.probe = probe
            plain = run_passes(ops, order_rng, None, expected, count,
                               probe, PROBES_BETWEEN_COMMANDS)
        else:
            probe.start_timer()
            try:
                plain = run_passes(ops, order_rng, None, expected, count, probe)
            finally:
                probe.stop_timer()
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        record = {
            "setup_done": setup_done,
            "setup_scale": setup_probe.scale(),
            "fields": fields,
            "peak_rss_mb": usage / 1024.0,
            "plain": summarize(plain),
            "measured": summarize(plain, "measured_s"),
            "passes": plain + traced,
            "probe_samples_s": probe.samples,
            "host_scale": probe.scale() if probe.samples else None,
        }
        if traced:
            walls = pass_walls(traced)
            layers = tracing.layer_metrics(ctx.tracer, len(traced))
            layers["setup.make_field_s"] = fields["make_field_s"]
            layers["setup.make_field_calls"] = fields["make_field_calls"]
            layers["trace.wall_s"] = statistics.fmean(walls)
            layers["trace.overhead"] = statistics.median(walls) / record["plain"]["wall_s"]
            record["layers"] = layers
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
