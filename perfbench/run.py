"""The vspart benchmark.  Run it from the repository root:

    python3 perfbench/run.py --workload construct|search|feasibility|cli|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in its own worker process (perfbench/worker.py), one
job at a time: a closed loop with one client and no extra threads.  Set-up
is timed from process start to the first timed job, in SETUP_PROBES
set-up-only processes plus the worker itself, and reported as the median.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The lines before it print every metric by name with its unit, plus the
failure ratio and nodes/s.  The full record, with per-job work counts and
run facts, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("construct", "search", "feasibility", "cli")
SETUP_PROBES = 4
# A workload run (set-up probes and worker) is stopped after this long.
TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # Fixed string hashing, so runs differ only by the seed's inputs.
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args: list, deadline: float) -> dict:
    """Run the worker and return the record it prints on its last line.

    The worker gets its own process group, so that a timeout also stops
    the command processes it may have started.
    """
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)] + args, cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except BaseException as exc:  # a timeout or an interrupt: stop the group, reap, re-raise
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker {' '.join(args)} did not finish in time") from None
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err.strip()}")
    return json.loads(lines[-1])


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        rec = worker(base + ["--seconds", "0", "--setup-only"], deadline)
        setups.append((rec["setup_done"] - start, rec["setup_scale"]))
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    rec = worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append((rec["setup_done"] - start, rec["setup_scale"]))
    ops = [r for p in rec["passes"] for r in p]
    plain = rec["plain"]
    # Times at the reference host speed (hostspeed.py): jobs scaled in the
    # worker (not when traced), each set-up by the probe samples after it.
    e2e = {
        "wall_s": plain["wall_s"],
        "setup_s": statistics.median(t * k for t, k in setups),
        "peak_rss_mb": rec["peak_rss_mb"],
        "cmd_p50_s": plain["cmd_p50_s"],
        "cmd_tail_s": plain["cmd_tail_s"],
    }
    measured = rec["measured"]
    raw = {"wall_s": measured["wall_s"], "setup_s": statistics.median(s for s, _ in setups),
           "cmd_p50_s": measured["cmd_p50_s"], "cmd_tail_s": measured["cmd_tail_s"]}
    return {
        "workload": name,
        "run": {
            "commit": commit(), "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "seconds": seconds, "trace": trace,
            "passes": len(rec["passes"]), "cmd_samples": plain["cmd_samples"],
            "cmd_tail_pct": plain["cmd_tail_pct"], "setup_samples_s": [s for s, _ in setups],
            "host_scale": rec["host_scale"], "probe_samples": len(rec["probe_samples_s"]),
        },
        "correct": all(r["ok"] or r["known_defect"] for r in ops),
        "attempted": len(ops),
        "failed": sum(not r["ok"] for r in ops),
        "e2e": e2e,
        "raw_s": raw,
        "nodes_per_s": plain["nodes_per_s"],
        "pass_walls_s": plain["pass_walls"],
        "layers": rec.get("layers"),
        "fields": rec["fields"],
        "jobs": _job_table(rec["passes"]),
    }


def _job_table(passes: list) -> dict:
    """Per job: seconds in every pass, the last work counts and any problem."""
    table: dict = {}
    for p in passes:
        for r in p:
            entry = table.setdefault(r["name"], {"seconds": [], "problems": []})
            entry["seconds"].append(r["seconds"])
            entry["counts"] = r["counts"]
            if r["problem"] and r["problem"] not in entry["problems"]:
                entry["problems"].append(r["problem"])
    return table


def metric_block(result: dict, specs: list, source: dict) -> dict:
    block = {}
    for spec in specs:
        if spec["name"] not in source:
            raise BenchError(f"{result['workload']}: metric {spec['name']} was not measured")
        block[spec["name"]] = {"value": source[spec["name"]], "unit": spec["unit"]}
    return block


def report(result: dict, block: dict) -> None:
    run = result["run"]
    print(f"== {result['workload']}: seed {run['seed']}, {run['passes']} passes, "
          f"trace {run['trace']}, commit {run['commit'][:12]}, "
          f"Python {run['python']}, nproc {run['nproc']}")
    for name, m in block.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    if run["trace"] == 0:
        print(f"  {'fail_ratio':34s} {result['failed'] / result['attempted']:>14.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
        nps = result["nodes_per_s"]
        print(f"  {'nodes_per_s':34s} {'n/a' if nps is None else f'{nps:.6g}':>14} 1/s")
        print(f"  cmd samples {run['cmd_samples']}, cmd_tail_s is p{run['cmd_tail_pct']:.1f}")
        print(f"  host scale {run['host_scale']:.4f} from {run['probe_samples']} probe samples; "
              "as measured: " + ", ".join(f"{k} {v:.6g} s" for k, v in result["raw_s"].items()))
    for name, job in result["jobs"].items():
        for problem in job["problems"]:
            print(f"  ! {name}: {problem}")


def main() -> int:
    ap = argparse.ArgumentParser(description="vspart benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "vspart" / "__init__.py").is_file():
        print(f"perfbench: no vspart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    lines = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            source = result["layers"] if args.trace else result["e2e"]
            block = metric_block(result, specs, source)
            report(result, block)
            record = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(result, indent=1), encoding="utf-8")
            lines[name] = {
                "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "metrics": block,
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
