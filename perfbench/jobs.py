"""The four workloads: set-up, the fixed job list of one pass, and output checks.

A job ("op") has a `run` that the worker times and a `check` that judges
the result outside the timed region.  A check returns the observed values
that `expected.json` pins (digests, verdicts, exit codes), the work counts
recorded beside the seconds, and a problem string when an independent
check failed.  Every built or found partition is re-checked by
`cover.cover_problem`, which shares no code with `vspart.partition.verify`.

Why each workload exists:

- construct: the closed-form builders.  Every builder re-verifies, so
  `partition.verify`, `gf.ExtField` and `linalg.canonicalize` do the work
  while `search` and `dioph` sit almost idle.
- search: exact-cover search.  V_6 is bound by the scan loop (`choices`),
  V_8 by the candidate-table build (`enumerate_subspaces`, `nonzero_mask`;
  about 230 MB) and V_7 by its node budget; `verify` and `dioph` sit
  almost idle.
- feasibility: only `dioph` runs, in two ways: enumeration (`solve`) and
  flag filtering (`annotate`).  A change that helps one and costs the
  other shows up here.
- cli: the README commands, each in a fresh interpreter, on files written
  during set-up.  The only workload that pays per-process start-up (import,
  GF tables) on every command, reads files through `io` and runs `codes`
  and `designs`.

Left out on purpose: `solve(2,10,(1,2,3))` + `annotate` and
`(2,9,(1,2,3,4))` (did not finish in 60-120 s), and `vspart solve --q
2305843009213693951 ...`, which hangs in `field_from_order` before the
order guard applies.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from cover import cover_problem, partition_doc, type_string

HERE = Path(__file__).resolve().parent
CLI_CHILD = HERE / "cli_child.py"
CHILD_TIMEOUT_S = 120

# Fields each workload builds during set-up (by order q).
FIELDS = {"construct": (2, 3, 4), "search": (2, 3), "feasibility": (), "cli": (2, 3)}

# Seconds one pass took when the benchmark was defined (2-core x86 VM,
# Python 3.11).  They fix each workload's pass count for a given --seconds,
# so that both sides of a comparison run the same work and report order
# statistics over the same number of samples.
NOMINAL_PASS_S = {"construct": 4.9, "search": 14.8, "feasibility": 11.8, "cli": 13.2}
# cli runs at least three passes: its cmd_tail_s is the 11th-largest of
# 20 x passes samples, which with two passes is the largest sample of the
# sixth and seventh slowest commands, on the edge of the fifth's, and jumps
# between them from run to run.  With three it falls among the samples of
# the fourth and fifth slowest commands, which lie close together.
MIN_PASSES = {"cli": 3}


@dataclass
class Outcome:
    ok: bool
    observed: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    problem: str = ""
    # The op failed exactly the way it did when the pins were taken.
    known_defect: bool = False


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Context:
    """Per-process state: the workload seed's random stream and a scratch directory."""

    rng: random.Random
    workdir: Path
    env: Dict[str, str]
    tracer: Optional[object] = None
    probe: Optional[object] = None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def _checked_doc(doc: dict, want_type: Optional[str] = None) -> Optional[str]:
    problem = cover_problem(doc)
    if problem is None and want_type is not None and type_string(doc) != want_type:
        problem = f"type {type_string(doc)}, expected {want_type}"
    return problem


def group(name: str, ops: List[Op]) -> Op:
    """Several jobs timed as one operation; each keeps its own checks and pins.

    Grouping keeps millisecond jobs from deciding the latency percentiles,
    which pick single operations and would then spread widely between runs.
    """

    def run():
        return [op.run() for op in ops]

    def check(results) -> Outcome:
        outs = [op.check(r) for op, r in zip(ops, results)]
        counts = {op.name: o.counts for op, o in zip(ops, outs)}
        for o in outs:
            if "nodes_per_s" in o.counts:
                counts["nodes_per_s"] = o.counts["nodes_per_s"]
        return Outcome(
            all(o.ok for o in outs),
            {op.name: o.observed for op, o in zip(ops, outs)},
            counts,
            "; ".join(f"{op.name}: {o.problem}" for op, o in zip(ops, outs) if o.problem),
        )

    return Op(name, run, check)


# -- construct -------------------------------------------------------------------


def construct_ops(ctx: Context) -> List[Op]:
    from vspart import construct, io

    def builder(name: str, build: Callable, want_type: Optional[str]) -> Op:
        def run():
            return io.dumps(build())

        def check(text: str) -> Outcome:
            doc = json.loads(text)
            problem = _checked_doc(doc, want_type)
            observed = {"sha256": sha256(text), "type": type_string(doc)}
            counts = {"r": len(doc["components"]), "bytes": len(text)}
            return Outcome(problem is None, observed, counts, problem or "")

        return Op(name, run, check)

    return [
        group("spreads", [
            builder("spread(2,12,2)", lambda: construct.spread(2, 12, 2), "1365x2"),
            builder("spread(3,8,2)", lambda: construct.spread(3, 8, 2), "820x2"),
            builder("spread(2,12,3)", lambda: construct.spread(2, 12, 3), "585x3"),
            builder("spread(4,6,2)", lambda: construct.spread(4, 6, 2), "273x2"),
        ]),
        # The section of a spread by any hyperplane has this type.
        builder("hyperplane_section(2,6,2)", lambda: construct.hyperplane_section(2, 6, 2),
                "1024x1,341x2"),
        builder("lift(near_spread(3,5,2),4)",
                lambda: construct.lift(construct.near_spread(3, 5, 2), 4).partition,
                "2160x2,80x3,1x4,1x5"),
        builder("build_t_partition(2,{2,3},12)",
                lambda: construct.build_t_partition(2, {2, 3}, 12), None),
    ]


# -- search ----------------------------------------------------------------------


def find_op(name: str, q: int, n: int, goal, budget: Optional[int] = None) -> Op:
    from vspart import io, search
    from vspart.partition import PartitionType

    if isinstance(goal, str):
        goal = PartitionType.parse(goal)
        want = goal.normalized().format()
    else:
        want = None

    def run():
        start = time.perf_counter()
        outcome = search.find_partition(q, n, goal, budget=budget)
        return outcome, time.perf_counter() - start

    def check(result) -> Outcome:
        outcome, seconds = result
        counts = {"nodes": outcome.nodes}
        observed = {"status": outcome.status}
        problem = None
        if outcome.found:
            doc = partition_doc(outcome.partition)
            problem = _checked_doc(doc, want)
            if want is None and {len(c) for c in doc["components"]} != set(goal):
                problem = f"dimensions of type {type_string(doc)} differ from {sorted(goal)}"
            observed["sha256"] = sha256(io.dumps(outcome.partition))
            counts["r"] = len(doc["components"])
        if budget is not None:
            counts["nodes_per_s"] = outcome.nodes / seconds
            # A budget stop, or a verified find (a search-reach change), passes.
            ok = outcome.status == search.BUDGET or (outcome.found and problem is None)
            return Outcome(ok, {}, counts, problem or ("" if ok else outcome.status))
        return Outcome(problem is None, observed, counts, problem or "")

    return Op(name, run, check)


def search_ops(ctx: Context) -> List[Op]:
    from vspart import search

    def enumerate_op() -> Op:
        def check(parts) -> Outcome:
            docs = [partition_doc(p) for p in parts]
            problem = next(filter(None, (cover_problem(d) for d in docs)), None)
            keys = sorted(_compact(d["components"]) for d in docs)
            if problem is None and len(set(keys)) != len(keys):
                problem = "a partition was enumerated twice"
            observed = {"count": len(parts), "sha256": sha256("\n".join(keys))}
            return Outcome(problem is None, observed, {"partitions": len(parts)}, problem or "")

        return Op("enumerate_all(2,4)", lambda: search.enumerate_all(2, 4), check)

    def scan_check(rep) -> Outcome:
        observed = {
            "scanned": rep.partitions_scanned,
            "min_s": {str(t): s for t, s in sorted(rep.min_s.items())},
            "witnesses": {str(t): w.format() for t, w in sorted(rep.witnesses.items())},
            "counterexamples": len(rep.counterexamples),
        }
        return Outcome(True, observed, {"partitions": rep.partitions_scanned})

    # The four V_6 types are solve(2, 6, (2, 3)).  Two exhaustions are
    # certificates at 0 nodes: two 3-spaces cannot be disjoint in V_5, and
    # 1x2,4x3 misses the counting equation in V_6.  V_5 with only 3-spaces
    # is exhausted by exploring the tree.  The V_8 search has 345,465 nodes,
    # of which 297,942 are candidate-table charges.
    v6_row = ("0x2,9x3", "7x2,6x3", "14x2,3x3", "21x2,0x3")
    return [
        group("searches in V_5 to V_7", [
            *(find_op(f"find(2,6,{t})", 2, 6, t) for t in v6_row),
            find_op("find(2,7,40x2,1x3,budget)", 2, 7, "40x2,1x3", budget=300_000),
            find_op("find(2,5,8x2,1x3)", 2, 5, "8x2,1x3"),
            find_op("find(2,5,1x2,4x3)", 2, 5, "1x2,4x3"),
            find_op("find(2,6,1x2,4x3)", 2, 6, "1x2,4x3"),
            find_op("find(2,5,{3})", 2, 5, (3,)),
            find_op("find(2,6,{2,3})", 2, 6, (2, 3)),
            find_op("find(3,4,{1,2})", 3, 4, (1, 2)),
            enumerate_op(),
            Op("conjecture_scan(2,4)", lambda: search.conjecture_scan(2, 4), scan_check),
        ]),
        find_op("find(2,8,15x3,10x4)", 2, 8, "15x3,10x4"),
    ]


# -- feasibility -----------------------------------------------------------------


def _counting_problem(q: int, n: int, dims: Sequence[int], xs) -> Optional[str]:
    terms = [q**d - 1 for d in dims]
    target = q**n - 1
    for x in xs:
        if sum(a * b for a, b in zip(terms, x)) != target or min(x) < 0:
            return f"{tuple(x)} does not solve the counting equation"
    return None


def feasibility_ops(ctx: Context) -> List[Op]:
    from vspart import dioph

    def solve_annotate(q: int, n: int, dims) -> Op:
        def run():
            return [dioph.annotate(s) for s in dioph.solve(q, n, dims)]

        def check(annotated) -> Outcome:
            rows = [[list(a.x), [int(a.flags[k]) for k in sorted(a.flags)]] for a in annotated]
            passing = sum(a.passes_all() for a in annotated)
            problem = _counting_problem(q, n, dims, (a.x for a in annotated))
            observed = {"solutions": len(rows), "passing": passing, "sha256": sha256(_compact(rows))}
            return Outcome(problem is None, observed, {"solutions": len(rows)}, problem or "")

        return Op(f"solve+annotate({q},{n},{dims})", run, check)

    def bare_solve(q: int, n: int, dims) -> Op:
        def check(sols) -> Outcome:
            xs = [s.x for s in sols]
            problem = _counting_problem(q, n, dims, xs)
            observed = {"solutions": len(xs), "sha256": sha256(_compact(xs))}
            return Outcome(problem is None, observed, {"solutions": len(xs)}, problem or "")

        return Op(f"solve({q},{n},{dims})", lambda: dioph.solve(q, n, dims), check)

    def classify_check(tables) -> Outcome:
        rows = [[list(s.x), exists] for table in tables for s, exists in table]
        problem = None
        for n, table in zip(range(3, 21), tables):
            problem = problem or _counting_problem(2, n, (2, 3), (s.x for s, _ in table))
            # The theorem: a {2,3}-partition with these counts exists iff x_1 != 1.
            problem = problem or next(
                (f"n={n}: {s.x} has verdict {e}" for s, e in table if e != (s.x[0] != 1)), None
            )
        observed = {"solutions": len(rows), "sha256": sha256(_compact(rows))}
        return Outcome(problem is None, observed, {"solutions": len(rows)}, problem or "")

    # Three operations: the median latency is then the bare solve
    # (enumeration) and the tail the largest annotate (flag filtering).
    return [
        group("small solve+annotate and classify", [
            solve_annotate(2, 8, (1, 2, 3)),
            solve_annotate(2, 12, (2, 3)),
            solve_annotate(3, 6, (1, 2, 3)),
            solve_annotate(4, 5, (1, 2)),
            Op("classify_gf2_23(3..20)",
               lambda: [dioph.classify_gf2_23(n) for n in range(3, 21)], classify_check),
        ]),
        bare_solve(2, 14, (2, 3, 4)),
        solve_annotate(2, 11, (2, 3, 4)),
    ]


# -- cli -------------------------------------------------------------------------


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    trace_file: Optional[Path]


def _hyperplane_rows(rng: random.Random, n: int) -> List[List[int]]:
    """A basis of the kernel of a random nonzero functional on GF(2)^n."""
    functional = [rng.randrange(2) for _ in range(n)]
    while not any(functional):
        functional = [rng.randrange(2) for _ in range(n)]
    pivot = functional.index(1)
    rows = []
    for i in range(n):
        if i != pivot:
            row = [0] * n
            row[i] = 1
            row[pivot] = functional[i]
            rows.append(row)
    return rows


def write_cli_fixtures(ctx: Context) -> Dict[str, str]:
    """Write the partition files the commands read; return the seed-picked arguments."""
    from vspart import construct, io

    d = ctx.workdir
    for fname, build in (
        ("s12.part", lambda: construct.spread(2, 12, 2)),
        ("s8.part", lambda: construct.spread(2, 8, 2)),
        ("s4.part", lambda: construct.spread(2, 4, 1)),
        ("s33.part", lambda: construct.spread(3, 3, 1)),
    ):
        io.write_partition(build(), d / fname)
    doc = json.loads((d / "s8.part").read_text(encoding="utf-8"))
    comps = doc["components"]
    i, j = ctx.rng.sample(range(len(comps)), 2)
    dup = dict(doc, components=comps[:j] + [comps[i]] + comps[j + 1:])
    missing = dict(doc, components=comps[:i] + comps[i + 1:])
    # Adding the second basis row to the first keeps the span but leaves
    # reduced echelon form, so the file is valid yet not canonical.
    r0, r1 = comps[i]
    skewed = dict(doc, components=comps[:i] + [[[a ^ b for a, b in zip(r0, r1)], r1]] + comps[i + 1:])
    for fname, body in (("dup.part", dup), ("missing.part", missing), ("skewed.part", skewed)):
        (d / fname).write_text(json.dumps(body), encoding="utf-8")
    return {"w": ";".join(",".join(map(str, row)) for row in _hyperplane_rows(ctx.rng, 12))}


def cli_ops(ctx: Context) -> List[Op]:
    picks = write_cli_fixtures(ctx)

    def command(name: str, argv: List[str], check: Callable[[CliResult], Outcome]) -> Op:
        def run() -> CliResult:
            if "--out" in argv:  # so that a file left by the previous pass cannot pass its check
                (ctx.workdir / argv[argv.index("--out") + 1]).unlink(missing_ok=True)
            trace_file = None
            probe_file = ctx.workdir / "child-probe.json"
            cmd = [sys.executable, str(CLI_CHILD)]
            if ctx.tracer is not None:
                trace_file = ctx.workdir / "child-trace.json"
                cmd += ["--trace", str(trace_file)]
            if ctx.probe is not None:
                cmd += ["--probe", str(probe_file)]
            proc = subprocess.run(
                cmd + ["--"] + argv, cwd=ctx.workdir, env=ctx.env,
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            if ctx.probe is not None:
                ctx.probe.adopt(json.loads(probe_file.read_text(encoding="utf-8")))
                probe_file.unlink()
            return CliResult(proc.returncode, proc.stdout, proc.stderr, trace_file)

        def guarded(res: CliResult) -> Outcome:
            out = check(res)
            if "Traceback" in res.stderr and not out.known_defect:
                return Outcome(False, out.observed, out.counts, "traceback on stderr")
            return out

        return Op(name, run, guarded)

    def pinned(out_file: Optional[str] = None, want_type: Optional[str] = None):
        """Exit code and stdout pinned; a written partition file is cover-checked and pinned."""

        def check(res: CliResult) -> Outcome:
            observed = {"exit": res.returncode, "stdout_sha256": sha256(res.stdout)}
            counts = _payload_counts(res.stdout)
            problem = None
            if out_file is not None:
                text = (ctx.workdir / out_file).read_text(encoding="utf-8")
                problem = _checked_doc(json.loads(text), want_type)
                observed["file_sha256"] = sha256(text)
            return Outcome(problem is None, observed, counts, problem or "")

        return check

    def rejected(res: CliResult) -> Outcome:
        payload = json.loads(res.stdout)
        ok = res.returncode == 1 and payload["valid"] is False
        return Outcome(ok, {"exit": res.returncode}, {"r": payload["r"]},
                       "" if ok else "corrupted file was not rejected")

    def usage_error(res: CliResult) -> Outcome:
        lines = res.stderr.strip().splitlines()
        ok = res.returncode == 2 and len(lines) == 1 and lines[0].startswith("error:")
        return Outcome(ok, {"exit": res.returncode}, {},
                       "" if ok else f"exit {res.returncode}, stderr {res.stderr.strip()[:80]!r}")

    def budget_stop(res: CliResult) -> Outcome:
        payload = json.loads(res.stdout)
        counts = {"nodes": payload["nodes"]}
        if res.returncode == 2 and payload["status"] == "budget":
            return Outcome(True, {}, counts)
        if res.returncode == 0 and payload["status"] == "found":
            problem = _checked_doc(
                json.loads((ctx.workdir / "v7.part").read_text(encoding="utf-8")), "40x2,1x3"
            )
            return Outcome(problem is None, {}, counts, problem or "")
        return Outcome(False, {}, counts, f"exit {res.returncode}, status {payload['status']}")

    def contract_exit_2(res: CliResult) -> Outcome:
        """Bad input must give exit 2 and one line on stderr."""
        lines = res.stderr.strip().splitlines()
        if res.returncode == 2 and len(lines) == 1:
            return Outcome(True, {"exit": 2})
        seed_defect = res.returncode == 1 and "Traceback" in res.stderr
        return Outcome(False, {}, {}, f"exit {res.returncode} with {len(lines)} stderr lines",
                       known_defect=seed_defect)

    return [
        command("--version", ["--version"], pinned()),
        command("verify s12", ["verify", "s12.part", "--json"], pinned()),
        command("bounds s12", ["bounds", "s12.part", "--json"], pinned()),
        command("induce s12 W", ["induce", "s12.part", "--w", picks["w"], "--json"], pinned()),
        command("code --check s4", ["code", "s4.part", "--check", "--json"], pinned()),
        command("code --check s33", ["code", "s33.part", "--check", "--json"], pinned()),
        command("design --check s8", ["design", "s8.part", "--check", "--json"], pinned()),
        command("construct spread q256",
                ["construct", "spread", "--q", "256", "--n", "2", "--d", "1",
                 "--out", "q256.part", "--json"],
                pinned("q256.part", "257x1")),
        command("solve (2,5,{2,3})", ["solve", "--q", "2", "--n", "5", "--dims", "2,3", "--json"],
                pinned()),
        command("search found {2,3}",
                ["search", "--q", "2", "--n", "6", "--T", "2,3", "--out", "found.part", "--json"],
                pinned("found.part")),
        command("search exhausted 1x2,4x3",
                ["search", "--q", "2", "--n", "5", "--type", "1x2,4x3", "--json"], pinned()),
        command("enumerate (2,3)", ["enumerate", "--q", "2", "--n", "3", "--json"], pinned()),
        command("classify-23 6", ["classify-23", "--n", "6", "--json"], pinned()),
        command("conjecture-scan (2,4)", ["conjecture-scan", "--q", "2", "--n", "4", "--json"],
                pinned()),
        command("verify --force duplicate", ["verify", "dup.part", "--force", "--json"], rejected),
        command("verify --force missing", ["verify", "missing.part", "--force", "--json"], rejected),
        command("verify non-canonical", ["verify", "skewed.part", "--json"], usage_error),
        command("search budget 40x2,1x3",
                ["search", "--q", "2", "--n", "7", "--type", "40x2,1x3", "--budget", "100000",
                 "--out", "v7.part", "--json"],
                budget_stop),
        command("construct spread without --n", ["construct", "spread", "--q", "2", "--d", "2"],
                contract_exit_2),
        command("solve --q 1", ["solve", "--q", "1", "--n", "3", "--dims", "1"], contract_exit_2),
    ]


def _payload_counts(stdout: str) -> dict:
    """Work counts a --json payload states: r, nodes, codewords, blocks, solutions."""
    counts = {"bytes": len(stdout)}
    try:
        payload = json.loads(stdout)
    except ValueError:
        return counts
    for key in ("r", "nodes", "blocks", "count", "partitions_scanned"):
        if key in payload:
            counts[key] = payload[key]
    if "solutions" in payload:
        counts["solutions"] = len(payload["solutions"])
    if "size" in payload.get("check", {}):
        counts["codewords"] = payload["check"]["size"]
    return counts


OPS = {
    "construct": construct_ops,
    "search": search_ops,
    "feasibility": feasibility_ops,
    "cli": cli_ops,
}
