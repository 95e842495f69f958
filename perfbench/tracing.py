"""Spans around vspart's public functions, for the traced benchmark run.

`install` replaces each traced function with a wrapper wherever a vspart
module binds it (construct imports `verify` by name and search binds it as
`verify_partition`, so patching one module is not enough), and patches
`ExtField.mul`/`scale` on the class.  A wrapper records a span only while
a job's root span is open, so output checks made outside the timed region
leave no trace.  Spans stay in memory as parallel lists.

`layer_metrics` turns the spans into the per-layer metrics: inclusive time
and call counts for named functions, self time per layer (span time minus
the time covered by child spans) and the work counts gathered by hooks.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# (module, function) pairs traced, with the layer being the module name.
FUNCTIONS = {
    "gf": ("make_field",),
    "linalg": ("canonicalize", "meet", "enumerate_subspaces", "nonzero_mask"),
    "partition": ("verify", "refine", "induce", "bound_report"),
    "dioph": ("solve", "annotate", "classify_gf2_23"),
    "construct": (
        "spread", "lift", "near_spread", "hyperplane_section",
        "typed_construct", "build_t_partition", "fixed_plus_lines",
    ),
    "search": ("find_partition", "enumerate_all", "conjecture_scan"),
    "codes": ("code_from_partition", "verify_perfect"),
    "designs": ("design_from_partition", "verify_design"),
    "io": ("dumps", "write_partition", "read_partition"),
    "cli": ("run",),
}
EXT_METHODS = ("mul", "scale")
LAYERS = tuple(FUNCTIONS) + ("bench",)
BUILDERS = FUNCTIONS["construct"]

ROOT = "bench.job"
CACHED_FIELD = "gf.make_field_cached"

# Inclusive seconds reported per function span name (outermost spans only).
INCLUSIVE = {
    "gf.make_field": "gf.make_field_s",
    "gf.ext_mul": "gf.ext_mul_s",
    "linalg.canonicalize": "linalg.canonicalize_s",
    "linalg.meet": "linalg.meet_s",
    "linalg.enumerate_subspaces": "linalg.enumerate_subspaces_s",
    "linalg.nonzero_mask": "linalg.nonzero_mask_s",
    "partition.verify": "partition.verify_s",
    "partition.refine": "partition.refine_s",
    "partition.induce": "partition.induce_s",
    "partition.bound_report": "partition.bound_report_s",
    "dioph.solve": "dioph.solve_s",
    "dioph.annotate": "dioph.annotate_s",
    "search.enumerate_all": "search.enumerate_all_s",
    "codes.code_from_partition": "codes.build_s",
    "codes.verify_perfect": "codes.verify_perfect_s",
    "designs.design_from_partition": "designs.build_s",
    "designs.verify_design": "designs.verify_s",
    "io.dumps": "io.dumps_s",
    "io.read_partition": "io.read_s",
    "cli.run": "cli.run_s",
}
# Call counts reported per span name.
CALLS = {
    "gf.make_field": "gf.make_field_calls",
    "gf.ext_mul": "gf.ext_mul_calls",
    "linalg.canonicalize": "linalg.canonicalize_calls",
    "linalg.meet": "linalg.meet_calls",
    "linalg.nonzero_mask": "linalg.nonzero_mask_calls",
    "partition.verify": "partition.verify_calls",
    "dioph.annotate": "dioph.annotate_calls",
}
# Counts gathered by hooks; reported as they are (zero when never hit).
HOOK_COUNTS = (
    "linalg.subspaces_enumerated",
    "partition.verify_components",
    "dioph.solutions",
    "dioph.annotate_passing",
    "search.nodes",
    "search.table_subspaces",
    "search.found",
    "search.exhausted",
    "search.budget",
    "search.partitions_enumerated",
    "codes.codewords",
    "codes.pairs_scanned",
    "designs.blocks",
    "io.bytes_written",
    "io.bytes_read",
)


class Tracer:
    """Spans in parallel lists: name, start, end and parent index (-1 for a root)."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def has_ancestor(self, idx: int, name: str) -> bool:
        idx = self.parents[idx]
        while idx >= 0:
            if self.names[idx] == name:
                return True
            idx = self.parents[idx]
        return False

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, idx, args, result)
            return result

        return traced

    # -- hand-over between processes (the cli workload's children) ----------

    def export(self) -> dict:
        return {
            "names": self.names, "starts": self.starts, "ends": self.ends,
            "parents": self.parents, "counts": dict(self.counts),
        }

    def adopt(self, data: dict, parent: int) -> None:
        """Append another process's spans, hanging its roots under `parent`."""
        offset = len(self.names)
        self.names += data["names"]
        self.starts += data["starts"]
        self.ends += data["ends"]
        self.parents += [parent if p < 0 else p + offset for p in data["parents"]]
        self.counts.update(data["counts"])


# -- hooks: work counts taken from arguments and results ---------------------


def _count(key: str, value: Callable) -> Callable:
    def hook(tracer, idx, args, result):
        tracer.counts[key] += value(args, result)

    return hook


def _wrap_make_field(tracer: Tracer, make_field) -> Callable:
    """The make_field wrapper; a call answered by its cache gets another span name."""
    inner = tracer.wrap("gf.make_field", make_field)

    @functools.wraps(make_field)
    def traced(*args):
        recording = bool(tracer.stack)
        misses = make_field.cache_info().misses
        result = inner(*args)
        if recording and make_field.cache_info().misses == misses:
            tracer.names[-1] = CACHED_FIELD  # make_field opens no spans of its own
        return result

    return traced


def _subspaces_hook(tracer, idx, args, result):
    tracer.counts["linalg.subspaces_enumerated"] += len(result)
    if tracer.has_ancestor(idx, "search.find_partition"):
        tracer.counts["search.table_subspaces"] += len(result)


def _annotate_hook(tracer, idx, args, result):
    tracer.counts["dioph.annotate_passing"] += result.passes_all()


def _search_hook(tracer, idx, args, result):
    tracer.counts["search.nodes"] += result.nodes
    tracer.counts["search." + result.status] += 1


def _pairs_hook(limit: int) -> Callable:
    def hook(tracer, idx, args, result):
        size = args[0].size
        if size <= limit:
            tracer.counts["codes.pairs_scanned"] += size * (size - 1) // 2

    return hook


def _read_hook(tracer, idx, args, result):
    tracer.counts["io.bytes_read"] += os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every traced vspart function in every vspart module that binds it."""
    import vspart
    from vspart import codes, gf

    hooks = {
        "linalg.enumerate_subspaces": _subspaces_hook,
        "partition.verify": _count("partition.verify_components", lambda a, r: a[0].r),
        "dioph.solve": _count("dioph.solutions", lambda a, r: len(r)),
        "dioph.annotate": _annotate_hook,
        "search.find_partition": _search_hook,
        "search.enumerate_all": _count("search.partitions_enumerated", lambda a, r: len(r)),
        "codes.code_from_partition": _count("codes.codewords", lambda a, r: r.size),
        "codes.verify_perfect": _pairs_hook(codes.PAIRWISE_SCAN_LIMIT),
        "designs.design_from_partition": _count("designs.blocks", lambda a, r: r.block_count),
        "io.dumps": _count("io.bytes_written", lambda a, r: len(r.encode("utf-8"))),
        "io.read_partition": _read_hook,
    }
    replacements: Dict[int, tuple] = {}
    for layer, names in FUNCTIONS.items():
        module = sys.modules.get(f"vspart.{layer}")
        if module is None:  # vspart/__init__ does not import the cli
            continue
        for fname in names:
            original = getattr(module, fname)
            name = f"{layer}.{fname}"
            if original is gf.make_field:
                wrapped = _wrap_make_field(tracer, original)
            else:
                wrapped = tracer.wrap(name, original, hooks.get(name))
            replacements[id(original)] = (original, wrapped)
    for modname, module in list(sys.modules.items()):
        if modname != "vspart" and not modname.startswith("vspart."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for meth in EXT_METHODS:
        setattr(vspart.gf.ExtField, meth, tracer.wrap("gf.ext_mul", getattr(vspart.gf.ExtField, meth)))


# -- aggregation ---------------------------------------------------------------


def metric_names() -> List[str]:
    """Every per-layer metric, in report order."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += [f"construct.{b}_self_s" for b in BUILDERS]
    names += list(INCLUSIVE.values()) + list(CALLS.values())
    names += [k for k in HOOK_COUNTS if k != "dioph.annotate_passing"]
    names += [
        "dioph.pass_ratio", "search.branch_nodes", "search.branch_nodes_per_s",
        "search.nodes_per_s", "setup.make_field_s", "setup.make_field_calls",
        "trace.wall_s", "trace.overhead",
    ]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith("io.bytes"):
        return "B"
    if name.endswith(("_ratio", "overhead")):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """Per-pass per-layer metrics from the spans of `passes` traced passes."""
    names, parents = tracer.names, tracer.parents
    durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    child_time = [0.0] * len(names)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[idx]
    out: Counter = Counter()
    for idx, name in enumerate(names):
        layer, _, func = name.partition(".")
        own = durations[idx] - child_time[idx]
        out[f"{layer}.self_s"] += own
        if layer == "construct":
            out[f"construct.{func}_self_s"] += own
        if name == "search.find_partition":
            out["search.find_self_s"] += own
            out["search.find_s"] += durations[idx]
        if name in CALLS:
            out[CALLS[name]] += 1
        if name in INCLUSIVE and not tracer.has_ancestor(idx, name):
            out[INCLUSIVE[name]] += durations[idx]
    out.update(tracer.counts)
    metrics = {name: out[name] / passes for name in metric_names()}
    metrics["search.branch_nodes"] = (out["search.nodes"] - out["search.table_subspaces"]) / passes
    metrics["search.branch_nodes_per_s"] = _ratio(
        out["search.nodes"] - out["search.table_subspaces"], out["search.find_self_s"]
    )
    metrics["search.nodes_per_s"] = _ratio(out["search.nodes"], out["search.find_s"])
    metrics["dioph.pass_ratio"] = _ratio(out["dioph.annotate_passing"], out["dioph.annotate_calls"])
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
