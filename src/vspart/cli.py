"""Command-line interface.

Exit status: 0 for success / Found / valid, 1 for invalid / Exhausted /
uncovered parameters, 2 for usage errors and exceeded budgets.  Every
subcommand takes --json for machine-readable output; partition files use
the canonical format of the io module.  VSPART_BUDGET sets the default
search budget.

Each subcommand is one row of _COMMANDS: help, handler, options.  A
handler `_cmd_*(args)` prints nothing: it writes any --out file, then
returns (exit status, payload, lines), and `run` prints the payload as
JSON under --json and the lines otherwise.  For the commands that read a
partition file, `run` reads it into `args.partition` before the handler
runs, so a bad file is reported before a bad option.  `run` alone maps
exceptions to an exit status and one stderr line.

Each command imports only the library modules it runs, inside its
handler, and checks its own option combinations before those imports;
this module loads just argparse, json and the error types, so a command
does not pay to import (or compile) the rest of the package.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import BudgetExceeded, UncoveredCase, VspartError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _parse_ints(text: str, flag: str, form: str = "comma-separated integers such as 2,3") -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{flag}: expected {form}, got {text!r}") from None


def _parse_type(text: str):
    from .partition import PartitionType

    try:
        return PartitionType.parse(text)
    except ValueError as exc:
        raise ValueError(f"--type: {exc}") from None


def _maybe_write(partition, out: str | None) -> None:
    if out:
        from .io import write_partition

        write_partition(partition, out)


def _cmd_solve(args):
    from .dioph import annotate, solve

    dims = _parse_ints(args.dims, "--dims")
    sols = solve(args.q, args.n, dims)
    use_filters = args.filters == "all"
    rows = []
    lines = [f"solutions of the counting equation at q={args.q}, n={args.n}, dims={args.dims}:"]
    for s in sols:
        entry = {"x": list(s.x)}
        if use_filters:
            a = annotate(s)
            entry["flags"] = a.flags
            entry["passes"] = a.passes_all()
            verdict = "passes all conditions" if a.passes_all() else (
                "fails " + ",".join(k for k, v in a.flags.items() if not v)
            )
            lines.append(f"  x={s.x}  {verdict}")
        else:
            lines.append(f"  x={s.x}")
        rows.append(entry)
    payload = {"q": args.q, "n": args.n, "dims": list(dims), "solutions": rows}
    return EXIT_OK, payload, lines


def _partition_summary(p) -> dict:
    from .partition import type_of

    return {
        "q": p.field.q,
        "n": p.n,
        "r": p.r,
        "type": type_of(p).format(),
        "provenance": p.provenance,
    }


# construct builder -> (options it needs besides --q, build from the
# construct module and the arguments)
_BUILDERS = {
    "spread": (("n", "d"), lambda c, a: c.spread(a.q, a.n, a.d)),
    "near-spread": (("n", "d"), lambda c, a: c.near_spread(a.q, a.n, a.d)),
    "hsection": (("k", "d"), lambda c, a: c.hyperplane_section(a.q, a.k, a.d)),
    "typed": (("n", "type"), lambda c, a: c.typed_construct(a.q, a.n, _parse_type(a.type))),
    "tpartition": (
        ("T", "n"),
        lambda c, a: c.build_t_partition(a.q, _parse_ints(a.T, "--T"), a.n, budget=a.budget),
    ),
}


def _cmd_construct(args):
    needs, build = _BUILDERS[args.builder]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise ValueError(f"construct {args.builder} needs {' and '.join(missing)}")
    from . import construct

    part = build(construct, args)
    _maybe_write(part, args.out)
    payload = _partition_summary(part)
    return EXIT_OK, payload, [f"built partition of type {payload['type']} (r={part.r})"]


def _cmd_verify(args):
    from .partition import type_of, verify

    p = args.partition
    report = verify(p)
    payload = {
        "valid": report.valid,
        "r": report.r,
        "counting_ok": report.counting_ok,
        "type": type_of(p).format() if report.valid else None,
        "detail": report.describe(),
    }
    return (EXIT_OK if report.valid else EXIT_NEGATIVE), payload, [report.describe()]


def _cmd_bounds(args):
    from .partition import bound_report, verify

    p = args.partition
    if not verify(p).valid:
        return EXIT_NEGATIVE, {"valid": False}, ["not a valid partition"]
    rep = bound_report(p)
    payload = {
        "t": rep.t,
        "s": rep.s,
        "r": rep.r,
        "s_lower": rep.s_lower,
        "r_lower": rep.r_lower,
        "r_upper": rep.r_upper,
        "s_prime": rep.s_prime,
        "all_ok": rep.all_ok,
    }
    lines = [
        f"t={rep.t} s={rep.s} r={rep.r}",
        f"s >= q+t: {rep.s} >= {rep.s_lower}: {rep.s_ok}",
        f"r range: {rep.r_lower} <= {rep.r} <= {rep.r_upper}: {rep.r_ok}",
        f"r residue 1 mod q^t: {rep.residue_ok}",
        f"s' = {rep.s_prime}, divisible by q and positive: {rep.s_prime_ok}",
    ]
    return (EXIT_OK if rep.all_ok else EXIT_NEGATIVE), payload, lines


def _cmd_induce(args):
    from .linalg import canonicalize
    from .partition import induce

    p = args.partition
    rows = [_parse_ints(row, "--w", "integer rows such as 1,0;0,1") for row in args.w.split(";")]
    w = canonicalize(rows, p.field, p.n)
    out = induce(p, w)
    _maybe_write(out, args.out)
    payload = _partition_summary(out)
    return EXIT_OK, payload, [f"induced partition of type {payload['type']} on dimension {out.n}"]


def _cmd_search(args):
    if (args.type is None) == (args.T is None):
        raise ValueError("search needs exactly one of --type or --T")
    from .partition import type_of
    from .search import EXHAUSTED, FOUND, find_partition

    goal = _parse_type(args.type) if args.type is not None else _parse_ints(args.T, "--T")
    outcome = find_partition(args.q, args.n, goal, budget=args.budget)
    payload = {
        "status": outcome.status,
        "nodes": outcome.nodes,
        "type": type_of(outcome.partition).format() if outcome.found else None,
    }
    if outcome.found:
        _maybe_write(outcome.partition, args.out)
    status = {FOUND: EXIT_OK, EXHAUSTED: EXIT_NEGATIVE}.get(outcome.status, EXIT_USAGE)
    return status, payload, [f"{outcome.status} after {outcome.nodes} nodes"]


def _cmd_enumerate(args):
    from .partition import type_of
    from .search import enumerate_all

    parts = enumerate_all(args.q, args.n)
    histogram: dict = {}
    for p in parts:
        key = type_of(p).format()
        histogram[key] = histogram.get(key, 0) + 1
    payload = {"q": args.q, "n": args.n, "count": len(parts), "types": histogram}
    lines = [f"{len(parts)} partitions of V_{args.n}(GF({args.q}))"] + [
        f"  {k}: {v}" for k, v in sorted(histogram.items())
    ]
    return EXIT_OK, payload, lines


def _cmd_classify_23(args):
    from .dioph import classify_gf2_23

    rows = classify_gf2_23(args.n)
    payload = {
        "n": args.n,
        "solutions": [{"x": list(s.x), "exists": exists} for s, exists in rows],
    }
    lines = [f"counts (x1 planes of dim 2, x2 of dim 3) at n={args.n}:"] + [
        f"  x={s.x}: {'exists' if e else 'does not exist'}" for s, e in rows
    ]
    return EXIT_OK, payload, lines


def _cmd_conjecture_scan(args):
    from .search import conjecture_scan

    rep = conjecture_scan(args.q, args.n)
    payload = {
        "q": rep.q,
        "n": rep.n,
        "partitions_scanned": rep.partitions_scanned,
        "min_s": {str(t): s for t, s in sorted(rep.min_s.items())},
        "witnesses": {str(t): w.format() for t, w in sorted(rep.witnesses.items())},
        "counterexamples": len(rep.counterexamples),
    }
    lines = [f"scanned {rep.partitions_scanned} partitions of V_{args.n}(GF({args.q}))"] + [
        f"  t={t}: min s = {s} (bound {args.q**t + 1}), witness {rep.witnesses[t].format()}"
        for t, s in sorted(rep.min_s.items())
    ] + [f"counterexamples below q^t + 1: {len(rep.counterexamples)}"]
    return (EXIT_OK if rep.clean else EXIT_NEGATIVE), payload, lines


def _cmd_code(args):
    from .codes import code_from_partition, code_parameters, verify_perfect

    p = args.partition
    params = code_parameters(p)
    payload = {"parameters": params}
    lines = [
        f"mixed code of length {params['length']}, size {params['size']}, "
        f"alphabets {params['alphabet_sizes']}"
    ]
    if not args.check:
        return EXIT_OK, payload, lines
    report = verify_perfect(code_from_partition(p))
    payload["check"] = {
        "size": report.size,
        "sphere_ok": report.sphere_ok,
        "min_distance": report.min_distance,
        "perfect": report.perfect,
    }
    lines.append(
        f"sphere packing: {report.sphere_ok}, min distance: {report.min_distance}, "
        f"perfect: {report.perfect}"
    )
    return (EXIT_OK if report.perfect else EXIT_NEGATIVE), payload, lines


def _cmd_design(args):
    from .designs import design_from_partition, verify_design

    design = design_from_partition(args.partition)
    payload = {
        "points": design.point_count,
        "classes": len(design.classes),
        "blocks": design.block_count,
    }
    lines = [
        f"design on {design.point_count} points with {len(design.classes)} "
        f"resolution classes and {design.block_count} blocks"
    ]
    if not args.check:
        return EXIT_OK, payload, lines
    report = verify_design(design)
    payload["check"] = {
        "pair_ok": report.pair_ok,
        "classes_ok": report.classes_ok,
        "translation_ok": report.translation_ok,
        "valid": report.valid,
    }
    lines.append(
        f"pairs once: {report.pair_ok}, classes resolve: {report.classes_ok}, "
        f"translation invariant: {report.translation_ok}"
    )
    return (EXIT_OK if report.valid else EXIT_NEGATIVE), payload, lines


_Q = ("--q", {"type": int, "required": True})
_N = ("--n", {"type": int, "required": True})
_BUDGET = ("--budget", {"type": int, "default": None})
_JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})
_FILE = (
    ("file", {"help": "partition file"}),
    ("--force", {"action": "store_true", "help": "accept non-canonical input and re-canonicalize"}),
)

# command -> (help, handler, reads a partition file, options besides --json,
# file and --force); the file commands list their own options after those.
_COMMANDS = {
    "solve": ("enumerate count vectors and their feasibility flags", _cmd_solve, False, (
        _Q, _N,
        ("--dims", {"required": True, "help": "comma-separated dimensions, e.g. 2,3"}),
        ("--filters", {"choices": ("all", "none"), "default": "all"}),
    )),
    "construct": ("build a partition with a closed-form rule", _cmd_construct, False, (
        ("builder", {"choices": tuple(_BUILDERS)}),
        _Q,
        ("--n", {"type": int}),
        ("--d", {"type": int}),
        ("--k", {"type": int}),
        ("--type", {"help": "partition type, e.g. 8x2,1x3"}),
        ("--T", {"help": "comma-separated dimension set, e.g. 1,2,3"}),
        _BUDGET,
        ("--out", {"help": "write the partition file here"}),
    )),
    "verify": ("check a partition file", _cmd_verify, True, ()),
    "bounds": ("minimum-dimension bounds report", _cmd_bounds, True, ()),
    "induce": ("induce a partition on a subspace", _cmd_induce, True, (
        ("--w", {"required": True, "help": "subspace rows, e.g. 1,0,0,0;0,1,0,0"}),
        ("--out", {}),
    )),
    "search": ("exact-cover search for a type or dimension set", _cmd_search, False, (
        _Q, _N,
        ("--type", {"help": "partition type goal, e.g. 1x2,4x3"}),
        ("--T", {"help": "dimension-set goal, e.g. 2,3"}),
        _BUDGET,
        ("--out", {"help": "write a found partition here"}),
    )),
    "enumerate": ("enumerate every partition of a tiny space", _cmd_enumerate, False, (_Q, _N)),
    "classify-23": ("existence table for dims {2,3} over GF(2)", _cmd_classify_23, False, (_N,)),
    "conjecture-scan": ("scan minimum-dimension counts", _cmd_conjecture_scan, False, (_Q, _N)),
    "code": ("extract the mixed code of a partition", _cmd_code, True, (
        ("--check", {"action": "store_true", "help": "materialize and verify perfection"}),
    )),
    "design": ("extract the coset design of a partition", _cmd_design, True, (
        ("--check", {"action": "store_true", "help": "verify the design properties"}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vspart",
        description="Partitions of finite vector spaces: construct, verify, search, classify.",
    )
    parser.add_argument("--version", action="version", version=f"vspart {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, reads_file, options) in _COMMANDS.items():
        sp = subs.add_parser(name, help=help_text)
        ordered = (_JSON, *_FILE, *options) if reads_file else (*options, _JSON)
        for flag, kwargs in ordered:
            sp.add_argument(flag, **kwargs)
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, handler, reads_file, _ = _COMMANDS[args.command]
    try:
        if reads_file:
            from .io import read_partition

            args.partition = read_partition(args.file, allow_noncanonical=args.force)
        status, payload, lines = handler(args)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return status
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UncoveredCase as exc:
        print(f"uncovered case: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (VspartError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
