"""Command-line interface.

Exit status: 0 for success / Found / valid, 1 for invalid / Exhausted /
uncovered parameters, 2 for usage errors and exceeded budgets.  Every
subcommand takes --json for machine-readable output; partition files use
the canonical format of the io module.  VSPART_BUDGET sets the default
search budget.

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


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _parse_dims(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(","))


def _parse_type(text: str):
    from .partition import PartitionType

    return PartitionType.parse(text)


def _maybe_write(partition, out: str | None) -> None:
    if out:
        from .io import write_partition

        write_partition(partition, out)


def _cmd_solve(args) -> int:
    from .dioph import annotate, solve

    sols = solve(args.q, args.n, _parse_dims(args.dims))
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
    payload = {"q": args.q, "n": args.n, "dims": list(_parse_dims(args.dims)), "solutions": rows}
    _emit(payload, args.json, lines)
    return EXIT_OK


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
        lambda c, a: c.build_t_partition(a.q, _parse_dims(a.T), a.n, budget=a.budget),
    ),
}


def _cmd_construct(args) -> int:
    needs, build = _BUILDERS[args.builder]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise ValueError(f"construct {args.builder} needs {' and '.join(missing)}")
    from . import construct

    part = build(construct, args)
    _maybe_write(part, args.out)
    payload = _partition_summary(part)
    _emit(payload, args.json, [f"built partition of type {payload['type']} (r={part.r})"])
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .io import read_partition
    from .partition import type_of, verify

    p = read_partition(args.file, allow_noncanonical=args.force)
    report = verify(p)
    payload = {
        "valid": report.valid,
        "r": report.r,
        "counting_ok": report.counting_ok,
        "type": type_of(p).format() if report.valid else None,
        "detail": report.describe(),
    }
    _emit(payload, args.json, [report.describe()])
    return EXIT_OK if report.valid else EXIT_NEGATIVE


def _cmd_bounds(args) -> int:
    from .io import read_partition
    from .partition import bound_report, verify

    p = read_partition(args.file, allow_noncanonical=args.force)
    if not verify(p).valid:
        _emit({"valid": False}, args.json, ["not a valid partition"])
        return EXIT_NEGATIVE
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
    _emit(payload, args.json, lines)
    return EXIT_OK if rep.all_ok else EXIT_NEGATIVE


def _cmd_induce(args) -> int:
    from .io import read_partition
    from .linalg import canonicalize
    from .partition import induce

    p = read_partition(args.file, allow_noncanonical=args.force)
    rows = [[int(x) for x in row.split(",")] for row in args.w.split(";")]
    w = canonicalize(rows, p.field, p.n)
    out = induce(p, w)
    _maybe_write(out, args.out)
    payload = _partition_summary(out)
    _emit(payload, args.json, [f"induced partition of type {payload['type']} on dimension {out.n}"])
    return EXIT_OK


def _cmd_search(args) -> int:
    if (args.type is None) == (args.T is None):
        raise ValueError("search needs exactly one of --type or --T")
    from .partition import type_of
    from .search import EXHAUSTED, FOUND, find_partition

    goal = _parse_type(args.type) if args.type is not None else _parse_dims(args.T)
    outcome = find_partition(args.q, args.n, goal, budget=args.budget)
    payload = {
        "status": outcome.status,
        "nodes": outcome.nodes,
        "type": type_of(outcome.partition).format() if outcome.found else None,
    }
    if outcome.found:
        _maybe_write(outcome.partition, args.out)
    _emit(payload, args.json, [f"{outcome.status} after {outcome.nodes} nodes"])
    if outcome.status == FOUND:
        return EXIT_OK
    if outcome.status == EXHAUSTED:
        return EXIT_NEGATIVE
    return EXIT_USAGE


def _cmd_enumerate(args) -> int:
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
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_classify_23(args) -> int:
    from .dioph import classify_gf2_23

    rows = classify_gf2_23(args.n)
    payload = {
        "n": args.n,
        "solutions": [{"x": list(s.x), "exists": exists} for s, exists in rows],
    }
    lines = [f"counts (x1 planes of dim 2, x2 of dim 3) at n={args.n}:"] + [
        f"  x={s.x}: {'exists' if e else 'does not exist'}" for s, e in rows
    ]
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_conjecture_scan(args) -> int:
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
    _emit(payload, args.json, lines)
    return EXIT_OK if rep.clean else EXIT_NEGATIVE


def _cmd_code(args) -> int:
    from .codes import code_from_partition, code_parameters, verify_perfect
    from .io import read_partition

    p = read_partition(args.file, allow_noncanonical=args.force)
    params = code_parameters(p)
    payload = {"parameters": params}
    lines = [
        f"mixed code of length {params['length']}, size {params['size']}, "
        f"alphabets {params['alphabet_sizes']}"
    ]
    ok = True
    if args.check:
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
        ok = report.perfect
    _emit(payload, args.json, lines)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_design(args) -> int:
    from .designs import design_from_partition, verify_design
    from .io import read_partition

    p = read_partition(args.file, allow_noncanonical=args.force)
    design = design_from_partition(p)
    payload = {
        "points": design.point_count,
        "classes": len(design.classes),
        "blocks": design.block_count,
    }
    lines = [
        f"design on {design.point_count} points with {len(design.classes)} "
        f"resolution classes and {design.block_count} blocks"
    ]
    ok = True
    if args.check:
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
        ok = report.valid
    _emit(payload, args.json, lines)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _add_common(sub, *, file_arg=False) -> None:
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    if file_arg:
        sub.add_argument("file", help="partition file")
        sub.add_argument(
            "--force", action="store_true",
            help="accept non-canonical input and re-canonicalize",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vspart",
        description="Partitions of finite vector spaces: construct, verify, search, classify.",
    )
    parser.add_argument("--version", action="version", version=f"vspart {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("solve", help="enumerate count vectors and their feasibility flags")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--dims", required=True, help="comma-separated dimensions, e.g. 2,3")
    sp.add_argument("--filters", choices=("all", "none"), default="all")
    _add_common(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = subs.add_parser("construct", help="build a partition with a closed-form rule")
    sp.add_argument("builder", choices=tuple(_BUILDERS))
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--type", help="partition type, e.g. 8x2,1x3")
    sp.add_argument("--T", help="comma-separated dimension set, e.g. 1,2,3")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--out", help="write the partition file here")
    _add_common(sp)
    sp.set_defaults(func=_cmd_construct)

    sp = subs.add_parser("verify", help="check a partition file")
    _add_common(sp, file_arg=True)
    sp.set_defaults(func=_cmd_verify)

    sp = subs.add_parser("bounds", help="minimum-dimension bounds report")
    _add_common(sp, file_arg=True)
    sp.set_defaults(func=_cmd_bounds)

    sp = subs.add_parser("induce", help="induce a partition on a subspace")
    _add_common(sp, file_arg=True)
    sp.add_argument("--w", required=True, help="subspace rows, e.g. 1,0,0,0;0,1,0,0")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_induce)

    sp = subs.add_parser("search", help="exact-cover search for a type or dimension set")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--type", help="partition type goal, e.g. 1x2,4x3")
    sp.add_argument("--T", help="dimension-set goal, e.g. 2,3")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--out", help="write a found partition here")
    _add_common(sp)
    sp.set_defaults(func=_cmd_search)

    sp = subs.add_parser("enumerate", help="enumerate every partition of a tiny space")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = subs.add_parser("classify-23", help="existence table for dims {2,3} over GF(2)")
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_classify_23)

    sp = subs.add_parser("conjecture-scan", help="scan minimum-dimension counts")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_conjecture_scan)

    sp = subs.add_parser("code", help="extract the mixed code of a partition")
    _add_common(sp, file_arg=True)
    sp.add_argument("--check", action="store_true", help="materialize and verify perfection")
    sp.set_defaults(func=_cmd_code)

    sp = subs.add_parser("design", help="extract the coset design of a partition")
    _add_common(sp, file_arg=True)
    sp.add_argument("--check", action="store_true", help="verify the design properties")
    sp.set_defaults(func=_cmd_design)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
