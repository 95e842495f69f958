"""Golden outcomes of find_partition over a small corpus.

Each case records the status, the node count and the sha256 of the
partition file, or the exception type and message.  The corpus covers
every dimension set of size at most 3 and every typed goal with positive
counts over q = 2, 3, 4, 5, 8 and 9 at small n (one under a budget), the candidate lists in
reverse, guard and argument errors, and node budgets at 0, 1, N - 1 and N
for finds that take N nodes.  Node counts include the candidate-table
charges, so a change to when a table is charged shows here.

Regenerate the golden file only for an intended output change:
    PYTHONPATH=src python tests/test_search_pins.py
"""

import hashlib
import itertools
import json
from pathlib import Path

from vspart.dioph import solve
from vspart.errors import VspartError
from vspart.io import dumps
from vspart.partition import PartitionType
from vspart.search import find_partition

GOLDEN = Path(__file__).with_name("data") / "search_pins.json"
NMAX = {2: 5, 3: 4, 4: 3, 5: 2, 8: 2, 9: 2}
# Goals searched under a node budget.  1x1,10x2 in V_5(2) fails the paper's
# s >= q + t and is exhausted at 0 nodes; a search of its tree takes
# 15,906,499 nodes, so the budget bounds the suite if that certificate is lost.
CAPPED = {(2, 5, "1x1,10x2"): 100_000}
# Finds whose node count N is pinned at the budgets N - 1 and N as well.
BOUNDARY = [
    (2, 5, "8x2,1x3"),
    (2, 5, "3"),
    (3, 3, "1,2"),
    (2, 6, "7x2,6x3"),
]


def reversed_order(masks):
    return list(reversed(masks))


def parse_goal(text):
    if "x" in text:
        return PartitionType.parse(text)
    return tuple(int(d) for d in text.split(",") if d)


def goals(q, n):
    for size in (1, 2, 3):
        for dims in itertools.combinations(range(1, n + 1), size):
            yield ",".join(map(str, dims))
            for sol in solve(q, n, dims):
                if all(x > 0 for x in sol.x):
                    yield sol.as_type().format()


def cases():
    for q, nmax in NMAX.items():
        for n in range(1, nmax + 1):
            for goal in goals(q, n):
                yield q, n, goal, CAPPED.get((q, n, goal)), None
    for q, n, goal in [(2, 4, "3x1,4x2"), (2, 5, "3"), (3, 3, "1,2"), (2, 4, "1,2,3")]:
        yield q, n, goal, None, "reversed"
    for q, n, goal in [(2, 5, "0"), (2, 3, "4"), (2, 3, ""), (2, 21, "2"), (6, 2, "1")]:
        yield q, n, goal, None, None
    for q, n, goal in BOUNDARY:
        nodes = find_partition(q, n, parse_goal(goal)).nodes
        for budget in sorted({0, 1, nodes - 1, nodes}):
            yield q, n, goal, budget, None


def key(q, n, goal, budget, order):
    return f"q={q} n={n} goal={goal} budget={budget} order={order}"


def outcome(q, n, goal, budget, order):
    try:
        out = find_partition(
            q, n, parse_goal(goal), budget=budget,
            candidate_order=reversed_order if order else None,
        )
    except (VspartError, ValueError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    pinned = {"status": out.status, "nodes": out.nodes}
    if out.found:
        pinned["sha256"] = hashlib.sha256(dumps(out.partition).encode()).hexdigest()
    return pinned


def test_search_outcomes_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = {key(*c): outcome(*c) for c in cases()}
    assert sorted(got) == sorted(golden)
    mismatched = [k for k in golden if got[k] != golden[k]]
    assert not mismatched, f"{len(mismatched)} outcomes changed, first {mismatched[0]}"


def test_corpus_reaches_every_status():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    statuses = {v.get("status", v.get("error")) for v in golden.values()}
    assert statuses == {"found", "exhausted", "budget", "ValueError", "TooLarge"}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {key(*c): outcome(*c) for c in cases()}
    lines = [f"{json.dumps(k)}: {json.dumps(table[k], sort_keys=True)}" for k in sorted(table)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} outcomes to {GOLDEN}")
