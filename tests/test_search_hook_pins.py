"""Golden traces of the search kernel's observable order.

Two things a rewrite of the search loop must keep, pinned here:

- The candidate lists a find hands to its candidate_order hook, in call
  order: for each find, the number of lists and a sha256 over all of
  them.  This fixes the order in which nodes open their dimensions and
  which masks each list holds, not only where the search ends.
- Budgets that run out inside a candidate-table charge, not at a node:
  the charge of the first table minus one, and the sum of the first two
  charges minus one.  The second table is charged at the first node that
  opens its dimension, so that budget stops inside the second charge.

Regenerate the golden file only for an intended output change:
    PYTHONPATH=src python tests/test_search_hook_pins.py
"""

import hashlib
import json
from pathlib import Path

from vspart.linalg import gaussian_binomial
from vspart.partition import PartitionType
from vspart.search import find_partition

GOLDEN = Path(__file__).with_name("data") / "search_hook_pins.json"
# The BOUNDARY finds of test_search_pins.py, a dimension-set find in V_4,
# and the V_6 find of the benchmark cut short.
TRACED = [
    (2, 5, "8x2,1x3", None),
    (2, 5, "3", None),
    (3, 3, "1,2", None),
    (2, 6, "7x2,6x3", None),
    (2, 4, "1,2", None),
    (2, 6, "14x2,3x3", 5_000),
]
# Finds, with the dimensions of the first two tables they charge, in order.
CHARGED = [
    (2, 5, "8x2,1x3", (3, 2)),
    (3, 3, "1,2", (2, 1)),
]


def parse_goal(text):
    if "x" in text:
        return PartitionType.parse(text)
    return tuple(int(d) for d in text.split(",") if d)


def traced(q, n, goal, budget):
    digest = hashlib.sha256()
    calls = 0

    def record(masks):
        nonlocal calls
        calls += 1
        digest.update((",".join(map(str, masks)) + "\n").encode())
        return masks

    out = find_partition(q, n, parse_goal(goal), budget=budget, candidate_order=record)
    return {"status": out.status, "nodes": out.nodes, "lists": calls, "sha256": digest.hexdigest()}


def charge_budgets(q, n, dims):
    first, second = (gaussian_binomial(n, d, q) for d in dims)
    return first - 1, first + second - 1


def charged(q, n, goal, budget):
    out = find_partition(q, n, parse_goal(goal), budget=budget)
    # A stop at a node reports budget + 1 nodes; fewer than the budget
    # means the search stopped inside a charge.
    assert out.status == "budget" and out.nodes < budget
    return {"status": out.status, "nodes": out.nodes}


def cases():
    for q, n, goal, budget in TRACED:
        yield f"trace q={q} n={n} goal={goal} budget={budget}", traced(q, n, goal, budget)
    for q, n, goal, dims in CHARGED:
        for budget in charge_budgets(q, n, dims):
            yield f"charge q={q} n={n} goal={goal} budget={budget}", charged(q, n, goal, budget)


def test_hook_lists_and_charge_stops_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert dict(cases()) == golden


if __name__ == "__main__":
    table = dict(cases())
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in table.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} outcomes to {GOLDEN}")
