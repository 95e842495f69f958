"""Golden outcomes of build_t_partition over a small parameter grid.

Every (q, T, n) with q=2 and n <= 8, q=3 and n <= 4, or q=4 and n <= 3,
and 1 <= |T| <= 3, is built with a node budget of 200,000.  The outcome is
either the rules named in the provenance (outermost first) and the sha256
of the partition file, or the exception type, message and (for
UncoveredCase) the count vectors it carries.  The grid reaches every rule
except triple-split, both UncoveredCase messages and BudgetExceeded, so a
change to the rule chain that alters any output shows here.

Regenerate the golden file only for an intended output change:
    PYTHONPATH=src python tests/test_build_grid.py
"""

import hashlib
import itertools
import json
from pathlib import Path

from vspart.construct import build_t_partition
from vspart.errors import UncoveredCase, VspartError
from vspart.io import dumps

GOLDEN = Path(__file__).with_name("data") / "build_grid.json"
BUDGET = 200_000
GRID_NMAX = {2: 8, 3: 4, 4: 3}


def grid():
    for q, nmax in GRID_NMAX.items():
        for n in range(1, nmax + 1):
            for size in (1, 2, 3):
                for T in itertools.combinations(range(1, n + 1), size):
                    yield q, T, n


def key(q, T, n):
    return f"q={q} T={','.join(map(str, T))} n={n}"


def rules(provenance):
    out = [provenance["rule"]]
    for value in provenance.values():
        if isinstance(value, dict):
            out += rules(value)
    return out


def outcome(q, T, n):
    try:
        p = build_t_partition(q, T, n, budget=BUDGET)
    except VspartError as exc:
        out = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, UncoveredCase):
            out["solutions"] = [list(s.x) for s in exc.solutions]
        return out
    return {"rules": rules(p.provenance), "sha256": hashlib.sha256(dumps(p).encode()).hexdigest()}


def test_grid_outcomes_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = {key(q, T, n): outcome(q, T, n) for q, T, n in grid()}
    assert sorted(got) == sorted(golden)
    mismatched = [k for k in golden if got[k] != golden[k]]
    assert not mismatched, f"{len(mismatched)} outcomes changed, first {mismatched[0]}"


def test_grid_reaches_every_rule_but_triple_split():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reached = {rule for v in golden.values() for rule in v.get("rules", ())}
    assert reached == {
        "spread", "lines-refined-base", "half-base-typed", "half-base-refine",
        "half-base-search", "gcd-split", "adjacent-sum", "top-split", "typed-fallback",
    }


def test_grid_reaches_every_failure():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    failures = [v for v in golden.values() if "error" in v]
    assert {v["error"] for v in failures} == {"UncoveredCase", "BudgetExceeded"}
    uncovered = " ".join(v["message"] for v in failures if v["error"] == "UncoveredCase")
    assert "is possible: the counting equation has no solution" in uncovered
    assert "is possible: every candidate count vector fails" in uncovered
    assert "match no construction rule" in uncovered


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {key(q, T, n): outcome(q, T, n) for q, T, n in grid()}
    lines = [f"{json.dumps(k)}: {json.dumps(table[k], sort_keys=True)}" for k in sorted(table)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} outcomes to {GOLDEN}")
