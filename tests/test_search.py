"""Exact-cover engine: search, full enumeration, scan."""

import itertools
import random

import pytest

from vspart.dioph import ruled_out, solve
from vspart.errors import BudgetExceeded, TooLarge
from vspart.partition import PartitionType, bound_report, is_T_partition, type_of, verify
from vspart.search import (
    BUDGET,
    EXHAUSTED,
    FOUND,
    conjecture_scan,
    enumerate_all,
    find_partition,
)


def test_find_excluded_type_is_exhausted():
    out = find_partition(2, 5, PartitionType.of((1, 2), (4, 3)))
    assert out.status == EXHAUSTED
    assert out.partition is None


def test_paper_bound_certifies_exhaustion_at_zero_nodes():
    # 1x1,10x2 passes counting and the dimension pairs, but a non-trivial
    # partition has at least q + t = 3 one-dimensional components.
    out = find_partition(2, 5, PartitionType.of((1, 1), (10, 2)), budget=1000)
    assert (out.status, out.nodes, out.partition) == (EXHAUSTED, 0, None)


# newly: the types that pass counting and the dimension pairs but fail
# another flag: 1 in V_5(2) and 6 in V_6(2).
@pytest.mark.parametrize("q,nmax,newly", [(2, 6, 7), (3, 4, 0), (4, 3, 0)])
def test_exhausted_at_budget_zero_exactly_when_ruled_out(q, nmax, newly):
    certified = 0
    for n in range(1, nmax + 1):
        for size in (1, 2, 3):
            for dims in itertools.combinations(range(1, n + 1), size):
                for sol in solve(q, n, dims):
                    if 0 in sol.x:
                        continue
                    reasons = ruled_out(q, n, sol.as_type())
                    out = find_partition(q, n, sol.as_type(), budget=0)
                    assert out.status == (EXHAUSTED if reasons else BUDGET), (q, n, sol)
                    assert out.nodes == 0
                    certified += bool(reasons) and reasons[0] not in ("counting", "dim_pairs")
    assert certified == newly


def test_find_realizable_type():
    out = find_partition(2, 5, PartitionType.of((8, 2), (1, 3)))
    assert out.status == FOUND
    assert type_of(out.partition) == PartitionType.of((8, 2), (1, 3))
    assert verify(out.partition).valid


def test_window_count_prunes_the_v6_find():
    """The window count cuts find(2,6,14x2,3x3) from 458,383 nodes to a few
    thousand; the partition found is the same."""
    import hashlib

    from vspart.io import dumps

    out = find_partition(2, 6, PartitionType.parse("14x2,3x3"), budget=5000)
    assert out.status == FOUND and out.nodes < 5000
    assert hashlib.sha256(dumps(out.partition).encode()).hexdigest().startswith("36f2ee55")


def test_type_plan_counts_uncovered_vectors_per_window():
    """A type goal's test holds when, for every dimension d, the components
    of dimension >= d still to be placed fit the uncovered vectors with a
    code below q^(n-d+1), and fails one vector short of that."""
    from vspart.search import _type_plan

    def free(q, n, covered):
        return ((1 << q**n) - 2) & ~sum(1 << c for c in covered)

    # V_4(2), 3x1,4x2, one line {1,2,3} placed: the three lines left need
    # three uncovered codes among 1..7; code 8 lies outside the window.
    dims, caps, feasible = _type_plan(2, 4, {1: 3, 2: 4})
    assert dims == (2, 1) and caps == {1: 3, 2: 4}
    assert feasible(free(2, 4, (1, 2, 3, 4)), {2: 1, 1: 1})
    assert not feasible(free(2, 4, (1, 2, 3, 4, 5)), {2: 1, 1: 2})
    assert feasible(free(2, 4, (1, 2, 3, 4, 8)), {2: 1, 1: 2})
    # V_4(3), 10x2, seven lines placed: the three left need three uncovered
    # codes among 1..26, however many lie above.
    _, _, feasible = _type_plan(3, 4, {2: 10})
    assert not feasible(free(3, 4, [c for c in range(1, 27) if c not in (25, 26)]), {2: 7})
    assert feasible(free(3, 4, [c for c in range(1, 27) if c not in (24, 25, 26)]), {2: 7})


def test_find_dimension_set_goal():
    out = find_partition(2, 3, (1, 2))
    assert out.status == FOUND
    assert type_of(out.partition) == PartitionType.of((4, 1), (1, 2))
    assert is_T_partition(out.partition, {1, 2})


def test_find_trivial_type():
    out = find_partition(2, 3, PartitionType.of((0, 2), (1, 3)))
    assert out.status == FOUND
    assert out.partition.r == 1


def test_found_results_are_deterministic():
    a = find_partition(2, 4, PartitionType.of((3, 1), (4, 2)))
    b = find_partition(2, 4, PartitionType.of((3, 1), (4, 2)))
    assert a.status == b.status == FOUND
    assert a.partition == b.partition


def test_budget_is_never_reported_as_exhausted():
    out = find_partition(2, 6, PartitionType.of((14, 2), (3, 3)), budget=50)
    assert out.status == BUDGET
    assert out.partition is None


def test_search_guard():
    with pytest.raises(TooLarge):
        find_partition(2, 21, (2,))


def test_budget_env_variable(monkeypatch):
    monkeypatch.setenv("VSPART_BUDGET", "10")
    out = find_partition(2, 6, PartitionType.of((14, 2), (3, 3)))
    assert out.status == BUDGET
    monkeypatch.delenv("VSPART_BUDGET")
    out = find_partition(2, 4, PartitionType.of((5, 2)))
    assert out.status == FOUND


def test_exhausted_stable_under_candidate_order():
    rng = random.Random(7)

    def shuffled(lst):
        rng.shuffle(lst)
        return lst

    orders = [None, lambda lst: list(reversed(lst)), shuffled]
    cert = PartitionType.of((1, 1), (2, 2))  # two planes cannot be disjoint in V_3
    miscount = PartitionType.of((4, 1), (1, 2), (1, 3))  # 4+3+7 = 14 != 15
    findable = PartitionType.of((3, 1), (4, 2))
    for order in orders:
        assert find_partition(2, 3, cert, candidate_order=order).status == EXHAUSTED
        assert find_partition(2, 4, miscount, candidate_order=order).status == EXHAUSTED
        # Exhaustions reached by really exploring the tree (residual pruning
        # fires below the root, the verdict is not a precheck certificate).
        out = find_partition(2, 5, (3,), candidate_order=order)
        assert out.status == EXHAUSTED and out.nodes > 100
        assert find_partition(2, 5, (2,), candidate_order=order).status == EXHAUSTED
        found = find_partition(2, 4, findable, candidate_order=order)
        assert found.status == FOUND and verify(found.partition).valid


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (4, 3)])
def test_candidate_table_matches_enumerated_subspaces(q, n):
    """Each group (d, v) is nonzero_mask of enumerate_subspaces, grouped by
    least vector in enumeration order, for every nonzero v: empty groups,
    v past the last nonempty group and v with a non-unit leading digit
    included.  Each mask maps back to its subspace."""
    from vspart.gf import field_from_order
    from vspart.linalg import enumerate_subspaces, nonzero_mask
    from vspart.search import DEFAULT_NODE_BUDGET, _CandidateIndex, _Counter

    field = field_from_order(q)
    index = _CandidateIndex(field, n, _Counter(DEFAULT_NODE_BUDGET))
    for d in range(1, n + 1):
        expected = {}
        subspaces = enumerate_subspaces(field, n, d, budget=None)
        for s in subspaces:
            mask = nonzero_mask(s)
            expected.setdefault((mask & -mask).bit_length() - 1, []).append(mask)
        assert {v: index.group(d, v) for v in range(1, q**n)} == {
            v: expected.get(v, []) for v in range(1, q**n)
        }
        assert [index.subspace(nonzero_mask(s)) for s in subspaces] == subspaces


def test_first_group_charges_whole_table():
    """The first group of a dimension charges its Gaussian binomial, though
    only that group is built."""
    from vspart.gf import field_from_order
    from vspart.linalg import gaussian_binomial
    from vspart.search import _BudgetHit, _CandidateIndex, _Counter

    field = field_from_order(2)
    g = gaussian_binomial(6, 3, 2)
    with pytest.raises(_BudgetHit):
        _CandidateIndex(field, 6, _Counter(g - 1)).group(3, 1)
    counter = _Counter(g)
    index = _CandidateIndex(field, 6, counter)
    # Vector 1 is least in every subspace holding it: 3-spaces through a point.
    assert len(index.group(3, 1)) == gaussian_binomial(5, 2, 2)
    assert counter.nodes == g
    assert list(index.tables[3]) == [1]
    index.group(3, 2)  # later groups of the same table charge nothing
    assert counter.nodes == g


def test_search_builds_only_the_groups_it_reads(monkeypatch):
    """A find builds fewer groups, and fewer masks, than its tables hold;
    its node count stays the pinned one."""
    import vspart.search as search_module
    from vspart.linalg import gaussian_binomial

    indexes = []

    class Recording(search_module._CandidateIndex):
        def __init__(self, *args):
            super().__init__(*args)
            indexes.append(self)

    monkeypatch.setattr(search_module, "_CandidateIndex", Recording)
    out = find_partition(2, 6, PartitionType.parse("7x2,6x3"), budget=2063)
    assert (out.status, out.nodes) == (FOUND, 2063)  # search_pins.json
    (index,) = indexes
    assert sorted(index.tables) == [2, 3]
    built = [masks for table in index.tables.values() for masks in table.values() if masks]
    nonempty = sum(2 ** (6 - d + 1) - 1 for d in (2, 3))
    assert 0 < len(built) < nonempty
    assert sum(map(len, built)) < sum(gaussian_binomial(6, d, 2) for d in (2, 3))


# ---------------------------------------------------------------------------
# full enumeration
# ---------------------------------------------------------------------------

def test_enumerate_all_v2_gf2():
    parts = enumerate_all(2, 2)
    assert len(parts) == 2
    assert sorted(type_of(p).format() for p in parts) == ["1x2", "3x1"]


def test_enumerate_all_v2_gf3():
    parts = enumerate_all(3, 2)
    assert len(parts) == 2
    assert sorted(type_of(p).format() for p in parts) == ["1x2", "4x1"]


def test_enumerate_all_v3_gf2():
    parts = enumerate_all(2, 3)
    types = {type_of(p).format() for p in parts}
    assert types == {"1x3", "7x1", "4x1,1x2"}
    # One partition per choice of the plane, 7 planes, plus the two extremes.
    assert len(parts) == 9


def test_enumerate_all_unique():
    parts = enumerate_all(2, 4)
    assert len(parts) == len(set(parts))
    for p in parts[:50]:
        assert verify(p).valid


def test_enumerate_all_v4_census():
    """Full census of V_4(2) against an independent combination scan.

    Oracle: partitions decompose as k pairwise-disjoint planes (k = 0..5)
    plus leftover points as lines, or one solid plus lines, or the trivial
    partition; the disjoint k-sets are counted directly from masks.
    """
    import itertools

    from collections import Counter

    from vspart.gf import make_field
    from vspart.linalg import enumerate_subspaces, nonzero_mask

    planes = [nonzero_mask(s) for s in enumerate_subspaces(make_field(2, 1), 4, 2)]
    disjoint_sets = {
        k: sum(
            1
            for combo in itertools.combinations(planes, k)
            if all(a & b == 0 for a, b in itertools.combinations(combo, 2))
        )
        for k in (1, 2, 3, 4, 5)
    }
    assert disjoint_sets[5] == 56  # the classical spread count for PG(3,2)

    hist = Counter(type_of(p).format() for p in enumerate_all(2, 4))
    assert hist == {
        "1x4": 1,
        "15x1": 1,
        "8x1,1x3": 15,
        "12x1,1x2": disjoint_sets[1],
        "9x1,2x2": disjoint_sets[2],
        "6x1,3x2": disjoint_sets[3],
        "3x1,4x2": disjoint_sets[4],
        "5x2": disjoint_sets[5],
    }


def test_enumerate_all_budget(monkeypatch):
    """enumerate_all(2, 3) takes 52 nodes: the tables of dimensions 1, 2
    and 3 charge 7 + 7 + 1, and the tree has 37 placements.  At that
    budget the census is complete; one node less raises, never a partial
    list; a scan has the same budget."""
    full = enumerate_all(2, 3)
    monkeypatch.setenv("VSPART_BUDGET", "52")
    assert enumerate_all(2, 3) == full
    assert conjecture_scan(2, 3).partitions_scanned == len(full)
    monkeypatch.setenv("VSPART_BUDGET", "51")
    with pytest.raises(BudgetExceeded, match="more than 51 nodes"):
        enumerate_all(2, 3)
    with pytest.raises(BudgetExceeded):
        conjecture_scan(2, 3)
    monkeypatch.setenv("VSPART_BUDGET", "-1")
    with pytest.raises(ValueError):
        enumerate_all(2, 3)


def test_enumerate_all_guard():
    with pytest.raises(TooLarge):
        enumerate_all(2, 13)


def all_goal_types(q, n):
    """Every type over every dimension subset, from the count solver."""
    import itertools

    out = set()
    for k in (1, 2, 3):
        for dims in itertools.combinations(range(1, n + 1), k):
            for sol in solve(q, n, dims):
                if all(x > 0 for x in sol.x):
                    out.add(tuple(zip(sol.x, sol.dims)))
    return sorted(out)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2), (4, 3)])
def test_oracle_agreement(q, n):
    """Search verdicts match the brute-force enumeration on every goal type."""
    realized = {type_of(p).pairs for p in enumerate_all(q, n)}
    for pairs in all_goal_types(q, n):
        goal = PartitionType(pairs)
        out = find_partition(q, n, goal)
        assert out.status in (FOUND, EXHAUSTED)
        assert (out.status == FOUND) == (pairs in realized), pairs
        if out.found:
            assert type_of(out.partition).pairs == pairs
            assert verify(out.partition).valid
            if out.partition.r >= 2:
                assert bound_report(out.partition).all_ok


def test_search_agrees_with_classification():
    from vspart.dioph import classify_gf2_23

    for n in (3, 4, 5):
        for sol, predicted in classify_gf2_23(n):
            out = find_partition(2, n, sol.as_type())
            assert out.found == predicted, (n, sol.x)


def test_found_partitions_pass_reports():
    for goal in [PartitionType.of((5, 2)), PartitionType.of((8, 2), (1, 3))]:
        out = find_partition(2, goal.point_count(2).bit_length(), goal)
        if out.found and out.partition.r >= 2:
            assert verify(out.partition).valid
            assert bound_report(out.partition).all_ok


# ---------------------------------------------------------------------------
# minimum-count scan
# ---------------------------------------------------------------------------

def test_scan_gf2_small():
    for n in (2, 3, 4):
        rep = conjecture_scan(2, n)
        assert rep.clean
    assert conjecture_scan(2, 2).min_s == {1: 3}
    assert conjecture_scan(2, 3).min_s == {1: 4}
    assert conjecture_scan(2, 4).min_s == {1: 3, 2: 5}


def test_scan_gf3():
    rep = conjecture_scan(3, 2)
    assert rep.clean
    assert rep.min_s == {1: 4}
    assert rep.witnesses[1] == PartitionType.of((4, 1))


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_scan_matches_census(q, n):
    """conjecture_scan reads dimensions off the covers; the oracle computes
    the same report from the enumerate_all census."""
    parts = enumerate_all(q, n)
    min_s, witnesses, counterexamples = {}, {}, []
    for p in parts:
        if p.r < 2:
            continue
        dims = [c.dim for c in p.components]
        t = min(dims)
        s = dims.count(t)
        if t not in min_s or s < min_s[t]:
            min_s[t] = s
            witnesses[t] = type_of(p)
        if s < q**t + 1:
            counterexamples.append(p)
    rep = conjecture_scan(q, n)
    assert (rep.partitions_scanned, rep.min_s, rep.witnesses, rep.counterexamples) == (
        len(parts), min_s, witnesses, counterexamples
    )


def test_budget_stop_builds_no_partition(monkeypatch):
    """A census stopped by its budget has built no Partition.  At the default
    budget enumerate_all builds one per cover, and a clean scan none."""
    import vspart.search as search_module

    built = []

    class Counting(search_module.Partition):
        def __post_init__(self):
            built.append(1)
            super().__post_init__()

    monkeypatch.setattr(search_module, "Partition", Counting)
    monkeypatch.delenv("VSPART_BUDGET", raising=False)
    assert len(enumerate_all(2, 4)) == len(built) == 1228
    built.clear()
    assert conjecture_scan(2, 4).clean
    assert not built
    monkeypatch.setenv("VSPART_BUDGET", "1000")
    for census in (enumerate_all, conjecture_scan):
        with pytest.raises(BudgetExceeded, match="more than 1000 nodes"):
            census(2, 4)
    assert not built
