"""Count-vector enumeration and the necessary-condition flags."""

import itertools
import random
from typing import Tuple

import pytest

import vspart.gf
from vspart.dioph import (
    SOLVE_BUDGET,
    TypeSolution,
    _classes,
    _hyperplane_splittable,
    annotate,
    classify_gf2_23,
    ruled_out,
    solve,
)
from vspart.errors import BudgetExceeded, NotASolution
from vspart.partition import PartitionType


def brute_force_solutions(q, n, dims):
    """Oracle: scan the whole bounding box of candidate multiplicities."""
    target = q**n - 1
    terms = [q**d - 1 for d in dims]
    bounds = [target // t for t in terms]
    out = []
    for x in itertools.product(*[range(b + 1) for b in bounds]):
        if sum(t * xi for t, xi in zip(terms, x)) == target:
            out.append(x)
    return sorted(out)


@pytest.mark.parametrize(
    "q,n,dims,expected",
    [
        (2, 3, (2, 3), [(0, 1)]),
        (2, 5, (2, 3), [(1, 4), (8, 1)]),
        (2, 4, (2, 3), [(5, 0)]),
    ],
)
def test_solve_worked_examples(q, n, dims, expected):
    assert brute_force_solutions(q, n, dims) == expected
    assert [s.x for s in solve(q, n, dims)] == expected


@pytest.mark.parametrize(
    "q,n,dims",
    [(2, n, dims) for n in range(3, 11) for dims in [(1, 2), (2, 3)]]
    + [(2, n, dims) for n in range(3, 9) for dims in [(1, 2, 3), (2, 3, 4)]]
    + [(3, n, dims) for n in range(2, 7) for dims in [(1, 2), (2, 3)]]
    + [(4, 4, (1, 2)), (5, 3, (1, 2, 3))]
    + [(q, n, (d,)) for q, n in [(2, 6), (3, 4), (5, 2)] for d in range(1, n + 1)]
    + [(q, n, (1, 2, 3)) for q, n in [(3, 5), (4, 4), (5, 3), (7, 3), (8, 3), (9, 3)]]
    # gcd(q^d1 - 1, q^d2 - 1) > 1: g may not divide the remainder, and the
    # residue class of the first count steps by more than 1.
    + [(2, n, (2, 4)) for n in range(4, 11)]
    + [(2, n, (3, 6)) for n in range(6, 13)]
    + [(4, n, (1, 2)) for n in range(2, 6)]
    + [(3, n, (2, 4)) for n in range(4, 8)],
)
def test_solve_complete_against_box_scan(q, n, dims):
    dims = tuple(d for d in dims if d <= n)
    if not dims:
        return
    assert [s.x for s in solve(q, n, dims)] == brute_force_solutions(q, n, dims)
    classes = [[s.x for s in c] for c in _classes(q, n, dims, SOLVE_BUDGET)]
    assert [x for c in classes for x in c] == brute_force_solutions(q, n, dims)
    # A class is never empty and fixes every count but the last two.
    assert all(c and len({x[:-2] for x in c}) == 1 for c in classes)


def test_solve_budget():
    with pytest.raises(BudgetExceeded):
        solve(2, 12, (1, 2), budget=5)


def test_solve_budget_counts_a_class_past_maxsize():
    # The residue class of the last two counts has about 2^99 members,
    # more than len() of a range can report.
    with pytest.raises(BudgetExceeded, match="^more than 1000000 solutions$"):
        solve(2, 100, (1, 2))
    with pytest.raises(BudgetExceeded, match="^more than 1000000 solutions$"):
        next(_classes(2, 100, (1, 2), SOLVE_BUDGET))


@pytest.mark.parametrize("q,n,dims", [(2, 10, (2, 3)), (2, 8, (2, 4)), (3, 5, (1, 2, 3)), (2, 6, (2,))])
def test_solve_budget_edge(q, n, dims):
    solutions = solve(q, n, dims)
    assert solve(q, n, dims, budget=len(solutions)) == solutions
    with pytest.raises(BudgetExceeded) as exc:
        solve(q, n, dims, budget=len(solutions) - 1)
    assert str(exc.value) == f"more than {len(solutions) - 1} solutions"
    # A lazy reader gets the same stop before it receives any class.
    stream = _classes(q, n, dims, len(solutions) - 1)
    with pytest.raises(BudgetExceeded) as exc:
        next(stream)
    assert str(exc.value) == f"more than {len(solutions) - 1} solutions"


def test_solve_validates_q_without_field_tables(monkeypatch):
    def no_tables(p, e):
        raise AssertionError("solve built field tables")

    monkeypatch.setattr(vspart.gf, "make_field", no_tables)
    for q in (0, 1, 6, 12):
        with pytest.raises(ValueError):
            solve(q, 3, (1,))
    assert [s.x for s in solve(256, 2, (1, 2))] == [(0, 1), (257, 0)]


def test_solve_validates_dims():
    with pytest.raises(ValueError):
        solve(2, 4, (3, 2))
    with pytest.raises(ValueError):
        solve(2, 4, (0, 2))


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------

def test_annotate_rejects_non_solutions():
    with pytest.raises(NotASolution):
        annotate(TypeSolution(2, 5, (2, 3), (2, 4)))


def test_annotate_validates_dims():
    for dims, x in [((3, 2), (1, 8)), ((2, 2), (8, 1)), ((0, 3), (8, 1)), ((2, 6), (8, 1)), ((), ())]:
        with pytest.raises(ValueError):
            annotate(TypeSolution(2, 5, dims, x))
    with pytest.raises(ValueError):
        annotate(TypeSolution(6, 1, (1,), (1,)))


def test_annotate_excluded_case_n5():
    sol = annotate(TypeSolution(2, 5, (2, 3), (1, 4)))
    assert not sol.flags["min_count_two"]
    assert not sol.flags["min_count_qt"]
    assert not sol.passes_all()


def test_annotate_realizable_case_n5():
    sol = annotate(TypeSolution(2, 5, (2, 3), (8, 1)))
    assert sol.passes_all()


def test_annotate_spread_type_v4():
    sol = annotate(TypeSolution(2, 4, (1, 2), (0, 5)))
    assert sol.passes_all()
    # Least present dimension is 2, giving the bound q + t = 4 <= 5.
    assert sol.present() == [(2, 5)]


def test_annotate_trivial_solution_passes():
    sol = annotate(TypeSolution(2, 4, (4,), (1,)))
    assert sol.passes_all()


def test_hyperplane_split_examples():
    # (8,1) at n=5 admits the split (2 planes inside, 6 dropping, big inside).
    assert annotate(TypeSolution(2, 5, (2, 3), (8, 1))).flags["hyperplane_split"]
    # All-lines partitions always split: a of them inside the hyperplane.
    assert annotate(TypeSolution(2, 4, (1,), (15,))).flags["hyperplane_split"]


def reference_hyperplane_splittable(q: int, dims: Tuple[int, ...], x: Tuple[int, ...], n: int) -> bool:
    """Oracle: try every split a_i in 0..x_i and test the remainder."""
    target = q ** (n - 1) - 1
    k = len(dims)
    inside = [q**d - 1 for d in dims]
    dropped = [q ** (d - 1) - 1 for d in dims]

    def rec(i: int, rem: int) -> bool:
        if rem < 0:
            return False
        if i == k:
            return rem == 0
        return any(
            rec(i + 1, rem - a * inside[i] - (x[i] - a) * dropped[i]) for a in range(x[i] + 1)
        )

    return rec(0, target)


def test_hyperplane_split_matches_reference():
    verdicts = set()
    for q, n, dims in [(2, 8, (1, 2, 3)), (3, 6, (1, 2, 3)), (4, 5, (1, 2)), (2, 7, (2, 3))]:
        for sol in solve(q, n, dims):
            got = _hyperplane_splittable(q, dims, sol.x, n)
            assert got == reference_hyperplane_splittable(q, dims, sol.x, n), sol
            verdicts.add(got)
    # Vectors that need not solve the counting equation at all.
    rng = random.Random(2009)
    for _ in range(2000):
        q, n = rng.randint(2, 4), rng.randint(1, 7)
        dims = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(n, 4)))))
        x = tuple(rng.randint(0, 9) for _ in dims)
        got = _hyperplane_splittable(q, dims, x, n)
        assert got == reference_hyperplane_splittable(q, dims, x, n), (q, dims, x, n)
        verdicts.add(got)
    assert verdicts == {False, True}


def test_flag_soundness_against_search_oracle():
    """No flag may reject a type that an exhaustive search realizes."""
    from vspart.partition import type_of
    from vspart.search import enumerate_all

    for q, n in [(2, 2), (2, 3), (2, 4), (3, 2)]:
        for p in enumerate_all(q, n):
            t = type_of(p)
            sol = TypeSolution(
                q, n, tuple(d for _, d in t.pairs), tuple(x for x, _ in t.pairs)
            )
            assert annotate(sol).passes_all(), f"flags rejected realizable {t} at q={q}, n={n}"


@pytest.mark.parametrize(
    "q,n,text,reasons",
    [
        (2, 5, "2x2,4x3", ("counting",)),
        (2, 5, "1x2,4x3", ("dim_pairs", "min_count_two", "min_count_q1", "min_count_qt")),
        (2, 5, "1x1,10x2", ("min_count_two", "min_lines_three", "min_count_q1", "min_count_qt")),
        (2, 3, "1x1,2x2", ("dim_pairs", "min_count_two", "min_lines_three", "min_count_q1",
                           "min_count_qt")),
        (2, 5, "8x2,1x3", ()),
        (2, 6, "21x2,0x4", ()),
        (3, 2, "1x2", ()),
    ],
)
def test_ruled_out(q, n, text, reasons):
    ptype = PartitionType.parse(text)
    assert ruled_out(q, n, ptype) == reasons
    if reasons != ("counting",):
        sol = annotate(TypeSolution(q, n, tuple(d for _, d in ptype.pairs),
                                    tuple(x for x, _ in ptype.pairs)))
        assert reasons == tuple(name for name, ok in sol.flags.items() if not ok)


# ---------------------------------------------------------------------------
# classification over GF(2), dims {2, 3}
# ---------------------------------------------------------------------------

def test_classify_n3():
    assert [(s.x, e) for s, e in classify_gf2_23(3)] == [((0, 1), True)]


def test_classify_n5():
    assert [(s.x, e) for s, e in classify_gf2_23(5)] == [
        ((1, 4), False),
        ((8, 1), True),
    ]


def test_classify_n6_all_exist():
    rows = classify_gf2_23(6)
    assert sorted(s.x for s, _ in rows) == [(0, 9), (7, 6), (14, 3), (21, 0)]
    assert all(e for _, e in rows)


def test_classify_requires_n3():
    with pytest.raises(ValueError):
        classify_gf2_23(2)


def test_positive_pairs_have_at_least_three_planes():
    # Over GF(2) with dims {2,3}: any flag-passing vector with both counts
    # positive has at least 3 planes of dimension 2.
    for n in range(3, 11):
        for sol in solve(2, n, (2, 3)):
            if sol.x[0] > 0 and sol.x[1] > 0 and annotate(sol).passes_all():
                assert sol.x[0] >= 3
