"""Feasibility analysis of component counts.

A partition of V_n(q) with x_i components of dimension n_i satisfies the
counting equation sum_i (q^{n_i} - 1) x_i = q^n - 1.  This module
enumerates the non-negative solutions for a fixed dimension list and
annotates each with the stack of known necessary conditions.  Passing
every flag never asserts that a partition exists; failing any flag proves
it does not.  `ruled_out` is that proof for one type, and the only
nonexistence test that search and construct apply to a type.

Neither enumeration tries a count and tests it afterwards: `solve` joins
a stream of residue classes, each stepping the last two counts through
the one class that can balance the equation, and the hyperplane-split
flag is a bounded knapsack whose weights divide one another, so each
count steps through one residue class too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from math import gcd
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, NotASolution
from .gf import _prime_power
from .partition import PartitionType

SOLVE_BUDGET = 1_000_000

# Flag names, in report order.  Each is an exact predicate on a solution:
#   dim_pairs          two distinct present dimensions sum to at most n, and a
#                      dimension above n/2 has multiplicity at most 1
#   hyperplane_split   the counts can be split into components lying inside a
#                      hyperplane and components meeting it one dimension
#                      lower, so the induced counts solve the equation at n-1
#   min_count_two      the smallest present dimension has multiplicity >= 2
#   min_lines_three    over GF(2), if the smallest present dimension is 1 its
#                      multiplicity is >= 3
#   min_count_q1       the smallest present multiplicity is >= q + 1
#   min_count_qt       the smallest present multiplicity is >= q + t
#   r_range            q^t + 1 <= r <= floor((q^n - 1) / (q^t - 1))
#   r_residue          r == 1 (mod q^t)
# with t the smallest present dimension and r the component total.  The
# minimum-count and r flags apply only to non-trivial solutions (r >= 2).
FLAG_NAMES = (
    "dim_pairs",
    "hyperplane_split",
    "min_count_two",
    "min_lines_three",
    "min_count_q1",
    "min_count_qt",
    "r_range",
    "r_residue",
)


@dataclass(frozen=True, slots=True)
class TypeSolution:
    """A non-negative solution of the counting equation, optionally annotated."""

    q: int
    n: int
    dims: Tuple[int, ...]
    x: Tuple[int, ...]
    flags: Optional[Dict[str, bool]] = None

    @property
    def r(self) -> int:
        return sum(self.x)

    def present(self) -> List[Tuple[int, int]]:
        """(dimension, multiplicity) pairs with positive multiplicity."""
        return [(d, x) for d, x in zip(self.dims, self.x) if x > 0]

    def as_type(self) -> PartitionType:
        return PartitionType(tuple((x, d) for x, d in zip(self.x, self.dims)))

    def passes_all(self) -> bool:
        if self.flags is None:
            raise ValueError("solution has not been annotated")
        return all(self.flags.values())

    def __str__(self) -> str:
        return f"x={self.x} dims={self.dims}"


def _validate_dims(n: int, dims: Sequence[int]) -> Tuple[int, ...]:
    dims = tuple(dims)
    if not dims:
        raise ValueError("at least one dimension is required")
    if any(d < 1 or d > n for d in dims):
        raise ValueError("dimensions must lie in 1..n")
    if any(a >= b for a, b in zip(dims, dims[1:])):
        raise ValueError("dimensions must be strictly increasing")
    return dims


def _classes(q: int, n: int, dims: Sequence[int], budget: int) -> Iterator[List[TypeSolution]]:
    """The solutions of solve, in its order, one residue class at a time.

    A class fixes all counts but the last two, which are solved exactly:
    with g = gcd(t, u), t x + u y = rem has solutions only when g divides
    rem, and then x runs through one residue class modulo u / g and y
    follows.  Every class is sized before the first is built.
    """
    _prime_power(q)  # rejects a bad q without building field tables
    dims = _validate_dims(n, dims)
    terms = [q**d - 1 for d in dims]
    target = q**n - 1
    classes: List[Tuple[Tuple[int, ...], int, range]] = []
    total = 0

    def reserve(count: int) -> None:
        nonlocal total
        total += count
        if total > budget:
            raise BudgetExceeded(f"more than {budget} solutions")

    last = terms[-1]
    if len(terms) == 1:
        if target % last == 0:
            reserve(1)
            yield [TypeSolution(q, n, dims, (target // last,))]
        return
    t = terms[-2]
    g = gcd(t, last)
    step = last // g
    inverse = pow(t // g, -1, step)

    def rec(i: int, rem: int, prefix: Tuple[int, ...]) -> None:
        if i < len(terms) - 2:
            for x in range(rem // terms[i] + 1):
                rec(i + 1, rem - x * terms[i], prefix + (x,))
        elif rem % g == 0:
            xs = range((rem // g) * inverse % step, rem // t + 1, step)
            # Counted, not len(xs): the class can outgrow sys.maxsize.
            reserve((xs.stop - xs.start + step - 1) // step)
            if xs:
                classes.append((prefix, rem, xs))

    rec(0, target, ())
    for prefix, rem, xs in classes:
        yield [TypeSolution(q, n, dims, prefix + (x, (rem - x * t) // last)) for x in xs]


def solve(q: int, n: int, dims: Sequence[int], budget: int = SOLVE_BUDGET) -> List[TypeSolution]:
    """All non-negative solutions of sum (q^{n_i} - 1) x_i = q^n - 1, in lex order."""
    return list(chain.from_iterable(_classes(q, n, dims, budget)))


def _hyperplane_splittable(q: int, dims: Tuple[int, ...], x: Tuple[int, ...], n: int) -> bool:
    """Can the counts split across a hyperplane section?

    Looks for a_i + b_i = x_i with a_i components meeting the hyperplane in
    full dimension n_i and b_i in dimension n_i - 1, such that the induced
    counts solve the equation at n - 1.

    As a bounded knapsack: over the base where every component drops a
    dimension, each component inside adds w_i = (q - 1) q^{n_i - 1}, and the
    a_i must add exactly q^{n-1} - 1 minus the base.  The dims increase
    strictly, so w_i divides w_{i+1}: a_i runs through one residue class
    modulo q^{n_{i+1} - n_i}, bounded by what the later counts can still
    add, and the last a_i follows.
    """
    k = len(dims)
    w = [(q - 1) * q ** (d - 1) for d in dims]
    room = [0] * (k + 1)  # room[i]: the most that a_i, ..., a_{k-1} can add
    for i in range(k - 1, -1, -1):
        room[i] = room[i + 1] + x[i] * w[i]
    need = q ** (n - 1) - 1 - sum(xi * (q ** (d - 1) - 1) for d, xi in zip(dims, x))

    def rec(i: int, rem: int) -> bool:
        if i == k - 1:
            a, left = divmod(rem, w[i])
            return left == 0 and 0 <= a <= x[i]
        step = w[i + 1] // w[i]
        lo = max(0, -((room[i + 1] - rem) // w[i]))
        start = lo + (rem // w[i] - lo) % step
        return any(
            rec(i + 1, rem - a * w[i])
            for a in range(start, min(x[i], rem // w[i]) + 1, step)
        )

    return need >= 0 and need % w[0] == 0 and rec(0, need)


def annotate(sol: TypeSolution) -> TypeSolution:
    """Attach the full stack of necessary-condition flags to a solution.

    Raises ValueError if q is not a prime power or the dims are not
    strictly increasing in 1..n, and NotASolution if the multiplicities do
    not solve the counting equation for (q, n, dims).
    """
    q, n, x = sol.q, sol.n, sol.x
    _prime_power(q)
    dims = _validate_dims(n, sol.dims)
    if len(dims) != len(x) or any(v < 0 for v in x):
        raise NotASolution("malformed multiplicity vector")
    if sum(xi * (q**d - 1) for d, xi in zip(dims, x)) != q**n - 1:
        raise NotASolution(f"{x} does not solve the counting equation at q={q}, n={n}")
    present = sol.present()
    r = sol.r
    nontrivial = r >= 2
    t, x_min = present[0]

    pairs_ok = all(
        d1 + d2 <= n for i, (d1, _) in enumerate(present) for d2, _ in present[i + 1 :]
    ) and all(xi <= 1 for d, xi in present if 2 * d > n)

    flags: Dict[str, bool] = {
        "dim_pairs": pairs_ok,
        "hyperplane_split": _hyperplane_splittable(q, dims, x, n),
        "min_count_two": (not nontrivial) or x_min >= 2,
        "min_lines_three": (not nontrivial) or not (q == 2 and t == 1) or x_min >= 3,
        "min_count_q1": (not nontrivial) or x_min >= q + 1,
        "min_count_qt": (not nontrivial) or x_min >= q + t,
        "r_range": (not nontrivial) or q**t + 1 <= r <= (q**n - 1) // (q**t - 1),
        "r_residue": (not nontrivial) or r % q**t == 1,
    }
    return replace(sol, flags=flags)


def ruled_out(q: int, n: int, ptype: PartitionType) -> Tuple[str, ...]:
    """Why no partition of V_n(q) has type ptype, or () if nothing rules it out.

    ("counting",) when the counts miss the counting equation, else the
    names of the failing flags of annotate, in FLAG_NAMES order.  Among
    them is the paper's bound (min_count_qt): a non-trivial partition has
    at least q + t components of its least dimension t.
    """
    if ptype.point_count(q) != q**n - 1:
        return ("counting",)
    dims = tuple(d for _, d in ptype.pairs)
    flags = annotate(TypeSolution(q, n, dims, tuple(x for x, _ in ptype.pairs))).flags
    return tuple(name for name in FLAG_NAMES if not flags[name])


def classify_gf2_23(n: int) -> List[Tuple[TypeSolution, bool]]:
    """Solutions of 3 x_1 + 7 x_2 = 2^n - 1 with their existence verdicts.

    Over GF(2) with component dimensions 2 and 3, a partition of the given
    counts exists exactly when x_1 != 1.
    """
    if n < 3:
        raise ValueError("classification requires n >= 3")
    return [(sol, sol.x[0] != 1) for sol in solve(2, n, (2, 3))]
