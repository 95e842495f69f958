"""Exact-cover search for partitions.

The engine covers nonzero vectors with subspaces.  Cover state is a single
arbitrary-precision bitmask indexed by vector code, so the hot loop is
integer AND.  Branching always extends the cover of the canonically least
uncovered vector: any component through that vector whose mask avoids the
covered set automatically has it as least member, so each partition is
reached exactly once, in a deterministic order.

Candidates are masks only.  Each dimension's table maps a least vector v
to the masks of the subspaces whose least nonzero vector is v, in
canonical basis order, and holds no Subspace values.  A table is charged
per table and built per group: the first use of dimension d charges all
of its subspaces against the node budget, but a group is built, from
the echelon bases in `linalg`, only when the search first asks for it.
Most groups are never asked for.  Each search frame keeps per-depth
filtered lists: for each (d, v) its children ask for, the masks of group
(d, v) that avoid the frame's covered set.  A node scans its parent's
list, which is usually far shorter than the table group, so a candidate
an ancestor ruled out is never looked at again (the caching idea of
Knuth's "Dancing Links").  Filtering keeps table order, so the search
order is unchanged.

The search itself is one flat loop, the generator `_covers`.  The current
node's state is kept in local variables and pushed on a stack of tuples
when the loop goes down a level; the goal enters only as per-dimension
caps on how many components of each dimension may be placed and a
feasibility test on the uncovered mask.  Both goals carry a test: a
dimension set checks the residual point count, a type counts least
vectors per window (`_type_plan`).  The census has no test.  The loop
yields each complete cover as a tuple of masks.  A find keeps the first
that has every goal dimension; a census builds partitions only once the
search has ended.

Budget semantics: the node budget counts both tree expansions and generated
candidate subspaces, and running out is always reported as its own outcome,
never as exhaustion: a find returns the "budget" status, and
enumerate_all and conjecture_scan, which have no partial answer, raise
BudgetExceeded before building any partition.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .dioph import ruled_out
from .errors import BudgetExceeded, TooLarge
from .gf import FieldSpec, field_from_order
from .linalg import (
    Subspace,
    canonicalize,
    codes_mask,
    decode_vector,
    echelon_group,
    echelon_rows,
    gaussian_binomial,
    span_codes,
)
from .partition import Partition, PartitionType, type_of
from .partition import verify as verify_partition

SEARCH_SPACE_LIMIT = 1 << 20
ENUMERATE_ALL_LIMIT = 1 << 12
DEFAULT_NODE_BUDGET = 20_000_000
BUDGET_ENV_VAR = "VSPART_BUDGET"

FOUND = "found"
EXHAUSTED = "exhausted"
BUDGET = "budget"


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a partition search.

    status is "found" (partition attached), "exhausted" (no partition
    exists: a complete search of the pruned tree found none, or, for a
    type goal, one of the necessary conditions of dioph.ruled_out fails,
    such as the counting equation, a dimension pair or the paper's
    s >= q + t), or "budget".
    """

    status: str
    partition: Optional[Partition]
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == FOUND


class _BudgetHit(Exception):
    pass


class _Counter:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit

    def charge(self, k: int) -> None:
        """Charge k nodes up front, before the work is done."""
        if self.nodes + k > self.limit:
            raise _BudgetHit
        self.nodes += k


class _CandidateIndex:
    """Candidate masks per dimension, grouped by least nonzero vector.

    Charged per table, built per group.  The first group(d, v) for a
    dimension d charges all gaussian_binomial(n, d, q) subspaces of d
    against the node budget, as if the whole table were built; each group
    is then built when first asked for.  tables[d] maps each built least
    vector code v to its masks, in canonical basis order.  Over GF(2) the
    span of a basis's other d - 1 rows is formed once and shared by every
    group with the same leading column.  partition(cover) turns a cover's
    masks into a Partition through a memo of subspaces shared by every
    cover of the index.
    """

    def __init__(self, field: FieldSpec, n: int, counter: _Counter):
        self.field = field
        self.n = n
        self.counter = counter
        self.tables: Dict[int, Dict[int, List[int]]] = {}
        self._subspaces: Dict[int, Subspace] = {}
        self._prefixes: Dict[Tuple[int, int], List[Tuple[int, Tuple[int, ...]]]] = {}

    def group(self, d: int, v: int) -> List[int]:
        """Masks of the d-subspaces whose least nonzero vector is v."""
        table = self.tables.get(d)
        if table is None:
            # Charging the whole table up front keeps node counts and budget
            # stops independent of which groups the search reaches.
            self.counter.charge(gaussian_binomial(self.n, d, self.field.q))
            table = self.tables[d] = {}
        masks = table.get(v)
        if masks is None:
            field, n = self.field, self.n
            if field.q == 2:
                # Over GF(2) the span of rows P and v is span(P) and its
                # translate span(P) + v, which holds v.
                spans = self._prefix_spans(d, v)
                masks = [m | codes_mask([c ^ v for c in codes]) for m, codes in spans]
            else:
                bases = echelon_group(field, n, d, v)
                masks = [codes_mask(span_codes(field, n, rows)) for rows in bases]
            table[v] = masks
        return masks

    def _prefix_spans(self, d: int, v: int) -> List[Tuple[int, Tuple[int, ...]]]:
        """For each basis of group (d, v), in order, the span of its first
        d - 1 rows as (mask, codes with 0 first); q = 2 only."""
        field, n = self.field, self.n
        lead = n - v.bit_length()
        spans = self._prefixes.get((d, lead))
        if spans is None:
            spans = self._prefixes[d, lead] = []
            for rows in echelon_rows(field, n, d - 1, lead):
                codes = span_codes(field, n, rows)
                spans.append((codes_mask(codes), (0, *codes)))
        return spans

    def partition(self, cover: Sequence[int]) -> Partition:
        """The partition whose components have the masks of cover."""
        return Partition(self.field, self.n, tuple(map(self.subspace, cover)))

    def subspace(self, mask: int) -> Subspace:
        s = self._subspaces.get(mask)
        if s is None:
            q, n = self.field.q, self.n
            vectors = []
            rest = mask
            while rest:
                low = rest & -rest
                vectors.append(decode_vector(low.bit_length() - 1, q, n))
                rest ^= low
            s = self._subspaces[mask] = canonicalize(vectors, self.field, n)
        return s


def _require_positive_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"ambient dimension n must be positive, got {n}")


def _node_budget(budget: Optional[int]) -> int:
    """The given budget, else VSPART_BUDGET, else DEFAULT_NODE_BUDGET."""
    if budget is None:
        raw = os.environ.get(BUDGET_ENV_VAR, str(DEFAULT_NODE_BUDGET))
        try:
            budget = int(raw)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if budget < 0:
        raise ValueError(f"node budget must be non-negative, got {budget}")
    return budget


def _covers(
    index: _CandidateIndex,
    dims: Sequence[int],
    caps: Dict[int, int],
    feasible: Optional[Callable[[int, Dict[int, int]], bool]],
    candidate_order: Optional[Callable[[list], list]],
) -> Iterator[Tuple[int, ...]]:
    """Every exact cover by subspaces of the dimensions in dims, depth first.

    Yields each complete cover as the tuple of its masks in placement
    order, and charges index.counter one node per placement, raising
    _BudgetHit when the counter runs out.  A node opens the dimensions of
    dims in turn, skipping each d with used[d] >= caps[d], where used[d]
    counts the placed components of dimension d.  feasible(free, used),
    with free the mask of uncovered vectors, prunes after a placement.
    The node lives in locals: its least uncovered vector v, the position
    i of the next dimension to open, the iterator `it` over the open
    candidate list and that list's dimension d.
    Going down pushes (v, i, it, d); an exhausted node pops its parent's
    and undoes the placement that made it.

    Frame k is the node after k placements.  lists[k] maps each (d, v)
    its children asked for to the masks of table group (d, v) that avoid
    the frame's covered set, in table order.  A node scans its parent's
    list; the root scans frame 0's, whose lists are the table groups.  A
    missing list is filtered from the nearest ancestor's list, or from the
    table group, and cached at every frame between: frame j keeps what
    frame j - 1 keeps minus the masks meeting the j-th placement.  Once
    a list is empty, filtering stops and the empty list is cached at the
    asking frame.  Only a group no frame holds is read from the index, so
    a table is charged exactly as if every miss asked the index.  Lists
    are keyed by v << 6 | d (d <= n <= 20).  The index charges each table
    in full on first use but builds only the groups asked for here.
    """
    q, n, counter = index.field.q, index.n, index.counter
    full = (1 << q**n) - 2
    tables = index.tables
    # Group (d, v) is empty when v >= q^(n-d+1): the least nonzero vector
    # of a d-dimensional span has its leading 1 at coordinate n - d or
    # later.  Such groups are skipped once their table is charged, so the
    # first index.group(d, v) still charges the table.
    empty_from = {d: q ** (n - d + 1) for d in dims}
    limit = counter.limit
    covered = 0
    used = dict.fromkeys(dims, 0)
    placed: List[int] = []
    lists: List[Dict[int, Sequence[int]]] = [{}]

    def filtered(k: int, d: int, v: int, key: int) -> Sequence[int]:
        j = k
        while j and key not in lists[j]:
            j -= 1
        group = lists[j].get(key)
        if group is None:
            # No frame holds (d, v) yet; frame 0 covers nothing.  A cached
            # list means the table is charged already.
            group = lists[0][key] = index.group(d, v)
        while j < k and group:
            c = placed[j]
            j += 1
            group = lists[j][key] = [m for m in group if not m & c]
        if j < k:
            # An empty list stays empty below.
            lists[k][key] = group
        return group

    ndims = len(dims)
    stack: List[tuple] = []
    # The root: vector 1 is the least nonzero vector, nothing is open yet.
    empty = iter(())
    v, i, it, d = 1, 0, empty, 0
    while True:
        for mask in it:
            if not mask & covered:
                break
        else:
            if i < ndims:
                d = dims[i]
                i += 1
                if used[d] >= caps[d] or (v >= empty_from[d] and d in tables):
                    continue
                key = v << 6 | d
                up = len(placed) - 1 if placed else 0
                # Read the parent's list inline; filtered() is the miss path.
                group = lists[up].get(key)
                if group is None:
                    group = filtered(up, d, v, key)
                if candidate_order is not None:
                    group = candidate_order(list(group))
                it = iter(group)
                continue
            if not stack:
                return
            lists.pop()
            v, i, it, d = stack.pop()
            covered ^= placed.pop()
            used[d] -= 1
            continue
        counter.nodes += 1
        if counter.nodes > limit:
            raise _BudgetHit
        covered |= mask
        used[d] += 1
        placed.append(mask)
        if covered == full:
            yield tuple(placed)
        else:
            free = full & ~covered
            if feasible is None or feasible(free, used):
                lists.append({})
                stack.append((v, i, it, d))
                v, i, it = (free & -free).bit_length() - 1, 0, empty
                continue
        covered ^= placed.pop()
        used[d] -= 1


# How a goal enters the search: its dimensions in branching order, the cap
# on the components of each, and a feasibility test on the uncovered mask
# and the per-dimension counts placed.
_Plan = Tuple[Tuple[int, ...], Dict[int, int], Callable[[int, Dict[int, int]], bool]]


def _dims_plan(q: int, n: int, dims: Tuple[int, ...]) -> Optional[_Plan]:
    """The plan for a dimension-set goal, or None when a dimension pair
    certifies nonexistence outright."""
    if any(d1 + d2 > n for i, d1 in enumerate(dims) for d2 in dims[i + 1 :]):
        return None
    dims = tuple(sorted(dims, reverse=True))
    capped = {d for d in dims if 2 * d > n}
    # Two subspaces of dimension d > n / 2 always meet, so such a d is
    # placed at most once; the others are bounded by the point count.
    caps = {d: 1 if d in capped else q**n for d in dims}
    terms = {d: q**d - 1 for d in dims}
    desc = list(dims)
    feas_memo: Dict[Tuple[int, frozenset, Tuple[int, ...]], bool] = {}

    def feasible(free: int, used: Dict[int, int]) -> bool:
        # Residual counting feasibility: the points still uncovered must be
        # expressible with the available dimensions, every missing dimension
        # used at least once and capped dimensions at most once.
        points_left = free.bit_count()
        missing = frozenset(d for d in dims if used[d] == 0)
        caps_state = tuple(used[d] for d in sorted(capped))
        key = (points_left, missing, caps_state)
        hit = feas_memo.get(key)
        if hit is not None:
            return hit
        residual = points_left
        # Only the caps of capped dimensions can bind: for the others
        # used[d] * terms[d] + points_left <= q^n - 1 < caps[d].
        room = {d: caps[d] - used[d] for d in dims}
        ok = True
        for d in missing:
            residual -= terms[d]
            room[d] -= 1
            if room[d] < 0:
                ok = False
        if residual < 0:
            ok = False
        if ok:

            def can(rem: int, i: int) -> bool:
                if rem == 0:
                    return True
                if i == len(desc):
                    return False
                d = desc[i]
                hi = min(rem // terms[d], room[d])
                for y in range(hi, -1, -1):
                    if can(rem - y * terms[d], i + 1):
                        return True
                return False

            ok = can(residual, 0)
        feas_memo[key] = ok
        return ok

    return dims, caps, feasible


def _type_plan(q: int, n: int, multiplicity: Dict[int, int]) -> _Plan:
    """The plan for a type goal: dimensions descending, capped at their
    multiplicities, with a window count as the feasibility test.

    A d-subspace meets the span of the last n - d + 1 coordinates, so its
    least nonzero vector has a code below q^(n-d+1), and disjoint
    components have distinct least vectors.  So the components still to
    be placed with dimension >= d need that many uncovered vectors below
    q^(n-d+1).
    """
    dims = tuple(sorted(multiplicity, reverse=True))
    windows = [(d, (1 << q ** (n - d + 1)) - 1) for d in dims]

    def feasible(free: int, used: Dict[int, int]) -> bool:
        want = 0
        for d, window in windows:
            want += multiplicity[d] - used[d]
            if want > (free & window).bit_count():
                return False
        return True

    return dims, multiplicity, feasible


def _certified(p: Partition, goal) -> Partition:
    # The engine guarantees both properties; keep the contract literal, and
    # in force under python -O.
    if not verify_partition(p).valid:
        raise AssertionError("search produced an invalid partition")
    if isinstance(goal, PartitionType):
        got, wanted = type_of(p), goal
    else:
        got, wanted = {c.dim for c in p.components}, set(goal)
    if got != wanted:
        raise AssertionError(f"search produced {got}, wanted {wanted}")
    return p


def _find(
    index: _CandidateIndex, goal, plan: Optional[_Plan], candidate_order
) -> SearchOutcome:
    """The first cover in the plan's stream that has every dimension of the
    plan, certified against the goal; else exhaustion or a budget stop."""
    counter = index.counter
    if plan is not None:
        dims, caps, feasible = plan
        # A cover can fit the caps and still miss a dimension of a set goal.
        sizes = {index.field.q**d - 1 for d in dims}
        try:
            for cover in _covers(index, dims, caps, feasible, candidate_order):
                if sizes <= {m.bit_count() for m in cover}:
                    p = _certified(index.partition(cover), goal)
                    return SearchOutcome(FOUND, p, counter.nodes)
        except _BudgetHit:
            return SearchOutcome(BUDGET, None, counter.nodes)
    return SearchOutcome(EXHAUSTED, None, counter.nodes)


def find_partition(
    q: int,
    n: int,
    goal: Union[PartitionType, Iterable[int]],
    budget: Optional[int] = None,
    candidate_order: Optional[Callable[[list], list]] = None,
) -> SearchOutcome:
    """Search for a partition matching a type or a dimension set.

    A PartitionType goal asks for exact multiplicities; any other iterable
    of integers is a dimension-set goal (every listed dimension present,
    nothing else).  The default budget comes from the VSPART_BUDGET
    environment variable.  ValueError is raised for n < 1 and for a
    negative budget.  Returns the canonically least match under the
    branching order (dimensions descending, candidate bases in lex order),
    or exhaustion, or a budget stop.  candidate_order is a testing hook:
    it receives the list of candidate masks (bitmasks over vector codes,
    in table order) that a node scans for one dimension and returns them
    in the order to try.  It cannot change an exhaustion verdict.  A type
    goal that dioph.ruled_out rules out (the counting equation, the
    dimension pairs, the paper's s >= q + t and the other flags of
    dioph.annotate) is exhausted at 0 nodes.  Both goals prune with a
    feasibility test: a dimension set by the residual point count, a type
    by counting, per dimension d, the uncovered vectors below q^(n-d+1)
    that the components of dimension >= d still need as least vectors.
    So for a type, "exhausted" means a complete search of the tree that
    this window count leaves; the count only removes subtrees that hold
    no cover.
    """
    field = field_from_order(q)
    _require_positive_n(n)
    if q**n > SEARCH_SPACE_LIMIT:
        raise TooLarge(f"{q}^{n} exceeds the search guard 2^20")
    index = _CandidateIndex(field, n, _Counter(_node_budget(budget)))
    if isinstance(goal, PartitionType):
        goal = goal.normalized()
        # Branch on large components first: they are the scarce resource,
        # and placing them early prunes hopeless covers by orders of
        # magnitude.  With the caps at the multiplicities and the point
        # count exact, every cover has exactly the goal's type.
        multiplicity = {d: x for x, d in goal.pairs}
        plan = None if ruled_out(q, n, goal) else _type_plan(q, n, multiplicity)
    else:
        goal = tuple(sorted(set(int(d) for d in goal)))
        if not goal or goal[0] < 1 or goal[-1] > n:
            raise ValueError("dimension-set goal must contain dimensions in 1..n")
        plan = _dims_plan(q, n, goal)
    return _find(index, goal, plan, candidate_order)


def _census(q: int, n: int) -> Tuple[_CandidateIndex, List[Tuple[int, ...]]]:
    """Every cover of V_n(q) as masks, in search order, with the index that
    maps its masks to subspaces.  Guards, budget and errors are those of
    enumerate_all; a budget stop raises before anything is built from a
    cover."""
    field = field_from_order(q)
    _require_positive_n(n)
    if q**n > ENUMERATE_ALL_LIMIT:
        raise TooLarge(f"{q}^{n} exceeds the enumeration guard 2^12")
    budget = _node_budget(None)
    index = _CandidateIndex(field, n, _Counter(budget))
    dims = tuple(range(1, n + 1))
    try:
        return index, list(_covers(index, dims, dict.fromkeys(dims, q**n), None, None))
    except _BudgetHit:
        raise BudgetExceeded(
            f"enumerating V_{n}(GF({q})) needs more than {budget} nodes"
        ) from None


def enumerate_all(q: int, n: int) -> List[Partition]:
    """Every partition of V_n(q), each exactly once, in search order.

    Brute-force oracle for the invariant suites; guarded at q^n <= 2^12.
    The node budget counts as in find_partition and comes from the
    VSPART_BUDGET environment variable, else DEFAULT_NODE_BUDGET; running
    out raises BudgetExceeded, since a partial list is no census.
    ValueError is raised for n < 1 and for a negative budget.
    """
    index, covers = _census(q, n)
    return [index.partition(cover) for cover in covers]


@dataclass(frozen=True)
class ScanReport:
    """Minimum-dimension component counts across all partitions of V_n(q)."""

    q: int
    n: int
    partitions_scanned: int
    min_s: Dict[int, int]                    # per minimum dimension t
    witnesses: Dict[int, PartitionType]      # a type attaining min_s[t]
    counterexamples: List[Partition]         # non-trivial with s < q^t + 1

    @property
    def clean(self) -> bool:
        return not self.counterexamples


def conjecture_scan(q: int, n: int) -> ScanReport:
    """Scan every partition of V_n(q) for minimum-dimension counts below q^t + 1.

    The expectation is that no non-trivial partition falls below the bound;
    any that does is returned as a counterexample.  Guards and node budget
    are those of enumerate_all, and so is the BudgetExceeded a budget stop
    raises.  Only a counterexample is built as a Partition.
    """
    index, covers = _census(q, n)
    dim_of = {q**d - 1: d for d in range(1, n + 1)}
    min_s: Dict[int, int] = {}
    witnesses: Dict[int, PartitionType] = {}
    counterexamples: List[Partition] = []
    for cover in covers:
        if len(cover) < 2:
            continue
        dims = [dim_of[m.bit_count()] for m in cover]
        t = min(dims)
        s = dims.count(t)
        if t not in min_s or s < min_s[t]:
            min_s[t] = s
            witnesses[t] = PartitionType(tuple((dims.count(d), d) for d in sorted(set(dims))))
        if s < q**t + 1:
            counterexamples.append(index.partition(cover))
    return ScanReport(q, n, len(covers), min_s, witnesses, counterexamples)
