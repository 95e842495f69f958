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
Most groups are never asked for.  Placed masks become subspaces only when a
cover completes.  Each search frame keeps per-depth filtered lists: for
each (d, v) its children ask for, the masks of group (d, v) that avoid
the frame's covered set.  A node scans its parent's list, which is
usually far shorter than the table group, so a candidate an ancestor
ruled out is never looked at again (the caching idea of Knuth's "Dancing
Links").  Filtering keeps table order, so the search order is unchanged.

Budget semantics: the node budget counts both tree expansions and generated
candidate subspaces, and running out is always reported as its own outcome,
never as exhaustion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import TooLarge
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

    status is "found" (partition attached), "exhausted" (complete search
    found none, a nonexistence certificate at this scale), or "budget".
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

    def __init__(self, limit: Optional[int]):
        self.nodes = 0
        self.limit = limit

    def bump(self) -> None:
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise _BudgetHit

    def charge(self, k: int) -> None:
        """Charge k nodes up front, before the work is done."""
        if self.limit is not None and self.nodes + k > self.limit:
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
    group with the same leading column.  Placed masks become Subspace
    values only when a cover completes, through a memo shared by every
    cover the search completes.
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


def _default_budget() -> int:
    return int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_NODE_BUDGET))


def _run(
    field: FieldSpec,
    n: int,
    dims: Sequence[int],
    used: Dict[int, int],
    may_place: Callable[[int], bool],
    feasible: Optional[Callable[[int], bool]],
    complete: Callable[[Callable[[], Tuple[Subspace, ...]]], bool],
    counter: _Counter,
    candidate_order: Optional[Callable[[list], list]],
) -> None:
    """Iterative depth-first exact cover.

    may_place(d) gates a dimension before its candidates are scanned,
    feasible(points_left) prunes after a placement, and complete(components)
    consumes a full cover, returning True to stop the whole search;
    components() returns the placed subspaces.  The per-dimension usage
    counts in `used` are kept in step with placements.

    Frame k is the node after k placements.  lists[k] maps each (d, v)
    its children asked for to the masks of table group (d, v) that avoid
    the frame's covered set, in table order.  A node scans its parent's
    list; the root scans frame 0's, whose lists are the table groups.  A
    missing list is filtered from the nearest ancestor's list, or from the
    table group, and cached at every frame between: frame j keeps what
    frame j - 1 keeps minus the masks meeting the j-th placement.  Lists
    are keyed by v << 6 | d (d <= n <= 20).  The index charges each table
    in full on first use but builds only the groups asked for here.
    """
    q = field.q
    full = (1 << q**n) - 2
    index = _CandidateIndex(field, n, counter)
    size = {d: q**d - 1 for d in dims}
    # Group (d, v) is empty when v >= q^(n-d+1): the least nonzero vector
    # of a d-dimensional span has its leading 1 at coordinate n - d or
    # later.  Such groups are skipped once their table is charged, so the
    # first index.group(d, v) still charges the table.
    empty_from = {d: q ** (n - d + 1) for d in dims}
    covered = 0
    points_left = q**n - 1
    placed: List[Tuple[int, int]] = []
    lists: List[Dict[int, Sequence[int]]] = [{}]

    def filtered(k: int, d: int, v: int, key: int) -> Sequence[int]:
        group = index.group(d, v)
        if not group or not k:
            # Frame 0 covers nothing, and an empty group stays empty.
            lists[k][key] = group
            return group
        j = k
        while j and key not in lists[j]:
            j -= 1
        if j:
            group = lists[j][key]
        while j < k:
            c = placed[j][0]
            j += 1
            group = lists[j][key] = [m for m in group if not m & c]
        return group

    def undo() -> None:
        nonlocal covered, points_left
        mask, d = placed.pop()
        covered ^= mask
        points_left += size[d]
        used[d] -= 1

    def components() -> Tuple[Subspace, ...]:
        return tuple(index.subspace(mask) for mask, _ in placed)

    def choices():
        free = full & ~covered
        v = (free & -free).bit_length() - 1
        cur = covered
        up = max(len(placed) - 1, 0)
        above = lists[up]
        vkey = v << 6
        for d in dims:
            if not may_place(d) or (v >= empty_from[d] and d in index.tables):
                continue
            key = vkey | d
            # Read the parent's list inline; filtered() is the miss path.
            group = above.get(key)
            if group is None:
                group = filtered(up, d, v, key)
            if candidate_order is not None:
                group = candidate_order(list(group))
            for mask in group:
                if not mask & cur:
                    yield mask, d

    stack = [choices()]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            lists.pop()
            if placed and len(placed) >= len(stack):
                undo()
            continue
        mask, d = nxt
        counter.bump()
        covered |= mask
        points_left -= size[d]
        used[d] += 1
        placed.append((mask, d))
        if covered == full:
            stop = complete(components)
            undo()
            if stop:
                return
            continue
        if feasible is not None and not feasible(points_left):
            undo()
            continue
        lists.append({})
        stack.append(choices())


def _find_by_type(
    field: FieldSpec,
    n: int,
    goal: PartitionType,
    counter: _Counter,
    candidate_order,
) -> SearchOutcome:
    q = field.q
    goal = goal.normalized()
    multiplicity = {d: x for x, d in goal.pairs}
    # Branch on large components first: they are the scarce resource, and
    # placing them early prunes hopeless covers by orders of magnitude.
    dims = tuple(sorted(multiplicity, reverse=True))
    # Counting or dimension-pair violations certify nonexistence outright:
    # two disjoint subspaces must have dimensions summing to at most n.
    if goal.point_count(q) != q**n - 1:
        return SearchOutcome(EXHAUSTED, None, 0)
    for i, d1 in enumerate(dims):
        if 2 * d1 > n and multiplicity[d1] > 1:
            return SearchOutcome(EXHAUSTED, None, 0)
        if any(d1 + d2 > n for d2 in dims[i + 1 :]):
            return SearchOutcome(EXHAUSTED, None, 0)
    used = {d: 0 for d in dims}
    found: List[Partition] = []

    def complete(components) -> bool:
        found.append(Partition(field, n, components()))
        return True

    try:
        _run(
            field, n, dims, used,
            lambda d: used[d] < multiplicity[d],
            None, complete, counter, candidate_order,
        )
    except _BudgetHit:
        return SearchOutcome(BUDGET, None, counter.nodes)
    if found:
        return SearchOutcome(FOUND, _certified(found[0], goal), counter.nodes)
    return SearchOutcome(EXHAUSTED, None, counter.nodes)


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


def _find_by_dims(
    field: FieldSpec,
    n: int,
    dims: Tuple[int, ...],
    counter: _Counter,
    candidate_order,
) -> SearchOutcome:
    q = field.q
    if any(d1 + d2 > n for i, d1 in enumerate(dims) for d2 in dims[i + 1 :]):
        return SearchOutcome(EXHAUSTED, None, 0)
    dims = tuple(sorted(dims, reverse=True))
    used = {d: 0 for d in dims}
    capped = {d for d in dims if 2 * d > n}
    terms = {d: q**d - 1 for d in dims}
    desc = list(dims)
    feas_memo: Dict[Tuple[int, frozenset, Tuple[int, ...]], bool] = {}
    found: List[Partition] = []

    def may_place(d: int) -> bool:
        return d not in capped or used[d] < 1

    def feasible(points_left: int) -> bool:
        # Residual counting feasibility: the points still uncovered must be
        # expressible with the available dimensions, every missing dimension
        # used at least once and capped dimensions at most once.
        missing = frozenset(d for d in dims if used[d] == 0)
        caps_state = tuple(used[d] for d in sorted(capped))
        key = (points_left, missing, caps_state)
        hit = feas_memo.get(key)
        if hit is not None:
            return hit
        residual = points_left
        caps = {d: (1 - used[d]) if d in capped else None for d in dims}
        ok = True
        for d in missing:
            residual -= terms[d]
            if caps[d] is not None:
                caps[d] -= 1
                if caps[d] < 0:
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
                hi = rem // terms[d]
                if caps[d] is not None:
                    hi = min(hi, caps[d])
                for y in range(hi, -1, -1):
                    if can(rem - y * terms[d], i + 1):
                        return True
                return False

            ok = can(residual, 0)
        feas_memo[key] = ok
        return ok

    def complete(components) -> bool:
        if any(used[d] == 0 for d in dims):
            return False
        found.append(Partition(field, n, components()))
        return True

    try:
        _run(field, n, dims, used, may_place, feasible, complete, counter, candidate_order)
    except _BudgetHit:
        return SearchOutcome(BUDGET, None, counter.nodes)
    if found:
        return SearchOutcome(FOUND, _certified(found[0], dims), counter.nodes)
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
    in the order to try.  It cannot change an exhaustion verdict.
    """
    field = field_from_order(q)
    _require_positive_n(n)
    if q**n > SEARCH_SPACE_LIMIT:
        raise TooLarge(f"{q}^{n} exceeds the search guard 2^20")
    if budget is None:
        budget = _default_budget()
    if budget < 0:
        raise ValueError(f"node budget must be non-negative, got {budget}")
    counter = _Counter(budget)
    if isinstance(goal, PartitionType):
        return _find_by_type(field, n, goal, counter, candidate_order)
    dims = tuple(sorted(set(int(d) for d in goal)))
    if not dims or dims[0] < 1 or dims[-1] > n:
        raise ValueError("dimension-set goal must contain dimensions in 1..n")
    return _find_by_dims(field, n, dims, counter, candidate_order)


def enumerate_all(q: int, n: int) -> List[Partition]:
    """Every partition of V_n(q), each exactly once, in search order.

    Brute-force oracle for the invariant suites; guarded at q^n <= 2^12.
    ValueError is raised for n < 1.
    """
    field = field_from_order(q)
    _require_positive_n(n)
    if q**n > ENUMERATE_ALL_LIMIT:
        raise TooLarge(f"{q}^{n} exceeds the enumeration guard 2^12")
    dims = tuple(range(1, n + 1))
    used = {d: 0 for d in dims}
    out: List[Partition] = []

    def complete(components) -> bool:
        out.append(Partition(field, n, components()))
        return False

    _run(field, n, dims, used, lambda d: True, None, complete, _Counter(None), None)
    return out


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
    any that does is returned as a counterexample.  ValueError is raised
    for n < 1.
    """
    parts = enumerate_all(q, n)
    min_s: Dict[int, int] = {}
    witnesses: Dict[int, PartitionType] = {}
    counterexamples: List[Partition] = []
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
    return ScanReport(q, n, len(parts), min_s, witnesses, counterexamples)
