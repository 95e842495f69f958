"""Explicit partition constructions.

Every builder returns a verified Partition whose provenance records the
rule used and its sub-calls, and resolves all free choices canonically
(first candidate in canonical order), so outputs are bit-stable across
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .dioph import SOLVE_BUDGET, _classes, annotate, ruled_out, solve
from .errors import (
    BadDimensions,
    BudgetExceeded,
    DimensionTooSmall,
    NotDivisible,
    UncoveredCase,
    UnsupportedType,
)
from .gf import ExtField, field_from_order
from .linalg import (
    Subspace,
    canonicalize,
    contains,
    coordinate_subspace,
    enumerate_subspaces,
)
from .partition import (
    Partition,
    PartitionType,
    induce,
    is_T_partition,
    refine,
    trivial_partition,
    type_of,
    verify,
)
from .search import BUDGET, FOUND, _node_budget, find_partition


def _checked(p: Partition) -> Partition:
    report = verify(p)
    if not report.valid:
        raise AssertionError(f"construction produced an invalid partition: {report.describe()}")
    return p


def spread(q: int, n: int, d: int) -> Partition:
    """Partition of V_n(q) into (q^n - 1)/(q^d - 1) subspaces of dimension d.

    Requires d | n.  V_n(q) is read as an (n/d)-dimensional space over
    GF(q^d); each line over the big field flattens to one d-dimensional
    component over GF(q).
    """
    field = field_from_order(q)
    if d < 1 or n < 1 or n % d != 0:
        raise NotDivisible(f"{d} does not divide {n}")
    ext = ExtField(field, d)
    m = n // d
    comps: List[Subspace] = []
    # Projective representatives over GF(q^d): leading coordinate one.
    for lead in range(m):
        tail = m - lead - 1
        stack = [()]
        for _ in range(tail):
            stack = [prefix + (elem,) for prefix in stack for elem in _all_ext_elements(ext)]
        for suffix in stack:
            point = (ext.zero(),) * lead + (ext.one(),) + suffix
            rows = []
            for j in range(d):
                scaled = ext.scale(ext.power_basis(j), point)
                rows.append(tuple(x for coord in scaled for x in coord))
            comps.append(canonicalize(rows, field, n))
    out = Partition(field, n, tuple(comps), provenance={"rule": "spread", "q": q, "n": n, "d": d})
    return _checked(out)


def _all_ext_elements(ext: ExtField) -> List[Tuple[int, ...]]:
    return [ext.element(c) for c in range(ext.order)]


@dataclass(frozen=True)
class LiftResult:
    """Outcome of extending a partition across an added coordinate block.

    partition covers the whole of the (n + m')-dimensional space; lifted
    holds the new components (one per base component and nonzero scalar of
    GF(q^m')); base_component and ext_component are the two coordinate
    subspaces completing the partition.
    """

    partition: Partition
    lifted: Tuple[Subspace, ...]
    base_component: Subspace
    ext_component: Subspace


def lift(p: Partition, m_prime: int) -> LiftResult:
    """Extend a partition of V across V' = GF(q^m') to one of V + V'.

    Each component U yields a component {(u, a * phi(u))} per nonzero a of
    GF(q^m'), where phi sends U's canonical basis to the first dim-U power
    basis elements; together with V x 0 and 0 x V' these partition the sum.
    The new component count is (q^m' - 1) times the old one.  Requires the
    largest component dimension to be at most m'.
    """
    field = p.field
    max_dim = max(c.dim for c in p.components)
    if m_prime < max_dim:
        raise DimensionTooSmall(
            f"extension of dimension {m_prime} cannot host components of dimension {max_dim}"
        )
    ext = ExtField(field, m_prime)
    n_out = p.n + m_prime
    base_component = coordinate_subspace(field, n_out, range(p.n))
    ext_component = coordinate_subspace(field, n_out, range(p.n, n_out))
    lifted: List[Subspace] = []
    for u in p.components:
        powers = [ext.power_basis(j) for j in range(u.dim)]
        for alpha in ext.nonzero_elements():
            rows = []
            for brow, pw in zip(u.basis, powers):
                rows.append(tuple(brow) + ext.mul(alpha, pw))
            lifted.append(canonicalize(rows, field, n_out))
    comps = (base_component, ext_component) + tuple(lifted)
    out = Partition(
        field,
        n_out,
        comps,
        provenance={"rule": "lift", "m_prime": m_prime, "base": p.provenance},
    )
    return LiftResult(_checked(out), tuple(lifted), base_component, ext_component)


def near_spread(q: int, n: int, d: int) -> Partition:
    """Partition of V_n(q) of type [(q^{n-d}, d), (1, n-d)], for d <= n - d.

    Realized by lifting the trivial partition of V_d(q) across a block of
    dimension n - d; when 2d = n this is exactly the d-spread and is routed
    there.
    """
    field = field_from_order(q)
    if d < 1 or d > n - d:
        raise BadDimensions(f"need 1 <= d <= n - d, got d={d}, n={n}")
    if 2 * d == n:
        out = spread(q, n, d)
        return Partition(
            field, n, out.components,
            provenance={"rule": "near-spread", "q": q, "n": n, "d": d, "via": "spread"},
        )
    res = lift(trivial_partition(field, d), n - d)
    return Partition(
        field, n, res.partition.components,
        provenance={"rule": "near-spread", "q": q, "n": n, "d": d},
    )


def hyperplane_section(q: int, k: int, d: int) -> Partition:
    """Section a d-spread of V_{kd}(q) by a hyperplane.

    Produces a partition of V_{kd-1}(q) of type
    [(q^{(k-1)d}, d-1), ((q^{(k-1)d} - 1)/(q^d - 1), d)]; requires d > 1.
    """
    if d <= 1:
        raise BadDimensions("sectioning requires component dimension at least 2")
    if k < 1:
        raise BadDimensions("need k >= 1")
    field = field_from_order(q)
    n = k * d
    full = spread(q, n, d)
    hyperplane = coordinate_subspace(field, n, range(n - 1))
    out = induce(full, hyperplane)
    return Partition(
        field, n - 1, out.components,
        provenance={"rule": "hyperplane-section", "q": q, "k": k, "d": d},
    )


def typed_construct(q: int, n: int, ptype: PartitionType) -> Partition:
    """Closed-form construction for one- and two-dimension types.

    Covers exactly, once zero multiplicities are dropped: a single
    dimension (a spread), or two dimensions summing to n (the
    near-spread).  Anything else, including types failing the necessary
    conditions, raises UnsupportedType; the caller should fall back to
    search.
    """
    failing = ruled_out(q, n, ptype)
    if failing == ("counting",):
        raise UnsupportedType(f"{ptype} does not solve the counting equation at q={q}, n={n}")
    if failing:
        raise UnsupportedType(f"{ptype} fails necessary conditions: {', '.join(failing)}")
    present = ptype.normalized()
    dims = tuple(d for _, d in present.pairs)
    if len(dims) == 1:
        out = spread(q, n, dims[0])
    elif len(dims) == 2 and dims[0] + dims[1] == n:
        out = near_spread(q, n, dims[0])
    else:
        raise UnsupportedType(f"{ptype} is outside the closed-form cases; use search")
    built = type_of(out)
    if built != present:
        raise AssertionError(f"built type {built} does not match request {ptype}")
    return Partition(
        out.field, n, out.components,
        provenance={"rule": "typed", "type": ptype.format(), "via": out.provenance},
    )


def fixed_plus_lines(q: int, m: int, d: int) -> Partition:
    """Partition of V_m(q) into one coordinate d-subspace and the lines off it.

    Exists for every 1 <= d < m: a line through a vector outside the fixed
    subspace stays outside it except at zero.
    """
    field = field_from_order(q)
    if not 1 <= d < m:
        raise BadDimensions(f"need 1 <= d < m, got d={d}, m={m}")
    fixed = coordinate_subspace(field, m, range(d))
    comps = [fixed]
    for line in enumerate_subspaces(field, m, 1):
        if not contains(fixed, line.basis[0]):
            comps.append(line)
    out = Partition(
        field, m, tuple(comps),
        provenance={"rule": "fixed-plus-lines", "q": q, "m": m, "d": d},
    )
    return _checked(out)


def _first_component_of_dim(p: Partition, d: int) -> Subspace:
    return next(c for c in p.components if c.dim == d)


# A rule returns (rule name, partition, provenance beyond rule/T/n) to _finish.
_Built = Tuple[str, Partition, dict]


def _finish(T: Tuple[int, ...], n: int, built: _Built) -> Partition:
    """The single exit of the builder: check T and stamp the provenance."""
    rule, p, extra = built
    if not is_T_partition(p, T):
        raise AssertionError(
            f"rule {rule} produced dimensions {sorted({c.dim for c in p.components})}, "
            f"wanted {list(T)}"
        )
    provenance = {"rule": rule, "T": list(T), "n": n, **extra}
    return Partition(p.field, p.n, p.components, provenance=provenance)


def _lift_split(
    seed: Partition, m: int, base_fill: Partition, ext_fill: Optional[Partition] = None
) -> Partition:
    """Lift seed across m added coordinates, then refine the base block by
    base_fill and, when given, the added block by ext_fill."""
    lifted = lift(seed, m)
    out = refine(lifted.partition, lifted.base_component, base_fill)
    if ext_fill is not None:
        out = refine(out, lifted.ext_component, ext_fill)
    return out


def build_t_partition(
    q: int, dims: Iterable[int], n: int, budget: Optional[int] = None
) -> Partition:
    """Build a partition whose set of component dimensions is exactly `dims`.

    With m = max(T), the first matching rule of this chain builds it:
      spread               T is a single dimension;
      lines-refined-base   n = 2m and 1 in T: the half base for T - {1},
                           with one smallest component split into lines;
      half base            n = 2m otherwise: the spread, a near-spread
                           refined recursively, or one search for T;
      gcd-split            n > 2m and some d in T divides gcd(n, 2m): a
                           d-spread of V_2m lifted across n - 2m, its two
                           blocks refined into a T-partition and a d-spread;
      triple-split         n >= 3m and some d in T divides n - 2m: the
                           T-partition of V_2m lifted and refined likewise;
      adjacent-sum         m > n/2, the two largest dimensions sum to n and
                           1 in T: a near-spread with some small components
                           refined into lines or fixed-plus-lines;
      top-split            m > n/2, n >= m + 2m' for the second largest m',
                           and a matching divisor: the (T - {m})-partition of
                           V_{n-m} lifted across m;
      typed-fallback       T = {a, n - a}: the near-spread.
    A gate first stops at the count vector with every dimension present,
    in lex order, that ruled_out lets through.  If none does, or no rule
    matches, UncoveredCase carries those count vectors, built only then.
    Every recursive build strictly decreases n.  The node budget is read
    as by find_partition, and a negative one raises ValueError up front.
    """
    T = tuple(sorted(set(int(d) for d in dims)))
    if not T or T[0] < 1:
        raise ValueError("dimension set must contain positive integers")
    if T[-1] > n:
        raise BadDimensions(f"dimension {T[-1]} exceeds the ambient dimension {n}")
    field_from_order(q)  # validates q before any heavier work
    budget = _node_budget(budget)
    vectors = (s for c in _classes(q, n, T, SOLVE_BUDGET) for s in c if all(s.x))
    if all(ruled_out(q, n, s.as_type()) for s in vectors):
        solutions = [annotate(s) for s in solve(q, n, T) if all(s.x)]
        if not solutions:
            detail = "the counting equation has no solution with every dimension present"
        else:
            detail = "every candidate count vector fails a necessary condition"
        raise UncoveredCase(
            f"no {set(T)}-partition of V_{n}(GF({q})) is possible: {detail}",
            solutions=solutions,
        )
    built = _rule_chain(q, T, n, budget)
    if built is None:
        raise UncoveredCase(
            f"parameters q={q}, T={set(T)}, n={n} match no construction rule "
            "(feasible counts exist; try the search directly)",
            solutions=[annotate(s) for s in solve(q, n, T) if all(s.x)],
        )
    return _finish(T, n, built)


def _rule_chain(q: int, T: Tuple[int, ...], n: int, budget: int) -> Optional[_Built]:
    nk = T[-1]
    if len(T) == 1:
        return "spread", spread(q, n, T[0]), {}

    if n == 2 * nk:
        if T[0] != 1:
            return _half_base(q, T, n, budget)
        # Enough components of the smallest remaining dimension survive,
        # because the minimum-count bound guarantees at least q + min(rest).
        rest = T[1:]
        inner = _finish(rest, n, _half_base(q, rest, n, budget))
        victim = _first_component_of_dim(inner, rest[0])
        out = refine(inner, victim, spread(q, victim.dim, 1))
        return "lines-refined-base", out, {"base": inner.provenance}

    if n > 2 * nk:
        g = math.gcd(n, 2 * nk)
        div = next((d for d in T if g % d == 0), None)
        if div is not None:
            out = _lift_split(
                spread(q, 2 * nk, div), n - 2 * nk,
                build_t_partition(q, T, 2 * nk, budget), spread(q, n - 2 * nk, div),
            )
            return "gcd-split", out, {"divisor": div}
        if n >= 3 * nk:
            div = next((d for d in T if (n - 2 * nk) % d == 0), None)
            if div is not None:
                inner = build_t_partition(q, T, 2 * nk, budget)
                out = _lift_split(inner, n - 2 * nk, inner, spread(q, n - 2 * nk, div))
                return "triple-split", out, {"divisor": div}

    if 2 * nk > n and n == nk + T[-2] and T[0] == 1:
        k = len(T)
        small_dim = n - nk
        out = near_spread(q, n, small_dim)
        victims = [c for c in out.components if c.dim == small_dim][: k - 2]
        if len(victims) < k - 2:
            raise AssertionError("not enough small components to convert")
        for target_dim, victim in zip(T[: k - 2], victims):
            sub = (
                spread(q, small_dim, 1)
                if target_dim == 1
                else fixed_plus_lines(q, small_dim, target_dim)
            )
            out = refine(out, victim, sub)
        return "adjacent-sum", out, {"converted": k - 2}

    if 2 * nk > n >= nk + 2 * T[-2]:
        g = math.gcd(n, 2 * T[-2])
        # The split leaves a block of dimension n - nk to carry the other
        # dimensions, so the chosen divisor must divide that block's gcd too.
        g_inner = math.gcd(n - nk, 2 * T[-2])
        div = next((d for d in T[:-1] if g % d == 0 and g_inner % d == 0), None)
        if div is not None:
            inner = build_t_partition(q, T[:-1], n - nk, budget)
            return "top-split", _lift_split(inner, nk, inner), {"divisor": div}

    # The two-dimension closed form, T = {a, n - a}.
    if len(T) == 2 and T[0] + T[1] == n:
        return "typed-fallback", near_spread(q, n, T[0]), {}
    return None


def _half_base(q: int, T: Tuple[int, ...], n: int, budget: int) -> _Built:
    """Construction at n = 2 * max(T) with all dimensions at least 2.

    A single dimension is the spread; otherwise a near-spread whose big
    component is refined recursively, and last one exact-cover search for
    the dimension set T.
    """
    if len(T) == 1:
        return "half-base-typed", spread(q, n, T[0]), {}
    for d in T[:-1]:
        if 2 * d >= n:
            continue
        for rest in (T, tuple(t for t in T if t != d)):
            try:
                inner = build_t_partition(q, rest, n - d, budget)
            except (UncoveredCase, NotDivisible, BadDimensions):
                continue
            ns = near_spread(q, n, d)
            out = refine(ns, _first_component_of_dim(ns, n - d), inner)
            if is_T_partition(out, T):
                return "half-base-refine", out, {"d": d}
    outcome = find_partition(q, n, T, budget=budget)
    if outcome.status == FOUND:
        return "half-base-search", outcome.partition, {"type": type_of(outcome.partition).format()}
    if outcome.status == BUDGET:
        raise BudgetExceeded(f"search for T={set(T)}, n={n} ran out of budget")
    raise UncoveredCase(
        f"all candidate types for T={set(T)}, n={n} were exhausted by search",
        solutions=[s for s in map(annotate, solve(q, n, T)) if all(s.x) and s.passes_all()],
    )
