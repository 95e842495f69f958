"""Partitions of V_n(q): data model, verification, induction, refinement, bounds.

A partition is a set of nonzero subspaces (the components) covering every
nonzero vector exactly once.  Components are kept in canonical order
(lexicographic on the flattened echelon basis) so equal partitions are
byte-identical when serialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterable, Optional, Tuple

from .errors import (
    DimensionMismatch,
    InvalidSubPartition,
    NotAComponent,
    TrivialPartition,
    ZeroSubspace,
)
from .gf import FieldSpec
from .linalg import (
    Subspace,
    Vector,
    canonicalize,
    combination,
    complement,
    decode_vector,
    full_space,
    meet,
    nonzero_mask,
    subspace_vector_codes,
)

# Up to this ambient size q^n, verification marks every component's vector
# codes in one q^n-byte array (pairwise masks only to name a failing pair).
# Above it, a correctly counted input is scanned the same way when its
# pairwise meets would cost more than the q^n marks; pairwise meets plus the
# counting identity decide the rest.
FULL_SCAN_LIMIT = 1 << 20


@dataclass(frozen=True)
class PartitionType:
    """Type signature [(x_1, n_1), ..., (x_k, n_k)]: x_i components of dimension n_i.

    Dimensions are strictly increasing; zero multiplicities are allowed in
    a request (they assert the absence of that dimension).
    """

    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        dims = [d for _, d in self.pairs]
        if any(d < 1 for d in dims):
            raise ValueError("dimensions must be positive")
        if any(x < 0 for x, _ in self.pairs):
            raise ValueError("multiplicities must be non-negative")
        if any(a >= b for a, b in zip(dims, dims[1:])):
            raise ValueError("dimensions must be strictly increasing")

    @classmethod
    def of(cls, *pairs: Tuple[int, int]) -> "PartitionType":
        return cls(tuple((int(x), int(d)) for x, d in pairs))

    @classmethod
    def parse(cls, text: str) -> "PartitionType":
        """Parse the CLI syntax, e.g. "1x2,4x3" for [(1,2),(4,3)]."""
        pairs = []
        for token in text.split(","):
            x, _, d = token.strip().partition("x")
            try:
                pairs.append((int(x), int(d)))
            except ValueError:
                raise ValueError(f"expected pairs such as 1x2,4x3, got {text!r}") from None
        pairs.sort(key=lambda p: p[1])
        return cls(tuple(pairs))

    def format(self) -> str:
        return ",".join(f"{x}x{d}" for x, d in self.pairs)

    def normalized(self) -> "PartitionType":
        """Drop zero multiplicities."""
        return PartitionType(tuple((x, d) for x, d in self.pairs if x > 0))

    @property
    def r(self) -> int:
        return sum(x for x, _ in self.pairs)

    def point_count(self, q: int) -> int:
        return sum(x * (q**d - 1) for x, d in self.pairs)

    def __str__(self) -> str:
        return "[" + ", ".join(f"({x},{d})" for x, d in self.pairs) + "]"


@dataclass(frozen=True)
class Partition:
    """A (possibly unverified) set of components of V_n(q).

    The constructor normalizes component order and checks only structural
    well-formedness; use verify() for the partition property itself.
    Provenance is free-form metadata (construction rule, sub-calls) and is
    ignored by equality.
    """

    field: FieldSpec
    n: int
    components: Tuple[Subspace, ...]
    provenance: Optional[dict] = dataclass_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        comps = tuple(sorted(self.components, key=Subspace.sort_key))
        for c in comps:
            if c.field != self.field or c.n != self.n:
                raise DimensionMismatch("component outside the ambient space")
            if c.dim == 0:
                raise ValueError("the zero subspace is not a legal component")
        object.__setattr__(self, "components", comps)

    @property
    def r(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, q={self.field.q}, r={self.r})"


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    r: int
    counting_ok: bool
    disjoint_ok: bool
    cover_ok: bool
    offending_pair: Optional[Tuple[int, int]] = None
    witness: Optional[Vector] = None
    uncovered: Optional[Vector] = None

    def describe(self) -> str:
        if self.valid:
            return f"valid partition with {self.r} components"
        if not self.disjoint_ok:
            return (
                f"components {self.offending_pair[0]} and {self.offending_pair[1]} "
                f"share the nonzero vector {self.witness}"
            )
        if not self.cover_ok and self.uncovered is not None:
            return f"vector {self.uncovered} is not covered"
        return "component sizes do not account for every nonzero vector"


def trivial_partition(field: FieldSpec, n: int) -> Partition:
    return Partition(field, n, (full_space(field, n),))


def verify(p: Partition) -> VerificationReport:
    """Check the partition property: pairwise trivial meets and full cover.

    Up to ambient size FULL_SCAN_LIMIT this is one pass: the vector codes
    of every component are marked in a byte per vector of V_n(q), stopping
    at the first code marked twice; the lowest unmarked nonzero code is the
    uncovered vector.  Only when a code repeats does the pairwise mask scan
    run, to name the first overlapping pair in nested order and their
    lowest shared vector.

    Above FULL_SCAN_LIMIT the same pass runs for an input whose sizes add
    up to q^n - 1 and whose r(r-1)/2 pairwise meets, at n or more steps
    each, outnumber the q^n marks.  Every valid partition with r > 1 is
    such an input, since r >= q^(n/2) + 1.  Any other input above the
    limit, and a scanned one in which a code repeats, is decided by
    pairwise meets plus the counting identity; an overlap is named by its
    first pair in nested order and the first basis vector of their meet.
    """
    field, n = p.field, p.n
    q = field.q
    counting_ok = sum(q**c.dim - 1 for c in p.components) == q**n - 1
    small = q**n <= FULL_SCAN_LIMIT
    if small or (counting_ok and p.r * (p.r - 1) // 2 * n > q**n):
        seen = _marked_codes(p)
        if seen is not None:
            code = seen.find(0, 1)
            if code >= 0:
                return VerificationReport(
                    False, p.r, counting_ok, True, False, uncovered=decode_vector(code, q, n)
                )
            return VerificationReport(counting_ok, p.r, counting_ok, True, True)
        if small:
            return _first_overlap(p, counting_ok)
    for i in range(p.r):
        for j in range(i + 1, p.r):
            m = meet(p.components[i], p.components[j])
            if m.dim > 0:
                return VerificationReport(
                    False, p.r, counting_ok, False, False,
                    offending_pair=(i, j), witness=m.basis[0],
                )
    return VerificationReport(counting_ok, p.r, counting_ok, True, counting_ok)


def _marked_codes(p: Partition) -> Optional[bytearray]:
    """A byte per vector code of V_n(q), set for every code of every
    component; None as soon as a code is marked twice."""
    seen = bytearray(p.field.q**p.n)
    for c in p.components:
        for code in subspace_vector_codes(c):
            if seen[code]:
                return None
            seen[code] = 1
    return seen


def _first_overlap(p: Partition, counting_ok: bool) -> VerificationReport:
    """The failure report for overlapping components: the first pair (i, j)
    in nested-loop order and the lowest vector code they share."""
    masks = [nonzero_mask(c) for c in p.components]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            overlap = masks[i] & masks[j]
            if overlap:
                code = (overlap & -overlap).bit_length() - 1
                return VerificationReport(
                    False, p.r, counting_ok, False, False,
                    offending_pair=(i, j), witness=decode_vector(code, p.field.q, p.n),
                )
    raise AssertionError("a repeated vector code but no overlapping pair")


def type_of(p: Partition) -> PartitionType:
    counts: Dict[int, int] = {}
    for c in p.components:
        counts[c.dim] = counts.get(c.dim, 0) + 1
    return PartitionType(tuple((counts[d], d) for d in sorted(counts)))


def is_T_partition(p: Partition, dims: Iterable[int]) -> bool:
    """True when the set of component dimensions is exactly the given set."""
    return {c.dim for c in p.components} == set(dims)


def induce(p: Partition, w: Subspace) -> Partition:
    """The partition of w cut out by p, re-expressed in w's coordinates.

    Every component meeting w nontrivially contributes its intersection,
    written in the coordinate system of w's canonical basis (for an echelon
    basis these coordinates are just the pivot-position entries).
    """
    if w.field != p.field or w.n != p.n:
        raise DimensionMismatch("subspace outside the partition's ambient space")
    if w.dim == 0:
        raise ZeroSubspace("cannot induce a partition on the zero subspace")
    field = p.field
    comps = []
    for c in p.components:
        m = meet(c, w)
        if m.dim == 0:
            continue
        local_rows = [tuple(row[pc] for pc in w.pivots) for row in m.basis]
        comps.append(canonicalize(local_rows, field, w.dim))
    out = Partition(field, w.dim, tuple(comps))
    report = verify(out)
    if not report.valid:
        raise ValueError(f"induced components do not partition w: {report.describe()}")
    return out


def refine(p: Partition, victim: Subspace, sub: Partition) -> Partition:
    """Replace one component by the components of a partition of it.

    The sub-partition lives in the victim's own coordinates (ambient
    dimension equal to the victim's dimension) and is lifted back through
    the victim's basis.
    """
    if victim not in p.components:
        raise NotAComponent("the subspace to refine is not a component")
    if sub.field != p.field or sub.n != victim.dim:
        raise InvalidSubPartition(
            f"replacement partitions a space of dimension {sub.n}, "
            f"but the victim has dimension {victim.dim}"
        )
    if not verify(sub).valid:
        raise InvalidSubPartition("replacement is not a valid partition")
    field = p.field
    lifted = [
        canonicalize([combination(field, local, victim.basis) for local in c.basis], field, p.n)
        for c in sub.components
    ]
    comps = tuple(c for c in p.components if c != victim) + tuple(lifted)
    out = Partition(field, p.n, comps)
    report = verify(out)
    if not report.valid:
        raise InvalidSubPartition(f"refinement broke the partition: {report.describe()}")
    return out


@dataclass(frozen=True)
class BoundReport:
    """Bounds and divisibility facts tied to the minimum component dimension.

    All fields are recomputed from the partition plus one canonical choice
    of complement W of the first minimum-dimension component: s_prime
    counts the minimum-dimension components disjoint from W.
    """

    t: int
    s: int
    r: int
    s_lower: int              # q + t
    r_lower: int              # q^t + 1
    r_upper: int              # floor((q^n - 1) / (q^t - 1))
    s_ok: bool
    r_ok: bool
    residue_ok: bool          # r == 1 mod q^t
    s_prime: int
    s_prime_ok: bool          # q divides s_prime and s_prime >= 1
    induced_counting_ok: bool # component meets with W account for all of W
    complement_basis: Tuple[Vector, ...]

    @property
    def all_ok(self) -> bool:
        return self.s_ok and self.r_ok and self.residue_ok and self.s_prime_ok and self.induced_counting_ok


def bound_report(p: Partition) -> BoundReport:
    """Evaluate the minimum-dimension count bounds on a non-trivial partition."""
    if p.r < 2:
        raise TrivialPartition("bounds require at least two components")
    field, n = p.field, p.n
    q = field.q
    dims = [c.dim for c in p.components]
    t = min(dims)
    s = dims.count(t)
    r = p.r
    s_lower = q + t
    r_lower = q**t + 1
    r_upper = (q**n - 1) // (q**t - 1)
    first_min = next(c for c in p.components if c.dim == t)
    w = complement(first_min)
    s_prime = 0
    induced_points = 0
    for c in p.components:
        m = meet(c, w)
        if m.dim == 0:
            if c.dim == t:
                s_prime += 1
        else:
            induced_points += q**m.dim - 1
    return BoundReport(
        t=t,
        s=s,
        r=r,
        s_lower=s_lower,
        r_lower=r_lower,
        r_upper=r_upper,
        s_ok=s >= s_lower,
        r_ok=r_lower <= r <= r_upper,
        residue_ok=r % q**t == 1,
        s_prime=s_prime,
        s_prime_ok=s_prime >= 1 and s_prime % q == 0,
        induced_counting_ok=induced_points == q**w.dim - 1,
        complement_basis=w.basis,
    )
