"""Resolvable block designs cut out of a partition.

The points are all q^n vectors; the blocks are every coset of every
component.  Blocks of one component form a resolution class partitioning
the points, every pair of distinct points lies in exactly one block, and
translation by any fixed vector permutes the blocks within each class.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .errors import TooLarge
from .gf import FieldSpec
from .linalg import decode_vector, encode_vector, subspace_vector_codes, vec_add
from .partition import Partition

DESIGN_POINT_LIMIT = 1 << 16


@dataclass(frozen=True)
class CosetDesign:
    """Blocks grouped into one resolution class per component.

    Blocks are sorted tuples of point codes; the block containing 0 in each
    class is the component itself.
    """

    field: FieldSpec
    n: int
    classes: Tuple[Tuple[Tuple[int, ...], ...], ...]

    @property
    def point_count(self) -> int:
        return self.field.q**self.n

    @property
    def block_count(self) -> int:
        return sum(len(cls) for cls in self.classes)


@dataclass(frozen=True)
class DesignReport:
    pair_ok: bool          # every pair of distinct points in exactly one block
    classes_ok: bool       # each class partitions the points with uniform size
    translation_ok: bool   # translations permute blocks inside each class
    class_count: int
    block_sizes: Tuple[int, ...]

    @property
    def valid(self) -> bool:
        return self.pair_ok and self.classes_ok and self.translation_ok


def design_from_partition(p: Partition) -> CosetDesign:
    field = p.field
    q = field.q
    total = q**p.n
    if total > DESIGN_POINT_LIMIT:
        raise TooLarge("design enumeration beyond the 2^16 point guard")
    add = _vector_add(field, p.n)
    classes: List[Tuple[Tuple[int, ...], ...]] = []
    for c in p.components:
        members = [0] + subspace_vector_codes(c)
        seen = bytearray(total)
        blocks = []
        # Each block is found at its least point, so blocks come out sorted.
        for v in range(total):
            if seen[v]:
                continue
            block = sorted(add(v, m) for m in members)
            for code in block:
                seen[code] = 1
            blocks.append(tuple(block))
        classes.append(tuple(blocks))
    return CosetDesign(field, p.n, tuple(classes))


def verify_design(d: CosetDesign) -> DesignReport:
    """Check resolvability, the pairs-once property, and translation invariance.

    The pairs-once check runs through difference vectors: a pair {x, y}
    lies in a block of class i exactly when x - y belongs to component i,
    so it suffices that every nonzero vector belongs to exactly one class's
    zero block.  A point code outside 0..q^n-1 fails the class check and
    the translation check.
    """
    field, n = d.field, d.n
    q = field.q
    total = q**n
    zero_blocks = []
    classes_ok = True
    in_range = True
    block_sizes = []
    for cls in d.classes:
        sizes = {len(b) for b in cls}
        covered = bytearray(total)
        ok = len(sizes) == 1
        for b in cls:
            for pt in b:
                if not 0 <= pt < total:
                    ok = in_range = False
                elif covered[pt]:
                    ok = False
                else:
                    covered[pt] = 1
        if not ok or 0 in covered:
            classes_ok = False
        size = sizes.pop() if len(sizes) == 1 else 0
        block_sizes.append(size)
        zero_blocks.append(next((set(b) for b in cls if 0 in b), set()))
    hits = [0] * total
    for zb in zero_blocks:
        for v in zb:
            if 0 < v < total:
                hits[v] += 1
    pair_ok = hits.count(1) == total - 1
    translation_ok = in_range
    add = _vector_add(field, n)
    for t in _translation_samples(total) if in_range else ():
        # The code permutation x -> x + t, computed once per sample.
        shift = [add(x, t) for x in range(total)]
        for cls in d.classes:
            if {tuple(sorted([shift[x] for x in b])) for b in cls} != set(cls):
                translation_ok = False
    return DesignReport(pair_ok, classes_ok, translation_ok, len(d.classes), tuple(block_sizes))


def _vector_add(field: FieldSpec, n: int) -> Callable[[int, int], int]:
    """The sum of two vector codes of V_n(q), as a code.

    In characteristic 2 a vector code is the concatenation of e-bit element
    codes and element addition is XOR, so the sum is the XOR of the codes.
    Other fields add the coordinate tuples.
    """
    if field.p == 2:
        return operator.xor
    q = field.q
    points = [decode_vector(v, q, n) for v in range(q**n)]
    return lambda u, v: encode_vector(vec_add(field, points[u], points[v]), q)


def _translation_samples(total: int) -> List[int]:
    """A deterministic spot-check sample of translation vectors."""
    picks = {1, total - 1, total // 2}
    return sorted(v for v in picks if 1 <= v < total)
