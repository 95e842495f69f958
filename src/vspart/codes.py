"""Mixed-alphabet linear codes cut out of a partition.

For components V_1, ..., V_r, the code lives in V_1 x ... x V_r and
consists of the tuples whose componentwise sum is zero.  Distance is the
mixed Hamming distance: the number of coordinates in which two words
differ, each coordinate ranging over its own alphabet.  The code is the
image of a linear map, so the distance of two words is the weight of their
difference and the minimum distance is the minimum nonzero weight; that is
the one route the checker takes.  When the components really partition the
space, the code has |V_1 x ... x V_r| / q^n words, its radius-1 spheres
tile the product exactly and its minimum distance is at least 3; a
corrupted input fails at least one of these, which is what the checker
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import TooLarge
from .gf import FieldSpec
from .linalg import canonicalize, kernel_basis, subspace_vector_codes
from .partition import Partition

CODE_ENUM_LIMIT = 1 << 24
_WORD_CHUNK = 1 << 10
# Not used by the library; perfbench/tracing.py reads it when it installs.
PAIRWISE_SCAN_LIMIT = 3000


@dataclass(frozen=True)
class MixedCode:
    """Codewords over per-coordinate alphabets of sizes q^{n_i}.

    Coordinate i of a codeword is the integer encoding of the element of
    component i that it denotes; the length equals the component count.
    """

    field: FieldSpec
    n: int
    component_dims: Tuple[int, ...]
    codewords: Tuple[Tuple[int, ...], ...]

    @property
    def length(self) -> int:
        return len(self.component_dims)

    @property
    def alphabet_sizes(self) -> Tuple[int, ...]:
        return tuple(self.field.q**d for d in self.component_dims)

    @property
    def size(self) -> int:
        return len(self.codewords)


@dataclass(frozen=True)
class CodeReport:
    size: int
    expected_size_ok: bool   # |W| * q^n equals the product of alphabet sizes
    sphere_ok: bool          # |W| * (1 + sum(q^{n_i} - 1)) tiles the product
    min_distance: Optional[int]
    distance_ok: bool        # minimum distance at least 3 (vacuous below 2 words)

    @property
    def perfect(self) -> bool:
        # Disjoint components that miss part of V can pass the sphere and
        # distance checks; only the expected size sees that they do not span.
        return self.expected_size_ok and self.sphere_ok and self.distance_ok


def code_parameters(p: Partition) -> dict:
    """Code parameters derivable without enumerating codewords."""
    q = p.field.q
    dims = tuple(c.dim for c in p.components)
    product = 1
    for d in dims:
        product *= q**d
    return {
        "length": len(dims),
        "component_dims": list(dims),
        "alphabet_sizes": [q**d for d in dims],
        "size": product // q**p.n,
        "constraint": "componentwise sum equals zero",
    }


def code_from_partition(p: Partition) -> MixedCode:
    """Materialize the sum-to-zero code of a partition's components.

    The unknowns are the basis coefficients of every component, stacked, and
    the code is the kernel of the summation map into the ambient space.  A
    kernel vector code read as base-q digits (first digit most significant)
    gives each component one run of digits; a table of q^d vector codes per
    component turns that run into the coordinate of the word.  The codeword
    count is the product of the alphabet sizes divided by q^n, guarded at a
    product of 2^24.
    """
    field = p.field
    q = field.q
    dims = [c.dim for c in p.components]
    product = 1
    for d in dims:
        product *= q**d
    if product > CODE_ENUM_LIMIT:
        raise TooLarge("codeword enumeration beyond the 2^24 guard")
    columns = [row for c in p.components for row in c.basis]
    matrix = [[col[r] for col in columns] for r in range(p.n)]
    kernel = canonicalize(kernel_basis(matrix, field, len(columns)), field, len(columns))
    runs = []
    below = len(columns)
    for c in p.components:
        below -= c.dim
        runs.append(([0] + subspace_vector_codes(c), q**below, q**c.dim))
    ks = [0] + subspace_vector_codes(kernel)
    words: list = []
    # One column list per component, for a slice of the kernel at a time:
    # whole-kernel columns would add 8 bytes per word and component to the
    # peak memory.
    for start in range(0, len(ks), _WORD_CHUNK):
        chunk = ks[start : start + _WORD_CHUNK]
        cols = [[table[k // div % size] for k in chunk] for table, div, size in runs]
        # With no components every kernel vector is the empty word.
        words += zip(*cols) if cols else [()] * len(chunk)
    del ks  # freed before the words are copied into the code's tuple
    words.sort()
    return MixedCode(field, p.n, tuple(dims), tuple(words))


def verify_perfect(code: MixedCode) -> CodeReport:
    """Check the sphere-packing equality and the minimum distance.

    Both hold, with the expected size, exactly when the source components
    form a valid non-trivial partition; the report never raises.  The
    distance is the minimum nonzero weight.  That is the minimum distance of
    every code `code_from_partition` returns, corrupted inputs included: a
    word is a linear image of a kernel vector and each component's echelon
    basis is independent, so u - w is again a word and d(u, w) = wt(u - w).
    """
    q = code.field.q
    product = 1
    for a in code.alphabet_sizes:
        product *= a
    sphere = 1 + sum(a - 1 for a in code.alphabet_sizes)
    expected_size_ok = code.size * q**code.n == product
    sphere_ok = code.size * sphere == product
    zero = (0,) * code.length
    weights = [len(w) - w.count(0) for w in code.codewords if w != zero]
    min_distance = min(weights) if weights else None
    distance_ok = min_distance is None or min_distance >= 3
    return CodeReport(code.size, expected_size_ok, sphere_ok, min_distance, distance_ok)
