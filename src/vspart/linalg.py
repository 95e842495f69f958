"""Canonical linear algebra over GF(q).

Vectors are tuples of element codes.  A subspace is stored by its reduced
row echelon basis (unit pivots, zeros above and below each pivot), which is
unique per subspace, so two Subspace values are equal as sets exactly when
they compare equal.  The integer encoding of a vector reads the coordinates
as base-q digits with the first coordinate most significant, so tuple order
and code order agree.  Arithmetic goes through the field's add and mul rows
(`FieldSpec.rows`), and a meet reduces the smaller basis against the larger
subspace's echelon basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .errors import BudgetExceeded, DimensionMismatch
from .gf import FieldSpec

Vector = Tuple[int, ...]

SUBSPACE_ENUM_BUDGET = 2_000_000


@dataclass(frozen=True, slots=True)
class Subspace:
    """A subspace of V_n(q) in canonical reduced echelon form."""

    field: FieldSpec
    n: int
    basis: Tuple[Vector, ...]
    pivots: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def sort_key(self) -> Tuple[int, ...]:
        """Flattened basis, the canonical ordering key for components."""
        return tuple(x for row in self.basis for x in row)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, n={self.n}, q={self.field.q})"


def encode_vector(coords: Sequence[int], q: int) -> int:
    code = 0
    for c in coords:
        code = code * q + c
    return code


def decode_vector(code: int, q: int, n: int) -> Vector:
    coords = []
    for _ in range(n):
        coords.append(code % q)
        code //= q
    return tuple(reversed(coords))


def vec_add(field: FieldSpec, u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_scale(field: FieldSpec, c: int, v: Sequence[int]) -> Vector:
    return tuple(field.mul(c, a) for a in v)


def _check_vectors(vectors: Iterable[Sequence[int]], field: FieldSpec, n: int) -> List[List[int]]:
    rows = []
    for v in vectors:
        row = list(v)
        if len(row) != n:
            raise DimensionMismatch(f"vector {tuple(v)} does not live in dimension {n}")
        for x in row:
            if not 0 <= x < field.q:
                raise DimensionMismatch(f"coordinate {x} is not a code of {field}")
        rows.append(row)
    return rows


def _rref(rows: List[List[int]], field: FieldSpec, n: int) -> Tuple[Tuple[Vector, ...], Tuple[int, ...]]:
    add, mul = field.rows()
    m = rows
    pivots: List[int] = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        lead = top[c]
        if lead != 1:
            scale = mul[field.inv(lead)]
            top = m[r] = [scale[x] for x in top]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                scale = mul[field.neg(f)]
                m[i] = [add[x][scale[y]] for x, y in zip(m[i], top)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    basis = tuple(tuple(m[i]) for i in range(r))
    return basis, tuple(pivots)


def canonicalize(vectors: Iterable[Sequence[int]], field: FieldSpec, n: int) -> Subspace:
    """Span of the given vectors in canonical reduced echelon form.

    Idempotent: canonicalizing a canonical basis returns the same basis.
    """
    rows = _check_vectors(vectors, field, n)
    basis, pivots = _rref(rows, field, n)
    return Subspace(field, n, basis, pivots)


def full_space(field: FieldSpec, n: int) -> Subspace:
    return coordinate_subspace(field, n, range(n))


def coordinate_subspace(field: FieldSpec, n: int, cols: Iterable[int]) -> Subspace:
    """Span of the unit vectors at the given coordinate positions."""
    cols = tuple(sorted(cols))
    basis = tuple(tuple(1 if j == c else 0 for j in range(n)) for c in cols)
    return Subspace(field, n, basis, cols)


def _require_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.n != b.n:
        raise DimensionMismatch("subspaces live in different ambient spaces")


def join(a: Subspace, b: Subspace) -> Subspace:
    _require_same_ambient(a, b)
    return canonicalize(a.basis + b.basis, a.field, a.n)


def _residue(v: Sequence[int], s: Subspace) -> List[int]:
    """v reduced modulo s: zero at s's pivots, and zero exactly when v is in s."""
    field = s.field
    add, mul = field.rows()
    w = list(v)
    for row, pc in zip(s.basis, s.pivots):
        c = w[pc]
        if c != 0:
            scale = mul[field.neg(c)]
            w = [add[x][scale[y]] for x, y in zip(w, row)]
    return w


def combination(field: FieldSpec, coeffs: Sequence[int], rows: Sequence[Sequence[int]]) -> Vector:
    """The sum of coeffs[i] * rows[i]; rows is non-empty."""
    add, mul = field.rows()
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c != 0:
            scale = mul[c]
            acc = [add[x][scale[y]] for x, y in zip(acc, row)]
    return tuple(acc)


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection: the combinations of the smaller basis whose residue
    modulo the larger subspace is zero."""
    _require_same_ambient(a, b)
    small, big = (a, b) if a.dim <= b.dim else (b, a)
    field, n, k = a.field, a.n, small.dim
    rows = [
        _residue(row, big) + [1 if j == i else 0 for j in range(k)]
        for i, row in enumerate(small.basis)
    ]
    basis, pivots = _rref(rows, field, n + k)
    # Rows pivoting right of column n have zero residue: their last k
    # entries span the coefficients of small's vectors that lie in big.
    meet_rows = [combination(field, row[n:], small.basis) for row, pc in zip(basis, pivots) if pc >= n]
    return canonicalize(meet_rows, field, n)


def contains(s: Subspace, v: Sequence[int]) -> bool:
    if len(v) != s.n:
        raise DimensionMismatch(f"vector of length {len(v)} in dimension {s.n}")
    return not any(_residue(v, s))


def kernel_basis(rows: Sequence[Sequence[int]], field: FieldSpec, ncols: int) -> List[Vector]:
    """Basis of the right null space of the given matrix."""
    basis, pivots = _rref([list(r) for r in rows], field, ncols)
    pivot_set = set(pivots)
    out = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for row, pc in zip(basis, pivots):
            v[pc] = field.neg(row[free])
        out.append(tuple(v))
    return out


def complement(s: Subspace) -> Subspace:
    """A complement of s: meet trivial and dimensions summing to n.

    The orthogonal complement under the standard dot product is returned
    when it meets s trivially; otherwise (possible over small fields for
    self-orthogonal directions) the deterministic fallback spanned by the
    unit vectors at the non-pivot coordinates is used.
    """
    field, n = s.field, s.n
    if s.dim == 0:
        return full_space(field, n)
    ortho = canonicalize(kernel_basis(s.basis, field, n), field, n)
    if canonicalize(s.basis + ortho.basis, field, n).dim == n:
        return ortho
    free_cols = [c for c in range(n) if c not in set(s.pivots)]
    return coordinate_subspace(field, n, free_cols)


def span_codes(field: FieldSpec, n: int, rows: Sequence[int]) -> List[int]:
    """Integer codes of the nonzero vectors spanned by independent rows.

    The rows are vector codes.  The vector with coefficients (a_1, ..., a_d)
    on the rows sits at index a_1 q^{d-1} + ... + a_d - 1, first coefficient
    most significant.  In characteristic 2 a vector code is the concatenation
    of e-bit element codes and element addition is XOR, so codes add by XOR:
    over GF(2) the rows themselves, over GF(2^e) their q - 1 nonzero
    multiples.  Other fields add coordinate tuples through the field's rows,
    and encode the sums with the last row as they form them.
    """
    q = field.q
    if field.p == 2:
        codes = [0]
        if field.e == 1:
            for rc in reversed(rows):
                codes += [c ^ rc for c in codes]
        else:
            mul = field.rows()[1]
            for rc in reversed(rows):
                row = decode_vector(rc, q, n)
                multiples = [0] + [encode_vector([mul[c][x] for x in row], q) for c in range(1, q)]
                codes = [m ^ x for m in multiples for x in codes]
        return codes[1:]
    if not rows:
        return []
    add, mul = field.rows()
    multiples = [[[mul[c][x] for x in decode_vector(rc, q, n)] for c in range(q)] for rc in rows]
    vectors = [(0,) * n]
    for scaled in multiples[:-1]:
        vectors = [tuple([add[x][y] for x, y in zip(v, sr)]) for v in vectors for sr in scaled]
    codes = [encode_vector([add[x][y] for x, y in zip(v, sr)], q) for v in vectors for sr in multiples[-1]]
    return codes[1:]


def subspace_vector_codes(s: Subspace) -> List[int]:
    """Integer codes of the nonzero vectors of s.

    The vector with basis coefficients (a_1, ..., a_d) sits at index
    a_1 q^{d-1} + ... + a_d - 1, so `[0] + subspace_vector_codes(s)` maps
    coefficient digits, first most significant, to vector codes.
    """
    q = s.field.q
    return span_codes(s.field, s.n, [encode_vector(row, q) for row in s.basis])


def codes_mask(codes: Iterable[int]) -> int:
    """Bitmask with bit c set for each of the given codes c."""
    m = 0
    for c in codes:
        m |= 1 << c
    return m


def nonzero_mask(s: Subspace) -> int:
    """Bitmask with one bit per nonzero vector of s, indexed by vector code."""
    return codes_mask(subspace_vector_codes(s))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of V_n(q)."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise AssertionError(f"Gaussian binomial [{n} {k}]_{q} is not an integer")
    return num // den


def echelon_rows(field: FieldSpec, n: int, k: int, end: int) -> List[Tuple[int, ...]]:
    """Every k reduced echelon rows of V_n(q) that pivot left of column end.

    Each choice is the tuple of its row codes, rows in pivot order, and the
    list is sorted.  A row has its leading 1 at its pivot and zeros at every
    pivot column and at column `end` (if end < n); each other column right
    of its pivot takes every field element.  Row codes are base-q with the
    first coordinate most significant, so tuple order is the order of
    Subspace.sort_key.
    """
    q = field.q
    out: List[Tuple[int, ...]] = []
    for pivots in itertools.combinations(range(end), k):
        zero_cols = {*pivots, end}
        row_choices = []
        for pc in pivots:
            row_codes = [q ** (n - 1 - pc)]
            for j in range(pc + 1, n):
                if j not in zero_cols:
                    w = q ** (n - 1 - j)
                    row_codes = [rc + a * w for rc in row_codes for a in field.elements()]
            row_choices.append(row_codes)
        out.extend(itertools.product(*row_choices))
    out.sort()
    return out


def echelon_bases(field: FieldSpec, n: int, d: int) -> List[Tuple[int, ...]]:
    """The reduced echelon basis of every d-dimensional subspace of V_n(q),
    as sorted tuples of row codes."""
    return echelon_rows(field, n, d, n)


def echelon_group(field: FieldSpec, n: int, d: int, v: int) -> List[Tuple[int, ...]]:
    """The bases of echelon_bases(field, n, d) whose last row is v, in order.

    These are the d-dimensional subspaces whose least nonzero vector has
    code v (1 <= v < q^n).  The last echelon row is that vector, so the
    list is empty unless v has a leading 1, at some column `lead`; the
    other rows are echelon_rows(field, n, d - 1, lead).
    """
    q = field.q
    lead, top = n - 1, 1
    while v >= top * q:
        lead, top = lead - 1, top * q
    if v // top != 1:
        return []
    return [rows + (v,) for rows in echelon_rows(field, n, d - 1, lead)]


def enumerate_subspaces(
    field: FieldSpec, n: int, d: int, budget: int | None = SUBSPACE_ENUM_BUDGET
) -> List[Subspace]:
    """Every d-dimensional subspace of V_n(q), in canonical-basis lex order.

    The count always equals the Gaussian binomial; a budget (None disables
    the check) guards against accidentally huge enumerations.
    """
    total = gaussian_binomial(n, d, field.q)
    if budget is not None and total > budget:
        raise BudgetExceeded(f"{total} subspaces exceed the budget {budget}")
    q = field.q
    out = []
    for rows in echelon_bases(field, n, d):
        basis = tuple(decode_vector(rc, q, n) for rc in rows)
        pivots = tuple(row.index(1) for row in basis)
        out.append(Subspace(field, n, basis, pivots))
    if len(out) != total:
        raise AssertionError(f"enumerated {len(out)} subspaces, expected {total}")
    return out
