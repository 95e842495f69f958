"""Subspace canonicalization, lattice operations, enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vspart import partition
from vspart.construct import spread
from vspart.errors import BudgetExceeded, DimensionMismatch
from vspart.gf import field_from_order, make_field
from vspart.io import dumps
from vspart.linalg import (
    Subspace,
    canonicalize,
    combination,
    complement,
    contains,
    coordinate_subspace,
    decode_vector,
    echelon_bases,
    echelon_group,
    encode_vector,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    join,
    kernel_basis,
    meet,
    span_codes as vector_span_codes,
    subspace_vector_codes,
    vec_add,
    vec_scale,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)


def zero_space(field, n):
    return Subspace(field, n, (), ())


def enumerate_nonzero(s):
    """The nonzero vectors of s, ordered by integer encoding."""
    return [decode_vector(c, s.field.q, s.n) for c in sorted(subspace_vector_codes(s))]


def span_codes(vectors, field, n):
    """Oracle: the span as a set of vector codes, by closing under the operations."""
    vecs = {(0,) * n}
    frontier = [tuple(v) for v in vectors]
    changed = True
    while changed:
        changed = False
        for v in list(vecs):
            for w in frontier:
                for c in field.elements():
                    u = vec_add(field, v, vec_scale(field, c, w))
                    if u not in vecs:
                        vecs.add(u)
                        changed = True
    return {encode_vector(v, field.q) for v in vecs}


def test_canonicalize_full_space():
    s = canonicalize([(1, 0), (0, 1)], GF2, 2)
    assert s.dim == 2
    assert s == full_space(GF2, 2)


def test_canonicalize_duplicate_rows():
    s = canonicalize([(1, 1, 0), (1, 1, 0)], GF2, 3)
    assert s.dim == 1
    assert s.basis == ((1, 1, 0),)


def test_canonicalize_proportional_rows_gf3():
    # (0,2,1) = 2 * (0,1,2) over GF(3), so the span is one-dimensional.
    vectors = [(0, 1, 2), (0, 2, 1)]
    oracle_dim = 0
    size = len(span_codes(vectors, GF3, 3))
    while 3**oracle_dim < size:
        oracle_dim += 1
    assert oracle_dim == 1
    s = canonicalize(vectors, GF3, 3)
    assert s.dim == 1
    assert s.basis == ((0, 1, 2),)
    assert s.pivots == (1,)


def test_canonicalize_idempotent():
    s = canonicalize([(1, 2, 0), (0, 1, 1)], GF3, 3)
    again = canonicalize(s.basis, GF3, 3)
    assert again == s


def test_canonicalize_rejects_bad_vectors():
    with pytest.raises(DimensionMismatch):
        canonicalize([(1, 0, 0)], GF2, 2)
    with pytest.raises(DimensionMismatch):
        canonicalize([(2, 0)], GF2, 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=0, max_size=4))
def test_canonical_basis_determined_by_span_gf3(rows):
    s = canonicalize(rows, GF3, 4)
    assert canonicalize(s.basis, GF3, 4) == s
    assert span_codes(s.basis, GF3, 4) == span_codes(rows, GF3, 4)


def test_meet_idempotent():
    s = canonicalize([(1, 0, 1), (0, 1, 1)], GF2, 3)
    assert meet(s, s) == s
    assert join(s, s) == s


def test_meet_join_coordinate_subspaces():
    a = coordinate_subspace(GF2, 4, [0, 1])
    b = coordinate_subspace(GF2, 4, [2, 3])
    assert meet(a, b).dim == 0
    assert join(a, b) == full_space(GF2, 4)


def test_dim_formula_all_pairs_v4_gf2():
    subs = [s for d in range(5) for s in enumerate_subspaces(GF2, 4, d)]
    assert len(subs) == 67
    for a, b in itertools.combinations(subs, 2):
        assert a.dim + b.dim == meet(a, b).dim + join(a, b).dim


def test_meet_matches_element_oracle():
    subs3 = enumerate_subspaces(GF2, 5, 3)
    a, b = subs3[7], subs3[40]
    m = meet(a, b)
    sa = span_codes(a.basis, GF2, 5)
    sb = span_codes(b.basis, GF2, 5)
    assert span_codes(m.basis, GF2, 5) == sa & sb


def test_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        meet(full_space(GF2, 2), full_space(GF2, 3))
    with pytest.raises(DimensionMismatch):
        join(full_space(GF2, 2), full_space(GF3, 2))


def test_contains():
    s = canonicalize([(1, 0, 1)], GF2, 3)
    assert contains(s, (1, 0, 1))
    assert contains(s, (0, 0, 0))
    assert not contains(s, (1, 1, 0))


def test_enumerate_nonzero_gf2_line():
    s = canonicalize([(1, 1)], GF2, 2)
    assert enumerate_nonzero(s) == [(1, 1)]


def test_enumerate_nonzero_gf3_line_scalar_multiples():
    s = canonicalize([(1, 2)], GF3, 2)
    assert enumerate_nonzero(s) == [(1, 2), (2, 1)]


def test_enumerate_nonzero_count():
    s = canonicalize([(1, 0, 0, 1), (0, 1, 1, 0)], GF2, 4)
    assert len(enumerate_nonzero(s)) == 3


@pytest.mark.parametrize("field,n,d", [(GF2, 4, 2), (GF2, 5, 3), (GF3, 3, 2), (GF4, 3, 2)])
def test_subspace_vector_codes_in_coefficient_digit_order(field, n, d):
    # Index i of [0] + codes is the vector whose basis coefficients are the
    # base-q digits of i, first digit most significant.
    q = field.q
    for s in enumerate_subspaces(field, n, d):
        table = [0] + subspace_vector_codes(s)
        for i, coeffs in enumerate(itertools.product(range(q), repeat=d)):
            v = (0,) * n
            for a, row in zip(coeffs, s.basis):
                v = vec_add(field, v, vec_scale(field, a, row))
            assert table[i] == encode_vector(v, q)


def test_enumerate_subspaces_lines_of_v2_gf2():
    subs = enumerate_subspaces(GF2, 2, 1)
    assert [s.basis for s in subs] == [((0, 1),), ((1, 0),), ((1, 1),)]


@pytest.mark.parametrize(
    "field,n,d,count",
    [(GF2, 4, 2, 35), (GF3, 3, 1, 13)],
)
def test_enumerate_subspaces_counts(field, n, d, count):
    # Oracle: the Gaussian binomial, computed from its product formula.
    assert gaussian_binomial(n, d, field.q) == count
    subs = enumerate_subspaces(field, n, d)
    assert len(subs) == count
    assert len(set(subs)) == count


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_subspace_counts_match_gaussian_binomial(q, n):
    field = make_field(2, 2) if q == 4 else make_field(q, 1)
    for d in range(n + 1):
        assert len(enumerate_subspaces(field, n, d)) == gaussian_binomial(n, d, q)


def test_enumerate_subspaces_sorted_canonically():
    subs = enumerate_subspaces(GF3, 3, 2)
    keys = [s.sort_key() for s in subs]
    assert keys == sorted(keys)


def reference_subspaces(field, n, d):
    """Reference enumeration: fill the free cells of every pivot pattern,
    then sort by the flattened basis."""
    out = []
    for pivots in itertools.combinations(range(n), d):
        free_cells = [
            (i, j) for i in range(d) for j in range(pivots[i] + 1, n) if j not in pivots
        ]
        for values in itertools.product(field.elements(), repeat=len(free_cells)):
            rows = [[1 if j == pc else 0 for j in range(n)] for pc in pivots]
            for (i, j), v in zip(free_cells, values):
                rows[i][j] = v
            out.append(Subspace(field, n, tuple(map(tuple, rows)), pivots))
    return sorted(out, key=Subspace.sort_key)


@pytest.mark.parametrize(
    "field,n", [(GF2, 6), (GF3, 4), (GF4, 3), (make_field(5, 1), 3), (make_field(2, 3), 2)]
)
def test_enumerate_subspaces_matches_reference(field, n):
    for d in range(n + 1):
        assert enumerate_subspaces(field, n, d, budget=None) == reference_subspaces(field, n, d)


@pytest.mark.parametrize(
    "field,n", [(GF2, 5), (GF3, 4), (GF4, 3), (make_field(5, 1), 3)]
)
def test_echelon_group_is_echelon_bases_by_last_row(field, n):
    """Every nonzero v, leading digit other than 1 and v with no room for
    d - 1 more pivots included."""
    for d in range(1, n + 1):
        bases = echelon_bases(field, n, d)
        for v in range(1, field.q**n):
            assert echelon_group(field, n, d, v) == [b for b in bases if b[-1] == v]


def test_enumerate_subspaces_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_subspaces(GF2, 10, 5, budget=10)


def test_complement_coordinate_case():
    s = coordinate_subspace(GF2, 5, [0, 1])
    c = complement(s)
    assert c == coordinate_subspace(GF2, 5, [2, 3, 4])


def test_complement_of_full_and_zero():
    assert complement(full_space(GF2, 3)) == zero_space(GF2, 3)
    assert complement(zero_space(GF3, 2)) == full_space(GF3, 2)


def test_complement_always_complements():
    # Includes self-orthogonal subspaces like span{(1,1,0,0,0)}, which force
    # the deterministic fallback.
    for s in enumerate_subspaces(GF2, 5, 2):
        c = complement(s)
        assert c.dim == 3
        assert meet(s, c).dim == 0
        codes_s = span_codes(s.basis, GF2, 5)
        codes_c = span_codes(c.basis, GF2, 5)
        assert codes_s & codes_c == {0}


def test_kernel_basis_annihilates():
    rows = [(1, 0, 1, 1), (0, 1, 1, 0)]
    for v in kernel_basis(rows, GF2, 4):
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) % 2 == 0


def test_vector_codes_roundtrip():
    for code in range(3**3):
        assert encode_vector(decode_vector(code, 3, 3), 3) == code
    # First coordinate is the most significant digit.
    assert encode_vector((1, 0), 2) == 2
    assert encode_vector((0, 1), 2) == 1


# -- references for the row-indexed core: the method-call elimination, the
# Zassenhaus meet and the tuple span that it replaced ----------------------


def reference_rref(rows, field, n):
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        lead = m[r][c]
        if lead != 1:
            inv = field.inv(lead)
            m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return Subspace(field, n, tuple(tuple(m[i]) for i in range(r)), tuple(pivots))


def reference_meet(a, b):
    field, n = a.field, a.n
    rows = [list(r) + list(r) for r in a.basis] + [list(r) + [0] * n for r in b.basis]
    both = reference_rref(rows, field, 2 * n)
    return reference_rref([row[n:] for row in both.basis if not any(row[:n])], field, n)


def reference_contains(s, v):
    return reference_rref(s.basis + (tuple(v),), s.field, s.n).dim == s.dim


def reference_span_codes(field, n, rows):
    q = field.q
    vectors = [(0,) * n]
    for rc in rows:
        row = decode_vector(rc, q, n)
        scaled = [vec_scale(field, c, row) for c in range(q)]
        vectors = [vec_add(field, v, sr) for v in vectors for sr in scaled]
    return [encode_vector(v, q) for v in vectors if any(v)]


def random_subspace(rng, field, n, d):
    rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(d)]
    s = canonicalize(rows, field, n)
    assert s == reference_rref(rows, field, n)
    return s


def check_against_references(a, b, rng):
    m = meet(a, b)
    assert m == reference_meet(a, b)
    assert m == meet(b, a)
    field, n = a.field, a.n
    probes = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(3)]
    probes += list(m.basis) + list(a.basis)
    for v in probes:
        assert contains(a, v) == reference_contains(a, v)
        assert contains(b, v) == reference_contains(b, v)


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (4, 3), (5, 3), (9, 2)])
def test_meet_matches_zassenhaus_on_all_pairs(q, n):
    field = field_from_order(q)
    subs = [s for d in range(n + 1) for s in enumerate_subspaces(field, n, d)]
    rng = random.Random(q)
    for a, b in itertools.combinations_with_replacement(subs, 2):
        check_against_references(a, b, rng)


@pytest.mark.parametrize("q, n, pairs", [(2, 7, 150), (3, 5, 100), (4, 5, 80), (5, 4, 80), (9, 4, 60), (257, 4, 25), (512, 4, 25)])
def test_meet_matches_zassenhaus_on_random_pairs(q, n, pairs):
    field = field_from_order(q)
    rng = random.Random(q * 100 + n)
    for _ in range(pairs):
        a = random_subspace(rng, field, n, rng.randrange(n + 1))
        # Build b through part of a, so that meets are often nontrivial.
        shared = list(a.basis[: rng.randrange(a.dim + 1)])
        extra = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(n + 1))]
        b = canonicalize(shared + extra, field, n)
        check_against_references(a, b, rng)


@pytest.mark.parametrize(
    "q, n, dims",
    [(3, 4, (1, 2, 3, 4)), (4, 3, (1, 2, 3)), (5, 3, (1, 2, 3)), (9, 3, (1, 2, 3)), (257, 3, (1, 2)),
     (512, 3, (1,)), (8, 3, (1, 2, 3)), (16, 3, (1, 2, 3)), (256, 3, (1, 2))],
)
def test_span_codes_match_tuple_span(q, n, dims):
    field = field_from_order(q)
    rng = random.Random(q)
    for d in dims:
        for _ in range(2):
            s = random_subspace(rng, field, n, d)
            # A non-echelon basis of s too: there, code order and coefficient
            # order differ.
            mixed = [combination(field, [rng.randrange(1, q), 1], [row, s.basis[-1]]) for row in s.basis[:-1]]
            for basis in (s.basis, mixed + [s.basis[-1]]):
                rows = [encode_vector(row, q) for row in basis]
                assert vector_span_codes(field, n, rows) == reference_span_codes(field, n, rows)


@pytest.mark.parametrize("q, n", [(3, 4), (4, 4)])
def test_bounds_and_sections_match_reference_meet(q, n, monkeypatch):
    p = spread(q, n, 2)
    hyperplanes = [coordinate_subspace(p.field, n, [c for c in range(n) if c != skip]) for skip in range(n)]
    got = (partition.bound_report(p), [dumps(partition.induce(p, w)) for w in hyperplanes])
    monkeypatch.setattr(partition, "meet", reference_meet)
    assert got == (partition.bound_report(p), [dumps(partition.induce(p, w)) for w in hyperplanes])
