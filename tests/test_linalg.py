"""Subspace canonicalization, lattice operations, enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vspart.errors import BudgetExceeded, DimensionMismatch, TooLarge
from vspart.gf import make_field
from vspart.linalg import (
    Subspace,
    canonicalize,
    complement,
    contains,
    coordinate_subspace,
    decode_vector,
    encode_vector,
    enumerate_nonzero,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    join,
    kernel_basis,
    meet,
    subspace_vector_codes,
    vec_add,
    vec_scale,
    zero_space,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)


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


def test_enumerate_nonzero_guard():
    big = make_field(2, 13)
    s = canonicalize([tuple(1 if i == j else 0 for i in range(2)) for j in range(2)], big, 2)
    with pytest.raises(TooLarge):
        enumerate_nonzero(s)


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
