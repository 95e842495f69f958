"""Field construction and arithmetic."""

import itertools
import random

import pytest

from vspart.errors import FieldTooLarge, NotPrime
from vspart.gf import FIELD_ORDER_LIMIT, ExtField, FieldSpec, field_from_order, make_field


def quadratic_irreducibles(p):
    """Oracle: monic quadratics over GF(p) without roots, by full enumeration.

    A quadratic is irreducible exactly when it has no root.
    """
    out = []
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p != 0 for x in range(p)):
                out.append((c0, c1, 1))
    return out


def schoolbook_mul(p, e, modulus, a, b):
    """Reference product of two GF(p^e) codes: multiply the base-p digit
    polynomials and reduce by the monic modulus, digit by digit."""
    da = [(a // p**i) % p for i in range(e)]
    db = [(b // p**i) % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k]
        prod[k] = 0
        for i in range(e):
            prod[k - e + i] = (prod[k - e + i] - c * modulus[i]) % p
    return sum(d * p**i for i, d in enumerate(prod[:e]))


def digit_add(p, e, a, b):
    return sum(((a // p**i + b // p**i) % p) * p**i for i in range(e))


def reference_poly_mulmod(field, a, b, modulus):
    """Reference product in an extension: full product, then long division."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = field.add(prod[i + j], field.mul(x, y))
    m = len(modulus) - 1
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k]
        for i in range(m + 1):
            prod[k - m + i] = field.sub(prod[k - m + i], field.mul(c, modulus[i]))
    return tuple(prod[:m])


PRIMES_TO_256 = [p for p in range(2, 257) if all(p % d for d in range(2, p))]
PRIME_POWERS_TO_256 = sorted(p**e for p in PRIMES_TO_256 for e in range(1, 9) if p**e <= 256)


def test_prime_power_list_is_complete():
    assert len(PRIMES_TO_256) == 54
    assert len(PRIME_POWERS_TO_256) == 70
    assert [q for q in PRIME_POWERS_TO_256 if q not in PRIMES_TO_256] == [
        4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256,
    ]


def reference_tables(p, e, modulus):
    """Add and mul tables of GF(p^e) from digit-wise addition and the
    schoolbook products a * x^j.  Row a of the mul table follows from
    a * b = a * (b - x^j) + a * x^j, with x^j the lowest nonzero digit of b."""
    q = p**e
    add = [[digit_add(p, e, a, b) for b in range(q)] for a in range(q)]
    lowest = [0] * q
    for b in range(1, q):
        w = 1
        while (b // w) % p == 0:
            w *= p
        lowest[b] = w
    mul = []
    for a in range(q):
        by_power = {p**j: schoolbook_mul(p, e, modulus, a, p**j) for j in range(e)}
        row = [0] * q
        for b in range(1, q):
            row[b] = add[row[b - lowest[b]]][by_power[lowest[b]]]
        mul.append(row)
    return add, mul


@pytest.mark.parametrize("q", PRIME_POWERS_TO_256)
def test_tables_match_schoolbook(q):
    f = field_from_order(q)
    add, mul = reference_tables(f.p, f.e, f.modulus)
    assert f._add_table == add
    assert f._mul_table == mul
    assert f.rows() == (add, mul)
    assert f._inv_table == [0] + [row.index(1) for row in mul[1:]]


@pytest.mark.parametrize("p, e", [(2, 9), (3, 6)])
def test_products_above_table_limit_match_schoolbook(p, e):
    f = make_field(p, e)
    assert f._mul_table is None
    add_rows, mul_rows = f.rows()
    rng = random.Random(p * 10 + e)
    for _ in range(500):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.mul(a, b) == mul_rows[a][b] == schoolbook_mul(p, e, f.modulus, a, b)
        assert f.add(a, b) == add_rows[a][b] == digit_add(p, e, a, b)
        if a:
            assert schoolbook_mul(p, e, f.modulus, a, f.inv(a)) == 1


@pytest.mark.parametrize("base_q, degree", [(2, 3), (3, 2), (4, 2), (9, 2)])
def test_ext_field_products_match_reference(base_q, degree):
    base = field_from_order(base_q)
    ext = ExtField(base, degree)
    elems = [ext.element(code) for code in range(ext.order)]
    for a in elems:
        for b in elems:
            assert ext.mul(a, b) == reference_poly_mulmod(base, a, b, ext.modulus)


def test_prime_field_is_trivial():
    f = make_field(2, 1)
    assert f.q == 2
    assert f.modulus == (0, 1)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_gf4_modulus_matches_root_oracle():
    oracle = quadratic_irreducibles(2)
    assert oracle == [(1, 1, 1)]  # only irreducible quadratic over GF(2)
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_gf9_modulus_is_least_irreducible():
    oracle = quadratic_irreducibles(3)
    # Lex comparison from the constant term upward.
    assert make_field(3, 2).modulus == min(oracle)
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_make_field_errors():
    with pytest.raises(NotPrime):
        make_field(6, 1)
    with pytest.raises(NotPrime):
        make_field(1, 2)
    with pytest.raises(FieldTooLarge):
        make_field(2, 21)


def test_make_field_error_order():
    # Huge p and e are refused before the primality test; see
    # test_cli.py::test_huge_field_in_partition_file_fails_fast.
    with pytest.raises(FieldTooLarge):
        make_field(4, 21)
    with pytest.raises(NotPrime):
        make_field(6, 0)
    with pytest.raises(ValueError):
        make_field(2, 0)
    assert make_field(2, 20).q == FIELD_ORDER_LIMIT


def test_field_from_order():
    assert field_from_order(8).e == 3
    assert field_from_order(9) == make_field(3, 2)
    with pytest.raises(ValueError):
        field_from_order(6)
    with pytest.raises(ValueError):
        field_from_order(1)


def test_field_from_order_guards_before_factoring():
    # A prime near 2^61 would take minutes of trial division.
    with pytest.raises(FieldTooLarge):
        field_from_order(2**61 - 1)
    with pytest.raises(FieldTooLarge):
        field_from_order(2**21)


FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64]


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field_from_order(q)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_encoding_is_base_p_digits():
    f = make_field(2, 3)
    # Code 3 is 1 + x, code 2 is x; their product is x + x^2, code 6.
    assert f.mul(3, 2) == 6
    # x * x^2 = x^3 reduces by the modulus x^3 + x + 1 to x + 1, code 3.
    assert f.modulus == (1, 1, 0, 1)
    assert f.mul(2, 4) == 3


def test_large_field_without_tables():
    f = make_field(2, 9)  # 512 elements, above the table limit
    assert f._mul_table is None
    a, b = 317, 422
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.inv(a)) == 1


def test_ext_field_over_gf2_matches_make_field():
    base = make_field(2, 1)
    ext = ExtField(base, 2)
    assert ext.modulus == make_field(2, 2).modulus
    # Multiplication agrees with the coded field under the digit bijection.
    coded = make_field(2, 2)
    for a in range(4):
        for b in range(4):
            va, vb = ext.element(a), ext.element(b)
            prod = ext.mul(va, vb)
            code = prod[0] + 2 * prod[1]
            assert code == coded.mul(a, b)


def test_ext_field_over_gf3_cubic_modulus():
    # Oracle: least monic cubic over GF(3) with no root (cubic irreducibility).
    best = None
    for code in range(27):
        c0, c1, c2 = code % 3, (code // 3) % 3, code // 9
        if all((x**3 + c2 * x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
            best = (c0, c1, c2, 1)
            break
    ext = ExtField(make_field(3, 1), 3)
    assert ext.modulus == best == (1, 2, 0, 1)


def test_ext_field_degree_one_is_base():
    base = make_field(5, 1)
    ext = ExtField(base, 1)
    assert ext.mul((2,), (4,)) == (3,)


def test_field_value_semantics():
    assert make_field(2, 2) == make_field(2, 2)
    assert make_field(2, 2) is make_field(2, 2)  # cached
    assert hash(make_field(3, 1)) == hash(FieldSpec(3, 1, (0, 1)))


def test_reducible_modulus_is_refused():
    # x^2 over GF(2) and x^2 + 2 over GF(3) factor, so no element has order q - 1.
    for p, e, modulus in [(2, 2, (0, 0, 1)), (3, 2, (2, 0, 1))]:
        with pytest.raises(ValueError):
            FieldSpec(p, e, modulus)
