"""Field construction and arithmetic."""

import itertools

import pytest

from vspart.errors import FieldTooLarge, NotPrime
from vspart.gf import ExtField, FieldSpec, field_from_order, make_field


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
