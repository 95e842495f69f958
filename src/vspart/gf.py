"""Exact arithmetic in GF(p^e) with integer-coded elements.

Elements of GF(p^e) are coded as the integers 0..q-1: the base-p digits of
a code are the coefficients of the residue polynomial, constant term in the
least significant digit.  Code 0 is the additive identity and code 1 the
multiplicative identity.  The reducing modulus is the lexicographically
smallest monic irreducible polynomial of degree e over GF(p), coefficients
compared from the constant term upward, so every run agrees on the element
labels.  For e = 1 the modulus is the placeholder x (never used).

Polynomials over a field are tuples of element codes, constant term first.
One routine, `_poly_mulmod`, multiplies two polynomials and reduces the
product by a monic modulus.  It serves GF(p^e) over its prime subfield,
`ExtField` over its base, and the irreducibility test (poly * 1 mod a
candidate divisor).  One codec, `_digits`/`_undigits`, turns codes into
digit lists and back.  Fields of order q <= 256 keep full add/mul/inv
tables; the add table is built from the rows of the table on one digit
fewer, and the mul and inv tables come from the powers (antilog) and
discrete logs of the least primitive element, so they cost O(q) raw
products.  `FieldSpec.rows` hands out add and mul as `table[a][b]`: the
tables themselves, or per-call views above the table limit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, List, Sequence, Tuple, Union

from .errors import FieldTooLarge, NotPrime

FIELD_ORDER_LIMIT = 1 << 20

# Full add/mul/inv tables are built for fields up to this order; larger
# fields fall back to per-call polynomial arithmetic.
_TABLE_LIMIT = 256

Poly = Tuple[int, ...]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _digits(code: int, base: int, count: int) -> List[int]:
    """The `count` base-`base` digits of code, least significant first."""
    out = []
    for _ in range(count):
        code, d = divmod(code, base)
        out.append(d)
    return out


def _undigits(digits: Sequence[int], base: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * base + d
    return code


def _poly_mulmod(field: FieldSpec, a: Sequence[int], b: Sequence[int], modulus: Poly) -> List[int]:
    """a * b reduced by the monic modulus: its len(modulus) - 1 coefficients."""
    add, mul = field.add, field.mul
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = add(prod[i + j], mul(x, y))
    m = len(modulus) - 1
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k]
        if c:
            c = field.neg(c)
            shift = k - m
            for i in range(m):
                prod[shift + i] = add(prod[shift + i], mul(c, modulus[i]))
    return prod[:m] + [0] * (m - len(prod))


def _digit_add_table(p: int, e: int) -> List[List[int]]:
    """Addition of e-digit base-p codes, digit by digit mod p.

    Row a on k digits is row a // p on k - 1 digits, shifted up one digit,
    with the prime-field row a % p added in the lowest digit.
    """
    prime = [[(a + b) % p for b in range(p)] for a in range(p)]
    table = prime
    for _ in range(e - 1):
        table = [
            [h * p + lo for h in table[a // p] for lo in prime[a % p]]
            for a in range(len(table) * p)
        ]
    return table


class _RawRow:
    """Row a of a binary operation, computed per lookup."""

    __slots__ = ("_op", "_a")

    def __init__(self, op: Callable[[int, int], int], a: int):
        self._op = op
        self._a = a

    def __getitem__(self, b: int) -> int:
        return self._op(self._a, b)


class _RawRows:
    """Per-call stand-in for an operation table: rows[a][b] is op(a, b)."""

    __slots__ = ("_op",)

    def __init__(self, op: Callable[[int, int], int]):
        self._op = op

    def __getitem__(self, a: int) -> _RawRow:
        return _RawRow(self._op, a)


Rows = Union[List[List[int]], _RawRows]


class FieldSpec:
    """The finite field GF(p^e) on element codes 0..q-1.

    Instances are immutable and safe to share between threads; arithmetic
    tables are built once in the constructor for small orders.
    """

    def __init__(self, p: int, e: int, modulus: Poly):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = tuple(modulus)
        # Products of e > 1 codes are digit polynomials over GF(p).
        self._prime = self if e == 1 else FieldSpec(p, 1, (0, 1))
        self._add_table = None
        self._mul_table = None
        self._inv_table = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

    # -- construction helpers -------------------------------------------

    def _build_tables(self) -> None:
        q = self.q
        self._add_table = _digit_add_table(self.p, self.e)
        # The powers of the least primitive element g: exp[i] = g^i.
        for g in range(1, q):
            exp, x = [1], g
            while x != 1 and len(exp) < q:
                exp.append(x)
                x = self._mul_raw(x, g)
            if len(exp) == q - 1:
                break
        else:
            raise ValueError(f"modulus {self.modulus} does not give a field of order {q}")
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        exp += exp  # so exp[la + lb] needs no reduction mod q - 1
        logs = log[1:]
        self._mul_table = [[0] * q] + [[0] + [exp[la + lb] for lb in logs] for la in logs]
        self._inv_table = [0] + [exp[q - 1 - la] for la in logs]

    def _add_raw(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, e = self.p, self.e
        return _undigits([(x + y) % p for x, y in zip(_digits(a, p, e), _digits(b, p, e))], p)

    def _mul_raw(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        p, e = self.p, self.e
        prod = _poly_mulmod(self._prime, _digits(a, p, e), _digits(b, p, e), self.modulus)
        return _undigits(prod, p)

    # -- public arithmetic ----------------------------------------------

    def rows(self) -> Tuple[Rows, Rows]:
        """(add, mul), each indexed as op[a][b].

        Row access lets a caller fetch one row, such as mul[c] for a fixed
        scalar c, and index it per coordinate without a method call.  Up to
        the table limit these are the tables; above it, per-call views.
        """
        if self._add_table is not None:
            return self._add_table, self._mul_table
        return _RawRows(self._add_raw), _RawRows(self._mul_raw)

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_raw(a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.e == 1:
            return (-a) % self.p
        return _undigits([(-d) % self.p for d in _digits(a, self.p, self.e)], self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, k: int) -> int:
        r = 1
        base = a
        while k > 0:
            if k & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            k >>= 1
        return r

    def elements(self) -> range:
        return range(self.q)

    # -- value semantics --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


# -- irreducible moduli over an arbitrary FieldSpec ------------------------


def _monic_polys(field: FieldSpec, degree: int) -> Iterator[Poly]:
    """All monic polynomials of the given degree, lex order on lower coefficients."""
    for code in range(field.q**degree):
        yield tuple(_digits(code, field.q, degree)) + (1,)


def _poly_is_irreducible(field: FieldSpec, poly: Poly) -> bool:
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for divisor in _monic_polys(field, d):
            if not any(_poly_mulmod(field, poly, (1,), divisor)):
                return False
    return True


def lex_least_irreducible(field: FieldSpec, degree: int) -> Poly:
    """Lexicographically least monic irreducible of the given degree.

    Coefficients are compared from the constant term upward.  Degree 1
    yields the polynomial x, matching the prime-field placeholder.
    """
    for candidate in _monic_polys(field, degree):
        if _poly_is_irreducible(field, candidate):
            return candidate
    raise RuntimeError(f"no irreducible of degree {degree} over {field}")


@lru_cache(maxsize=None)
def make_field(p: int, e: int) -> FieldSpec:
    """Build GF(p^e) with the canonical modulus.

    Raises NotPrime for composite p and FieldTooLarge beyond the desk-scale
    guard p^e <= 2^20, checked first (without forming p^e for a huge e) so
    huge parameters fail fast.  Results are cached, so equal parameters
    share tables.
    """
    if p < 2:
        raise NotPrime(f"{p} is not prime")
    # p >= 2, so e > 20 alone exceeds the guard.
    if p > FIELD_ORDER_LIMIT or e > 20 or p**e > FIELD_ORDER_LIMIT:
        raise FieldTooLarge(f"{p}^{e} exceeds the guard 2^20")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    prime = FieldSpec(p, 1, (0, 1))
    if e == 1:
        return prime
    return FieldSpec(p, e, lex_least_irreducible(prime, e))


def _prime_power(q: int) -> Tuple[int, int]:
    """(p, e) with q = p^e; ValueError if q is not a prime power, and
    FieldTooLarge beyond the guard, checked first so huge q fail fast."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    if q > FIELD_ORDER_LIMIT:
        raise FieldTooLarge(f"{q} exceeds the guard 2^20")
    p = q
    for d in range(2, q + 1):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    e = 0
    m = q
    while m % p == 0 and m > 1:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def field_from_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q up to 2^20; raises ValueError for any other
    q below the guard and FieldTooLarge above it."""
    return make_field(*_prime_power(q))


class ExtField:
    """GF(q^m) built as a degree-m extension of a base FieldSpec.

    Elements are length-m coefficient tuples over the base field, constant
    term first, so they double as coordinate vectors of the base-field
    vector space being given multiplicative structure.  The modulus is the
    lexicographically least monic irreducible of degree m over the base.
    """

    def __init__(self, base: FieldSpec, degree: int):
        if degree < 1:
            raise ValueError("extension degree must be >= 1")
        self.base = base
        self.degree = degree
        self.order = base.q**degree
        self.modulus = lex_least_irreducible(base, degree)

    def power_basis(self, j: int) -> Poly:
        """The element x^j, valid for 0 <= j < degree."""
        if not 0 <= j < self.degree:
            raise ValueError("power outside the coefficient range")
        return tuple(1 if i == j else 0 for i in range(self.degree))

    def element(self, code: int) -> Poly:
        return tuple(_digits(code, self.base.q, self.degree))

    def nonzero_elements(self) -> Iterator[Poly]:
        for code in range(1, self.order):
            yield self.element(code)

    def mul(self, a: Poly, b: Poly) -> Poly:
        return tuple(_poly_mulmod(self.base, a, b, self.modulus))

    def scale(self, a: Poly, vector: Tuple[Poly, ...]) -> Tuple[Poly, ...]:
        """Multiply every coordinate of a vector over this field by a."""
        return tuple(self.mul(a, c) for c in vector)

    def __repr__(self) -> str:
        return f"GF({self.base.q}^{self.degree})"
