"""An independent partition check that shares no code with vspart.

It reads the partition-file document (p, e, modulus, n, components), does
its own GF(p^e) arithmetic, spans every component and marks each nonzero
vector of V_n(q) in a bitmap.  The partition is accepted when every
component has exactly q^d - 1 distinct nonzero vectors, no vector is
marked twice and every nonzero vector is marked.  It never calls
`vspart.partition.verify`, so a defect there cannot hide a bad result.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def _field_mul(p: int, e: int, modulus: Sequence[int]):
    """Multiplication on element codes of GF(p^e), as a function of two codes."""
    if e == 1:
        return lambda a, b: (a * b) % p
    if p == 2:
        # Carry-less product of bit polynomials, reduced by the modulus.
        mod_bits = sum(int(c) << i for i, c in enumerate(modulus))

        def mul2(a: int, b: int) -> int:
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a >> e & 1:
                    a ^= mod_bits
            return r

        return mul2

    def digits(a: int) -> List[int]:
        out = []
        for _ in range(e):
            out.append(a % p)
            a //= p
        return out

    def mulp(a: int, b: int) -> int:
        da, db = digits(a), digits(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(e):
                    prod[k - e + i] = (prod[k - e + i] - c * int(modulus[i])) % p
        code = 0
        for d in reversed(prod[:e]):
            code = code * p + d
        return code

    return mulp


def _field_add(p: int, e: int):
    if e == 1:
        return lambda a, b: (a + b) % p
    if p == 2:
        return lambda a, b: a ^ b

    def addp(a: int, b: int) -> int:
        code, place = 0, 1
        for _ in range(e):
            code += ((a % p + b % p) % p) * place
            a //= p
            b //= p
            place *= p
        return code

    return addp


def cover_problem(doc: dict) -> Optional[str]:
    """None when the document's components partition V_n(q), else the reason."""
    p, e, n = int(doc["p"]), int(doc["e"]), int(doc["n"])
    q = p**e
    mul = _field_mul(p, e, doc["modulus"])
    add = _field_add(p, e)
    marked = bytearray(q**n)
    total = 0
    for index, rows in enumerate(doc["components"]):
        if not rows or any(len(row) != n or not all(0 <= x < q for x in row) for row in rows):
            return f"component {index} has a malformed basis"
        # Span the rows: every vector is a sum of scalar multiples of rows.
        span = [(0,) * n]
        for row in rows:
            multiples = [tuple(mul(c, x) for x in row) for c in range(1, q)]
            span += [tuple(add(a, b) for a, b in zip(v, m)) for v in span for m in multiples]
        for v in span[1:]:
            code = 0
            for x in v:
                code = code * q + x
            if code == 0:
                return f"component {index} has a dependent basis"
            if marked[code]:
                return f"vector {v} lies in two components (second is {index})"
            marked[code] = 1
        total += len(span) - 1
    if total != q**n - 1:
        return f"{q**n - 1 - total} nonzero vectors are not covered"
    return None


def partition_doc(part) -> dict:
    """The fields of a vspart Partition that cover_problem reads."""
    return {
        "p": part.field.p,
        "e": part.field.e,
        "modulus": list(part.field.modulus),
        "n": part.n,
        "components": [[list(row) for row in c.basis] for c in part.components],
    }


def type_string(doc: dict) -> str:
    """The partition type in the CLI syntax, e.g. "40x2,1x3", from component sizes."""
    counts: dict = {}
    for rows in doc["components"]:
        counts[len(rows)] = counts.get(len(rows), 0) + 1
    return ",".join(f"{counts[d]}x{d}" for d in sorted(counts))
