"""The shared partition file format.

A partition file is a single JSON document with the field parameters
(p, e, modulus coefficient list), the ambient dimension n, and the
components as lists of basis rows of integer element codes.  Writers emit
canonical form: echelon bases, components sorted by flattened basis, keys
sorted.  Readers reject a document without components, re-canonicalize,
and reject non-canonical input unless explicitly told to accept it.  An
optional provenance object records how the partition was constructed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .gf import make_field
from .linalg import canonicalize
from .partition import Partition

FORMAT_NAME = "vspart-partition"
FORMAT_VERSION = 1


def partition_to_doc(p: Partition) -> dict:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "p": p.field.p,
        "e": p.field.e,
        "modulus": list(p.field.modulus),
        "n": p.n,
        "components": [[list(row) for row in c.basis] for c in p.components],
    }
    if p.provenance:
        doc["provenance"] = p.provenance
    return doc


def dumps(p: Partition) -> str:
    return json.dumps(partition_to_doc(p), indent=2, sort_keys=True) + "\n"


def write_partition(p: Partition, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps(p), encoding="utf-8")


def _integer(value, what: str) -> int:
    if type(value) is not int:  # a bool is not an integer here
        raise ValueError(f"{what} must be an integer, not {type(value).__name__}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _basis_rows(comp, i: int) -> list:
    for row in _list(comp, f"component {i}"):
        if not all(type(x) is int for x in _list(row, f"a row of component {i}")):
            raise ValueError(f"the entries of component {i} must be integers")
    return comp


def doc_to_partition(doc: dict, allow_noncanonical: bool = False) -> Partition:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValueError("not a partition document")
    missing = {"p", "e", "modulus", "n", "components"} - set(doc)
    if missing:
        raise ValueError(f"partition document lacks fields: {sorted(missing)}")
    field = make_field(_integer(doc["p"], "p"), _integer(doc["e"], "e"))
    modulus = [_integer(c, "a modulus coefficient") for c in _list(doc["modulus"], "modulus")]
    if list(field.modulus) != modulus:
        raise ValueError(
            "modulus does not match the canonical modulus for these field parameters"
        )
    n = _integer(doc["n"], "n")
    if n < 1:
        raise ValueError(f"ambient dimension n must be positive, got {n}")
    raw = [_basis_rows(comp, i) for i, comp in enumerate(_list(doc["components"], "components"))]
    if not raw:
        raise ValueError("a partition needs at least one component")
    comps = [canonicalize(rows, field, n) for rows in raw]
    canonical = all(
        list(map(list, c.basis)) == rows for c, rows in zip(comps, raw)
    ) and [c.sort_key() for c in comps] == sorted(c.sort_key() for c in comps)
    if not canonical and not allow_noncanonical:
        raise ValueError(
            "component bases are not in canonical form or order "
            "(pass allow_noncanonical=True to re-canonicalize)"
        )
    return Partition(field, n, tuple(comps), provenance=doc.get("provenance"))


def loads(text: str, allow_noncanonical: bool = False) -> Partition:
    return doc_to_partition(json.loads(text), allow_noncanonical=allow_noncanonical)


def read_partition(path: Union[str, Path], allow_noncanonical: bool = False) -> Partition:
    return loads(Path(path).read_text(encoding="utf-8"), allow_noncanonical=allow_noncanonical)
