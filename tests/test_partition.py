"""Partition model: verification, induction, refinement, bounds, file format."""

import random

import pytest

from vspart.construct import lift, near_spread, spread
from vspart.errors import (
    InvalidSubPartition,
    NotAComponent,
    TrivialPartition,
    ZeroSubspace,
)
from vspart.gf import make_field
from vspart.io import dumps, loads, read_partition, write_partition
from vspart.linalg import (
    canonicalize,
    coordinate_subspace,
    decode_vector,
    enumerate_subspaces,
    subspace_vector_codes,
)
from vspart.partition import (
    Partition,
    PartitionType,
    VerificationReport,
    bound_report,
    induce,
    is_T_partition,
    refine,
    trivial_partition,
    type_of,
    verify,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)


def lines_partition(field, n):
    return Partition(field, n, tuple(enumerate_subspaces(field, n, 1)))


# ---------------------------------------------------------------------------
# type syntax
# ---------------------------------------------------------------------------

def test_type_parse_format_roundtrip():
    t = PartitionType.parse("1x2,4x3")
    assert t.pairs == ((1, 2), (4, 3))
    assert t.format() == "1x2,4x3"
    assert t.r == 5
    assert t.point_count(2) == 1 * 3 + 4 * 7


def test_type_validation():
    with pytest.raises(ValueError):
        PartitionType.of((1, 2), (1, 2))
    with pytest.raises(ValueError):
        PartitionType.of((-1, 2))
    assert PartitionType.of((0, 1), (5, 2)).normalized().pairs == ((5, 2),)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_trivial_partition_valid():
    p = trivial_partition(GF2, 3)
    rep = verify(p)
    assert rep.valid and rep.r == 1


def test_spread_valid():
    assert verify(spread(2, 4, 2)).valid


def test_overlapping_pair_reported():
    s = spread(2, 4, 2)
    comps = list(s.components)
    # Replace one component with a line inside another, surviving component.
    victim_line = canonicalize([comps[1].basis[0]], GF2, 4)
    broken = Partition(GF2, 4, tuple(comps[1:]) + (victim_line,))
    rep = verify(broken)
    assert not rep.valid
    assert not rep.disjoint_ok
    i, j = rep.offending_pair
    assert rep.witness is not None
    # The witness really lies in both reported components.
    from vspart.linalg import contains

    assert contains(broken.components[i], rep.witness)
    assert contains(broken.components[j], rep.witness)


def test_uncovered_vector_reported():
    # Two disjoint lines in V_2(3) cover 4 of 8 nonzero vectors.
    a = canonicalize([(0, 1)], GF3, 2)
    b = canonicalize([(1, 0)], GF3, 2)
    rep = verify(Partition(GF3, 2, (a, b)))
    assert not rep.valid
    assert rep.disjoint_ok
    assert rep.uncovered is not None
    assert not rep.counting_ok


def test_verify_large_ambient_path():
    # Force the pairwise-meet route by shrinking the scan threshold.
    import vspart.partition as pmod

    s = spread(2, 4, 2)
    old = pmod.FULL_SCAN_LIMIT
    pmod.FULL_SCAN_LIMIT = 1
    try:
        assert verify(s).valid
        comps = list(s.components)
        victim_line = canonicalize([comps[0].basis[0]], GF2, 4)
        broken = Partition(GF2, 4, tuple(comps[1:]) + (victim_line,))
        assert not verify(broken).valid
    finally:
        pmod.FULL_SCAN_LIMIT = old


def test_verify_large_ambient_path_uncounted_cover():
    # Disjoint components that miss vectors fail only the counting identity
    # on the pairwise-meet route, which names no uncovered vector.
    import vspart.partition as pmod

    s = spread(2, 4, 2)
    old = pmod.FULL_SCAN_LIMIT
    pmod.FULL_SCAN_LIMIT = 1
    try:
        rep = verify(Partition(GF2, 4, s.components[1:]))
    finally:
        pmod.FULL_SCAN_LIMIT = old
    assert not rep.valid and rep.disjoint_ok and not rep.cover_ok
    assert rep.uncovered is None
    assert rep.describe() == "component sizes do not account for every nonzero vector"


def _reference_verify(p):
    """The pairwise mask scan: first overlapping pair in nested order, else
    the lowest uncovered code."""
    q, n = p.field.q, p.n
    counting_ok = sum(q**c.dim - 1 for c in p.components) == q**n - 1
    masks = []
    for c in p.components:
        m = 0
        for code in subspace_vector_codes(c):
            m |= 1 << code
        masks.append(m)
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            overlap = masks[i] & masks[j]
            if overlap:
                code = (overlap & -overlap).bit_length() - 1
                return VerificationReport(
                    False, p.r, counting_ok, False, False,
                    offending_pair=(i, j), witness=decode_vector(code, q, n),
                )
    union = 0
    for m in masks:
        union |= m
    missing = ((1 << q**n) - 2) & ~union
    if missing:
        code = (missing & -missing).bit_length() - 1
        return VerificationReport(
            False, p.r, counting_ok, True, False, uncovered=decode_vector(code, q, n)
        )
    return VerificationReport(counting_ok, p.r, counting_ok, True, True)


def _random_subspace(rng, field, n):
    while True:
        dim = rng.randint(1, n - 1)
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(dim)]
        sub = canonicalize(rows, field, n)
        if sub.dim:
            return sub


def test_verify_matches_pairwise_mask_oracle():
    bases = [
        spread(2, 4, 2), spread(2, 6, 2), spread(2, 6, 3), near_spread(2, 5, 2),
        lines_partition(GF3, 3), spread(3, 4, 2), near_spread(3, 4, 1),
        spread(4, 4, 2), lines_partition(make_field(2, 2), 3),
    ]
    rng = random.Random(20090)
    branches = set()
    for case in range(300):
        base = bases[case % len(bases)]
        comps = list(base.components)
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(("drop", "duplicate", "replace"))
            k = rng.randrange(len(comps))
            if op == "drop" and len(comps) > 1:
                del comps[k]
            elif op == "duplicate":
                comps.append(comps[k])
            else:
                comps[k] = _random_subspace(rng, base.field, base.n)
        p = Partition(base.field, base.n, tuple(comps))
        rep = verify(p)
        assert rep == _reference_verify(p)
        if not rep.valid:
            branches.add((p.field.q, "uncovered" if rep.disjoint_ok else "overlap"))
    assert branches == {(q, b) for q in (2, 3, 4) for b in ("overlap", "uncovered")}


def test_verify_success_path_builds_no_masks(monkeypatch):
    import vspart.partition as pmod

    def no_masks(s):
        raise AssertionError("verify built a component mask")

    monkeypatch.setattr(pmod, "nonzero_mask", no_masks)
    assert verify(spread(2, 8, 2)).valid
    assert verify(lift(near_spread(3, 4, 2), 2).partition).valid


# ---------------------------------------------------------------------------
# type_of / is_T_partition
# ---------------------------------------------------------------------------

def test_type_of_spread():
    assert type_of(spread(2, 4, 2)) == PartitionType.of((5, 2))
    assert is_T_partition(spread(2, 4, 2), {2})


def test_type_of_near_spread():
    from vspart.construct import near_spread

    assert type_of(near_spread(2, 5, 2)) == PartitionType.of((8, 2), (1, 3))


def test_is_T_fails_on_strict_superset():
    s = spread(2, 4, 2)
    assert not is_T_partition(s, {1, 2})


# ---------------------------------------------------------------------------
# induce
# ---------------------------------------------------------------------------

def test_induce_on_full_space_is_identity():
    s = spread(2, 4, 2)
    from vspart.linalg import full_space

    assert induce(s, full_space(GF2, 4)) == s


def test_induce_near_spread_on_hyperplane():
    from vspart.construct import near_spread

    ns = near_spread(2, 5, 2)
    h = coordinate_subspace(GF2, 5, range(4))
    out = induce(ns, h)
    assert out.n == 4
    assert verify(out).valid


def test_induce_spread_on_every_hyperplane():
    s = spread(2, 4, 2)
    for h in enumerate_subspaces(GF2, 4, 3):
        out = induce(s, h)
        assert verify(out).valid
        assert type_of(out) == PartitionType.of((4, 1), (1, 2))


def test_induce_corpus_on_every_hyperplane():
    corpus = [
        spread(2, 4, 2),
        lines_partition(GF2, 4),
        refine(spread(2, 4, 2), spread(2, 4, 2).components[0], lines_partition(GF2, 2)),
        Partition(GF2, 4, (coordinate_subspace(GF2, 4, [0, 1, 2]),)
                  + tuple(l for l in enumerate_subspaces(GF2, 4, 1)
                          if l.basis[0][3] == 1)),
    ]
    for p in corpus:
        assert verify(p).valid
        for h in enumerate_subspaces(GF2, 4, 3):
            assert verify(induce(p, h)).valid
        # Lower-dimensional sections stay partitions too.
        for w in enumerate_subspaces(GF2, 4, 2)[::7]:
            assert verify(induce(p, w)).valid


def test_induce_zero_subspace_rejected():
    from vspart.linalg import Subspace

    with pytest.raises(ZeroSubspace):
        induce(spread(2, 4, 2), Subspace(GF2, 4, (), ()))


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def test_refine_by_trivial_is_identity():
    s = spread(2, 4, 2)
    victim = s.components[0]
    assert refine(s, victim, trivial_partition(GF2, 2)) == s


def test_refine_spread_component_into_lines():
    s = spread(2, 4, 2)
    victim = s.components[0]
    out = refine(s, victim, lines_partition(GF2, 2))
    assert type_of(out) == PartitionType.of((3, 1), (4, 2))
    assert verify(out).valid
    # 3 * 1 + 4 * 3 = 15 nonzero vectors.
    assert sum(2**c.dim - 1 for c in out.components) == 15


def test_refine_type_arithmetic():
    # New type = old type minus the victim's dimension plus the sub's type.
    from vspart.construct import fixed_plus_lines, near_spread

    cases = [
        (spread(2, 4, 2), 2, lines_partition(GF2, 2)),
        (near_spread(2, 5, 2), 3, fixed_plus_lines(2, 3, 2)),
        (spread(3, 4, 2), 2, lines_partition(make_field(3, 1), 2)),
    ]
    for p, victim_dim, sub in cases:
        victim = next(c for c in p.components if c.dim == victim_dim)
        out = refine(p, victim, sub)
        expected = {}
        for x, d in type_of(p).pairs:
            expected[d] = x
        expected[victim_dim] -= 1
        for x, d in type_of(sub).pairs:
            expected[d] = expected.get(d, 0) + x
        got = {d: x for x, d in type_of(out).pairs}
        assert got == {d: x for d, x in expected.items() if x > 0}


def test_refine_wrong_victim():
    s = spread(2, 4, 2)
    other = canonicalize([(1, 1, 1, 1)], GF2, 4)
    with pytest.raises(NotAComponent):
        refine(s, other, lines_partition(GF2, 1))


def test_refine_invalid_sub_partition():
    s = spread(2, 4, 2)
    victim = s.components[0]
    with pytest.raises(InvalidSubPartition):
        refine(s, victim, trivial_partition(GF2, 3))  # wrong dimension
    one_line = Partition(GF2, 2, (canonicalize([(0, 1)], GF2, 2),))
    with pytest.raises(InvalidSubPartition):
        refine(s, victim, one_line)  # does not cover the victim


# ---------------------------------------------------------------------------
# bound_report
# ---------------------------------------------------------------------------

def test_bound_report_spread_2_4_2():
    rep = bound_report(spread(2, 4, 2))
    assert (rep.t, rep.s, rep.r) == (2, 5, 5)
    assert rep.r_lower == 5 and rep.r_upper == 5
    assert rep.r % 4 == 1
    assert rep.all_ok


def test_bound_report_refined_partition():
    s = spread(2, 4, 2)
    out = refine(s, s.components[0], lines_partition(GF2, 2))
    rep = bound_report(out)
    assert (rep.t, rep.s, rep.r) == (1, 3, 7)
    assert rep.s_lower == 3
    assert rep.residue_ok  # 7 = 1 mod 2
    assert rep.all_ok


def test_bound_report_line_spread_v2():
    rep = bound_report(lines_partition(GF2, 2))
    assert (rep.t, rep.s, rep.r) == (1, 3, 3)
    assert rep.r_upper == 3
    assert rep.all_ok


def test_bound_report_requires_nontrivial():
    with pytest.raises(TrivialPartition):
        bound_report(trivial_partition(GF2, 4))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_write_read_roundtrip(tmp_path):
    s = spread(3, 4, 2)
    path = tmp_path / "s.part"
    write_partition(s, path)
    back = read_partition(path)
    assert back == s
    assert verify(back).valid
    # Canonical writers are byte-stable.
    write_partition(back, tmp_path / "s2.part")
    assert (tmp_path / "s.part").read_text() == (tmp_path / "s2.part").read_text()


def test_read_rejects_noncanonical_rows():
    s = spread(2, 4, 2)
    text = dumps(s)
    import json

    doc = json.loads(text)
    # Scramble one basis: swap two rows (same span, non-echelon order).
    doc["components"][0] = [doc["components"][0][1], doc["components"][0][0]]
    with pytest.raises(ValueError):
        loads(json.dumps(doc))
    forced = loads(json.dumps(doc), allow_noncanonical=True)
    assert forced == s


def test_read_rejects_wrong_modulus():
    s = spread(2, 4, 2)
    import json

    doc = json.loads(dumps(s))
    doc["p"], doc["e"], doc["modulus"] = 2, 2, [1, 0, 1]
    with pytest.raises(ValueError):
        loads(json.dumps(doc))


def test_provenance_survives_roundtrip(tmp_path):
    s = spread(2, 4, 2)
    path = tmp_path / "p.part"
    write_partition(s, path)
    back = read_partition(path)
    assert back.provenance["rule"] == "spread"
