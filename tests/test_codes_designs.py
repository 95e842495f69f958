"""Code and design extraction from partitions."""

import pytest

from vspart.codes import MixedCode, code_from_partition, code_parameters, verify_perfect
from vspart.construct import hyperplane_section, near_spread, spread
from vspart.designs import CosetDesign, design_from_partition, verify_design
from vspart.errors import TooLarge
from vspart.gf import make_field
from vspart.linalg import (
    canonicalize,
    decode_vector,
    encode_vector,
    enumerate_subspaces,
    kernel_basis,
    vec_add,
    vec_scale,
)
from vspart.partition import Partition, trivial_partition

GF2 = make_field(2, 1)


def lines_partition(field, n):
    return Partition(field, n, tuple(enumerate_subspaces(field, n, 1)))


def corrupted_cover():
    """Spanning components that overlap: a cover, not a partition."""
    s = spread(2, 4, 2)
    extra = canonicalize([s.components[0].basis[0]], GF2, 4)
    return Partition(GF2, 4, s.components + (extra,))


def plane_lines():
    """The three lines of a plane inside V_4: disjoint, but not spanning."""
    lines = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1)]
    return Partition(GF2, 4, tuple(canonicalize([v], GF2, 4) for v in lines))


def reference_code(p):
    """Oracle: the sum-to-zero code by spanning the kernel coefficient tuples
    and recombining every component's basis word by word."""
    field, q = p.field, p.field.q
    columns = [row for c in p.components for row in c.basis]
    matrix = [[col[r] for col in columns] for r in range(p.n)]
    coeff_vectors = [(0,) * len(columns)]
    for kv in kernel_basis(matrix, field, len(columns)):
        scaled = [vec_scale(field, s, kv) for s in field.elements()]
        coeff_vectors = [vec_add(field, v, sv) for v in coeff_vectors for sv in scaled]
    words = []
    for coeffs in coeff_vectors:
        word = []
        offset = 0
        for c in p.components:
            y = (0,) * p.n
            for j in range(c.dim):
                y = vec_add(field, y, vec_scale(field, coeffs[offset + j], c.basis[j]))
            offset += c.dim
            word.append(encode_vector(y, q))
        words.append(tuple(word))
    return tuple(sorted(words))


def pairwise_min_distance(words):
    """Oracle: the minimum mixed Hamming distance over all pairs of words."""
    dists = [
        sum(1 for a, b in zip(u, w) if a != b)
        for i, u in enumerate(words)
        for w in words[i + 1:]
    ]
    return min(dists) if dists else None


# Codes over q = 2, 3, 4, 5, valid and corrupted; sizes in the comments.
CODE_CORPUS = {
    "spread_2_4_2": lambda: spread(2, 4, 2),                                # 64
    "lines_v3_gf2": lambda: lines_partition(GF2, 3),                        # 16
    "lines_v2_gf3": lambda: lines_partition(make_field(3, 1), 2),           # 9
    "lines_v2_gf4": lambda: lines_partition(make_field(2, 2), 2),           # 64
    "lines_v2_gf5": lambda: lines_partition(make_field(5, 1), 2),           # 625
    "corrupted_cover": corrupted_cover,                                     # 128
    "plane_lines": plane_lines,                                             # 2
    "trivial": lambda: trivial_partition(GF2, 3),                           # 1
    "hyperplane_section_3_2_2": lambda: hyperplane_section(3, 2, 2),        # 6561
}
SMALL_CODES = [name for name in CODE_CORPUS if name != "hyperplane_section_3_2_2"]


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

def test_code_of_trivial_partition_is_zero_word():
    code = code_from_partition(trivial_partition(GF2, 3))
    assert code.codewords == ((0,),)


def test_code_of_2spread_v4():
    code = code_from_partition(spread(2, 4, 2))
    assert code.size == 4**5 // 16 == 64
    assert code.alphabet_sizes == (4, 4, 4, 4, 4)
    # Linear: closed under componentwise sums comes from the kernel build;
    # containment of zero is directly visible.
    assert (0, 0, 0, 0, 0) in code.codewords


def test_code_of_line_spread_v2():
    code = code_from_partition(lines_partition(GF2, 2))
    assert code.size == 2**3 // 4 == 2
    words = set(code.codewords)
    assert (0, 0, 0) in words
    nonzero = (words - {(0, 0, 0)}).pop()
    assert all(c != 0 for c in nonzero)


def test_code_parameters_without_enumeration():
    params = code_parameters(spread(2, 6, 2))
    assert params["length"] == 21
    assert params["size"] == 4**21 // 2**6


def test_code_guard():
    with pytest.raises(TooLarge):
        code_from_partition(spread(2, 6, 2))  # 4^21 alphabet product


def test_perfect_2spread_v4():
    rep = verify_perfect(code_from_partition(spread(2, 4, 2)))
    assert rep.size == 64
    assert rep.sphere_ok  # 64 * 16 = 4^5
    assert rep.min_distance == 3
    assert rep.perfect


def test_perfect_line_spread_v2():
    rep = verify_perfect(code_from_partition(lines_partition(GF2, 2)))
    assert rep.size * 4 == 8
    assert rep.sphere_ok
    assert rep.perfect


def test_perfect_near_spread_v5():
    # 16384 codewords: exercises the weight-scan route.
    rep = verify_perfect(code_from_partition(near_spread(2, 5, 2)))
    assert rep.sphere_ok and rep.distance_ok


@pytest.mark.parametrize("name", list(CODE_CORPUS))
def test_codewords_match_reference(name):
    p = CODE_CORPUS[name]()
    code = code_from_partition(p)
    assert code == MixedCode(p.field, p.n, tuple(c.dim for c in p.components), reference_code(p))


@pytest.mark.parametrize("name", SMALL_CODES)
def test_distance_routes_agree(name):
    # The codes are closed under componentwise differences, so the minimum
    # nonzero weight that verify_perfect reports is the pairwise distance.
    code = code_from_partition(CODE_CORPUS[name]())
    assert code.size <= 3000
    pairwise = pairwise_min_distance(code.codewords)
    assert verify_perfect(code).min_distance == pairwise
    if name == "corrupted_cover":
        assert pairwise == 2


@pytest.mark.parametrize(
    "p",
    [
        Partition(GF2, 2, ()),
        Partition(GF2, 40, (canonicalize([(0,) * 39 + (1,)], GF2, 40),)),
        plane_lines(),
    ],
    ids=["empty_v2", "one_line_v40", "plane_lines_v4"],
)
def test_non_spanning_input_is_not_perfect(p):
    # The sphere equality and the distance can both hold on components that
    # miss part of V; only the expected size catches it.
    rep = verify_perfect(code_from_partition(p))
    assert rep.sphere_ok and rep.distance_ok
    assert not rep.expected_size_ok
    assert not rep.perfect


def test_cover_input_fails_perfection():
    rep = verify_perfect(code_from_partition(corrupted_cover()))
    assert not rep.sphere_ok
    assert rep.min_distance is not None and rep.min_distance < 3
    assert not rep.perfect


# ---------------------------------------------------------------------------
# designs
# ---------------------------------------------------------------------------

def test_design_line_spread_v2():
    d = design_from_partition(lines_partition(GF2, 2))
    assert d.point_count == 4
    assert len(d.classes) == 3
    assert all(len(cls) == 2 for cls in d.classes)
    assert all(len(b) == 2 for cls in d.classes for b in cls)
    rep = verify_design(d)
    assert rep.valid
    # 6 blocks of size 2 cover the 6 point pairs once each.
    assert d.block_count == 6


def test_design_2spread_v4():
    d = design_from_partition(spread(2, 4, 2))
    assert len(d.classes) == 5
    assert all(len(cls) == 4 for cls in d.classes)
    rep = verify_design(d)
    assert rep.valid
    assert rep.block_sizes == (4, 4, 4, 4, 4)
    # Pair count bookkeeping: 5 classes x 4 blocks x C(4,2) = C(16,2).
    assert 5 * 4 * 6 == 16 * 15 // 2


def test_design_trivial_partition():
    d = design_from_partition(trivial_partition(GF2, 3))
    assert len(d.classes) == 1
    assert verify_design(d).valid


def test_design_over_gf3():
    d = design_from_partition(lines_partition(make_field(3, 1), 2))
    rep = verify_design(d)
    assert rep.valid
    assert rep.class_count == 4
    assert rep.block_sizes == (3, 3, 3, 3)


def test_design_cover_input_fails():
    rep = verify_design(design_from_partition(corrupted_cover()))
    assert not rep.pair_ok
    assert not rep.valid


def test_design_guard():
    big = make_field(2, 17)
    with pytest.raises(TooLarge):
        design_from_partition(trivial_partition(big, 1))


def test_corpus_codes_and_designs_all_pass():
    # Every desk-size valid partition yields a perfect code and a valid design.
    corpus = [
        spread(2, 4, 2),
        near_spread(2, 5, 2),
        lines_partition(GF2, 2),
        lines_partition(GF2, 3),
        lines_partition(make_field(3, 1), 2),
        __import__("vspart").hyperplane_section(2, 2, 2),
        __import__("vspart").hyperplane_section(3, 2, 2),
        __import__("vspart").build_t_partition(2, {1, 2}, 4),
    ]
    for p in corpus:
        if p.r >= 2:
            assert verify_perfect(code_from_partition(p)).perfect
        assert verify_design(design_from_partition(p)).valid


def _with_class(d, i, blocks):
    classes = list(d.classes)
    classes[i] = tuple(blocks)
    return CosetDesign(d.field, d.n, tuple(classes))


def _report(d):
    r = verify_design(d)
    return (r.pair_ok, r.classes_ok, r.translation_ok, r.class_count, r.block_sizes)


def test_design_out_of_range_point_fails_class_check():
    # Point 15 replaced by 31 in class 0 of spread(2,4,2): 16 distinct codes,
    # each once, but 31 is not a point of V_4(2).
    d = design_from_partition(spread(2, 4, 2))
    bad = _with_class(d, 0, [tuple(31 if x == 15 else x for x in b) for b in d.classes[0]])
    assert _report(bad) == (True, False, False, 5, (4, 4, 4, 4, 4))
    neg = _with_class(d, 0, [tuple(-1 if x == 15 else x for x in b) for b in d.classes[0]])
    assert not verify_design(neg).classes_ok


@pytest.mark.parametrize(
    "case, expected",
    [
        # The last points of blocks 0 and 1 of class 0 swapped: not cosets.
        ("swap", (False, True, False, 5, (4, 4, 4, 4, 4))),
        # Class 2 shifted by x -> (x + 3) mod 16 on codes: not cosets.
        ("shift", (False, True, False, 5, (4, 4, 4, 4, 4))),
        # Point 15 replaced by 14 in class 0: a repeated point.
        ("repeat", (True, False, False, 5, (4, 4, 4, 4, 4))),
        # The last block of class 0 listed twice.
        ("repeat_block", (True, False, True, 5, (4, 4, 4, 4, 4))),
        # Blocks 0 and 1 of class 0 merged: uneven sizes.
        ("uneven", (False, False, False, 5, (0, 4, 4, 4, 4))),
    ],
)
def test_design_report_on_broken_classes(case, expected):
    # Reports pinned from the dict-counting verifier this one replaced.
    d = design_from_partition(spread(2, 4, 2))
    c0 = d.classes[0]
    if case == "swap":
        b0, b1 = list(c0[0]), list(c0[1])
        b0[-1], b1[-1] = b1[-1], b0[-1]
        bad = _with_class(d, 0, [tuple(sorted(b0)), tuple(sorted(b1))] + list(c0[2:]))
    elif case == "shift":
        bad = _with_class(d, 2, [tuple(sorted((x + 3) % 16 for x in b)) for b in d.classes[2]])
    elif case == "repeat":
        bad = _with_class(d, 0, [tuple(14 if x == 15 else x for x in b) for b in c0])
    elif case == "repeat_block":
        bad = _with_class(d, 0, list(c0) + [c0[-1]])
    else:
        bad = _with_class(d, 0, [c0[0] + c0[1]] + list(c0[2:]))
    assert _report(bad) == expected


def test_design_reports_match_over_fields():
    for args, sizes in [((2, 8, 2), (4,) * 85), ((3, 4, 2), (9,) * 10), ((4, 2, 1), (4,) * 5),
                        ((4, 4, 2), (16,) * 17), ((2, 6, 2), (4,) * 21)]:
        expected = (True, True, True, len(sizes), sizes)
        assert _report(design_from_partition(spread(*args))) == expected


def reference_design_classes(p):
    """Oracle: the cosets of each component, summed as coordinate tuples."""
    field, q, n = p.field, p.field.q, p.n
    points = [decode_vector(v, q, n) for v in range(q**n)]
    classes = []
    for c in p.components:
        members = [(0,) * n]
        for row in c.basis:
            members = [vec_add(field, m, vec_scale(field, a, row)) for m in members for a in range(q)]
        blocks = {tuple(sorted(encode_vector(vec_add(field, x, m), q) for m in members)) for x in points}
        classes.append(tuple(sorted(blocks)))
    return tuple(classes)


@pytest.mark.parametrize("args", [(4, 4, 2), (2, 6, 2), (8, 2, 1), (3, 4, 2)])
def test_design_matches_tuple_cosets(args):
    # In characteristic 2 the blocks are formed by XOR of codes.
    p = spread(*args)
    assert design_from_partition(p).classes == reference_design_classes(p)

