"""Closed-form constructions and the dimension-set builder."""

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from vspart import construct, partition
from vspart.construct import (
    build_t_partition,
    fixed_plus_lines,
    hyperplane_section,
    lift,
    near_spread,
    spread,
    typed_construct,
)
from vspart.errors import (
    BadDimensions,
    DimensionTooSmall,
    NotDivisible,
    UncoveredCase,
    UnsupportedType,
)
from vspart.gf import ExtField, field_from_order, make_field
from vspart.io import dumps
from vspart.partition import PartitionType, is_T_partition, trivial_partition, type_of, verify

GF2 = make_field(2, 1)


# ---------------------------------------------------------------------------
# spread
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "q,n,d,count",
    [(2, 4, 2, 5), (2, 6, 3, 9), (3, 4, 2, 10), (2, 6, 2, 21), (4, 4, 2, 17)],
)
def test_spread_counts(q, n, d, count):
    assert count == (q**n - 1) // (q**d - 1)
    p = spread(q, n, d)
    assert p.r == count
    assert type_of(p) == PartitionType.of((count, d))
    assert verify(p).valid


def test_spread_full_dimension_is_trivial():
    p = spread(2, 3, 3)
    assert p.r == 1


def test_spread_not_divisible():
    with pytest.raises(NotDivisible):
        spread(2, 5, 2)


@pytest.mark.parametrize("q,d", [(2, 1), (2, 3), (3, 2), (4, 2)])
def test_spread_is_the_lift_of_the_trivial_partition(q, d):
    lifted = lift(trivial_partition(field_from_order(q), d), d)
    assert spread(q, 2 * d, d).components == lifted.partition.components


def _counting(calls, name, real):
    def wrapped(*args):
        calls[name] += 1
        return real(*args)
    return wrapped


def test_spread_lifts_block_by_block_and_verifies_once(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(ExtField, "mul", _counting(calls, "mul", ExtField.mul))
    for module in (construct, partition):
        monkeypatch.setattr(module, "verify", _counting(calls, "verify", module.verify))
    spread(2, 12, 2)
    # Two rows per nonzero alpha of GF(4) per component of the 2-spreads of
    # V_2, V_4, ..., V_10: 2 * 3 * (1 + 5 + 21 + 85 + 341) products.
    assert calls["mul"] <= 2_718
    assert calls["verify"] == 1
    calls.clear()
    build_t_partition(2, {2, 3}, 12)
    assert calls["verify"] == 7


# The construct jobs of the benchmark, by the names its pins use.
CONSTRUCT_JOBS = {
    "spread(2,12,2)": lambda: spread(2, 12, 2),
    "spread(3,8,2)": lambda: spread(3, 8, 2),
    "spread(2,12,3)": lambda: spread(2, 12, 3),
    "spread(4,6,2)": lambda: spread(4, 6, 2),
    "hyperplane_section(2,6,2)": lambda: hyperplane_section(2, 6, 2),
    "lift(near_spread(3,5,2),4)": lambda: lift(near_spread(3, 5, 2), 4).partition,
    "build_t_partition(2,{2,3},12)": lambda: build_t_partition(2, {2, 3}, 12),
}


def test_construct_outputs_match_the_benchmark_pins():
    expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    pins = json.loads(expected.read_text(encoding="utf-8"))["construct"]
    pins.update(pins.pop("spreads"))
    assert set(pins) == set(CONSTRUCT_JOBS)
    for name, build in CONSTRUCT_JOBS.items():
        digest = hashlib.sha256(dumps(build()).encode("utf-8")).hexdigest()
        assert digest == pins[name]["sha256"], name


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def test_lift_single_component_counts():
    res = lift(trivial_partition(GF2, 2), 3)
    assert len(res.lifted) == (2**3 - 1) * 1
    assert type_of(res.partition) == PartitionType.of((8, 2), (1, 3))
    assert verify(res.partition).valid


def test_lift_spread_counts():
    res = lift(spread(2, 4, 2), 4)
    assert len(res.lifted) == 15 * 5
    assert res.partition.r == 77
    assert res.partition.n == 8
    assert verify(res.partition).valid


def test_lift_dimension_too_small():
    with pytest.raises(DimensionTooSmall):
        lift(spread(2, 4, 2), 1)


def test_lift_count_law_randomized():
    rng = random.Random(20240907)
    bases = [
        ("trivial2", lambda: __import__("vspart").trivial_partition(GF2, 2)),
        ("spread242", lambda: spread(2, 4, 2)),
        ("spread331", lambda: spread(3, 3, 1)),
        ("hsec222", lambda: hyperplane_section(2, 2, 2)),
        ("near352", lambda: near_spread(3, 5, 2)),
    ]
    checked = 0
    for _ in range(12):
        name, make = rng.choice(bases)
        p = make()
        max_dim = max(c.dim for c in p.components)
        m_prime = max_dim + rng.randrange(0, 2)
        res = lift(p, m_prime)
        q = p.field.q
        assert len(res.lifted) == (q**m_prime - 1) * p.r, name
        assert verify(res.partition).valid
        checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# near-spread
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "q,n,d,expected",
    [
        (2, 5, 2, ((8, 2), (1, 3))),
        (3, 5, 2, ((27, 2), (1, 3))),
        (2, 7, 3, ((16, 3), (1, 4))),
    ],
)
def test_near_spread_types(q, n, d, expected):
    p = near_spread(q, n, d)
    assert type_of(p) == PartitionType(expected)
    assert verify(p).valid
    # Counting identity, evaluated independently.
    assert sum(x * (q**dd - 1) for x, dd in expected) == q**n - 1


def test_near_spread_half_routes_to_spread():
    p = near_spread(2, 4, 2)
    assert type_of(p) == type_of(spread(2, 4, 2))
    assert p.components == spread(2, 4, 2).components


def test_near_spread_bad_dimensions():
    with pytest.raises(BadDimensions):
        near_spread(2, 5, 3)
    with pytest.raises(BadDimensions):
        near_spread(2, 5, 0)


def test_near_spread_is_lift_of_trivial():
    ns = near_spread(2, 5, 2)
    lifted = lift(trivial_partition(GF2, 2), 3).partition
    assert ns.components == lifted.components
    assert dumps(ns).replace('"rule": "near-spread"', '"rule": "lift"') != ""
    # Same canonical component serialization.
    a = json.loads(dumps(ns))
    b = json.loads(dumps(lifted))
    assert a["components"] == b["components"]


# ---------------------------------------------------------------------------
# hyperplane sections
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "q,k,d,expected",
    [
        (2, 2, 2, ((4, 1), (1, 2))),
        (3, 2, 2, ((9, 1), (1, 2))),
        (2, 2, 3, ((8, 2), (1, 3))),
        (2, 3, 2, ((16, 1), (5, 2))),
    ],
)
def test_hyperplane_section_types(q, k, d, expected):
    p = hyperplane_section(q, k, d)
    assert p.n == k * d - 1
    assert type_of(p) == PartitionType(expected)
    assert verify(p).valid


def test_hyperplane_section_matches_near_spread_type():
    assert type_of(hyperplane_section(2, 2, 3)) == type_of(near_spread(2, 5, 2))


def test_hyperplane_section_rejects_lines():
    with pytest.raises(BadDimensions):
        hyperplane_section(2, 3, 1)


def test_hyperplane_section_type_formula_sweep():
    # Desk-scale window: full verification is quadratic in the component
    # count, so the sweep stops at 2^12 ambient vectors.
    for q in (2, 3):
        for d in (2, 3):
            for k in range(1, 7):
                if q ** (k * d) > 1 << 12:
                    continue
                p = hyperplane_section(q, k, d)
                small = q ** ((k - 1) * d)
                big = (small - 1) // (q**d - 1)
                expected = [(small, d - 1)] + ([(big, d)] if big else [])
                assert type_of(p) == PartitionType(tuple(expected))


# ---------------------------------------------------------------------------
# typed construction
# ---------------------------------------------------------------------------

def test_typed_spread():
    p = typed_construct(2, 4, PartitionType.of((5, 2)))
    assert type_of(p) == PartitionType.of((5, 2))


def test_typed_near_spread():
    p = typed_construct(2, 5, PartitionType.of((8, 2), (1, 3)))
    assert type_of(p) == PartitionType.of((8, 2), (1, 3))


def test_typed_with_zero_multiplicity():
    p = typed_construct(2, 6, PartitionType.of((21, 2), (0, 4)))
    assert type_of(p) == PartitionType.of((21, 2))


@pytest.mark.parametrize(
    "n, text, built",
    [(4, "5x2,0x3", PartitionType.of((5, 2))), (3, "0x1,1x3", PartitionType.of((1, 3)))],
)
def test_typed_dispatches_on_present_dimensions(n, text, built):
    # A zero multiplicity says a dimension is absent; it must not move the
    # type out of the closed-form cases.
    p = typed_construct(2, n, PartitionType.parse(text))
    assert verify(p).valid
    assert type_of(p) == built
    assert p.provenance["type"] == text


def test_typed_rejects_filtered_type():
    with pytest.raises(UnsupportedType):
        typed_construct(2, 5, PartitionType.of((1, 2), (4, 3)))
    with pytest.raises(UnsupportedType) as exc:
        typed_construct(2, 5, PartitionType.of((1, 1), (10, 2)))
    assert str(exc.value) == (
        "[(1,1), (10,2)] fails necessary conditions: "
        "min_count_two, min_lines_three, min_count_q1, min_count_qt"
    )


def test_typed_rejects_non_solution():
    with pytest.raises(UnsupportedType) as exc:
        typed_construct(2, 5, PartitionType.of((2, 2), (4, 3)))
    assert str(exc.value) == "[(2,2), (4,3)] does not solve the counting equation at q=2, n=5"


def test_typed_rejects_open_cases():
    # Solves the equation and passes the flags, but the dimensions do not
    # sum to n, so the closed forms do not apply.
    with pytest.raises(UnsupportedType):
        typed_construct(2, 6, PartitionType.of((14, 2), (3, 3)))


# ---------------------------------------------------------------------------
# fixed subspace plus outside lines
# ---------------------------------------------------------------------------

def test_fixed_plus_lines():
    p = fixed_plus_lines(2, 3, 2)
    assert type_of(p) == PartitionType.of((4, 1), (1, 2))
    assert verify(p).valid
    with pytest.raises(BadDimensions):
        fixed_plus_lines(2, 3, 3)


# ---------------------------------------------------------------------------
# dimension-set builder
# ---------------------------------------------------------------------------

def test_build_half_dim_with_lines():
    p = build_t_partition(2, {1, 2}, 4)
    assert is_T_partition(p, {1, 2})
    assert verify(p).valid
    assert type_of(p) == PartitionType.of((3, 1), (4, 2))
    assert p.provenance["rule"] == "lines-refined-base"


def test_build_half_dim_search_fallback():
    p = build_t_partition(2, {2, 3}, 6)
    assert is_T_partition(p, {2, 3})
    assert verify(p).valid
    assert p.provenance["rule"] == "half-base-search"


def test_build_gcd_split():
    p = build_t_partition(2, {2, 3}, 8)
    assert is_T_partition(p, {2, 3})
    assert verify(p).valid
    assert sum(2**c.dim - 1 for c in p.components) == 255
    assert p.provenance["rule"] == "gcd-split"


def test_build_adjacent_sum():
    p = build_t_partition(2, {1, 2, 3}, 5)
    assert is_T_partition(p, {1, 2, 3})
    assert verify(p).valid
    assert sum(2**c.dim - 1 for c in p.components) == 31
    assert p.provenance["rule"] == "adjacent-sum"


def test_build_triple_split():
    # Neither case reaches triple-split: a single dimension is a spread, and
    # {3,4}@12 has the divisor 4 of gcd(12, 8).  The cheapest triple-split
    # point known, {3,4}@14, takes tens of seconds.
    p = build_t_partition(2, {2}, 10)
    assert is_T_partition(p, {2})
    assert p.provenance["rule"] == "spread"
    p = build_t_partition(2, {3, 4}, 12)
    assert is_T_partition(p, {3, 4})
    assert verify(p).valid
    assert p.provenance["rule"] == "gcd-split"


def test_build_over_gf3():
    p = build_t_partition(3, {1, 2}, 4)
    assert is_T_partition(p, {1, 2})
    assert verify(p).valid
    assert type_of(p) == PartitionType.of((4, 1), (9, 2))


@pytest.mark.parametrize("n", [8, 12])
def test_build_half_base_searches_the_dimension_set(n):
    # The lex-first passing type, 4x2,9x3,12x4, does not exist (Heden's
    # tail theorem), so the half base must search for T, not type by type.
    p = build_t_partition(2, {2, 3, 4}, n, budget=1_000_000)
    assert verify(p).valid
    assert is_T_partition(p, {2, 3, 4})


def test_half_base_runs_one_find(monkeypatch):
    calls = []
    real = construct.find_partition

    def counting(q, n, goal, **kwargs):
        calls.append(goal)
        return real(q, n, goal, **kwargs)

    monkeypatch.setattr(construct, "find_partition", counting)
    p = build_t_partition(2, {2, 3}, 6)
    assert calls == [(2, 3)]
    assert p.provenance == {"rule": "half-base-search", "T": [2, 3], "n": 6, "type": "7x2,6x3"}


def test_build_gate_stops_at_the_first_count_vector_not_ruled_out(monkeypatch):
    # {1,2,3}@12 has 398,191 count vectors and gcd-split reads none of them,
    # so the gate checks few and no UncoveredCase payload is annotated.
    checks = []

    def counting(real):
        def wrapped(*args):
            checks.append(args)
            return real(*args)
        return wrapped

    for name in ("ruled_out", "annotate"):
        monkeypatch.setattr(construct, name, counting(getattr(construct, name)))
    p = build_t_partition(2, {1, 2, 3}, 12)
    assert len(checks) < 1_000
    assert hashlib.sha256(dumps(p).encode()).hexdigest().startswith("630109e9edbe796a")


def test_build_half_base_refine_path():
    p = build_t_partition(2, {2, 4}, 8)
    assert is_T_partition(p, {2, 4})
    assert verify(p).valid
    assert p.provenance["rule"] == "half-base-refine"


def test_build_uncovered_no_solution():
    with pytest.raises(UncoveredCase) as exc:
        build_t_partition(2, {3}, 7)
    assert "counting equation" in str(exc.value)
    assert exc.value.solutions == ()


def test_build_uncovered_open_window():
    # Between twice and three times the largest dimension with no matching
    # divisor: feasible counts exist but the toolkit has no rule.
    with pytest.raises(UncoveredCase) as exc:
        build_t_partition(2, {2, 3}, 7)
    assert exc.value.solutions


def test_build_uncovered_when_all_counts_filtered():
    # dims {2,5} at n=8: solutions exist but each needs several components of
    # dimension 5, impossible above n/2.
    with pytest.raises(UncoveredCase) as exc:
        build_t_partition(2, {2, 5}, 8)
    assert exc.value.solutions
    assert "necessary condition" in str(exc.value)


def test_build_typed_fallback_window():
    # No dispatch window covers {2,4} at n=6, but the two-dimension closed
    # form does.
    p = build_t_partition(2, {2, 4}, 6)
    assert is_T_partition(p, {2, 4})
    assert type_of(p) == PartitionType.of((16, 2), (1, 4))
    assert p.provenance["rule"] == "typed-fallback"


def test_build_singleton_spread():
    p = build_t_partition(2, {2}, 6)
    assert type_of(p) == PartitionType.of((21, 2))


def test_build_outputs_are_deterministic():
    a = build_t_partition(2, {1, 2, 3}, 5)
    b = build_t_partition(2, {1, 2, 3}, 5)
    assert a == b and dumps(a) == dumps(b)
