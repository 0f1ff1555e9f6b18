from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stratval.avector import (
    AVector,
    Ordering,
    TotalOrder,
    degree_of,
    lex_compare,
    lex_min,
)
from stratval.errors import SchemaError

IDS = ["34", "24", "14", "23", "13", "12"]
ORD = TotalOrder(IDS)


def test_lex_trivial_cases():
    zero = AVector.zero()
    assert lex_compare(zero, zero, ORD) is Ordering.EQUAL
    # single-entry vectors: the one supported earlier in the order is greater
    assert lex_compare(AVector.unit("24"), AVector.unit("13"), ORD) is Ordering.GREATER


def test_lex_gr24_example():
    u = AVector.unit("13") + AVector.unit("24")
    v = AVector.unit("12") + AVector.unit("34")
    # first difference at "34": 0 < 1
    assert lex_compare(u, v, ORD) is Ordering.LESS


def test_lex_unknown_id():
    with pytest.raises(SchemaError):
        lex_compare(AVector.unit("99"), AVector.zero(), ORD)


def test_degree_of():
    degs = {p: 1 for p in IDS}
    assert degree_of(AVector.zero(), degs) == 0
    assert degree_of(AVector.unit("34", 1), {"34": 5}) == 5
    ell = AVector({"z": Fraction(1, 3), "y": Fraction(2, 3)})
    assert degree_of(ell, {"z": 1, "y": 1}) == 1
    with pytest.raises(SchemaError):
        degree_of(AVector.unit("34"), {})


avec_strategy = st.builds(
    lambda pairs: AVector({p: Fraction(n, 6) for p, n in pairs}),
    st.lists(
        st.tuples(st.sampled_from(IDS), st.integers(-12, 12)),
        max_size=4,
        unique_by=lambda t: t[0],
    ),
)


@given(avec_strategy, avec_strategy, avec_strategy)
def test_lex_compatible_with_addition(u, v, w):
    if lex_compare(u, v, ORD) in (Ordering.GREATER, Ordering.EQUAL):
        assert lex_compare(u + w, v + w, ORD) in (Ordering.GREATER, Ordering.EQUAL)


@given(avec_strategy, avec_strategy)
def test_degree_linear(u, v):
    degs = {p: i + 1 for i, p in enumerate(IDS)}
    assert degree_of(u + v, degs) == degree_of(u, degs) + degree_of(v, degs)


@given(avec_strategy, avec_strategy)
def test_lex_total(u, v):
    c1, c2 = lex_compare(u, v, ORD), lex_compare(v, u, ORD)
    assert (c1 is Ordering.EQUAL) == (u == v)
    assert c1.value == -c2.value


def test_lex_min_empty_raises():
    with pytest.raises(ValueError):
        lex_min([], ORD)
    with pytest.raises(ValueError):
        lex_min(iter(()), ORD)


def test_lex_min_keeps_first_of_equal_values():
    a, b = AVector.unit("13"), AVector.unit("13")
    assert a == b and a is not b
    assert lex_min([a, b], ORD) is a
    assert lex_min([AVector.unit("24"), b, a], ORD) is b


@given(st.lists(avec_strategy, min_size=1, max_size=6))
def test_lex_min_is_a_lower_bound(values):
    m = lex_min(values, ORD)
    assert any(m is v for v in values)
    assert all(lex_compare(m, v, ORD) is not Ordering.GREATER for v in values)


def test_lex_min_agrees_with_quasi_valuation(gr24, gr24_atlas):
    from stratval.laurent import parse_laurent
    from stratval.valuation import quasi_valuation, valuate_all

    for ranked in (IDS, ["34", "24", "23", "14", "13", "12"]):
        order = TotalOrder(ranked)
        gr24.check_total_order(order)
        for expr in ["x14", "x14*x23", "x13 + x14", "x12*x34 - x14*x23", "x34^2 + x24*x13"]:
            g = parse_laurent(expr)
            values = [res.value for res in valuate_all(g, gr24_atlas, gr24).values()]
            assert lex_min(values, order) == quasi_valuation(g, gr24_atlas, gr24, order)
