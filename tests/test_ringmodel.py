from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracles import (
    hilbert_by_products,
    normal_form_by_products,
    ring_slice_by_products,
)
from stratval.errors import BoundError, SchemaError
from stratval.laurent import LaurentPoly, parse_laurent
from stratval.ringmodel import GradedQuotient
from stratval.workspace import bundled, load_workspace

BUNDLED = [
    "elliptic1", "elliptic2", "gr24", "psl2", "pset_p2", "quadric", "sl3b",
    "torus_t2",
]


def poly_ring(names, deg=1):
    return GradedQuotient([(n, deg) for n in names], [])


def test_no_relations_all_monomials():
    q = poly_ring(["x", "y", "z"])
    assert q.hilbert(2) == 6
    assert len(q.degree_basis(2)) == 6


def test_plucker_quadric(gr24_ring):
    assert gr24_ring.hilbert(1) == 6
    assert gr24_ring.hilbert(2) == 20
    assert gr24_ring.hilbert(3) == 50


def test_quadric_surface_hilbert():
    q = GradedQuotient(
        [(n, 1) for n in ["x", "y", "z", "t"]],
        [parse_laurent("y*z - t*y - t*z")],
    )
    for m in range(6):
        assert q.hilbert(m) == (m + 1) ** 2


def test_hilbert_pivot_invariance(gr24_ring):
    # rank is independent of the order rows were fed in: rebuild with the
    # relation scaled and negated
    other = GradedQuotient(
        [(n, 1) for n in ["x12", "x13", "x14", "x23", "x24", "x34"]],
        [parse_laurent("x13*x24 - x12*x34 - x23*x14").scale(Fraction(3, 7))],
    )
    for m in range(5):
        assert other.hilbert(m) == gr24_ring.hilbert(m)


def test_normal_form(gr24_ring):
    basis = gr24_ring.degree_basis(2)
    mono = basis[0]
    from stratval.laurent import LaurentPoly

    nf = gr24_ring.normal_form(LaurentPoly({mono: Fraction(1)}), 2)
    assert nf == {mono: Fraction(1)}
    assert gr24_ring.normal_form(LaurentPoly.zero(), 2) == {}
    # the straightening of the non-standard pair
    nf2 = gr24_ring.normal_form(parse_laurent("x14*x23"), 2)
    assert nf2 == {
        (("x13", 1), ("x24", 1)): Fraction(1),
        (("x12", 1), ("x34", 1)): Fraction(-1),
    }
    # equal ring elements share a normal form
    assert nf2 == gr24_ring.normal_form(parse_laurent("x13*x24 - x12*x34"), 2)


def test_normal_form_rejects_inhomogeneous(gr24_ring):
    with pytest.raises(SchemaError):
        gr24_ring.normal_form(parse_laurent("x12 + x12*x34"), 2)


def test_relation_must_be_homogeneous():
    with pytest.raises(SchemaError):
        GradedQuotient([("x", 1), ("y", 2)], [parse_laurent("x + y")])


def test_weighted_degrees():
    q = GradedQuotient([("x", 1), ("y", 2)], [])
    assert q.hilbert(4) == 3  # x^4, x^2 y, y^2


def test_slice_guard():
    import stratval.ringmodel as rm

    q = poly_ring(list("abcdefgh"))
    old = rm.SLICE_GUARD
    rm.SLICE_GUARD = 10
    try:
        with pytest.raises(BoundError):
            q.hilbert(3)
    finally:
        rm.SLICE_GUARD = old


def test_is_zero_in_quotient(gr24_ring):
    assert gr24_ring.is_zero_in_quotient(
        parse_laurent("x12*x34 + x23*x14 - x13*x24")
    )
    assert not gr24_ring.is_zero_in_quotient(parse_laurent("x12*x34"))


@pytest.mark.parametrize("name", BUNDLED)
def test_slice_rows_match_the_laurent_products(name):
    """The slice reduced over Z against the Laurent products reduced over Q:
    the same monomials, index and pivots, every row primitive with a
    positive lead and its keys in the oracle's order, and each row over its
    lead equal to the oracle's row, entry for entry."""
    ring = load_workspace(bundled(name)).require_ring()
    for m in range(5):
        monos, index, reduced, pivots = ring._slice(m)
        want_monos, want_index, want_rows, want_pivots = ring_slice_by_products(
            ring, m
        )
        assert (monos, index, pivots) == (want_monos, want_index, want_pivots)
        assert len(reduced) == len(want_rows)
        for row, want in zip(reduced, want_rows):
            assert list(row) == list(want)
            assert all(type(c) is int for c in row.values())
            lead = row[max(row)]
            assert lead > 0
            assert gcd(*row.values()) == 1
            assert [Fraction(c, lead) for c in row.values()] == list(want.values())


RATIONALS = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5)
)


def draw_element(draw, ring: GradedQuotient, m: int) -> LaurentPoly:
    """A degree-m element: up to four of its monomials with rational
    coefficients."""
    monos = draw(st.lists(
        st.sampled_from(ring.monomials(m)), min_size=1, max_size=4, unique=True
    ))
    return LaurentPoly({mo: draw(RATIONALS) for mo in monos})


def assert_matches_the_fraction_oracle(ring: GradedQuotient, m: int, elements):
    assert ring.hilbert(m) == hilbert_by_products(ring, m)
    for poly in elements:
        nf = ring.normal_form(poly, m)
        assert nf == normal_form_by_products(ring, poly, m)
        assert all(type(c) is Fraction for c in nf.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_slices_match_the_fraction_oracle(data):
    """Random homogeneous relations with rational coefficients in variables
    of degrees 1, 1 and 2: the Hilbert function and the normal forms of
    random elements equal those of the slices reduced over Q."""
    draw = data.draw
    variables = [("x", 1), ("y", 1), ("z", 2)]
    free = GradedQuotient(variables, [])
    relations = [
        draw_element(draw, free, draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    ring = GradedQuotient(variables, relations)
    for m in range(5):
        elements = [draw_element(draw, ring, m) for _ in range(2)]
        assert_matches_the_fraction_oracle(ring, m, elements)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_rings_match_the_fraction_oracle(name):
    """Every monomial of degree at most 3, and the sum of all monomials of
    degree 4 with distinct rational coefficients."""
    ring = load_workspace(bundled(name)).require_ring()
    for m in range(4):
        monomials = [LaurentPoly({mo: Fraction(1)}) for mo in ring.monomials(m)]
        assert_matches_the_fraction_oracle(ring, m, monomials)
    total = LaurentPoly({
        mo: Fraction(k + 1, k + 2) for k, mo in enumerate(ring.monomials(4))
    })
    assert_matches_the_fraction_oracle(ring, 4, [total])


def test_monomials_are_a_fresh_list_each_call(gr24_ring):
    first = gr24_ring.monomials(2)
    first.clear()
    assert len(gr24_ring.monomials(2)) == 21
    assert gr24_ring.hilbert(2) == 20
