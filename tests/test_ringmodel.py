from fractions import Fraction

import pytest

from chain_oracles import ring_slice_by_products
from stratval.errors import BoundError, SchemaError
from stratval.laurent import parse_laurent
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
    """Shifting each relation's monomials gives the rows the Laurent products
    gave: the same reduced rows, entry for entry and in order, and the same
    pivots."""
    ring = load_workspace(bundled(name)).require_ring()
    for m in range(5):
        monos, index, reduced, pivots = ring._slice(m)
        want = ring_slice_by_products(ring, m)
        assert (monos, index, reduced, pivots) == want
        assert [list(row.items()) for row in reduced] == [
            list(row.items()) for row in want[2]
        ]
