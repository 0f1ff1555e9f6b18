from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chain_oracles import LaurentFraction, substitute_full
from stratval.errors import ChartError, SchemaError
from stratval.laurent import LaurentPoly, parse_laurent


def test_parse_basic():
    p = parse_laurent("3*a^2*b^-1")
    assert p.terms == {(("a", 2), ("b", -1)): Fraction(3)}
    q = parse_laurent("a*b + a*t")
    assert q == LaurentPoly.var("a") * (LaurentPoly.var("b") + LaurentPoly.var("t"))
    assert parse_laurent("-x + 1/2") == LaurentPoly.var("x").scale(-1) + LaurentPoly.const(
        Fraction(1, 2)
    )


def test_parse_rejects_garbage():
    with pytest.raises(SchemaError):
        parse_laurent("a +* b ??")
    with pytest.raises(SchemaError):
        parse_laurent("")
    with pytest.raises(SchemaError):
        parse_laurent("x +")


def test_min_exponent_of_zero_is_refused():
    t = LaurentPoly.var("t")
    assert (t * t).min_exponent("t") == 2
    with pytest.raises(ChartError):
        LaurentPoly.zero().min_exponent("t")


def test_example_open_set_multiplicity():
    # x14 on the Grassmannian open set vanishes along {d=0} with multiplicity 1
    g = parse_laurent("a*b*d + a*b*c*d")
    assert g.min_exponent("d") == 1


def _rand_poly(draw_terms):
    terms = {}
    for coef, exps in draw_terms:
        mono = tuple(
            sorted((v, e) for v, e in zip("xyz", exps) if e != 0)
        )
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(coef)
    return LaurentPoly(terms)


poly_strategy = st.builds(
    _rand_poly,
    st.lists(
        st.tuples(
            st.integers(-4, 4).filter(bool),
            st.tuples(st.integers(-2, 3), st.integers(-2, 3), st.integers(0, 2)),
        ),
        min_size=1,
        max_size=4,
    ),
)


@given(poly_strategy, poly_strategy)
def test_min_exponent_multiplicative(g, h):
    if g.is_zero() or h.is_zero():
        return
    prod = g * h
    assert not prod.is_zero()  # integral domain
    assert prod.min_exponent("x") == g.min_exponent("x") + h.min_exponent("x")


@given(poly_strategy, st.sampled_from("xyzw"))
def test_order_and_lowest_part_match_a_dict_reference(g, var):
    if g.is_zero():
        with pytest.raises(ChartError):
            g.order_and_lowest_part(var)
        return
    order = min(dict(m).get(var, 0) for m in g.terms)
    lowest = {
        tuple((v, e) for v, e in m if v != var): c
        for m, c in g.terms.items()
        if dict(m).get(var, 0) == order
    }
    assert g.order_and_lowest_part(var) == (order, LaurentPoly(lowest))
    assert g.min_exponent(var) == order
    exps = [dict(m).get(var, 0) for m in g.terms]
    assert g.exponent_range(var) == (min(exps), max(exps))


@given(poly_strategy)
def test_parse_reads_back_what_str_prints(g):
    assert parse_laurent(str(g)) == g


def test_parse_drops_cancelled_terms():
    assert parse_laurent("x - x") == LaurentPoly.zero()
    assert parse_laurent("x - x").terms == {}
    assert parse_laurent("x + y - x") == LaurentPoly.var("y")


@given(poly_strategy, poly_strategy, poly_strategy)
def test_ring_laws(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f


def test_fraction_restrict_keeps_lowest_part():
    t, u = LaurentPoly.var("t"), LaurentPoly.var("u")
    # (t + t^2 u) / (t - t^2): order 0 along t, restriction is 1
    frac = LaurentFraction(t + t * t * u, t - t * t)
    assert frac.min_exponent("t") == 0
    assert frac.restrict("t").as_constant() == 1
    with pytest.raises(ChartError):
        LaurentFraction(t, u).restrict("t")


def _polys(names, lo, hi):
    """Polynomials in the variables of `names`, which must be sorted."""
    monomial = st.tuples(*(st.integers(lo, hi) for _ in names)).map(
        lambda exps: tuple((v, e) for v, e in zip(names, exps) if e)
    )
    return st.dictionaries(monomial, st.integers(-3, 3).filter(bool), max_size=4).map(
        lambda terms: LaurentPoly({m: Fraction(c) for m, c in terms.items()})
    )


def _within(p: LaurentPoly, limits: dict[str, int]) -> LaurentPoly:
    return LaurentPoly({
        m: c for m, c in p.terms.items()
        if all(dict(m).get(v, 0) <= top for v, top in limits.items())
    })


@given(
    _polys("xy", 0, 4), _polys("at", 0, 3), _polys("at", 0, 3),
    st.integers(0, 8),
)
def test_truncated_substitution_keeps_every_term_within_the_limit(g, hx, hy, top):
    # t appears at nonnegative exponents only; a is not limited
    hy = hy * LaurentPoly.var("a", -1)
    table = {"x": hx, "y": hy}
    full = substitute_full(g, table)
    powers: dict = {}
    for _ in range(2):  # the second call reads every power from the table
        assert g.substitute(table, {"t": top}, powers) == _within(full, {"t": top})
    assert g.substitute(table) == full


def test_substitution_builds_each_power_once():
    g = parse_laurent("x^5 + x^4*y + 3*y^2")
    table = {"x": parse_laurent("t + a"), "y": parse_laurent("t^2 - a")}
    powers: dict = {}
    g.substitute(table, powers=powers)
    # x^5 = x^4 * x with x^4 = (x^2)^2
    assert sorted(powers) == [
        ("x", 1), ("x", 2), ("x", 4), ("x", 5), ("y", 1), ("y", 2)
    ]
    kept = dict(powers)
    assert g.substitute(table, powers=powers) == substitute_full(g, table)
    assert all(powers[k] is kept[k] for k in kept) and len(powers) == len(kept)


def test_limit_on_a_negative_exponent_is_refused():
    g = parse_laurent("x")
    with pytest.raises(ChartError, match="negative exponent of 't'"):
        g.substitute({"x": parse_laurent("t^-1 + a")}, {"t": 3})
    assert g.substitute({"x": parse_laurent("t^-1 + a")}) == parse_laurent("t^-1 + a")


def test_substitution_errors_are_schema_errors():
    with pytest.raises(SchemaError, match="unknown variable 'y'"):
        parse_laurent("x*y").substitute({"x": parse_laurent("t")})
    with pytest.raises(SchemaError, match="negative exponent on 'x'"):
        parse_laurent("x^-1").substitute({"x": parse_laurent("t")})
