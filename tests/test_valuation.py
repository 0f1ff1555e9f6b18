import itertools
import re
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracles import LaurentFraction, rees_min_by_scan, substitute_full
from stratval.avector import AVector
from stratval.charts import ChainChart
from stratval.errors import ChartError, StratvalError
from stratval.laurent import LaurentPoly, parse_laurent
from stratval.poset import StratPoset
from stratval.valuation import (
    chain_valuation,
    chains_attaining,
    quasi_valuation,
    rees_min,
    sequence_of_functions,
    valuate_all,
)
from stratval.workspace import bundled, load_workspace

CHAIN_23 = ("34", "24", "23", "13", "12")
CHAIN_14 = ("34", "24", "14", "13", "12")

# the full valuation table on the chart through (2,3), top-down coordinates
TABLE_23 = {
    "x34": [1, 0, 0, 0, 0],
    "x24": [0, 1, 0, 0, 0],
    "x23": [0, 0, 1, 0, 0],
    "x14": [0, 1, -1, 1, 0],
    "x13": [0, 0, 0, 1, 0],
    "x12": [0, 0, 0, 0, 1],
}


def test_valuation_table_chain_23(gr24, gr24_atlas):
    chart = gr24_atlas[CHAIN_23]
    for name, expected in TABLE_23.items():
        res = chain_valuation(parse_laurent(name), chart, gr24)
        assert res.D == [Fraction(x) for x in expected], name
        assert res.lc == 1


def test_constant_function_valuates_to_zero(gr24, gr24_atlas):
    res = chain_valuation(parse_laurent("7"), gr24_atlas[CHAIN_23], gr24)
    assert res.value.is_zero()


def test_extremal_on_chain_gives_unit(gr24, gr24_atlas):
    for p in CHAIN_14:
        res = chain_valuation(
            parse_laurent("x" + p), gr24_atlas[CHAIN_14], gr24
        )
        assert res.value == AVector.unit(p)


def test_zero_function_rejected(gr24, gr24_atlas):
    plucker = parse_laurent("x12*x34 + x23*x14 - x13*x24")
    with pytest.raises(ChartError):
        chain_valuation(plucker, gr24_atlas[CHAIN_23], gr24)


def test_quasi_valuation_extremal_law(gr24, gr24_atlas):
    order = gr24.default_total_order()
    for p in gr24.ids:
        v = quasi_valuation(parse_laurent("x" + p), gr24_atlas, gr24, order)
        assert v == AVector.unit(p), p


def test_quasi_valuation_product(gr24, gr24_atlas):
    order = gr24.default_total_order()
    v = quasi_valuation(parse_laurent("x14*x23"), gr24_atlas, gr24, order)
    assert v == AVector.unit("13") + AVector.unit("24")
    w = quasi_valuation(parse_laurent("x12*x34"), gr24_atlas, gr24, order)
    assert w == AVector.unit("12") + AVector.unit("34")


def test_support(gr24, gr24_atlas):
    order = gr24.default_total_order()
    assert AVector.zero().support() == set()
    assert AVector.unit("13").support() == {"13"}
    v = quasi_valuation(parse_laurent("x14*x23"), gr24_atlas, gr24, order)
    assert v.support() == {"13", "24"}


def test_chains_attaining(gr24, gr24_atlas):
    order = gr24.default_total_order()
    # the top extremal function is attained on every chain
    assert chains_attaining(parse_laurent("x34"), gr24_atlas, gr24, order) == sorted(
        gr24.maximal_chains()
    )
    # x14 is attained only on the chain through (1,4)
    assert chains_attaining(parse_laurent("x14"), gr24_atlas, gr24, order) == [CHAIN_14]


def test_chains_attaining_support_law(gr24, gr24_atlas):
    order = gr24.default_total_order()
    for expr in ["x14", "x23", "x14*x23", "x13*x24", "x12*x34", "x13 + x14"]:
        g = parse_laurent(expr)
        got = chains_attaining(g, gr24_atlas, gr24, order)
        expect = gr24.chains_through(quasi_valuation(g, gr24_atlas, gr24, order).support())
        assert got == expect, expr


def test_valuate_all_covers_both_chains(gr24, gr24_atlas):
    per_chain = valuate_all(parse_laurent("x14"), gr24_atlas, gr24)
    assert per_chain[CHAIN_23].D == [0, 1, -1, 1, 0]
    assert per_chain[CHAIN_14].D == [0, 0, 1, 0, 0]


def test_rees_min(gr24, gr24_atlas):
    one = Fraction(1)
    # f_p over p: every ratio is exactly 1
    for p in ["34", "24", "23", "14", "13"]:
        assert rees_min(parse_laurent("x" + p), p, gr24_atlas, gr24) == one
    # constants never vanish
    assert rees_min(parse_laurent("5"), "24", gr24_atlas, gr24) == 0
    # x14 on the stratum of (2,4): order 1 along (2,3) but 0 along (1,4)
    assert rees_min(parse_laurent("x14"), "24", gr24_atlas, gr24) == 0
    # on the stratum of (1,4) the only divisor is (1,3), order 1
    assert rees_min(parse_laurent("x14"), "14", gr24_atlas, gr24) == one
    with pytest.raises(ChartError):
        rees_min(parse_laurent("x12"), "12", gr24_atlas, gr24)


def test_sequence_matches_paper_shapes(gr24, gr24_atlas):
    chart = gr24_atlas[CHAIN_23]
    res = sequence_of_functions(chart.ambient_map["x14"], chart, gr24)
    assert len(res.sequence) == 5
    assert res.nus == [0, 1, -1, 1, 0]
    for factors in res.sequence:
        assert all(isinstance(h, LaurentPoly) and isinstance(e, int)
                   for h, e in factors)


def expanded_sequence(g: LaurentPoly, chart: ChainChart, ps):
    """Reference recursion: (D, nus, lc) with every power expanded, g_k kept
    as one fraction num/den."""
    if g.is_zero():
        raise ChartError("cannot valuate the zero function")
    bonds = ps.chain_bonds(chart.chain)
    fs = chart.restricted_chain_functions()
    num, den = g, LaurentPoly.const(1)
    nus: list[int] = []
    D: list[Fraction] = []
    denom = 1
    for k, var in enumerate(chart.divisor_vars):
        b = bonds[k]
        denom *= b
        nu = LaurentFraction(num, den).min_exponent(var)
        chart.check_order(var, nu)
        nus.append(nu)
        D.append(Fraction(nu, denom))
        num, den = num**b, den**b
        if nu > 0:
            den = den * fs[k] ** nu
        elif nu < 0:
            num = num * fs[k] ** (-nu)
        cur = LaurentFraction(num, den).restrict(var)
        num, den = cur.num, cur.den
    leftover = (num.variables() | den.variables()) - {chart.cone_var}
    if leftover:
        raise ChartError(f"restriction left extra variables {sorted(leftover)}")
    nu0 = LaurentFraction(num, den).min_exponent(chart.cone_var)
    denom *= bonds[-1]
    nus.append(nu0)
    D.append(Fraction(nu0, denom))
    lead = LaurentFraction(num, den * LaurentPoly.var(chart.cone_var, nu0))
    return D, nus, lead.restrict(chart.cone_var).as_constant()


def factored_or_error(g, chart, ps):
    try:
        res = sequence_of_functions(g, chart, ps)
    except ChartError:
        return ChartError
    return res.D, res.nus, res.lc


def expanded_or_error(g, chart, ps):
    try:
        return expanded_sequence(g, chart, ps)
    except ChartError:
        return ChartError


EXACT_SETS = ["gr24", "sl3b", "pset_p2", "quadric", "torus_t2", "psl2"]


@cache
def workspace(name):
    return load_workspace(bundled(name))


@st.composite
def monomials(draw, names, lo, hi):
    exps = draw(st.lists(st.integers(lo, hi), min_size=len(names), max_size=len(names)))
    return tuple((v, e) for v, e in zip(names, exps) if e)


@st.composite
def polys(draw, names, lo, hi):
    terms = draw(st.lists(
        st.tuples(monomials(names, lo, hi), st.integers(-3, 3).filter(bool)),
        min_size=1, max_size=3,
    ))
    return LaurentPoly({m: Fraction(c) for m, c in terms})


@pytest.mark.parametrize("name", EXACT_SETS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_factored_recursion_matches_expanded(name, data):
    ws = workspace(name)
    chart = ws.atlas[data.draw(st.sampled_from(sorted(ws.atlas)))]
    ambient = data.draw(polys(sorted(chart.ambient_map), 0, 2))
    # "q" is foreign to every chart: a function using it cannot be evaluated
    foreign = data.draw(st.sampled_from([[], ["q"]]))
    local = data.draw(polys(chart.divisor_vars + chart.extra_vars + foreign, -2, 2))
    for g in (chart.image(ambient), local):
        assert factored_or_error(g, chart, ws.ps) == expanded_or_error(g, chart, ws.ps)


@pytest.mark.parametrize("name", ["elliptic1", "elliptic2"])
def test_recursion_expands_no_power(name, monkeypatch):
    ws = workspace(name)
    images = [
        (chart.image(parse_laurent(text)), chart)
        for text in ["x", "y", "z", "x*y + 2*z^2", "y^3 - x*z^2", "x^2*y*z + z^4"]
        for chart in ws.atlas.values()
    ]
    pows = []
    real_pow = LaurentPoly.__pow__
    monkeypatch.setattr(
        LaurentPoly, "__pow__", lambda self, n: pows.append(n) or real_pow(self, n)
    )
    restricts = []
    monkeypatch.setattr(
        ChainChart, "restricted_chain_functions", lambda self: restricts.append(self)
    )
    for image, chart in images:
        assert factored_or_error(image, chart, ws.ps) is not ChartError
    assert pows == []
    assert restricts == []


def test_factors_whose_variables_cancel():
    # a chart with a second extra variable x, where f_1 = t*x: in g*f_1 with
    # g = a/(t*x) the x of the two factors cancels, so the product is valued
    ps = StratPoset([("1", "1"), ("0", "0")], [("1", "0", 1)], {"1": 1, "0": 1})
    chart = ChainChart(
        ("1", "0"), ["t"], ["a", "x"],
        {"1": parse_laurent("t*x"), "0": parse_laurent("a")}, {},
    )
    chart.check_bonds(ps)
    g = parse_laurent("a*t^-1*x^-1")
    assert factored_or_error(g, chart, ps) == expanded_sequence(g, chart, ps)
    assert factored_or_error(g, chart, ps) == ([-1, 1], [-1, 1], 1)
    # x left in the product, at its lowest or at its highest exponent, is
    # refused by both
    for text in ["a*t^-1*x^-1 + a*t^-1*x^-2", "a*t^-1*x^-1 + a*t^-1"]:
        h = parse_laurent(text)
        for recursion in (sequence_of_functions, expanded_sequence):
            with pytest.raises(ChartError, match=r"extra variables \['x'\]"):
                recursion(h, chart, ps)


ALL_SETS = ["elliptic1", "elliptic2", *EXACT_SETS]
ALL_CHARTS = [
    pytest.param(name, chain, id=f"{name}-{'>'.join(chain)}")
    for name in ALL_SETS for chain in sorted(workspace(name).atlas)
]
TRUNCATED_ZERO = (
    r"^order above (\d+) along (\w+) exceeds the chart's faithful range \1;"
)


def chain_valuation_full(g: LaurentPoly, chart: ChainChart, ps) -> tuple:
    """`chain_valuation` through the untruncated substitution with no kept
    powers: (value, D, nus, lc), or the ChartError it raises."""
    try:
        image = substitute_full(g, chart.ambient_map)
        if image.is_zero():
            raise ChartError("function is zero on the chart (lies in the ideal?)")
        res = sequence_of_functions(image, chart, ps)
    except ChartError as e:
        return e
    return res.value, res.D, res.nus, res.lc


@st.composite
def ambient_polys(draw, names, max_degree):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        factors = draw(st.lists(st.sampled_from(names), max_size=max_degree))
        mono: dict[str, int] = {}
        for v in factors:
            mono[v] = mono.get(v, 0) + 1
        coefficient = draw(st.integers(-3, 3).filter(bool))
        terms[tuple(sorted(mono.items()))] = Fraction(coefficient)
    return LaurentPoly(terms)


@pytest.mark.parametrize("name,chain", ALL_CHARTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_truncated_images_valuate_as_the_full_images(name, chain, data):
    ws = workspace(name)
    chart = ws.atlas[chain]
    g = data.draw(ambient_polys(sorted(chart.ambient_map), 6))
    relations = [rel for rel, degree in ws.ring.relations if degree <= 3]
    if relations and data.draw(st.booleans()):
        # in the ideal: zero on an exact chart, past the limit on a truncated one
        g = data.draw(st.sampled_from(relations)) * data.draw(
            ambient_polys(sorted(chart.ambient_map), 3)
        )
    want = chain_valuation_full(g, chart, ws.ps)
    try:
        res = chain_valuation(g, chart, ws.ps)
    except ChartError as e:
        assert type(e) is type(want)
        refusal = re.match(TRUNCATED_ZERO, str(e))
        if refusal is None:
            assert str(e) == str(want)
        else:
            # the full image is zero or has an order past the limit
            limit, var = int(refusal[1]), refusal[2]
            order = re.match(rf"order (\d+) along {var} ", str(want))
            assert str(want).startswith("function is zero") or (
                order is not None and int(order[1]) > limit
            )
        return
    assert (res.value, res.D, res.nus, res.lc) == want


class _CountingDict(dict):
    def __init__(self):
        super().__init__()
        self.sets: dict = {}

    def __setitem__(self, key, value):
        self.sets[key] = self.sets.get(key, 0) + 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("name", ["elliptic1", "gr24"])
def test_two_passes_build_each_power_once(name):
    ws = load_workspace(bundled(name))
    names = sorted(next(iter(ws.atlas.values())).ambient_map)
    polys = [
        LaurentPoly({((v, 4),): Fraction(1), ((w, 2),): Fraction(2)})
        + LaurentPoly({((v, 3),): Fraction(1)})
        for v in names for w in names if v != w
    ]
    tables = {chain: _CountingDict() for chain in ws.atlas}
    for chain, chart in ws.atlas.items():
        chart._powers = tables[chain]
    for _ in range(2):
        for g in polys:
            valuate_all(g, ws.atlas, ws.ps)
    for table in tables.values():
        assert {(v, e) for v in names for e in (1, 2, 3, 4)} <= set(table.sets)
        assert set(table.sets.values()) == {1}


def test_elliptic_relation_is_refused_past_the_order_limit():
    ws = workspace("elliptic1")
    relation = parse_laurent("y^2*z - x^3 + x*z^2")
    message = (
        "order above 35 along u exceeds the chart's faithful range 35; "
        "truncated data cannot decide it"
    )
    with pytest.raises(ChartError) as refused:
        valuate_all(relation, ws.atlas, ws.ps)
    assert str(refused.value) == message
    # x = u*y on the chart, so x^36 has order 36 > 35 along u; the relation
    # has order 43 in the full image, read from terms past the limit
    for g in (relation, parse_laurent("x^36")):
        with pytest.raises(ChartError) as refused:
            rees_min(g, "X1", ws.atlas, ws.ps)
        assert str(refused.value) == message
    assert rees_min(parse_laurent("x^35"), "X1", ws.atlas, ws.ps) == Fraction(35, 3)


def test_a_limit_past_the_first_divisor_is_not_applied():
    # chain 2 > 1 > 0 with divisors t, then s; the chart's data is trusted
    # up to order 2 along s.  In x -> t + a*s^3 the term a*s^3 sets the order
    # along t to 0; dropping it for its s-order would make that order 1
    ps = StratPoset(
        [("2", "2"), ("1", "1"), ("0", "0")],
        [("2", "1", 1), ("1", "0", 1)],
        {"2": 1, "1": 1, "0": 1},
    )
    chart = ChainChart(
        ("2", "1", "0"), ["t", "s"], ["a"],
        {"2": parse_laurent("t"), "1": parse_laurent("s"), "0": parse_laurent("a")},
        {"x": parse_laurent("t + a*s^3"), "y": parse_laurent("t + a*s")},
        order_limits={"s": 2},
    )
    chart.check_bonds(ps)
    x = parse_laurent("x")
    assert chart.image(x) == parse_laurent("t + a*s^3")
    with pytest.raises(ChartError, match="^order 3 along s exceeds"):
        chain_valuation(x, chart, ps)
    assert str(chain_valuation_full(x, chart, ps)).startswith("order 3 along s")
    y = parse_laurent("y")
    res = chain_valuation(y, chart, ps)
    assert (res.value, res.D, res.nus, res.lc) == chain_valuation_full(y, chart, ps)
    assert res.nus == [0, 1, 1]


def test_chart_checked_against_other_bonds_is_refused():
    ws = load_workspace(bundled("gr24"))
    chart = ws.atlas[CHAIN_23]
    doc = ws.ps.to_json()
    for cover in doc["covers"]:
        if (cover["upper"], cover["lower"]) == ("34", "24"):
            cover["bond"] = 2
    doubled = StratPoset.from_json(doc)
    image = chart.image(parse_laurent("x34"))
    assert sequence_of_functions(image, chart, ws.ps).nus[0] == 1
    var = chart.divisor_vars[0]
    with pytest.raises(ChartError, match=re.escape(
        f"restriction to {{{var}=0}} of a function with nonzero order"
    )):
        sequence_of_functions(image, chart, doubled)


@pytest.mark.parametrize("name,chain", ALL_CHARTS)
def test_kept_levels_are_the_restricted_extremal_orders(name, chain):
    ws = workspace(name)
    chart = ws.atlas[chain]
    fs = chart.restricted_chain_functions()
    levels = chart.levels(ws.ps)
    assert levels == [
        fs[k].order_and_lowest_part(var) for k, var in enumerate(chart.divisor_vars)
    ]
    assert [order for order, _ in levels] == ws.ps.chain_bonds(chain)[:-1]


def test_the_recursion_divides_by_the_kept_lowest_part():
    # a fresh load: the marker must not reach the charts other tests share
    ws = load_workspace(bundled("gr24"))
    chart = ws.atlas[CHAIN_23]
    g = chart.image(parse_laurent("x14"))
    level = 1
    order, low = chart.levels(ws.ps)[level]
    res = sequence_of_functions(g, chart, ws.ps)
    nu = res.nus[level]
    assert nu == 1 and (low, -nu) in res.sequence[level + 1] and res.lc == 1
    marker = LaurentPoly.const(7)
    chart._levels[level] = (order, marker)
    res = sequence_of_functions(g, chart, ws.ps)
    assert (marker, -nu) in res.sequence[level + 1]
    assert (low, -nu) not in res.sequence[level + 1]
    # every bond on the chain is 1, so the marker reaches the constant as 7**-1
    assert res.lc == Fraction(1, 7)


def test_restriction_refuses_any_nonzero_order(gr24_atlas):
    chart = gr24_atlas[CHAIN_23]
    var, cone = chart.divisor_vars[0], chart.cone_var
    assert chart.restrict(parse_laurent(f"{cone} + {var}"), 1) == parse_laurent(cone)
    for e in (1, -1):
        g = parse_laurent(f"{var}^{e}*{cone}")
        assert chart.restrict(g, 0) == g
        with pytest.raises(ChartError) as refused:
            chart.restrict(g, 2)
        assert str(refused.value) == (
            f"order {e} along {var} above the stratum of {CHAIN_23[2]!r}; expected 0"
        )


def rees_min_or_refusal(rees, g, p, ws):
    try:
        return rees(g, p, ws.atlas, ws.ps)
    except StratvalError as e:
        return e


@pytest.mark.parametrize("name", ALL_SETS)
def test_rees_min_matches_the_scan_over_the_atlas(name, monkeypatch):
    """On every non-minimal element: the ring's generators (the extremal
    functions that are generators), their products in pairs and the ring's
    relations give the same value or a refusal of the same type, read on
    the same charts."""
    ws = workspace(name)
    gens = [parse_laurent(v) for v in ws.ring.vars]
    polys = gens + [a * b for a, b in itertools.combinations_with_replacement(gens, 2)]
    polys += [rel for rel, _ in ws.ring.relations]
    imaged = []
    real_image = ChainChart.image
    monkeypatch.setattr(
        ChainChart, "image", lambda self, g: imaged.append(self.chain) or real_image(self, g)
    )
    refused = 0
    for p in ws.ps.ids:
        if not ws.ps.covers_of[p]:
            continue
        for g in polys:
            got = rees_min_or_refusal(rees_min, g, p, ws)
            charts = imaged[:]
            imaged.clear()
            want = rees_min_or_refusal(rees_min_by_scan, g, p, ws)
            assert charts == imaged, (p, g)
            imaged.clear()
            if isinstance(want, Exception):
                assert type(got) is type(want), (p, g)
                refused += 1
            else:
                assert got == want, (p, g)
    assert 0 < refused < len(polys) * len(ws.ps.ids)


def test_rees_min_keeps_the_order_limit_message():
    ws = workspace("elliptic1")
    message = (
        "order above 35 along u exceeds the chart's faithful range 35; "
        "truncated data cannot decide it"
    )
    for text in ["y^2*z - x^3 + x*z^2", "x^36", "x^36*y + z^37"]:
        for rees in (rees_min, rees_min_by_scan):
            refusal = rees_min_or_refusal(rees, parse_laurent(text), "X1", ws)
            assert type(refusal) is ChartError and str(refusal) == message, text


@pytest.mark.parametrize("name", EXACT_SETS + ["elliptic1", "elliptic2"])
def test_own_leading_coefficient_scales_with_the_function(name):
    """For h the product of the ambient variables, own_lc of c*h over own_lc
    of h is c on every chain, while lc, its power by the chain's bond
    product B, gives c**B: B is 2 or 3 on chains of sl3b, elliptic1 and
    elliptic2."""
    ws = workspace(name)
    for chain, chart in sorted(ws.atlas.items()):
        h = LaurentPoly.const(1)
        for v in sorted(chart.ambient_map):
            h = h * LaurentPoly.var(v)
        base = chain_valuation(h, chart, ws.ps)
        bond_product = 1
        for b in ws.ps.chain_bonds(chain)[:-1]:
            bond_product *= b
        for c in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 3)):
            scaled = chain_valuation(h.scale(c), chart, ws.ps)
            assert scaled.own_lc / base.own_lc == c
            assert scaled.lc / base.lc == c**bond_product
