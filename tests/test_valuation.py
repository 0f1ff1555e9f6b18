from fractions import Fraction

import pytest

from stratval.avector import AVector
from stratval.errors import ChartError
from stratval.laurent import parse_laurent
from stratval.valuation import (
    chain_valuation,
    chains_attaining,
    quasi_valuation,
    rees_min,
    sequence_of_functions,
    valuate_all,
)

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
        assert res.tuple_top_down() == [Fraction(x) for x in expected], name
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
    assert per_chain[CHAIN_23].tuple_top_down() == [0, 1, -1, 1, 0]
    assert per_chain[CHAIN_14].tuple_top_down() == [0, 0, 1, 0, 0]


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
