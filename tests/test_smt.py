import json

import pytest

from stratval.avector import AVector
from stratval.errors import SchemaError
from stratval.laurent import LaurentPoly, parse_laurent
from stratval.monoids import hodge_fan
from stratval.ringmodel import GradedQuotient
from stratval.smt import (
    Representatives,
    StdMonomial,
    is_standard,
    khovanskii_check,
    standard_monomials,
    standard_on_stratum,
    straighten,
    subduction,
)
from tests.conftest import data_path


@pytest.fixture(scope="module")
def gr24_setup(gr24, gr24_atlas, gr24_ring):
    order = gr24.default_total_order()
    fan = hodge_fan(gr24)
    with open(data_path("gr24", "ring.json")) as fh:
        entries = json.load(fh)["representatives"]
    reps = Representatives.from_json(entries, gr24_atlas, gr24, order)
    return gr24, gr24_atlas, gr24_ring, order, fan, reps


def test_is_standard(gr24):
    assert is_standard([], gr24)
    assert is_standard([AVector.unit("24")], gr24)
    assert is_standard([AVector.unit("24"), AVector.unit("13")], gr24)
    assert not is_standard([AVector.unit("14"), AVector.unit("23")], gr24)
    with pytest.raises(SchemaError):
        is_standard([AVector.unit("14") + AVector.unit("23")], gr24)


def test_standard_monomial_counts(gr24, gr24_ring):
    fan = hodge_fan(gr24)
    assert len(standard_monomials(gr24, fan, 0)) == 1
    for m in range(5):
        assert len(standard_monomials(gr24, fan, m)) == gr24_ring.hilbert(m), m


def test_standard_monomials_two_chain():
    from stratval.poset import StratPoset

    ps = StratPoset([("a", "a"), ("b", "b")], [("a", "b", 1)], {"a": 1, "b": 1})
    fan = hodge_fan(ps)
    for m in range(6):
        assert len(standard_monomials(ps, fan, m)) == m + 1


def test_representative_verification_fails_on_lie(gr24, gr24_atlas):
    order = gr24.default_total_order()
    with pytest.raises(SchemaError):
        Representatives.from_json(
            [{"value": {"12": "1"}, "expr": "x13"}], gr24_atlas, gr24, order
        )


def test_subduction_reproduces_plucker(gr24_setup):
    ps, atlas, ring, order, fan, reps = gr24_setup
    res = subduction(parse_laurent("x14*x23"), ring, atlas, fan, ps, order, reps)
    terms = [(c, [str(f) for f in m.factors]) for c, m in res.terms]
    assert terms == [
        (1, ["e[24]", "e[13]"]),
        (-1, ["e[34]", "e[12]"]),
    ]
    # soundness: the expansion reduces back to the input
    acc = LaurentPoly.zero()
    for c, mono in res.terms:
        acc = acc + reps.product(mono.factors).scale(c)
    assert ring.is_zero_in_quotient(parse_laurent("x14*x23") - acc)


def test_subduction_standard_input_single_pass(gr24_setup):
    ps, atlas, ring, order, fan, reps = gr24_setup
    res = subduction(parse_laurent("x13*x24"), ring, atlas, fan, ps, order, reps)
    assert len(res.terms) == 1
    assert res.terms[0][0] == 1


def test_subduction_representative_itself(gr24_setup):
    ps, atlas, ring, order, fan, reps = gr24_setup
    res = subduction(parse_laurent("x24"), ring, atlas, fan, ps, order, reps)
    assert res.terms[0][0] == 1
    assert res.terms[0][1].factors == [AVector.unit("24")]


def test_subduction_soundness_random_quadratics(gr24_setup):
    import random

    ps, atlas, ring, order, fan, reps = gr24_setup
    rng = random.Random(7)
    names = ["x12", "x13", "x14", "x23", "x24", "x34"]
    for _ in range(12):
        terms = []
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(names), rng.choice(names)
            c = rng.randint(-3, 3)
            if c:
                terms.append(f"{'+' if c > 0 else '-'} {abs(c)}*{a}*{b} ")
        expr = "".join(terms).strip()
        if not expr:
            continue
        g = parse_laurent(expr)
        if ring.is_zero_in_quotient(g):
            continue
        res = subduction(g, ring, atlas, fan, ps, order, reps)
        acc = LaurentPoly.zero()
        for c, mono in res.terms:
            acc = acc + reps.product(mono.factors).scale(c)
        assert ring.is_zero_in_quotient(g - acc), expr
        for _, mono in res.terms:
            assert is_standard(mono.factors, ps)


@pytest.mark.parametrize("expr", ["x14*x23", "x14*x23 + 2*x12*x34 - x13^2"])
def test_subduction_one_valuation_pass_per_iteration(gr24_setup, monkeypatch, expr):
    import stratval.smt as smt
    import stratval.valuation as valuation

    ps, atlas, ring, order, fan, reps = gr24_setup
    calls = {"valuate_all": 0, "chain_valuation": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        valuation, "valuate_all", counting("valuate_all", valuation.valuate_all)
    )
    monkeypatch.setattr(smt, "valuate_all", valuation.valuate_all)
    monkeypatch.setattr(
        smt, "chain_valuation", counting("chain_valuation", smt.chain_valuation)
    )
    res = subduction(parse_laurent(expr), ring, atlas, fan, ps, order, reps)
    assert len(res.terms) >= 2
    # one pass over the input per term, one chain valuation of the
    # representative product per term; the last iteration only finds zero
    assert calls == {"valuate_all": len(res.terms), "chain_valuation": len(res.terms)}


def test_subduction_rejects_zero_and_inhomogeneous(gr24_setup):
    ps, atlas, ring, order, fan, reps = gr24_setup
    with pytest.raises(SchemaError):
        subduction(
            parse_laurent("x12*x34 + x23*x14 - x13*x24"),
            ring, atlas, fan, ps, order, reps,
        )
    with pytest.raises(SchemaError):
        subduction(parse_laurent("x12 + x12*x34"), ring, atlas, fan, ps, order, reps)


def test_straighten(gr24_setup):
    ps, atlas, ring, order, fan, reps = gr24_setup
    st = straighten(
        AVector.unit("14"), AVector.unit("23"), ring, atlas, fan, ps, order, reps
    )
    assert not st.annihilated
    assert st.leading_ok
    assert len(st.right) == 2
    # comparable supports: a single term with coefficient one
    st2 = straighten(
        AVector.unit("24"), AVector.unit("13"), ring, atlas, fan, ps, order, reps
    )
    assert [c for c, _ in st2.right] == [1]
    st3 = straighten(
        AVector.unit("13"), AVector.unit("13"), ring, atlas, fan, ps, order, reps
    )
    assert len(st3.right) == 1
    assert st3.right[0][1].factors == [AVector.unit("13"), AVector.unit("13")]


def test_khovanskii(gr24_setup):
    ps, atlas, ring, order, fan, reps = gr24_setup
    names = ["x12", "x13", "x14", "x23", "x24", "x34"]
    full = khovanskii_check(
        [parse_laurent(n) for n in names], atlas, fan, ps, order, 4
    )
    assert full.passed
    partial = khovanskii_check(
        [parse_laurent(n) for n in names if n != "x12"], atlas, fan, ps, order, 2
    )
    assert not partial.passed
    assert AVector.unit("12") in partial.missing
    empty = khovanskii_check([], atlas, fan, ps, order, 1)
    assert not empty.passed


def test_khovanskii_drops_constants(gr24_setup):
    ps, atlas, ring, order, fan, reps = gr24_setup
    got = khovanskii_check(
        [parse_laurent(e) for e in ["1", "x12", "x13"]], atlas, fan, ps, order, 1
    )
    assert not got.passed
    assert got.missing == [AVector.unit(p) for p in ("14", "23", "24", "34")]


def test_standard_on_stratum(gr24):
    mono = StdMonomial([AVector.unit("24"), AVector.unit("13")])
    assert standard_on_stratum(mono, "34", gr24)
    assert not standard_on_stratum(mono, "14", gr24)
    assert standard_on_stratum(StdMonomial([AVector.unit("13")]), "14", gr24)
    assert standard_on_stratum(StdMonomial([]), "12", gr24)


def _stratum_ring(gr24, p):
    """Ring model of a Schubert stratum: kill the coordinates not below p."""
    dead = [q for q in gr24.ids if not gr24.leq(q, p)]
    relations = ["x12*x34 + x23*x14 - x13*x24"] + ["x" + q for q in dead]
    return GradedQuotient(
        [("x" + q, 1) for q in gr24.ids],
        [parse_laurent(r) for r in relations],
    )


def _rank(vectors):
    from fractions import Fraction

    rows = [dict(v) for v in vectors]
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row)
            if lead not in pivots:
                pivots[lead] = {k: v / row[lead] for k, v in row.items()}
                rank += 1
                break
            f = row[lead]
            for k, v in pivots[lead].items():
                s = row.get(k, Fraction(0)) - f * v
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
    return rank


def test_restriction_dichotomy_on_strata(gr24, gr24_ring):
    """Standard-on-stratum monomials restrict to a basis; the rest vanish."""
    fan = hodge_fan(gr24)
    reps_table = {p: parse_laurent("x" + p) for p in gr24.ids}
    for p in gr24.ids:
        stratum = _stratum_ring(gr24, p)
        for m in (1, 2):
            monos = standard_monomials(gr24, fan, m)
            on_p = [mo for mo in monos if standard_on_stratum(mo, p, gr24)]
            off_p = [mo for mo in monos if not standard_on_stratum(mo, p, gr24)]
            assert len(on_p) == stratum.hilbert(m), (p, m)
            vectors = []
            for mo in on_p:
                poly = LaurentPoly.const(1)
                for f in mo.factors:
                    (q,) = f.support()
                    poly = poly * reps_table[q]
                nf = stratum.normal_form(poly, m)
                assert nf, (p, m, mo)
                vectors.append(nf)
            assert _rank(vectors) == len(on_p), (p, m)
            for mo in off_p:
                poly = LaurentPoly.const(1)
                for f in mo.factors:
                    (q,) = f.support()
                    poly = poly * reps_table[q]
                assert stratum.is_zero_in_quotient(poly), (p, m, mo)
