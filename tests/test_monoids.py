from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracles import decompose_uncached
from stratval.avector import AVector, degree_of
from stratval.errors import SchemaError, ValidationFailure
from stratval.monoids import (
    MonoidFan,
    decompose,
    fan_mult,
    gamma_degree_slice,
    hodge_fan,
    indecomposables,
    is_saturated,
    lattice_LC,
    lattice_generated,
    monoid_membership,
)
from stratval.poset import StratPoset
from stratval.workspace import bundled, load_workspace


def elliptic_poset():
    return StratPoset(
        [("X1", "X1"), ("X0", "X0")], [("X1", "X0", 3)], {"X1": 1, "X0": 1}
    )


def elliptic_fan():
    ps = elliptic_poset()
    chain = ("X1", "X0")
    gens = [
        AVector({"X1": Fraction(1, 3), "X0": Fraction(2, 3)}),
        AVector.unit("X0"),
        AVector.unit("X1"),
    ]
    return ps, chain, MonoidFan(ps, {chain: gens})


def test_lattice_LC_all_bonds_one(gr24):
    chain = ("34", "24", "23", "13", "12")
    lat = lattice_LC(gr24, chain)
    assert lat.rank == 5
    assert lat.membership(AVector.unit("24") + AVector.unit("12", 3))
    assert not lat.membership(AVector.unit("24", Fraction(1, 2)))
    with pytest.raises(SchemaError):
        lattice_LC(gr24, ("34", "23"))


def test_lattice_LC_checks_the_chain_without_listing_chains(gr24, monkeypatch):
    """Exactly the members of maximal_chains() are accepted, and the check
    reads the chain's own covers instead of re-listing every chain."""
    chains = gr24.maximal_chains()
    candidates = [
        (), ("34",), ("24", "23", "13", "12"), ("34", "24", "23", "13"),
        ("34", "24", "13", "12"), ("34", "23", "24", "13", "12"),
        ("34", "24", "23", "13", "nope"),
        list(chains[0]), chains[0] + ("12",),
    ]
    monkeypatch.setattr(
        StratPoset, "maximal_chains",
        lambda self: pytest.fail("lattice_LC listed the maximal chains"),
    )
    for chain in chains:
        assert lattice_LC(gr24, chain).coords == chain
    for bad in candidates:
        with pytest.raises(SchemaError, match="is not a maximal chain"):
            lattice_LC(gr24, bad)


def test_lattice_LC_elliptic_bond_three():
    ps = elliptic_poset()
    lat = lattice_LC(ps, ("X1", "X0"))
    # bond 3 over the single cover, bottom degree 1
    assert lat.membership(AVector({"X1": Fraction(1, 3), "X0": Fraction(2, 3)}))
    assert lat.membership(AVector({"X0": Fraction(1, 3)}))


def test_lattice_LC_single_element():
    ps = StratPoset([("p", "p")], [], {"p": 1})
    lat = lattice_LC(ps, ("p",))
    assert lat.membership(AVector.unit("p", 2))
    assert not lat.membership(AVector.unit("p", Fraction(1, 2)))


def test_lattice_generated():
    x = AVector({"X1": Fraction(1, 3), "X0": Fraction(2, 3)})
    lat = lattice_generated([x, AVector.unit("X0"), AVector.unit("X1")],
                            ("X1", "X0"))
    assert lat.membership(AVector({"X1": Fraction(1, 3), "X0": Fraction(-1, 3)}))
    # index three in the bond lattice: e[X0]/3 is not generated
    assert not lat.membership(AVector.unit("X0", Fraction(1, 3)))
    assert lat.membership(AVector({"X1": Fraction(2, 3), "X0": Fraction(1, 3)}))
    with pytest.raises(SchemaError):
        lattice_generated([])


def test_lattice_generated_rank_one():
    lat = lattice_generated([AVector.unit("p")], ("p",))
    assert lat.rank == 1


def test_gr24_valuation_images_generate_unit_lattice(gr24, gr24_atlas):
    from stratval.laurent import parse_laurent
    from stratval.valuation import quasi_valuation

    order = gr24.default_total_order()
    chain = ("34", "24", "23", "13", "12")
    names = ["x" + p for p in chain]
    values = [
        quasi_valuation(parse_laurent(a), gr24_atlas, gr24, order) for a in names
    ]
    for i, a in enumerate(names):
        for b in names[i:]:
            values.append(
                quasi_valuation(parse_laurent(f"{a}*{b}"), gr24_atlas, gr24, order)
            )
    lat = lattice_generated(values, chain)
    assert lat.rank == 5
    assert all(lat.membership(AVector.unit(p)) for p in chain)
    assert not lat.membership(AVector.unit("34", Fraction(1, 2)))


def test_monoid_membership():
    fdeg = {"a": 1}
    two, three = AVector.unit("a", 2), AVector.unit("a", 3)
    assert monoid_membership(AVector.unit("a", 7), [two, three], fdeg)
    assert not monoid_membership(AVector.unit("a", 1), [two, three], fdeg)


def test_is_saturated_hodge(gr24):
    fan = hodge_fan(gr24)
    for chain in fan.chains():
        rep = is_saturated(fan, chain, bound=4)
        assert rep.saturated, rep


def test_is_saturated_numerical_semigroup():
    ps = StratPoset([("a", "a")], [], {"a": 1})
    fan = MonoidFan(ps, {("a",): [AVector.unit("a", 2), AVector.unit("a", 3)]})
    rep = is_saturated(fan, ("a",), bound=4)
    assert not rep.saturated
    assert rep.witness == AVector.unit("a")


def test_is_saturated_elliptic_fails_with_witness():
    _, chain, fan = elliptic_fan()
    rep = is_saturated(fan, chain, bound=6)
    assert not rep.saturated
    assert rep.witness == AVector({"X1": Fraction(2, 3), "X0": Fraction(1, 3)})


def test_indecomposables_hodge(gr24):
    fan = hodge_fan(gr24)
    chain = ("34", "24", "23", "13", "12")
    indec = indecomposables(fan, chain, 2)
    assert sorted(i.key() for i in indec) == sorted(
        AVector.unit(p).key() for p in chain
    )


def test_indecomposables_elliptic():
    _, chain, fan = elliptic_fan()
    x = AVector({"X1": Fraction(1, 3), "X0": Fraction(2, 3)})
    indec = indecomposables(fan, chain, 2)
    keys = {i.key() for i in indec}
    assert x.key() in keys
    assert AVector.unit("X0").key() in keys
    assert AVector.unit("X1").key() in keys
    # the double of the fractional leaf cannot split in order
    assert x.scale(2).key() in keys
    assert len(keys) == 4


def test_decompose_hodge(gr24):
    fan = hodge_fan(gr24)
    chain = ("34", "24", "23", "13", "12")
    assert decompose(AVector.zero(), fan, chain) == []
    got = decompose(AVector.unit("13") + AVector.unit("24"), fan, chain)
    assert got == [AVector.unit("24"), AVector.unit("13")]
    got = decompose(AVector.unit("12") + AVector.unit("34"), fan, chain)
    assert got == [AVector.unit("34"), AVector.unit("12")]
    with pytest.raises(SchemaError):
        decompose(AVector.unit("14") + AVector.unit("23"), fan, chain)


def test_decompose_enumerates_the_chain_monoid_once(gr24, monkeypatch):
    import stratval.monoids as monoids

    fan = hodge_fan(gr24)
    chain = ("34", "24", "23", "13", "12")
    builds = []
    elements_up_to = monoids._monoid_elements_up_to

    def counting(gens, fdeg, bound):
        builds.append(bound)
        return elements_up_to(gens, fdeg, bound)

    monkeypatch.setattr(monoids, "_monoid_elements_up_to", counting)
    monkeypatch.setattr(
        monoids, "monoid_membership",
        lambda *a: pytest.fail("decompose searched for membership"),
    )
    a = AVector.unit("13") + AVector.unit("24") + AVector.unit("12")
    assert decompose(a, fan, chain) == [
        AVector.unit("24"), AVector.unit("13"), AVector.unit("12")
    ]
    assert builds == [3]
    with pytest.raises(SchemaError, match="not an element of the chain monoid"):
        decompose(AVector.unit("13", Fraction(1, 2)), fan, chain)


def test_slices_are_built_once_per_fan(gr24, monkeypatch):
    import stratval.monoids as monoids

    builds, scans = [], []
    elements_up_to, unsplit = monoids._monoid_elements_up_to, monoids._unsplit

    def counting_elements(gens, fdeg, bound):
        builds.append(bound)
        return elements_up_to(gens, fdeg, bound)

    def counting_unsplit(elements, chain):
        scans.append(chain)
        return unsplit(elements, chain)

    monkeypatch.setattr(monoids, "_monoid_elements_up_to", counting_elements)
    monkeypatch.setattr(monoids, "_unsplit", counting_unsplit)
    chain = ("34", "24", "23", "13", "12")
    e = {p: AVector.unit(p) for p in chain}
    fan = hodge_fan(gr24)
    assert builds == [] and scans == []
    for _ in range(3):
        assert decompose(e["13"] + e["24"] + e["12"], fan, chain) == [
            e["24"], e["13"], e["12"]
        ]
        assert decompose(e["34"].scale(3), fan, chain) == [e["34"]] * 3
        assert sorted(indecomposables(fan, chain, 3), key=AVector.key) == sorted(
            e.values(), key=AVector.key
        )
    assert builds == [3] and scans == [chain]
    indecomposables(fan, chain, 2)
    assert builds == [3, 2] and scans == [chain] * 2
    # a second fan over the same poset builds its own slice
    other = hodge_fan(gr24)
    decompose(e["13"] + e["24"] + e["12"], other, chain)
    assert builds == [3, 2, 3] and scans == [chain] * 3


@cache
def _hodge_poset(name):
    return load_workspace(bundled(name)).ps


def _numerical_semigroup_fan():
    ps = StratPoset([("a", "a")], [], {"a": 1})
    return MonoidFan(ps, {("a",): [AVector.unit("a", 2), AVector.unit("a", 3)]})


def _half_step_fan():
    # the generator of degree 3/2 splits in no order, but the indecomposables
    # that decompose reads stop at the integer part of the degree
    ps = elliptic_poset()
    chain = ("X1", "X0")
    half = AVector({"X1": 1, "X0": Fraction(1, 2)})
    return MonoidFan(ps, {chain: [half, AVector.unit("X0"), AVector.unit("X1")]})


FANS = {
    "gr24": lambda: hodge_fan(_hodge_poset("gr24")),
    "pset_p2": lambda: hodge_fan(_hodge_poset("pset_p2")),
    "quadric": lambda: hodge_fan(_hodge_poset("quadric")),
    "elliptic": lambda: elliptic_fan()[2],
    "numerical_semigroup": _numerical_semigroup_fan,
    "half_step": _half_step_fan,
}


def _outcome(fn, a, fan, chain):
    """The decomposition, or the type and message of the SchemaError."""
    try:
        return fn(a, fan, chain)
    except SchemaError as e:
        return type(e), str(e)


def test_decompose_reads_indecomposables_up_to_the_integer_degree():
    fan = _half_step_fan()
    chain = ("X1", "X0")
    half = AVector({"X1": 1, "X0": Fraction(1, 2)})
    for a in (half, half + AVector.unit("X1"), half.scale(2)):
        assert _outcome(decompose, a, fan, chain) == _outcome(
            decompose_uncached, a, fan, chain
        )
    with pytest.raises(SchemaError, match="admits no ordered decomposition"):
        decompose(half, fan, chain)
    assert decompose(half + AVector.unit("X1"), fan, chain) == [
        AVector.unit("X1"), half
    ]


@st.composite
def decompose_calls(draw):
    """A fresh fan and (element, chain) pairs on it, in random order: monoid
    elements of degree <= 4, some nudged off the monoid by removing a
    generator or adding a third of a unit vector."""
    fan = FANS[draw(st.sampled_from(sorted(FANS)))]()
    chains = fan.chains()
    ids = sorted(fan.ps.ids)
    calls = []
    for _ in range(draw(st.integers(1, 4))):
        chain = draw(st.sampled_from(chains))
        gens = fan.generators[chain]
        a = AVector.zero()
        for _ in range(draw(st.integers(0, 4))):
            g = draw(st.sampled_from(gens))
            if degree_of(a + g, fan.ps.fdeg) > 4:
                break
            a = a + g
        nudge = draw(st.sampled_from(["none", "none", "minus", "third"]))
        if nudge == "minus":
            a = a - draw(st.sampled_from(gens))
        elif nudge == "third":
            a = a + AVector.unit(draw(st.sampled_from(ids)), Fraction(1, 3))
        calls.append((a, chain))
    return fan, draw(st.permutations(calls + calls))


@settings(max_examples=40, deadline=None)
@given(decompose_calls())
def test_cached_decompose_matches_the_uncached_oracle(case):
    fan, calls = case
    expected = {}
    for a, chain in calls:
        if (a, chain) not in expected:
            expected[a, chain] = _outcome(decompose_uncached, a, fan, chain)
        assert _outcome(decompose, a, fan, chain) == expected[a, chain]


def test_decompose_resums_and_elliptic_cubic():
    _, chain, fan = elliptic_fan()
    x = AVector({"X1": Fraction(1, 3), "X0": Fraction(2, 3)})
    # 3*V(x) decomposes through the cubic relation: e[X1] + 2 e[X0]
    got = decompose(x.scale(3), fan, chain)
    total = AVector.zero()
    for part in got:
        total = total + part
    assert total == x.scale(3)
    assert got == [AVector.unit("X1"), AVector.unit("X0"), AVector.unit("X0")]


def test_fan_mult(gr24):
    e14, e23 = AVector.unit("14"), AVector.unit("23")
    assert fan_mult(AVector.zero(), e14, gr24) == e14
    assert fan_mult(e14, e23, gr24) is None
    assert fan_mult(AVector.unit("13"), AVector.unit("24"), gr24) == AVector.unit(
        "13"
    ) + AVector.unit("24")


def test_fan_mult_zero(gr24):
    v = AVector.unit("13")
    assert fan_mult(v, AVector.zero(), gr24) == v


def test_fan_mult_commutes_and_associates(gr24):
    units = [AVector.unit(p) for p in gr24.ids]
    for a in units:
        for b in units:
            left = fan_mult(a, b, gr24)
            right = fan_mult(b, a, gr24)
            assert left == right
            common = gr24.chains_through(a.support() | b.support())
            assert (left is not None) == bool(common)


def test_gamma_degree_slice(gr24):
    fan = hodge_fan(gr24)
    assert gamma_degree_slice(fan, 0) == [AVector.zero()]
    assert len(gamma_degree_slice(fan, 1)) == 6
    assert len(gamma_degree_slice(fan, 2)) == 20
    with pytest.raises(SchemaError):
        gamma_degree_slice(fan, -1)


def test_hodge_fan_rejects_sl3b():
    from stratval.datagen import sl3b_poset

    with pytest.raises(ValidationFailure):
        hodge_fan(sl3b_poset())


def test_hodge_fan_pset():
    from stratval.datagen import pset_poset

    fan = hodge_fan(pset_poset())
    assert len(fan.chains()) == 6


def test_core_requires_unit_closure():
    from stratval.monoids import Core

    chain = ("X1", "X0")
    x = AVector({"X1": Fraction(1, 3), "X0": Fraction(2, 3)})
    Core(chain, [x, AVector.unit("X0"), AVector.unit("X1")])
    with pytest.raises(SchemaError):
        Core(chain, [x, AVector.unit("X0")])
    with pytest.raises(SchemaError):
        Core(chain, [AVector.unit("X1", -1), AVector.unit("X0"), AVector.unit("X1")])


def test_balanced_report_gr24(gr24, gr24_atlas):
    from stratval.laurent import parse_laurent
    from stratval.monoids import balanced_report

    probes = [parse_laurent(e) for e in ["x14", "x23", "x14*x23", "x13*x24"]]
    rep = balanced_report(gr24, gr24_atlas, probes)
    assert rep.regime == "full"
    assert rep.orders_checked == 2
    assert rep.balanced


def test_balanced_report_valuates_each_probe_once(monkeypatch):
    import stratval.valuation as valuation
    from stratval.laurent import parse_laurent
    from stratval.monoids import balanced_report
    from stratval.workspace import bundled, load_workspace

    ws = load_workspace(bundled("pset_p2"))
    atlas = ws.require_atlas()
    real = valuation.valuate_all
    calls = []

    def counting(g, *args):
        calls.append(g)
        return real(g, *args)

    monkeypatch.setattr(valuation, "valuate_all", counting)
    probes = [parse_laurent(e) for e in ["x1*x2", "x1*x2*x3", "x1 + x2"]]
    checked = []
    for limit in (1, 4, 720):
        calls.clear()
        checked.append(balanced_report(ws.ps, atlas, probes, limit=limit).orders_checked)
        assert calls == probes
    assert checked[:2] == [1, 4] and checked[2] > 4


def test_dickson_smoke(gr24):
    # degree-bounded slices are generated by indecomposables of bounded degree
    fan = hodge_fan(gr24)
    chain = ("34", "24", "23", "13", "12")
    indec = indecomposables(fan, chain, 3)
    for v in gamma_degree_slice(fan, 3):
        if v.support() <= set(chain):
            assert monoid_membership(v, indec, gr24.fdeg)
