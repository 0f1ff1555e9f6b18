import pytest

from stratval.errors import SchemaError, ValidationFailure
from stratval.poset import StratPoset, generic_model


def make_poset(elements, covers, fdeg=None):
    fdeg = fdeg or {e: 1 for e in elements}
    return StratPoset([(e, e) for e in elements], covers, fdeg)


def test_gr24_valid(gr24):
    rep = gr24.validate()
    assert rep.ok
    assert rep.r == 4
    assert gr24.p_max == "34"


def test_one_element_poset():
    ps = make_poset(["p"], [])
    rep = ps.validate()
    assert rep.ok and rep.r == 0


def test_ungraded_diamond_detected():
    # one leg lengthened: chain lengths 2 and 3
    ps = make_poset(
        ["top", "l", "r1", "r2", "bot"],
        [
            ("top", "l", 1),
            ("top", "r1", 1),
            ("r1", "r2", 1),
            ("l", "bot", 1),
            ("r2", "bot", 1),
        ],
    )
    rep = ps.validate()
    assert not rep.ok
    assert any("not graded" in f for f in rep.failures)


def test_gr24_chains(gr24):
    chains = gr24.maximal_chains()
    assert len(chains) == 2
    assert ("34", "24", "23", "13", "12") in chains
    assert ("34", "24", "14", "13", "12") in chains
    assert chains == sorted(chains)


def test_chains_and_report_are_computed_once(monkeypatch):
    ps = generic_model(3, 2)
    listed = 0
    list_chains = StratPoset._list_maximal_chains

    def counting(self):
        nonlocal listed
        listed += 1
        return list_chains(self)

    monkeypatch.setattr(StratPoset, "_list_maximal_chains", counting)
    chains = ps.maximal_chains()
    chains.clear()
    ps.validate().failures.append("not a failure")
    assert ps.r == 2 and ps.r == 2
    assert ps.validate().failures == []
    assert ps.maximal_chains() == [("q2", "q1", f"q0_{k}") for k in (1, 2, 3)]
    assert listed == 1


def test_bottom_up_order_is_sorted_once(gr24):
    order = gr24.bottom_up()
    assert gr24.bottom_up() is order
    assert sorted(order) == sorted(gr24.ids)
    seen: set[str] = set()
    for p in order:
        assert {q for q, _ in gr24.covers_of[p]} <= seen, p
        seen.add(p)


def test_a_cycle_is_refused_on_every_call():
    ps = make_poset(["a", "b"], [("a", "b", 1), ("b", "a", 1)])
    for _ in range(2):
        with pytest.raises(ValidationFailure, match="contains a cycle"):
            ps.bottom_up()
    with pytest.raises(ValidationFailure, match="contains a cycle"):
        ps.length("a")
    rep = ps.validate()
    assert not rep.ok and rep.failures == ["cover relation contains a cycle"]


def test_faces_are_built_once_per_poset(monkeypatch):
    from stratval.geometry import default_lattices, hilbert_incl_excl

    ps = generic_model(3, 2)
    built = 0
    list_faces = StratPoset._list_faces

    def counting(self):
        nonlocal built
        built += 1
        return list_faces(self)

    monkeypatch.setattr(StratPoset, "_list_faces", counting)
    lattices = default_lattices(ps)
    assert [hilbert_incl_excl(ps, lattices, n) for n in (1, 2, 3)] == [5, 12, 22]
    ps.faces_with_last_chain().clear()
    assert len(ps.order_complex()) == 15
    assert built == 1


def test_s3_bruhat_has_four_chains():
    ps = make_poset(
        ["e", "1", "2", "12", "21", "121"],
        [
            ("1", "e", 1),
            ("2", "e", 1),
            ("12", "1", 1),
            ("12", "2", 2),
            ("21", "1", 2),
            ("21", "2", 1),
            ("121", "12", 1),
            ("121", "21", 1),
        ],
    )
    assert len(ps.maximal_chains()) == 4


def test_powerset_chains():
    ps = make_poset(
        ["1", "2", "3", "12", "13", "23", "123"],
        [
            ("12", "1", 1), ("12", "2", 1),
            ("13", "1", 1), ("13", "3", 1),
            ("23", "2", 1), ("23", "3", 1),
            ("123", "12", 1), ("123", "13", 1), ("123", "23", 1),
        ],
        fdeg={"1": 1, "2": 1, "3": 1, "12": 2, "13": 2, "23": 2, "123": 3},
    )
    assert len(ps.maximal_chains()) == 6


def test_length(gr24):
    assert gr24.length("12") == 0
    assert gr24.length("34") == 4
    assert gr24.length("24") == 3
    with pytest.raises(SchemaError):
        gr24.length("nope")


def test_chains_through(gr24):
    assert gr24.chains_through({"34"}) == gr24.maximal_chains()
    assert gr24.chains_through({"14", "23"}) == []
    assert len(gr24.chains_through({"23"})) == 1
    with pytest.raises(SchemaError):
        gr24.chains_through({"nope"})


def test_is_chain(gr24):
    assert gr24.is_chain([])
    assert gr24.is_chain({"34", "24", "12"})
    assert not gr24.is_chain({"14", "23"})
    assert not gr24.is_chain({"34", "14", "23"})
    for ids in ({"nope"}, {"34", "nope"}):
        with pytest.raises(SchemaError, match="unknown id 'nope'"):
            gr24.is_chain(ids)


def test_order_complex(gr24):
    faces = gr24.order_complex()
    # brute-force oracle: subsets of maximal chains
    expected = set()
    for c in gr24.maximal_chains():
        n = len(c)
        for mask in range(1, 1 << n):
            expected.add(tuple(c[i] for i in range(n) if mask & (1 << i)))
    assert set(faces) == expected
    single = make_poset(["p"], [])
    assert single.order_complex() == [("p",)]


def test_chains_through_is_filter(gr24):
    import itertools

    for size in (1, 2):
        for sub in itertools.combinations(gr24.ids, size):
            got = gr24.chains_through(set(sub))
            expect = [c for c in gr24.maximal_chains() if set(sub) <= set(c)]
            assert got == expect


def test_generic_model():
    tiny = generic_model(1, 1)
    assert len(tiny.maximal_chains()) == 1
    assert tiny.r == 1
    ps = generic_model(3, 2)
    chains = ps.maximal_chains()
    assert len(chains) == 3
    assert all(len(c) - 1 == 2 for c in chains)
    assert ps.fdeg["q0_1"] == 2
    assert ps.fdeg["q1"] == 1
    with pytest.raises(SchemaError):
        generic_model(0, 1)


def test_generic_model_counts():
    for s in (2, 3, 4):
        for r in (2, 3):
            ps = generic_model(s, r)
            chains = ps.maximal_chains()
            assert len(chains) == s
            assert all(len(c) - 1 == r for c in chains)


def test_hasse_dot(gr24):
    dot = gr24.hasse_dot()
    assert dot.count("->") == 6
    assert dot.count('label="1"') == 6
    two_chain = make_poset(["a", "b"], [("a", "b", 1)])
    d2 = two_chain.hasse_dot()
    assert d2.count("->") == 1


def test_default_total_order(gr24):
    order = gr24.default_total_order()
    assert list(order) == ["34", "24", "14", "23", "13", "12"]
    gr24.check_total_order(order)
    with pytest.raises(ValidationFailure):
        gr24.check_total_order(
            __import__("stratval.avector", fromlist=["TotalOrder"]).TotalOrder(
                ["12", "34", "24", "14", "23", "13"]
            )
        )


def test_chain_bonds(gr24):
    assert gr24.chain_bonds(("34", "24", "23", "13", "12")) == [1, 1, 1, 1, 1]
    with pytest.raises(SchemaError):
        gr24.chain_bonds(("34", "23"))
