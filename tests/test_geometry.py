from fractions import Fraction
from functools import cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracles import (
    RationalStructure,
    count_lattice_points,
    ehrhart_count,
    rational_structure,
    volume,
)
from stratval.avector import AVector
from stratval.errors import BoundError, SchemaError, ValidationFailure
from stratval.geometry import (
    chain_volume,
    chain_volumes,
    count_face_points,
    default_lattices,
    degree,
    hilbert_incl_excl,
    hodge_degree,
    no_complex,
    sr_hilbert,
)
from stratval.monoids import (
    LatticeQ,
    MonoidFan,
    lattice_LC,
    lattice_generated,
    weighted_compositions,
)
from stratval.poset import StratPoset, generic_model
from stratval.weyl import (
    RootSystem,
    bonds,
    lattice_LC_lambda,
    schubert_degree,
    weyl_group,
)
from stratval.workspace import bundled, load_workspace


def chain_poset(n, fdeg=None):
    ids = [f"p{n - i}" for i in range(n + 1)]
    elements = [(i, i) for i in ids]
    covers = [(ids[i], ids[i + 1], 1) for i in range(n)]
    degs = fdeg or {i: 1 for i in ids}
    return StratPoset(elements, covers, degs)


def test_no_complex_shapes(gr24):
    simplices = no_complex(gr24)
    assert len(simplices) == 2
    shared = set(simplices[0].chain) & set(simplices[1].chain)
    assert shared == {"34", "24", "13", "12"}
    two = chain_poset(1)
    assert len(no_complex(two)) == 1 and len(no_complex(two)[0].vertices) == 2


def test_no_complex_realizes_order_complex(gr24):
    simplices = no_complex(gr24)
    faces = set()
    for s in simplices:
        n = len(s.chain)
        for mask in range(1, 1 << n):
            faces.add(tuple(s.chain[i] for i in range(n) if mask & (1 << i)))
    assert faces == set(gr24.order_complex())


def test_elliptic2_complex_two_segments():
    ps = StratPoset(
        [("X1", "X1"), ("P01", "P01"), ("P02", "P02")],
        [("X1", "P01", 1), ("X1", "P02", 2)],
        {"X1": 1, "P01": 1, "P02": 1},
    )
    simplices = no_complex(ps)
    assert len(simplices) == 2
    assert set(simplices[0].chain) & set(simplices[1].chain) == {"X1"}


def test_rational_structure_standard(gr24):
    chain = gr24.maximal_chains()[0]
    rs = rational_structure(gr24, chain, lattice_LC(gr24, chain))
    assert rs.points[-1] == [0, 0, 0, 0]
    assert sorted(tuple(p) for p in rs.points[:-1]) == sorted(
        tuple(int(i == j) for j in range(4)) for i in range(4)
    )
    assert volume(rs) == Fraction(1, factorial(4))


def test_rational_structure_generic_model_is_standard():
    ps = generic_model(3, 2)
    for chain in ps.maximal_chains():
        rs = rational_structure(ps, chain, lattice_LC(ps, chain))
        assert volume(rs) == Fraction(1, 2)


def test_rational_structure_point():
    ps = chain_poset(0)
    chain = ps.maximal_chains()[0]
    rs = rational_structure(ps, chain, lattice_LC(ps, chain))
    assert volume(rs) == 1


def test_rational_structure_rejects_bad_lattice(gr24):
    chain = gr24.maximal_chains()[0]
    doubled = lattice_generated([AVector.unit(p, 2) for p in chain], chain)
    with pytest.raises(ValidationFailure):
        rational_structure(gr24, chain, doubled)


def test_volume_determinant_scaling():
    # vertices 0, e1, e2/3: half the parallelogram scaled by one third
    rs = RationalStructure(
        ("a", "b", "c"),
        lattice_generated([AVector.unit("a")], ("a",)),
        lattice_generated([AVector.unit("a")], ("a",)),
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 3)],
         [Fraction(0), Fraction(0)]],
    )
    assert volume(rs) == Fraction(1, 2 * 3)


@cache
def volume_poset(name):
    if name == "generic(4,3)":
        return generic_model(4, 3)
    if name == "A3":
        rs = RootSystem.from_type("A3")
        return bonds(rs, (1, 1, 1), weyl_group(rs))
    return load_workspace(bundled(name)).ps


def volume_or_refusal(compute):
    try:
        return compute()
    except ValidationFailure:
        return "refused"


@st.composite
def chain_lattices(draw):
    """A maximal chain and a lattice holding its bottom vertex plus 1-4
    random rational vectors on the chain, sometimes over the chain's bond
    lattice and now and then with one vector reaching off the chain;
    coordinates in chain order or, through lattice_generated with no chain,
    sorted over the support (which may miss part of the chain)."""
    ps = volume_poset(draw(st.sampled_from(["gr24", "torus_t2", "generic(4,3)", "A3"])))
    chain = draw(st.sampled_from(ps.maximal_chains()))
    p0 = chain[-1]
    vectors = [AVector.unit(p0, Fraction(1, ps.fdeg[p0]))]
    if draw(st.booleans()):
        vectors += lattice_LC(ps, chain).basis
    entry = st.fractions(-3, 3, max_denominator=4)
    for _ in range(draw(st.integers(1, 4))):
        support = draw(st.sets(st.sampled_from(chain), min_size=1))
        vectors.append(AVector({p: draw(entry) for p in sorted(support)}))
    reach_off = draw(st.integers(0, 4)) == 0
    if reach_off:
        off = draw(st.sampled_from([p for p in ps.ids if p not in chain]))
        vectors[-1] = vectors[-1] + AVector.unit(off, draw(entry))
    sorted_coords = reach_off or draw(st.booleans())
    return ps, chain, lattice_generated(vectors, None if sorted_coords else chain)


@settings(max_examples=150, deadline=None)
@given(chain_lattices())
def test_chain_volume_matches_the_rational_structure(case):
    ps, chain, lattice = case
    got = volume_or_refusal(lambda: chain_volume(ps, chain, lattice))
    want = volume_or_refusal(lambda: volume(rational_structure(ps, chain, lattice)))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(chain_lattices(), st.data())
def test_face_points_counted_in_integers_match_membership(case, data):
    """The oracle's integer count agrees with membership of each point as a
    rational vector, also where the face leaves the lattice's coordinates."""
    ps, chain, lattice = case
    picked = data.draw(st.sets(st.sampled_from(chain), min_size=1, max_size=3))
    face = tuple(p for p in chain if p in picked)
    n = data.draw(st.integers(0, 2))
    for low in (0, 1):
        want = sum(
            lattice.membership(
                AVector({p: Fraction(w, lattice.den) for p, w in zip(face, ws)})
            )
            for ws in weighted_compositions(
                [ps.fdeg[p] for p in face], n * lattice.den, low
            )
        )
        assert count_lattice_points(ps, face, lattice, n, low) == want


def test_chain_volume_keeps_the_refusal_messages(gr24):
    chain = gr24.maximal_chains()[0]
    doubled = lattice_generated([AVector.unit(p, 2) for p in chain], chain)
    with pytest.raises(ValidationFailure, match="not in the given lattice"):
        chain_volume(gr24, chain, doubled)
    short = lattice_generated([AVector.unit(p) for p in chain[2:]], chain)
    with pytest.raises(ValidationFailure, match="has rank 2, expected 4"):
        chain_volume(gr24, chain, short)
    other = next(p for p in gr24.ids if p not in chain)
    off = lattice_generated([AVector.unit(p) for p in (other,) + chain[1:]], None)
    with pytest.raises(ValidationFailure, match="does not span"):
        chain_volume(gr24, chain, off)


@pytest.mark.parametrize("lam", [(1, 1, 1), (2, 1, 1), (1, 1, 2)])
def test_degree_reads_volumes_off_the_hermite_form(lam):
    """A3 with its cut lattices gives the Schubert degree."""
    rs = RootSystem.from_type("A3")
    w = weyl_group(rs)
    ps = bonds(rs, lam, w)
    lattices = {c: lattice_LC_lambda(ps, c) for c in ps.maximal_chains()}
    assert degree(ps, lattices) == schubert_degree(rs, lam, w.w0.id)


def test_lattices_build_without_vectors(gr24, monkeypatch):
    """The bond and cut lattices are built from integer rows alone; only the
    degree's bottom-vertex checks make vectors."""
    rs = RootSystem.from_type("A3")
    a3 = bonds(rs, (1, 1, 1), weyl_group(rs))
    built = []
    init = AVector.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AVector, "__init__", counting)
    gr24_lattices = {c: lattice_LC(gr24, c) for c in gr24.maximal_chains()}
    a3_lattices = {c: lattice_LC_lambda(a3, c) for c in a3.maximal_chains()}
    assert built == []
    assert degree(gr24, gr24_lattices) == 2
    assert degree(a3, a3_lattices) == 720


def test_library_lattices_pass_through_the_constructor(gr24, monkeypatch):
    """Every bond and cut lattice is built by LatticeQ.__init__, once per
    maximal chain."""
    rs = RootSystem.from_type("A3")
    a3 = bonds(rs, (2, 1, 1), weyl_group(rs))
    calls = []
    init = LatticeQ.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LatticeQ, "__init__", counting)
    default_lattices(gr24)
    assert len(calls) == len(gr24.maximal_chains())
    calls.clear()
    for c in a3.maximal_chains():
        lattice_LC_lambda(a3, c)
    assert len(calls) == len(a3.maximal_chains())


def test_degree_gr24(gr24):
    assert degree(gr24, default_lattices(gr24)) == 2
    assert hodge_degree(gr24) == 2


def test_degree_pset():
    from datagen import pset_poset

    ps = pset_poset()
    assert hodge_degree(ps) == 1
    assert degree(ps, default_lattices(ps)) == 1


def test_degree_generic_model():
    for s in (2, 3, 4, 5):
        for r in (2, 3):
            ps = generic_model(s, r)
            assert degree(ps, default_lattices(ps)) == s, (s, r)


def test_degree_quadric():
    from datagen import quadric_poset

    ps = quadric_poset()
    assert degree(ps, default_lattices(ps)) == 2


def test_degree_elliptic_both():
    from datagen import elliptic1_poset, elliptic2_poset

    e1 = elliptic1_poset()
    assert degree(e1, default_lattices(e1)) == 3
    e2 = elliptic2_poset()
    per_chain = [
        factorial(1) * volume(rational_structure(e2, c, lattice_LC(e2, c)))
        for c in e2.maximal_chains()
    ]
    assert sorted(per_chain) == [1, 2]
    assert degree(e2, default_lattices(e2)) == 3


def test_hodge_degree_rejects_bonded():
    from datagen import sl3b_poset

    with pytest.raises(ValidationFailure):
        hodge_degree(sl3b_poset())


def test_ehrhart_standard_simplices(gr24):
    chain = gr24.maximal_chains()[0]
    rs = rational_structure(gr24, chain, lattice_LC(gr24, chain))
    assert ehrhart_count(rs, 0) == 1
    assert ehrhart_count(rs, 2) == 15      # C(6,4)
    ps3 = chain_poset(3)
    chain3 = ps3.maximal_chains()[0]
    rs3 = rational_structure(ps3, chain3, lattice_LC(ps3, chain3))
    assert ehrhart_count(rs3, 1) == 4


def test_ehrhart_guard():
    import chain_oracles as geo

    ps = chain_poset(4)
    chain = ps.maximal_chains()[0]
    rs = rational_structure(ps, chain, lattice_LC(ps, chain))
    old = geo.EHRHART_GUARD
    geo.EHRHART_GUARD = 10
    try:
        with pytest.raises(BoundError):
            ehrhart_count(rs, 50)
    finally:
        geo.EHRHART_GUARD = old


def test_points_are_equal_invariant(gr24):
    # direct count in the chain coordinates matches the projected count
    for chain in gr24.maximal_chains():
        lat = lattice_LC(gr24, chain)
        rs = rational_structure(gr24, chain, lat)
        for n in range(7):
            assert count_face_points(gr24, chain, lat, n) == ehrhart_count(rs, n)


def test_hilbert_incl_excl_gr24(gr24):
    lattices = default_lattices(gr24)
    values = [hilbert_incl_excl(gr24, lattices, n) for n in range(6)]
    assert values == [1, 6, 20, 50, 105, 196]


def test_hilbert_single_chain_is_plain_ehrhart():
    ps = chain_poset(2)
    lattices = default_lattices(ps)
    chain = ps.maximal_chains()[0]
    rs = rational_structure(ps, chain, lattices[chain])
    for n in range(5):
        assert hilbert_incl_excl(ps, lattices, n) == ehrhart_count(rs, n)


def test_hilbert_refuses_non_saturated_fan():
    ps = StratPoset(
        [("X1", "X1"), ("X0", "X0")], [("X1", "X0", 3)], {"X1": 1, "X0": 1}
    )
    chain = ("X1", "X0")
    fan = MonoidFan(
        ps,
        {
            chain: [
                AVector({"X1": Fraction(1, 3), "X0": Fraction(2, 3)}),
                AVector.unit("X0"),
                AVector.unit("X1"),
            ]
        },
    )
    with pytest.raises(ValidationFailure):
        hilbert_incl_excl(ps, default_lattices(ps), 1, fan=fan)


def test_sr_hilbert_cases(gr24):
    two_points = StratPoset(
        [("1", "1"), ("2", "2")], [], {"1": 1, "2": 1}
    )
    assert sr_hilbert(two_points, 2) == 2
    chain = chain_poset(1)
    for n in range(5):
        assert sr_hilbert(chain, n) == n + 1
    for n in range(6):
        assert sr_hilbert(gr24, n) == hilbert_incl_excl(
            gr24, default_lattices(gr24), n
        )


def test_sr_hilbert_pset():
    from datagen import pset_poset

    ps = pset_poset()
    # weighted Stanley-Reisner count agrees with the polynomial ring in 3 vars
    for n in range(7):
        assert sr_hilbert(ps, n) == (n + 1) * (n + 2) // 2


def test_hodge_hilbert_equality_weighted():
    """Inclusion-exclusion equals the bond-free degeneration count on every
    Hodge-type data set, including weighted extremal degrees."""
    from datagen import pset_poset, psl2_poset, quadric_poset

    for ps in [pset_poset(), quadric_poset(), psl2_poset()]:
        lattices = default_lattices(ps)
        for n in range(9):
            assert hilbert_incl_excl(ps, lattices, n) == sr_hilbert(ps, n)


def test_psl2_hilbert_is_projective_space():
    from datagen import psl2_poset

    ps = psl2_poset()
    lattices = default_lattices(ps)
    for n in range(7):
        expected = (n + 1) * (n + 2) * (n + 3) // 6
        assert hilbert_incl_excl(ps, lattices, n) == expected


def test_gamma_slice_matches_hilbert(gr24):
    from stratval.monoids import gamma_degree_slice, hodge_fan

    fan = hodge_fan(gr24)
    lattices = default_lattices(gr24)
    for n in range(4):
        assert len(gamma_degree_slice(fan, n)) == hilbert_incl_excl(
            gr24, lattices, n
        )


def test_degree_missing_lattice_errors(gr24):
    with pytest.raises(SchemaError):
        degree(gr24, {})


@pytest.mark.parametrize("n", [0, 1, 2])
def test_hilbert_missing_lattice_is_refused_like_the_volumes(gr24, n):
    lattices = default_lattices(gr24)
    del lattices[("34", "24", "14", "13", "12")]
    message = "no lattice given for chain 34>24>14>13>12"
    with pytest.raises(SchemaError, match=message):
        hilbert_incl_excl(gr24, lattices, n)
    with pytest.raises(SchemaError, match=message):
        chain_volumes(gr24, lattices)
