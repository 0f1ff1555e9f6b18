"""Face and cover sums against their chain-list oracles.

`face_sums` is one sum over the faces of the order complex for every degree
up to n, each face counted from its fundamental parallelepiped;
`hilbert_column` takes it, or one pass over the comparable pairs
(`pair_counts`) on product and cut lattices.  `sr_hilbert` and the Euler
characteristic are passes over the comparable pairs, and the Schubert and
Hodge degrees are one pass over the covers.  `chain_oracles` keeps the
inclusion-exclusion over sets of maximal chains with its composition walk,
the sums over listed faces and the sums over listed chains they must equal.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracles import (
    bond_product_sum,
    count_lattice_points,
    euler_by_faces,
    hilbert_by_chain_subsets,
    hodge_degree_by_chains,
    sr_hilbert_by_faces,
)
from stratval.errors import ValidationFailure
from stratval.geometry import (
    count_face_points,
    default_lattices,
    face_sums,
    hilbert_column,
    hilbert_incl_excl,
    hodge_degree,
    pair_counts,
    sr_hilbert,
    sr_hilbert_column,
)
from stratval.monoids import LatticeQ
from stratval.poset import StratPoset, generic_model
from stratval.weyl import (
    RootSystem,
    bonds,
    chain_gcds,
    lattice_LC_lambda,
    schubert_degree,
    weyl_dim,
    weyl_group,
)
from stratval.workspace import bundled, load_workspace

BUNDLED = [
    "elliptic1", "elliptic2", "gr24", "psl2", "pset_p2", "quadric", "sl3b",
    "torus_t2",
]


@st.composite
def layered_posets(draw):
    """Graded posets level by level: 1-2 maximal elements, levels of width
    1-3, each element covering 1-2 elements one level down and every element
    below the top covered; bonds 1-3 and degrees 1-3."""
    r = draw(st.integers(0, 2))
    widths = [draw(st.integers(1, 3)) for _ in range(r)] + [draw(st.integers(1, 2))]
    levels = [[f"v{k}{i}" for i in range(w)] for k, w in enumerate(widths)]
    pairs: set[tuple[str, str]] = set()
    for lower, upper in zip(levels, levels[1:]):
        for u in upper:
            picks = draw(st.sets(st.sampled_from(lower), min_size=1, max_size=2))
            pairs |= {(u, l) for l in picks}
        for l in lower:
            if not any(pl == l for _, pl in pairs):
                pairs.add((draw(st.sampled_from(upper)), l))
    ids = [p for level in levels for p in level]
    covers = [(u, l, draw(st.integers(1, 3))) for u, l in sorted(pairs)]
    fdeg = {p: draw(st.integers(1, 3)) for p in ids}
    return StratPoset([(p, p) for p in ids], covers, fdeg)


@st.composite
def bonded_lattices(draw):
    """A layered poset with a full-rank integer lattice on each maximal
    chain: triangular rows in a drawn column order, diagonal 1-3 and entries
    -3..3 above it (the first one nonzero), sometimes one more row, over a
    denominator 1-6."""
    ps = draw(layered_posets())
    lattices = {}
    for chain in ps.maximal_chains():
        k = len(chain)
        order = draw(st.permutations(range(k)))
        rows = []
        for i in range(k):
            row = [0] * k
            row[order[i]] = draw(st.integers(1, 3))
            for j in range(i + 1, k):
                entry = st.integers(-3, 3)
                row[order[j]] = draw(entry.filter(bool) if (i, j) == (0, 1) else entry)
            rows.append(row)
        if draw(st.booleans()):
            rows.append([draw(st.integers(-3, 3)) for _ in range(k)])
        lattices[chain] = LatticeQ(chain, rows, draw(st.integers(1, 6)))
    return ps, lattices


def assert_counts_match_chain_subsets(ps, lattices, degrees):
    """The dispatcher and the face list itself each equal the
    inclusion-exclusion over sets of maximal chains at each degree; the
    degrees run from 0 and the face list is read once, at the last."""
    sums = face_sums(ps, lattices, max(degrees))
    for n in degrees:
        want = hilbert_by_chain_subsets(ps, lattices, n)
        assert hilbert_incl_excl(ps, lattices, n) == want
        if n:
            assert sums[n - 1] == want


def bond_sums(ps: StratPoset) -> dict:
    """The cover pass `weyl.schubert_degree` reads, on any bonded poset."""
    return ps.chain_sums(lambda p, q: ps.bond[(p, q)], lambda q: 1)


def hodge_copy(ps: StratPoset) -> StratPoset:
    """The same covers with every bond 1 and degree 1 on minimal elements."""
    minimal = set(ps.minimal_elements())
    return StratPoset(
        [(p, p) for p in ps.ids],
        [(u, l, 1) for (u, l) in ps.bond],
        {p: 1 if p in minimal else ps.fdeg[p] for p in ps.ids},
    )


@settings(max_examples=50, deadline=None)
@given(layered_posets(), st.booleans())
def test_face_and_cover_sums_match_chain_oracles(ps, cut_lattices):
    chains = ps.maximal_chains()
    if cut_lattices:
        lattices = {c: lattice_LC_lambda(ps, c) for c in chains}
    else:
        lattices = default_lattices(ps)
    if len(chains) <= 6:
        assert_counts_match_chain_subsets(ps, lattices, range(4))
    assert bond_sums(ps) == {p: bond_product_sum(ps, p) for p in ps.ids}
    hodge = hodge_copy(ps)
    assert hodge_degree(hodge) == hodge_degree_by_chains(hodge)


@settings(max_examples=60, deadline=None)
@given(layered_posets())
def test_cut_lattices_of_degree_one_posets_count_as_the_face_list(ps):
    """With every degree one, the cut lattices are counted by a pass over
    pairs exactly when every interval has one bond gcd, and that count
    equals the face list."""
    ps = StratPoset(
        [(p, p) for p in ps.ids],
        [(u, l, b) for (u, l), b in ps.bond.items()],
        {p: 1 for p in ps.ids},
    )
    lattices = {c: lattice_LC_lambda(ps, c) for c in ps.maximal_chains()}
    try:
        chain_gcds(ps)
        one_gcd = True
    except ValidationFailure:
        one_gcd = False
    for n in range(1, 4):
        counts = pair_counts(ps, lattices, n)
        assert (counts is not None) == one_gcd
        if one_gcd:
            assert counts == face_sums(ps, lattices, n)
    if len(ps.maximal_chains()) <= 6:
        assert_counts_match_chain_subsets(ps, lattices, range(4))


@settings(max_examples=60, deadline=None)
@given(bonded_lattices())
def test_parallelepiped_counts_match_the_composition_walk(case):
    """Counts read off each face's parallelepiped equal the composition walk,
    also for a face that leaves the lattice's coordinates, and the passes
    over comparable pairs equal the sums over listed faces."""
    ps, lattices = case
    chains = ps.maximal_chains()
    faces = ps.faces_with_last_chain()
    first = lattices[chains[0]]
    if len(chains) <= 6:
        assert_counts_match_chain_subsets(ps, lattices, range(5))
    for n in range(5):
        for face in faces:
            assert count_face_points(ps, face, first, n) == count_lattice_points(
                ps, face, first, n, 0
            )
        assert sr_hilbert(ps, n) == sr_hilbert_by_faces(ps, n)
    assert hilbert_incl_excl(ps, lattices, 0) == euler_by_faces(ps)


def test_face_of_deficient_rank_is_refused():
    ps = StratPoset([("a", "a"), ("b", "b")], [("a", "b", 1)], {"a": 1, "b": 1})
    diagonal = LatticeQ(("a", "b"), [[1, 1]], 1)
    with pytest.raises(
        ValidationFailure,
        match="chain a>b: the lattice meets the face a in rank 0, expected 1",
    ):
        hilbert_incl_excl(ps, {("a", "b"): diagonal}, 1)
    with pytest.raises(
        ValidationFailure,
        match="chain a>b: the lattice meets the face a in rank 0, expected 1",
    ):
        count_face_points(ps, ("a", "b"), diagonal, 2)
    # a face that leaves the lattice's coordinates holds no point
    assert count_face_points(ps, ("a", "b"), LatticeQ(("b",), [[1]], 1), 2) == 1


@pytest.mark.parametrize("lam", [(2, 1, 1), (1, 1, 2)])
def test_a3_cut_lattices_count_the_weyl_dimension(lam):
    """A3 has 4,523 faces over 168 cut lattices with denominators up to 12."""
    rs = RootSystem.from_type("A3")
    ps = bonds(rs, lam, weyl_group(rs))
    lattices = {c: lattice_LC_lambda(ps, c) for c in ps.maximal_chains()}
    want = [weyl_dim(rs, tuple(n * x for x in lam)) for n in range(4)]
    assert want == [1, 140, 1980, 12320]
    assert [hilbert_incl_excl(ps, lattices, n) for n in range(4)] == want


# the bond lattices whose running bond products depend on the chain, with
# their face-list counts for n <= 5
FACE_LIST_SETS = {
    "sl3b": [1, 10, 37, 92, 185, 326],
    "elliptic2": [1, 4, 7, 10, 13, 16],
}


@pytest.mark.parametrize("name", BUNDLED)
def test_face_sum_matches_chain_subsets_on_bundled_sets(name):
    """The bond lattices of every bundled set but sl3b and elliptic2 are
    product lattices, counted by the pass over pairs."""
    ps = load_workspace(bundled(name)).ps
    lattices = default_lattices(ps)
    assert (pair_counts(ps, lattices, 1) is None) == (name in FACE_LIST_SETS)
    assert_counts_match_chain_subsets(ps, lattices, range(5))
    if name in FACE_LIST_SETS:
        got = [hilbert_incl_excl(ps, lattices, n) for n in range(6)]
        assert got == FACE_LIST_SETS[name]


@pytest.mark.parametrize("s,r", [(s, r) for s in range(3, 8) for r in (2, 3)])
def test_face_sum_matches_chain_subsets_on_generic_models(s, r):
    ps = generic_model(s, r)
    lattices = default_lattices(ps)
    assert pair_counts(ps, lattices, 1) is not None
    assert_counts_match_chain_subsets(ps, lattices, range(5))


@pytest.mark.parametrize("type_name", ["A2", "B2"])
def test_face_sum_matches_chain_subsets_on_cut_lattices(type_name):
    rs = RootSystem.from_type(type_name)
    ps = bonds(rs, (1, 1), weyl_group(rs))
    lattices = {c: lattice_LC_lambda(ps, c) for c in ps.maximal_chains()}
    assert pair_counts(ps, lattices, 1) is not None
    assert_counts_match_chain_subsets(ps, lattices, range(4))


CROWN = StratPoset(
    [(p, p) for p in ("t1", "t2", "x", "y")],
    [("t1", "x", 1), ("t1", "y", 2), ("t2", "x", 3), ("t2", "y", 1)],
    {p: 1 for p in ("t1", "t2", "x", "y")},
)


def test_euler_characteristic_at_degree_zero():
    one_top = generic_model(3, 2)
    two_chains = StratPoset(
        [(p, p) for p in ("a1", "a0", "b1", "b0")],
        [("a1", "a0", 1), ("b1", "b0", 2)],
        {"a1": 1, "a0": 1, "b1": 1, "b0": 1},
    )
    for ps, chi in ((one_top, 1), (two_chains, 2), (CROWN, 0)):
        lattices = default_lattices(ps)
        assert hilbert_incl_excl(ps, lattices, 0) == chi
        assert hilbert_by_chain_subsets(ps, lattices, 0) == chi


@pytest.mark.parametrize(
    "type_name,lam", [("A2", (2, 1)), ("G2", (1, 1)), ("A3", (1, 1, 1))],
)
def test_cut_lattices_count_ls_paths_as_the_face_list_does(type_name, lam):
    """Too many chains for the chain-subset oracle: the pass over pairs
    against the face list and the Weyl dimension."""
    rs = RootSystem.from_type(type_name)
    ps = bonds(rs, lam, weyl_group(rs))
    lattices = {c: lattice_LC_lambda(ps, c) for c in ps.maximal_chains()}
    for n in range(1, 3):
        want = [weyl_dim(rs, tuple(k * x for x in lam)) for k in range(1, n + 1)]
        assert pair_counts(ps, lattices, n) == face_sums(ps, lattices, n) == want


def test_crown_takes_the_face_list():
    lattices = default_lattices(CROWN)
    assert pair_counts(CROWN, lattices, 1) is None
    got = [hilbert_incl_excl(CROWN, lattices, n) for n in range(5)]
    assert got == [0, 7, 14, 21, 28]
    assert_counts_match_chain_subsets(CROWN, lattices, range(4))


def test_chain_dependent_interval_gcd_takes_the_face_list():
    """Through a the bonds from t down to s are 2, 2 and through b they are
    2, 1: the interval [s, t] has no one gcd, so the cut lattices are not
    counted as LS paths."""
    ps = StratPoset(
        [(p, p) for p in ("t", "a", "b", "s")],
        [("t", "a", 2), ("t", "b", 2), ("a", "s", 2), ("b", "s", 1)],
        {p: 1 for p in ("t", "a", "b", "s")},
    )
    with pytest.raises(ValidationFailure, match="bond gcd from s up to t is 2 or 1"):
        chain_gcds(ps)
    lattices = {c: lattice_LC_lambda(ps, c) for c in ps.maximal_chains()}
    assert pair_counts(ps, lattices, 1) is None
    assert_counts_match_chain_subsets(ps, lattices, range(5))


@pytest.mark.parametrize("type_name", ["A2", "B2", "G2", "A3"])
def test_schubert_cover_pass_matches_chain_list(type_name):
    rs = RootSystem.from_type(type_name)
    group = weyl_group(rs)
    lam = (1,) * rs.rank
    ps = bonds(rs, lam, group)
    for tau in ps.ids:
        assert schubert_degree(rs, lam, tau, group, ps) == bond_product_sum(ps, tau)


@pytest.mark.parametrize("name", BUNDLED)
def test_hodge_cover_pass_matches_chain_list(name):
    ps = load_workspace(bundled(name)).ps
    try:
        got = hodge_degree(ps)
    except ValidationFailure as e:
        assert "not of Hodge type" in str(e)
        assert any(b != 1 for b in ps.bond.values()) or any(
            ps.fdeg[p] != 1 for p in ps.minimal_elements()
        )
        return
    assert got == hodge_degree_by_chains(ps)


GENERIC = {
    f"generic_{s}_{r}": (s, r)
    for s, r in ((3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3))
}
CUT = {"A2": (1, 2), "B2": (1, 1), "A3": (1, 1, 1)}


@pytest.mark.parametrize("name", [*BUNDLED, *GENERIC, *CUT])
def test_columns_from_one_pass_equal_the_values_per_degree(name):
    """The Hilbert and Stanley-Reisner columns up to 8 from one pass equal
    the values computed degree by degree, each count also equal to the face
    list, on the bundled sets and generic models with their bond lattices
    and on Weyl posets with their cut lattices."""
    if name in CUT:
        rs = RootSystem.from_type(name)
        ps = bonds(rs, CUT[name], weyl_group(rs))
        lattices = {c: lattice_LC_lambda(ps, c) for c in ps.maximal_chains()}
    else:
        ps = generic_model(*GENERIC[name]) if name in GENERIC else (
            load_workspace(bundled(name)).ps
        )
        lattices = default_lattices(ps)
    top = 8
    column = hilbert_column(ps, lattices, top)
    assert column == [hilbert_incl_excl(ps, lattices, n) for n in range(top + 1)]
    assert column[1:] == face_sums(ps, lattices, top)
    counts = pair_counts(ps, lattices, top)
    assert (counts is None) == (name in FACE_LIST_SETS)
    if counts is not None:
        assert counts == column[1:]
    sr = sr_hilbert_column(ps, top)
    assert sr == [sr_hilbert(ps, n) for n in range(top + 1)]
    assert sr == [sr_hilbert_by_faces(ps, n) for n in range(top + 1)]


def test_hilbert_column_lists_the_faces_once(monkeypatch):
    """The column to degree 6 on sl3b reads the face list once, not once
    per degree."""
    ps = load_workspace(bundled("sl3b")).ps
    lattices = default_lattices(ps)
    listed = StratPoset.faces_with_last_chain
    reads = []

    def counted(self):
        reads.append(self)
        return listed(self)

    monkeypatch.setattr(StratPoset, "faces_with_last_chain", counted)
    assert hilbert_column(ps, lattices, 6)[:6] == FACE_LIST_SETS["sl3b"]
    assert len(reads) == 1
