from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracles import (
    enumerate_ls_by_chains,
    freudenthal_by_levels,
    path_from_vector,
    validate_ls_by_bfs,
    weyl_group_by_matrices,
)
from stratval.avector import AVector
from stratval.errors import BoundError, SchemaError, StratvalError, ValidationFailure
from stratval.weyl import (
    LSPath,
    RootSystem,
    bonds,
    cartan_matrix,
    chain_gcds,
    character_check,
    enumerate_ls,
    freudenthal_character,
    is_cut_lattice,
    lattice_LC_lambda,
    ls_lattice_points,
    nu,
    path_count,
    schubert_degree,
    validate_ls,
    weight,
    weyl_dim,
    weyl_group,
)


@pytest.fixture(scope="module")
def a1():
    rs = RootSystem.from_type("A1")
    return rs, weyl_group(rs)


@pytest.fixture(scope="module")
def a2():
    rs = RootSystem.from_type("A2")
    return rs, weyl_group(rs)


def test_cartan_parsing():
    assert cartan_matrix("A2") == [[2, -1], [-1, 2]]
    assert cartan_matrix("B2") == [[2, -2], [-1, 2]]
    assert cartan_matrix("G2") == [[2, -3], [-1, 2]]
    with pytest.raises(SchemaError):
        cartan_matrix("Z9")
    with pytest.raises(SchemaError):
        RootSystem([[2, 1], [1, 2]])
    with pytest.raises(SchemaError):
        RootSystem([])
    with pytest.raises(SchemaError):
        RootSystem([[2, 0], [-1, 2]])  # a_01 = 0 but a_10 != 0
    with pytest.raises(SchemaError, match="not symmetrizable"):
        RootSystem([[2, -1, -1], [-1, 2, -2], [-1, -1, 2]])


POSITIVE_ROOT_COUNTS = (
    [(f"A{n}", n * (n + 1) // 2) for n in range(1, 9)]
    + [(f"{k}{n}", n * n) for k in "BC" for n in range(1, 9)]
    + [(f"D{n}", n * (n - 1)) for n in range(3, 9)]
    + [("G2", 6), ("F4", 24), ("E6", 36), ("E7", 63), ("E8", 120)]
)


@pytest.mark.parametrize("type_name,count", POSITIVE_ROOT_COUNTS)
def test_root_data(type_name, count):
    """Each coroot is 2 beta / (beta, beta) in simple-coroot coordinates, and
    each reflection is an involution negating its root."""
    rs = RootSystem.from_type(type_name)
    n = rs.rank
    assert len(rs.positive_roots) == count
    assert rs.positive_roots == sorted(rs.coroots)
    omegas = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for beta in rs.positive_roots:
        norm = sum(beta[i] * beta[j] * rs.sym[i] * rs.cartan[i][j]
                   for i in range(n) for j in range(n))
        coroot = rs.coroots[beta]
        assert all(c * norm == 2 * d * b for c, d, b in zip(coroot, rs.sym, beta))
        # s_beta squares to the identity on every fundamental weight
        assert all(rs.reflect(rs.reflect(w, beta), beta) == w for w in omegas)
        beta_omega = rs.roots_in_omega[beta]
        assert rs.reflect(beta_omega, beta) == tuple(-x for x in beta_omega)


def test_weyl_group_sizes(a1, a2):
    assert len(a1[1].elements) == 2
    assert len(a2[1].elements) == 6
    a3 = RootSystem.from_type("A3")
    assert len(weyl_group(a3).elements) == 24
    b2 = RootSystem.from_type("B2")
    assert len(weyl_group(b2).elements) == 8
    assert len(b2.positive_roots) == 4


def test_weyl_group_bound():
    with pytest.raises(BoundError):
        weyl_group(RootSystem.from_type("A3"), bound=10)


def test_weyl_group_refuses_rank_above_nine():
    """Ids are words of one-digit letters: on twelve disjoint A1 nodes "112"
    would be both s1 s12 and s11 s2, 4,096 elements under 4,095 ids."""
    def disjoint_a1(n):
        return RootSystem([[2 * (i == j) for j in range(n)] for i in range(n)])

    with pytest.raises(BoundError, match="rank 12"):
        weyl_group(disjoint_a1(12))
    group = weyl_group(disjoint_a1(9))
    assert len(group.elements) == len(group.by_id) == 2 ** 9


@pytest.mark.parametrize("type_name", [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4",
])
def test_weyl_group_matches_the_matrix_bfs(type_name):
    """Ids, lengths, element order, covers and the action on three dominant
    weights agree with the BFS over reflection matrices."""
    rs = RootSystem.from_type(type_name)
    group = weyl_group(rs)
    elements, covers = weyl_group_by_matrices(rs)
    assert [(w.id, w.length) for w in group.elements] == [
        (elt_id, length) for elt_id, length, _ in elements
    ]
    assert group.covers == covers
    assert group.w0.id == elements[-1][0]
    n = rs.rank
    for lam in ((1,) * n, tuple(range(1, n + 1)), (2,) + (0,) * (n - 1)):
        for w, (_, _, m) in zip(group.elements, elements):
            assert w.act(lam) == tuple(
                sum(x * l for x, l in zip(row, lam)) for row in m
            )


@pytest.mark.parametrize("type_name", [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4",
])
def test_images_match_the_action_of_each_word(type_name):
    """The images of three weights, one of them not dominant, from one pass
    in element order equal w(lam) by each element's whole word, and each
    weight's table is built once per group."""
    rs = RootSystem.from_type(type_name)
    group = weyl_group(rs)
    n = rs.rank
    for lam in ((1,) * n, (2,) + (0,) * (n - 1), tuple(i % 3 - 1 for i in range(n))):
        images = group.images(lam)
        assert list(images) == [w.id for w in group.elements]
        assert all(images[w.id] == w.act(lam) for w in group.elements)
        assert group.images(list(lam)) is images


def test_covers_a1_a2(a1, a2):
    assert [(u, l) for u, l, _ in a1[1].covers] == [("1", "e")]
    ps = bonds(a2[0], (1, 1), a2[1])
    assert len(ps.maximal_chains()) == 4
    assert ps.validate().ok


def test_bonds_match_pieri_chevalley(a2):
    rs, group = a2
    ps = bonds(rs, (1, 1), group)
    got = dict(ps.bond)
    assert got[("12", "2")] == 2
    assert got[("21", "1")] == 2
    assert all(
        b == 1 for e, b in got.items() if e not in {("12", "2"), ("21", "1")}
    )
    doubled = bonds(rs, (2, 2), group)
    assert all(doubled.bond[e] == 2 * b for e, b in got.items())


def test_bonds_a1_scale(a1):
    rs, group = a1
    for m in range(1, 6):
        ps = bonds(rs, (m,), group)
        assert ps.bond[("1", "e")] == m


def test_bonds_reject_non_regular(a2):
    rs, group = a2
    with pytest.raises(ValidationFailure):
        bonds(rs, (1, 0), group)


def test_bonds_match_shipped_sl3b(a2):
    from datagen import sl3b_poset

    rs, group = a2
    computed = bonds(rs, (1, 1), group)
    shipped = sl3b_poset()
    assert computed.bond == shipped.bond
    assert sorted(computed.ids) == sorted(shipped.ids)


def test_ls_lattice_points_a1(a1):
    rs, group = a1
    ps = bonds(rs, (3,), group)
    chain = ps.maximal_chains()[0]
    assert ls_lattice_points(ps, chain, 0) == [AVector.zero()]
    pts = ls_lattice_points(ps, chain, 1)
    assert len(pts) == 4
    tops = sorted(p[chain[0]] for p in pts)
    assert tops == [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]


def test_ls_lattice_points_a2_union(a2):
    rs, group = a2
    ps = bonds(rs, (1, 1), group)
    union = set()
    for chain in ps.maximal_chains():
        union.update(ls_lattice_points(ps, chain, 1))
    assert len(union) == weyl_dim(rs, (1, 1)) == 8


def test_enumerate_ls_counts(a1, a2):
    rs1, g1 = a1
    for m in range(1, 6):
        paths = enumerate_ls(rs1, (m,), 1, group=g1)
        assert len(paths) == m + 1
    rs2, g2 = a2
    for lam in [(1, 1), (2, 2)]:
        for deg in (1, 2, 3):
            paths = enumerate_ls(rs2, lam, deg, group=g2)
            dil = tuple(deg * x for x in lam)
            assert len(paths) == weyl_dim(rs2, dil), (lam, deg)


def test_bijection_lattice_vs_paths(a2):
    rs, group = a2
    ps = bonds(rs, (1, 1), group)
    for m in (1, 2, 3):
        union = set()
        for chain in ps.maximal_chains():
            union.update(ls_lattice_points(ps, chain, m))
        paths = enumerate_ls(rs, (1, 1), m, group=group, poset=ps)
        assert len(paths) == len(union)
        assert {nu(p).key() for p in paths} == {u.key() for u in union}


def test_nu_and_path_roundtrip(a1):
    rs, group = a1
    ps = bonds(rs, (2,), group)
    path = LSPath(("1", "e"), (Fraction(1, 2), Fraction(1)))
    assert nu(path) == AVector({"1": Fraction(1, 2), "e": Fraction(1, 2)})
    assert path_from_vector(nu(path), ps) == path
    straight = LSPath(("1",), (Fraction(1),))
    assert nu(straight) == AVector.unit("1")


def test_weight(a1, a2):
    rs1, g1 = a1
    assert weight(LSPath(("e",), (Fraction(1),)), g1, (2,)) == (2,)
    assert weight(LSPath(("1",), (Fraction(1),)), g1, (2,)) == (-2,)
    assert weight(
        LSPath(("1", "e"), (Fraction(1, 2), Fraction(1))), g1, (2,)
    ) == (0,)
    rs2, g2 = a2
    w0 = g2.w0
    assert weight(LSPath((w0.id,), (Fraction(1),)), g2, (1, 1)) == (-1, -1)
    assert weight(LSPath((), ()), g2, (1, 1)) == (0, 0)
    not_integral = r"path weight \[Fraction\(1, 2\)\] is not integral"
    with pytest.raises(StratvalError, match=not_integral):
        weight(LSPath(("e",), (Fraction(1, 2),)), g1, (1,))


@pytest.mark.parametrize("t,lam,m", [("B2", (1, 1), 3), ("A3", (1, 1, 1), 1)])
def test_weight_matches_the_rational_sum(t, lam, m):
    rs = RootSystem.from_type(t)
    group = weyl_group(rs)
    for path in enumerate_ls(rs, lam, m, group=group):
        total = [Fraction(0)] * len(lam)
        prev = Fraction(0)
        for d, c in zip(path.dirs, path.cuts):
            for i, x in enumerate(group.by_id[d].act(lam)):
                total[i] += (c - prev) * x
            prev = c
        assert weight(path, group, lam) == tuple(total)


def test_validate_ls_rejects_bad_cut(a1):
    rs, group = a1
    # cut 1/2 needs <tau(lambda), beta^vee> * 1/2 integral: fails for lambda = 3w
    bad = LSPath(("1", "e"), (Fraction(1, 2), Fraction(1)))
    assert not validate_ls(bad, group, rs, (3,))
    assert validate_ls(bad, group, rs, (2,))


def test_degree_additivity_on_concatenation(a2):
    rs, group = a2
    paths1 = enumerate_ls(rs, (1, 1), 1, group=group)
    ps = bonds(rs, (1, 1), group)
    for p in paths1:
        for q in paths1:
            v = nu(p) + nu(q)
            from stratval.avector import degree_of

            assert degree_of(v, ps.fdeg) == 2


def test_freudenthal_small_cases(a1, a2):
    rs1, _ = a1
    ch = freudenthal_character(rs1, (1,))
    assert ch == {(1,): 1, (-1,): 1}
    rs2, _ = a2
    adjoint = freudenthal_character(rs2, (1, 1))
    assert sum(adjoint.values()) == 8
    assert adjoint[(0, 0)] == 2
    fund = freudenthal_character(rs2, (1, 0))
    assert sum(fund.values()) == 3
    assert all(v == 1 for v in fund.values())


def test_freudenthal_matches_weyl_dim(a2):
    rs, _ = a2
    for lam in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        assert sum(freudenthal_character(rs, lam).values()) == weyl_dim(rs, lam)


@pytest.mark.parametrize(
    "type_name,lam",
    [("A2", (3, 2)), ("A3", (1, 1, 1)), ("B2", (1, 1)), ("B2", (2, 1)),
     ("G2", (1, 0)), ("G2", (0, 1)), ("G2", (1, 1)), ("B3", (1, 1, 1)),
     ("C3", (1, 1, 1)), ("D4", (1, 0, 0, 0)), ("F4", (1, 0, 0, 0)),
     ("F4", (0, 0, 0, 1)), ("E6", (1, 0, 0, 0, 0, 0)), ("E6", (0, 1, 0, 0, 0, 0))],
)
def test_freudenthal_other_types(type_name, lam):
    rs = RootSystem.from_type(type_name)
    ch = freudenthal_character(rs, lam)
    assert sum(ch.values()) == weyl_dim(rs, lam)
    assert all(m > 0 for m in ch.values())


@pytest.mark.parametrize(
    "type_name,lam,dim",
    [("D4", (1, 0, 0, 0), 8), ("F4", (1, 0, 0, 0), 26), ("F4", (0, 0, 0, 1), 52),
     ("E6", (1, 0, 0, 0, 0, 0), 78), ("E6", (0, 1, 0, 0, 0, 0), 27)],
)
def test_weyl_dim_known_values(type_name, lam, dim):
    """The vector representation of so(8), the two smallest of F4 and the
    adjoint and minuscule representations of E6 in this node labelling."""
    assert weyl_dim(RootSystem.from_type(type_name), lam) == dim


@pytest.mark.parametrize(
    "type_name,lam", [("B3", (1, 1, 1)), ("C3", (2, 0, 1)), ("G2", (2, 1))],
)
def test_freudenthal_is_weyl_invariant(type_name, lam):
    """mult(s_i mu) = mult(mu) for every simple reflection, with s_i mu =
    mu - <mu, alpha_i^vee> alpha_i read from the Cartan matrix alone."""
    rs = RootSystem.from_type(type_name)
    ch = freudenthal_character(rs, lam)
    for mu, mult in ch.items():
        for i in range(rs.rank):
            image = tuple(m - mu[i] * row[i] for m, row in zip(mu, rs.cartan))
            assert ch.get(image) == mult, (mu, i)


def test_weyl_dim_values(a2):
    rs, _ = a2
    assert weyl_dim(rs, (1, 1)) == 8
    assert weyl_dim(rs, (2, 2)) == 27
    assert weyl_dim(rs, (1, 0)) == 3


def test_character_check(a1, a2):
    rs1, g1 = a1
    rep = character_check(rs1, (1,), 1, group=g1)
    assert rep.ok and rep.path_count == 2
    rs2, g2 = a2
    rep2 = character_check(rs2, (1, 1), 1, group=g2)
    assert rep2.ok and rep2.path_count == 8


def test_schubert_degree(a1, a2):
    rs1, g1 = a1
    for m in range(1, 6):
        assert schubert_degree(rs1, (m,), "1", g1) == m
    rs2, g2 = a2
    assert schubert_degree(rs2, (1, 1), "e", g2) == 1
    assert schubert_degree(rs2, (1, 1), "121", g2) == 6
    # cross-check against the Weyl degree formula d! prod <lam,b>/<rho,b>
    from math import factorial

    d = len(rs2.positive_roots)
    num = den = Fraction(1)
    for beta in rs2.positive_roots:
        num *= rs2.coroot_pairing((1, 1), beta)
        den *= rs2.coroot_pairing((1, 1), beta)  # rho = (1,1) here
    assert schubert_degree(rs2, (1, 1), "121", g2) == factorial(d) * num / den / 1


def test_schubert_degree_matches_volume_pipeline(a2):
    from math import factorial

    from chain_oracles import rational_structure, volume

    rs, group = a2
    ps = bonds(rs, (1, 1), group)
    r = ps.r
    total = Fraction(0)
    for chain in ps.maximal_chains():
        lat = lattice_LC_lambda(ps, chain)
        total += volume(rational_structure(ps, chain, lat))
    assert factorial(r) * total == schubert_degree(rs, (1, 1), "121", group, ps)


def test_cut_lattices_are_recognized_in_any_representation():
    """is_cut_lattice holds for the cut lattice over any denominator, and
    fails for its sublattice, its superlattice and other coordinates; the
    bond lattice is the cut lattice only on a chain whose bonds are all 1."""
    from stratval.monoids import LatticeQ, lattice_LC

    rs = RootSystem.from_type("B2")
    ps = bonds(rs, (1, 1), weyl_group(rs))
    for chain in ps.maximal_chains():
        cut = lattice_LC_lambda(ps, chain)
        tripled = [[3 * x for x in row] for row in cut.rows]
        assert is_cut_lattice(ps, chain, cut)
        assert is_cut_lattice(ps, chain, LatticeQ(chain, tripled, 3 * cut.den))
        assert not is_cut_lattice(ps, chain, LatticeQ(chain, tripled, cut.den))
        assert not is_cut_lattice(ps, chain, LatticeQ(chain, cut.rows, 2 * cut.den))
        assert not is_cut_lattice(ps, chain[::-1], cut)
        all_one = all(ps.bond[e] == 1 for e in zip(chain, chain[1:]))
        assert is_cut_lattice(ps, chain, lattice_LC(ps, chain)) == all_one


def test_per_chain_volume_is_bond_product(a2):
    from math import factorial

    from chain_oracles import rational_structure, volume

    rs, group = a2
    ps = bonds(rs, (1, 1), group)
    for chain in ps.maximal_chains():
        lat = lattice_LC_lambda(ps, chain)
        vol = volume(rational_structure(ps, chain, lat))
        prod = 1
        for k in range(len(chain) - 1):
            prod *= ps.bond[(chain[k], chain[k + 1])]
        assert factorial(ps.r) * vol == prod


def test_flag_indecomposables_are_degree_one(a2):
    """On the flag fan the indecomposable leaves are exactly the degree-1
    lattice points, checked through the generic monoid machinery."""
    from stratval.monoids import MonoidFan, indecomposables

    rs, group = a2
    ps = bonds(rs, (1, 1), group)
    for chain in ps.maximal_chains():
        degree_one = ls_lattice_points(ps, chain, 1)
        gens = [v for v in degree_one if not v.is_zero()]
        fan = MonoidFan(ps, {chain: gens})
        indec = indecomposables(fan, chain, 3)
        assert sorted(i.key() for i in indec) == sorted(g.key() for g in gens)


def test_empty_path(a2):
    rs, group = a2
    paths = enumerate_ls(rs, (1, 1), 0, group=group)
    assert len(paths) == 1
    assert paths[0].dirs == ()
    assert nu(paths[0]).is_zero()


def test_degree_zero_lists_no_chains(monkeypatch):
    """The one path of degree zero is found without the maximal chains, which
    D4 has millions of."""
    from stratval.poset import StratPoset

    monkeypatch.setattr(
        StratPoset, "maximal_chains",
        lambda self: pytest.fail("degree 0 listed the maximal chains"),
    )
    rep = character_check(RootSystem.from_type("D4"), (1, 1, 1, 1), 0)
    assert rep.ok and rep.paths == [LSPath((), ())]


def test_a3_full_flag():
    rs = RootSystem.from_type("A3")
    group = weyl_group(rs)
    rep = character_check(rs, (1, 1, 1), 1, group=group)
    assert rep.ok and rep.path_count == 64
    # full flag of SL4 in the regular embedding: degree 6! by the Weyl formula
    assert schubert_degree(rs, (1, 1, 1), group.w0.id, group) == 720


def test_character_check_bound():
    import stratval.weyl as wy

    rs = RootSystem.from_type("A2")
    old = wy.CHARACTER_DIM_BOUND
    wy.CHARACTER_DIM_BOUND = 10
    try:
        with pytest.raises(BoundError):
            character_check(rs, (2, 2), 3)
    finally:
        wy.CHARACTER_DIM_BOUND = old


def test_sl3b_degree_one_leaves_are_the_ls_lattice_points(a2):
    """End-to-end: the quasi-valuation leaves of the linear functions on the
    adjoint flag variety are exactly the degree-one cut-lattice points, with
    the two fractional leaves realized on the zero-weight plane."""
    from stratval.laurent import parse_laurent
    from stratval.valuation import quasi_valuation
    from stratval.workspace import bundled, load_workspace

    rs, group = a2
    ps = bonds(rs, (1, 1), group)
    slice_one = set()
    for chain in ps.maximal_chains():
        slice_one.update(ls_lattice_points(ps, chain, 1))
    assert len(slice_one) == 8

    ws = load_workspace(bundled("sl3b"))
    atlas = ws.require_atlas()
    order = ws.order
    leaves = set()
    for expr in ["fe", "f1", "f2", "f12", "f21", "f121", "h1", "h2",
                 "h1 + h2", "h1 - h2", "2*h1 + h2"]:
        leaves.add(quasi_valuation(parse_laurent(expr), atlas, ws.ps, order))
    assert leaves == slice_one
    half_21 = AVector({"21": Fraction(1, 2), "1": Fraction(1, 2)})
    half_12 = AVector({"12": Fraction(1, 2), "2": Fraction(1, 2)})
    assert quasi_valuation(parse_laurent("h2"), atlas, ws.ps, order) == half_21
    assert quasi_valuation(parse_laurent("h1"), atlas, ws.ps, order) == half_12


@pytest.mark.parametrize(
    "type_name,lam,degrees",
    [("A2", (1, 1), (0, 1, 2, 3)), ("A2", (2, 1), (1, 2, 3)),
     ("B2", (1, 1), (0, 1, 2, 3)), ("B2", (1, 2), (1, 2, 3)),
     ("G2", (1, 1), (1, 2)), ("A3", (1, 1, 1), (1, 2))],
)
def test_walk_equals_chain_union(type_name, lam, degrees):
    rs = RootSystem.from_type(type_name)
    group = weyl_group(rs)
    for m in degrees:
        assert enumerate_ls(rs, lam, m, group=group) == enumerate_ls_by_chains(
            rs, lam, m, group
        ), m


@pytest.mark.parametrize(
    "type_name,lam",
    [("A2", (1, 1)), ("A2", (2, 3)), ("B2", (1, 1)), ("B2", (3, 2)),
     ("G2", (1, 1)), ("A3", (1, 1, 1)), ("A3", (2, 1, 3))],
)
def test_chain_gcds_do_not_depend_on_the_cover(type_name, lam):
    """Every cover tau' of tau above sigma gives g(sigma, tau) =
    gcd(b(tau, tau'), g(sigma, tau')), and the table lists exactly the
    elements strictly below each tau."""
    ps = bonds(RootSystem.from_type(type_name), lam)
    gcds = chain_gcds(ps)
    for tau in ps.ids:
        assert set(gcds[tau]) == ps.below(tau) - {tau}
        for low, b in ps.covers_of[tau]:
            assert gcds[tau][low] == b
            for sigma, g in gcds[low].items():
                assert gcds[tau][sigma] == gcd(b, g)


@lru_cache(maxsize=None)
def _ls_setup(type_name, lam):
    rs = RootSystem.from_type(type_name)
    group = weyl_group(rs)
    return rs, group, chain_gcds(bonds(rs, lam, group))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1)),
                     ("B2", (1, 3)), ("G2", (1, 1)), ("G2", (2, 1))]),
    st.lists(st.integers(0, 11), min_size=1, max_size=4),
    st.booleans(),
    st.lists(st.builds(Fraction, st.integers(0, 18), st.sampled_from([1, 2, 3, 4, 6])),
             min_size=3, max_size=3),
)
def test_validate_ls_agrees_with_the_bfs_oracle(case, picks, by_length, cuts):
    """Random directions, sorted by decreasing length or left as drawn, and
    random cuts: the gcd table decides as the BFS witness chain does."""
    type_name, lam = case
    rs, group, gcds = _ls_setup(type_name, lam)
    ids = [w.id for w in group.elements]
    dirs = [ids[i % len(ids)] for i in picks]
    if by_length:
        dirs = sorted(set(dirs), key=lambda d: -group.by_id[d].length)
    path = LSPath(tuple(dirs), tuple(cuts[: len(dirs) - 1]) + (Fraction(3),))
    want = validate_ls_by_bfs(path, group, rs, lam)
    assert validate_ls(path, group, rs, lam, gcds) == want
    assert validate_ls(path, group, rs, lam) == want


def test_enumerate_ls_lists_no_chains(monkeypatch):
    """The walk reads the gcd table, never the maximal chains."""
    from stratval.poset import StratPoset

    monkeypatch.setattr(
        StratPoset, "maximal_chains",
        lambda self: pytest.fail("enumerate_ls listed the maximal chains"),
    )
    rep = character_check(RootSystem.from_type("A3"), (1, 1, 1), 1)
    assert rep.ok and rep.path_count == 64


def test_d4_rho_character_check():
    """D4 has 3.5M maximal chains; the walk finds all 2^12 paths of rho."""
    rep = character_check(RootSystem.from_type("D4"), (1, 1, 1, 1), 1)
    assert rep.ok and rep.path_count == rep.dim == 4096


@pytest.mark.parametrize("type_name", ["A2", "B2", "G2", "A3", "B3"])
def test_integer_paths_agree_with_the_fraction_model(type_name):
    """The walk's integer order is the order of nu(path).key() on Fraction
    cuts, every path passes validate_ls, and the integer weights over the
    lcm of the bonds equal `weight` and the rational endpoint sum."""
    import stratval.weyl as wy

    rs = RootSystem.from_type(type_name)
    group = weyl_group(rs)
    lam = (1,) * rs.rank
    poset = bonds(rs, lam, group)
    gcds = chain_gcds(poset)
    den = lcm(*poset.bond.values())
    images = {w.id: w.act(lam) for w in group.elements}
    for m in (1, 2):
        paths = enumerate_ls(rs, lam, m, group=group, poset=poset)
        keys = [nu(p).key() for p in paths]   # distinct, so this is the order
        assert keys == sorted(keys)
        assert len(set(keys)) == len(paths) == weyl_dim(rs, (m,) * rs.rank)
        assert all(validate_ls(p, group, rs, lam, gcds) for p in paths)
        integer = wy._path_weights(paths, den, images, rs.rank)
        for path, w in zip(paths, integer):
            total = [Fraction(0)] * rs.rank
            prev = Fraction(0)
            for d, c in zip(path.dirs, path.cuts):
                total = [t + (c - prev) * x for t, x in zip(total, images[d])]
                prev = c
            assert weight(path, group, lam) == w == tuple(total)


@pytest.mark.parametrize(
    "type_name,lam",
    [("A2", (1, 1)), ("A2", (2, 2)), ("A2", (3, 0)), ("B2", (1, 1)), ("B2", (2, 2)),
     ("G2", (1, 1)), ("G2", (2, 2)), ("A3", (1, 1, 1)), ("A3", (2, 2, 2)),
     ("B3", (1, 1, 1)), ("B3", (2, 2, 2)), ("B3", (0, 0, 1)), ("C3", (1, 1, 1)),
     ("C3", (2, 0, 1)), ("A4", (1, 1, 1, 1)), ("D4", (1, 1, 1, 1)),
     ("F4", (0, 0, 0, 1)), ("E6", (1, 0, 0, 0, 0, 0)), ("A1", (0,))],
)
def test_dominant_freudenthal_equals_the_recursion_over_every_weight(type_name, lam):
    rs = RootSystem.from_type(type_name)
    assert freudenthal_character(rs, lam) == freudenthal_by_levels(rs, lam)


@lru_cache(maxsize=None)
def _rho_setup(type_name):
    rs = RootSystem.from_type(type_name)
    group = weyl_group(rs)
    lam = (1,) * rs.rank
    return rs, lam, group, bonds(rs, lam, group)


@pytest.mark.parametrize("type_name,degrees", [("A2", 3), ("B2", 3), ("A3", 2)])
def test_path_count_counts_the_paths_below_each_tau(type_name, degrees):
    """path_count(tau) is the number of listed paths whose first direction
    is at most tau; with no tau it counts them all."""
    rs, lam, group, ps = _rho_setup(type_name)
    for m in range(1, degrees + 1):
        paths = enumerate_ls(rs, lam, m, group=group, poset=ps)
        assert path_count(rs, lam, m, group=group, poset=ps) == len(paths)
        for tau in ps.ids:
            want = sum(1 for p in paths if ps.leq(p.dirs[0], tau))
            assert path_count(rs, lam, m, tau, group=group, poset=ps) == want


@pytest.mark.parametrize("type_name", ["B3", "C3"])
def test_path_count_is_the_weyl_dimension(type_name):
    rs, lam, group, ps = _rho_setup(type_name)
    for m in range(5):
        want = weyl_dim(rs, tuple(m * x for x in lam))
        assert path_count(rs, lam, m, poset=ps) == want
    assert path_count(rs, lam, 4, poset=ps) == 5**9


def test_path_count_refusals_and_degree_zero():
    rs, lam, group, ps = _rho_setup("A2")
    assert path_count(rs, lam, 0, poset=ps) == 1
    assert path_count(rs, lam, 0, "12", poset=ps) == 1
    assert path_count(rs, lam, 2, "", poset=ps) == 1
    assert path_count(rs, lam, 2, "e", poset=ps) == 1
    with pytest.raises(SchemaError, match="nonnegative"):
        path_count(rs, lam, -1, poset=ps)
    with pytest.raises(SchemaError, match="unknown id"):
        path_count(rs, lam, 1, "33", poset=ps)
    with pytest.raises(ValidationFailure, match="regular dominant"):
        path_count(rs, (1, 0), 1)
