"""Acceptance gate: each test implements one numbered criterion at its stated
tolerance (everything here is exact) and prints a pass line on success."""

import json
import time
from fractions import Fraction
from math import factorial

from stratval.avector import AVector
from stratval.laurent import LaurentPoly, parse_laurent
from stratval.monoids import hodge_fan
from stratval.poset import generic_model
from stratval.valuation import quasi_valuation
from stratval.workspace import bundled, load_workspace

def _torus_extremal(p: str) -> str:
    if p == "X":
        return "x0"
    if p.startswith("l_"):
        _, u, v = p.split("_")
        return f"x{u}*x{v}"
    return "x" + p[2:]


EXTREMAL_EXPRS = {
    "gr24": lambda p: "x" + p,
    "sl3b": lambda p: {"e": "fe"}.get(p, "f" + p),
    "pset_p2": lambda p: "*".join("x" + c for c in p),
    "quadric": lambda p: {"X3": "t", "X1": "z", "X2": "y", "X0": "x"}[p],
    "elliptic1": lambda p: {"X1": "z", "X0": "y"}[p],
    "elliptic2": lambda p: {"X1": "x", "P01": "y", "P02": "z"}[p],
    "torus_t2": _torus_extremal,
    "psl2": lambda p: {
        "X5": "z*x*t - y*z^2", "X4": "x*t - y*z",
        "X3": "z", "X2": "x", "X1": "t", "X0": "y",
    }[p],
}

EXAMPLE_53_CHAIN = ("34", "24", "23", "13", "12")
EXAMPLE_65_TABLE = {
    "x34": ["1", "0", "0", "0", "0"],
    "x24": ["0", "1", "0", "0", "0"],
    "x23": ["0", "0", "1", "0", "0"],
    "x14": ["0", "1", "-1", "1", "0"],
    "x13": ["0", "0", "0", "1", "0"],
    "x12": ["0", "0", "0", "0", "1"],
}


def test_criterion_1_gr24_valuation_table(capsys):
    from stratval.cli import main

    start = time.monotonic()
    for name, expected in EXAMPLE_65_TABLE.items():
        assert main(["valuate", "-w", bundled("gr24"), "--poly", name]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = {tuple(r["chain"]): r["value_top_down"] for r in doc["per_chain"]}
        assert rows[EXAMPLE_53_CHAIN] == expected, name
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"valuation table took {elapsed:.2f}s"
    with capsys.disabled():
        print(f"\nPASS criterion 1: Gr(2,4) valuation table, all six rows exact "
              f"({elapsed:.2f}s)")


def test_criterion_2_extremal_function_law(capsys):
    checked = 0
    for ws_name, expr_of in EXTREMAL_EXPRS.items():
        ws = load_workspace(bundled(ws_name))
        order = ws.order
        for p in ws.ps.ids:
            g = parse_laurent(expr_of(p))
            got = quasi_valuation(g, ws.require_atlas(), ws.ps, order)
            assert got == AVector.unit(p), (ws_name, p, got)
            checked += 1
    with capsys.disabled():
        print(f"PASS criterion 2: quasi-valuation of every extremal function is "
              f"its unit vector ({checked} functions, "
              f"{len(EXTREMAL_EXPRS)} data sets)")


def test_criterion_3_gr24_hilbert_agreement(capsys):
    from stratval.geometry import default_lattices, hilbert_incl_excl, sr_hilbert

    start = time.monotonic()
    ws = load_workspace(bundled("gr24"))
    lattices = default_lattices(ws.ps)
    expected = [1, 6, 20, 50, 105, 196]
    for m in range(6):
        ie = hilbert_incl_excl(ws.ps, lattices, m)
        sr = sr_hilbert(ws.ps, m)
        ring = ws.require_ring().hilbert(m)
        assert ie == sr == ring == expected[m], m
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"hilbert agreement took {elapsed:.2f}s"
    with capsys.disabled():
        print(f"PASS criterion 3: Gr(2,4) Hilbert functions agree, values "
              f"{expected} ({elapsed:.2f}s)")


def test_criterion_4_degree_formula(capsys):
    from stratval.geometry import default_lattices, degree

    ws = load_workspace(bundled("gr24"))
    assert degree(ws.ps, default_lattices(ws.ps)) == 2
    pset = load_workspace(bundled("pset_p2"))
    assert degree(pset.ps, default_lattices(pset.ps)) == 1
    quad = load_workspace(bundled("quadric"))
    assert degree(quad.ps, default_lattices(quad.ps)) == 2
    for s in (2, 3, 4, 5):
        for r in (2, 3):
            ps = generic_model(s, r)
            assert degree(ps, default_lattices(ps)) == s, (s, r)
    with capsys.disabled():
        print("PASS criterion 4: degrees Gr(2,4)=2, power-set P2=1, quadric=2, "
              "generic(s,r)=s for s=2..5, r=2,3")


def test_criterion_5_elliptic_curve(capsys):
    from chain_oracles import rational_structure, volume
    from stratval.geometry import default_lattices, degree, no_complex
    from stratval.monoids import lattice_LC

    e1 = load_workspace(bundled("elliptic1"))
    v = quasi_valuation(
        parse_laurent("x"), e1.require_atlas(), e1.ps, e1.order
    )
    assert v == AVector({"X1": Fraction(1, 3), "X0": Fraction(2, 3)})
    e2 = load_workspace(bundled("elliptic2"))
    per_chain = sorted(
        factorial(1) * volume(rational_structure(e2.ps, c, lattice_LC(e2.ps, c)))
        for c in e2.ps.maximal_chains()
    )
    assert per_chain == [1, 2]
    assert degree(e2.ps, default_lattices(e2.ps)) == 3
    simplices = no_complex(e2.ps)
    assert len(simplices) == 2
    assert set(simplices[0].chain) & set(simplices[1].chain) == {"X1"}
    with capsys.disabled():
        print("PASS criterion 5: elliptic V(x)=(1/3,2/3); second stratification "
              "degree 3=1+2 with a two-segment complex")


def test_criterion_6_sl3b(capsys):
    from datagen import sl3b_poset
    from stratval.weyl import RootSystem, bonds, schubert_degree, weyl_group

    rs = RootSystem.from_type("A2")
    group = weyl_group(rs)
    computed = bonds(rs, (1, 1), group)
    shipped = sl3b_poset()
    assert computed.bond == shipped.bond
    doubled_edges = sorted(e for e, b in computed.bond.items() if b == 2)
    assert doubled_edges == [("12", "2"), ("21", "1")]
    per_chain = []
    for chain in computed.maximal_chains():
        prod = 1
        for k in range(len(chain) - 1):
            prod *= computed.bond[(chain[k], chain[k + 1])]
        per_chain.append(prod)
    assert sorted(per_chain) == [1, 1, 2, 2]
    got = schubert_degree(rs, (1, 1), "121", group, computed)
    assert got == sum(per_chain) == 6
    # independent oracle: d! * prod <lam, beta^vee> / <rho, beta^vee>
    rho = (1, 1)
    num = den = Fraction(1)
    for beta in rs.positive_roots:
        num *= rs.coroot_pairing((1, 1), beta)
        den *= rs.coroot_pairing(rho, beta)
    weyl_degree = factorial(len(rs.positive_roots)) * num / den
    assert got == weyl_degree
    with capsys.disabled():
        print("PASS criterion 6: SL3/B bonds match the Pieri-Chevalley diagram; "
              "Schubert degree 6 = 2+1+2+1 = Weyl formula")


def test_criterion_7_ls_paths_and_characters(capsys):
    from stratval.weyl import RootSystem, character_check, weyl_dim, weyl_group

    start = time.monotonic()
    checked = []
    a1 = RootSystem.from_type("A1")
    g1 = weyl_group(a1)
    for m in range(1, 6):
        for deg in (1, 2, 3):
            rep = character_check(a1, (m,), deg, group=g1)
            assert rep.ok, (m, deg, rep.discrepancies)
            assert rep.path_count == weyl_dim(a1, (deg * m,))
            checked.append(("A1", m, deg))
    a2 = RootSystem.from_type("A2")
    g2 = weyl_group(a2)
    for lam in [(1, 1), (2, 2)]:
        for deg in (1, 2, 3):
            rep = character_check(a2, lam, deg, group=g2)
            assert rep.ok, (lam, deg, rep.discrepancies)
            checked.append(("A2", lam, deg))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"LS-path checks took {elapsed:.2f}s"
    with capsys.disabled():
        print(f"PASS criterion 7: LS-path counts and weight multisets match the "
              f"Freudenthal oracle in {len(checked)} cases ({elapsed:.2f}s)")


def test_criterion_8_subduction(capsys):
    from stratval.smt import subduction

    ws = load_workspace(bundled("gr24"))
    atlas = ws.require_atlas()
    ring = ws.require_ring()
    order = ws.order
    fan = hodge_fan(ws.ps)
    reps = ws.representatives()
    res = subduction(parse_laurent("x14*x23"), ring, atlas, fan, ws.ps, order, reps)
    got = [(c, [sorted(f.support())[0] for f in m.factors]) for c, m in res.terms]
    # top-down standard order: x24*x13 - x34*x12, i.e. x13*x24 - x12*x34
    assert got == [(1, ["24", "13"]), (-1, ["34", "12"])]
    acc = LaurentPoly.zero()
    for c, mono in res.terms:
        acc = acc + reps.product(mono.factors).scale(c)
    assert ring.is_zero_in_quotient(parse_laurent("x14*x23") - acc)
    with capsys.disabled():
        print("PASS criterion 8: x14*x23 subduces to x13*x24 - x12*x34 and "
              "re-expands to the input")


def test_criterion_9_property_suites(capsys):
    from tests import test_properties as props

    suites = [
        props.test_chain_multiplicativity,
        props.test_chain_min_law,
        props.test_superadditivity_and_intersection_criterion,
        props.test_support_law,
        props.test_positivity,
        props.test_lattice_membership,
        props.test_homogeneous_part_minimum,
        props.test_degree_law,
    ]
    ran = 0
    for name in props.WORKSPACES:
        ws = load_workspace(bundled(name))
        for suite in suites:
            suite(ws)
            ran += 1
    with capsys.disabled():
        print(f"PASS criterion 9: {len(suites)} valuation laws x "
              f"{len(props.WORKSPACES)} chart sets, >=110 randomized cases each, "
              "zero failures")


def test_criterion_10_standard_monomial_basis(capsys):
    from tests.test_smt import _rank, _stratum_ring

    from stratval.smt import standard_monomials, standard_on_stratum

    ws = load_workspace(bundled("gr24"))
    ring = ws.require_ring()
    fan = hodge_fan(ws.ps)
    for m in range(5):
        assert len(standard_monomials(ws.ps, fan, m)) == ring.hilbert(m), m
    reps_table = {p: parse_laurent("x" + p) for p in ws.ps.ids}
    for p in ws.ps.ids:
        stratum = _stratum_ring(ws.ps, p)
        for m in (1, 2):
            monos = standard_monomials(ws.ps, fan, m)
            on_p = [mo for mo in monos if standard_on_stratum(mo, p, ws.ps)]
            vectors = []
            for mo in monos:
                poly = LaurentPoly.const(1)
                for f in mo.factors:
                    (q,) = f.support()
                    poly = poly * reps_table[q]
                if standard_on_stratum(mo, p, ws.ps):
                    nf = stratum.normal_form(poly, m)
                    assert nf, (p, m)
                    vectors.append(nf)
                else:
                    assert stratum.is_zero_in_quotient(poly), (p, m)
            assert len(on_p) == stratum.hilbert(m) == _rank(vectors), (p, m)
    with capsys.disabled():
        print("PASS criterion 10: standard monomial counts match the ring oracle "
              "for m<=4 and the per-stratum restriction dichotomy holds")
