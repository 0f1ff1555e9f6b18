"""Integrity of the bundled data: files match their builders, every chart
parametrization actually lands inside its variety (ring relations map to
zero, or to high order past the documented truncation for the curve charts),
and the two data-only posets validate."""

import json
import os

import pytest

import datagen
from stratval.errors import read_json
from stratval.laurent import parse_laurent
from stratval.poset import StratPoset
from stratval.workspace import bundled, load_workspace

DATASETS = [
    "gr24", "sl3b", "pset_p2", "quadric", "elliptic1", "elliptic2",
    "torus_t2", "psl2",
]


def test_shipped_files_match_builders(tmp_path):
    datagen.write_all(str(tmp_path))
    for root, _, files in os.walk(tmp_path):
        for name in files:
            fresh = os.path.join(root, name)
            rel = os.path.relpath(fresh, tmp_path)
            shipped = os.path.join(bundled(""), rel)
            with open(fresh) as fh1, open(shipped) as fh2:
                assert json.load(fh1) == json.load(fh2), rel


@pytest.mark.parametrize("name", DATASETS)
def test_workspace_loads_and_validates(name):
    ws = load_workspace(bundled(name))
    assert ws.ps.validate().ok
    atlas = ws.require_atlas()
    assert set(atlas) == set(ws.ps.maximal_chains())


@pytest.mark.parametrize(
    "name", ["gr24", "sl3b", "pset_p2", "quadric", "torus_t2", "psl2"]
)
def test_exact_charts_kill_the_relations(name):
    ws = load_workspace(bundled(name))
    ring_doc = read_json(os.path.join(bundled(name), "ring.json"))
    for chart in ws.require_atlas().values():
        for rel in ring_doc["relations"]:
            image = parse_laurent(rel).substitute(chart.ambient_map)
            assert image.is_zero(), (name, chart.chain, rel)


@pytest.mark.parametrize("name", ["elliptic1", "elliptic2"])
def test_curve_charts_kill_the_relation_to_high_order(name):
    ws = load_workspace(bundled(name))
    for chart in ws.require_atlas().values():
        rel = parse_laurent("y^2*z - x^3 + x*z^2")
        image = rel.substitute(chart.ambient_map)
        var = chart.divisor_vars[0]
        assert image.is_zero() or image.min_exponent(var) >= datagen.SERIES_ORDER


def test_truncated_charts_refuse_orders_past_their_range():
    """A representative of the zero function maps to pure truncation residue;
    the order guard turns that into a structured refusal."""
    from stratval.errors import ChartError
    from stratval.valuation import quasi_valuation

    for name in ["elliptic1", "elliptic2"]:
        ws = load_workspace(bundled(name))
        with pytest.raises(ChartError):
            quasi_valuation(
                parse_laurent("y^2*z - x^3 + x*z^2"),
                ws.require_atlas(), ws.ps, ws.order,
            )


def test_branch_series_satisfy_their_equations():
    from stratval.laurent import LaurentPoly

    u = LaurentPoly.var("u")
    w = datagen.branch_z_over_y()
    resid = w - (u**3 - u * w * w)
    assert resid.min_exponent("u") >= datagen.SERIES_ORDER
    t = LaurentPoly.var("t")
    v = datagen.branch_x_over_z()
    resid2 = v - (t**4 * v * v * v - LaurentPoly.const(1))
    assert resid2.min_exponent("t") >= datagen.SERIES_ORDER


def test_compactification_posets():
    torus = StratPoset.load(os.path.join(bundled("torus_t2"), "stratification.json"))
    assert torus.validate().ok
    assert torus.r == 2
    assert len(torus.maximal_chains()) == 12
    psl2 = StratPoset.load(os.path.join(bundled("psl2"), "stratification.json"))
    assert psl2.validate().ok
    assert psl2.r == 3
    assert len(psl2.maximal_chains()) == 4


def test_torus_ring_counts_hexagon_points():
    """Ehrhart of the root hexagon: the binomial quotient has 3n^2+3n+1
    monomials per degree, matching inclusion-exclusion through Hodge type."""
    from stratval.geometry import default_lattices, hilbert_incl_excl

    ws = load_workspace(bundled("torus_t2"))
    ring = ws.require_ring()
    lattices = default_lattices(ws.ps)
    for n in range(4):
        expected = 3 * n * n + 3 * n + 1
        assert ring.hilbert(n) == expected
        assert hilbert_incl_excl(ws.ps, lattices, n) == expected


def test_psl2_chart_values_for_xt():
    """xt = (xt - yz) + yz: along the determinant divisor it matches the
    extremal leaf of the plane X4; on the rank-one cone it factors as z*y."""
    from stratval.avector import AVector
    from stratval.valuation import quasi_valuation, valuate_all

    ws = load_workspace(bundled("psl2"))
    per_chain = valuate_all(parse_laurent("x*t"), ws.require_atlas(), ws.ps)
    got = {c: tuple(r.D) for c, r in per_chain.items()}
    assert got[("X5", "X4", "X1", "X0")] == (0, 1, 0, 0)
    assert got[("X5", "X4", "X2", "X0")] == (0, 1, 0, 0)
    assert got[("X5", "X3", "X1", "X0")] == (0, 1, 0, 1)
    assert got[("X5", "X3", "X2", "X0")] == (0, 1, 0, 1)
    v = quasi_valuation(parse_laurent("x*t"), ws.require_atlas(), ws.ps, ws.order)
    assert v == AVector.unit("X4")


def test_psl2_is_hodge_with_degree_one():
    """P^3 has degree one; the weighted chain products sum to it."""
    from stratval.geometry import hodge_degree

    psl2 = StratPoset.load(os.path.join(bundled("psl2"), "stratification.json"))
    assert hodge_degree(psl2) == 1


def test_torus_compactification_degree():
    """The closure of the adjoint torus in P^6 has degree six: twelve chains
    with degree products 1*2*1."""
    from stratval.geometry import hodge_degree

    torus = StratPoset.load(os.path.join(bundled("torus_t2"), "stratification.json"))
    assert hodge_degree(torus) == 6
