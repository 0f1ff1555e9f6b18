import json

import pytest

from stratval.avector import AVector
from stratval.errors import SchemaError, ValidationFailure
from stratval.geometry import complex_to_json
from stratval.laurent import parse_laurent
from stratval.valuation import quasi_valuation
from stratval.workspace import bundled, load_workspace


def test_bundled_workspaces_load():
    for name in ["gr24", "sl3b", "pset_p2", "quadric", "elliptic1", "elliptic2"]:
        ws = load_workspace(bundled(name))
        assert ws.ps.validate().ok
        assert ws.order is not None


def test_missing_workspace():
    with pytest.raises(SchemaError):
        load_workspace("/nonexistent/place")


def test_config_total_order_override(tmp_path, gr24):
    import shutil

    src = bundled("gr24")
    shutil.copytree(src, tmp_path / "gr24")
    # swap the tie between (1,4) and (2,3): still length-compatible
    order = ["34", "24", "23", "14", "13", "12"]
    (tmp_path / "gr24" / "config.json").write_text(
        json.dumps({"total_order": order})
    )
    ws = load_workspace(str(tmp_path / "gr24"))
    assert list(ws.order) == order
    # the quasi-valuation of an extremal function is order-independent
    v = quasi_valuation(parse_laurent("x14"), ws.require_atlas(), ws.ps, ws.order)
    assert v == AVector.unit("14")


def test_config_rejects_bad_order(tmp_path):
    import shutil

    shutil.copytree(bundled("gr24"), tmp_path / "gr24")
    (tmp_path / "gr24" / "config.json").write_text(
        json.dumps({"total_order": ["12", "34", "24", "14", "23", "13"]})
    )
    ws = load_workspace(str(tmp_path / "gr24"))
    with pytest.raises(ValidationFailure):
        ws.order


def test_complex_json(gr24):
    doc = complex_to_json(gr24)
    assert len(doc["vertices"]) == 6
    assert doc["maximal_faces"] == [list(c) for c in gr24.maximal_chains()]


def test_straightening_json(gr24, gr24_atlas, gr24_ring):
    from stratval.monoids import hodge_fan
    from stratval.smt import Representatives, straighten

    order = gr24.default_total_order()
    fan = hodge_fan(gr24)
    with open(bundled("gr24") + "/ring.json") as fh:
        reps = Representatives.from_json(
            json.load(fh)["representatives"], gr24_atlas, gr24, order
        )
    st = straighten(
        AVector.unit("14"), AVector.unit("23"),
        gr24_ring, gr24_atlas, fan, gr24, order, reps,
    )
    doc = st.to_json()
    assert doc["leading_ok"] and not doc["annihilated"]
    assert len(doc["right"]) == 2


def test_extended_bottom_in_dot():
    from stratval.poset import generic_model

    dot = generic_model(3, 2).hasse_dot()
    assert dot.count("p_minus_1") == 1 + 3
    assert dot.count('label="2"') == 3  # bottom degrees s-1 = 2


def test_load_atlas_parses_each_expression_once(monkeypatch):
    """torus_t2's twelve charts hold 240 expression strings, 13 of them
    distinct: one atlas load parses each distinct string once, and its
    charts equal those loaded file by file."""
    import os

    import stratval.charts as charts
    from stratval.errors import read_json
    from stratval.poset import StratPoset

    root = bundled("torus_t2")
    ps = StratPoset.load(os.path.join(root, "stratification.json"))
    chart_dir = os.path.join(root, "charts")
    docs = [
        read_json(os.path.join(chart_dir, name))
        for name in sorted(os.listdir(chart_dir))
    ]
    texts = [
        text for doc in docs for key in ("f_exprs", "ambient_map")
        for text in doc[key].values()
    ]
    assert (len(texts), len(set(texts))) == (240, 13)
    by_file = [charts.ChainChart.from_json(doc).to_json() for doc in docs]
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_laurent(text)

    monkeypatch.setattr(charts, "parse_laurent", counting_parse)
    atlas = charts.load_atlas(chart_dir, ps)
    assert sorted(calls) == sorted(set(texts))
    assert [chart.to_json() for chart in atlas.values()] == by_file
    calls.clear()
    charts.load_atlas(chart_dir, ps)
    assert len(calls) == 13   # the memo lives for one call only


@pytest.mark.parametrize("entry", [["x14"], {"x": 1}, 5, None])
def test_load_atlas_refuses_a_non_string_expression_as_the_parser_does(
    tmp_path, gr24, entry
):
    import shutil

    from stratval.charts import load_atlas

    root = tmp_path / "charts"
    shutil.copytree(bundled("gr24") + "/charts", root)
    path = root / "chain_14.json"
    doc = json.loads(path.read_text())
    doc["f_exprs"]["14"] = entry
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as refused:
        load_atlas(str(root), gr24)
    with pytest.raises(SchemaError) as parser:
        parse_laurent(entry)
    assert str(refused.value) == str(parser.value)
