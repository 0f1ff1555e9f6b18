import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stratval
from stratval.cli import main
from stratval.workspace import bundled


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", "-w", bundled("gr24"))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["r"] == 4 and doc["charts"] == 2


def test_validate_failure_exit_code(tmp_path, capsys):
    # ungraded poset: exit code 1
    doc = {
        "elements": [
            {"id": p, "fdeg": 1} for p in ["t", "l", "r1", "r2", "b"]
        ],
        "covers": [
            {"upper": "t", "lower": "l", "bond": 1},
            {"upper": "t", "lower": "r1", "bond": 1},
            {"upper": "r1", "lower": "r2", "bond": 1},
            {"upper": "l", "lower": "b", "bond": 1},
            {"upper": "r2", "lower": "b", "bond": 1},
        ],
    }
    (tmp_path / "stratification.json").write_text(json.dumps(doc))
    code, out = run(capsys, "validate", "-w", str(tmp_path))
    assert code == 1
    assert not json.loads(out)["ok"]


def test_schema_error_exit_code(tmp_path, capsys):
    (tmp_path / "stratification.json").write_text("{not json")
    code, _ = run(capsys, "validate", "-w", str(tmp_path))
    assert code == 2
    code, _ = run(capsys, "validate", "-w", str(tmp_path / "missing"))
    assert code == 2


def test_hasse(capsys, tmp_path):
    code, out = run(capsys, "hasse", "-w", bundled("gr24"))
    assert code == 0
    assert out.count("->") == 6
    target = tmp_path / "g.dot"
    code, _ = run(capsys, "hasse", "-w", bundled("sl3b"), "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert text.count('label="2"') == 2


def test_degree_gr24(capsys):
    code, out = run(capsys, "degree", "-w", bundled("gr24"))
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == "2"
    assert doc["hodge_degree"] == "2"


def test_degree_elliptic2(capsys):
    code, out = run(capsys, "degree", "-w", bundled("elliptic2"))
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == "3"
    assert sorted(row["r_factorial_vol"] for row in doc["per_chain"]) == ["1", "2"]


def test_hilbert_csv(capsys):
    code, out = run(capsys, "hilbert", "-w", bundled("gr24"), "--max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# stratval-csv/1"
    assert lines[1] == "n,incl_excl,stanley_reisner,ring"
    assert lines[2:] == [
        "0,1,1,1",
        "1,6,6,6",
        "2,20,20,20",
        "3,50,50,50",
        "4,105,105,105",
        "5,196,196,196",
    ]


def test_valuate_x14(capsys):
    code, out = run(capsys, "valuate", "-w", bundled("gr24"), "--poly", "x14")
    assert code == 0
    doc = json.loads(out)
    by_chain = {tuple(r["chain"]): r["value_top_down"] for r in doc["per_chain"]}
    assert by_chain[("34", "24", "23", "13", "12")] == ["0", "1", "-1", "1", "0"]
    assert doc["quasi_valuation"] == {"14": "1"}
    assert doc["support"] == ["14"]
    assert doc["attaining"] == [["34", "24", "14", "13", "12"]]


def test_valuate_zero_function_fails(capsys):
    code, _ = run(
        capsys, "valuate", "-w", bundled("gr24"),
        "--poly", "x12*x34 + x23*x14 - x13*x24",
    )
    assert code == 1


def test_zero_denominator_in_a_coefficient_is_a_schema_error(capsys):
    code = main(["valuate", "-w", bundled("gr24"), "--poly", "1/0*x14"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "schema error: zero denominator in coefficient '1/0' of '1/0*x14'\n"
    )


def test_subduct(capsys):
    code, out = run(capsys, "subduct", "-w", bundled("gr24"), "--poly", "x14*x23")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [
        {"coefficient": "1", "factors": [{"24": "1"}, {"13": "1"}]},
        {"coefficient": "-1", "factors": [{"34": "1"}, {"12": "1"}]},
    ]


def test_lspaths(capsys):
    code, out = run(
        capsys, "lspaths", "--type", "A2", "--lambda", "1,1", "--degree", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 8 and doc["dim"] == 8 and doc["character_ok"]
    assert doc["schubert_degree"] == {"tau": "121", "value": 6}


def test_lspaths_enumerates_paths_once(capsys, monkeypatch):
    import stratval.weyl as weyl

    calls = []
    enumerate_ls = weyl.enumerate_ls

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_ls(*args, **kwargs)

    monkeypatch.setattr(weyl, "enumerate_ls", counting)
    code, out = run(
        capsys, "lspaths", "--type", "B2", "--lambda", "1,1", "--degree", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(calls) == 1
    assert doc["count"] == doc["dim"] == len(doc["paths"])


@pytest.mark.parametrize("degree", ["1", "3"])
def test_closed_stdout_exits_1_without_traceback(degree):
    # degree 1 fits the stdout buffer and fails at the flush, degree 3
    # (about 40 kB) inside the write
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(stratval.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stratval.cli", "lspaths", "--type", "B2",
             "--lambda", "1,1", "--degree", degree],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()
    assert proc.returncode == 1


def test_lspaths_tau(capsys):
    code, out = run(
        capsys, "lspaths", "--type", "A1", "--lambda", "4", "--degree", "1",
        "--tau", "1",
    )
    assert code == 0
    assert json.loads(out)["schubert_degree"]["value"] == 4


def test_lspaths_bad_weight(capsys):
    code, _ = run(capsys, "lspaths", "--type", "A2", "--lambda", "1,x")
    assert code == 2
    code, _ = run(capsys, "lspaths", "--type", "A2", "--lambda", "1,0")
    assert code == 1


@pytest.mark.parametrize("degree", ["-1", "-100"])
def test_lspaths_negative_degree_is_a_schema_error(capsys, degree):
    # B2 has four positive roots: at -100 the Weyl dimension is positive and
    # above the character bound, so the refusal must come first
    code, _ = run(
        capsys, "lspaths", "--type", "B2", "--lambda", "1,1", "--degree", degree
    )
    assert code == 2


def test_generic(capsys, tmp_path):
    code, out = run(
        capsys, "generic", "--s", "3", "--r", "2", "--out", str(tmp_path / "g")
    )
    assert code == 0
    code, out = run(capsys, "degree", "-w", str(tmp_path / "g"))
    assert code == 0
    assert json.loads(out)["degree"] == "3"


def test_determinism(capsys):
    _, out1 = run(capsys, "valuate", "-w", bundled("gr24"), "--poly", "x14*x23")
    _, out2 = run(capsys, "valuate", "-w", bundled("gr24"), "--poly", "x14*x23")
    assert out1 == out2
    _, d1 = run(capsys, "degree", "-w", bundled("sl3b"))
    _, d2 = run(capsys, "degree", "-w", bundled("sl3b"))
    assert d1 == d2


def _corrupted_copy(tmp_path, name, rel, mutate):
    """A copy of a bundled set with one JSON document edited in place."""
    root = tmp_path / name
    shutil.copytree(bundled(name), root)
    path = root / rel
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return str(root)


INTEGER_FIELDS = {
    "fdeg": ("gr24", "stratification.json",
             lambda d, v: d["elements"][0].update(fdeg=v)),
    "bond": ("gr24", "stratification.json",
             lambda d, v: d["covers"][0].update(bond=v)),
    "ring_degree": ("gr24", "ring.json", lambda d, v: d["vars"][0].update(degree=v)),
    "order_limits": ("elliptic1", "charts/chain_X1_X0.json",
                     lambda d, v: d["order_limits"].update(u=v)),
}
# int() accepts all but the first, reading 1, 1 and 2
NON_INTEGERS = {"": "x", "-float": 1.5, "-bool": True, "-string": "2"}


@pytest.mark.parametrize(
    "field,value",
    [(f, v) for f in INTEGER_FIELDS for v in NON_INTEGERS.values()],
    ids=[f + suffix for f in INTEGER_FIELDS for suffix in NON_INTEGERS],
)
def test_non_integer_field_is_a_schema_error(tmp_path, capsys, field, value):
    name, rel, set_field = INTEGER_FIELDS[field]
    ws = _corrupted_copy(tmp_path, name, rel, lambda d: set_field(d, value))
    code = main(["validate", "-w", ws])
    assert code == 2
    assert capsys.readouterr().err.startswith("schema error:")


MALFORMED_GR24 = {
    "relation-names-an-unknown-variable": (
        "ring.json", lambda d: d.update(relations=["x12*x34 + x23*q - x13*x24"]),
    ),
    "var-name-an-object": ("ring.json", lambda d: d["vars"][0].update(name={"x": 1})),
    "var-name-a-number": ("ring.json", lambda d: d["vars"][0].update(name=12)),
    "chart-chain-entry-an-object": (
        "charts/chain_14.json", lambda d: d["chain"].__setitem__(0, {"id": "34"}),
    ),
    "chart-extra-vars-entry-an-object": (
        "charts/chain_14.json", lambda d: d["extra_vars"].append({"v": 1}),
    ),
    "cover-lower-an-object": (
        "stratification.json", lambda d: d["covers"][0].update(lower={"id": "12"}),
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GR24))
def test_malformed_gr24_is_a_one_line_schema_error(tmp_path, capsys, case):
    rel, mutate = MALFORMED_GR24[case]
    ws = _corrupted_copy(tmp_path, "gr24", rel, mutate)
    code = main(["validate", "-w", ws])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("schema error:") and err.count("\n") == 1


def test_hilbert_negative_max_is_a_schema_error(capsys):
    code = main(["hilbert", "-w", bundled("gr24"), "--max", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("schema error:")


# posets that `validate` refuses, with the failure it names
INVALID_POSETS = {
    "ungraded": (
        ["t", "a", "b", "c"], [("t", "a"), ("a", "b"), ("t", "c")],
        "not graded: chain lengths [1, 2], witness t>c",
    ),
    "two-maximal": (
        ["a", "b", "c"], [("a", "c"), ("b", "c")],
        "expected a unique maximal element, found ['a', 'b']",
    ),
}


@pytest.mark.parametrize("case", INVALID_POSETS)
def test_hilbert_refuses_a_poset_that_degree_refuses(tmp_path, capsys, case):
    ids, covers, failure = INVALID_POSETS[case]
    doc = {
        "elements": [{"id": p, "fdeg": 1} for p in ids],
        "covers": [{"upper": u, "lower": l, "bond": 1} for u, l in covers],
    }
    (tmp_path / "stratification.json").write_text(json.dumps(doc))
    for argv in (["degree"], ["hilbert", "--max", "2"]):
        code = main([argv[0], "-w", str(tmp_path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", argv
        assert captured.err == f"error: {failure}\n", argv


@pytest.mark.parametrize("command", ["valuate", "subduct"])
def test_invalid_poset_with_charts_is_refused_for_its_failure(
    tmp_path, capsys, command
):
    """The charts of a poset that fails validation are not loaded, and the
    refusal names the failure, not a missing charts/ directory."""
    root = _corrupted_copy(
        tmp_path, "gr24", "stratification.json",
        lambda d: d["elements"].append({"id": "zz", "fdeg": 1}),
    )
    code = main([command, "-w", root, "--poly", "x14"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: expected a unique maximal element")
    assert captured.err.count("\n") == 1


WRONG_SHAPES = {
    "config-not-an-object": ("config.json", "valuate", lambda doc: ["34"]),
    "total-order-not-a-list": ("config.json", "valuate", lambda doc: {"total_order": 5}),
    "representative-without-value": (
        "ring.json", "subduct",
        lambda doc: {**doc, "representatives": [{"expr": "x12"}]},
    ),
    "representatives-not-a-list": (
        "ring.json", "subduct", lambda doc: {**doc, "representatives": 5},
    ),
    "representative-value-not-an-object": (
        "ring.json", "subduct",
        lambda doc: {**doc, "representatives": [{"value": 5, "expr": "x12"}]},
    ),
    "chart-not-an-object": ("charts/chain_14.json", "valuate", lambda doc: [doc]),
    "chart-f_exprs-not-an-object": (
        "charts/chain_14.json", "valuate", lambda doc: {**doc, "f_exprs": ["x"]},
    ),
    "chart-f_exprs-entry-an-empty-list": (
        "charts/chain_14.json", "valuate",
        lambda doc: {**doc, "f_exprs": {**doc["f_exprs"], "14": []}},
    ),
    "chart-f_exprs-entry-a-list": (
        "charts/chain_14.json", "valuate",
        lambda doc: {**doc, "f_exprs": {**doc["f_exprs"], "14": ["x14"]}},
    ),
    "chart-ambient_map-not-an-object": (
        "charts/chain_14.json", "valuate", lambda doc: {**doc, "ambient_map": "a"},
    ),
    "chart-order_limits-not-an-object": (
        "charts/chain_14.json", "valuate", lambda doc: {**doc, "order_limits": [1]},
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_workspace_document_of_the_wrong_shape_is_a_schema_error(tmp_path, capsys, case):
    rel, command, reshape = WRONG_SHAPES[case]
    root = tmp_path / "gr24"
    shutil.copytree(bundled("gr24"), root)
    path = root / rel
    doc = json.loads(path.read_text()) if path.exists() else {}
    path.write_text(json.dumps(reshape(doc)))
    code = main([command, "-w", str(root), "--poly", "x14"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("schema error:") and err.count("\n") == 1


UNREADABLE = {
    "not-utf8": lambda path: path.write_bytes('{"note": "caf\xe9"}'.encode("latin-1")),
    "directory": lambda path: path.mkdir(),
}


@pytest.mark.parametrize("rel", [
    "stratification.json", "ring.json", "config.json", "charts/chain_14.json",
])
@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_unreadable_document_is_a_schema_error(tmp_path, capsys, rel, kind):
    root = tmp_path / "gr24"
    shutil.copytree(bundled("gr24"), root)
    path = root / rel
    if path.exists():
        path.unlink()
    UNREADABLE[kind](path)
    code = main(["degree", "-w", str(root)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("schema error:") and err.count("\n") == 1
    assert rel.split("/")[-1] in err


def test_ring_json_is_read_once(monkeypatch):
    from stratval import workspace

    reads = []
    read_json = workspace.read_json

    def counting(path):
        reads.append(os.path.basename(path))
        return read_json(path)

    monkeypatch.setattr(workspace, "read_json", counting)
    ws = workspace.load_workspace(bundled("gr24"))
    assert reads.count("ring.json") == 1
    assert ws.ring is not None and ws.representative_entries


@pytest.mark.parametrize("argv", [
    ["hasse", "-w", bundled("gr24"), "--out", "{tmp}/missing/g.dot"],
    ["generic", "--s", "3", "--r", "2", "--out", "{tmp}/file/model"],
])
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("a file, not a directory\n")
    code = main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_one_process_runs_commands_as_fresh_processes_do(tmp_path, capsys):
    """The parser is built once per process; successive `main` calls with
    other subcommands and defaults print what fresh processes print, and
    usage errors still exit 2."""
    from stratval.cli import build_parser

    assert build_parser() is build_parser()
    gr24 = bundled("gr24")
    argvs = [
        ["hilbert", "-w", gr24, "--max", "2"],
        ["lspaths", "--type", "A2", "--lambda", "1,1", "--tau", "12"],
        ["hilbert", "-w", gr24],
        ["lspaths", "--type", "B2", "--lambda", "1,1", "--degree", "2"],
        ["lspaths", "--type", "A2", "--lambda", "1,1"],
        ["validate", "-w", gr24],
    ]
    src = str(Path(stratval.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for argv in argvs:
        fresh = subprocess.run(
            [sys.executable, "-m", "stratval.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        code, out = run(capsys, *argv)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        for bad in (["lspaths", "--type", "A2"], ["no-such-command"], []):
            with pytest.raises(SystemExit) as exit_info:
                main(bad)
            assert exit_info.value.code == 2
            assert "usage: stratval" in capsys.readouterr().err
