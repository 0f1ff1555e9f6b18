"""Tests of the benchmark itself: tracer self time, the oracles, the op
lists and BENCHMARK.json.

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import metrics
import run
import workloads
from tracer import Tracer
from stratval.avector import AVector
from stratval.laurent import LaurentPoly, parse_laurent
from stratval.smt import StdMonomial, SubductionResult

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------------ tracer --

@pytest.fixture
def fake_package():
    """Package `fakepkg` with layers `a` and `b` whose functions advance a
    fake clock by fixed amounts; `a` imports `inner` from `b` by name."""
    now = [0.0]
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    pkg = types.ModuleType("fakepkg")
    b.__dict__["now"] = now
    exec(
        "def helper():\n    now[0] += 2\n"
        "def inner():\n    now[0] += 3\n    helper()\n",
        b.__dict__,
    )
    a.__dict__.update(now=now, inner=b.inner)
    exec(
        "def same():\n    now[0] += 4\n"
        "def outer():\n    now[0] += 1\n    inner()\n    same()\n    now[0] += 1\n",
        a.__dict__,
    )
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    try:
        yield now, a, b
    finally:
        for name in mods:
            sys.modules.pop(name, None)


def test_self_time_on_a_nested_call(fake_package):
    now, a, b = fake_package
    original_inner = b.inner
    tracer = Tracer(clock=lambda: now[0])
    tracer.install(layers=("a", "b"), package="fakepkg")
    assert a.inner is not original_inner      # the by-name import is rebound
    tracer.enabled = True
    a.outer()
    tracer.uninstall()
    assert a.inner is original_inner and b.inner is original_inner
    # outer spans 11 ticks: 5 inside layer b, its same-layer call included
    assert tracer.stats("a.outer") == (1, 6.0)
    assert tracer.stats("a.same") == (1, 4.0)
    assert tracer.stats("b.inner") == (1, 5.0)
    assert tracer.stats("b.helper") == (1, 2.0)
    assert tracer.layer_self == {"a": 6.0, "b": 5.0}
    assert tracer.layer_calls == {"a": 2, "b": 2}
    names = [tracer.names[i] for i in tracer.span_name]
    parents = dict(zip(tracer.span_id, tracer.span_parent))
    ids = dict(zip(names, tracer.span_id))
    assert parents[ids["b.helper"]] == ids["b.inner"]
    assert parents[ids["b.inner"]] == ids["a.outer"]
    assert parents[ids["a.outer"]] == -1


def test_disabled_tracer_records_nothing(fake_package):
    now, a, _ = fake_package
    tracer = Tracer(clock=lambda: now[0])
    tracer.install(layers=("a", "b"), package="fakepkg")
    a.outer()
    tracer.uninstall()
    assert sum(tracer.calls) == 0 and len(tracer.span_id) == 0


def test_missing_function_is_reported_as_missing_not_zero():
    tracer = Tracer()
    tracer.register("laurent.LaurentPoly.__mul__", "laurent")
    out = metrics.per_layer(tracer, query_ops=1, overhead=1.0)
    assert out["laurent.mul_calls"] == (0, "count")
    assert out["laurent.pow_calls"] == (None, "count")
    assert out["weyl.ls_yield"][0] is None


def test_tracer_wraps_the_program_and_restores_it():
    from stratval import laurent, smt, valuation

    before = (LaurentPoly.__mul__, smt.chain_valuation, valuation.chain_valuation)
    tracer = Tracer()
    tracer.install()
    try:
        assert smt.chain_valuation is valuation.chain_valuation
        assert smt.chain_valuation is not before[1]
        tracer.enabled = True
        parse_laurent("x + 1") ** 2
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert (LaurentPoly.__mul__, smt.chain_valuation,
            valuation.chain_valuation) == before
    assert tracer.stats("laurent.LaurentPoly.__pow__")[0] == 1
    assert tracer.stats("laurent.LaurentPoly.__mul__")[0] >= 2
    assert laurent.LaurentPoly.__mul__ is before[0]


# ----------------------------------------------------------------- oracles --

@pytest.fixture(scope="module")
def queries():
    wl = workloads.Queries(seed=7)
    wl.prepare_oracle()
    return wl


def test_valuation_oracle_accepts_the_true_value_and_rejects_wrong_ones(queries):
    o = queries.oracle["gr24"]
    check = lambda v, d: workloads.check_valuation(v, d, o["ps"], o["lattices"])
    assert check(AVector({"24": 1, "13": 1}), 2) is None
    assert "degree law" in check(AVector({"24": 1, "13": 1}), 3)
    assert "positivity" in check(AVector({"24": 2, "13": -1}), 1)
    assert "not a chain" in check(AVector({"14": 1, "23": 1}), 2)
    e1 = queries.oracle["elliptic1"]
    assert workloads.check_valuation(
        AVector({"X1": Fraction(1, 3), "X0": Fraction(2, 3)}), 1,
        e1["ps"], e1["lattices"]) is None
    assert "lattice" in workloads.check_valuation(
        AVector({"X1": Fraction(1, 2), "X0": Fraction(1, 2)}), 1,
        e1["ps"], e1["lattices"])


def test_subduction_oracle_rejects_a_wrong_coefficient(queries):
    o = queries.oracle["gr24"]
    g = parse_laurent("x14*x23")
    mono = lambda *ps: StdMonomial([AVector.unit(p) for p in ps])
    right = SubductionResult([(Fraction(1), mono("24", "13")),
                              (Fraction(-1), mono("34", "12"))])
    wrong = SubductionResult([(Fraction(1), mono("24", "13")),
                              (Fraction(1), mono("34", "12"))])
    assert workloads.check_subduction(right, g, o["ring"], o["reps"]) is None
    assert "differs" in workloads.check_subduction(wrong, g, o["ring"], o["reps"])


@pytest.fixture(scope="module")
def invariants(tmp_path_factory):
    wl = workloads.Invariants(seed=7, workdir=str(tmp_path_factory.mktemp("inv")))
    wl.prepare_oracle()
    return wl


def _op(wl, label):
    return next(op for op in wl._op_set() if op.label == label)


def test_degree_oracle_rejects_degree_10_on_sl3b(invariants):
    op = _op(invariants, "degree sl3b")
    assert invariants.check(op, (0, json.dumps({"degree": "6"}), "")) is None
    assert invariants.check(op, (0, json.dumps({"degree": "10"}), "")) == \
        workloads.KNOWN_DEFECTS["degree sl3b"] == "degree 10, oracle 6"
    generic = _op(invariants, "degree generic_5_3")
    assert invariants.check(generic, (0, '{"degree": "5"}', "")) is None
    assert invariants.check(generic, (0, '{"degree": "6"}', "")) is not None
    a3 = _op(invariants, "degree A3 lambda=(2, 1, 1)")
    want = invariants.expected[("degree", ("A3", (2, 1, 1)))]
    assert invariants.check(a3, want) is None
    assert invariants.check(a3, want + 1)


def _csv(rows):
    return "# stratval-csv/1\nn,incl_excl,stanley_reisner,ring\n" + "\n".join(
        f"{n},{ie},0,{ring}" for n, (ie, ring) in enumerate(rows)) + "\n"


def test_hilbert_oracles_reject_wrong_columns(invariants):
    op = _op(invariants, "hilbert elliptic1 --max 4")
    right = [(1, 1), (3, 3), (6, 6), (9, 9), (12, 12)]
    assert invariants.check(op, (0, _csv(right), "")) is None
    assert invariants.check(
        op, (0, _csv([(1, 1), (4, 3), (7, 6), (10, 9), (13, 12)]), "")
    ) == workloads.KNOWN_DEFECTS["hilbert elliptic1 --max 4"]
    assert "ring column" in invariants.check(
        op, (0, _csv([(1, 1), (3, 4), (6, 6), (9, 9), (12, 12)]), ""))
    generic = _op(invariants, "hilbert generic_6_2 --max 4")
    good = [(1, ""), (8, ""), (21, ""), (40, ""), (65, "")]
    assert invariants.check(generic, (0, _csv(good), "")) is None
    bad = good[:4] + [(66, "")]
    assert "differences" in invariants.check(generic, (0, _csv(bad), ""))
    lib = _op(invariants, "hilbert B2 lambda=(1, 1) n<=2")
    assert invariants.check(lib, [1, 16, 81]) is None
    assert invariants.check(lib, [1, 16, 80]) is not None


def test_lspaths_oracle_rejects_a_wrong_count_or_character():
    wl = workloads.LSPaths(seed=7)
    wl.prepare_oracle()
    op = next(op for op in wl._op_set() if op.payload[:2] == ("A2", 2))
    doc = {"count": 27, "paths": [{}] * 27, "character_ok": True,
           "character_discrepancies": []}
    assert wl.check(op, (0, json.dumps(doc), "")) is None
    assert "weyl_dim" in wl.check(op, (0, json.dumps({**doc, "count": 26}), ""))
    bad = {**doc, "character_ok": False, "character_discrepancies": ["w"]}
    assert "character" in wl.check(op, (0, json.dumps(bad), ""))


# ----------------------------------------------------------------- op lists --

def _labels(wl, index):
    return [op.label for op in wl.pass_ops(index)]


def test_same_seed_gives_the_same_op_list(tmp_path):
    def build(name, seed):
        return workloads.make(name, seed, str(tmp_path))

    for name in workloads.WORKLOADS:
        a, b, c = build(name, 3), build(name, 3), build(name, 4)
        assert _labels(a, 0) == _labels(b, 0) and _labels(a, 5) == _labels(b, 5)
        assert sorted(_labels(a, 0)) == sorted(_labels(a, 1))  # same ops each pass
        assert len(set(_labels(a, 0))) == len(_labels(a, 0))  # labels are unique
        assert _labels(a, 0) != _labels(c, 0)
        assert len(_labels(a, 0)) == len(_labels(c, 0))        # same composition


# ------------------------------------------------------------------ runner --

class FakeWorkload:
    """Ops whose output is the oracle's verdict; latency is 1 s for passing
    ops and 1 ms for failing ones."""

    kinds = ("degree", "hilbert")

    def __init__(self, verdicts):
        self.verdicts = verdicts
        self.clock = [0.0]

    def execute(self, state, op):
        self.clock[0] += 1.0 if self.verdicts[op.label] is None else 1e-3
        return self.verdicts[op.label]

    def check(self, op, out):
        return out


def _fake_run(monkeypatch, verdicts):
    wl = FakeWorkload(verdicts)
    monkeypatch.setattr(run.time, "perf_counter", lambda: wl.clock[0])
    monkeypatch.setattr(run, "reference_time", lambda: run.REFERENCE_S)  # scale 1
    recorder = run.Recorder(wl, state=None)
    recorder.run_pass([workloads.Op("degree", "a", label, ()) for label in verdicts])
    return recorder


def test_only_known_defects_failing_as_known_keep_a_run_correct(monkeypatch):
    known = workloads.KNOWN_DEFECTS["degree sl3b"]
    recorder = _fake_run(monkeypatch, {"degree sl3b": known, "degree gr24": None})
    assert (recorder.attempted, recorder.failed) == (2, 1)
    assert recorder.unexpected() == []
    recorder = _fake_run(monkeypatch, {"degree sl3b": "degree 8, oracle 6",
                                       "degree gr24": "degree 3, oracle 2"})
    assert recorder.unexpected() == [("degree gr24", "degree 3, oracle 2"),
                                     ("degree sl3b", "degree 8, oracle 6")]


def test_latencies_count_only_ops_that_agreed_with_their_oracle(monkeypatch):
    recorder = _fake_run(monkeypatch, {"degree sl3b": "wrong", "degree gr24": None,
                                       "degree quadric": None})
    values, report = run.end_to_end(recorder, [0.5], setup_mb=1.0)
    assert values["ops_per_s"]["value"] == pytest.approx(1.0)
    assert values["latency_p50_ms"]["value"] == pytest.approx(1e3)
    assert values["kind_a_pass_s"]["value"] == pytest.approx(2.0)
    assert values["verified_ratio"]["value"] == pytest.approx(2 / 3)
    assert report["failed_best_ms"] == {"degree sl3b": pytest.approx(1.0)}


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    recorder = _fake_run(monkeypatch, {"degree gr24": None, "degree quadric": None})
    recorder.reference = [2 * run.REFERENCE_S] * 4   # the machine ran at half speed
    values, report = run.end_to_end(recorder, [0.5], setup_mb=1.0)
    assert report["speed"]["scale"] == pytest.approx(0.5)
    assert values["ops_per_s"]["value"] == pytest.approx(2.0)
    assert values["latency_p50_ms"]["value"] == pytest.approx(500.0)
    assert values["kind_a_pass_s"]["value"] == pytest.approx(1.0)
    assert values["setup_s"]["value"] == pytest.approx(0.25)


# ------------------------------------------------------------ BENCHMARK.json --

def test_benchmark_json_matches_the_metric_definitions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        list(metrics.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert doc["paths"] == ["bench"] and doc["command"] == ["python3", "bench/run.py"]


def test_latency_summary_keeps_ten_samples_beyond_the_tail():
    s = metrics.latency_summary([float(i) for i in range(1, 101)])
    assert s["samples_beyond_tail"] == 10 and s["tail_s"] == 90.0
    assert s["tail_percentile"] == 90.0 and s["p50_s"] == 50.5
