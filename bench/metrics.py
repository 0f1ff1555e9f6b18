"""Metric definitions and their computation from a run's records.

END_TO_END and PER_LAYER are the single source of the names, units and
directions that BENCHMARK.json repeats; a test keeps the two in step.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("kind_a_pass_s", "s", "lower", 0.25),
    ("kind_b_pass_s", "s", "lower", 0.25),
    ("verified_ratio", "ratio", "higher", 0.01),
    ("setup_peak_mb", "MB", "lower", 0.1),
)

# short name -> traced span name of the functions the per-layer metrics read
SPAN = dict((
    ("laurent.pow", "laurent.LaurentPoly.__pow__"),
    ("laurent.mul", "laurent.LaurentPoly.__mul__"),
    ("laurent.substitute", "laurent.LaurentPoly.substitute"),
    ("charts.restrict_fs", "charts.ChainChart.restricted_chain_functions"),
    ("avector.lex_compare", "avector.lex_compare"),
    ("ringmodel.normal_form", "ringmodel.GradedQuotient.normal_form"),
    ("ringmodel.hilbert", "ringmodel.GradedQuotient.hilbert"),
    ("monoids.decompose", "monoids.decompose"),
    ("poset.maximal_chains", "poset.StratPoset.maximal_chains"),
    ("poset.validate", "poset.StratPoset.validate"),
    ("monoids.lattice_build", "monoids.LatticeQ.__init__"),
    ("monoids.membership", "monoids.LatticeQ.membership"),
    ("intlattice.hnf", "intlattice.hnf_with_transform"),
    ("geometry.face_count", "geometry.count_face_points"),
    ("weyl.enumerate_ls", "weyl.enumerate_ls"),
    ("weyl.validate_ls", "weyl.validate_ls"),
    ("weyl.freudenthal", "weyl.freudenthal_character"),
    ("valuation.sequence_of_functions", "valuation.sequence_of_functions"),
    ("valuation.valuate_all", "valuation.valuate_all"),
    ("smt.subduction", "smt.subduction"),
))

PER_LAYER = tuple(
    [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("laurent.pow_calls", "count", "lower"),
        ("laurent.pow_self_s", "s", "lower"),
        ("laurent.mul_calls", "count", "lower"),
        ("laurent.mul_self_s", "s", "lower"),
        ("laurent.substitute_self_s", "s", "lower"),
        ("charts.restrict_fs_calls", "count", "lower"),
        ("valuation.chain_passes", "count", "lower"),
        ("valuation.passes_per_op", "ratio", "lower"),
        ("avector.lex_compare_calls", "count", "lower"),
        ("smt.iterations_per_subduction", "ratio", "lower"),
        ("ringmodel.normal_form_calls", "count", "lower"),
        ("ringmodel.normal_form_self_s", "s", "lower"),
        ("monoids.decompose_calls", "count", "lower"),
        ("poset.maximal_chains_calls", "count", "lower"),
        ("poset.maximal_chains_self_s", "s", "lower"),
        ("poset.validate_calls", "count", "lower"),
        ("monoids.lattice_builds", "count", "lower"),
        ("monoids.lattice_build_self_s", "s", "lower"),
        ("monoids.membership_calls", "count", "lower"),
        ("monoids.membership_self_s", "s", "lower"),
        ("intlattice.hnf_calls", "count", "lower"),
        ("intlattice.hnf_self_s", "s", "lower"),
        ("geometry.face_counts", "count", "lower"),
        ("geometry.face_count_self_s", "s", "lower"),
        ("geometry.face_reuse_ratio", "ratio", "higher"),
        ("ringmodel.hilbert_self_s", "s", "lower"),
        ("weyl.lattice_points", "count", "lower"),
        ("weyl.ls_yield", "ratio", "higher"),
        ("weyl.enumerate_ls_calls", "count", "lower"),
        ("weyl.validate_ls_self_s", "s", "lower"),
        ("weyl.freudenthal_self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def latency_summary(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond
    it (nearest rank); with fewer than eleven samples, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = max(0, n - 11)
    return {
        "p50_s": statistics.median(ordered),
        "tail_s": ordered[i],
        "tail_percentile": round(100 * (i + 1) / n, 2),
        "samples": n,
        "samples_beyond_tail": n - i - 1,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install_hooks(tracer) -> None:
    """Counters that need a call's arguments or result."""

    def lattice_points(args, result):
        tracer.count("weyl.lattice_points", len(result))

    def ls_paths(args, result):
        tracer.count("weyl.paths_kept", len(result))

    def subduction(args, result):
        # the loop's iterations: one per term plus the final zero test
        tracer.count("smt.iterations", len(result.terms) + 1)

    faces: set = set()

    def face_count(args, result):
        _, face, _, n = args[:4]
        faces.add((tracer.op_seq, tuple(face), n))
        tracer.counters["geometry.distinct_faces"] = len(faces)

    tracer.hooks.update({
        "weyl.ls_lattice_points": lattice_points,
        "weyl.enumerate_ls": ls_paths,
        SPAN["smt.subduction"]: subduction,
        SPAN["geometry.face_count"]: face_count,
    })


def per_layer(tracer, query_ops: int, overhead: float) -> dict[str, tuple]:
    """Every PER_LAYER metric as name -> (value, unit); value None marks a
    metric whose function no longer exists."""
    out: dict[str, object] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = tracer.layer_calls.get(layer)
        out[f"{layer}.self_s"] = tracer.layer_self.get(layer)

    def calls(key):
        st = tracer.stats(SPAN[key])
        return None if st is None else st[0]

    def self_s(key):
        st = tracer.stats(SPAN[key])
        return None if st is None else st[1]

    def ratio(num, den):
        return None if num is None or den is None else _ratio(num, den)

    c = tracer.counters
    out.update({
        "laurent.pow_calls": calls("laurent.pow"),
        "laurent.pow_self_s": self_s("laurent.pow"),
        "laurent.mul_calls": calls("laurent.mul"),
        "laurent.mul_self_s": self_s("laurent.mul"),
        "laurent.substitute_self_s": self_s("laurent.substitute"),
        "charts.restrict_fs_calls": calls("charts.restrict_fs"),
        "valuation.chain_passes": calls("valuation.sequence_of_functions"),
        "valuation.passes_per_op": ratio(calls("valuation.valuate_all"), query_ops),
        "avector.lex_compare_calls": calls("avector.lex_compare"),
        "smt.iterations_per_subduction": ratio(
            c.get("smt.iterations", 0), calls("smt.subduction")),
        "ringmodel.normal_form_calls": calls("ringmodel.normal_form"),
        "ringmodel.normal_form_self_s": self_s("ringmodel.normal_form"),
        "monoids.decompose_calls": calls("monoids.decompose"),
        "poset.maximal_chains_calls": calls("poset.maximal_chains"),
        "poset.maximal_chains_self_s": self_s("poset.maximal_chains"),
        "poset.validate_calls": calls("poset.validate"),
        "monoids.lattice_builds": calls("monoids.lattice_build"),
        "monoids.lattice_build_self_s": self_s("monoids.lattice_build"),
        "monoids.membership_calls": calls("monoids.membership"),
        "monoids.membership_self_s": self_s("monoids.membership"),
        "intlattice.hnf_calls": calls("intlattice.hnf"),
        "intlattice.hnf_self_s": self_s("intlattice.hnf"),
        "geometry.face_counts": calls("geometry.face_count"),
        "geometry.face_count_self_s": self_s("geometry.face_count"),
        "geometry.face_reuse_ratio": ratio(
            c.get("geometry.distinct_faces", 0), calls("geometry.face_count")),
        "ringmodel.hilbert_self_s": self_s("ringmodel.hilbert"),
        "weyl.lattice_points": (
            None if tracer.stats("weyl.ls_lattice_points") is None
            else c.get("weyl.lattice_points", 0)),
        "weyl.ls_yield": (
            None if tracer.stats("weyl.ls_lattice_points") is None
            else _ratio(c.get("weyl.paths_kept", 0), c.get("weyl.lattice_points", 0))),
        "weyl.enumerate_ls_calls": calls("weyl.enumerate_ls"),
        "weyl.validate_ls_self_s": self_s("weyl.validate_ls"),
        "weyl.freudenthal_self_s": self_s("weyl.freudenthal"),
        "trace.overhead_ratio": overhead,
    })
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (out[name], units[name]) for name, _, _ in PER_LAYER}
