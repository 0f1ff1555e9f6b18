"""Benchmark entry point.

    python3 bench/run.py --workload queries --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  With --trace 0 the run executes whole
passes over the workload's op list in a closed loop for about --seconds,
checking every output against its oracle outside the timed region, and
times set-up at even intervals across the run (median).  A reference loop
timed before every op gives the machine's speed during the run, and every
reported time is scaled to a fixed reference speed.
With --trace 1 it runs passes untraced for a third of the time, replays the
same passes with every layer wrapped and once more untraced, and reports
per-layer counts and self times plus the tracing overhead (traced replay
against untraced replay).

The last line of stdout is the result object; the line before it is a
report with the environment, the tail percentile and its sample count, the
per-kind figures under their own names and every failed op with its reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Set-up is timed once before the first op and then between ops at even
# intervals of the run, SETUP_SAMPLES times in all: the machine's speed
# changes within seconds, and evenly spread samples make the median a
# property of the whole run rather than of one moment.
SETUP_SAMPLES = 11
MIN_PASSES = 2
# A fixed pure-Python loop runs before every op.  The 10th percentile of its
# times over a run measures how fast the shared machine ran during the run.
# Every reported time is scaled to the speed at which that percentile is
# REFERENCE_S, so that runs made while the machine is slowed by other load
# compare with runs made while it is not.
REFERENCE_LOOPS = 20_000
REFERENCE_S = 1.3e-3


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "STRATIFY_THREADS": os.environ.get("STRATIFY_THREADS"),
        "width": 1,
        "commit": None,
        "source_sha256": None,
    }
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        env["commit"] = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "stratval").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    env["source_sha256"] = digest.hexdigest()
    return env


def reference_time() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(REFERENCE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def output_digest(out) -> str:
    text = out[1] if isinstance(out, tuple) and len(out) == 3 else repr(out)
    return hashlib.sha1(text.encode()).hexdigest()


class Recorder:
    """Latency and outcome of every execution.  Oracle checks happen here,
    after the clock has stopped."""

    def __init__(self, workload, state):
        self.wl = workload
        self.state = state                    # the session the ops run in
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.seconds: list[tuple] = []        # (label, seconds) per execution
        self.reference: list[float] = []      # reference_time() before each op
        self.best: dict[str, float] = {}      # label -> best seconds
        self.ops: dict[str, object] = {}      # label -> op
        self.failed_ops: set[str] = set()
        self.failures: dict[tuple, int] = {}  # (label, reason) -> count
        self.nondeterministic: set[str] = set()
        self.digests: dict[str, str] = {}
        self.paths: dict[str, int] = {}       # lspaths label -> paths printed

    def run_pass(self, ops, tracer=None, between=None) -> float:
        """Execute the ops in order, calling `between()` before each;
        returns the busy seconds."""
        wl, state = self.wl, self.state
        clock = time.perf_counter
        busy = 0.0
        for op in ops:
            if between is not None:
                between()
            self.reference.append(reference_time())
            if tracer is not None:
                tracer.op_seq += 1
                tracer.enabled = True
            t0 = clock()
            try:
                out, reason = wl.execute(state, op), None
            except Exception as e:  # any raise is a failed op, not a crash
                out, reason = None, f"raised {type(e).__name__}: {e}"
            t1 = clock()
            if tracer is not None:
                tracer.enabled = False
            busy += t1 - t0
            if reason is None:
                try:
                    reason = wl.check(op, out)
                except Exception as e:
                    reason = f"oracle could not check: {type(e).__name__}: {e}"
                digest = output_digest(out)
                if self.digests.setdefault(op.label, digest) != digest:
                    self.nondeterministic.add(op.label)
                if op.kind == "lspaths" and reason is None:
                    self.paths[op.label] = wl.paths(out)
            if reason is not None:
                key = (op.label, reason[:300])
                self.failures[key] = self.failures.get(key, 0) + 1
                self.failed_ops.add(op.label)
                self.failed += 1
            self.attempted += 1
            self.ops[op.label] = op
            self.best[op.label] = min(t1 - t0, self.best.get(op.label, t1 - t0))
            self.seconds.append((op.label, t1 - t0))
        self.passes += 1
        return busy

    def unexpected(self) -> list[tuple[str, str]]:
        """Failures other than the known defects, each with its reason."""
        from workloads import KNOWN_DEFECTS

        return sorted(key for key in self.failures
                      if KNOWN_DEFECTS.get(key[0]) != key[1])


def timed_setup(workload) -> float:
    """One set-up whose session is thrown away: the ops keep running in the
    warm session of the first set-up."""
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def setup_memory(workload) -> float:
    """Peak memory (MB) the program allocates during one set-up, traced by
    `tracemalloc`: only allocations made inside the set-up count, none of
    the interpreter's or the benchmark's own."""
    tracemalloc.start()
    try:
        workload.setup()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def warm_session(workload):
    """The session the ops run in: an untimed set-up and one unchecked pass
    over the ops, which warms the program's lazy caches so that the first
    measured pass is not cold."""
    state = workload.setup()
    for op in workload.pass_ops(0):
        try:
            workload.execute(state, op)
        except Exception:       # the measured passes count and report it
            pass
    return state


def measure(recorder: Recorder, seconds: float) -> list[float]:
    """Whole passes, at least MIN_PASSES, while another pass of average
    length still fits in `seconds`.  Returns the set-up times."""
    wl = recorder.wl
    setup_times = [timed_setup(wl)]
    interval = seconds / SETUP_SAMPLES
    start = time.perf_counter()

    def between():
        due = start + len(setup_times) * interval
        if len(setup_times) < SETUP_SAMPLES and time.perf_counter() >= due:
            setup_times.append(timed_setup(wl))

    while True:
        recorder.run_pass(wl.pass_ops(recorder.passes), between=between)
        elapsed = time.perf_counter() - start
        n = recorder.passes
        if n >= MIN_PASSES and elapsed * (n + 1) / n > seconds:
            break
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(timed_setup(wl))
    return setup_times


def replay(recorder: Recorder, passes: list[int], tracer=None) -> float:
    """Exactly the given passes; returns the busy seconds."""
    return sum(recorder.run_pass(recorder.wl.pass_ops(i), tracer) for i in passes)


def end_to_end(recorder: Recorder, setup_times: list[float],
               setup_mb: float) -> tuple[dict, dict]:
    """Only ops that agreed with their oracle in every pass count; failed
    ops are reported apart.  Latency percentiles are those of every
    execution of those ops.  Each op's best time over the run stands for
    its cost on a quiet machine: throughput and per-kind times are those of
    one pass at the best times.  All times are scaled to the reference
    speed (see REFERENCE_S); the report gives the scale."""
    from metrics import END_TO_END, latency_summary

    wl, ops, failed = recorder.wl, recorder.ops, recorder.failed_ops
    reference_p10 = statistics.quantiles(recorder.reference, n=10)[0]
    scale = REFERENCE_S / reference_p10
    best = {label: secs * scale for label, secs in recorder.best.items()
            if label not in failed}
    executions = [secs * scale for label, secs in recorder.seconds
                  if label not in failed] or [0.0]
    summary = latency_summary(executions)
    pass_s = sum(best.values())
    slot_s = {"a": 0.0, "b": 0.0}
    for label, secs in best.items():
        slot_s[ops[label].slot] += secs
    failed_ratio = len(failed) / len(recorder.best)
    values = {
        "setup_s": statistics.median(setup_times) * scale,
        "ops_per_s": len(best) / pass_s if pass_s else 0.0,
        "latency_p50_ms": summary["p50_s"] * 1e3,
        "latency_tail_ms": summary["tail_s"] * 1e3,
        "kind_a_pass_s": slot_s["a"],
        "kind_b_pass_s": slot_s["b"],
        "verified_ratio": 1 - failed_ratio,
        "setup_peak_mb": setup_mb,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _ in END_TO_END}
    # the same figures under the names of the op kinds they measure
    named = {}
    for slot, kind in zip("ab", wl.kinds):
        kind_lat = [secs * scale for label, secs in recorder.seconds
                    if label not in failed and ops[label].slot == slot]
        named[f"{kind}_p50_ms"] = statistics.median(kind_lat or [0.0]) * 1e3
        named[f"{kind}_s"] = slot_s[slot]
    if recorder.paths:
        named["paths_per_s"] = sum(recorder.paths.values()) / pass_s
    named["failed_ratio"] = failed_ratio
    report = {
        "latency": {k: v for k, v in summary.items() if not k.endswith("_s")},
        "speed": {"reference_p10_ms": reference_p10 * 1e3, "scale": scale,
                  "samples": len(recorder.reference)},
        "setup_s_samples": setup_times,
        "passes": recorder.passes,
        "by_kind": named,
        "failed_best_ms": {label: recorder.best[label] * 1e3 for label in sorted(failed)},
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stratval" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("STRATIFY_THREADS", None)   # width 1: no worker threads
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads
    from metrics import install_hooks, per_layer
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        report: dict = {"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace,
                        "environment": environment()}
        setup_mb = setup_memory(wl)
        recorder = Recorder(wl, warm_session(wl))
        t0 = time.perf_counter()
        wl.prepare_oracle()
        report["oracle_setup_s"] = time.perf_counter() - t0
        if not args.trace:
            setup_times = measure(recorder, args.seconds)
            metrics, detail = end_to_end(recorder, setup_times, setup_mb)
            report.update(detail)
        else:
            # the first untraced passes also warm the interpreter and the
            # program's lazy caches; overhead compares the traced replay with
            # a second untraced replay of the same passes
            passes = [0]
            warm = replay(recorder, passes)
            while warm < args.seconds / 3:
                passes.append(len(passes))
                warm += replay(recorder, passes[-1:])
            tracer = Tracer()
            install_hooks(tracer)
            plain_ops = recorder.attempted
            tracer.install()
            try:
                traced_busy = replay(recorder, passes, tracer)
            finally:
                tracer.uninstall()
            traced_ops = recorder.attempted - plain_ops
            plain_busy = replay(recorder, passes)
            query_ops = traced_ops if args.workload == "queries" else 0
            overhead = traced_busy / plain_busy
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in per_layer(tracer, query_ops, overhead).items()
            }
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            report.update({
                "passes": len(passes),
                "untraced_s": plain_busy,
                "traced_s": traced_busy,
                "spans": tracer.spans_started,
                "spans_kept": tracer.write_spans(str(spans_path)),
                "spans_file": str(spans_path.relative_to(ROOT)),
                "missing": sorted(k for k, v in metrics.items() if v["value"] is None),
            })
        unexpected = recorder.unexpected()
        report["failures"] = [
            {"op": label, "reason": reason, "count": n,
             "known_defect": (label, reason) not in unexpected}
            for (label, reason), n in sorted(recorder.failures.items())
        ]
        report["nondeterministic"] = sorted(recorder.nondeterministic)
        correct = not unexpected and not recorder.nondeterministic
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": recorder.attempted,
                      "failed": recorder.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
