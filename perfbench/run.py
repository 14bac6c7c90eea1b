"""The repository benchmark: three user workloads, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 7 --seconds 10 --trace 0

``--trace 0`` sets up three times (reporting the median), then runs
timed passes (``paper-cold`` on two worker processes, the others in
this process): pass ``k`` uses inputs
from ``seed + 1009 k`` (pass 0 the seed itself), and passes repeat
until ``--seconds`` have passed, with at least two passes and at least
ten query and store latency samples beyond p90.
Time and rate metrics are medians over the passes.  ``--trace 1`` runs
passes on the seed's own inputs: one untraced as ``--trace 0`` would,
then a traced pass with ``workers=1`` whose spans give the per-layer
metrics, between two untraced ``workers=1`` passes, and more untraced
passes follow until the latency samples suffice.  All passes must
produce the same output digest; the tracing overhead is the traced wall
time minus the mean untraced ``workers=1`` wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it name every metric with its unit, including the workload-only
ones (query/store latency, Table III error, frontier hypervolume) that
``BENCHMARK.json`` does not gate.  Any failed output check exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("paper-cold", "explore-tune", "lake-mixed")
SETUP_REPEATS = 3
MIN_PASSES = 2
MIN_BEYOND_P90 = 10


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def enough_latency_samples(passes: list) -> bool:
    """Whether every latency metric the passes have pools enough samples.

    A p90 needs :data:`MIN_BEYOND_P90` samples beyond it.
    """
    for samples in (
        [x for p in passes for x in p.query_ms],
        [x for p in passes for x in p.store_ms],
    ):
        if samples and len(samples) - math.ceil(0.9 * len(samples)) < MIN_BEYOND_P90:
            return False
    return True


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def make_workload(name: str, tiny: bool):
    import workloads as w

    if name == "paper-cold":
        apps = ("photo-editor", "video-player") if tiny else w.PAPER_APPS
        return w.PaperCold(apps, results_dir=os.path.join(ROOT, "results"))
    if name == "explore-tune":
        scale = (
            w.ExploreScale(big_cores=(1,), hmp_up=(700,), gov_target_load=(0.7,),
                           gov_hold_ms=(40, 80), horizon_s=2.0)
            if tiny else w.ExploreScale()
        )
        return w.ExploreTune(scale)
    scale = (
        w.LakeScale(apps=("browser", "video-player"), max_seconds=1.0, initial_seeds=2,
                    held_seeds=2, blocks=1, dense_samples=2)
        if tiny else w.LakeScale()
    )
    return w.LakeMixed(scale)


def layer_metrics(rec, before: dict, after: dict, traced, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass (see ``perfbench/NOTES.md``)."""
    st = rec.self_times()

    def s(name: str) -> float:
        return st.get(name, 0.0)

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    ticks = rec.ticks
    engine_s = s("sim.run") + s("sim.batch.run")
    lanes = delta("engine.batch.lanes")
    vector, scalar = delta("engine.batch.vector_ticks"), delta("engine.batch.scalar_ticks")
    kernels = s("lake.kernels")
    values = {
        "sim.run_s": (s("sim.run"), "s"),
        "sim.setup_s": (s("sim.setup"), "s"),
        "sim.host_us_per_tick": (engine_s * 1e6 / ticks if ticks else 0.0, "us"),
        "sim.ticks": (ticks, "count"),
        "sim.ff_idle_share": ((rec.ff_ticks - rec.busy_ff_ticks) / ticks if ticks else 0.0, "ratio"),
        "sim.ff_busy_share": (rec.busy_ff_ticks / ticks if ticks else 0.0, "ratio"),
        "sim.batch.run_s": (s("sim.batch.run"), "s"),
        "sim.traceio.load_s": (s("sim.traceio.load"), "s"),
        "sim.traceio.save_s": (s("sim.traceio.save"), "s"),
        "sim.traceio.encode_s": (s("sim.traceio.encode"), "s"),
        "trace.materializations": (traced.materializations, "count"),
        "runner.batch_s": (s("runner.batch"), "s"),
        "runner.execute_spec_s": (s("runner.execute_spec"), "s"),
        "runner.cohort_s": (s("runner.cohort"), "s"),
        "runner.jobs": (traced.tally.jobs, "count"),
        "runner.jobs_failed": (traced.tally.jobs_failed, "count"),
        "runner.retries": (traced.tally.retries, "count"),
        "runner.cache.load_s": (s("runner.cache.load"), "s"),
        "runner.cache.store_s": (s("runner.cache.store"), "s"),
        "runner.cache.hits": (delta("cache.hits"), "count"),
        "runner.cache.misses": (delta("cache.misses"), "count"),
        "runner.cache.bytes_written": (delta("cache.bytes_written"), "bytes"),
        "runner.cache.store_races": (delta("cache.store_races"), "count"),
        "runner.cache.corrupt": (delta("cache.corrupt"), "count"),
        "runner.cohort.lanes": (lanes, "count"),
        "runner.cohort.scalar_tick_share": (scalar / (vector + scalar) if vector + scalar else 0.0, "ratio"),
        "runner.fold.folded_ratio": (delta("engine.batch.fold.folded") / lanes if lanes else 0.0, "ratio"),
        "core.reductions_s": (s("core.reductions"), "s"),
        "lake.query_self_s": (s("lake.query"), "s"),
        "lake.kernels_s": (kernels, "s"),
        "lake.catalog.entries_s": (s("lake.catalog.entries"), "s"),
        "lake.query.entries": (delta("lake.query.entries"), "count"),
        "lake.catalog.append_s": (s("lake.catalog.append"), "s"),
        "explore.self_s": (s("explore"), "s"),
        "explore.points": (delta("explore.points"), "count"),
        "experiments.self_s": (s("experiments"), "s"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - untraced_wall, "s"),
        "trace.spans": (len(rec.spans), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def counters() -> dict:
    from repro.obs.metrics import global_metrics

    return dict(global_metrics().snapshot().counters)


def describe(name: str, value, unit: str) -> str:
    if value is None:
        return f"  {name:<24} n/a"
    return f"  {name:<24} {value!r} {unit}"


def run(args: argparse.Namespace, work: str) -> int:
    import workloads as w
    from spans import SpanRecorder, install_layer_spans

    workload = make_workload(args.workload, args.scale == "tiny")
    workers = max(1, min(2, os.cpu_count() or 1))
    pass_workers = min(workers, workload.max_workers)

    # Set-up is a fresh interpreter importing the workload's modules plus
    # the workload's own input preparation; the last one made is used.
    setup_times, setup_digests = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        w.import_probe(workload.modules)
        state = workload.setup(args.seed, work, workers)
        setup_times.append(time.perf_counter() - t0)
        if getattr(state, "digest", None):
            setup_digests.append(state.digest)
    setup_s = statistics.median(setup_times)

    if args.trace:
        # Same inputs for every pass, so their digests must agree.  The
        # traced pass is bracketed by untraced workers=1 passes, so a
        # drift in host speed cancels out of the overhead.
        passes = [workload.run_pass(state, args.seed, work, pass_workers)]
        if pass_workers > 1:
            passes.append(workload.run_pass(state, args.seed, work, 1))
        before_traced = passes[-1]
        rec = SpanRecorder()
        before = counters()
        install_layer_spans(rec)
        try:
            traced = workload.run_pass(state, args.seed, work, 1, rec=rec)
        finally:
            rec.restore()
        after = counters()
        after_traced = workload.run_pass(state, args.seed, work, 1)
        passes += [traced, after_traced]
        while not enough_latency_samples([p for p in passes if p is not traced]):
            passes.append(workload.run_pass(state, args.seed, work, pass_workers))
        rec.write(os.path.join(WORK_ROOT, f"spans-{args.workload}-{args.seed}.jsonl"))
        untraced_wall = (before_traced.wall_s + after_traced.wall_s) / 2
        metrics = layer_metrics(rec, before, after, traced, untraced_wall)
    else:
        # Pass k runs on inputs from seed + 1009 k; pass 0 uses the seed
        # itself.
        passes = []
        t_start = time.perf_counter()
        while (len(passes) < MIN_PASSES or time.perf_counter() - t_start < args.seconds
               or not enough_latency_samples(passes)):
            passes.append(workload.run_pass(state, args.seed + 1009 * len(passes), work,
                                             pass_workers))
        metrics = None

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    checks = [c for p in passes for c in p.checks]
    if args.trace:
        checks.append(("digest.traced_equals_untraced", len({p.digest for p in passes}) == 1,
                       ", ".join(p.digest for p in passes)))
    if setup_digests:
        checks.append(("digest.setups_agree", len(set(setup_digests)) == 1,
                       ", ".join(sorted(set(setup_digests)))))
    correct = all(ok for _name, ok, _detail in checks)

    timed_passes = passes[:1] if args.trace else passes
    # Latency samples pool over every untraced pass.
    untraced = [p for p in passes if p is not traced] if args.trace else passes
    query_ms = [x for p in untraced for x in p.query_ms]
    store_ms = [x for p in untraced for x in p.store_ms]
    wall_s = statistics.median(p.wall_s for p in timed_passes)
    sim_rate = statistics.median(p.sim_s / p.wall_s for p in timed_passes)
    # Simulated statistics come from the seed's own inputs (pass 0), so
    # they repeat exactly for a fixed seed.
    extra = passes[0].extra
    query_s = math.fsum(x for p in timed_passes for x in p.query_ms) / 1e3
    n_queries = sum(len(p.query_ms) for p in timed_passes)

    end_to_end = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "sim_s_per_host_s": (sim_rate, "s/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
    }
    lat = {"query": query_ms, "store": store_ms}
    report_only = {
        "fail_frac": (failed / attempted if attempted else None, "ratio"),
        "query_p50_ms": (percentile(query_ms, 50) if query_ms else None, "ms"),
        "query_p90_ms": (percentile(query_ms, 90) if query_ms else None, "ms"),
        "store_p50_ms": (percentile(store_ms, 50) if store_ms else None, "ms"),
        "store_p90_ms": (percentile(store_ms, 90) if store_ms else None, "ms"),
        "queries_per_s": (n_queries / query_s if n_queries else None, "1/s"),
        "table3_tlp_mae": (extra.get("table3_tlp_mae"), "TLP"),
        "table3_big_pp_mae": (extra.get("table3_big_pp_mae"), "pp"),
        "frontier_hv": (extra.get("frontier_hv"), "s*mJ"),
    }

    mode = "traced" if args.trace else "timed"
    print(f"{args.workload} seed={args.seed} {mode}: {len(passes)} pass(es), "
          f"{pass_workers} worker(s) untraced, setup x{SETUP_REPEATS}")
    print("end-to-end metrics:")
    for name, (value, unit) in {**end_to_end, **report_only}.items():
        print(describe(name, value, unit))
    for kind, samples in lat.items():
        if samples:
            beyond = len(samples) - math.ceil(0.9 * len(samples))
            print(f"  {kind} samples: {len(samples)} ({beyond} beyond p90)")
    print(f"denominators: attempted={attempted} failed={failed} "
          f"jobs={sum(p.tally.jobs for p in passes)} "
          f"queries={sum(len(p.query_ms) for p in passes)} "
          f"stores={sum(len(p.store_ms) for p in passes)} "
          f"retries={sum(p.tally.retries for p in passes)}")
    if metrics is not None:
        print("per-layer metrics (traced pass, workers=1):")
        for name, m in metrics.items():
            print(describe(name, m["value"], m["unit"]))
    print("output checks:")
    for name, ok, detail in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    for p in passes:
        for err in p.errors:
            print(err, file=sys.stderr)

    if metrics is None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    # Nothing may fall back to the per-user cache or /tmp outside the checkout.
    os.environ["REPRO_RUNNER_CACHE"] = os.path.join(work, "default-cache")
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
