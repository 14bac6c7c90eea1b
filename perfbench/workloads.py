"""The benchmark's three user workloads: set-up, one timed pass, and checks.

Every pass starts from the same state (a fresh result cache, or a fresh
copy of the set-up lake), so passes within a run and passes on other
commits do identical work for a given seed.  A pass returns a
:class:`PassOutput`; ``run.py`` turns passes into metrics.

- ``paper-cold`` regenerates every paper artifact from an empty cache
  with one ``BatchRunner`` (cohorts off), exactly as
  ``scripts/collect_results.py`` does, over a fixed subset of the apps.
- ``explore-tune`` runs an ``ExploreStudy`` with the CLI defaults
  (adaptive sampler, cohorts on, 8 s horizon) over a topology x HMP x
  governor space that includes a ``gov_hold_ms`` axis.
- ``lake-mixed`` queries a lake of cached RLE traces while storing new
  results into it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from math import fsum
from typing import Any, Callable, Optional

from repro.experiments.fig02_03_spec import run_spec_comparison
from repro.experiments.fig04_05_corecompare import (
    run_fps_comparison,
    run_latency_comparison,
)
from repro.experiments.fig06_util_power import run_util_power
from repro.experiments.fig07_08_coreconfig import run_core_config_sweep
from repro.experiments.fig09_10_freq import run_frequency_residency
from repro.experiments.fig11_12_13_params import run_param_sweep
from repro.experiments.table3_4_tlp import run_tlp_tables
from repro.experiments.table5_efficiency import run_efficiency_table
from repro.explore import Budget, DesignSpace, ExploreStudy, make_sampler
from repro.lake import (
    Catalog,
    LakeQuery,
    cluster_energy,
    dense_cluster_energy,
    dense_freq_histogram,
    dense_migrations,
    freq_histogram,
    migrations,
)
from repro.lake.query import KERNEL_AGGS
from repro.obs.metrics import global_metrics
from repro.platform.chip import exynos5422
from repro.platform.coretypes import CoreType
from repro.runner import BatchRunner, ResultCache, RunSpec
from repro.runner.spec import finalize_result
from repro.sim.traceio import load_trace, load_trace_lazy
from repro.workloads.mobile import FPS_APP_NAMES, LATENCY_APP_NAMES, MOBILE_APP_NAMES
from repro.workloads.targets import PAPER_TABLE3

from spans import SpanRecorder

#: Seed at which ``results/*.txt`` were generated.
RESULTS_SEED = 7


@dataclass
class Tally:
    """Runner reports and retry events of one pass."""

    reports: list = field(default_factory=list)
    retries: int = 0

    def on_event(self, event) -> None:
        if event.event == "job_retry":
            self.retries += 1

    @property
    def jobs(self) -> int:
        return sum(r.n_jobs for r in self.reports)

    @property
    def jobs_failed(self) -> int:
        return sum(r.failed_count for r in self.reports)

    def results(self) -> list:
        return [r for report in self.reports for r in report.results if r is not None]


class RecordingRunner(BatchRunner):
    """A ``BatchRunner`` that keeps every report it returns."""

    def __init__(self, tally: Tally, **kwargs: Any) -> None:
        super().__init__(on_event=tally.on_event, **kwargs)
        self.tally = tally

    def run(self, specs):
        report = super().run(specs)
        self.tally.reports.append(report)
        return report


@dataclass
class PassOutput:
    """What one pass did, measured from the benchmark process."""

    wall_s: float
    #: Simulated seconds delivered (engine workloads) or read and
    #: written (lake), for ``sim_s_per_host_s``.
    sim_s: float
    attempted: int
    failed: int
    digest: str
    tally: Tally = field(default_factory=Tally)
    #: Simulated end-to-end values only this workload has (reported, not gated).
    extra: dict[str, float] = field(default_factory=dict)
    query_ms: list[float] = field(default_factory=list)
    store_ms: list[float] = field(default_factory=list)
    #: ``(check name, passed, detail)``.
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: ``trace.materializations`` counted during the timed work only.
    materializations: int = 0


def _materializations() -> int:
    return global_metrics().counter("trace.materializations").value


def _digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _scalars_json(results: list) -> list[str]:
    return [json.dumps(r.scalars(), sort_keys=True) for r in results]


def import_probe(modules: tuple[str, ...]) -> None:
    """Start a fresh interpreter that imports ``modules`` (cold start cost)."""
    code = "import " + ", ".join(modules)
    # No timeout: waiting with one polls in sleeps of up to 50 ms, which
    # would put set-up times of a few tenths of a second on a 50 ms grid.
    subprocess.run([sys.executable, "-c", code], check=True)


# ---------------------------------------------------------------------------
# paper-cold
# ---------------------------------------------------------------------------


def _blocks(text: str) -> list[tuple[str, Optional[tuple[list[str], list[tuple[str, list[str]]]]]]]:
    """Split rendered text into blocks: ``(title, (headers, rows))`` per table.

    Columns are located from the dashed rule under the header, so
    headers containing spaces parse correctly.  A block without a dashed
    rule is kept whole as ``(text, None)``.
    """
    blocks: list = []
    for block in text.strip("\n").split("\n\n"):
        lines = block.split("\n")
        if len(lines) < 3 or not set(lines[2]) <= {"-", " "}:
            blocks.append((block, None))
            continue
        spans = [(m.start(), m.end()) for m in re.finditer(r"-+", lines[2])]
        # Cells are right-justified, so a cell may start left of its
        # rule; each column owns the text up to its rule's end.
        bounds = [(0 if i == 0 else spans[i - 1][1], end) for i, (_s, end) in enumerate(spans)]
        headers = [lines[1][a:b].strip() for a, b in bounds]
        rows = []
        for line in lines[3:]:
            cells = [line[a:b].strip() for a, b in bounds]
            rows.append((cells[0], cells[1:]))
        blocks.append((lines[0], (headers, rows)))
    return blocks


def _restrict(block, apps: tuple[str, ...]):
    """The part of a full-app reference block that an ``apps`` subset renders.

    Sections titled after another app go; rows and columns labelled with
    another app go; everything else stays, in order.  ``None`` if the
    whole section goes.
    """
    title, table = block
    others = [a for a in MOBILE_APP_NAMES if a not in apps]
    if any(f" {a} " in f" {title} " for a in others):
        return None
    if table is None:
        return block
    headers, rows = table
    keep = [i for i, h in enumerate(headers) if i == 0 or h not in others]
    return title, (
        [headers[i] for i in keep],
        [(label, [cells[i - 1] for i in keep[1:]]) for label, cells in rows if label not in others],
    )


#: Artifacts that do not take an app list; they render in full.
FULL_ARTIFACTS = ("fig02_03", "fig06")


def compare_with_results(
    name: str, text: str, results_dir: str, apps: tuple[str, ...],
) -> tuple[bool, str]:
    """Check a rendered artifact against ``results/<name>.txt``.

    An artifact in :data:`FULL_ARTIFACTS` must be byte-identical.  A
    rendering over the ``apps`` subset must hold exactly the reference's
    sections, rows and columns for those apps, in order and cell for
    cell.  Figure 11 averages over all 12 apps, so only its rows and
    columns are compared there, not its cells.
    """
    path = os.path.join(results_dir, f"{name}.txt")
    with open(path) as fh:
        reference = fh.read()
    if name in FULL_ARTIFACTS or text == reference:
        return text == reference, "byte-identical" if text == reference else f"differs from {path}"
    want = [b for b in (_restrict(b, apps) for b in _blocks(reference)) if b is not None]
    got = _blocks(text)
    if [title for title, _t in got] != [title for title, _t in want]:
        return False, (f"sections {[t for t, _ in got]} != "
                       f"{[t for t, _ in want]} of {path}")
    cells = 0
    for (title, table), (_title, ref) in zip(got, want):
        if table is None or ref is None:
            if (title, table) != (_title, ref):
                return False, f"block {title!r} differs from {path}"
            continue
        (headers, rows), (ref_headers, ref_rows) = table, ref
        if headers != ref_headers:
            return False, f"{title!r}: columns {headers} != {ref_headers}"
        if [label for label, _c in rows] != [label for label, _c in ref_rows]:
            return False, (f"{title!r}: rows {[r for r, _ in rows]} != "
                           f"{[r for r, _ in ref_rows]}")
        if title.startswith("Figure 11"):
            continue
        for (label, row), (_label, ref_row) in zip(rows, ref_rows):
            for column, cell, ref_cell in zip(headers[1:], row, ref_row):
                if cell != ref_cell:
                    return False, f"{title!r} [{label}, {column}]: {cell!r} != {ref_cell!r}"
                cells += 1
    if cells == 0:
        return False, "no comparable cells"
    return True, f"{len(got)} sections, {cells} cells identical"


#: A fixed subset, so every seed does comparable work: one bursty
#: latency app and one FPS app, enough for every artifact.
PAPER_APPS = ("pdf-reader", "video-player")


class PaperCold:
    name = "paper-cold"
    #: Many short jobs, so they split evenly over two workers.
    max_workers = 2
    modules = ("repro.experiments", "repro.runner")

    def __init__(self, apps: tuple[str, ...], results_dir: str):
        self.apps = apps
        self.results_dir = results_dir

    def setup(self, seed: int, work_dir: str, workers: int) -> None:
        return None

    def _artifacts(self, seed: int, runner: BatchRunner) -> list[tuple[str, bool, Callable]]:
        apps = list(self.apps)
        latency = [a for a in apps if a in LATENCY_APP_NAMES]
        fps = [a for a in apps if a in FPS_APP_NAMES]
        chip_on = exynos5422(screen_on=True)
        # (name, runs through the BatchRunner, call) in collect_results order.
        return [
            ("fig02_03", False, lambda: run_spec_comparison(seed=seed)),
            ("fig04", False, lambda: run_latency_comparison(chip=chip_on, seed=seed, apps=latency)),
            ("fig05", False, lambda: run_fps_comparison(chip=chip_on, seed=seed, apps=fps)),
            ("fig06", False, lambda: run_util_power(seed=seed)),
            ("table3_4", True, lambda: run_tlp_tables(seed=seed, runner=runner, apps=apps)),
            ("fig09_10", True, lambda: run_frequency_residency(seed=seed, runner=runner, apps=apps)),
            ("table5", True, lambda: run_efficiency_table(seed=seed, runner=runner, apps=apps)),
            ("fig07_08", True, lambda: run_core_config_sweep(seed=seed, runner=runner, apps=apps)),
            ("fig11_13", True, lambda: run_param_sweep(seed=seed, runner=runner, apps=apps)),
        ]

    def run_pass(
        self, state: None, seed: int, work_dir: str, workers: int,
        rec: Optional[SpanRecorder] = None,
    ) -> PassOutput:
        cache_dir = tempfile.mkdtemp(prefix="paper-", dir=work_dir)
        tally = Tally()
        runner = RecordingRunner(
            tally, workers=workers, cache=ResultCache(root=cache_dir)
        )
        texts: dict[str, str] = {}
        errors: list[str] = []
        direct_failed = 0
        tlp_stats = None
        artifacts = self._artifacts(seed, runner)
        mat0 = _materializations()
        t0 = time.perf_counter()
        for name, via_runner, call in artifacts:
            try:
                with rec.span("experiments") if rec is not None else nullcontext():
                    result = call()
                    texts[name] = result.render() + "\n"
            except Exception:
                errors.append(f"{name}: {traceback.format_exc()}")
                if not via_runner:
                    direct_failed += 1
                continue
            if name == "table3_4":
                tlp_stats = result.stats
        wall = time.perf_counter() - t0
        mat = _materializations() - mat0
        shutil.rmtree(cache_dir, ignore_errors=True)

        results = tally.results()
        direct = sum(1 for _n, via_runner, _c in artifacts if not via_runner)
        out = PassOutput(
            wall_s=wall,
            sim_s=fsum(r.duration_s for r in results),
            attempted=tally.jobs + direct,
            failed=tally.jobs_failed + direct_failed,
            digest=_digest([texts.get(n, "") for n, _v, _c in artifacts] + _scalars_json(results)),
            tally=tally,
            errors=errors,
            materializations=mat,
        )
        out.checks.append(("paper.artifacts_rendered", len(texts) == len(artifacts),
                           f"{len(texts)}/{len(artifacts)} artifacts"))
        if tlp_stats is not None:
            out.extra["table3_tlp_mae"] = fsum(
                abs(s.tlp - PAPER_TABLE3[app].tlp) for app, s in tlp_stats.items()
            ) / len(tlp_stats)
            out.extra["table3_big_pp_mae"] = fsum(
                abs(s.big_active_pct - PAPER_TABLE3[app].big_pct)
                for app, s in tlp_stats.items()
            ) / len(tlp_stats)
        if seed == RESULTS_SEED:
            for name, text in texts.items():
                ok, detail = compare_with_results(name, text, self.results_dir, self.apps)
                out.checks.append((f"paper.results.{name}", ok, detail))
        return out


# ---------------------------------------------------------------------------
# explore-tune
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExploreScale:
    little_cores: tuple[int, ...] = (2, 4)
    big_cores: tuple[int, ...] = (2,)
    hmp_up: tuple[int, ...] = (550, 700)
    gov_target_load: tuple[float, ...] = (0.60, 0.70)
    gov_hold_ms: tuple[int, ...] = (40, 80, 120)
    #: The ``biglittle explore`` default horizon.
    horizon_s: float = 8.0


class ExploreTune:
    name = "explore-tune"
    #: Each adaptive round is a few large cohort jobs.  Split over two
    #: workers on two shared vCPUs, the pass time depends on which worker
    #: gets which cohort, so timed passes run in this process.
    max_workers = 1
    modules = ("repro.explore", "repro.runner")

    def __init__(self, scale: ExploreScale):
        self.scale = scale

    def space(self) -> DesignSpace:
        s = self.scale
        return DesignSpace(
            axes={
                "little_cores": s.little_cores,
                "big_cores": s.big_cores,
                "hmp_up": s.hmp_up,
                "gov_target_load": s.gov_target_load,
                "gov_hold_ms": s.gov_hold_ms,
                "workloads": (("browser", "pdf-reader"),),
            },
            budget=Budget(max_area_mm2=20.5),
        )

    def setup(self, seed: int, work_dir: str, workers: int) -> DesignSpace:
        space = self.space()
        if not space.feasible_points():
            raise ValueError("explore space has no feasible points")
        return space

    def run_pass(
        self, space: DesignSpace, seed: int, work_dir: str, workers: int,
        rec: Optional[SpanRecorder] = None,
    ) -> PassOutput:
        cache_dir = tempfile.mkdtemp(prefix="explore-", dir=work_dir)
        tally = Tally()
        runner = RecordingRunner(
            tally, workers=workers, cache=ResultCache(root=cache_dir),
            cohorts=True, retries=1,
        )
        study = ExploreStudy(
            space, make_sampler("adaptive", seed=seed), runner=runner,
            full_horizon_s=self.scale.horizon_s, seed=seed,
        )
        errors: list[str] = []
        result = None
        mat0 = _materializations()
        t0 = time.perf_counter()
        try:
            result = study.run()
        except Exception:
            errors.append(traceback.format_exc())
        wall = time.perf_counter() - t0
        mat = _materializations() - mat0
        shutil.rmtree(cache_dir, ignore_errors=True)

        results = tally.results()
        hv = result.hypervolume() if result is not None else 0.0
        frontier = [e.point.key() for e in result.frontier()] if result is not None else []
        out = PassOutput(
            wall_s=wall,
            sim_s=fsum(r.duration_s for r in results),
            attempted=tally.jobs,
            failed=tally.jobs_failed,
            digest=_digest(_scalars_json(results) + [repr(hv)] + frontier),
            tally=tally,
            errors=errors,
            materializations=mat,
        )
        out.extra["frontier_hv"] = hv
        evaluated = len(result.evaluations) if result is not None else 0
        complete = result is not None and all(
            e.objectives is not None for e in result.evaluations
        )
        out.checks.append(("explore.all_points_evaluated", complete and evaluated > 0,
                           f"{evaluated} evaluations"))
        out.checks.append(("explore.frontier_nonempty", hv > 0 and bool(frontier),
                           f"{len(frontier)} frontier points, hv {hv!r}"))
        return out


# ---------------------------------------------------------------------------
# lake-mixed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LakeScale:
    #: The lake of the cross-run walkthrough in ``EXPERIMENTS.md``
    #: ("Cross-run analytics"): three apps on the default core config,
    #: 10 s runs, three seeds each.
    apps: tuple[str, ...] = ("bbench", "browser", "video-player")
    max_seconds: float = 10.0
    initial_seeds: int = 3
    #: Further seeds per app, held back from set-up and stored during the
    #: stream.  No document gives a write rate: 18 stores against 36
    #: queries a pass is an assumption.
    held_seeds: int = 6
    #: Query blocks per pass; each block runs every documented query once.
    blocks: int = 3
    dense_samples: int = 4


#: The lake queries the repository documents, as ``(where, group_by,
#: aggregates)``.  Every block of the stream runs each one once; no
#: document says how often each is asked, so equal weights are an
#: assumption.  ``APP`` cycles through a seeded permutation of the apps
#: and ``SEED`` through the seeds the lake starts with.
DOCUMENTED_QUERIES = (
    # README.md, "Trace lake".
    ({"workload": "APP"}, ("scheduler",), ("count", "mean:avg_power_mw", "migrations")),
    ({}, ("workload",), ("residency:big", "energy")),
    # EXPERIMENTS.md, "Cross-run analytics".
    ({}, ("workload",), ("count", "residency:big", "migrations", "energy")),
    ({"workload": "APP"}, ("seed",), ("mean:avg_power_mw", "residency:little")),
    # scripts/bench_engine.py, the lake-query scenario.
    ({}, ("workload",), ("count", "residency:little")),
    ({}, ("workload",), ("residency:big",)),
    ({}, ("workload",), ("freq_hist:little",)),
    ({}, ("workload",), ("freq_hist:big",)),
    ({}, ("workload",), ("migrations",)),
    ({}, ("workload",), ("energy",)),
    ({"seed": "SEED"}, (), ("count", "mean:avg_power_mw")),
    ({}, ("seed",), ("sum:energy_mj",)),
)


@dataclass
class Lake:
    root: str
    #: Specs whose results the set-up lake holds.
    initial: list[RunSpec]
    #: Held-back ``(rle spec, dense result)`` pairs in store order: one
    #: run of every app per round.
    held: list[tuple[RunSpec, Any]]
    initial_seeds: list[int]
    digest: str


class LakeMixed:
    name = "lake-mixed"
    #: The timed stream runs in the benchmark process; set-up may use
    #: two workers.
    max_workers = 1
    modules = ("repro.lake", "repro.runner")

    def __init__(self, scale: LakeScale):
        self.scale = scale

    def setup(self, seed: int, work_dir: str, workers: int) -> Lake:
        """Simulate every lake run, then store the initial ones."""
        s = self.scale
        rng = random.Random(seed)
        n = s.initial_seeds + s.held_seeds
        seeds = [seed * n + k for k in range(n)]

        def spec(app: str, run_seed: int) -> RunSpec:
            return RunSpec(app, seed=run_seed, max_seconds=s.max_seconds, trace_policy="rle")

        initial = [spec(app, x) for app in s.apps for x in seeds[:s.initial_seeds]]
        held: list[RunSpec] = []
        for x in seeds[s.initial_seeds:]:
            apps = list(s.apps)
            rng.shuffle(apps)
            held.extend(spec(app, x) for app in apps)
        # Held-back runs come back dense, so each store encodes its trace
        # as the worker of an rle sweep would.
        dense = [dataclasses.replace(h, trace_policy="full") for h in held]
        report = BatchRunner(workers=workers).run(initial + dense)
        report.raise_on_failure()
        root = tempfile.mkdtemp(prefix="lake-", dir=work_dir)
        cache = ResultCache(root=root)
        for h, result in zip(initial, report.results):
            cache.store(h, result)
        held_results = [
            dataclasses.replace(r, spec_key=h.key())
            for h, r in zip(held, report.results[len(initial):])
        ]
        return Lake(
            root=root, initial=initial, held=list(zip(held, held_results)),
            initial_seeds=seeds[:s.initial_seeds],
            digest=_digest(_scalars_json(report.results)),
        )

    def stream(self, seed: int, lake: Lake) -> list[tuple]:
        """Queries with the stores spread evenly between them, seeded."""
        rng = random.Random(seed * 7919 + 1)
        apps = list(self.scale.apps)
        seeds = list(lake.initial_seeds)
        rng.shuffle(apps)
        rng.shuffle(seeds)
        queries: list[tuple] = []
        for _ in range(self.scale.blocks):
            block = list(DOCUMENTED_QUERIES)
            rng.shuffle(block)
            for where, group, aggs in block:
                n = len(queries)
                params = {"APP": apps[n % len(apps)], "SEED": seeds[n % len(seeds)]}
                filters = {dim: params.get(value, value) for dim, value in where.items()}
                queries.append(("query", filters, group, aggs))
        ops: list[tuple] = []
        n_q, n_s = len(queries), len(lake.held)
        for i, query in enumerate(queries):
            ops.append(query)
            ops.extend(("store", j) for j in range(i * n_s // n_q, (i + 1) * n_s // n_q))
        return ops

    def run_pass(
        self, lake: Lake, seed: int, work_dir: str, workers: int,
        rec: Optional[SpanRecorder] = None,
    ) -> PassOutput:
        root = os.path.join(tempfile.mkdtemp(prefix="lakepass-", dir=work_dir), "lake")
        shutil.copytree(lake.root, root)
        cache = ResultCache(root=root)
        catalog = Catalog(root=root)
        ops = self.stream(seed, lake)
        entries_read = global_metrics().counter("lake.query.entries")
        query_ms: list[float] = []
        store_ms: list[float] = []
        outputs: list[str] = []
        errors: list[str] = []
        kernel_entries = 0
        failed = 0
        mat0 = _materializations()
        t0 = time.perf_counter()
        for op in ops:
            entries0 = entries_read.value
            start = time.perf_counter()
            try:
                if op[0] == "query":
                    _kind, where, group, aggs = op
                    result = LakeQuery(catalog).where(**where).group_by(*group).agg(*aggs).run()
                    outputs.append(result.to_json(indent=0))
                else:
                    spec, dense = lake.held[op[1]]
                    cache.store(spec, finalize_result(spec, dataclasses.replace(dense)))
            except Exception:
                # A failed operation counts in fail_frac, not in latency.
                failed += 1
                errors.append(traceback.format_exc())
                continue
            elapsed_ms = (time.perf_counter() - start) * 1e3
            if op[0] == "query":
                query_ms.append(elapsed_ms)
                if any(a in KERNEL_AGGS for a in op[3]):
                    kernel_entries += entries_read.value - entries0
            else:
                store_ms.append(elapsed_ms)
        wall = time.perf_counter() - t0
        mat_delta = _materializations() - mat0
        entries = catalog.entries()
        # A kernel query reads the trace of every entry it selects.  Runs
        # that finish early (bbench) make the mean length slightly inexact.
        mean_run_s = fsum(e.metrics["duration_s"] for e in entries) / len(entries)

        out = PassOutput(
            wall_s=wall,
            sim_s=(kernel_entries + cache.stats.entries_written) * mean_run_s,
            attempted=len(ops),
            failed=failed,
            digest=_digest(outputs),
            query_ms=query_ms,
            store_ms=store_ms,
            errors=errors,
            materializations=mat_delta,
        )
        out.checks.append(("lake.zero_materializations", mat_delta == 0,
                           f"trace.materializations delta {mat_delta}"))
        n_entries = len(entries)
        want = len(lake.initial) + len(lake.held)
        out.checks.append(("lake.catalog_complete", n_entries == want,
                           f"{n_entries}/{want} entries"))
        out.checks.append(self._dense_check(lake, seed, root))
        shutil.rmtree(os.path.dirname(root), ignore_errors=True)
        return out

    def _dense_check(self, lake: Lake, seed: int, root: str) -> tuple[str, bool, str]:
        """RLE kernels on a seeded sample of stored entries equal their dense twins."""
        rng = random.Random(seed + 104729)
        held = {spec: result.trace for spec, result in lake.held}
        sample = rng.sample(lake.initial + list(held), self.scale.dense_samples)
        version_dir = os.path.join(root, ResultCache(root=root).version)
        for spec in sample:
            path = os.path.join(version_dir, spec.key(), ResultCache.RLE_TRACE_FILE)
            rle = load_trace_lazy(path).rle
            # A stored run is checked against the dense trace it was
            # encoded from; a set-up run against its densified file.
            dense = held[spec] if spec in held else load_trace(path)
            checks = [
                ("migrations", migrations(rle), dense_migrations(dense)),
                ("energy", cluster_energy(rle), dense_cluster_energy(dense)),
            ] + [
                (f"freq_hist:{ct.name.lower()}", freq_histogram(rle, ct),
                 dense_freq_histogram(dense, ct))
                for ct in (CoreType.LITTLE, CoreType.BIG)
            ]
            for kernel, got, want in checks:
                if got != want:
                    return ("lake.kernels_match_dense", False,
                            f"{spec.label()} {kernel}: {got} != {want}")
        return ("lake.kernels_match_dense", True, f"{len(sample)} sampled entries")
