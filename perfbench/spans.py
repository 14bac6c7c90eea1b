"""In-memory spans around the calls into each layer's public functions.

A :class:`SpanRecorder` replaces a function *where it is looked up*
(``repro.lake.query`` imports ``load_trace_lazy`` into its own
namespace, so that name is patched there, not in ``repro.sim.traceio``),
records ``(name, start, end, parent)`` for every call, and puts every
original back on :meth:`restore`.  Self time is a span's duration minus
the time its direct child spans cover; the recorder is single-threaded,
so children of one parent never overlap.

Only the benchmark process is traced: traced passes run with
``workers=1`` so every layer call happens here.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional


class SpanRecorder:
    """Records nested spans and per-simulator tick counts in memory."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]``; parent ``-1`` is a root.
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.ticks = 0
        self.ff_ticks = 0
        self.busy_ff_ticks = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is currently open."""
        return any(self.spans[i][0] == name for i in self._stack)

    def count_simulator(self, sim: Any) -> None:
        """Add one finished simulator's tick and fast-forward counts."""
        self.ticks += int(sim.tick)
        self.ff_ticks += int(sim.fastforward_ticks)
        self.busy_ff_ticks += int(sim.busy_fastforward_ticks)

    # -- patching ----------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(name, original.__func__, after))
        else:
            replacement = self.wrap(name, original, after)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (seconds)."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[i]
        return totals

    def write(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start_s": start - t0, "end_s": end - t0,
                }) + "\n")


def install_layer_spans(rec: SpanRecorder) -> None:
    """Patch the public entry points of every measured layer.

    ``obs`` and the TCP executor in ``dist`` are deliberately left out:
    the benchmark runs neither.
    """
    import repro.core.reductions as reductions
    import repro.lake.query as lake_query
    import repro.runner.cache as runner_cache
    import repro.runner.cohort as cohort
    import repro.runner.executors as executors
    import repro.runner.spec as runner_spec
    from repro.explore.study import ExploreStudy
    from repro.lake.catalog import Catalog
    from repro.lake.query import LakeQuery
    from repro.runner.batch import BatchRunner
    from repro.runner.cache import ResultCache
    from repro.sim.batchengine import BatchSimulator
    from repro.sim.engine import Simulator
    from repro.sim.traceio import LazyTrace

    def after_solo(args: tuple, _result: Any) -> None:
        # An evicted cohort lane finishes in a nested Simulator.run; the
        # enclosing BatchSimulator.run counts that simulator once.
        if not rec.inside("sim.batch.run"):
            rec.count_simulator(args[0])

    def after_batch(args: tuple, _result: Any) -> None:
        for lane in args[0].lanes:
            rec.count_simulator(lane.sim)

    rec.patch(Simulator, "run", "sim.run", after=after_solo)
    rec.patch(BatchSimulator, "run", "sim.batch.run", after=after_batch)
    rec.patch(runner_spec, "prepare_app_run", "sim.setup")
    rec.patch(cohort, "prepare_app_run", "sim.setup")
    rec.patch(lake_query, "load_trace_lazy", "sim.traceio.load")
    rec.patch(runner_cache, "load_trace_lazy", "sim.traceio.load")
    rec.patch(runner_cache, "save_trace_rle", "sim.traceio.save")
    rec.patch(LazyTrace, "from_trace", "sim.traceio.encode")

    rec.patch(BatchRunner, "run", "runner.batch")
    rec.patch(executors, "execute_spec", "runner.execute_spec")
    rec.patch(cohort, "execute_cohort", "runner.cohort")
    rec.patch(ResultCache, "load", "runner.cache.load")
    rec.patch(ResultCache, "store", "runner.cache.store")

    rec.patch(reductions, "compute_reductions", "core.reductions")

    rec.patch(LakeQuery, "run", "lake.query")
    for kernel in ("residency_counts", "freq_histogram", "migrations", "cluster_energy"):
        rec.patch(lake_query, kernel, "lake.kernels")
    rec.patch(Catalog, "entries", "lake.catalog.entries")
    rec.patch(Catalog, "append_store", "lake.catalog.append")

    rec.patch(ExploreStudy, "run", "explore")
