"""Sweep folding: witness intervals, fold groups, and their equivalence.

Sweep folding (:mod:`repro.runner.sweepfold`) resolves governor-sweep
variants without simulating them: a witness-certified copy of a
representative's result must equal the variant's own per-run execution
byte for byte, and fold grouping must never change what a batch
reports.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import global_metrics
from repro.runner import cohort, sweepfold
from repro.runner.cohort import execute_cohort, group_indices
from repro.runner.spec import RunSpec, execute_spec
from repro.sched.params import baseline_config
from repro.sim.traceio import trace_rle_to_bytes

SEED = 7


class TestSweepWitness:
    def test_down_threshold_interval(self):
        w = sweepfold.SweepWitness()
        w.note_down(0.30, True)   # 0.30 < dth held: dth must stay > 0.30
        w.note_down(0.80, False)  # 0.80 >= dth held: dth must stay <= 0.80
        assert w.covers(0.50, 80)
        assert w.covers(0.80, 80)
        assert not w.covers(0.30, 80)  # would flip the first comparison
        assert not w.covers(0.81, 80)  # would flip the second

    def test_hold_interval_is_integral(self):
        w = sweepfold.SweepWitness()
        w.note_hold(60, True)    # 60 < hold: hold must stay >= 61
        w.note_hold(90, False)   # 90 >= hold: hold must stay <= 90
        assert w.covers(0.5, 61)
        assert w.covers(0.5, 90)
        assert not w.covers(0.5, 60)
        assert not w.covers(0.5, 91)

    def test_unconstrained_witness_covers_everything(self):
        w = sweepfold.SweepWitness()
        assert w.covers(0.01, 0)
        assert w.covers(0.99, 10_000)

    def test_pick_spread_samples_extremes(self):
        pairs = [(i, (0.5, 10 * i)) for i in range(20)]
        picked = sweepfold.pick_spread(pairs, 4)
        assert len(picked) == 4
        assert picked[0] == 0 and picked[-1] == 19

    def test_fold_key_separates_non_swept_parameters(self):
        base = baseline_config()
        def spec(**gov):
            sched = replace(base, governor=replace(base.governor, **gov))
            return RunSpec("browser", scheduler=sched, max_seconds=1.0)

        a = sweepfold.fold_key(spec(hold_ms=40))
        b = sweepfold.fold_key(spec(hold_ms=120, down_threshold=0.4))
        c = sweepfold.fold_key(spec(hold_ms=40, target_load=0.8))
        assert a == b          # swept axes are free
        assert a != c          # arithmetic parameters are not
        shm = replace(spec(hold_ms=40), trace_policy="shm")
        assert sweepfold.fold_key(shm) is None


class TestSweepFolding:
    def _grid(self, holds, downs=(0.50,), seconds=1.0):
        base = baseline_config()
        specs = []
        for down in downs:
            for hold in holds:
                sched = replace(
                    base,
                    name=f"gov-d{round(down * 100)}-h{hold}",
                    governor=replace(
                        base.governor, down_threshold=down, hold_ms=hold
                    ),
                )
                specs.append(RunSpec(
                    "pdf-reader", scheduler=sched, seed=SEED,
                    max_seconds=seconds, reductions=("power_summary",),
                    trace_policy="full",
                ))
        return specs

    def _assert_results_equal(self, specs, ref, got):
        for spec, a, b in zip(specs, ref, got):
            assert b.spec_key == spec.key()
            assert a.scalars() == b.scalars(), spec.scheduler.name
            assert np.array_equal(
                np.asarray(a.trace.power_mw), np.asarray(b.trace.power_mw)
            ), spec.scheduler.name

    def test_hold_sweep_folds_and_matches_per_run(self):
        from repro.obs.metrics import global_metrics

        specs = self._grid(holds=range(60, 108, 4))  # 12 variants
        before = global_metrics().snapshot().counter("engine.batch.fold.folded")
        ref = [execute_spec(s) for s in specs]
        got = execute_cohort(specs)
        folded = (
            global_metrics().snapshot().counter("engine.batch.fold.folded")
            - before
        )
        assert folded > 0, "a 4 ms-step hold sweep must fold"
        self._assert_results_equal(specs, ref, got)

    def test_two_axis_grid_matches_per_run(self):
        specs = self._grid(holds=(70, 80, 90), downs=(0.49, 0.50, 0.51))
        ref = [execute_spec(s) for s in specs]
        got = execute_cohort(specs)
        self._assert_results_equal(specs, ref, got)

    def test_cloned_results_do_not_alias(self):
        specs = self._grid(holds=(78, 80, 82))
        got = execute_cohort(specs)
        got[0].trace.power_mw[0] = -1.0
        assert got[1].trace.power_mw[0] != -1.0
        got[0].reductions["power_summary"]["_poison"] = True
        assert "_poison" not in got[1].reductions["power_summary"]


class TestCohortJobOrdering:
    """BatchReport.jobs must keep submit order and stable labels even
    when fold grouping reorders execution."""

    def _interleaved_specs(self, n):
        # One seed for every variant, so each app's hold sweep is one
        # fold family whose members interleave with the other app's.
        base = baseline_config()
        specs = []
        for i in range(n):
            for app in ("pdf-reader", "bbench"):
                sched = replace(
                    base,
                    name=f"gov-hold-{60 + 10 * i}",
                    governor=replace(base.governor, hold_ms=60 + 10 * i),
                )
                specs.append(RunSpec(
                    app, scheduler=sched, seed=SEED, max_seconds=0.5,
                    trace_policy="none",
                ))
        return specs

    def _run(self, specs, workers):
        from repro.runner import BatchRunner

        groups = []

        def on_event(event):
            if event.event == "cohort_start":
                groups.append(event.extra["indices"])

        report = BatchRunner(
            workers=workers, cohorts=True, on_event=on_event
        ).run(specs)
        report.raise_on_failure()
        assert [j.index for j in report.jobs] == list(range(len(specs)))
        assert [j.label for j in report.jobs] == [s.label() for s in specs]
        for spec, result in zip(specs, report.results):
            assert result is not None
            assert result.spec_key == spec.key()
            assert result.workload == spec.workload
        return sorted(groups)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_keeps_submit_order(self, workers):
        # Families one larger than a round of representatives: the
        # smallest that run as fold groups.
        n = cohort.FOLD_ROUND_REPS + 1
        specs = self._interleaved_specs(n)
        families = [list(range(0, 2 * n, 2)), list(range(1, 2 * n, 2))]
        assert group_indices(specs) == families
        assert self._run(specs, workers) == families

    def test_families_too_small_to_fold_run_per_spec(self):
        # Every member would be a first-round representative, so the
        # family folds nothing and its members stay per-spec jobs.
        specs = self._interleaved_specs(cohort.FOLD_ROUND_REPS)
        assert len(group_indices(specs)) == 2
        assert self._run(specs, workers=1) == []


def _gov_spec(app, down=0.50, hold=80, **kwargs):
    base = baseline_config()
    sched = replace(
        base,
        name=f"gov-d{round(down * 100)}-h{hold}",
        governor=replace(base.governor, down_threshold=down, hold_ms=hold),
    )
    return RunSpec(app, scheduler=sched, seed=SEED, **kwargs)


class TestFoldProperty:
    """A random fold family resolves exactly as per-run execution would.

    Two representatives per round (instead of the production eight) let
    families this small fold at all; the axes are a narrow box around
    the baseline governor, where neighbouring variants often share an
    equivalence class.
    """

    @settings(max_examples=10, deadline=None)
    @given(
        app=st.sampled_from(["pdf-reader", "browser"]),
        axes=st.lists(
            st.tuples(
                st.sampled_from([0.45, 0.50, 0.55]),
                st.integers(min_value=60, max_value=100),
            ),
            min_size=2, max_size=6, unique=True,
        ),
    )
    def test_family_matches_per_run(self, app, axes):
        specs = [
            _gov_spec(app, down, hold, max_seconds=1.0, trace_policy="rle",
                      reductions=("power_summary", "residency"))
            for down, hold in axes
        ]
        snap = global_metrics().snapshot
        reps0 = snap().counter("engine.batch.fold.representatives")
        folded0 = snap().counter("engine.batch.fold.folded")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cohort, "FOLD_ROUND_REPS", 2)
            got = execute_cohort(specs)
        reps = snap().counter("engine.batch.fold.representatives") - reps0
        folded = snap().counter("engine.batch.fold.folded") - folded0
        assert reps + folded == len(specs)
        for spec, result in zip(specs, got):
            ref = execute_spec(spec)
            assert result.spec_key == spec.key()
            assert result.scalars() == ref.scalars(), spec.scheduler.name
            assert result.reductions == ref.reductions, spec.scheduler.name
            assert trace_rle_to_bytes(result.trace) == trace_rle_to_bytes(
                ref.trace
            ), spec.scheduler.name


class TestGroupIndices:
    def test_only_fold_families_group(self):
        specs = [
            _gov_spec("browser", hold=40, max_seconds=1.0),           # 0
            _gov_spec("pdf-reader", hold=40, max_seconds=1.0),        # 1
            _gov_spec("browser", hold=120, max_seconds=1.0),          # 2
            replace(_gov_spec("browser", hold=80, max_seconds=1.0),
                    trace_policy="shm"),                              # 3
            _gov_spec("browser", hold=40, max_seconds=2.0),           # 4
            _gov_spec("browser", down=0.4, max_seconds=1.0),          # 5
        ]
        # Same simulation modulo the swept axes folds; a different app,
        # horizon, or a shm trace (never folded) stays a singleton.
        assert group_indices(specs) == [[0, 2, 5], [1], [3], [4]]

    def test_batch_group_partitions_families(self):
        specs = [
            replace(_gov_spec("browser", hold=hold, max_seconds=1.0),
                    batch_group=group)
            for hold, group in ((40, "a"), (80, "b"), (120, "a"), (160, None))
        ]
        assert group_indices(specs) == [[0, 2], [1], [3]]
