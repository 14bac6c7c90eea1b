"""Golden-trace tests for the fold-group runner :mod:`repro.sim.batchengine`.

:class:`repro.sim.batchengine.BatchSimulator` runs each simulator it is
given to completion, in order, on the scalar engine.  Its contract is
that it adds nothing to a run: every simulator it finishes — alone,
beside others, observed, or under input boost — must leave the exact
trace, task state, and event stream a plain ``sim.run()`` would have
left, and :func:`repro.runner.cohort.execute_cohort` must count every
spec it resolves under ``engine.batch.lanes``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.obs import Observation, event_to_dict
from repro.obs.metrics import global_metrics
from repro.platform.chip import CoreType
from repro.runner.cohort import execute_cohort
from repro.runner.spec import RunSpec
from repro.sched.params import baseline_config
from repro.sim.batchengine import BatchSimulator
from repro.sim.engine import SimConfig, Simulator
from repro.workloads.mobile import MOBILE_APP_NAMES, make_app

SEED = 7
SECONDS = 1.0


def _make_sim(app, seconds=SECONDS, seed=SEED, scheduler=None, observe=False):
    kwargs = {"max_seconds": seconds, "seed": seed}
    if scheduler is not None:
        kwargs["scheduler"] = scheduler
    sim = Simulator(SimConfig(**kwargs))
    obs = Observation.attach(sim) if observe else None
    make_app(app).install(sim)
    return sim, obs


def _signature(sim):
    """Everything a run leaves behind, as comparable arrays/tuples."""
    trace = sim.trace
    return {
        "power": np.asarray(trace.power_mw),
        "busy": np.asarray(trace.busy),
        "wakeups": np.asarray(trace.wakeups),
        "freq_little": np.asarray(trace.freq_khz(CoreType.LITTLE)),
        "freq_big": np.asarray(trace.freq_khz(CoreType.BIG)),
        "cpow_little": np.asarray(trace.cpu_power_mw(CoreType.LITTLE)),
        "cpow_big": np.asarray(trace.cpu_power_mw(CoreType.BIG)),
        "tasks": [
            (t.name, t.total_busy_s, t.load.value, t.core_id, t._remaining_units)
            for t in sim.tasks
        ],
    }


def _assert_identical(ref, got, context=""):
    assert ref["tasks"] == got["tasks"], f"{context}: task state differs"
    for key in ref:
        if key == "tasks":
            continue
        assert np.array_equal(ref[key], got[key]), f"{context}: {key} differs"


class TestGoldenTraces:
    @pytest.mark.parametrize("app", MOBILE_APP_NAMES)
    def test_every_app_solo_cohort_matches_reference(self, app):
        ref, _ = _make_sim(app)
        ref.run()
        sim, _ = _make_sim(app)
        (lane,) = BatchSimulator([sim]).run()
        assert lane.sim is sim and lane.status == "retired"
        assert sim.tick == sim.max_ticks
        _assert_identical(_signature(ref), _signature(sim), app)

    def test_mixed_cohort_matches_solo_references(self):
        apps = ("pdf-reader", "bbench", "browser", "video-editor")
        refs = {}
        for app in apps:
            ref, _ = _make_sim(app)
            ref.run()
            refs[app] = _signature(ref)
        sims = [_make_sim(app)[0] for app in apps]
        lanes = BatchSimulator(sims).run()
        assert [lane.sim for lane in lanes] == sims
        assert all(lane.status == "retired" for lane in lanes)
        for app, sim in zip(apps, sims):
            _assert_identical(refs[app], _signature(sim), app)

    def test_observed_cohort_matches_observed_reference(self):
        # Observation must not perturb the run, and running through the
        # batch runner must not change the event stream.
        def stream(obs):
            out = []
            for event in obs.events:
                d = event_to_dict(event)
                d.pop("tid", None)
                out.append(d)
            return out

        ref, ref_obs = _make_sim("browser", observe=True)
        ref.run()
        sim, obs = _make_sim("browser", observe=True)
        BatchSimulator([sim]).run()
        _assert_identical(_signature(ref), _signature(sim), "observed")
        assert stream(ref_obs) == stream(obs)

    def test_input_boost_cohort_matches_reference(self):
        base = baseline_config()
        boosted = replace(
            base,
            name="boost-40",
            governor=replace(base.governor, input_boost_ms=40),
        )
        for app in ("bbench", "photo-editor"):
            ref, _ = _make_sim(app, scheduler=boosted)
            ref.run()
            sim, _ = _make_sim(app, scheduler=boosted)
            BatchSimulator([sim]).run()
            _assert_identical(_signature(ref), _signature(sim), f"{app} boost")

    def test_metrics_account_every_lane(self):
        # engine.batch.lanes counts every spec execute_cohort resolves —
        # simulated singles, fold representatives and folded copies alike.
        base = baseline_config()

        def spec(app, hold):
            sched = replace(
                base,
                name=f"gov-h{hold}",
                governor=replace(base.governor, hold_ms=hold),
            )
            return RunSpec(app, scheduler=sched, seed=SEED, max_seconds=0.5)

        specs = [spec("pdf-reader", hold) for hold in (40, 80, 120, 160)]
        specs.append(spec("bbench", 80))
        snap = global_metrics().snapshot
        lanes0 = snap().counter("engine.batch.lanes")
        reps0 = snap().counter("engine.batch.fold.representatives")
        folded0 = snap().counter("engine.batch.fold.folded")
        results = execute_cohort(specs)
        assert [r.spec_key for r in results] == [s.key() for s in specs]
        assert snap().counter("engine.batch.lanes") - lanes0 == len(specs)
        reps = snap().counter("engine.batch.fold.representatives") - reps0
        folded = snap().counter("engine.batch.fold.folded") - folded0
        # The pdf-reader hold sweep is the one fold family.
        assert reps + folded == 4
