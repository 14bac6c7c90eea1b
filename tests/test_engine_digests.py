"""Pinned trace digests for the engine's stepped-tick path.

The golden tests in ``test_engine_fastpath.py`` compare the fast paths
with the reference loop, but both go through ``Simulator._step``: a
change to the stepped tick that shifts both paths the same way would
still pass there.  These tests pin the bytes instead.  Each scenario's
busy, frequency, power, per-cluster CPU power and wakeup columns are
hashed with sha256 and compared against digests recorded on the engine
before the stepped-tick rewrite (busy cores only, O(1) runqueue
counts, per-core throughput memo).  A mismatch means the simulator's
output changed; re-pin only for an intended behaviour change.
"""

import hashlib

import numpy as np
import pytest

from repro.platform.chip import CoreConfig, exynos5422
from repro.platform.coretypes import CoreType
from repro.platform.gpu import GpuSpec
from repro.platform.perfmodel import COMPUTE_BOUND, WorkClass
from repro.platform.thermal import ThermalParams
from repro.sched.cluster_switch import ClusterSwitchingScheduler
from repro.sched.efficiency_sched import EfficiencyScheduler
from repro.sched.parallelism_sched import ParallelismAwareScheduler
from repro.sim.engine import SimConfig, Simulator
from repro.sim.task import Task, Work
from repro.workloads.base import App, FramePipelineSpec, Metric
from repro.workloads.mobile import make_app


def trace_digest(sim: Simulator) -> str:
    """sha256 over every recorded trace column, in a fixed order."""
    trace = sim.trace
    columns = [trace.busy, trace.power_mw, trace.wakeups]
    for ct in (CoreType.LITTLE, CoreType.BIG):
        columns.append(trace.freq_khz(ct))
        columns.append(trace.cpu_power_mw(ct))
    h = hashlib.sha256()
    for col in columns:
        arr = np.ascontiguousarray(col)
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _spec_compute(count):
    def behavior(ctx):
        while True:
            yield Work(10.0)

    def install(sim):
        for i in range(count):
            sim.spawn(Task(f"spec-{i}", behavior, COMPUTE_BOUND))

    return install


_GAME = WorkClass("gpu-game", compute_fraction=0.85, wss_kb=512, ilp=0.6)


class _GpuGame(App):
    """A frame pipeline whose frames also carry GPU work."""

    def __init__(self):
        super().__init__("gpu-game", Metric.FPS, _GAME,
                         ambient_ui_duty=0.0, ambient_bg_interval_ms=300)

    def build(self, sim):
        self.add_frame_pipeline(sim, FramePipelineSpec(
            logic_units=0.0035, render_units=0.0040, units_sigma=0.25,
            gpu_units=0.008))


def _app(name):
    return lambda sim: make_app(name).install(sim)


#: id -> (SimConfig kwargs, installer).
SCENARIOS = {
    "pdf-L4B4-hmp-s1": (dict(seed=1), _app("pdf-reader")),
    "browser-L2B2-hmp-s3-reference": (
        dict(seed=3, core_config=CoreConfig(little=2, big=2), fastpath=False),
        _app("browser"),
    ),
    "video-L4B1-efficiency-s2": (
        dict(seed=2, core_config=CoreConfig(little=4, big=1),
             scheduler_factory=EfficiencyScheduler),
        _app("video-player"),
    ),
    "bbench-L4B4-parallelism-s4": (
        dict(seed=4, scheduler_factory=ParallelismAwareScheduler),
        _app("bbench"),
    ),
    "voice-L4B4-clusterswitch-s5": (
        dict(seed=5, scheduler_factory=ClusterSwitchingScheduler),
        _app("voice-call"),
    ),
    "spec4-L4B4-hmp-s7-busyff": (dict(seed=7), _spec_compute(4)),
    "spec6-L2B2-hmp-s1-thermal": (
        dict(seed=1, core_config=CoreConfig(little=2, big=2),
             thermal=ThermalParams()),
        _spec_compute(6),
    ),
    "gpugame-L4B4-hmp-s0-gpu": (
        dict(seed=0, chip=exynos5422(screen_on=True), gpu=GpuSpec()),
        lambda sim: _GpuGame().install(sim),
    ),
}

#: Recorded on the engine before the stepped-tick rewrite; 3 s runs.
PINNED = {
    "pdf-L4B4-hmp-s1":
        "220f4fe3519695795b8447e65a47a3d99366f58ddb7584cd03b973bf9b16c378",
    "browser-L2B2-hmp-s3-reference":
        "c2ae71de88b74b30f0503269f4215ac8017d08b291e73365e0bcbae93b34c046",
    "video-L4B1-efficiency-s2":
        "dbde973e8455ac4d75b637236ccfcb625187b939bc7e159fb2266cc6611bc0f1",
    "bbench-L4B4-parallelism-s4":
        "c6ee23a2f7842e4fa9e79df98bc3bf0e987147dcda8988b4f6466fa4dfa38583",
    "voice-L4B4-clusterswitch-s5":
        "028cac74339b47ab3772f23e3e511b474b051441baa5dee272998aed38785d84",
    "spec4-L4B4-hmp-s7-busyff":
        "38d9f3a4aa747caadbfaec8a8067cde3a2278c9aa8d72557afe0cc1fef40e486",
    "spec6-L2B2-hmp-s1-thermal":
        "2c7f166023daf3c0e850bafc90deada2096ff0d4ef50323a213480cb79669d4e",
    "gpugame-L4B4-hmp-s0-gpu":
        "9a099d5e340cfd43a1812b55844af6da85eca38c850d9dead75f046777dd409d",
}


def run_scenario(name: str) -> Simulator:
    kwargs, install = SCENARIOS[name]
    sim = Simulator(SimConfig(max_seconds=3.0, **kwargs))
    install(sim)
    sim.run()
    return sim


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_digest_is_pinned(name):
    assert trace_digest(run_scenario(name)) == PINNED[name]


def test_scenarios_cover_the_stepped_paths():
    """The pinned set spans the reference loop, both fast-forwards,
    per-tick power (thermal, GPU) and every scheduler."""
    ref = run_scenario("browser-L2B2-hmp-s3-reference")
    assert not ref.fastpath_enabled and ref._deferred is None
    busy = run_scenario("spec4-L4B4-hmp-s7-busyff")
    assert busy.busy_fastforward_ticks > 0
    idle = run_scenario("pdf-L4B4-hmp-s1")
    assert idle.fastforward_ticks > idle.busy_fastforward_ticks
    for name in ("spec6-L2B2-hmp-s1-thermal", "gpugame-L4B4-hmp-s0-gpu"):
        sim = run_scenario(name)
        assert sim._deferred is None and sim.fastforward_ticks == 0
