"""Runqueue invariant of the stepped tick, under every scheduler.

The engine steps only cores with queued tasks and counts runnable tasks
as the runqueue length.  Both rest on one invariant: a runqueue holds
only RUNNABLE tasks, because blocking and finishing dequeue at once.
A tick hook forces every tick onto the stepped path; the test checks
the invariant at tick start (after wakeups) and after execution, and
checks that every core, idle or not, ends up with exactly the state
``begin_tick`` would have given it.
"""

import pytest

from repro.platform.chip import CoreConfig
from repro.platform.perfmodel import COMPUTE_BOUND
from repro.sched.cluster_switch import ClusterSwitchingScheduler
from repro.sched.efficiency_sched import EfficiencyScheduler
from repro.sched.hmp import HMPScheduler
from repro.sched.parallelism_sched import ParallelismAwareScheduler
from repro.sim.engine import SimConfig, Simulator
from repro.sim.task import Sleep, Task, TaskState, Work
from repro.workloads.mobile import make_app

SCHEDULERS = [
    HMPScheduler,
    EfficiencyScheduler,
    ParallelismAwareScheduler,
    ClusterSwitchingScheduler,
]


def assert_runqueues_runnable(sim):
    for core in sim.cores:
        assert core.nr_running() == len(core.runqueue)
        for task in core.runqueue:
            assert task.state is TaskState.RUNNABLE, (task, core)
            assert task.core_id == core.core_id


def burst_behavior(ctx):
    """Bursts of varying length with short sleeps: tasks block and wake
    on most ticks, and some bursts outgrow a little core."""
    i = 0
    while True:
        i += 1
        yield Work(0.0005 * (1 + i % 7))
        yield Sleep(0.001 * (i % 3))


def install_mixed(sim):
    make_app("bbench").install(sim)
    for i in range(3):
        sim.spawn(Task(f"burst-{i}", burst_behavior, COMPUTE_BOUND))


def run_checked(scheduler, core_config):
    sim = Simulator(SimConfig(
        max_seconds=1.5, seed=3, core_config=core_config,
        scheduler_factory=scheduler,
    ))
    install_mixed(sim)
    start_queues = []
    process_wakeups = sim._process_wakeups

    def wakeups_then_snapshot():
        # Tick start: the previous tick's scheduler pass and this
        # tick's wakeups are done, and no core has begun yet.
        process_wakeups()
        assert_runqueues_runnable(sim)
        start_queues[:] = [list(core.runqueue) for core in sim.cores]

    def after_execution(sim):
        assert_runqueues_runnable(sim)
        for core, queued in zip(sim.cores, start_queues):
            assert core.tick_tasks == queued
            assert core.nr_start == len(queued)
            if not queued:
                assert core.tick_tasks == []
                assert core.busy_in_tick_s == 0.0
                assert core.activity_weighted_s == 0.0
        for core in sim.cores:
            for task in core.tick_tasks:
                ran_on.setdefault(task.tid, set()).add(core.core_id)
        stats["ticks"] += 1
        stats["idle_core_ticks"] += sum(1 for q in start_queues if not q)
        stats["busy_core_ticks"] += sum(1 for q in start_queues if q)

    stats = {"ticks": 0, "idle_core_ticks": 0, "busy_core_ticks": 0}
    ran_on = {}
    sim._process_wakeups = wakeups_then_snapshot
    sim.add_tick_hook(after_execution)
    sim.run()
    assert sim.fastforward_ticks == 0
    assert stats["ticks"] == len(sim.trace)
    stats["moved_tasks"] = sum(1 for cores in ran_on.values() if len(cores) > 1)
    return stats


@pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: s.__name__)
@pytest.mark.parametrize(
    "core_config",
    [CoreConfig(little=4, big=4), CoreConfig(little=2, big=1)],
    ids=["L4B4", "L2B1"],
)
def test_runqueues_hold_only_runnable_tasks(scheduler, core_config):
    stats = run_checked(scheduler, core_config)
    # Idle and busy cores were both stepped, and tasks changed cores.
    assert stats["idle_core_ticks"] > 0
    assert stats["busy_core_ticks"] > 0
    assert stats["moved_tasks"] > 0
