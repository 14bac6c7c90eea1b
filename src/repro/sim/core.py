"""Per-core runtime state and intra-tick execution.

Each :class:`SimCore` owns a runqueue of tasks.  Within one engine tick
the core executes its runnable tasks under **processor sharing** with
water-filling: the tick's wall time is divided equally among runnable
tasks, and time unused by tasks that block or finish early is
redistributed to the remaining ones.  This yields continuous per-tick
busy fractions and per-task CPU time without sub-tick event scheduling.

Runqueues hold only RUNNABLE tasks: a task that blocks or finishes is
dequeued at once (``Simulator.on_task_blocked`` /
``on_task_finished``), and wakeups enqueue only tasks left runnable.
So :meth:`SimCore.nr_running` is the runqueue length, and the engine
steps a core only when its runqueue is non-empty at tick start.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.platform.coretypes import CoreSpec, CoreType
from repro.platform.perfmodel import WorkClass, throughput_units_per_sec
from repro.sim.task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

_TIME_EPS_S = 1e-12


class SimCore:
    """One physical core: identity, runqueue, and per-tick accounting."""

    def __init__(self, core_id: int, spec: CoreSpec, enabled: bool, max_freq_khz: int):
        self.core_id = core_id
        self.spec = spec
        self.enabled = enabled
        self.max_freq_khz = max_freq_khz
        self.freq_khz = 0  # set by the engine/governor before execution
        self.runqueue: list[Task] = []

        # Per-tick accounting (reset each tick).
        self.busy_in_tick_s = 0.0
        self.activity_weighted_s = 0.0
        self.tick_tasks: list[Task] = []
        self.nr_start = 0

        # Governor window accounting (reset each governor sample).
        self.busy_in_window_s = 0.0

        # cpuidle: consecutive fully-idle ticks (engine-maintained).
        self.idle_ticks = 0

        # DRAM contention multiplier for this tick (engine-maintained,
        # derived from the previous tick's busy core count).
        self.memory_contention = 1.0

        # Throughput memo: (freq_khz, contention) -> {work class: units/s}.
        # Frequencies come from the OPP table and contention takes one
        # value per busy-core count, so it stays small.
        self._throughput_memo: dict[tuple[int, float], dict[WorkClass, float]] = {}

    def __repr__(self) -> str:
        return (
            f"SimCore({self.core_id}, {self.spec.core_type.value}, "
            f"{'on' if self.enabled else 'off'}, rq={len(self.runqueue)})"
        )

    @property
    def core_type(self) -> CoreType:
        return self.spec.core_type

    def nr_running(self) -> int:
        """Number of runnable tasks queued on this core (every queued task)."""
        return len(self.runqueue)

    def queued_load(self) -> float:
        """Sum of tracked loads of queued tasks (for balancing decisions)."""
        return sum(t.load.value for t in self.runqueue)

    def enqueue(self, task: Task) -> None:
        if task.core_id is not None:
            raise RuntimeError(f"task {task.name} already on core {task.core_id}")
        task.core_id = self.core_id
        self.runqueue.append(task)

    def dequeue(self, task: Task) -> None:
        self.runqueue.remove(task)
        task.last_core_id = self.core_id
        task.core_id = None

    def begin_tick(self) -> None:
        """Reset per-tick accounting and snapshot the tick's participants.

        Tasks that block mid-tick are dequeued immediately, but their
        load must still be sampled for the portion of the tick they ran
        (otherwise bursty tasks would never accumulate load), so the
        queued tasks are kept in ``tick_tasks``.  An idle core's reset
        is done inline by the engine (``tick_tasks == []``,
        ``nr_start == 0``, no busy time).
        """
        self.busy_in_tick_s = 0.0
        self.activity_weighted_s = 0.0
        for task in self.runqueue:
            task.busy_in_tick_s = 0.0
        self.tick_tasks = list(self.runqueue)
        self.nr_start = len(self.tick_tasks)

    def execute_tick(self, tick_s: float, sim: "Simulator") -> None:
        """Run this tick's participants for one tick (water-filling).

        Only ``tick_tasks`` run: a task spawned onto the core mid-tick
        waits for the next tick, and nothing else can join a runqueue
        before the scheduler pass that follows execution.
        """
        if not self.enabled or not self.tick_tasks:
            return
        remaining = tick_s
        # Frequency and contention are fixed for the whole tick, so one
        # throughput closure serves every task and water-filling round.
        throughput_fn = self.throughput_fn(self.freq_khz, self.memory_contention)
        active = self.tick_tasks
        while True:
            share = remaining / len(active)
            used_sum = 0.0
            any_blocked = False
            for task in active:
                used = task.run_for(share, throughput_fn, sim)
                used_sum += used
                self.activity_weighted_s += used * task.current_activity_factor()
                if task.state is not TaskState.RUNNABLE:
                    any_blocked = True
            self.busy_in_tick_s += used_sum
            remaining -= used_sum
            if not any_blocked or remaining <= _TIME_EPS_S:
                # Everyone consumed a full share (the tick is exhausted
                # up to float error), or no time is left to hand out.
                break
            active = [t for t in active if t.state is TaskState.RUNNABLE]
            if not active:
                break
        self.busy_in_window_s += self.busy_in_tick_s

    def throughput_fn(self, freq_khz: int, contention: float) -> Callable[[WorkClass], float]:
        """``work_class -> units/s`` on this core at ``freq_khz`` under
        ``contention``, memoized per core so a lookup never hashes the
        core spec."""
        key = (freq_khz, contention)
        memo = self._throughput_memo.get(key)
        if memo is None:
            memo = self._throughput_memo[key] = {}
        spec = self.spec

        def tput(work_class: WorkClass) -> float:
            rate = memo.get(work_class)
            if rate is None:
                rate = memo[work_class] = throughput_units_per_sec(
                    spec, freq_khz, work_class, memory_contention=contention
                )
            return rate

        return tput

    def busy_fraction(self, tick_s: float) -> float:
        return min(1.0, self.busy_in_tick_s / tick_s)

    def mean_activity_factor(self) -> float:
        """CPU-time-weighted activity factor of work run this tick."""
        if self.busy_in_tick_s <= 0:
            return 1.0
        return self.activity_weighted_s / self.busy_in_tick_s
