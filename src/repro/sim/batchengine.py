"""Run a fold group's simulators one after another on the scalar engine.

:func:`repro.runner.cohort.execute_cohort` hands each round of a
governor-sweep fold group to :class:`BatchSimulator`, which runs every
simulator to completion with :meth:`Simulator.run` in the order given.
The class is the single call site that brackets fold-group simulation,
so tools can time and count it apart from ordinary per-spec runs; each
:class:`Lane` keeps the finished simulator for that inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


@dataclass
class Lane:
    """One simulator of a :class:`BatchSimulator` and how far it got."""

    sim: "Simulator"
    #: ``"pending"`` until :meth:`BatchSimulator.run` finishes it, then
    #: ``"retired"``.
    status: str = "pending"


class BatchSimulator:
    """Runs fully constructed, not yet run simulators in sequence."""

    def __init__(self, sims: list["Simulator"]):
        if not sims:
            raise ValueError("BatchSimulator needs at least one simulator")
        self.lanes = [Lane(sim) for sim in sims]

    def run(self) -> list[Lane]:
        """Run every simulator to completion; one lane per simulator."""
        for lane in self.lanes:
            lane.sim.run()
            lane.status = "retired"
        return self.lanes
