"""Fold-group execution of governor sweeps on the scalar engine.

The :class:`~repro.runner.batch.BatchRunner` hands this module *fold
groups*: specs identical except for the two comparison-only governor
axes (``down_threshold`` / ``hold_ms``, see
:mod:`repro.runner.sweepfold`).  Representatives run one after another
on the ordinary :class:`~repro.sim.engine.Simulator` with a witness
attached, and every member a witness interval provably covers receives
a copy of its representative's result instead of a simulation.  Each
run is finished through the exact per-spec tail
(:func:`finish_app_run` + :func:`finalize_result`) a solo run uses, so
results — and therefore cache entries — stay per-spec and bit-identical
to per-run execution.

Grouping exists only for folding: :func:`group_indices` groups by
:func:`~repro.runner.sweepfold.fold_key` plus
:attr:`RunSpec.batch_group`, and every other spec stays an ordinary
per-spec job.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.runner import sweepfold
from repro.runner.spec import (
    RunResult,
    RunSpec,
    execute_spec,
    finalize_result,
    finish_app_run,
    prepare_app_run,
)


def group_indices(specs: Sequence[RunSpec]) -> list[list[int]]:
    """Partition spec indices into fold groups and singletons.

    Specs sharing a fold key and a ``batch_group`` form one group;
    specs that cannot fold (non-app kinds, ``"shm"`` traces) are
    singletons.  Groups keep first-appearance order and list their
    members in submit order.
    """
    groups: list[list[int]] = []
    families: dict[tuple[str, Optional[str]], list[int]] = {}
    for i, spec in enumerate(specs):
        key = sweepfold.fold_key(spec)
        if key is None:
            groups.append([i])
            continue
        family = families.get((key, spec.batch_group))
        if family is None:
            family = families[(key, spec.batch_group)] = []
            groups.append(family)
        family.append(i)
    return groups


#: Most representatives launched per fold family per round.  Small
#: enough that a family with few equivalence classes wastes little work
#: on same-class duplicates, large enough that a many-class family
#: converges in a couple of rounds (each round retires at least one
#: member per family, usually far more).  A family of at most this many
#: members cannot fold, so the batch runner runs it per spec.
FOLD_ROUND_REPS = 8


def execute_cohort(specs: Sequence[RunSpec], in_pool: bool = False) -> list[RunResult]:
    """Run one group of specs, folding governor-sweep variants.

    Returns one :class:`RunResult` per spec, in input order, each
    identical to what :func:`repro.runner.spec.execute_spec` would have
    produced.

    Specs identical except for the two comparison-only governor axes
    form *fold families*: representatives run with a witness attached,
    and every family member a witness interval covers receives a copy
    of its representative's result.  Uncovered members become the next
    round's representatives, so the loop retires at least one member
    per family per round and the worst case degrades to simulating
    everything.  Specs outside any family run through
    :func:`~repro.runner.spec.execute_spec`, before the first round.
    """
    from repro.obs.metrics import global_metrics
    from repro.sim.batchengine import BatchSimulator

    metrics = global_metrics()
    results: list[Optional[RunResult]] = [None] * len(specs)

    def simulate(i: int) -> Optional[sweepfold.SweepWitness]:
        # One simulator alive at a time: prepare, run, and finish.
        prepared = prepare_app_run(specs[i])
        witness = sweepfold.install_witness(prepared.sim)
        BatchSimulator([prepared.sim]).run()
        results[i] = finalize_result(
            specs[i], finish_app_run(prepared), in_pool=in_pool
        )
        return witness

    # Fold families (two or more members) by family number; the rest
    # are singles that run exactly as a per-spec job would.
    unresolved: dict[int, list[int]] = {}
    for members in group_indices(specs):
        if len(members) > 1:
            unresolved[len(unresolved)] = members
        else:
            results[members[0]] = execute_spec(specs[members[0]], in_pool=in_pool)

    while unresolved:
        rep_family: dict[int, int] = {}
        for family, members in unresolved.items():
            pairs = [(i, sweepfold.swept_values(specs[i])) for i in members]
            for i in sweepfold.pick_spread(pairs, FOLD_ROUND_REPS):
                rep_family[i] = family
        witnesses = {i: simulate(i) for i in rep_family}

        # Fold: each representative's witness interval resolves every
        # still-unresolved family member it covers.
        for i, family in rep_family.items():
            unresolved[family].remove(i)
        folded = 0
        for i, family in rep_family.items():
            witness = witnesses[i]
            if witness is None:
                continue
            members = unresolved[family]
            covered = [
                j for j in members
                if witness.covers(*sweepfold.swept_values(specs[j]))
            ]
            for j in covered:
                results[j] = sweepfold.clone_result(results[i], specs[j])
                members.remove(j)
            folded += len(covered)
        metrics.counter("engine.batch.fold.representatives").inc(
            len(rep_family)
        )
        if folded:
            metrics.counter("engine.batch.fold.folded").inc(folded)
        unresolved = {k: v for k, v in unresolved.items() if v}

    metrics.counter("engine.batch.lanes").inc(len(specs))
    return results  # type: ignore[return-value]
