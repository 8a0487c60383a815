"""Cohort hooks of :class:`~repro.mta.MtaMachine`.

The MTA's phase model has two implementations: the DES oracle
``MtaMachine._run_phase`` and :func:`compile_phase` here.  Each slice's
``AllOf(issue, network)`` pattern compiles to one
:data:`~repro.des.batch.PAR` segment: one stream on the thread's home
processor, or, for a fine-grained phase (``parallelism > 1``), its
issue demand spread over every processor.  :mod:`repro.machines.driver`
replays a serial step's segments in closed form
(:func:`~repro.des.batch.replay_alone`: each slice ends at its latest
part's completion) and runs an eligible region on a
:class:`~repro.des.batch.CohortEngine`: one batch server per processor
(per-stream caps) and one for the network (uncapped equal-share).

Regions with fine-grained phases and heterogeneous parallel regions
fall back to the DES path.
"""

from __future__ import annotations

from typing import Union

from repro.des.batch import PAR, SLEEP
from repro.workload.cohort import region_cohort_signature, region_phases
from repro.workload.phase import Phase
from repro.workload.task import ParallelRegion, WorkQueueRegion

__all__ = ["region_eligible", "compile_phase"]


def region_eligible(machine,
                    step: Union[ParallelRegion, WorkQueueRegion]) -> bool:
    """Whether the MTA cohort engine can replay this region exactly.

    Fine-grained phases (``parallelism > 1``) spread their issue
    demand across all processors with a per-phase cap; inside a region
    that shape is left to the DES path.
    """
    if isinstance(step, ParallelRegion):
        if region_cohort_signature(step) is None:
            return False
    elif not isinstance(step, WorkQueueRegion):
        return False
    return all(p.parallelism <= 1 for p in region_phases(step))


def compile_phase(machine, phase: Phase, segs: list) -> None:
    """Append ``MtaMachine._run_phase``'s slices as
    :data:`~repro.des.batch.PAR` segments: one stream on the home
    processor, or a fine-grained phase spread over every processor."""
    spec = machine.spec
    ops = phase.ops
    words = ops.mem_ops
    instr = max(ops.total / spec.ops_per_instruction, words)
    if instr <= 0 and phase.serial_cycles <= 0:
        return
    memf = words / instr if instr > 0 else 0.0
    stream_rate = spec.stream_issue_rate(memf)
    p = phase.parallelism
    slices = machine.slices_per_phase
    n_proc = spec.n_processors
    if p <= 1:
        # one stream on the thread's home processor
        per_slice_instr = instr / slices
        issue = ((None, per_slice_instr, stream_rate),)
    else:
        # fine-grained phase: spread over all processors
        per_slice_instr = instr / (slices * n_proc)
        cap = min(p / n_proc, spec.streams_per_processor) * stream_rate
        issue = tuple((q, per_slice_instr, cap) for q in range(n_proc))
    per_slice_words = words / slices
    parts = issue if per_slice_instr > 0 else ()
    if per_slice_words > 0:
        # the network server follows the issue servers
        parts += ((n_proc, per_slice_words, None),)
    if parts:
        # every slice is the same immutable segment
        segs.extend([(PAR, parts)] * slices)
    if phase.serial_cycles > 0:
        segs.append((SLEEP, phase.serial_cycles / spec.clock_hz))
