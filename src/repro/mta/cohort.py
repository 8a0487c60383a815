"""Cohort hooks of :class:`~repro.mta.MtaMachine`.

The MTA macro model maps every thread to one processor's issue server
plus the shared network server.  For homogeneous regions whose phases
carry no internal parallelism (one stream per thread), the per-slice
``AllOf(issue, network)`` pattern compiles to :data:`~repro.des.batch.PAR`
segments, which :mod:`repro.machines.driver` replays on a
:class:`~repro.des.batch.CohortEngine`: one batch server per processor
(per-stream caps) and one for the network (uncapped equal-share).

Serial steps -- including the fine-grained phases with
``parallelism > 1`` that spread issue demand over every processor --
are closed-form: each slice ends at the max of the issue and network
completion times, the exact arithmetic of the DES event chain.

Work-queue regions with fine-grained phases and heterogeneous
parallel regions fall back to the DES path.
"""

from __future__ import annotations

from typing import Union

from repro.des.batch import PAR, SLEEP, serve_alone
from repro.workload.cohort import region_cohort_signature, region_phases
from repro.workload.phase import Phase
from repro.workload.task import ParallelRegion, WorkQueueRegion

__all__ = ["region_eligible", "run_serial_phase", "compile_phase"]


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


def run_serial_phase(machine, phase: Phase, t: float, servers) -> float:
    """Closed form of ``MtaMachine._run_phase`` for the control thread.

    Mirrors the DES event chain bit-for-bit: per slice, the issue and
    network submissions run concurrently on otherwise-idle servers and
    the slice ends at the later completion.
    """
    spec = machine.spec
    ops = phase.ops
    words = ops.mem_ops
    instr = max(ops.total / spec.ops_per_instruction, words)
    if instr <= 0 and phase.serial_cycles <= 0:
        return t
    memf = words / instr if instr > 0 else 0.0
    stream_rate = spec.stream_issue_rate(memf)
    p = phase.parallelism
    slices = machine.slices_per_phase
    clock = spec.clock_hz
    network = servers[-1]
    net_cap = network.capacity

    if p <= 1:
        # one stream on the control thread's processor (proc 0)
        srv = servers[0]
        cap = stream_rate
        per_slice_instr = instr / slices
        per_slice_words = words / slices
        for _ in range(slices):
            end = t
            if per_slice_instr > 0:
                e = serve_alone(srv, per_slice_instr, cap, t)
                if e > end:
                    end = e
            if per_slice_words > 0:
                e = serve_alone(network, per_slice_words, net_cap, t)
                if e > end:
                    end = e
            t = end
    else:
        # fine-grained phase: spread over all processors
        n_proc = spec.n_processors
        per_proc_streams = min(p / n_proc, spec.streams_per_processor)
        cap = per_proc_streams * stream_rate
        per_slice_instr = instr / (slices * n_proc)
        per_slice_words = words / slices
        for _ in range(slices):
            end = t
            if per_slice_instr > 0:
                # identical demand and cap on every processor: all
                # complete at the same instant
                for q in range(n_proc):
                    e = serve_alone(servers[q], per_slice_instr, cap, t)
                if e > end:
                    end = e
            if per_slice_words > 0:
                e = serve_alone(network, per_slice_words, net_cap, t)
                if e > end:
                    end = e
            t = end

    if phase.serial_cycles > 0:
        t = t + phase.serial_cycles / clock
    return t


def compile_phase(machine, phase: Phase, segs: list) -> None:
    """Append ``MtaMachine._run_phase``'s single-stream slices as
    :data:`~repro.des.batch.PAR` segments on the home processor."""
    spec = machine.spec
    ops = phase.ops
    words = ops.mem_ops
    instr = max(ops.total / spec.ops_per_instruction, words)
    if instr <= 0 and phase.serial_cycles <= 0:
        return
    memf = words / instr if instr > 0 else 0.0
    cap = spec.stream_issue_rate(memf)
    slices = machine.slices_per_phase
    per_slice_instr = instr / slices
    per_slice_words = words / slices
    parts = []
    if per_slice_instr > 0:
        parts.append((None, per_slice_instr, cap))
    if per_slice_words > 0:
        parts.append((spec.n_processors, per_slice_words, None))
    if parts:
        # every slice is the same immutable segment
        segs.extend([(PAR, tuple(parts))] * slices)
    if phase.serial_cycles > 0:
        segs.append((SLEEP, phase.serial_cycles / spec.clock_hz))
