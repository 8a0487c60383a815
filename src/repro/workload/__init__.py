"""Abstract multithreaded-program representation.

A benchmark run is described *architecture-independently* as a
:class:`~repro.workload.task.Job`: an alternating sequence of serial
steps and parallel regions.  Each thread in a region is a
:class:`~repro.workload.task.ThreadProgram` -- a list of compute phases
and lock-protected critical sections.  Each
:class:`~repro.workload.phase.Phase` carries an operation mix
(:class:`~repro.workload.ops.OpCounts`), a memory-locality descriptor
(:class:`~repro.workload.phase.MemoryProfile`) and an *internal
parallelism* (how many concurrent strands a machine supporting
fine-grained threading could extract from it).

Machine models in :mod:`repro.machines` and :mod:`repro.mta` consume
this representation and produce simulated execution times; the C3I
benchmark kernels in :mod:`repro.c3i` produce it from instrumented
runs of the real algorithms.
"""

from repro.workload.ops import (
    AccessMode,
    OpClass,
    OpCounts,
    SharedAccess,
    WORD_BYTES,
    read_of,
    write_of,
)
from repro.workload.phase import AccessPattern, MemoryProfile, Phase
from repro.workload.task import (
    Compute,
    Critical,
    Job,
    ParallelRegion,
    SerialStep,
    ThreadProgram,
    WorkItem,
    WorkQueueRegion,
)
from repro.workload.builder import (
    JobBuilder,
    ThreadProgramBuilder,
    make_phase,
    single_thread_job,
)
from repro.workload.cohort import (
    item_signature,
    program_signature,
    region_cohort_signature,
)
from repro.workload.instrument import OpCounter
from repro.workload.describe import (describe_job, job_summary,
                                     step_label)

__all__ = [
    "AccessMode",
    "AccessPattern",
    "Compute",
    "Critical",
    "Job",
    "JobBuilder",
    "MemoryProfile",
    "OpClass",
    "OpCounter",
    "OpCounts",
    "ParallelRegion",
    "Phase",
    "SerialStep",
    "SharedAccess",
    "ThreadProgram",
    "ThreadProgramBuilder",
    "WORD_BYTES",
    "WorkItem",
    "WorkQueueRegion",
    "describe_job",
    "item_signature",
    "job_summary",
    "make_phase",
    "program_signature",
    "read_of",
    "region_cohort_signature",
    "single_thread_job",
    "step_label",
    "write_of",
]
