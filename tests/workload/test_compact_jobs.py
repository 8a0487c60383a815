"""Compact job trees: slotted value classes and interned phase payloads.

Job trees cross process boundaries (pool workers, crash salvage) and
are rebuilt with ``dataclasses.replace``, so every slotted class must
round-trip through ``pickle``, ``copy`` and ``replace``.  Interning in
``make_phase`` must only ever share bit-identical payloads: the store
fingerprints floats by ``float.hex``, so a merge of ``0.0`` with
``-0.0``, of an int with a float or of two NaNs would move cache keys.
"""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import taskbench
from repro.c3i import terrain as TE
from repro.harness import store
from repro.harness.runner import BenchmarkData
from repro.workload import (
    AccessPattern,
    Compute,
    Critical,
    Job,
    MemoryProfile,
    OpCounts,
    ParallelRegion,
    Phase,
    SerialStep,
    SharedAccess,
    ThreadProgram,
    WorkItem,
    WorkQueueRegion,
    builder,
    make_phase,
    read_of,
    write_of,
)

SLOTTED = (Compute, Critical, ThreadProgram, WorkItem, SerialStep,
           ParallelRegion, WorkQueueRegion, Job, MemoryProfile, Phase,
           SharedAccess, OpCounts)

SCALES = {"threat_scale": 0.005, "terrain_scale": 0.02}

C3I_RECIPES = ("th-job-seq", "th-job-fg", "th-job-fg-all",
               "th-job-ch-16-hw", "te-job-seq", "te-job-fg",
               "te-job-bl-4-os", "te-job-bl-16-sw")


def _phase(name: str, **kw) -> Phase:
    return make_phase(name, OpCounts(ialu=10.0, load=4.0, sync=1.0),
                      unique_bytes=512.0, pattern=AccessPattern.STRIDED,
                      accesses=(read_of("a", 0, 9), write_of("b")), **kw)


def _small_job() -> Job:
    """One instance of every job-tree class."""
    program = ThreadProgram("t0", (Compute(_phase("scan")),
                                   Critical("lock", _phase("append"))))
    item = WorkItem("w0", (Compute(_phase("item")),))
    return Job("small", (
        SerialStep(_phase("setup")),
        ParallelRegion((program, program), thread_kind="hw"),
        WorkQueueRegion((item, item), n_threads=2, thread_kind="sw"),
    ))


def _nodes(job: Job):
    """Every job-tree instance reachable from ``job``."""
    seen = [job]
    for obj in seen:
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            for v in (value if isinstance(value, tuple) else (value,)):
                if dataclasses.is_dataclass(v):
                    seen.append(v)
    return seen


# ----------------------------------------------------------------------
# slotted classes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cls", SLOTTED, ids=lambda c: c.__name__)
def test_job_tree_classes_are_slotted(cls):
    assert "__slots__" in cls.__dict__
    assert "__dict__" not in dir(cls)


def test_job_tree_instances_carry_no_dict():
    nodes = _nodes(_small_job())
    assert {type(n) for n in nodes} == set(SLOTTED)
    for n in nodes:
        assert not hasattr(n, "__dict__"), type(n).__name__


def test_real_recipe_job_carries_no_dict():
    job = BenchmarkData(**SCALES).job_from_recipe("te-job-bl-4-sw")
    for n in _nodes(job):
        assert not hasattr(n, "__dict__"), type(n).__name__


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    job = _small_job()
    back = pickle.loads(pickle.dumps(job, protocol=protocol))
    assert back == job
    assert store.fingerprint(back) == store.fingerprint(job)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy],
                         ids=["copy", "deepcopy"])
def test_copy_round_trip(clone):
    for n in _nodes(_small_job()):
        assert clone(n) == n


def test_replace_round_trip():
    job = _small_job()
    region = job.steps[2]
    wider = dataclasses.replace(region, n_threads=4)
    assert wider.n_threads == 4 and wider.items == region.items
    phase = job.steps[0].phase
    assert dataclasses.replace(phase) == phase
    assert dataclasses.replace(phase.ops, load=1.0).load == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        phase.name = "renamed"


def test_rethread_blocked_job_on_slotted_tree():
    data = BenchmarkData(**SCALES)
    one = data.terrain_blocked_job(1)
    four = TE.rethread_blocked_job(one, 4, "sw")
    queues = [s for s in four.steps if isinstance(s, WorkQueueRegion)]
    assert queues and all(q.n_threads == 4 and q.thread_kind == "sw"
                          for q in queues)
    assert store.fingerprint(four) == store.fingerprint(
        data.terrain_blocked_job(4, "sw"))


# ----------------------------------------------------------------------
# interning
# ----------------------------------------------------------------------

def test_equal_payloads_share_one_object():
    a = make_phase("a", OpCounts(ialu=3.0, load=2.0), unique_bytes=64.0)
    b = make_phase("b", OpCounts(ialu=3.0, load=2.0), unique_bytes=64.0)
    assert a.ops is b.ops
    assert a.memory is b.memory
    c = make_phase("c", OpCounts(ialu=3.0, load=2.5), unique_bytes=64.0,
                   pattern=AccessPattern.RANDOM)
    assert c.ops is not a.ops
    assert c.memory is not a.memory


def test_signed_zeros_never_merge():
    pos = make_phase("p", OpCounts(ialu=0.0), unique_bytes=0.0)
    neg = make_phase("n", OpCounts(ialu=-0.0), unique_bytes=-0.0)
    assert pos.ops is not neg.ops
    assert pos.memory is not neg.memory
    assert math.copysign(1.0, neg.ops.ialu) == -1.0
    assert math.copysign(1.0, neg.memory.unique_bytes) == -1.0
    assert store.fingerprint(pos) != store.fingerprint(
        dataclasses.replace(neg, name="p"))


def test_nans_never_merge():
    nan = float("nan")
    a = make_phase("a", OpCounts(falu=nan), unique_bytes=nan)
    b = make_phase("b", OpCounts(falu=nan), unique_bytes=nan)
    assert a.ops is not b.ops
    assert a.memory is not b.memory
    c = make_phase("c", OpCounts(falu=0.0))
    assert c.ops is not a.ops


def test_ints_never_merge_with_floats():
    f = make_phase("f", OpCounts(ialu=5.0), unique_bytes=8.0)
    i = make_phase("i", OpCounts(ialu=5), unique_bytes=8)
    assert f.ops is not i.ops and f.memory is not i.memory
    assert type(i.ops.ialu) is int and type(i.memory.unique_bytes) is int


def test_interning_tables_are_bounded(monkeypatch):
    monkeypatch.setattr(builder, "_SHARED_MAX", 4)
    monkeypatch.setattr(builder, "_SHARED_OPS", {})
    monkeypatch.setattr(builder, "_SHARED_MEMORY", {})
    for k in range(20):
        make_phase(f"p{k}", OpCounts(ialu=float(k)),
                   unique_bytes=float(k))
    assert len(builder._SHARED_OPS) <= 4
    assert len(builder._SHARED_MEMORY) <= 4


def test_fg_all_job_shares_its_payloads():
    job = BenchmarkData(**SCALES).job_from_recipe("th-job-fg-all")
    phases = [it.phase for step in job.steps
              if isinstance(step, ParallelRegion)
              for th in step.threads for it in th.items]
    assert len({id(p.memory) for p in phases}) < len(phases) // 10
    assert len({id(p.ops) for p in phases}) < len(phases)


def _unshared(monkeypatch) -> None:
    monkeypatch.setattr(builder, "_shared_ops", lambda ops: ops)
    monkeypatch.setattr(builder, "_shared_memory", MemoryProfile)


@st.composite
def taskbench_recipes(draw) -> str:
    params = taskbench.TaskGraphParams(
        topology=draw(st.sampled_from(taskbench.TOPOLOGIES)),
        width=draw(st.integers(1, 24)), depth=draw(st.integers(1, 6)),
        grain=draw(st.integers(1, 64)),
        seed=draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(taskbench.THREAD_KINDS))
    return taskbench.recipe_name(params, kind)


#: one universe per recipe family: kernels run once, and the terrain
#: grids it holds keep their masks shared with every rebuild
_DATA = BenchmarkData(**SCALES)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(recipe=st.one_of(st.sampled_from(C3I_RECIPES), taskbench_recipes()))
def test_interning_preserves_recipe_fingerprints(recipe):
    shared = _DATA.job_from_recipe(recipe)
    with pytest.MonkeyPatch.context() as mp:
        _unshared(mp)
        plain = BenchmarkData(**SCALES).job_from_recipe(recipe)
    assert plain is not shared
    assert store.fingerprint(plain) == store.fingerprint(shared)
