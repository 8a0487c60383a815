"""Shared DES-vs-fast-engine parity helpers.

The engine-parity contract lives in one place,
:func:`repro.harness.bench.parity_problem`: for any job, simulated
``seconds`` on a fast engine (``closed`` or ``stepped``) agree with the
pure-DES path to within ``REL_TOL`` relative, and ``lock_wait_seconds``
agree to 1e-6 relative (or 1e-9 absolute when near zero).  Scheduling
diagnostics (``issue_busy_time_total``, ``lock_convoy_hist_*``,
``des_*`` / ``cohort_*`` region counters) are engine attribution and
sit *outside* this contract.

Import these from every parity test instead of redefining them; the
registry-wide sweep in ``tests/test_parity_sweep.py`` applies the same
contract to every registry cell at smoke scale, on both fast engines,
running each cell through
:meth:`repro.harness.parallel.SimCell.run` -- the one runner
``repro bench --verify`` and ``repro sweep --verify`` use too.
"""

from repro.harness.bench import REL_TOL, parity_problem, rel_err
from repro.machines import ConventionalMachine, cmt, exemplar
from repro.mta import MtaMachine, mta


def run_mta(job, engine, n_proc=2):
    return MtaMachine(mta(n_proc), engine=engine).run(job)


def run_conventional(job, engine, n_cpus=4, fine_grained=False):
    return ConventionalMachine(exemplar(n_cpus), engine=engine,
                               exploit_fine_grained=fine_grained).run(job)


def run_both_mta(job, n_proc=2, engine="closed"):
    """Run a job on the MTA model under pure DES and ``engine``."""
    return run_mta(job, "des", n_proc), run_mta(job, engine, n_proc)


def run_both_conventional(job, n_cpus=4, fine_grained=False,
                          engine="closed"):
    """Run a job on the conventional model under pure DES and ``engine``."""
    return (run_conventional(job, "des", n_cpus, fine_grained),
            run_conventional(job, engine, n_cpus, fine_grained))


def run_both_cmt(job, n_strands=64, engine="closed"):
    """Run a job on the CMT (SPARC T3-4) model under pure DES and
    ``engine``."""
    return tuple(ConventionalMachine(cmt(n_strands), engine=e).run(job)
                 for e in ("des", engine))


def assert_equivalent(des, fast):
    """Assert the engine-parity contract for one job's pair of runs."""
    problem = parity_problem(des, fast)
    assert problem is None, problem
