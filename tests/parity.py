"""Shared DES-vs-cohort parity helpers.

The engine-parity contract, in one place: for any job, simulated
``seconds`` on the cohort fast path agree with the pure-DES path to
within ``REL_TOL`` relative, and ``lock_wait_seconds`` agree to 1e-6
relative (or 1e-9 absolute when near zero).  Scheduling diagnostics
(``issue_busy_time_total``, ``lock_convoy_hist_*``, ``des_*`` /
``cohort_*`` region counters) are engine attribution and sit *outside*
this contract.

Import these from every parity test instead of redefining them; the
registry-wide sweep in ``tests/test_parity_sweep.py`` applies the same
contract to every experiment's jobs at smoke scale, under both
positions of the cohort engine's ``REPRO_FORCE_CLOSED_FORM`` escape
hatch (closed-form layers on and off).
"""

from repro.harness.bench import REL_TOL
from repro.machines import ConventionalMachine, cmt, exemplar
from repro.mta import MtaMachine, mta


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def run_both_mta(job, n_proc=2):
    """Run a job on the MTA model under both engines."""
    des = MtaMachine(mta(n_proc), use_cohort=False).run(job)
    coh = MtaMachine(mta(n_proc), use_cohort=True).run(job)
    return des, coh


def run_both_conventional(job, n_cpus=4, fine_grained=False):
    """Run a job on the conventional model under both engines."""
    des = ConventionalMachine(exemplar(n_cpus), use_cohort=False,
                              exploit_fine_grained=fine_grained).run(job)
    coh = ConventionalMachine(exemplar(n_cpus), use_cohort=True,
                              exploit_fine_grained=fine_grained).run(job)
    return des, coh


def run_both_cmt(job, n_strands=64):
    """Run a job on the CMT (SPARC T3-4) model under both engines."""
    des = ConventionalMachine(cmt(n_strands), use_cohort=False).run(job)
    coh = ConventionalMachine(cmt(n_strands), use_cohort=True).run(job)
    return des, coh


def assert_equivalent(des, coh):
    """Assert the engine-parity contract for one job's pair of runs."""
    assert rel_err(coh.seconds, des.seconds) <= REL_TOL, \
        (des.seconds, coh.seconds)
    assert abs(coh.lock_wait_seconds - des.lock_wait_seconds) \
        <= max(1e-6 * abs(des.lock_wait_seconds), 1e-9), \
        (des.lock_wait_seconds, coh.lock_wait_seconds)
