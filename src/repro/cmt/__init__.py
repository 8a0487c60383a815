"""The SPARC T3-4 chip-multithreaded machine family (see ``spec.py``).

It runs on :class:`~repro.machines.ConventionalMachine` unchanged:
``ConventionalMachine(cmt(n))``.
"""

from repro.cmt.spec import CMT_T3_4, SPARC_T3_4, CmtSpec, cmt

__all__ = ["CMT_T3_4", "SPARC_T3_4", "CmtSpec", "cmt"]
