"""Regenerate ``digests.json``: the expected outputs of every universe.

    python3 perfbench/record_digests.py

Runs one cold serial registry pass per input universe (two at a time)
and records the digest of its rendered rows and shape-check verdicts
(at universe 0 the digest of ``python -m repro all -j 1`` stdout).
Rerun it only when a change is meant to alter simulated output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

from common import HERE, STATE, UNIVERSES, run_child, universe_of


def record(universe: int) -> tuple[int, str]:
    work = os.path.join(STATE, f"digests-{universe}")
    os.makedirs(work, exist_ok=True)
    try:
        res = run_child(work, "pass", "registry-cold", universe,
                        cache_dir=os.path.join(work, "cache"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if res["failed_ops"]:
        raise SystemExit(f"universe {universe}: failed "
                         f"{res['failed_ops']}")
    return universe, res["digest"]


def main() -> int:
    universes = sorted({universe_of(seed) for seed in range(UNIVERSES)})
    digests: dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for universe, digest in pool.map(record, universes):
            digests[str(universe)] = digest
            print(f"universe {universe}: {digest}", flush=True)
    with open(os.path.join(HERE, "digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
