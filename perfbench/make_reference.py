#!/usr/bin/env python3
"""Regenerate the committed reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py

Runs one pass of suite_slice and norms_sweep at the default seed with the
checkout's besovlab and writes what their checks compare against. Only
regenerate when a change to the program is meant to change these outputs,
and say so in the change. preimage_split needs no file: it is checked
against a sampling oracle.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
from workloads import REFERENCE_DIR, NormsSweep, SuiteSlice

SEED = 1234


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    bl = run.import_besovlab()
    REFERENCE_DIR.mkdir(exist_ok=True)
    run.RESULTS_DIR.mkdir(exist_ok=True)
    suite, norms = SuiteSlice(), NormsSweep()

    out = suite.run_pass(suite.setup(bl, SEED, run.RESULTS_DIR)).outputs
    ref = {
        "seed": SEED,
        "exit_code": out["code"],
        "records_sha256": hashlib.sha256(out["records"]).hexdigest(),
        "maps": suite.summarize_records(out["records"]),
    }
    (REFERENCE_DIR / "suite_slice.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    state = norms.setup(bl, SEED, run.RESULTS_DIR)
    out = norms.run_pass(state).outputs
    ref = {"seed": SEED, "values": out["values"], "unif": out["unif"], "msq": out["msq"],
           "msq_candidates": norms.msq_candidates(state, SEED)}
    (REFERENCE_DIR / "norms_sweep.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
