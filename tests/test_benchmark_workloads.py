"""One pass of each benchmark workload at the reference seed, with the
benchmark's own output checks: every record, norm and preimage must match
the committed references (the suite records byte for byte)."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import besovlab
from besovlab import cli, gadgets, grid, maps, multipliers, norms, splitting

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
REFERENCE_SEED = 1234


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_matches_the_references(name, tmp_path, monkeypatch):
    # the suite workload's setup writes BESOVLAB_THREADS; monkeypatch records
    # the value from before the test and puts it back afterwards
    monkeypatch.setenv("BESOVLAB_THREADS", "0")
    bl = SimpleNamespace(
        package=besovlab, cli=cli, gadgets=gadgets, grid=grid, maps=maps,
        multipliers=multipliers, norms=norms, splitting=splitting,
    )
    workload = workloads.WORKLOADS[name]
    state = workload.setup(bl, REFERENCE_SEED, tmp_path)
    result = workload.check(state, [workload.run_pass(state)])
    assert result.attempted > 0
    assert result.failed == 0, result.problems
