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

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE_SEED = 1234


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("perfbench_workloads", "workloads.py")


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


def test_every_traced_function_resolves(monkeypatch):
    # a traced pass patches each (module, attribute) pair of layers.TRACED with
    # a bare getattr, so a renamed program function fails here, not in the run
    # layers.py imports its sibling as a top-level module: `from spans import ...`
    monkeypatch.setitem(sys.modules, "spans", _load("perfbench_spans", "spans.py"))
    layers = _load("perfbench_layers", "layers.py")
    missing = [f"{module}.{attr}" for module, attr, _ in layers.TRACED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    targets = layers.targets()
    assert [(module, attr, name) for module, attr, name, _ in targets] == list(layers.TRACED)
