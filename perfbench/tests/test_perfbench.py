"""Tests for the benchmark's own code: span arithmetic, wrapper removal,
work counts and the output checks that feed the error rate."""

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, installed, self_times, summarize  # noqa: E402


def test_self_time_nested_spans():
    spans = [
        Span("a", 0.0, 10.0),
        Span("b", 1.0, 4.0, parent=0),
        Span("c", 2.0, 3.0, parent=1),
        Span("d", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    summary = summarize(spans)
    assert summary["a"]["calls"] == 1 and summary["a"]["self_s"] == pytest.approx(6.0)


def test_self_time_threaded_children_count_their_union_once():
    spans = [
        Span("parent", 0.0, 10.0, thread=1),
        Span("x", 1.0, 6.0, parent=0, thread=2),
        Span("y", 4.0, 8.0, parent=0, thread=3),
        Span("z", 9.0, 12.0, parent=0, thread=2),  # clipped to the parent
    ]
    # covered: [1, 8] and [9, 10]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_keeps_parents_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    outers = [i for i, s in enumerate(tracer.spans) if s.name == "outer"]
    assert len(outers) == 2
    for span in tracer.spans:
        if span.name == "inner":
            parent = tracer.spans[span.parent]
            assert parent.name == "outer" and parent.thread == span.thread
            assert parent.start <= span.start <= span.end <= parent.end
    assert all(t >= 0.0 for t in self_times(tracer.spans))


def test_pool_thread_spans_take_the_submitting_span_as_parent():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: time.sleep(0.05))

    def submit():
        time.sleep(0.02)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(work) for _ in range(4)]:
                future.result(timeout=10)

    tracer.wrap("suite", submit)()
    suite = next(i for i, s in enumerate(tracer.spans) if s.name == "suite")
    works = [s for s in tracer.spans if s.name == "work"]
    assert len(works) == 4 and all(s.parent == suite for s in works)
    assert len({s.thread for s in works} - {tracer.spans[suite].thread}) == 2
    # The sleep before submitting is the suite's own. Four 0.05 s calls on
    # two workers cover at least 0.1 s; they overlap, so subtracting their
    # summed 0.2 s would leave too little.
    own = self_times(tracer.spans)[suite]
    span = tracer.spans[suite]
    assert 0.02 <= own <= (span.end - span.start) - 0.1 + 1e-6
    assert own > (span.end - span.start) - sum(s.end - s.start for s in works)


def _besovlab_attributes():
    import besovlab.cli  # noqa: F401  (the package does not import it)

    return {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if name == "besovlab" or name.startswith("besovlab.")
        for key, value in vars(mod).items()
    }


def test_wrappers_are_removed_after_a_traced_pass():
    import besovlab.maps as maps
    import besovlab.theorems as theorems

    before = _besovlab_attributes()
    tracer = Tracer()
    with installed(tracer, layers.targets()):
        assert maps.U_functional is not before[("besovlab.maps", "U_functional")]
        assert theorems.U_functional is maps.U_functional  # one wrapper in every namespace
        value = theorems.U_functional(maps.affine_map(0.5, 0.0))
    assert value == pytest.approx(2.0)
    names = [s.name for s in tracer.spans]
    assert names[0] == "maps.U_functional" and "kernels.preimage_lengths" in names
    after = _besovlab_attributes()
    assert all(after[key] is value for key, value in before.items())


def test_wrappers_are_removed_when_the_pass_raises():
    before = _besovlab_attributes()
    with pytest.raises(RuntimeError):
        with installed(Tracer(), layers.targets()):
            raise RuntimeError("pass failed")
    after = _besovlab_attributes()
    assert all(after[key] is value for key, value in before.items())


def test_active_pairs_match_the_kernel_skip_test():
    rng = np.random.default_rng(3)
    seg = np.zeros((40, 9))
    seg[:, 7] = rng.uniform(-5, 5, 40)
    seg[:, 8] = seg[:, 7] + rng.uniform(-2, 2, 40)
    los = rng.uniform(-6, 6, 25)
    his = los + 1.0
    counts = layers._count_preimage_pairs((seg, los, his), {}, None)
    ymin, ymax = np.minimum(seg[:, 7], seg[:, 8]), np.maximum(seg[:, 7], seg[:, 8])
    brute = sum(
        1 for lo, hi in zip(los, his) for a, b in zip(ymin, ymax) if not (b < lo or a > hi)
    )
    assert counts == {"pairs": 40 * 25, "active_pairs": brute, "targets": 25}


def _norms_pass(values, unif, msq):
    return workloads.PassOutput(1.0, [0.1], 0.5, {"values": values, "unif": unif, "msq": msq})


def test_a_perturbed_norm_is_counted_as_failed(monkeypatch):
    ref = workloads.load_reference("norms_sweep.json")
    candidates = ref["msq_candidates"]
    monkeypatch.setattr(workloads.NormsSweep, "msq_candidates", staticmethod(lambda st, seed: candidates))
    state = type("State", (), {"seed": ref["seed"]})()
    good = _norms_pass(dict(ref["values"]), list(ref["unif"]), ref["msq"])
    res = workloads.NormsSweep().check(state, [good])
    assert res.failed == 0 and res.attempted == len(ref["values"]) + 3
    bad_values = dict(ref["values"])
    key = sorted(bad_values)[7]
    bad_values[key] *= 1.0 + 1e-6
    res = workloads.NormsSweep().check(state, [good, _norms_pass(bad_values, list(ref["unif"]), ref["msq"])])
    assert res.failed == 1 and key in res.problems[0]


def test_a_losing_msq_candidate_off_reference_is_counted_as_failed(monkeypatch):
    ref = workloads.load_reference("norms_sweep.json")
    candidates = json.loads(json.dumps(ref["msq_candidates"]))
    assert candidates["argmax"].startswith("coordinate")  # the candidates lose here
    candidates["norms"][-3] *= 1.0 + 1e-6
    monkeypatch.setattr(workloads.NormsSweep, "msq_candidates", staticmethod(lambda st, seed: candidates))
    state = type("State", (), {"seed": ref["seed"] + 1})()
    good = _norms_pass(dict(ref["values"]), list(ref["unif"]), ref["msq"])
    res = workloads.NormsSweep().check(state, [good])
    assert res.failed == 1 and "msq.norms[98]" in res.problems[0]


def test_a_suite_record_off_reference_is_counted_as_failed():
    ref = workloads.load_reference("suite_slice.json")
    records = []
    for row in ref["maps"].values():
        rec = json.loads(json.dumps(row))
        rec["seed"] = ref["seed"] + 1
        rec["computed"]["phiprime_msq_lower"] = 123.0  # seeded: not compared
        records.append(rec)
    state = type("State", (), {"seed": ref["seed"] + 1})()  # no sha256 pin off the default seed

    def suite_pass(recs, code=ref["exit_code"]):
        return workloads.PassOutput(1.0, [1.0], 1.0, {"code": code, "records": json.dumps(recs).encode()})

    res = workloads.SuiteSlice().check(state, [suite_pass(records)])
    assert (res.attempted, res.failed) == (len(ref["maps"]) + 1, 0)
    records[0]["computed"]["phiprime_mult_lower"] *= 1.0 + 1e-6
    records[1]["computed"]["M_ladder"][2][1] *= 1.0 + 1e-6
    res = workloads.SuiteSlice().check(state, [suite_pass(records, code=0)])
    assert res.failed == 3  # the two perturbed records and the exit code
    assert "phiprime_mult_lower" in res.problems[0] and "M_ladder[2][1]" in res.problems[1]


def test_split_check_rejects_a_bad_partition():
    items = np.array([[0.0, 1.0], [0.5, 1.5], [1.0, 2.0], [3.0, 4.0]])
    good = {"items": items, "labels": np.array([0, 1, 2, 0]), "classes": 3, "degree": 3}
    assert workloads._split_ok(good)
    assert not workloads._split_ok(dict(good, labels=np.array([0, 1, 0, 0])))  # touching in one class
    assert not workloads._split_ok(dict(good, degree=2))


def test_times_are_scaled_by_the_calibration(monkeypatch, tmp_path):
    class Fake:
        name, nominal_pass_s, aliases = "fake", 1.0, {}

        def run_pass(self, st):
            return workloads.PassOutput(3.0, [1.0, 2.0], 0.5, {})

        def check(self, st, passes):
            return workloads.CheckResult(attempted=len(passes))

    bl = SimpleNamespace(package=SimpleNamespace(USING_NUMBA=False))
    monkeypatch.setattr(run, "_setup", lambda workload, seed, workdir: (0.4, bl, None))
    monkeypatch.setattr(run, "calibrate", lambda repeats: 2.0 * run.CALIB_REF_S)  # a host at half speed
    result = run.run_workload(Fake(), 1, 2.0, False, tmp_path)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["setup_s"] == pytest.approx(0.2) and values["pass_s"] == pytest.approx(1.5)
    assert values["op_p50_ms"] == pytest.approx(750.0) and values["stage_s"] == pytest.approx(0.25)
    assert values["ops_per_s"] == pytest.approx(4 / 3.0)
    assert result["raw"]["pass_s"] == [3.0, 3.0] and len(result["raw"]["setup_s"]) == run.SETUP_REPEATS


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert spec["per_layer"] == layers.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
