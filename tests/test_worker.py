"""The forked worker that runs classify's phi' half beside the rest: it is
started off the caller's CPU, hands back only a clean result (anything else
runs in the caller), never outlives its caller, and changes no bit of any
report; a phi' half already on the Resolution forks no worker."""

import json
import math
import multiprocessing
import os
import threading
import time
import warnings

import numpy as np
import pytest

from besovlab import cli, theorems
from besovlab.grid import Extension, GridFunction, SpaceParams
from besovlab.maps import affine_map, named_map
from besovlab.theorems import Resolution, classify
from besovlab.worker import Worker

SP = SpaceParams(2.1, 2.0, 2.0, 3)
SP_INF = SpaceParams(1.5, math.inf, 2.0, 2)
SMALL = 2**11 + 1

two_cpus = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="a worker is forked only where two CPUs are allowed"
)


def one_cpu(monkeypatch):
    """The process may use CPU 0 only, as under ``taskset -c 0``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _raise(exc):
    raise exc


# ---------------------------------------------------------------------------
# the worker on its own
# ---------------------------------------------------------------------------

@two_cpus
def test_worker_runs_in_another_process_off_the_callers_cpu(monkeypatch):
    # the worker's masks, in order: off the caller's CPU, then all of them again
    allowed, masks = os.sched_getaffinity(0), []
    setaffinity = os.sched_setaffinity
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: (masks.append(set(cpus)), setaffinity(pid, cpus)))
    with Worker(lambda: (os.getpid(), masks, os.sched_getaffinity(0))) as worker:
        pid, worker_masks, cpus = worker.result()
    assert pid != os.getpid()
    assert len(worker_masks[0]) == len(allowed) - 1 and worker_masks[0] < allowed
    assert worker_masks[1:] == [allowed] and cpus == allowed
    assert masks == [] and os.sched_getaffinity(0) == allowed  # the caller's mask is untouched
    assert set(worker.timing) == {"wall_s", "cpu_s", "wait_s"}
    assert all(t >= 0.0 for t in worker.timing.values())


def _no_fork(process):
    raise OSError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize(
    "target, attribute, value",
    [
        (os, "sched_getaffinity", lambda pid: {0}),  # one CPU
        (multiprocessing.context.ForkProcess, "_Popen", staticmethod(_no_fork)),  # fork fails
    ],
    ids=["one-cpu", "fork-fails"],
)
def test_worker_runs_in_the_caller_where_it_cannot_fork(target, attribute, value, monkeypatch):
    monkeypatch.setattr(target, attribute, value)
    with Worker(os.getpid) as worker:
        assert worker.result() == os.getpid()
    assert worker.timing is None


@two_cpus
def test_worker_exception_keeps_its_type_and_message():
    # the worker fails without a word and the caller runs fn: the exception
    # is raised from fn's own frame in the caller, with nothing chained
    with pytest.raises(KeyError) as info:
        with Worker(_raise, KeyError("no such map")) as worker:
            worker.result()
    assert str(info.value) == str(KeyError("no such map"))
    assert info.value.__cause__ is None and info.value.__context__ is None
    assert info.traceback[-1].name == "_raise"
    assert worker.timing is None
    assert multiprocessing.active_children() == []


@two_cpus
def test_worker_exception_that_does_not_pickle_keeps_its_type():
    class LocalError(Exception):
        pass

    with pytest.raises(LocalError, match="^made in the worker$"):
        with Worker(_raise, LocalError("made in the worker")) as worker:
            worker.result()


def _children() -> str:
    """The pids of this thread's children, zombies too: what no join has reaped."""
    with open(f"/proc/self/task/{threading.get_native_id()}/children") as fh:
        return fh.read()


def _exit_in_the_worker(caller: int):
    """Dies with code 7 in a worker; in the caller, returns its children."""
    if os.getpid() != caller:
        os._exit(7)
    return _children()


@two_cpus
def test_worker_that_dies_leaves_the_call_to_the_caller():
    before = _children()
    t0 = time.perf_counter()
    with Worker(_exit_in_the_worker, os.getpid()) as worker:
        # the dead worker is reaped before the caller runs fn
        assert worker.result() == before
    assert worker.timing is None
    assert time.perf_counter() - t0 < 10.0
    assert multiprocessing.active_children() == [] and _children() == before


@two_cpus
def test_worker_result_that_does_not_pickle_comes_from_the_caller():
    class Local:  # pickle cannot find a local class
        def __init__(self):
            self.pid = os.getpid()

    with Worker(Local) as worker:
        assert worker.result().pid == os.getpid()
    assert worker.timing is None


@pytest.mark.parametrize("exc", [RuntimeError("caller failed"), KeyboardInterrupt()], ids=["error", "interrupt"])
def test_caller_leaving_early_terminates_the_worker(exc):
    t0 = time.perf_counter()
    with pytest.raises(type(exc)):
        with Worker(time.sleep, 60.0):
            raise exc
    assert time.perf_counter() - t0 < 10.0
    assert multiprocessing.active_children() == []


def _warn_twice():
    for _ in range(2):
        warnings.warn("raised twice at one line", UserWarning)


@pytest.mark.parametrize("cpus", ["two", "one"])
def test_worker_warnings_reach_the_caller(cpus, monkeypatch):
    if cpus == "one":
        one_cpu(monkeypatch)
    elif len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a worker is forked only where two CPUs are allowed")

    def noisy():
        warnings.warn("raised beside the caller", RuntimeWarning)
        return 5

    with pytest.warns(RuntimeWarning, match="raised beside the caller"):
        with Worker(noisy) as worker:
            assert worker.result() == 5
    assert worker.timing is None  # a worker that warns does not answer
    # under the "default" rule a location warns once, however many workers
    # raise there: the caller runs fn through its own registry
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for _ in range(2):
            with Worker(_warn_twice) as worker:
                worker.result()
    assert [str(w.message) for w in caught] == ["raised twice at one line"]


# ---------------------------------------------------------------------------
# classify: the phi' half in the worker changes no bit
# ---------------------------------------------------------------------------

ROWS = [
    ("sin_drift:amp=0.5", SP, "besov"),
    ("affine:a=0.5,b=2", SP, "besov"),
    ("scale:k=0.5", SP, "besov"),
    ("affine:a=2,b=0", SP_INF, "besov"),  # p = inf: msq is skipped
    ("sin_drift:amp=0.5", SP, "sobolev"),
]


def _report_bytes(spec, sp, kind) -> tuple[bytes, dict]:
    rep = classify(named_map(spec), sp, kind=kind)
    return json.dumps(rep.to_json(), sort_keys=True, default=cli._np_default).encode(), rep.worker


@two_cpus
@pytest.mark.parametrize("spec, sp, kind", ROWS, ids=[f"{r[0]}-p={r[1].p}-{r[2]}" for r in ROWS])
def test_worker_report_equals_the_one_process_report(spec, sp, kind, monkeypatch):
    forked, timing = _report_bytes(spec, sp, kind)
    assert timing is not None  # the half did run in a worker
    one_cpu(monkeypatch)
    alone, timing = _report_bytes(spec, sp, kind)
    assert timing is None
    assert forked == alone
    if math.isinf(sp.p):
        assert json.loads(forked)["computed"]["phiprime_msq_lower"] is None


def _suite(tmp_path, name, config) -> tuple[bytes, dict]:
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / name
    cli.main(["suite", "--config", str(cfg), "--out", str(out)])
    return (out / "records.json").read_bytes(), json.loads((out / "meta.json").read_text())


SLICE = dict(cli.DEFAULT_SUITE, maps=["sin_drift:amp=0.5", "affine:a=0.5,b=2", "scale:k=0.5"])


@two_cpus
def test_suite_records_are_the_same_bytes_with_and_without_the_worker(tmp_path, monkeypatch, capsys):
    forked, meta = _suite(tmp_path, "forked", SLICE)
    # each new phi' half came back from its worker, where a silent fallback to
    # the caller would run it twice and change no byte; scale(0.5) reads
    # affine(0.5,2)'s half from the Resolution and forks nothing
    assert meta["worker"]["affine(0.5,2.0)"] is not None and meta["worker"]["sin_drift(0.5)"] is not None
    assert meta["worker"]["scale(0.5)"] is None
    one_cpu(monkeypatch)
    alone, _ = _suite(tmp_path, "alone", SLICE)
    assert forked == alone


def test_each_phi_prime_half_is_computed_once(tmp_path, monkeypatch, capsys):
    one_cpu(monkeypatch)  # the half runs in this process, where the calls are counted
    calls, half = [], theorems._multiplier_half

    def counted(mg, sp, kind, seed):
        calls.append((mg.phi.name, sp, kind, seed))
        return half(mg, sp, kind, seed)

    monkeypatch.setattr(theorems, "_multiplier_half", counted)
    _, meta = _suite(tmp_path, "suite", dict(cli.DEFAULT_SUITE, count=SMALL))
    # scale(0.5) shares affine(0.5,2)'s phi', and shift(1) shares identity's
    assert len(meta["worker"]) == 8
    assert sorted(name for name, *_ in calls) == sorted(set(meta["worker"]) - {"scale(0.5)", "shift(1)"})
    # the same phi' under another kind, seed or space computes its own half
    calls.clear()
    res = Resolution(SMALL)
    runs = [(SP, "besov", 1234), (SP, "sobolev", 1234), (SP, "besov", 7), (SP_INF, "besov", 1234)]
    for sp, kind, seed in runs:
        for spec in ("affine:a=0.5,b=2", "scale:k=0.5"):
            classify(named_map(spec), sp, kind=kind, seed=seed, res=res)
    assert calls == [("affine(0.5,2.0)", sp, kind, seed) for sp, kind, seed in runs]


def test_meta_gives_each_maps_worker_times(tmp_path, capsys):
    config = dict(cli.DEFAULT_SUITE, count=SMALL, maps=["identity", "scale:k=2"])
    records, meta = _suite(tmp_path, "meta", config)
    assert set(meta["worker"]) == {"identity", "scale(2)"}
    for timing in meta["worker"].values():
        if len(os.sched_getaffinity(0)) < 2:
            assert timing is None
        else:
            assert set(timing) == {"wall_s", "cpu_s", "wait_s"}
            assert all(isinstance(t, float) and t >= 0.0 for t in timing.values())
    assert b"wait_s" not in records and b"cpu_s" not in records


def test_meta_worker_times_are_null_in_one_process(tmp_path, monkeypatch, capsys):
    one_cpu(monkeypatch)
    config = dict(cli.DEFAULT_SUITE, count=SMALL, maps=["identity"])
    _, meta = _suite(tmp_path, "meta", config)
    assert meta["worker"] == {"identity": None}


# ---------------------------------------------------------------------------
# classify: warnings, failures and no child left behind
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cpus", ["two", "one"])
def test_a_zero_norm_tester_warns_in_the_caller(cpus, monkeypatch):
    if cpus == "one":
        one_cpu(monkeypatch)
    elif len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a worker is forked only where two CPUs are allowed")
    lower = theorems.multiplier_norm_lower_detailed

    def with_a_zero_tester(f, sp, testers, **kw):
        zero = GridFunction(np.zeros(f.count), f.spacing, f.origin, Extension.ZERO)
        return lower(f, sp, [*testers, ("zero", zero)], **kw)

    monkeypatch.setattr(theorems, "multiplier_norm_lower_detailed", with_a_zero_tester)
    with pytest.warns(UserWarning, match="'zero' has zero norm"):
        rep = classify(affine_map(2.0, 0.0), SP, res=Resolution(SMALL))
    assert rep.computed["phiprime_mult_argmax"] != "zero"


@two_cpus
def test_a_worker_failure_fails_classify_and_leaves_no_child(monkeypatch):
    monkeypatch.setattr(theorems, "unif_profile", lambda *a, **kw: _raise(FloatingPointError("profile broke")))
    with pytest.raises(FloatingPointError, match="^profile broke$"):
        classify(affine_map(2.0, 0.0), SP, res=Resolution(SMALL))
    assert multiprocessing.active_children() == []


@two_cpus
def test_a_worker_that_dies_leaves_the_half_to_the_caller(monkeypatch):
    caller, half = os.getpid(), theorems._multiplier_half

    def dies_in_the_worker(*args):
        if os.getpid() != caller:
            os._exit(9)
        return half(*args)

    monkeypatch.setattr(theorems, "_multiplier_half", dies_in_the_worker)
    fallback, timing = _report_bytes("affine:a=0.5,b=2", SP, "besov")
    assert timing is None
    assert multiprocessing.active_children() == []
    one_cpu(monkeypatch)
    assert fallback == _report_bytes("affine:a=0.5,b=2", SP, "besov")[0]


def test_a_caller_failure_fails_classify_and_leaves_no_child(monkeypatch):
    monkeypatch.setattr(theorems, "opnorm_lower_detailed", lambda *a, **kw: _raise(ValueError("opnorm broke")))
    with pytest.raises(ValueError, match="^opnorm broke$"):
        classify(affine_map(2.0, 0.0), SP, res=Resolution(SMALL))
    assert multiprocessing.active_children() == []


def test_check_and_suite_leave_no_child(tmp_path, capsys):
    code = cli.main(["check", "--map", "scale:k=2", "--space", "s=2.1,p=2,q=2,m=3", "--count", str(SMALL),
                     "--json", str(tmp_path / "check.json")])
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    assert multiprocessing.active_children() == []
    _suite(tmp_path, "suite", dict(cli.DEFAULT_SUITE, count=SMALL, maps=["identity", "shift:c=1"]))
    assert multiprocessing.active_children() == []
