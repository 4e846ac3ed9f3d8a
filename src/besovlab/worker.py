"""One function run beside the caller, in a forked worker on another CPU.

``Worker(fn, *args)`` forks a process that runs ``fn(*args)`` while the
caller goes on with its own work; ``result()`` waits for it and returns what
``fn`` returned. The worker moves itself off the CPU the calling thread is
on at the fork (field 39 of its ``/proc/thread-self/stat``) by narrowing its
mask to the other allowed CPUs, then widens the mask back to all of them: it
stays where it landed, but once the caller waits, the scheduler may move it
to the caller's CPU should another process hold the worker's. The caller's
own mask is never touched. Without the move the worker starts on the
caller's CPU and stays there, and both halves take turns on one core.

Where the process may use one CPU only (``taskset -c 0``) or cannot fork,
nothing is forked: ``result()`` runs ``fn`` in the caller, and the outputs are
the same.

The worker runs in a fork-time copy of the caller's memory, so whatever
``fn`` changes there is lost unless ``fn`` returns it. What comes back over
the pipe is ``fn``'s result, or its exception (re-raised in the caller with
the same type and message, the worker's traceback as its cause), and the
warnings it raised, which the caller re-emits through its own filters and
the warning registry of the module they name, so a warning shown once per
location in one process is shown once per location with the worker too. A
worker that dies without answering raises ``WorkerDied`` naming its exit
code. Leaving the ``with`` block always joins the worker, and terminates it
first when the caller leaves before the result, on an exception or a
KeyboardInterrupt. ``multiprocessing`` is imported only when a worker is
forked.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback
import warnings
from typing import Callable, Optional


class WorkerDied(RuntimeError):
    """The worker exited without sending its result."""


class WorkerTraceback(Exception):
    """The worker's formatted traceback, the cause of an exception it raised."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _current_cpu() -> Optional[int]:
    """The CPU the calling thread last ran on, or None when it cannot be read."""
    try:
        with open("/proc/thread-self/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    # the fields after the parenthesised command name start at field 3
    return int(stat.rsplit(")", 1)[1].split()[39 - 3])


def _worker_cpus() -> Optional[set]:
    """The CPUs a worker starts on, or None to run in the caller."""
    if not hasattr(os, "sched_getaffinity"):  # not Linux
        return None
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return None
    cpu = _current_cpu()
    if cpu is None:
        return None
    return allowed - {cpu}


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a RuntimeError with its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _serve(conn, cpus: set, fn: Callable, args: tuple):
    """The worker's body: run fn, then send one pickled message and exit."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)  # moves the worker off the caller's CPU
    os.sched_setaffinity(0, allowed)  # keeps it there, free to move back when that CPU idles
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = ("ok", fn(*args))
        except BaseException as exc:
            outcome = ("error", _portable(exc), traceback.format_exc())
    timing = {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0}
    raised = [(w.message, w.category, w.filename, w.lineno) for w in caught]
    conn.send_bytes(pickle.dumps((outcome, raised, timing)))
    conn.close()


def _reemit(message, category, filename: str, lineno: int) -> None:
    """Warn as ``warnings.warn`` would have at ``filename:lineno`` in the caller:
    with the module's name for the filters and its ``__warningregistry__``,
    which remembers what was already shown there."""
    for module in list(sys.modules.values()):
        if getattr(module, "__file__", None) == filename:
            registry = module.__dict__.setdefault("__warningregistry__", {})
            warnings.warn_explicit(message, category, filename, lineno, module.__name__, registry)
            return
    warnings.warn_explicit(message, category, filename, lineno)


class Worker:
    """``fn(*args)`` run beside the caller; see the module docstring.

    ``timing`` is None until ``result()`` returns from a forked worker; then
    it holds the worker's wall and CPU seconds in ``fn`` and the seconds the
    caller waited for it (``wall_s``, ``cpu_s``, ``wait_s``).
    """

    def __init__(self, fn: Callable, *args):
        self._fn, self._args = fn, args
        self._proc = None
        self.timing: Optional[dict] = None
        cpus = _worker_cpus()
        if cpus is None:
            return
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(target=_serve, args=(child_conn, cpus, fn, args), daemon=True)
        try:
            self._proc.start()
        except OSError:  # no fork to be had (out of processes or memory): run in the caller
            self._proc = None
            self._conn.close()
        finally:
            child_conn.close()  # the worker holds the only write end, so its exit ends recv

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc_info):
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join()
            self._conn.close()

    def result(self):
        if self._proc is None:
            return self._fn(*self._args)
        t0 = time.perf_counter()
        try:
            payload = self._conn.recv_bytes()
        except EOFError:
            self._proc.join()
            raise WorkerDied(
                f"the worker exited with code {self._proc.exitcode} without sending its result"
            ) from None
        self._proc.join()
        outcome, raised, timing = pickle.loads(payload)
        self.timing = dict(timing, wait_s=time.perf_counter() - t0)
        for message, category, filename, lineno in raised:
            _reemit(message, category, filename, lineno)
        if outcome[0] == "error":
            raise outcome[1] from WorkerTraceback(outcome[2])
        return outcome[1]
