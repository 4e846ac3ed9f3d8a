"""An ordered list of calls run beside the caller, in one forked worker on
another CPU.

``Worker(fn, jobs)`` forks one process that runs ``fn(*args)`` for each
``args`` of ``jobs`` in order and sends each result back as soon as it is
done, while the caller goes on with its own work; ``result(i)`` returns what
``fn(*jobs[i])`` returned, and waits only if job i is not back yet. The
worker moves itself off the CPU the calling thread is on at the fork by
narrowing its mask to the other allowed CPUs, then widens the mask back to
all of them: it stays where it landed, but once the caller waits, the
scheduler may move it to the caller's CPU should another process hold the
worker's. Without the move, a worker forked while the caller is busy
starts on the caller's CPU and shares it (see the README for the measured
effect). The caller's own mask is never touched.

One rule: the caller runs a job itself unless the worker answered it clean,
that is, ``fn`` returned, raised no warning, and its result pickled. At the
first job that is not clean the worker exits without a word, and the caller
computes that job and every later one itself, so a job runs at most twice.
Where the process may use one CPU only (``taskset -c 0``), cannot tell
which CPU it is on or cannot fork, every job runs in the caller. An
exception or a warning thus comes from the caller's own frames, filters and
warning registries, as in one process, and the outputs are the same.

The worker runs in a fork-time copy of the caller's memory, so whatever a
job changes there is lost to the caller unless ``fn`` returns it. Leaving
the ``with`` block terminates the worker if it still runs and joins it, on
an exception or a KeyboardInterrupt too. ``multiprocessing`` is imported
only when a worker is forked.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import time
import warnings
from typing import Callable, Optional


def _worker_cpus() -> Optional[set]:
    """The CPUs a worker starts on, all allowed but the one the calling thread
    last ran on (field 39 of /proc/thread-self/stat); None to run in the caller,
    also where that line cannot be read or parsed."""
    if not hasattr(os, "sched_getaffinity") or len(allowed := os.sched_getaffinity(0)) < 2:  # not Linux, or one CPU
        return None
    try:
        with open("/proc/thread-self/stat") as fh:
            # the fields after the parenthesised command name start at field 3
            return allowed - {int(fh.read().rsplit(")", 1)[1].split()[39 - 3])}
    except (OSError, IndexError, ValueError):
        return None


def _serve(conn, cpus: set, fn: Callable, jobs: list):
    """The worker's body: run the jobs in order, send each clean result and
    its timing as soon as it is done, and exit without a word at any other."""
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)  # moves the worker off the caller's CPU
        os.sched_setaffinity(0, allowed)  # keeps it there, free to move back when that CPU idles
        for args in jobs:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args)
            if caught:
                return
            timing = {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0}
            conn.send_bytes(pickle.dumps((result, timing)))
    except BaseException:
        pass  # the caller reads EOF and runs this job and the later ones itself


class Worker(contextlib.AbstractContextManager):
    """The jobs run beside the caller (see the module docstring). ``timings[i]``
    is None unless ``result(i)`` returned the worker's answer; then it holds
    the worker's ``wall_s`` and ``cpu_s`` in job i and the caller's ``wait_s``
    for it in ``result(i)``."""

    def __init__(self, fn: Callable, jobs: list):
        self._fn, self._jobs = fn, jobs
        self._answers: list = []  # (result, timing) of the jobs answered so far, in job order
        self._proc = None
        self.timings: list[Optional[dict]] = [None] * len(jobs)
        if not jobs or (cpus := _worker_cpus()) is None:
            return
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(target=_serve, args=(child_conn, cpus, fn, jobs), daemon=True)
        try:
            self._proc.start()
        except OSError:  # no fork to be had (out of processes or memory): run in the caller
            self._proc = None
            self._conn.close()
        finally:
            child_conn.close()  # the worker holds the only write end, so its exit ends recv

    def __exit__(self, *exc_info):
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join()
            self._conn.close()
            self._proc = None

    def result(self, i: int):
        t0 = time.perf_counter()
        while self._proc is not None and len(self._answers) <= i:
            try:
                payload = self._conn.recv_bytes()
            except EOFError:  # the worker did not answer job len(self._answers) clean
                self.__exit__()
            else:
                self._answers.append(pickle.loads(payload))
        if i < len(self._answers):
            result, timing = self._answers[i]
            self.timings[i] = dict(timing, wait_s=time.perf_counter() - t0)
            return result
        return self._fn(*self._jobs[i])  # outside the except: nothing is chained to its exceptions
