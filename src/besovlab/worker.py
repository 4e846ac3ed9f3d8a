"""One function run beside the caller, in a forked worker on another CPU.

``Worker(fn, *args)`` forks a process that runs ``fn(*args)`` while the
caller goes on with its own work; ``result()`` waits for it and returns what
``fn`` returned. The worker moves itself off the CPU the calling thread is
on at the fork (field 39 of its ``/proc/thread-self/stat``) by narrowing its
mask to the other allowed CPUs, then widens the mask back to all of them: it
stays where it landed, but once the caller waits, the scheduler may move it
to the caller's CPU should another process hold the worker's. The caller's
own mask is never touched. Without the move the scheduler already starts
most forks elsewhere (on a 2-CPU Linux box, 39 of 40 forked children ran
first on the CPU the parent was not on), and on an idle box the move is
neutral: the default suite in one process took a median 0.87 s with it and
0.92 s without, over 8 alternating pairs. It pays when another process
keeps a CPU busy: with a spinning process pinned to CPU 1, 0.95 s with it
and 1.06 s without, over 6 pairs.

One rule: the caller runs ``fn`` itself unless a forked worker answered
clean, that is, ``fn`` returned, raised no warning, and its result pickled.
So ``fn`` runs in the caller where the process may use one CPU only
(``taskset -c 0``) or cannot fork, and where the worker raised, warned, died
or returned a result that does not pickle; such a worker exits without a
word. An exception or a warning thus comes from the caller's own frames,
filters and warning registries, as in one process, and the outputs are the
same. The cost: a call that does not come back clean runs twice.

The worker runs in a fork-time copy of the caller's memory, so whatever
``fn`` changes there is lost unless ``fn`` returns it. Leaving the ``with``
block always joins the worker, and terminates it first when the caller
leaves before the result, on an exception or a KeyboardInterrupt.
``multiprocessing`` is imported only when a worker is forked.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from typing import Callable, Optional


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


def _serve(conn, cpus: set, fn: Callable, args: tuple):
    """The worker's body: run fn and send its result and timing only if it
    came back clean; on any other outcome exit without a word."""
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)  # moves the worker off the caller's CPU
        os.sched_setaffinity(0, allowed)  # keeps it there, free to move back when that CPU idles
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args)
        if not caught:
            timing = {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0}
            conn.send_bytes(pickle.dumps((result, timing)))
    except BaseException:
        pass  # the caller reads EOF and runs fn itself


class Worker:
    """``fn(*args)`` run beside the caller; see the module docstring.

    ``timing`` is None unless ``result()`` returned a forked worker's answer;
    then it holds the worker's wall and CPU seconds in ``fn`` and the seconds
    the caller waited for it (``wall_s``, ``cpu_s``, ``wait_s``).
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
        if self._proc is not None:
            t0 = time.perf_counter()
            try:
                payload = self._conn.recv_bytes()
            except EOFError:  # the worker did not answer clean
                payload = None
            self._proc.join()
            if payload is not None:
                result, timing = pickle.loads(payload)
                self.timing = dict(timing, wait_s=time.perf_counter() - t0)
                return result
        return self._fn(*self._args)  # outside the except: nothing is chained to its exceptions
