"""Every test leaves the process without a child: a classify that forks a
worker for phi' joins it, whether it returns or raises."""

import os
from pathlib import Path

import pytest


def live_children() -> set[int]:
    """Pids of this process's children that have not been reaped, zombies
    included: an exited child that nobody joined is still a leak."""
    me, found = os.getpid(), set()
    if not Path("/proc/self/stat").exists():  # no procfs to read: nothing to check
        return found
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # the process ended while we looked
            continue
        # field 4 is the parent pid; the fields after the command name start at field 3
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.add(int(entry.name))
    return found


@pytest.fixture(autouse=True)
def no_child_left_running():
    before = live_children()
    yield
    left = live_children() - before
    if left:
        pytest.fail(f"the test left child processes behind: {sorted(left)}")
