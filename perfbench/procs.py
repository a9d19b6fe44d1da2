"""Every process a run starts ends before the run does.

A run is a subreaper (:func:`adopt_orphans`), so a server's helpers that
outlive the server become children of the run, not of init, and
:func:`stop_children` can kill and reap whatever is left on the way out.
This module imports nothing from the broker, so it works in a checkout
that has no sources to measure.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from pathlib import Path
from typing import Sequence

#: Seconds a process may take to exit before it is killed.
STOP_TIMEOUT = 10.0


def adopt_orphans() -> None:
    """Make this process the parent of every orphaned descendant."""
    PR_SET_CHILD_SUBREAPER = 36
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def tree(root: int) -> list[int]:
    """``root`` and every live descendant, parents before children."""
    pids, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        pids.append(pid)
        for task in Path(f"/proc/{pid}/task").glob("*"):
            try:
                text = (task / "children").read_text()
            except OSError:
                continue
            frontier.extend(int(child) for child in text.split())
    return pids


def await_exit(pids: Sequence[int], timeout: float = STOP_TIMEOUT) -> None:
    """Wait until ``pids`` are gone; kill stragglers, reap our children."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while _alive(pid):
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                deadline = time.monotonic() + 5.0
            time.sleep(0.02)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def stop_children() -> None:
    """Kill and reap every descendant, then stop the resource tracker.

    On a normal run the only one left is multiprocessing's resource
    tracker, started when the traced run hosted a gateway; it exits
    only after this process would, so it is stopped and waited for.  A
    run cut short may leave a server it had not yet taken charge of;
    that is killed first, since the tracker waits for every holder of
    its pipe.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pids = [pid for pid in tree(os.getpid())[1:] if pid != tracker._pid]
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    await_exit(pids)
    tracker._stop()


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"
