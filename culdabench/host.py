"""Host-side measurement: process-tree memory, CPU steal, leak checks.

Everything here reads ``/proc`` and ``/dev/shm`` only; nothing writes
outside the checkout.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

_PROC = Path("/proc")
_SHM = Path("/dev/shm")


def _status_kib(pid: int, key: str) -> int | None:
    try:
        text = (_PROC / str(pid) / "status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return None


def _parent_map() -> dict[int, int]:
    """``pid -> ppid`` for every process visible in ``/proc``."""
    out = {}
    for entry in _PROC.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; the fields after ')' do not.
        fields = stat.rsplit(")", 1)[1].split()
        out[int(entry.name)] = int(fields[1])
    return out


def descendants(root: int | None = None) -> list[int]:
    """Live descendant pids of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    parents = _parent_map()
    found: list[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        kids = [p for p, pp in parents.items() if pp == pid]
        found.extend(kids)
        frontier.extend(kids)
    return found


class TreeMemory:
    """Peak resident memory of a process tree, in MiB.

    Per process the kernel tracks the exact peak (``VmHWM``); a poller
    keeps the last value seen for every process of the tree, including
    ones that have since exited, and the peak is their sum.  Pages shared
    between processes (the engine's shared-memory arena) count once per
    process that maps them, so this is an upper bound on the tree's
    simultaneous peak, stable from run to run.
    """

    def __init__(self, roots: list[int] | None = None, interval_s: float = 0.5):
        self._roots = roots or [os.getpid()]
        self._interval_s = interval_s
        self._hwm_kib: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> None:
        pids = set(self._roots)
        for root in list(self._roots):
            pids.update(descendants(root))
        for pid in pids:
            hwm = _status_kib(pid, "VmHWM")
            if hwm is not None:
                self._hwm_kib[pid] = max(hwm, self._hwm_kib.get(pid, 0))

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            self.sample()

    def __enter__(self) -> TreeMemory:
        self.sample()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sample()

    @property
    def peak_mib(self) -> float:
        return sum(self._hwm_kib.values()) / 1024.0


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies summed over every CPU."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted inside user/nice.
    return fields[7], sum(fields[:8])


class StealMeter:
    """Share of CPU time the hypervisor took from this host over a span."""

    def __enter__(self) -> StealMeter:
        self._start = _cpu_ticks()
        self.share = 0.0
        return self

    def __exit__(self, *exc) -> None:
        steal, total = _cpu_ticks()
        d_total = total - self._start[1]
        self.share = (steal - self._start[0]) / d_total if d_total > 0 else 0.0


def shm_segments() -> set[str]:
    try:
        return {p.name for p in _SHM.iterdir()}
    except OSError:
        return set()


def resource_tracker_pid() -> int | None:
    """Pid of multiprocessing's resource tracker, if this process started one."""
    from multiprocessing import resource_tracker

    return resource_tracker._resource_tracker._pid


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if this process started one.

    On stopping, the tracker unlinks every shared-memory segment still
    registered with it, so a leak check must look at ``/dev/shm`` first.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def reap_children(timeout_s: float = 10.0, keep: tuple[int, ...] = ()) -> list[int]:
    """Wait for this process's descendants to exit; return any left over.

    The caller has already asked every child to stop (engine close,
    server shutdown); this only waits, then reports stragglers so a run
    can count them as a failure instead of leaving them behind.  Pids in
    ``keep`` (and their descendants) are neither waited for nor reported.
    """
    import multiprocessing

    kept = set(keep)
    for pid in keep:
        kept.update(descendants(pid))
    deadline = time.monotonic() + timeout_s
    while True:
        multiprocessing.active_children()  # joins finished mp children
        left = [pid for pid in descendants() if pid not in kept]
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.05)
