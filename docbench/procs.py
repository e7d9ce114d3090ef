"""Process-session accounting from /proc: CPU, RSS, workers, steal, teardown.

A benchmark driver leads its own session, and Ray's daemons and workers
inherit that session, so "the session" is the whole process tree of one
driver, including processes that were re-parented.
"""

from __future__ import annotations

import os
import signal
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")
PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (state is [0])."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            s = f.read()
    except OSError:
        return None
    return s[s.rfind(")") + 2:].split()


def session_pids(sid: int) -> list[int]:
    out = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat_fields(int(name))
            if st is not None and int(st[3]) == sid and st[0] != "Z":
                out.append(int(name))
    return out


def session_cpu_s(sid: int) -> float:
    """utime+stime of live session processes plus the reaped children they
    waited for (cutime+cstime)."""
    ticks = 0
    for pid in session_pids(sid):
        st = _stat_fields(pid)
        if st is not None:
            ticks += sum(int(x) for x in st[11:15])
    return ticks / CLK_TCK


def session_rss_bytes(pids: list[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * PAGE
        except (OSError, IndexError, ValueError):
            continue
    return total


def is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def steal_s() -> float:
    """Host steal time so far, summed over CPUs (from /proc/stat)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / CLK_TCK if len(fields) > 8 else 0.0


class SessionSampler:
    """Samples a session's summed RSS and pids on a background thread, from
    a process outside the session, so that sampling costs the session
    nothing. ``window`` then gives the figures of a time window."""

    def __init__(self, sid: int, interval_s: float = 0.05):
        self.sid = sid
        self.interval_s = interval_s
        self.samples: list[tuple[float, int, frozenset[int]]] = []
        self.workers: set[int] = set()
        self._others: set[int] = set()  # pids seen twice, not as a worker
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        t = time.monotonic()
        pids = session_pids(self.sid)
        seen_before = self.samples[-1][2] if self.samples else frozenset()
        for pid in pids:
            # a fresh fork may not show a worker's command line yet
            if pid not in self.workers and pid not in self._others:
                if is_ray_worker(pid):
                    self.workers.add(pid)
                elif pid in seen_before:
                    self._others.add(pid)
        self.samples.append((t, session_rss_bytes(pids), frozenset(pids)))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def start(self) -> None:
        self._sample()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def window(self, t0: float, t1: float) -> tuple[int, int]:
        """Peak summed RSS in bytes over [t0, t1], and the Ray workers that
        appeared in it."""
        before = [pids for t, _, pids in self.samples if t < t0]
        inside = [(rss, pids) for t, rss, pids in self.samples if t0 <= t <= t1]
        present = before[-1] if before else frozenset()
        seen = frozenset().union(*(pids for _, pids in inside))
        return (max((rss for rss, _ in inside), default=0),
                len((seen - present) & self.workers))


def kill_session(sid: int, timeout_s: float = 30.0) -> list[int]:
    """SIGKILL every process of the session until none is left; returns
    the pids that were still alive when the timeout ran out."""
    deadline = time.monotonic() + timeout_s
    while True:
        pids = [p for p in session_pids(sid) if p != os.getpid()]
        if not pids or time.monotonic() > deadline:
            return pids
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)
