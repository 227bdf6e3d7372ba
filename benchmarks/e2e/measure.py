"""Clocks, resource sampling and the host record of the e2e benchmark."""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import platform
import resource
import statistics
import threading
import time
from typing import Iterable

from repro.common.clock import monotonic_clock
from repro.obs.live.window import exact_percentile

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
_MB = float(1 << 20)


class OriginClock:
    """The sanctioned monotonic clock, remembering its first reading.

    ``SchedulerService(clock=...)`` reads its clock once at construction
    and reports every ticket time relative to that reading, which it does
    not expose; injecting this clock makes :attr:`origin` that reading,
    so the load generator can put due times and ``JobTicket.finished_at``
    on one axis (:meth:`relative`).
    """

    def __init__(self) -> None:
        self._clock = monotonic_clock()
        self.origin: float | None = None

    def __call__(self) -> float:
        now = self._clock()
        if self.origin is None:
            self.origin = now
        return now

    def relative(self) -> float:
        """Seconds since the first reading (the service's time axis)."""
        now = self()
        assert self.origin is not None
        return now - self.origin


# ------------------------------------------------------------- host speed
#: The probe kernel's thread-CPU time on the reference host, in seconds:
#: every time metric is reported as it would read on a host that runs the
#: kernel in exactly this long (the sizing host's usual figure, so the
#: reported numbers stay close to the raw ones).
REFERENCE_KERNEL_S = 2.0e-3

_PROBE_TEXT = " ".join(f"{head}{middle}{tail}"
                       for head in ("s", "b", "th", "cr", "m")
                       for middle in ("a", "ou", "i", "ee", "o", "u")
                       for tail in ("ing", "ed", "tion", "ness", "ly", "s",
                                    "e", "er")) * 10


def probe_kernel() -> int:
    """A fixed piece of work, none of it the repo's code: half of its time
    allocates (split a text, count the tokens in a dict, list the pairs),
    half computes (an arithmetic loop).  Of the kernels tried while
    sizing — these two, a strided walk over 15 MB of objects, an 8 MB
    copy — this mix tracked the workloads' CPU per job best."""
    total = 0
    for _ in range(3):
        counts: dict[str, int] = {}
        for token in _PROBE_TEXT.split():
            counts[token] = counts.get(token, 0) + 1
        total += len(list(counts.items()))
    for value in range(24000):
        total += value * value
    return total


class SpeedProbe:
    """Samples how fast the host is while a window runs.

    This class of host has a fast and a slow mode about 30 % apart that
    alternate in spells of seconds to a minute (CPU time per unit of
    work rises and no steal time shows: a neighbour on the sibling
    hardware thread, probably), so two runs of one program differ by
    that much.  A
    thread of the probe's own runs :func:`probe_kernel` every
    ``interval_s`` and records its thread-CPU time; the window's time
    metrics are then scaled by ``REFERENCE_KERNEL_S / mean sample`` —
    the kernel slows by about the same factor as the program it runs
    beside (README.md has the measurements).  About 2 ms of work per
    sample, ~2 % of one core.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        self._interval_s = interval_s
        self._halt = threading.Event()
        self.samples: list[float] = []   # written by the thread, read after join
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="bench-speed-probe")
        self._thread.start()

    def _run(self) -> None:
        while not self._halt.wait(self._interval_s):
            started = time.thread_time()
            probe_kernel()
            self.samples.append(time.thread_time() - started)

    def stop(self) -> float:
        """End sampling; returns the factor that turns a time measured in
        this window into the reference host's (1.0 without samples)."""
        self._halt.set()
        self._thread.join()
        if not self.samples:
            return 1.0
        # The middle three fifths: a sample that an interrupt or a cold
        # cache landed on is not the host's speed.
        ordered = sorted(self.samples)
        cut = len(ordered) // 5
        return REFERENCE_KERNEL_S / statistics.fmean(
            ordered[cut:len(ordered) - cut])


def percentile(values: Iterable[float], q: float) -> float:
    """``q``-th percentile (the repo's one definition; 0.0 when empty)."""
    return exact_percentile(sorted(values), q)


def _live_child_pids() -> list[int]:
    return [child.pid for child in multiprocessing.active_children()
            if child.pid is not None]


def cpu_seconds() -> float:
    """User+system CPU of this process and its children, so far.

    ``RUSAGE_CHILDREN`` only covers children already waited for; the
    processes backend's pool workers are alive during the window, so
    their ``/proc/<pid>/stat`` times are added (when a worker exits its
    time moves from the second term to the first — the sum is monotone).
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    for pid in _live_child_pids():
        try:
            stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue  # exited between the listing and the read
        fields = stat.rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def peak_rss_mb() -> float:
    """Largest peak RSS among this process and its children, in MB."""
    peaks = [resource.getrusage(who).ru_maxrss / 1024.0
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    for pid in _live_child_pids():
        try:
            status = pathlib.Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peaks.append(int(line.split()[1]) / 1024.0)
    return max(peaks)


def current_rss_mb() -> float:
    """Resident set of this process right now, in MB."""
    statm = pathlib.Path("/proc/self/statm").read_text().split()
    return int(statm[1]) * _PAGE_BYTES / _MB


def commit_id(root: pathlib.Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def host_record(root: pathlib.Path) -> dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit_id(root),
    }
