"""Load generators and the per-task ledger that checks every result.

The generators talk to a farm only through ``submit(payload)`` and its
``results`` queue, so the self-tests drive them with an in-process fake.

* :func:`closed_loop` keeps a fixed window of tasks in flight from one
  thread: each result received releases the next submit.
* :func:`open_loop` submits on a fixed schedule from the calling thread
  and collects on a second thread; each task is timed from when it was
  *due*, so a stall charges the wait it imposes on every later task, and
  how late the generator itself ran is recorded next to it.
"""

from __future__ import annotations

import bisect
import math
import queue
import resource
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

clock = time.perf_counter

#: how long the tail may take to drain after the timed window closes
DRAIN_TIMEOUT = 30.0
#: worker-count sampling period for ``worker_s``
SAMPLE_PERIOD = 0.05
#: sliding window of the benchmark's own completion-rate estimate
RATE_WINDOW = 1.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``values`` (0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def task_id_of(result: Any) -> Optional[int]:
    """The task id a result carries (first element, or the bare id)."""
    if isinstance(result, (list, tuple)) and result:
        result = result[0]
    return result if isinstance(result, int) and not isinstance(result, bool) else None


@dataclass
class Ledger:
    """Every task's stamps and expected result; counts every failure.

    The submitting thread only inserts new keys into ``pending`` and the
    collecting thread only pops them, so the two never share a
    read-modify-write; each list has a single writer.
    """

    pending: Dict[int, tuple] = field(default_factory=dict)  # id -> (due, expected)
    seen: set = field(default_factory=set)
    latencies: List[float] = field(default_factory=list)
    #: completion stamps, in completion order (one collecting thread)
    done_at: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    waits: List[float] = field(default_factory=list)
    submitted: int = 0
    duplicates: int = 0
    wrong: int = 0
    errors: int = 0

    def expect(self, task_id: int, due: float, expected: Any) -> None:
        """Register a task *before* submitting it (its result may race back)."""
        self.pending[task_id] = (due, expected)
        self.submitted += 1

    def complete(self, result: Any, now: float) -> None:
        """Account one delivered result."""
        if isinstance(result, Exception):
            self.errors += 1  # its id stays pending and counts as lost
            return
        task_id = task_id_of(result)
        entry = self.pending.pop(task_id, None) if task_id is not None else None
        if entry is None:
            if task_id in self.seen:
                self.duplicates += 1
            else:
                self.wrong += 1
            return
        self.seen.add(task_id)
        due, expected = entry
        if result != expected:
            self.wrong += 1
        self.latencies.append(now - due)
        self.done_at.append(now)

    @property
    def lost(self) -> int:
        return len(self.pending)

    @property
    def failed(self) -> int:
        """Lost (incl. errored and dead-lettered), duplicated or wrong."""
        return self.lost + self.duplicates + self.wrong

    def completed_between(self, t0: float, t1: float) -> int:
        return bisect.bisect_right(self.done_at, t1) - bisect.bisect_left(self.done_at, t0)

    def adapt_time(self, t_step: float, low: float, window: float = RATE_WINDOW) -> Optional[float]:
        """Seconds from ``t_step`` until the completion rate over the last
        ``window`` seconds first reaches ``low`` (None if it never does)."""
        need = low * window
        recent: deque = deque()
        for t in self.done_at:
            recent.append(t)
            while recent[0] <= t - window:
                recent.popleft()
            if t >= t_step and len(recent) >= need:
                return t - t_step
        return None


class WorkerSampler:
    """Integrates the live worker count (admitted + quarantined) over time."""

    def __init__(self, farm: Any, period: float = SAMPLE_PERIOD) -> None:
        self.farm = farm
        self.period = period
        self.worker_seconds = 0.0
        self._last: Optional[float] = None
        self._count = 0

    def tick(self, now: float, force: bool = False) -> None:
        if self._last is not None and not force and now - self._last < self.period:
            return
        if self._last is not None:
            self.worker_seconds += self._count * (now - self._last)
        snap = self.farm.snapshot()
        self._count = snap.num_workers + snap.quarantined
        self._last = now


@dataclass
class LoopResult:
    """What one generator run measured (clock: ``time.perf_counter``)."""

    ledger: Ledger
    t_start: float  # first task due
    t_end: float  # timed window closes
    first_accepted: float  # first submit returned
    worker_seconds: float = 0.0
    #: peak RSS once the run's fixed task budget had completed
    rss_mb: float = 0.0

    @property
    def seconds(self) -> float:
        return self.t_end - self.t_start

    def throughput(self) -> float:
        return self.ledger.completed_between(self.t_start, self.t_end) / self.seconds


def closed_loop(
    farm: Any,
    make_task: Callable[[int], tuple],
    *,
    window: int,
    seconds: float,
    sampler: Optional[WorkerSampler] = None,
    drain_timeout: float = DRAIN_TIMEOUT,
    rss_after: Optional[int] = None,
) -> LoopResult:
    """Keep ``window`` tasks in flight for ``seconds``, then drain the tail.

    ``make_task(i)`` returns ``(payload, expected_result)``.  Peak RSS is
    read when ``rss_after`` tasks have completed (at the end if the run
    completes fewer), so it prices a fixed amount of work.
    """
    ledger = Ledger()
    next_id = 0

    def submit(now: float) -> None:
        nonlocal next_id
        payload, expected = make_task(next_id)
        ledger.expect(next_id, now, expected)
        next_id += 1
        farm.submit(payload)

    t_start = clock()
    submit(t_start)
    first_accepted = clock()
    for _ in range(window - 1):
        submit(clock())
    t_end = t_start + seconds
    if sampler is not None:
        sampler.tick(t_start, force=True)
    drain_deadline = t_end + drain_timeout
    rss_mb: Optional[float] = None
    while ledger.pending:
        t0 = clock()
        if t0 > drain_deadline:
            break
        try:
            result = farm.results.get(timeout=min(1.0, drain_deadline - t0))
        except queue.Empty:
            continue
        now = clock()
        ledger.waits.append(now - t0)
        ledger.complete(result, now)
        if rss_mb is None and rss_after is not None and len(ledger.done_at) >= rss_after:
            rss_mb = peak_rss_mb()
        if now < t_end:
            submit(now)
        if sampler is not None:
            sampler.tick(now)
    if sampler is not None:
        sampler.tick(clock(), force=True)
    return LoopResult(
        ledger,
        t_start,
        t_end,
        first_accepted,
        worker_seconds=sampler.worker_seconds if sampler else 0.0,
        rss_mb=rss_mb if rss_mb is not None else peak_rss_mb(),
    )


def open_loop(
    farm: Any,
    make_task: Callable[[int], tuple],
    *,
    schedule: Sequence[float],
    seconds: float,
    sampler: Optional[WorkerSampler] = None,
    drain_timeout: float = DRAIN_TIMEOUT,
) -> LoopResult:
    """Submit task ``i`` at ``t_start + schedule[i]``; collect on a thread.

    Latency is measured from each task's due time.  ``ledger.late`` holds
    how far behind schedule each submit actually happened.
    """
    ledger = Ledger()
    generating = threading.Event()
    generating.set()
    t_start = clock() + 0.01
    t_end = t_start + seconds
    if sampler is not None:
        sampler.tick(t_start, force=True)

    def collect() -> None:
        drain_deadline: Optional[float] = None
        while True:
            if not generating.is_set():
                if not ledger.pending:
                    return
                if drain_deadline is None:
                    drain_deadline = clock() + drain_timeout
                elif clock() > drain_deadline:
                    return
            t0 = clock()
            try:
                result = farm.results.get(timeout=SAMPLE_PERIOD)
            except queue.Empty:
                result = None
            now = clock()
            if result is not None:
                ledger.waits.append(now - t0)
                ledger.complete(result, now)
            if sampler is not None:
                sampler.tick(now)

    collector = threading.Thread(target=collect, name="perfbench-collect", daemon=True)
    collector.start()
    first_accepted = 0.0
    try:
        for i, offset in enumerate(schedule):
            due = t_start + offset
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            payload, expected = make_task(i)
            ledger.expect(i, due, expected)
            ledger.late.append(max(0.0, clock() - due))
            farm.submit(payload)
            if i == 0:
                first_accepted = clock()
    finally:
        generating.clear()
        collector.join(drain_timeout + 5.0)
    if collector.is_alive():
        raise RuntimeError("result collector did not stop")
    if sampler is not None:
        sampler.tick(clock(), force=True)
    return LoopResult(
        ledger,
        t_start,
        t_end,
        first_accepted,
        worker_seconds=sampler.worker_seconds if sampler else 0.0,
        rss_mb=peak_rss_mb(),
    )


def paced_schedule(rate: float, seconds: float) -> List[float]:
    """Due offsets of a constant-rate stream."""
    return [i / rate for i in range(int(rate * seconds))]


def step_schedule(low_rate: float, high_rate: float, step_at: float, seconds: float) -> List[float]:
    """Due offsets starving at ``low_rate`` until ``step_at``, then ``high_rate``."""
    out = [i / low_rate for i in range(int(low_rate * step_at))]
    out += [step_at + i / high_rate for i in range(int(high_rate * (seconds - step_at)))]
    return out
