"""The substrate-free half of every live farm backend.

The paper separates a behavioural skeleton's passive mechanism (the
ABC's monitor and actuator interfaces) from the manager's rule policy.
:class:`FarmCore` applies the same split one layer down: the task
table, at-least-once replay, exactly-once dedup, dead letters, the
admission-gate bookkeeping, the trace-span chain and the monitoring
sample exist here once, and each backend —
:class:`~repro.runtime.farm_runtime.ThreadFarm`,
:class:`~repro.runtime.process_farm.ProcessFarm`,
:class:`~repro.runtime.dist_farm.DistFarm` — adds only its transport:
a queue, a pipe or a socket.

Locking: one re-entrant ``_lock`` per farm.  Underscore methods run
with it held by the caller; the public monitoring and actuator methods
take it themselves.  No second lock sits on the per-task path.

Task life cycle, as the core books it::

    _new_task ──► _assign ──► _ack ─────────────► delivered
                    ▲    │
                    │    └─► _requeue ─► budget spent ─► dead_letters
                    │            │
                    └── replay ◄─┘  (immediately, or parked on the
                                     retry heap until its backoff)

A task stays in the table (``pending``) from submit until it is acked
or dead-lettered, and sits in at most one worker's ``outstanding``.
"""

from __future__ import annotations

import heapq
import queue
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..obs.propagation import TraceContext, task_context
from ..obs.spans import Span
from ..obs.telemetry import NOOP, Telemetry
from ..sim.metrics import WindowRateEstimator, queue_length_stats
from .backend import RuntimeFarmSnapshot, drain_queue

__all__ = ["FarmCore", "WorkerState", "DeadLetter"]


@dataclass
class _TaskRecord:
    """Bookkeeping for one submitted, not yet acknowledged task."""

    task_id: int
    payload: Any
    submitted_at: float
    attempts: int = 0
    worker_id: Optional[int] = None  # None: awaiting (re)dispatch
    next_retry_at: float = 0.0
    # trace context: the task's root span and the current (or most
    # recent) dispatch-attempt span; each new attempt parents under the
    # previous one, so a replayed task reads as one causal chain
    root: Optional[Span] = None
    dispatch: Optional[Span] = None
    dispatch_seq: int = 0


@dataclass(frozen=True)
class DeadLetter:
    """A task abandoned after exhausting its replay budget."""

    task_id: int
    payload: Any
    attempts: int
    last_worker_id: Optional[int]


@dataclass(eq=False)
class WorkerState:
    """The transport-free state of one executor, as the core books it."""

    worker_id: int
    secured: bool = False
    #: held at the admission gate: alive, but never selected by dispatch
    quarantined: bool = False
    active: bool = True
    #: on its way out (poisoned); neither serving nor removable again
    retiring: bool = False
    last_seen: float = 0.0
    reported_completed: int = 0
    dispatched: int = 0
    #: ids of tasks handed to this worker and not yet acknowledged
    outstanding: Set[int] = field(default_factory=set)


class FarmCore:
    """Task table, replay, dedup, admission gate and monitoring of a farm.

    Subclasses supply the transport.  ``METRICS`` names the backend's
    own metric family prefix (``repro_process``, ``repro_dist``) for
    replays, dead letters, duplicates, crashes and per-worker counters;
    the thread farm never replays or loses a worker and leaves it unset.
    The ``repro_mc_*`` dispatch and gate families are shared by all.
    """

    METRICS = ""

    def __init__(
        self,
        *,
        name: str,
        rate_window: float,
        max_workers: int,
        telemetry: Optional[Telemetry],
        clock: Callable[[], float],
        max_attempts: int = 1,
        backoff_base: float = 0.0,
        backoff_cap: float = 0.0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.name = name
        self.max_workers = max_workers
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.RLock()
        self.results: "queue.Queue[Any]" = queue.Queue()
        self.workers: List[Any] = []
        self._next_id = 0
        self._rr = 0
        self.rate_window = rate_window
        self.arrival_est, self.departure_est = (
            WindowRateEstimator(rate_window, start_time=0.0) for _ in range(2)
        )
        self._latencies: "deque" = deque()  # (completion_time, latency)
        self._tasks: Dict[int, _TaskRecord] = {}
        self._retry_heap: List[Tuple[float, int]] = []  # (due, task_id)
        # acked or dead-lettered: any later ack for these is a duplicate
        self._settled_ids: Set[int] = set()
        self.submitted = 0
        self.completed = 0
        self.dead_letters: List[DeadLetter] = []
        self.crashes: List[Tuple[float, int]] = []  # (time, worker_id)
        self.replays = 0
        self.duplicates = 0

    # ------------------------------------------------------------------
    # time base and stream
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self._clock() - self._t0

    def drain_results(self, count: int, timeout: float = 30.0) -> List[Any]:
        """Collect ``count`` results (order of completion, deduplicated)."""
        return drain_queue(self.results, count, timeout)

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _find_worker(self, worker_id: int) -> Optional[Any]:
        for w in self.workers:
            if w.worker_id == worker_id:
                return w
        return None

    def _serving(self) -> List[Any]:
        """Workers dispatch may select: live, not retiring, past the gate.

        Quarantined workers are never candidates — fresh submits,
        rebalancing and fault replays alike wait for admitted capacity.
        """
        return [w for w in self.workers if w.active and not w.retiring and not w.quarantined]

    def _round_robin(self) -> Optional[Any]:
        """The next serving worker in turn, or None if there is none."""
        live = self._serving()
        if not live:
            return None
        self._rr = (self._rr + 1) % len(live)
        return live[self._rr]

    def _check_capacity(self) -> None:
        # quarantined workers count against the limit: they hold a
        # real executor slot even while held out of dispatch
        if sum(1 for w in self.workers if w.active) >= self.max_workers:
            raise RuntimeError(f"worker limit {self.max_workers} reached")

    def _register(self, handle: Any) -> Any:
        """Track one new worker handle (lock held)."""
        self._next_id = max(self._next_id, handle.worker_id + 1)
        self.workers.append(handle)
        self._gauge_quarantined()
        return handle

    def _retiree(self) -> Optional[Any]:
        """The newest serving worker, unless it is the last one.

        A retiring worker is already on its way out: it neither counts
        toward the floor nor may be removed a second time; quarantined
        workers are not serving capacity, so they are neither victims
        nor part of the floor.
        """
        live = self._serving()
        return live[-1] if len(live) > 1 else None

    def _pick_victim(self, worker_id: Optional[int]) -> Optional[Any]:
        """Choose a live worker to fault (lock held).

        Default victims are serving workers: killing a quarantined one
        proves nothing about fault recovery.  An explicit id may name
        any live worker, quarantined or not.
        """
        if worker_id is None:
            live = self._serving()
            return live[-1] if live else None
        victim = self._find_worker(worker_id)
        return victim if victim is not None and victim.active else None

    def _note_worker_counter(self, handle: Any, completed: int) -> None:
        """Fold a worker-reported completion counter into the registry."""
        handle.reported_completed = max(handle.reported_completed, completed)
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge(
                f"{self.METRICS}_worker_completed_tasks",
                "cumulative tasks completed, as reported by each worker",
            ).labels(farm=self.name, worker=handle.worker_id).set(handle.reported_completed)

    def _declare_dead(self, w: Any, now: float) -> None:
        """Crash handling: replay every un-acked task of ``w`` (lock held).

        Backends first make the death official on their transport (kill
        a wedged process, abort a socket), then call this.
        """
        w.active = False
        self._gauge_quarantined()
        self.crashes.append((now, w.worker_id))
        self._count("worker_crashes_total", "workers declared dead by the supervisor")
        for task_id in sorted(w.outstanding):
            self._requeue(w, task_id, "crashed", now=now)

    # ------------------------------------------------------------------
    # task table
    # ------------------------------------------------------------------
    def _new_task(
        self, payload: Any, tenant: Optional[str], traceparent: Optional[str]
    ) -> _TaskRecord:
        """Track one submitted task and open its root span (lock held)."""
        now = self.now()
        self.arrival_est.mark(now)
        record = _TaskRecord(task_id=self.submitted, payload=payload, submitted_at=now)
        self.submitted += 1
        self._tasks[record.task_id] = record
        if self.telemetry.enabled:
            self._trace_submit(record, tenant, traceparent)
        return record

    def _assign(
        self, record: _TaskRecord, worker: Any, outcome: Optional[str] = None
    ) -> Optional[str]:
        """Book ``record`` onto ``worker`` (lock held).

        Returns the traceparent of the new dispatch-attempt span, for
        the envelope.  A fresh dispatch or a replay counts against the
        task's replay budget.  A *move* of a queued, never-started task
        (rebalance steal, retiring worker's backlog) does not: it names
        in ``outcome`` why the previous attempt was superseded.
        """
        if outcome is None:
            record.attempts += 1
        record.worker_id = worker.worker_id
        worker.outstanding.add(record.task_id)
        return self._trace_dispatch(record, worker, outcome)

    def _ack(self, worker: Optional[Any], task_id: int, result: Any, span: Any = None) -> bool:
        """Account one completion report (lock held); True if fresh.

        False marks a duplicate — a replayed task that also finished on
        its original worker, or a late ack for a dead-lettered task:
        at-least-once underneath, exactly-once outward.  Either way the id leaves the reporter's
        ``outstanding``; a duplicate left behind would make the
        worker's later clean retirement read as a crash.
        """
        if worker is not None:
            worker.outstanding.discard(task_id)
        if self.telemetry.enabled:
            # import the worker-side exec span even for a duplicate:
            # both executions of an at-least-once replay belong in the
            # task's one trace tree
            self.telemetry.import_span(span)
        if task_id in self._settled_ids:
            self.duplicates += 1
            self._count(
                "duplicate_results_total", "results dropped because the task already completed"
            )
            return False
        self._settled_ids.add(task_id)
        mark = max(self.now(), self.departure_est._last_mark or 0.0)
        self.departure_est.mark(mark)
        self.completed += 1
        record = self._tasks.pop(task_id, None)
        if record is not None:
            if record.worker_id is not None and record.worker_id != getattr(
                worker, "worker_id", None
            ):
                # an earlier life's ack beat the replay: release the
                # replay's slot too, or it would wait for a duplicate
                holder = self._find_worker(record.worker_id)
                if holder is not None:
                    holder.outstanding.discard(task_id)
            self._latencies.append((mark, mark - record.submitted_at))
            outcome = "error" if isinstance(result, Exception) else "ok"
            self.telemetry.end_span(record.dispatch, outcome=outcome)
            self.telemetry.end_span(record.root, outcome=outcome)
        return True

    def _requeue(
        self, worker: Any, task_id: int, outcome: str, now: Optional[float] = None
    ) -> Optional[_TaskRecord]:
        """Take back one failed attempt from ``worker`` (lock held).

        The attempt's span ends with ``outcome`` but stays referenced by
        the record, so the replay parents under it.  A task whose budget
        is spent is dead-lettered.  Otherwise it is replayed: with
        ``now``, parked on the retry heap for a capped exponential
        backoff; without, returned for immediate re-dispatch.
        """
        worker.outstanding.discard(task_id)
        record = self._tasks.get(task_id)
        if record is None:  # completed meanwhile
            return None
        record.worker_id = None
        self.telemetry.end_span(record.dispatch, outcome=outcome)
        if record.attempts >= self.max_attempts:
            # the verdict is final: a result still on the wire from the
            # dead attempt is dropped as a duplicate, so no task is ever
            # both delivered and dead-lettered
            del self._tasks[task_id]
            self._settled_ids.add(task_id)
            self.telemetry.end_span(record.root, outcome="dead-letter")
            self.dead_letters.append(
                DeadLetter(task_id, record.payload, record.attempts, worker.worker_id)
            )
            self._count("dead_letter_total", "tasks abandoned after exhausting the replay budget")
            return None
        self.replays += 1
        self._count("tasks_replayed_total", "task dispatches replayed after a failed attempt")
        if now is None:
            return record
        delay = min(self.backoff_base * (2 ** (record.attempts - 1)), self.backoff_cap)
        self._park(record, now + delay)
        return None

    def _park(self, record: _TaskRecord, due: float) -> None:
        """Hold ``record`` back from dispatch until ``due`` (lock held)."""
        record.worker_id = None
        record.next_retry_at = due
        heapq.heappush(self._retry_heap, (due, record.task_id))

    def _due_retries(self, now: float) -> Iterator[_TaskRecord]:
        """Pop the parked records whose backoff has elapsed (lock held).

        Only parked records live on the heap, so the steady state costs
        nothing per tick no matter how deep the live task table is —
        scanning the table here was the supervision loop's single
        biggest cost at 100k-task volumes.
        """
        heap = self._retry_heap
        while heap and heap[0][0] <= now:
            record = self._tasks.get(heapq.heappop(heap)[1])
            if record is not None and record.worker_id is None and record.next_retry_at <= now:
                yield record

    def _abandon_tasks(self) -> None:
        """The coordinator died: open task state ends as crashed spans."""
        for record in self._tasks.values():
            self.telemetry.end_span(record.dispatch, outcome="coordinator-crashed")
            self.telemetry.end_span(record.root, outcome="coordinator-crashed")
        self._tasks.clear()
        self._retry_heap.clear()

    # ------------------------------------------------------------------
    # trace context and counters
    # ------------------------------------------------------------------
    def _trace_submit(
        self, record: _TaskRecord, tenant: Optional[str], traceparent: Optional[str]
    ) -> None:
        """Open the task's root span (lock held, telemetry enabled).

        ``tenant`` is stamped on it so ``repro.obs.explain --tenant``
        can reconstruct a single tenant's story.  With ``traceparent``
        (a supervisor resubmitting across a coordinator crash) the span
        is a ``task.attempt`` child of the caller's root instead of a
        fresh root, so every incarnation's attempt chains into one tree.
        """
        task_id = record.task_id
        parent = TraceContext.from_traceparent(traceparent) if traceparent else None
        if parent is not None:
            name, context = "task.attempt", parent.child(f"{self.name}/task/{task_id}")
        else:
            name, context = "task", task_context(self.name, task_id)
        record.root = self.telemetry.start_span(
            name,
            actor=self.name,
            context=context,
            task_id=task_id,
            **({"tenant": tenant} if tenant is not None else {}),
        )

    def _trace_dispatch(
        self, record: _TaskRecord, worker: Any, outcome: Optional[str] = None
    ) -> Optional[str]:
        """Chain one dispatch-attempt span; returns its traceparent.

        The first attempt parents under the task root; every later one
        (crash replay, refused bounce, rebalance steal) parents under
        the attempt it supersedes — the replayed execution lands
        *inside* the failed dispatch's subtree, which is what makes the
        fault story legible.  ``outcome`` closes a superseded attempt
        that is still open.
        """
        if record.root is None:
            return None
        prev = record.dispatch
        if prev is not None and outcome is not None:
            self.telemetry.end_span(prev, outcome=outcome)
        record.dispatch_seq += 1
        parent = prev.context if prev is not None else record.root.context
        seed = f"{self.name}/task/{record.task_id}/dispatch/{record.dispatch_seq}"
        record.dispatch = self.telemetry.start_span(
            "task.dispatch",
            actor=self.name,
            context=parent.child(seed),
            worker=worker.worker_id,
            attempt=record.attempts,
            secured=worker.secured,
        )
        return record.dispatch.context.traceparent()

    def _count_dispatch(self, worker: Any, n: int = 1) -> None:
        """Account ``n`` tasks handed to ``worker`` (lock held)."""
        worker.dispatched += n
        if not self.telemetry.enabled:
            return
        metrics = self.telemetry.metrics
        metrics.counter(
            "repro_mc_dispatch_total", "tasks handed to a worker queue"
        ).labels(farm=self.name).inc(n)
        if not worker.secured:
            metrics.counter(
                "repro_mc_insecure_dispatch_total",
                "tasks handed to a worker over an unsecured channel",
            ).labels(farm=self.name).inc(n)

    def _count(self, metric: str, help_: str, n: int = 1, **labels: Any) -> None:
        """Bump one counter of this backend's ``METRICS`` family."""
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(f"{self.METRICS}_{metric}", help_).labels(
                farm=self.name, **labels
            ).inc(n)

    def _gauge_quarantined(self) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge(
                "repro_mc_quarantined_workers", "workers held at the admission gate"
            ).labels(farm=self.name).set(self.quarantined_workers)

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def snapshot(self) -> RuntimeFarmSnapshot:
        with self._lock:
            now = self.now()
            live = [w for w in self.workers if w.active and not w.quarantined]
            lengths = tuple(self._backlog(w) for w in live)
            _, var, _, _ = queue_length_stats(lengths)
            cutoff = now - self.rate_window
            while self._latencies and self._latencies[0][0] <= cutoff:
                self._latencies.popleft()
            mean_lat = (
                sum(lat for _, lat in self._latencies) / len(self._latencies)
                if self._latencies
                else 0.0
            )
            return RuntimeFarmSnapshot(
                time=now,
                arrival_rate=self.arrival_est.rate(now),
                departure_rate=self.departure_est.rate(now),
                num_workers=len(live),
                queue_lengths=lengths,
                queue_variance=var,
                completed=self.completed,
                pending=len(self._tasks),
                mean_latency=mean_lat,
                quarantined=self.quarantined_workers,
            )

    @property
    def num_workers(self) -> int:
        """Serving capacity: live workers past the admission gate."""
        return sum(1 for w in self.workers if w.active and not w.quarantined)

    @property
    def quarantined_workers(self) -> int:
        return sum(1 for w in self.workers if w.active and w.quarantined)

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------
    def secure_worker(self, worker_id: int) -> bool:
        """Switch one worker's channel to encrypted payloads.

        A parent-local queue or pipe has no wire to handshake over:
        securing is flipping the emitter-side cipher on, and the worker
        decrypts per item via the ``enc`` flag it already honours.
        """
        with self._lock:
            w = self._find_worker(worker_id)
            if w is None or not w.active:
                return False
            w.secured = True
            return True

    def admit_worker(self, worker_id: int) -> bool:
        """Lift the admission gate: the worker joins the dispatch set."""
        with self._lock:
            w = self._find_worker(worker_id)
            if w is None or not w.active:
                return False
            w.quarantined = False
            self._gauge_quarantined()
            return True

    def secure_all(self) -> None:
        """Encrypt every future task payload."""
        with self._lock:
            for w in self.workers:
                w.secured = True

    def balance_load(self) -> int:
        """Move queued, not yet started tasks from long queues to short.

        Queue sizes are approximate under concurrency, as on every real
        runtime.  Backends supply ``_move`` (steal one queued task from
        one worker and hand it to another) and may redefine
        ``_backlog`` (how long a worker's queue is).
        """
        moved = 0
        with self._lock:
            live = self._serving()
            while len(live) > 1 and moved < 1000:
                live.sort(key=self._backlog)
                shortest, longest = live[0], live[-1]
                if self._backlog(longest) - self._backlog(shortest) <= 1:
                    break
                if not self._move(longest, shortest):
                    break
                moved += 1
        return moved

    def _backlog(self, worker: Any) -> int:
        return len(worker.outstanding)

    def _move(self, src: Any, dst: Any) -> bool:
        raise NotImplementedError
