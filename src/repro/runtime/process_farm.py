"""Process-based task farm: real parallelism, real crash fault-tolerance.

The third substrate behind the Figure 5 rules, after the deterministic
simulator (:class:`repro.sim.farm.SimFarm`) and the thread farm
(:class:`repro.runtime.farm_runtime.ThreadFarm`).  Workers here are OS
processes, so CPU-bound stages genuinely scale past the GIL — and a
worker *death* is a real event (``SIGKILL``-able), not a simulated one.

Fault tolerance follows the paper's §2 framing — the manager "takes care
of performing all those activities needed to restore ... after a fault"
— split between two layers:

* **mechanism (this module)**: every dispatched task is tracked until a
  completion ack returns over the result pipe.  Workers are supervised
  by heartbeats (a daemon thread in each child beats every
  ``heartbeat_period`` even while the main thread grinds a long task).
  When a worker dies, its un-acked tasks are *replayed* to survivors
  with capped exponential backoff; a task that keeps dying is parked in
  the dead-letter list after ``max_attempts`` dispatches.  Replay is
  at-least-once — a task whose ack was in flight at crash time runs
  twice — and the farm dedupes acks by task id, so the *results stream*
  stays exactly-once.
* **policy (the unmodified rules)**: a crash shrinks capacity, measured
  departure rate sags below the contract stripe, and the ordinary
  ``CheckRateLow`` rule fires ``ADD_EXECUTOR`` through
  :class:`~repro.runtime.controller.FarmController` — recovery is just
  contract enforcement, exactly as in the simulated fault experiments.

Telemetry is process-safe by construction: workers only ever *send*
(acks, heartbeats, per-worker completion counters) over the result
pipe; the parent's pump thread is the single writer into the shared
:class:`repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..obs.clock import Ticker
from ..obs.propagation import TraceContext, make_span_record
from ..obs.telemetry import Telemetry
from ..security.crypto import decrypt, encrypt
from .farm_core import DeadLetter, FarmCore, WorkerState, _TaskRecord

__all__ = ["ProcessFarm", "ProcessWorkerHandle", "DeadLetter", "default_start_method"]

_SECRET = b"repro-channel-key"

#: poison sentinel understood by the worker loop
_POISON = ("__poison__",)


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap, closures allowed),
    ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _worker_main(
    worker_id: int,
    farm_name: str,
    fn: Callable[[Any], Any],
    task_q: "multiprocessing.Queue",
    result_q: "multiprocessing.Queue",
    heartbeat_period: float,
) -> None:
    """Child-process body: drain the task queue, ack every completion.

    A daemon heartbeat thread beats independently of task execution, so
    a worker crunching one long CPU-bound task is still visibly alive;
    only real death (or a wedged process) silences it.

    Each task envelope may carry a ``traceparent`` naming the parent-side
    dispatch span; the worker then records its execution as a span
    *record* (plain dict — the parent has the only SpanRecorder) and
    ships it back on the ``done`` ack, where it is re-parented into the
    coordinator's trace store.  Timestamps are epoch seconds, the same
    base the parent's WallClock uses.
    """
    completed = 0
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_period):
            try:
                result_q.put(("hb", worker_id, completed))
            except Exception:  # noqa: BLE001 - parent gone; nothing to report to
                return

    hb = threading.Thread(target=beat, name=f"pfarm-hb-{worker_id}", daemon=True)
    hb.start()

    while True:
        item = task_q.get()
        if item == _POISON:
            stop.set()
            result_q.put(("bye", worker_id, completed))
            return
        task_id, payload, enc, traceparent = item
        if enc:
            payload = pickle.loads(decrypt(_SECRET, payload))
        started = time.time()
        try:
            result = fn(payload)
        except Exception as exc:  # noqa: BLE001 - surfaced via results
            result = exc
        if isinstance(result, Exception):
            try:  # an unpicklable exception must not wedge the ack path
                pickle.dumps(result)
            except Exception:  # noqa: BLE001
                result = RuntimeError(f"worker {worker_id}: {result!r}")
        span_rec = None
        parent_ctx = TraceContext.from_traceparent(traceparent)
        if parent_ctx is not None:
            # the parent span id is unique per dispatch attempt, so the
            # derived exec span id is too — replays never collide
            ctx = parent_ctx.child(f"exec:{worker_id}:{parent_ctx.span_id}")
            span_rec = make_span_record(
                ctx,
                "task.exec",
                actor=f"{farm_name}-w{worker_id}",
                start=started,
                end=time.time(),
                attributes={
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "outcome": "error" if isinstance(result, Exception) else "ok",
                },
            )
        completed += 1
        result_q.put(("done", worker_id, task_id, result, completed, span_rec))


@dataclass(eq=False)
class ProcessWorkerHandle(WorkerState):
    """Parent-side handle of one worker process."""

    process: Optional[multiprocessing.Process] = None
    task_queue: Optional["multiprocessing.Queue"] = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid


class ProcessFarm(FarmCore):
    """A live task farm whose executors are supervised OS processes.

    Satisfies the same :class:`~repro.runtime.backend.FarmBackend`
    surface as :class:`~repro.runtime.farm_runtime.ThreadFarm`; the
    extra knobs are all fault-tolerance tuning:

    ``heartbeat_period`` / ``heartbeat_timeout``
        children beat every period; a worker silent for the timeout (or
        whose process has exited) is declared dead.
    ``backoff_base`` / ``backoff_cap``
        replay delay for attempt *n* is ``min(base * 2**(n-1), cap)``.
    ``max_attempts``
        dispatch budget per task before it is dead-lettered.
    ``start_method``
        multiprocessing start method; ``fork`` (default on POSIX) allows
        closures as ``fn``, ``spawn`` needs a module-level callable.
    """

    METRICS = "repro_process"

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        initial_workers: int = 2,
        name: str = "pfarm",
        rate_window: float = 5.0,
        max_workers: int = 64,
        heartbeat_period: float = 0.1,
        heartbeat_timeout: float = 2.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        max_attempts: int = 5,
        supervise_period: float = 0.05,
        start_method: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if initial_workers < 1:
            raise ValueError("need at least one worker")
        super().__init__(
            name=name,
            rate_window=rate_window,
            max_workers=max_workers,
            telemetry=telemetry,
            clock=clock,
            max_attempts=max_attempts,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
        )
        self.fn = fn
        self.heartbeat_period = heartbeat_period
        self.heartbeat_timeout = heartbeat_timeout
        self._ctx = multiprocessing.get_context(start_method or default_start_method())
        self._result_q: "multiprocessing.Queue" = self._ctx.Queue()

        self._shutdown = threading.Event()
        for _ in range(initial_workers):
            self.add_worker()
        self._pump = threading.Thread(
            target=self._pump_loop, name=f"{name}-pump", daemon=True
        )
        self._pump.start()
        self._supervisor = Ticker(telemetry=self.telemetry).periodic(
            supervise_period, self.supervise_once, name=f"{name}-supervisor"
        )

    # ------------------------------------------------------------------
    # stream
    # ------------------------------------------------------------------
    def submit(
        self,
        payload: Any,
        *,
        tenant: Optional[str] = None,
        traceparent: Optional[str] = None,
    ) -> None:
        """Track one task and dispatch it to a worker (round robin).

        ``tenant`` and ``traceparent`` shape the task's root span (see
        :meth:`~repro.runtime.farm_core.FarmCore._trace_submit`).
        """
        with self._lock:
            self._dispatch(self._new_task(payload, tenant, traceparent))

    def _dispatch(self, record: _TaskRecord) -> bool:
        """Send one tracked task to a serving worker (lock held).

        With no serving worker (e.g. every process just crashed) the
        record is parked with a due retry; the supervisor re-dispatches
        as soon as capacity returns.
        """
        worker = self._round_robin()
        if worker is None:
            self._park(record, self.now())
            return False
        traceparent = self._assign(record, worker)
        payload = record.payload
        if worker.secured:
            payload = encrypt(_SECRET, pickle.dumps(payload))
        worker.task_queue.put((record.task_id, payload, worker.secured, traceparent))
        self._count_dispatch(worker)
        return True

    def _move(self, src: ProcessWorkerHandle, dst: ProcessWorkerHandle) -> bool:
        """Steal one queued, not yet started task from ``src`` for ``dst``.

        The parent is a legitimate extra consumer of a worker's task
        queue, so stealing is just ``get_nowait`` + re-dispatch.
        """
        while True:
            try:
                item = src.task_queue.get_nowait()
            except queue.Empty:
                return False
            if item == _POISON:
                src.task_queue.put(item)
                return False
            src.outstanding.discard(item[0])
            record = self._tasks.get(item[0])
            if record is not None:
                break
            # a replay whose original already completed: drop the copy
        # re-stamp the envelope so the exec span parents under the
        # steal, not the superseded dispatch
        traceparent = self._assign(record, dst, outcome="rebalanced")
        dst.task_queue.put(item[:3] + (traceparent,))
        self._count_dispatch(dst)
        return True

    # ------------------------------------------------------------------
    # result pump: the single reader of the result pipe (and the single
    # writer into the metrics registry)
    # ------------------------------------------------------------------
    def _pump_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                msg = self._result_q.get(timeout=0.1)
            except queue.Empty:
                continue
            except (EOFError, OSError):  # queue closed during shutdown
                return
            self._handle_message(msg)

    def _handle_message(self, msg: tuple) -> None:
        kind = msg[0]
        with self._lock:
            handle = self._find_worker(msg[1])
            if handle is not None:
                handle.last_seen = self.now()
                self._note_worker_counter(handle, msg[4] if kind == "done" else msg[2])
            if kind != "done":
                return
            _, _, task_id, result, _, span_rec = msg
            fresh = self._ack(handle, task_id, result, span_rec)
        if fresh:
            self.results.put(result)

    # ------------------------------------------------------------------
    # supervision: heartbeat liveness + replay of due retries
    # ------------------------------------------------------------------
    def supervise_once(self) -> List[int]:
        """One supervision pass (public so tests can drive it directly).

        Returns the ids of workers declared dead in this pass.
        """
        dead: List[int] = []
        with self._lock:
            now = self.now()
            for w in list(self.workers):
                if not w.active:
                    continue
                alive = w.process.is_alive()
                silent = (
                    w.last_seen > 0.0 or not alive
                ) and now - w.last_seen > self.heartbeat_timeout
                if alive and not silent:
                    continue
                if w.retiring and not alive and not w.outstanding:
                    w.active = False  # clean retirement, nothing to replay
                    continue
                self._declare_dead(w, now)
                dead.append(w.worker_id)
            self._dispatch_due_retries(now)
        return dead

    def _declare_dead(self, w: ProcessWorkerHandle, now: float) -> None:
        if w.process.is_alive():  # wedged, not dead: make it official
            try:
                w.process.kill()
            except Exception:  # noqa: BLE001
                pass
        super()._declare_dead(w, now)

    def _dispatch_due_retries(self, now: float) -> None:
        """Re-dispatch replayed tasks whose backoff has elapsed (lock held)."""
        for record in self._due_retries(now):
            if not self._dispatch(record):
                return

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------
    def add_worker(
        self, *, secured: bool = False, quarantined: bool = False
    ) -> ProcessWorkerHandle:
        with self._lock:
            self._check_capacity()
            worker_id = self._next_id
            task_q = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    self.name,
                    self.fn,
                    task_q,
                    self._result_q,
                    self.heartbeat_period,
                ),
                name=f"{self.name}-w{worker_id}",
                daemon=True,
            )
            handle = ProcessWorkerHandle(
                worker_id=worker_id,
                process=proc,
                task_queue=task_q,
                secured=secured,
                quarantined=quarantined,
                last_seen=self.now(),
            )
            proc.start()
            return self._register(handle)

    def admit_worker(self, worker_id: int) -> bool:
        with self._lock:
            if not super().admit_worker(worker_id):
                return False
            # capacity just appeared: anything parked for retry can go now
            self._dispatch_due_retries(self.now())
            return True

    def remove_worker(self) -> Optional[ProcessWorkerHandle]:
        """Retire the newest worker gracefully.

        The poison sentinel queues *behind* any tasks already dispatched
        to the victim, so it drains its backlog before exiting; the
        supervisor replays anything still un-acked if it dies instead.
        """
        with self._lock:
            victim = self._retiree()
            if victim is None:
                return None
            victim.retiring = True
            victim.task_queue.put(_POISON)
            return victim

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def inject_crash(self, worker_id: Optional[int] = None) -> Optional[int]:
        """SIGKILL one live worker process (the newest, unless given).

        Returns the killed worker id, or ``None`` if no worker was
        killable.  Detection, replay and capacity recovery then proceed
        through the ordinary supervision/rule machinery — nothing is
        short-circuited for the test.
        """
        with self._lock:
            victim = self._pick_victim(worker_id)
            if victim is None:
                return None
            pid = victim.pid
        if pid is None:
            return None
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return None
        return victim.worker_id

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate the coordinator process dying (SIGKILL semantics).

        The children are this coordinator's process *group* in spirit:
        a real coordinator SIGKILL orphans them mid-task and they die
        with (or are reaped right after) their parent, so the simulation
        SIGKILLs them outright — no poison, no graceful join.  Open task
        state ends as ``coordinator-crashed`` spans and nothing is
        flushed — a dead process flushes nothing.
        """
        self._stop(timeout=None)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop supervision, then every worker (pending tasks abandoned)."""
        self._stop(timeout)
        # abandoned tasks must not leak open spans into the export
        if self.telemetry.enabled:
            self.telemetry.flush()

    def _stop(self, timeout: Optional[float]) -> None:
        """Poison every worker and give it ``timeout`` seconds to drain
        before SIGKILL; ``None`` kills at once (a coordinator crash)."""
        self._shutdown.set()  # stops the pump loop
        self._supervisor.halt()
        with self._lock:
            workers = list(self.workers)
            for w in workers:
                w.active = False
            if timeout is None:
                self._abandon_tasks()
        for w in workers:
            if timeout is not None:
                try:
                    w.task_queue.put_nowait(_POISON)
                except Exception:  # noqa: BLE001 - queue may already be closed
                    pass
        deadline = time.monotonic() + (timeout or 0.0)
        for w in workers:
            w.process.join(max(0.0, deadline - time.monotonic()))
            if w.process.is_alive():
                w.process.kill()
                w.process.join(1.0)
        self._pump.join(1.0)
        self._supervisor.cancel(1.0)
        for w in workers:
            w.task_queue.close()
            w.task_queue.cancel_join_thread()
        self._result_q.close()
        self._result_q.cancel_join_thread()
