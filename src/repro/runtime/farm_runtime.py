"""Thread-based task farm: live execution of the farm behavioural skeleton.

This is the wall-clock counterpart of :class:`repro.sim.farm.SimFarm`:
real worker threads executing a real Python callable over a stream of
tasks, with the same monitoring surface (arrival/departure rates, queue
lengths) and the same actuators (add/remove worker, rebalance, secure).
Python's GIL limits the parallel speed-up for CPU-bound functions
(repro-band note), so the quantitative experiments use the simulator;
this runtime exists to show that the identical manager/rule machinery
drives genuine concurrent execution — see
:class:`~repro.runtime.controller.FarmController`.

Secured channels are real here: task payloads (pickled) are encrypted by
the emitter and decrypted by the worker with the toy cipher from
:mod:`repro.security.crypto`, so securing a worker has an actual,
measurable cost.

The task table, the admission gate and the monitoring sample come from
:class:`~repro.runtime.farm_core.FarmCore`; this module adds only the
transport — one in-process queue per worker.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
from typing import Any, Callable, List, Optional

from ..obs.spans import Span
from ..obs.telemetry import Telemetry
from ..security.crypto import decrypt, encrypt
from .backend import RuntimeFarmSnapshot
from .farm_core import FarmCore, WorkerState, _TaskRecord

__all__ = ["ThreadFarm", "ThreadWorker", "RuntimeFarmSnapshot"]

_SECRET = b"repro-channel-key"


class _Poison:
    """Queue sentinel stopping one worker."""


class ThreadWorker(WorkerState):
    """One worker thread with a private task queue."""

    def __init__(
        self,
        farm: "ThreadFarm",
        worker_id: int,
        *,
        secured: bool = False,
        quarantined: bool = False,
    ) -> None:
        super().__init__(worker_id, secured=secured, quarantined=quarantined)
        self.farm = farm
        self.queue: "queue.Queue[Any]" = queue.Queue()
        self.completed = 0
        self._thread = threading.Thread(
            target=self._run, name=f"{farm.name}-w{worker_id}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self.active = False
        self.queue.put(_Poison())

    def join(self, timeout: float = 10.0) -> None:
        self._thread.join(timeout)

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            if isinstance(item, _Poison):
                return
            task_id, payload, enc, record = item
            if enc:
                payload = pickle.loads(decrypt(_SECRET, payload))
            exec_span = self.farm._trace_exec(record, self.worker_id)
            try:
                result = self.farm.fn(payload)
            except Exception as exc:  # noqa: BLE001 - surfaced via results
                result = exc
            if exec_span is not None:
                self.farm.telemetry.end_span(
                    exec_span,
                    outcome="error" if isinstance(result, Exception) else "ok",
                )
            self.completed += 1
            self.farm._deliver(self, task_id, result)


class ThreadFarm(FarmCore):
    """A live task farm executing ``fn`` over submitted tasks."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        initial_workers: int = 2,
        name: str = "tfarm",
        rate_window: float = 5.0,
        max_workers: int = 64,
        clock: Callable[[], float] = time.monotonic,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if initial_workers < 1:
            raise ValueError("need at least one worker")
        super().__init__(
            name=name,
            rate_window=rate_window,
            max_workers=max_workers,
            telemetry=telemetry,
            clock=clock,
        )
        self.fn = fn
        self.end_of_stream = False
        for _ in range(initial_workers):
            self.add_worker()

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
        """Dispatch one task to an admitted worker (round robin).

        ``tenant`` and ``traceparent`` shape the task's root span (see
        :meth:`~repro.runtime.farm_core.FarmCore._trace_submit`).
        """
        with self._lock:
            worker = self._round_robin()
            if worker is None:
                raise RuntimeError("farm has no admitted workers")
            record = self._new_task(payload, tenant, traceparent)
            if worker.secured:
                payload = encrypt(_SECRET, pickle.dumps(payload))
            self._enqueue(worker, (record.task_id, payload, worker.secured, record))

    def _enqueue(self, worker: ThreadWorker, item: tuple, outcome: Optional[str] = None) -> None:
        """Put one envelope on ``worker``'s queue (lock held).

        The envelope carries its task record in-process, so a move
        (``outcome``: rebalanced, redispatched) only re-books the record;
        the worker reads the current dispatch span when it starts.
        """
        if item[3] is not None:
            self._assign(item[3], worker, outcome)
        worker.queue.put(item)
        self._count_dispatch(worker)

    def _backlog(self, worker: ThreadWorker) -> int:
        return worker.queue.qsize()

    def _move(self, src: ThreadWorker, dst: ThreadWorker) -> bool:
        try:
            item = src.queue.get_nowait()
        except queue.Empty:
            return False
        if isinstance(item, _Poison):
            src.queue.put(item)
            return False
        src.outstanding.discard(item[0])
        self._enqueue(dst, item, outcome="rebalanced")
        return True

    def _trace_exec(self, record: Optional[_TaskRecord], worker_id: int) -> Optional[Span]:
        """Open the worker-side execution span (worker thread)."""
        if record is None or record.dispatch is None:
            return None
        dctx = record.dispatch.context
        return self.telemetry.start_span(
            "task.exec",
            actor=f"{self.name}-w{worker_id}",
            context=dctx.child(f"exec:{worker_id}:{dctx.span_id}"),
            worker=worker_id,
        )

    def _deliver(self, worker: ThreadWorker, task_id: int, result: Any) -> None:
        with self._lock:
            fresh = self._ack(worker, task_id, result)
        if fresh:
            self.results.put(result)

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------
    def add_worker(self, *, secured: bool = False, quarantined: bool = False) -> ThreadWorker:
        with self._lock:
            self._check_capacity()
            return self._register(
                ThreadWorker(self, self._next_id, secured=secured, quarantined=quarantined)
            )

    def remove_worker(self) -> Optional[ThreadWorker]:
        """Retire the newest admitted worker; its queued tasks are re-dispatched."""
        with self._lock:
            victim = self._retiree()
            if victim is None:
                return None
            victim.active = False
            leftovers = self._drain(victim)
            victim.queue.put(_Poison())
            survivors = self._serving()
            for i, item in enumerate(leftovers):
                victim.outstanding.discard(item[0])
                self._enqueue(survivors[i % len(survivors)], item, outcome="redispatched")
        return victim

    @staticmethod
    def _drain(worker: ThreadWorker) -> List[tuple]:
        """Empty ``worker``'s queue; returns the task envelopes it held."""
        items = []
        while True:
            try:
                item = worker.queue.get_nowait()
            except queue.Empty:
                return items
            if not isinstance(item, _Poison):
                items.append(item)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate the coordinator process dying (SIGKILL semantics).

        Thread workers live *inside* the coordinator process, so they
        die with it: every queued envelope is dropped on the floor (its
        spans closed as ``coordinator-crashed``), every worker is
        stopped, and nothing is flushed — a dead process flushes
        nothing.  A task already executing may still finish and deliver
        into ``results``; the supervisor's journal dedup makes that
        at-least-once tail harmless.
        """
        with self._lock:
            workers = list(self.workers)
            for w in workers:
                w.active = False
            self._abandon_tasks()
        for w in workers:
            self._drain(w)
            w.queue.put(_Poison())

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every worker (pending tasks are abandoned)."""
        with self._lock:
            workers = list(self.workers)
            for w in workers:
                w.active = False
        for w in workers:
            w.queue.put(_Poison())
        for w in workers:
            w.join(timeout)
        # abandoned tasks must not leak open spans into the export
        if self.telemetry.enabled:
            self.telemetry.flush()
