"""Distributed task farm: an asyncio TCP coordinator driving worker processes.

The fourth substrate behind the unmodified Figure 5 rules — after the
simulator, the thread farm and the process farm — and the first with a
real *network* boundary between manager and managed, which is the
platform shape the paper's behavioural skeletons actually target
(GCM/ProActive components steered across a grid).  The coordinator
speaks the binary batched protocol of :mod:`.dist_proto` over TCP —
v4: struct-packed frame headers, a payload codec negotiated per worker
at ``hello``, multi-task ``task_batch``/``result_batch`` frames, with
v3 JSON peers still served via handshake downgrade — to worker
processes it spawns locally through
``python -m repro.runtime.dist_worker`` — and since that entry point is
just a CLI, extra workers can be attached by hand from any host that
can reach ``host:port``.

Fault tolerance mirrors :class:`~repro.runtime.process_farm.ProcessFarm`
semantics exactly, because the conformance suite holds every backend to
the same bar:

* every dispatched task is tracked until its result frame returns;
* workers are declared dead on connection EOF, on heartbeat silence
  beyond ``heartbeat_timeout``, or when their local process exits;
* a dead worker's un-acked tasks are *replayed* with capped exponential
  backoff (at-least-once), deduplicated by task id on the way out
  (exactly-once results), and parked in ``dead_letters`` after
  ``max_attempts`` dispatches;
* lost *capacity* is restored by the ordinary ``CheckRateLow`` rule
  through :class:`~repro.runtime.controller.FarmController` — recovery
  is contract enforcement, exactly as §2 frames it.

Dispatch is *windowed*: each worker holds at most ``max_inflight``
un-acked tasks; everything else waits in a coordinator-side ready queue
and flows to whichever worker frees a slot first.  That keeps the
replay set per crash small, makes queue lengths self-balancing (so
``balance_load`` has genuinely nothing to move), and gives backpressure
a single obvious place to live.

Threading model: one asyncio loop in a daemon thread owns every socket;
the synchronous :class:`~repro.runtime.backend.FarmBackend` surface is
called from other threads and communicates with the loop only through
``call_soon_threadsafe``.  Shared bookkeeping sits behind one re-entrant
lock, held only for short, non-blocking sections.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
import time
import queue
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Set, Tuple

from ..obs.telemetry import Telemetry
from .dist_proto import (
    COMPAT_PROTOCOLS,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
    encode_frame_v4,
    encode_payload,
    make_challenge,
    negotiate_codec,
    version_mismatch_error,
    read_frame_ex,
    verify_proof,
)
from .farm_core import FarmCore, WorkerState, _TaskRecord

__all__ = ["DistFarm", "DistWorkerHandle", "fn_spec"]


def fn_spec(fn: Any) -> str:
    """Derive the ``module:qualname`` spec a worker process can import.

    The task function crosses a process (and potentially host) boundary
    by *name*, never by value — the same constraint multiprocessing's
    ``spawn`` start method imposes, made explicit.
    """
    if isinstance(fn, str):
        if ":" not in fn:
            raise ValueError(f"fn spec must look like 'module:qualname', got {fn!r}")
        return fn
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        raise ValueError(f"cannot derive an import spec for {fn!r}")
    if module == "__main__" or "<locals>" in qualname:
        raise ValueError(
            f"DistFarm task functions must be importable module-level callables "
            f"(got {module}:{qualname}); move the function into a module"
        )
    return f"{module}:{qualname}"


class _ResultBus(queue.Queue):
    """A ``queue.Queue`` that can deliver a whole result batch at once.

    ``put`` wakes the consumer (and trades the GIL) once *per item*; on
    the batched wire a single ``result_batch`` frame carries dozens of
    results, and that per-item handoff storm between the loop thread
    and the draining caller was a measurable share of the transport
    cost.  ``put_many`` appends the batch under one lock acquisition
    and one wakeup.  Items are still individual results — only the
    producer-side granularity changes.
    """

    def put_many(self, items: List[Any]) -> None:
        if not items:
            return
        with self.mutex:
            self.queue.extend(items)
            self.unfinished_tasks += len(items)
            self.not_empty.notify(len(items))


@dataclass(eq=False)
class DistWorkerHandle(WorkerState):
    """Coordinator-side view of one worker (spawned or attached)."""

    #: local child process, or None for a remotely attached worker
    process: Optional[subprocess.Popen] = None
    writer: Optional[asyncio.StreamWriter] = None
    connected: bool = False
    ever_connected: bool = False
    got_bye: bool = False
    spawned_at: float = 0.0
    #: protocol generation this session negotiated (3: legacy JSON
    #: dialect — one task per frame, per-payload encryption; 4: binary
    #: frames, batches)
    proto: int = PROTOCOL_VERSION
    #: frame layout the peer speaks (set from its hello; replies in kind)
    wire: int = 3
    #: payload codec negotiated at hello for this session's data frames
    codec: str = "json"
    span: Any = None  # detached dist.worker telemetry span
    #: in-flight secure handshake state (challenge sent, waiter to wake)
    secure_challenge: Optional[str] = None
    secure_waiter: Optional[threading.Event] = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def fail_handshake(self) -> None:
        """Wake a ``secure_worker()`` caller blocked on this worker's
        handshake, so it reports failure instead of timing out."""
        if self.secure_waiter is not None:
            self.secure_challenge = None
            self.secure_waiter.set()
            self.secure_waiter = None


class DistFarm(FarmCore):
    """A live task farm whose executors sit across a TCP boundary.

    Satisfies the :class:`~repro.runtime.backend.FarmBackend` surface,
    so :class:`~repro.runtime.controller.FarmController` drives it with
    the unmodified Figure 5 rules.  Extra knobs:

    ``host``
        interface the coordinator binds (default loopback; use
        ``"0.0.0.0"`` to accept workers from other hosts).
    ``heartbeat_period`` / ``heartbeat_timeout``
        workers beat every period; a *connected* worker silent for the
        timeout is declared dead (wedged or partitioned).
    ``connect_grace``
        a spawned worker that never manages to connect within this
        budget is declared dead (interpreter start + imports happen in
        here, so it is deliberately generous).
    ``backoff_base`` / ``backoff_cap`` / ``max_attempts``
        replay schedule, identical to the process farm's.
    ``max_inflight``
        un-acked tasks a worker may hold; the rest queue centrally.
    ``start_timeout``
        how long ``__init__`` waits for the initial workers to connect.
    ``port``
        TCP port to bind (default 0: pick a free one).  A promoted
        standby passes the dead coordinator's port so surviving workers
        redialing it land on the successor.
    ``epoch``
        coordinator incarnation counter, announced in every
        ``welcome``/``takeover`` frame; workers refuse task frames from
        an epoch older than the newest they have served.
    ``worker_reconnect_attempts``
        spawn workers with ``--reconnect-attempts N`` so they survive a
        coordinator crash and reattach to the promoted standby (0, the
        default: workers exit on coordinator EOF, the pre-v3 behaviour).
    ``codec``
        payload codec for v4 sessions: ``"auto"`` (default) negotiates
        per worker — pickle for workers this coordinator spawned or
        adopted, the safe list for remote attachers — or a codec name
        to pin every session to it.  v3 peers always speak json.
    ``batch_size``
        most tasks one ``task_batch`` frame carries; with the default
        ``max_inflight`` of 2 batches degenerate to singletons, so
        throughput configs raise both together.
    ``max_buffered_bytes``
        backpressure threshold: a worker whose socket write buffer
        exceeds this is skipped by dispatch until it drains (the
        supervisor tick and every ack re-run the fill pass).
    """

    #: ``add_worker`` accepts ``require_secure=True``, spawning workers
    #: that enforce the admission gate on their own side of the wire
    #: (coordinators without the capability simply rely on quarantine)
    SUPPORTS_REQUIRE_SECURE = True

    METRICS = "repro_dist"

    def __init__(
        self,
        fn: Any,
        *,
        initial_workers: int = 2,
        name: str = "dfarm",
        rate_window: float = 5.0,
        max_workers: int = 64,
        host: str = "127.0.0.1",
        heartbeat_period: float = 0.1,
        heartbeat_timeout: float = 2.0,
        connect_grace: float = 15.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        max_attempts: int = 5,
        supervise_period: float = 0.05,
        max_inflight: int = 2,
        start_timeout: float = 30.0,
        telemetry: Optional[Telemetry] = None,
        clock: Callable[[], float] = time.monotonic,
        port: int = 0,
        epoch: int = 0,
        worker_reconnect_attempts: int = 0,
        codec: str = "auto",
        batch_size: int = 32,
        max_buffered_bytes: int = 256 * 1024,
    ) -> None:
        if initial_workers < 0:
            # 0 is legal: a promoted standby starts empty and adopts the
            # dead coordinator's surviving workers instead of spawning
            raise ValueError("initial_workers must be non-negative")
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
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
        self.fn_spec = fn_spec(fn)
        if codec == "auto":
            # REPRO_DIST_CODEC pins every session without touching call
            # sites — how the CI msgpack conformance leg forces the
            # optional codec onto the whole grow/crash story
            codec = os.environ.get("REPRO_DIST_CODEC") or "auto"
        self.codec = codec
        self.batch_size = batch_size
        self.max_buffered_bytes = max_buffered_bytes
        self._fill_scheduled = False
        self.heartbeat_period = heartbeat_period
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_grace = connect_grace
        self.supervise_period = supervise_period
        self.max_inflight = max_inflight
        self._host = host
        self.epoch = epoch
        self.worker_reconnect_attempts = worker_reconnect_attempts
        self._requested_port = port
        self.results: "_ResultBus" = _ResultBus()
        self._ready: "deque[int]" = deque()
        self._ready_set: Set[int] = set()

        self._shutdown = threading.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._supervisor_task: Optional[asyncio.Task] = None
        self.port: int = 0

        self._loop = asyncio.new_event_loop()
        self._loop_ready = threading.Event()
        self._loop_thread = threading.Thread(
            target=self._loop_main, name=f"{name}-loop", daemon=True
        )
        self._loop_thread.start()
        if not self._loop_ready.wait(start_timeout):
            raise RuntimeError("coordinator event loop failed to start")

        try:
            for _ in range(initial_workers):
                self.add_worker()
            self._wait_for_connections(initial_workers, start_timeout)
        except Exception:
            self.shutdown()
            raise

    # ------------------------------------------------------------------
    # event-loop thread
    # ------------------------------------------------------------------
    def _loop_main(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            self._server = await asyncio.start_server(
                self._on_connection, self._host, self._requested_port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            self._supervisor_task = self._loop.create_task(self._supervise_coro())

        self._loop.run_until_complete(boot())
        self._loop_ready.set()
        self._loop.run_forever()
        try:
            self._loop.run_until_complete(self._finalize())
        finally:
            self._loop.close()

    async def _finalize(self) -> None:
        """Post-``loop.stop()`` cleanup: no socket survives shutdown."""
        if self._server is not None:
            self._server.close()
        with self._lock:
            writers = [w.writer for w in self.workers if w.writer is not None]
        for writer in writers:
            try:
                writer.transport.abort()
            except Exception:  # noqa: BLE001
                pass
        pending = [
            t for t in asyncio.all_tasks(self._loop) if t is not asyncio.current_task()
        ]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    async def _on_connection(self, reader, writer) -> None:
        """One connected worker: handshake, then pump its frames."""
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # teardown (crash/shutdown) cancelled this handler mid-read;
            # swallowing the cancellation keeps 3.11's streams done-
            # callback from logging it as an unhandled task exception
            return

    async def _serve_connection(self, reader, writer) -> None:
        # the hello travels as codec 0 (json) on either frame layout; a
        # protocol violation before identification is just a bad client
        try:
            hello, wire = await read_frame_ex(reader, allowed=("json",))
        except ProtocolError:
            writer.close()
            return
        if hello is None or hello.get("type") not in ("hello", "reattach"):
            writer.close()
            return
        peer_proto = hello.get("proto")
        if peer_proto not in COMPAT_PROTOCOLS:
            # refuse mismatched (or unversioned) peers up front with a
            # diagnosis, instead of failing opaquely on the first frame
            # the older peer does not understand
            writer.write(
                self._encode_wire(
                    version_mismatch_error(peer_proto, role="coordinator"), wire
                )
            )
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        claimed = int(hello.get("worker_id", -1))
        # the session runs the v4 dialect only if the peer both announced
        # v4 *and* framed its hello as v4 — a v4-version hello on v3
        # frames (hand-rolled clients, tests) gets the legacy dialect
        session_proto = 4 if (peer_proto == PROTOCOL_VERSION and wire == 4) else 3
        codec = "json"
        if session_proto == 4:
            with self._lock:
                existing = self._find_worker(claimed) if claimed >= 0 else None
                # pickle is only negotiated with workers whose *process*
                # this coordinator owns (spawned or adopted); a remote
                # attacher negotiates down the safe list
                trusted = existing is not None and existing.process is not None
            try:
                codec = negotiate_codec(
                    hello.get("codecs") or ["json"],
                    trusted=trusted,
                    allowed=self.codec,
                )
            except ProtocolError as exc:
                writer.write(
                    encode_frame_v4(
                        {"type": "error", "error": str(exc), "proto": PROTOCOL_VERSION}
                    )
                )
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                writer.close()
                return
        with self._lock:
            handle = self._find_worker(claimed) if claimed >= 0 else None
            reattaching = (
                hello.get("type") == "reattach"
                and handle is not None
                and handle.active
                and not handle.connected
            )
            if reattaching:
                # a worker that outlived its previous coordinator:
                # reactivate its registration instead of allocating a
                # fresh identity.  Channel trust does not survive the
                # crash — the secure handshake must be redone — and any
                # outstanding attempts recorded against the old life are
                # replayed rather than waited for.
                handle.retiring = False
                handle.got_bye = False
                handle.secured = False
                handle.reported_completed = max(
                    handle.reported_completed, int(hello.get("completed", 0))
                )
                for task_id in sorted(handle.outstanding):
                    if self._requeue(handle, task_id, "redispatched") is not None:
                        self._enqueue_ready(task_id)
            elif handle is None or handle.connected or not handle.active:
                # remotely attached (or stale-id) worker: register fresh
                try:
                    self._check_capacity()
                except RuntimeError:
                    writer.close()
                    return
                handle = self._register_worker(process=None)
            handle.writer = writer
            handle.connected = True
            handle.ever_connected = True
            handle.last_seen = self.now()
            handle.proto = session_proto
            handle.wire = wire if session_proto == 4 else 3
            handle.codec = codec
            retiring = handle.retiring
        reply = {
            "type": "takeover" if reattaching else "welcome",
            "worker_id": handle.worker_id,
            # echo the peer's own generation: a v3 peer must read the
            # version it can serve, not the one we prefer
            "proto": peer_proto,
            "epoch": self.epoch,
        }
        if session_proto == 4:
            reply["codec"] = codec
        writer.write(self._encode_control(handle, reply))
        if reattaching:
            self._count("reattach_total", "workers reattached after a coordinator failover")
            # ready tasks may have been waiting for this worker to appear
            self._request_fill()
        if retiring or self._shutdown.is_set():
            # retired (or farm torn down) before it finished connecting
            writer.write(self._encode_control(handle, {"type": "poison"}))
        self._count_frame("tx", 0)
        # after negotiation the connection may only carry json (control
        # frames) and the session codec; anything else is a violation
        allowed = ("json", handle.codec)
        while True:
            try:
                frame = await read_frame_ex(reader, allowed=allowed)
            except ProtocolError:
                # torn batch, oversized length, codec smuggling: the
                # peer is faulty — disconnect, declare dead, replay its
                # window elsewhere.  Never wait it out.
                self._count(
                    "protocol_errors_total", "connections dropped for wire-protocol violations"
                )
                break
            if frame[0] is None:
                break
            self._count_frame("rx", len(frame[0]))
            self._handle_message(handle, frame[0])
        writer.close()
        self._on_disconnect(handle)

    def _encode_wire(self, message: dict, wire: int) -> bytes:
        """Encode one control frame for a given frame layout (pre-handshake)."""
        return encode_frame(message) if wire == 3 else encode_frame_v4(message)

    def _encode_control(self, handle: DistWorkerHandle, message: dict) -> bytes:
        """Encode one control frame on ``handle``'s dialect (json, clear)."""
        return self._encode_wire(message, handle.wire)

    def _on_disconnect(self, handle: DistWorkerHandle) -> None:
        with self._lock:
            handle.connected = False
            handle.writer = None
            if not handle.active:
                return
            if handle.retiring and handle.got_bye and not handle.outstanding:
                handle.active = False  # clean retirement, nothing to replay
                self._end_worker_span(handle, outcome="retired")
            else:
                self._declare_dead(handle, self.now())
        self._request_fill()

    # ------------------------------------------------------------------
    # message handling (runs in the loop thread)
    # ------------------------------------------------------------------
    def _handle_message(self, handle: DistWorkerHandle, frame: dict) -> None:
        kind = frame.get("type")
        if kind == "secured":
            self._handle_secured(handle, frame)
            return
        if kind == "refused":
            self._handle_refused(handle, frame)
            return
        if kind in ("result", "result_batch"):
            # a result_batch acks a whole window in one frame; a lone
            # result frame is just a batch of one with the legacy shape
            entries = frame["results"] if kind == "result_batch" else (frame,)
            deliver: List[Any] = []
            with self._lock:
                handle.last_seen = self.now()
                self._note_worker_counter(handle, int(frame.get("completed", 0)))
                for entry in entries:
                    error = entry.get("error")
                    result = entry.get("value") if error is None else RuntimeError(error)
                    if self._ack(handle, int(entry["task_id"]), result, entry.get("span")):
                        deliver.append(result)
            self.results.put_many(deliver)
            self._fill()  # freed slots may unblock the ready queue
            return
        with self._lock:
            handle.last_seen = self.now()
            if kind == "hb":
                self._note_worker_counter(handle, int(frame.get("completed", 0)))
            elif kind == "bye":
                handle.got_bye = True
                self._note_worker_counter(handle, int(frame.get("completed", 0)))

    def _handle_secured(self, handle: DistWorkerHandle, frame: dict) -> None:
        """A worker answered a ``secure`` challenge (loop thread)."""
        with self._lock:
            handle.last_seen = self.now()
            challenge = handle.secure_challenge
            ok = challenge is not None and verify_proof(
                challenge, str(frame.get("proof", ""))
            )
            if ok:
                handle.secured = True
            handle.secure_challenge = None
            waiter = handle.secure_waiter
            handle.secure_waiter = None
        self._count(
            "secure_handshakes_total",
            "secure-channel handshake answers, by outcome",
            outcome="ok" if ok else "bad-proof",
        )
        if waiter is not None:
            waiter.set()

    def _handle_refused(self, handle: DistWorkerHandle, frame: dict) -> None:
        """A ``--require-secure`` worker bounced a task (loop thread).

        The bounce counts as a failed dispatch attempt: the task is
        replayed elsewhere, and a task that only ever meets refusals is
        dead-lettered rather than ping-ponged forever.
        """
        raw_ids = frame.get("task_ids")
        task_ids = (
            [int(t) for t in raw_ids]
            if raw_ids
            else [int(frame.get("task_id", -1))]
        )
        with self._lock:
            handle.last_seen = self.now()
            for task_id in task_ids:
                if self._requeue(handle, task_id, "refused") is not None:
                    self._enqueue_ready(task_id)
            self._count(
                "refused_frames_total", "task frames bounced by workers awaiting the handshake"
            )
        self._fill()

    def _count_frame(self, direction: str, size: int) -> None:
        self._count("frames_total", "protocol frames exchanged", direction=direction)

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
        """Track one task and queue it for dispatch.

        ``tenant`` and ``traceparent`` shape the task's root span (see
        :meth:`~repro.runtime.farm_core.FarmCore._trace_submit`).
        """
        with self._lock:
            self._enqueue_ready(self._new_task(payload, tenant, traceparent).task_id)
        self._request_fill()

    def _enqueue_ready(self, task_id: int) -> None:
        """Append to the ready queue exactly once (lock held)."""
        if task_id not in self._ready_set:
            self._ready.append(task_id)
            self._ready_set.add(task_id)

    def _request_fill(self) -> None:
        """Schedule a dispatch pass on the loop thread (thread-safe).

        Coalesced: a burst of submits lands one ``_fill`` on the loop,
        not one per task — the single biggest win of the batched wire,
        since that one pass then drains the whole burst as batch frames.
        """
        if self._shutdown.is_set():
            return
        with self._lock:
            if self._fill_scheduled:
                return
            self._fill_scheduled = True
        if not self._on_loop(self._fill):
            with self._lock:
                self._fill_scheduled = False

    def _on_loop(self, fn: Callable[..., Any], *args: Any) -> bool:
        """Schedule ``fn(*args)`` on the loop thread; False once it is closed."""
        try:
            self._loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:  # loop already closed
            return False
        return True

    def _writable(self, w: DistWorkerHandle) -> bool:
        """Backpressure check: is this worker's socket buffer shallow enough?

        A worker that stops reading (wedged, partitioned, slow) piles
        bytes into its transport buffer; skipping it keeps the pipeline
        streaming to workers that are actually draining, and the next
        ack or supervisor tick retries the skipped one.
        """
        writer = w.writer
        if writer is None:
            return False
        try:
            return writer.transport.get_write_buffer_size() < self.max_buffered_bytes
        except Exception:  # noqa: BLE001 - transport mid-teardown
            return True

    def _fill(self) -> None:
        """Dispatch ready tasks into free worker windows (loop thread only).

        Each pass fills the least-loaded worker's free window slots with
        up to ``batch_size`` tasks in one ``task_batch`` frame (v4
        sessions; v3 sessions get one legacy frame per task) and moves
        on, so a burst of submits streams out as a handful of writes
        instead of a write per task.
        """
        with self._lock:
            self._fill_scheduled = False
            while self._ready:
                candidates = [
                    w
                    for w in self._serving()
                    if w.connected
                    and len(w.outstanding) < self.max_inflight
                    and self._writable(w)
                ]
                if not candidates:
                    return
                worker = min(
                    candidates, key=lambda w: (len(w.outstanding), w.worker_id)
                )
                budget = min(
                    self.max_inflight - len(worker.outstanding), self.batch_size
                )
                entries: List[Tuple[_TaskRecord, Optional[str]]] = []
                while self._ready and len(entries) < budget:
                    task_id = self._ready.popleft()
                    self._ready_set.discard(task_id)
                    record = self._tasks.get(task_id)
                    if record is None or record.worker_id is not None:
                        continue  # completed or already dispatched meanwhile
                    entries.append((record, self._assign(record, worker)))
                if not entries:
                    continue
                frames = self._encode_dispatch(worker, entries)
                try:
                    for data in frames:
                        worker.writer.write(data)
                except Exception:  # noqa: BLE001 - transport died under us
                    for record, _ in entries:
                        if self._requeue(worker, record.task_id, "write-failed") is not None:
                            self._enqueue_ready(record.task_id)
                    return
                for data in frames:
                    self._count_frame("tx", len(data))
                self._count_dispatch(worker, len(entries))
                if len(entries) > 1:
                    self._count(
                        "batched_tasks_total",
                        "tasks dispatched inside multi-task batch frames",
                        len(entries),
                    )

    def _encode_dispatch(
        self,
        worker: DistWorkerHandle,
        entries: List[Tuple[_TaskRecord, Optional[str]]],
    ) -> List[bytes]:
        """Encode one dispatch window on ``worker``'s dialect (lock held).

        v3 sessions: one legacy ``task`` frame per entry, per-payload
        encryption.  v4 singletons keep the legacy ``task`` shape (same
        keys, binary framing); a window of two or more rides one
        ``task_batch``, encrypted whole-frame when the channel is
        secured, with each entry's traceparent riding beside it.
        """
        if worker.wire != 4:
            frames = []
            for record, traceparent in entries:
                message = {
                    "type": "task",
                    "task_id": record.task_id,
                    "payload": encode_payload(record.payload, secured=worker.secured),
                    "enc": worker.secured,
                }
                if traceparent is not None:
                    message["traceparent"] = traceparent
                frames.append(encode_frame(message))
            return frames
        if len(entries) == 1:
            record, traceparent = entries[0]
            message = {
                "type": "task",
                "task_id": record.task_id,
                "payload": record.payload,
            }
            if traceparent is not None:
                message["traceparent"] = traceparent
        else:
            batch = []
            for record, traceparent in entries:
                entry = {"task_id": record.task_id, "payload": record.payload}
                if traceparent is not None:
                    entry["tp"] = traceparent
                batch.append(entry)
            message = {"type": "task_batch", "tasks": batch}
        return [
            encode_frame_v4(message, codec=worker.codec, secured=worker.secured)
        ]

    # ------------------------------------------------------------------
    # supervision: liveness + replay of due retries
    # ------------------------------------------------------------------
    async def _supervise_coro(self) -> None:
        while True:
            await asyncio.sleep(self.supervise_period)
            try:
                self.supervise_once()
            except Exception:  # noqa: BLE001 - the supervisor must survive
                continue

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
                proc_exited = w.process is not None and w.process.poll() is not None
                if w.connected:
                    if now - w.last_seen <= self.heartbeat_timeout and not proc_exited:
                        continue
                else:
                    if w.retiring and w.got_bye and not w.outstanding:
                        w.active = False  # clean retirement observed late
                        self._end_worker_span(w, outcome="retired")
                        continue
                    grace = self.connect_grace if not w.ever_connected else 0.0
                    if not proc_exited and now - w.last_seen <= max(
                        grace, self.heartbeat_timeout
                    ):
                        continue
                self._declare_dead(w, now)
                dead.append(w.worker_id)
            self._dispatch_due_retries(now)
        self._request_fill()
        return dead

    def _declare_dead(self, w: DistWorkerHandle, now: float) -> None:
        w.connected = False
        w.fail_handshake()
        if w.process is not None and w.process.poll() is None:
            try:
                w.process.kill()  # wedged or partitioned: make it official
            except Exception:  # noqa: BLE001
                pass
        if w.writer is not None:
            self._on_loop(w.writer.transport.abort)
            w.writer = None
        self._end_worker_span(w, outcome="crashed")
        super()._declare_dead(w, now)

    def _dispatch_due_retries(self, now: float) -> None:
        """Queue replayed tasks whose backoff has elapsed (lock held)."""
        for record in self._due_retries(now):
            self._enqueue_ready(record.task_id)

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------
    def _register_worker(
        self,
        *,
        process: Optional[subprocess.Popen],
        secured: bool = False,
        quarantined: bool = False,
        worker_id: Optional[int] = None,
    ) -> DistWorkerHandle:
        """Create and track one worker handle (lock held by caller).

        An explicit ``worker_id`` adopts an existing worker under its
        old identity (see :meth:`adopt_worker`).
        """
        adopted = {"adopted": True} if worker_id is not None else {}
        handle = self._register(
            DistWorkerHandle(
                worker_id=self._next_id if worker_id is None else worker_id,
                process=process,
                secured=secured,
                quarantined=quarantined,
                spawned_at=self.now(),
                last_seen=self.now(),
            )
        )
        if self.telemetry.enabled:
            handle.span = self.telemetry.start_span(
                "dist.worker",
                actor=self.name,
                worker=handle.worker_id,
                local=process is not None,
                **adopted,
            )
        return handle

    def _end_worker_span(self, handle: DistWorkerHandle, *, outcome: str) -> None:
        if handle.span is not None:
            self.telemetry.end_span(
                handle.span, outcome=outcome, completed=handle.reported_completed
            )
            handle.span = None

    def add_worker(
        self,
        *,
        secured: bool = False,
        quarantined: bool = False,
        require_secure: bool = False,
    ) -> DistWorkerHandle:
        """Spawn one local worker process and point it at the coordinator.

        ``require_secure`` spawns the worker with ``--require-secure``,
        so the admission gate is enforced on *both* ends of the wire:
        the coordinator never dispatches to a quarantined worker, and
        the worker itself bounces any task frame (e.g. from a hand-
        rolled client) that beats the handshake.
        """
        with self._lock:
            self._check_capacity()
            worker_id = self._next_id  # reserved by _register_worker below
            cmd = [
                sys.executable,
                "-m",
                "repro.runtime.dist_worker",
                "--host",
                self._host,
                "--port",
                str(self.port),
                "--worker-id",
                str(worker_id),
                "--fn",
                self.fn_spec,
                "--heartbeat-period",
                str(self.heartbeat_period),
            ]
            if require_secure:
                cmd.append("--require-secure")
            if self.codec != "auto":
                # a pinned farm spawns workers that offer exactly that
                # codec, so negotiation cannot land anywhere else
                cmd += ["--codec", self.codec]
            if self.worker_reconnect_attempts > 0:
                cmd += ["--reconnect-attempts", str(self.worker_reconnect_attempts)]
            env = dict(os.environ)
            # the child must see the parent's exact import surface — the
            # task function may live in a package only sys.path knows about
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            process = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
            return self._register_worker(
                process=process, secured=secured, quarantined=quarantined
            )

    def adopt_worker(
        self,
        worker_id: int,
        *,
        process: Optional[subprocess.Popen] = None,
        quarantined: bool = False,
    ) -> DistWorkerHandle:
        """Pre-register a worker that already exists (standby promotion).

        A promoted coordinator inherits the dead one's surviving worker
        processes: each keeps its old id, so the ``reattach`` frame it
        sends when it redials this port finds its registration and
        reactivates it.  The handle starts unconnected and *unsecured* —
        channel trust does not survive a coordinator crash — and
        ``connect_grace`` applies until the worker actually reattaches.
        """
        with self._lock:
            if self._find_worker(worker_id) is not None:
                raise ValueError(f"worker id {worker_id} already registered")
            self._check_capacity()
            return self._register_worker(
                process=process, quarantined=quarantined, worker_id=worker_id
            )

    def secure_worker(self, worker_id: int, timeout: float = 10.0) -> bool:
        """Secure one worker's channel via the wire-level handshake.

        Blocks (off the loop thread) until the worker proves possession
        of the shared key, then flips ``secured`` so every subsequent
        task payload to it travels encrypted.  Returns ``False`` on an
        unknown/dead worker, a connection that never appears, a bad
        proof, or timeout — the caller must *not* admit the worker in
        that case.
        """
        if not self.telemetry.enabled:
            return self._secure_worker_inner(worker_id, timeout)
        span = self.telemetry.start_span(
            "dist.secure", actor=self.name, worker=worker_id
        )
        ok = False
        try:
            ok = self._secure_worker_inner(worker_id, timeout)
            return ok
        finally:
            self.telemetry.end_span(span, outcome="secured" if ok else "failed")

    def _secure_worker_inner(self, worker_id: int, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._lock:
            w = self._find_worker(worker_id)
            if w is None or not w.active:
                return False
            if w.secured:
                return True
        # wait for the connection: a just-spawned worker may still be
        # importing its task function
        while True:
            with self._lock:
                if not w.active:
                    return False
                if w.connected and w.writer is not None:
                    break
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)
        waiter = threading.Event()
        frame = None
        with self._lock:
            if not (w.active and w.connected and w.writer is not None):
                return False
            if w.secured:
                return True
            if w.secure_waiter is not None:
                # another thread's handshake is already in flight (e.g.
                # the GM commit racing the reactive security tick): join
                # it instead of overwriting its challenge — a second
                # challenge would make the first proof verify against the
                # wrong nonce
                waiter = w.secure_waiter
            else:
                w.secure_challenge = make_challenge()
                w.secure_waiter = waiter
                frame = self._encode_control(
                    w, {"type": "secure", "challenge": w.secure_challenge}
                )
            writer = w.writer
        if frame is not None:
            if not self._on_loop(writer.write, frame):
                return False
            self._count_frame("tx", len(frame))
        if not waiter.wait(max(0.0, deadline - time.monotonic())):
            with self._lock:
                # only the handshake owner tears the state down, and only
                # if it is still the current handshake — a joiner timing
                # out early must not yank a live exchange out from under
                # the owner (or a proof still in flight)
                if frame is not None and w.secure_waiter is waiter:
                    w.secure_challenge = None
                    w.secure_waiter = None
            return False
        with self._lock:
            return w.secured

    def admit_worker(self, worker_id: int) -> bool:
        if not super().admit_worker(worker_id):
            return False
        self._request_fill()  # capacity just appeared
        return True

    def _wait_for_connections(self, count: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if sum(1 for w in self.workers if w.connected) >= count:
                    return
                exited = [
                    w.worker_id
                    for w in self.workers
                    if w.process is not None
                    and w.process.poll() is not None
                    and not w.ever_connected
                ]
            if exited:
                raise RuntimeError(
                    f"worker(s) {exited} exited before connecting — is the task "
                    f"function importable as {self.fn_spec!r}?"
                )
            time.sleep(0.01)
        raise RuntimeError(f"workers failed to connect within {timeout}s")

    def remove_worker(self) -> Optional[DistWorkerHandle]:
        """Retire the newest worker gracefully.

        The poison frame queues *behind* tasks already sent to the
        victim, so it drains its window before exiting; the supervisor
        replays anything still un-acked if it dies instead.
        """
        with self._lock:
            victim = self._retiree()
            if victim is None:
                return None
            victim.retiring = True
            writer = victim.writer
            poison = self._encode_control(victim, {"type": "poison"})
        if writer is not None:
            self._on_loop(writer.write, poison)
        # not yet connected: _on_connection poisons it right after welcome
        return victim

    def balance_load(self) -> int:
        """Nothing to move, by construction.

        Tasks queue centrally and flow into bounded per-worker windows
        (``max_inflight``), so no worker can hoard a backlog another
        worker could steal — the imbalance the thread/process farms
        correct here cannot arise.  Returns 0.
        """
        return 0

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def inject_crash(self, worker_id: Optional[int] = None) -> Optional[int]:
        """SIGKILL one live local worker process (the newest, unless given).

        For an attached worker with no local process, falls back to
        :meth:`drop_connection` semantics.  Detection, replay and
        capacity recovery then proceed through the ordinary
        supervision/rule machinery — nothing is short-circuited.
        """
        with self._lock:
            victim = self._pick_victim(worker_id)
            if victim is None:
                return None
            process = victim.process
        if process is None:
            return self.drop_connection(victim.worker_id)
        try:
            process.kill()
        except Exception:  # noqa: BLE001
            return None
        return victim.worker_id

    def drop_connection(self, worker_id: Optional[int] = None) -> Optional[int]:
        """Abort one worker's TCP connection — the network-level fault.

        The coordinator sees EOF and replays; the orphaned worker sees
        EOF on its side and exits.  This is the fault a real deployment
        meets most often (a partition, a crashed gateway), and the one
        the dist benchmarks time recovery for.
        """
        with self._lock:
            if worker_id is None:
                # the newest worker may not have connected yet; a fault
                # on a connection that does not exist is a no-op
                live = [w for w in self._serving() if w.writer is not None]
                victim = live[-1] if live else None
            else:
                victim = self._pick_victim(worker_id)
            if victim is None or victim.writer is None:
                return None
            writer = victim.writer
        return victim.worker_id if self._on_loop(writer.transport.abort) else None

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def crash(self) -> List[DistWorkerHandle]:
        """Simulate this coordinator process dying (SIGKILL semantics).

        The event loop stops dead: the server socket closes, every
        worker connection aborts (workers see EOF and — if spawned with
        reconnect attempts — start redialing the port), no poison is
        sent and no worker process is touched.  Open dispatch state ends
        as ``coordinator-crashed`` spans; nothing is flushed — a dead
        process flushes nothing.

        Returns the handles whose local worker processes are still
        running: the supervisor hands them to the promoted standby via
        :meth:`adopt_worker`.
        """
        if self._shutdown.is_set():
            return []
        self._shutdown.set()
        with self._lock:
            survivors: List[DistWorkerHandle] = []
            self._abandon_tasks()
            self._ready.clear()
            self._ready_set.clear()
            for w in self.workers:
                if w.active and w.process is not None and w.process.poll() is None:
                    survivors.append(w)
                w.active = False
                w.connected = False
                self._end_worker_span(w, outcome="coordinator-crashed")
                w.fail_handshake()
        # _finalize (post-stop) closes the server and aborts every
        # worker transport — the EOF the workers react to
        self._on_loop(self._loop.stop)
        self._loop_thread.join(5.0)
        return survivors

    def shutdown(self, timeout: float = 10.0) -> None:
        """Poison every worker, close every socket, stop the loop."""
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        with self._lock:
            workers = list(self.workers)
            writers = [
                (w.writer, self._encode_control(w, {"type": "poison"}))
                for w in workers
                if w.writer is not None
            ]
            for w in workers:
                w.active = False
                self._end_worker_span(w, outcome="shutdown")

        def poison_all() -> None:
            for writer, poison in writers:
                try:
                    writer.write(poison)
                except Exception:  # noqa: BLE001
                    pass

        if self._loop_ready.is_set():
            self._on_loop(poison_all)
        deadline = time.monotonic() + timeout
        for w in workers:
            if w.process is None:
                continue
            budget = max(0.05, deadline - time.monotonic())
            try:
                w.process.wait(budget)
            except subprocess.TimeoutExpired:
                w.process.kill()
                try:
                    w.process.wait(1.0)
                except subprocess.TimeoutExpired:
                    pass
        self._on_loop(self._loop.stop)
        self._loop_thread.join(max(1.0, deadline - time.monotonic()))
        # abandoned tasks must not leak open spans into the export
        if self.telemetry.enabled:
            self.telemetry.flush()
