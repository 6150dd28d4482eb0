"""Timing shims for the traced run: one span per call into each layer.

:class:`Tracer` wraps the named public entry points of each layer
(method on its class, or function as bound in the module that calls
it), registers a ``gc.callbacks`` hook, and records every call as a
span ``(id, name, start, end, parent, self_seconds, extra)`` in memory.
Nothing in the program changes: :meth:`Tracer.uninstall` puts every
original back.  The shims exist only in the traced run, whose
end-to-end numbers are compared with an untraced run of the same
length to state the shim overhead.

Parents come from a per-thread stack of open shim spans, so a span's
self time is its duration minus the time of the spans (and collector
pauses) nested inside it on the same thread.
"""

from __future__ import annotations

import functools
import gc
import gzip
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import Telemetry
from repro.obs.slo import SLOEngine
from repro.obs.timeseries import TimeSeriesStore
from repro.runtime import dist_farm as dist_farm_module
from repro.runtime import dist_proto
from repro.runtime.controller import FarmController
from repro.runtime.dist_farm import DistFarm, DistWorkerHandle
from repro.runtime.multiconcern import LiveGeneralManager
from repro.runtime.supervision import DispatchJournal, SupervisedFarm

from .loops import percentile

clock = time.perf_counter


def _frame_extra(args: tuple, out: bytes) -> Tuple[int, int]:
    """``(bytes, tasks)`` of one encoded frame."""
    message = args[0]
    kind = message.get("type")
    tasks = len(message["tasks"]) if kind == "task_batch" else int(kind == "task")
    return len(out), tasks


def _crypto_extra(args: tuple, out: bytes) -> int:
    return len(args[1])


class _CountingReader:
    """Stream-reader proxy counting the bytes the coordinator reads."""

    def __init__(self, reader: Any, tracer: "Tracer") -> None:
        self._reader = reader
        self._tracer = tracer

    async def readexactly(self, n: int) -> bytes:
        data = await self._reader.readexactly(n)
        self._tracer.rx_bytes += len(data)  # loop thread only
        return data


class Tracer:
    """Installs the shims and GC hook; turns the spans into metrics."""

    #: (owner, attribute, span name, extra-recorder)
    TARGETS: List[Tuple[Any, str, str, Optional[Callable]]] = [
        (SupervisedFarm, "submit", "supervision.submit", None),
        (DispatchJournal, "append", "journal.append", None),
        (DistFarm, "submit", "dist.submit", None),
        (dist_farm_module, "encode_frame_v4", "proto.encode", _frame_extra),
        (dist_proto, "encrypt", "crypto.encrypt", _crypto_extra),
        (dist_proto, "decrypt", "crypto.decrypt", _crypto_extra),
        (Telemetry, "start_span", "obs.start_span", None),
        (Telemetry, "end_span", "obs.end_span", None),
        (TimeSeriesStore, "scrape_once", "tsdb.scrape", None),
        (SLOEngine, "evaluate", "slo.evaluate", None),
        (FarmController, "control_step", "mape.control_step", None),
        (LiveGeneralManager, "execute_intent", "mc.intent", None),
        (DistFarm, "secure_worker", "mc.secure_worker", None),
        (DistFarm, "add_worker", "dist.add_worker", None),
    ]

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[tuple] = []
        self.worker_ready: List[float] = []
        self.rx_bytes = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []
        self._gc_start = 0.0
        self._gc_parent = -1
        self._groups: Optional[Dict[str, List[tuple]]] = None
        self._gc_names: Dict[int, int] = {}

    # -- installation ----------------------------------------------------
    def install(self) -> "Tracer":
        for owner, attr, name, extra in self.TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, extra))
        self._saved.append(
            (dist_farm_module, "read_frame_ex", dist_farm_module.read_frame_ex)
        )
        dist_farm_module.read_frame_ex = self._wrap_reader(dist_farm_module.read_frame_ex)
        self._saved.append((DistWorkerHandle, "connected", DistWorkerHandle.__dict__["connected"]))
        DistWorkerHandle.connected = self._ready_probe()
        for generation in range(3):
            self._gc_names[generation] = len(self.names)
            self.names.append(f"gc.gen{generation}")
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        """Put every original back (call after the traced stack is closed)."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, extra: Optional[Callable]) -> Callable:
        idx = len(self.names)
        self.names.append(name)
        record = self.spans.append
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                info = extra(args, out) if extra is not None and out is not None else None
                record((span_id, idx, t0, t1, parent, t1 - t0 - frame[1], info))
                if name == "dist.add_worker" and out is not None:
                    self._stamp_add(out, t0)

        return shim

    def _wrap_reader(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def read_frame_ex(reader: Any, **kwargs: Any) -> Any:
            return await fn(_CountingReader(reader, tracer), **kwargs)

        return read_frame_ex

    # -- add_worker -> connected ------------------------------------------
    def _stamp_add(self, handle: Any, t0: float) -> None:
        handle.__dict__["_perfbench_added"] = t0
        if handle.__dict__.get("connected"):
            self._ready(handle)

    def _ready(self, handle: Any) -> None:
        added = handle.__dict__.pop("_perfbench_added", None)
        if added is not None:
            self.worker_ready.append(clock() - added)

    def _ready_probe(self) -> property:
        """A data descriptor over ``DistWorkerHandle.connected``.

        The value still lives in the instance ``__dict__`` under its own
        name, so handles read correctly again once the probe is removed.
        """
        tracer = self

        def get(handle: Any) -> bool:
            return handle.__dict__.get("connected", False)

        def set_(handle: Any, value: bool) -> None:
            handle.__dict__["connected"] = value
            if value:
                tracer._ready(handle)

        return property(get, set_)

    # -- collector pauses ---------------------------------------------------
    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            stack = self._stack()
            self._gc_parent = stack[-1][0] if stack else -1
            self._gc_start = clock()
            return
        t1 = clock()
        dur = t1 - self._gc_start
        stack = self._stack()
        if stack:
            stack[-1][1] += dur
        idx = self._gc_names[info.get("generation", 0)]
        self.spans.append((next(self._ids), idx, self._gc_start, t1, self._gc_parent, dur, None))

    # -- reporting ----------------------------------------------------------
    def _grouped(self) -> Dict[str, List[tuple]]:
        if self._groups is None:
            self._groups = {name: [] for name in self.names}
            for span in self.spans:
                self._groups[self.names[span[1]]].append(span)
        return self._groups

    def durations(self, name: str, *, self_time: bool = False) -> List[float]:
        spans = self._grouped().get(name, [])
        return [s[5] for s in spans] if self_time else [s[3] - s[2] for s in spans]

    def extras(self, name: str) -> List[Any]:
        return [s[6] for s in self._grouped().get(name, []) if s[6] is not None]

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span as one JSON array per line (gzip), after a header."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            header = dict(meta, names=self.names, fields=[
                "id", "name", "start_s", "end_s", "parent", "self_s", "extra"
            ])
            out.write(json.dumps(header) + "\n")
            for span_id, idx, t0, t1, parent, self_s, info in self.spans:
                out.write(json.dumps([span_id, idx, t0, t1, parent, self_s, info]) + "\n")


def layer_metrics(tracer: Tracer, tasks: int, stack: Any) -> Dict[str, Tuple[float, str]]:
    """The per-layer table: name -> (value, unit).  ``tasks`` completed."""
    per_task = 1.0 / max(1, tasks)
    us, ms = 1e6, 1e3
    out: Dict[str, Tuple[float, str]] = {}

    sub = tracer.durations("supervision.submit")
    out["supervision.submit_us.p50"] = (percentile(sub, 50) * us, "us")
    out["supervision.submit_us.p99"] = (percentile(sub, 99) * us, "us")
    out["journal.append_us.p50"] = (percentile(tracer.durations("journal.append"), 50) * us, "us")
    journal = getattr(stack.farm, "journal", None)  # unsupervised farms keep none
    fsyncs = journal.fsyncs if journal is not None else 0
    out["journal.bytes_per_task"] = (stack.journal_bytes * per_task, "B")
    out["journal.fsyncs_per_ktask"] = (fsyncs * per_task * 1000, "count")

    out["dist.submit_us.p50"] = (percentile(tracer.durations("dist.submit"), 50) * us, "us")
    encode = tracer.durations("proto.encode")
    out["proto.encode_us_per_frame"] = (_mean(encode) * us, "us")
    frames = tracer.extras("proto.encode")
    task_frames = [tasks_in for _, tasks_in in frames if tasks_in]
    out["dist.tasks_per_frame"] = (_mean(task_frames), "count")
    out["dist.tx_bytes_per_task"] = (sum(b for b, _ in frames) * per_task, "B")
    out["dist.rx_bytes_per_task"] = (tracer.rx_bytes * per_task, "B")

    enc_time = sum(tracer.durations("crypto.encrypt"))
    enc_bytes = sum(tracer.extras("crypto.encrypt"))
    dec_bytes = sum(tracer.extras("crypto.decrypt"))
    out["crypto.encrypt_us_per_kb"] = (enc_time * us / (enc_bytes / 1024) if enc_bytes else 0.0, "us")
    out["crypto.kb_per_task"] = ((enc_bytes + dec_bytes) / 1024 * per_task, "KB")

    out["obs.span_open_us.p50"] = (percentile(tracer.durations("obs.start_span"), 50) * us, "us")
    tel = stack.telemetry
    retained = len(tel.spans) if tel is not None else 0
    out["obs.spans_per_task"] = (retained * per_task, "count")
    out["obs.spans_retained"] = (float(retained), "count")
    gen2 = tracer.durations("gc.gen2")
    pauses = gen2 + tracer.durations("gc.gen0") + tracer.durations("gc.gen1")
    out["gc.gen2_pause_ms.max"] = (max(gen2, default=0.0) * ms, "ms")
    out["gc.pause_ms.total"] = (sum(pauses) * ms, "ms")

    scrape = tracer.durations("tsdb.scrape", self_time=True)
    out["tsdb.scrape_ms.p50"] = (percentile(scrape, 50) * ms, "ms")
    out["tsdb.scrape_ms.p99"] = (percentile(scrape, 99) * ms, "ms")
    out["tsdb.series"] = (float(stack.tsdb_series), "count")
    out["slo.evaluate_ms.p99"] = (percentile(tracer.durations("slo.evaluate"), 99) * ms, "ms")

    steps = tracer.durations("mape.control_step")
    out["mape.control_step_ms.p50"] = (percentile(steps, 50) * ms, "ms")
    out["mape.control_step_ms.p99"] = (percentile(steps, 99) * ms, "ms")
    out["mape.ticks"] = (float(len(steps)), "count")
    out["mape.actions"] = (float(stack.controller_actions), "count")

    out["mc.intent_ms"] = (percentile(tracer.durations("mc.intent"), 50) * ms, "ms")
    out["mc.secure_worker_ms"] = (percentile(tracer.durations("mc.secure_worker"), 50) * ms, "ms")
    out["dist.worker_ready_ms"] = (percentile(tracer.worker_ready, 50) * ms, "ms")
    out["mc.insecure_dispatches"] = (float(stack.insecure_dispatches()), "count")
    return out


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
