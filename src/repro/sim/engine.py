"""Deterministic discrete-event simulation engine.

This module is the execution substrate standing in for the paper's
GCM/ProActive middleware running on an 8-core SMP.  All quantitative
experiments (Figures 3 and 4, the load-spike and multi-concern scenarios)
run on this engine, which makes the autonomic-manager dynamics exactly
reproducible: the same scenario always yields the same event trace.

The design is a small process-based DES in the style of SimPy:

* :class:`Simulator` owns the virtual clock and a priority queue of
  scheduled events.  Ties are broken by a monotonically increasing
  sequence number, so execution order is fully deterministic.
* :class:`Process` wraps a Python generator.  The generator *yields*
  waitable objects — :class:`Timeout`, :class:`SimEvent`, store get/put
  requests from :mod:`repro.sim.queues` — and is resumed when the thing
  it waited on completes.
* :class:`PeriodicTask` is a convenience for fixed-period callbacks and
  is what autonomic managers use for their MAPE control loop.

Only ``repro`` packages depend on this module; it has no dependencies
outside the standard library.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "SimEvent",
    "Timeout",
    "Process",
    "PeriodicTask",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class Interrupt(Exception):
    """Thrown into a :class:`Process` generator by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class SimEvent:
    """A one-shot event that processes may wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    schedules all waiting callbacks at the current simulation time.
    Succeeding an already-triggered event raises :class:`SimulationError`.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "_is_error", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: list[Callable[["SimEvent"], None]] = []
        self._triggered = False
        self._value: Any = None
        self._is_error = False

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value the event was succeeded (or failed) with."""
        return self._value

    @property
    def is_error(self) -> bool:
        """True if the event was triggered via :meth:`fail`."""
        return self._is_error

    def add_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        """Register ``fn`` to run when the event triggers.

        If the event already triggered, ``fn`` is scheduled immediately
        (still through the event queue, preserving determinism).
        """
        if self._triggered:
            self.sim.schedule(0.0, fn, self)
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event successfully with ``value``."""
        self._trigger(value, is_error=False)
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        """Trigger the event as failed; waiting processes see the exception."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._trigger(exception, is_error=True)
        return self

    def _trigger(self, value: Any, is_error: bool) -> None:
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._value = value
        self._is_error = is_error
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self.sim.schedule(0.0, fn, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class Timeout:
    """Waitable returned by :meth:`Simulator.timeout`.

    Yielding a ``Timeout`` from a process generator suspends the process
    for ``delay`` units of simulated time.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.delay = float(delay)
        self.value = value


@dataclass(order=True)
class _QueueEntry:
    time: float
    seq: int
    fn: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False)
    cancelled: bool = field(compare=False, default=False)


class ScheduledCall:
    """Handle to a scheduled callback; supports :meth:`cancel`."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _QueueEntry) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        """Simulated time at which the call will run."""
        return self._entry.time

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self._entry.cancelled = True


class Simulator:
    """The event loop: a virtual clock plus a deterministic event queue.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, optional) makes each
    :meth:`run` an observable span on the *simulated* timeline and
    counts processed events.  It is purely passive: attaching telemetry
    never schedules anything, so traces are bit-identical with or
    without it.
    """

    def __init__(self, telemetry: Any = None) -> None:
        self._now = 0.0
        self._queue: list[_QueueEntry] = []
        self._seq = itertools.count()
        self._processes: list[Process] = []
        self._running = False
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    # clock & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` simulated time units."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        entry = _QueueEntry(self._now + delay, next(self._seq), fn, args)
        heapq.heappush(self._queue, entry)
        return ScheduledCall(entry)

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (t={time} < now={self._now})"
            )
        return self.schedule(time - self._now, fn, *args)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` waitable for use inside processes."""
        return Timeout(delay, value)

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh one-shot :class:`SimEvent`."""
        return SimEvent(self, name)

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def process(self, gen: Generator, name: str = "") -> "Process":
        """Start a generator as a simulated process (runs from now)."""
        proc = Process(self, gen, name=name)
        self._processes.append(proc)
        return proc

    def periodic(
        self,
        period: float,
        fn: Callable[[], Any],
        *,
        start_delay: Optional[float] = None,
        name: str = "",
    ) -> "PeriodicTask":
        """Invoke ``fn`` every ``period`` time units until cancelled."""
        return PeriodicTask(self, period, fn, start_delay=start_delay, name=name)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event; return False if queue is empty."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.cancelled:
                continue
            if entry.time < self._now - 1e-12:
                raise SimulationError("event queue time went backwards")
            self._now = entry.time
            entry.fn(*entry.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the simulation time at which the run stopped.  When
        ``until`` is given the clock is advanced to exactly ``until`` even
        if the queue drained earlier, mirroring SimPy semantics.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        tel = self.telemetry
        run_span = None
        if tel is not None and tel.enabled:
            run_span = tel.start_span("sim.run", actor="sim", until=until)
        try:
            count = 0
            while self._queue:
                entry = self._queue[0]
                if entry.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and entry.time > until:
                    break
                self.step()
                count += 1
                if count > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a runaway loop"
                    )
            if until is not None and self._now < until:
                self._now = until
            return self._now
        finally:
            self._running = False
            if run_span is not None:
                tel.metrics.counter(
                    "repro_sim_events_total", "simulation queue entries executed"
                ).inc(count)
                tel.end_span(run_span, events=count)

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None


class _TimeoutWait:
    """Cancellable handle for a process blocked on a Timeout."""

    __slots__ = ("handle",)

    def __init__(self, handle: ScheduledCall) -> None:
        self.handle = handle

    def __sim_cancel__(self, proc: "Process") -> None:
        self.handle.cancel()


class Process:
    """A generator-driven simulated activity.

    The generator may yield:

    * :class:`Timeout` — sleep for a duration;
    * :class:`SimEvent` — wait until the event triggers (receives its
      value; a failed event re-raises inside the generator);
    * another :class:`Process` — wait for it to finish;
    * objects exposing ``__sim_wait__(process)`` — the extension hook used
      by store get/put requests in :mod:`repro.sim.queues`.

    A process is itself waitable: other processes may yield it, and its
    :attr:`done_event` triggers with the generator's return value.
    """

    __slots__ = ("sim", "name", "_gen", "done_event", "_alive", "_waiting_on", "_epoch")

    def __init__(self, sim: Simulator, gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise SimulationError("Process requires a generator")
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self.done_event = sim.event(f"{self.name}.done")
        self._alive = True
        self._waiting_on: Any = None
        # Wait epoch: every resume invalidates callbacks registered for
        # earlier waits, so an interrupted timeout can never double-resume
        # the generator when its stale callback eventually fires.
        self._epoch = 0
        sim.schedule(0.0, self._resume, None, None)

    # -- waitable protocol -------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self._alive:
            return
        waiting = self._waiting_on
        if waiting is not None and hasattr(waiting, "__sim_cancel__"):
            waiting.__sim_cancel__(self)
        self._waiting_on = None
        self.sim.schedule(0.0, self._resume, None, Interrupt(cause))

    # -- internal ----------------------------------------------------------
    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if not self._alive:
            return
        self._epoch += 1
        self._waiting_on = None
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._alive = False
            self.done_event.succeed(stop.value)
            return
        except Interrupt:
            # Interrupt escaped the generator: treat as normal termination.
            self._alive = False
            self.done_event.succeed(None)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        epoch = self._epoch
        if isinstance(target, Timeout):
            handle = self.sim.schedule(
                target.delay, self._resume_epoch, epoch, target.value, None
            )
            self._waiting_on = _TimeoutWait(handle)
        elif isinstance(target, SimEvent):
            self._waiting_on = target
            target.add_callback(lambda ev: self._on_event(epoch, ev))
        elif isinstance(target, Process):
            self._waiting_on = target.done_event
            target.done_event.add_callback(lambda ev: self._on_event(epoch, ev))
        elif hasattr(target, "__sim_wait__"):
            self._waiting_on = target
            target.__sim_wait__(self)
        else:
            self._alive = False
            err = SimulationError(
                f"process {self.name!r} yielded non-waitable {target!r}"
            )
            self.done_event.fail(err)
            raise err

    def _resume_epoch(self, epoch: int, value: Any, exc: Optional[BaseException]) -> None:
        if epoch != self._epoch:
            return  # stale wake-up from a wait that was interrupted
        self._resume(value, exc)

    def _on_event(self, epoch: int, event: SimEvent) -> None:
        if not self._alive or epoch != self._epoch:
            return
        if event.is_error:
            self._resume(None, event.value)
        else:
            self._resume(event.value, None)

    # called by stores when a get/put request completes
    def _deliver(self, value: Any) -> None:
        self._resume(value, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state}>"


class PeriodicTask:
    """Fixed-period callback driver (used for manager control loops).

    ``fn`` is called every ``period`` units.  If ``fn`` returns a truthy
    value the task stops (convenience for self-terminating loops); it can
    also be stopped externally via :meth:`cancel`.
    """

    __slots__ = ("sim", "period", "fn", "name", "_cancelled", "_handle", "ticks")

    def __init__(
        self,
        sim: Simulator,
        period: float,
        fn: Callable[[], Any],
        *,
        start_delay: Optional[float] = None,
        name: str = "",
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self.sim = sim
        self.period = float(period)
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "periodic")
        self._cancelled = False
        self.ticks = 0
        first = self.period if start_delay is None else start_delay
        self._handle = sim.schedule(first, self._tick)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self, timeout: Optional[float] = None) -> None:
        """Stop future invocations (idempotent).  ``timeout`` mirrors
        :meth:`repro.obs.clock.PeriodicThread.cancel`; no DES tick is
        ever in flight to wait for."""
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    def _tick(self) -> None:
        if self._cancelled:
            return
        self.ticks += 1
        stop = self.fn()
        if stop or self._cancelled:
            self._cancelled = True
            return
        self._handle = self.sim.schedule(self.period, self._tick)


def wait_all(sim: Simulator, events: Iterable[SimEvent]) -> SimEvent:
    """Return an event that succeeds when every event in ``events`` has.

    The combined event's value is the list of individual values in the
    order given.  Failed constituents propagate the first failure.
    """
    events = list(events)
    combined = sim.event("all")
    remaining = len(events)
    values: list[Any] = [None] * len(events)
    if remaining == 0:
        combined.succeed([])
        return combined

    state = {"left": remaining, "failed": False}

    def make_cb(i: int) -> Callable[[SimEvent], None]:
        def cb(ev: SimEvent) -> None:
            if state["failed"]:
                return
            if ev.is_error:
                state["failed"] = True
                combined.fail(ev.value)
                return
            values[i] = ev.value
            state["left"] -= 1
            if state["left"] == 0:
                combined.succeed(values)

        return cb

    for i, ev in enumerate(events):
        ev.add_callback(make_cb(i))
    return combined
