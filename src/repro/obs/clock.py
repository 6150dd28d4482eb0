"""Pluggable time sources for the observability layer.

The same tracer must be able to timestamp spans in *simulated* time
(when attached to the DES substrate) and in *wall-clock* time (when
attached to the live thread runtime).  Substrate-agnosticism is achieved
by injecting a :class:`Clock` rather than letting telemetry reach into
``Simulator.now`` or ``time.time`` directly.

Every clock also exposes :meth:`Clock.perf`, a monotonic seconds counter
used to measure the *cost* of instrumented code (e.g. how long one MAPE
tick took to compute).  For :class:`SimClock` the two deliberately
differ: ``now()`` is virtual time (a control tick takes zero simulated
seconds) while ``perf()`` is real CPU-side time, which is what a
control-loop latency histogram should see.

:class:`Ticker` offers the two calls a root autonomic manager makes on
its simulator (``now`` and ``periodic``) on the wall clock instead.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable, Optional, Protocol, runtime_checkable

__all__ = ["Clock", "SimClock", "WallClock", "ManualClock", "Ticker", "PeriodicThread"]

_log = logging.getLogger(__name__)


@runtime_checkable
class Clock(Protocol):
    """A source of timestamps for spans, events and metric samples."""

    def now(self) -> float:
        """Current time on the telemetry timeline (sim or wall)."""
        ...

    def perf(self) -> float:
        """Monotonic seconds for measuring instrumentation-side cost."""
        ...


class SimClock:
    """Reads the virtual clock of any object exposing a ``now`` attribute.

    Built for :class:`repro.sim.engine.Simulator` but duck-typed so the
    obs package keeps zero dependencies on the simulation substrate.
    """

    __slots__ = ("_source",)

    def __init__(self, source: object) -> None:
        if not hasattr(source, "now"):
            raise TypeError(f"SimClock source needs a 'now' attribute, got {source!r}")
        self._source = source

    def now(self) -> float:
        value = self._source.now
        return float(value() if callable(value) else value)

    def perf(self) -> float:
        return time.perf_counter()


class WallClock:
    """Real time: epoch seconds for timestamps, perf_counter for cost."""

    __slots__ = ()

    def now(self) -> float:
        return time.time()

    def perf(self) -> float:
        return time.perf_counter()


class ManualClock:
    """A clock advanced by hand — deterministic telemetry unit tests."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def perf(self) -> float:
        return self._now

    def advance(self, delta: float) -> None:
        if delta < 0:
            raise ValueError(f"cannot move a clock backwards (delta={delta})")
        self._now += delta

    def set(self, value: float) -> None:
        if value < self._now:
            raise ValueError(f"cannot move a clock backwards ({value} < {self._now})")
        self._now = float(value)


class PeriodicThread:
    """One wall-clock loop: ``fn`` every ``period`` s on a daemon thread.

    The first tick comes one period after construction; return values
    are ignored.  The one exception policy of every live loop: a tick
    that raises is logged, bumps ``repro_loop_tick_errors_total{loop=…}``
    and the loop keeps ticking, so a governor never dies silently.
    """

    def __init__(
        self, period: float, fn: Callable[[], Any], name: str, telemetry: Any = None
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = float(period)
        self.fn = fn
        self.name = name
        self.telemetry = telemetry
        self._halt = threading.Event()
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)
        self.thread.start()

    @property
    def cancelled(self) -> bool:
        return self._halt.is_set()

    def halt(self) -> None:
        """Schedule no further tick; an in-flight tick is not waited for."""
        self._halt.set()

    def cancel(self, timeout: Optional[float] = 5.0) -> None:
        """Halt, then wait up to ``timeout`` for an in-flight tick (unless
        called from a tick: a thread cannot join itself)."""
        self.halt()
        if threading.current_thread() is not self.thread:
            self.thread.join(timeout)

    def _run(self) -> None:
        while not self._halt.wait(self.period):
            try:
                self.fn()
            except Exception:  # noqa: BLE001 - one policy: count, log, keep ticking
                _log.exception("tick of loop %s raised", self.name)
                tel = self.telemetry
                if tel is not None and tel.enabled:
                    tel.metrics.counter(
                        "repro_loop_tick_errors_total",
                        "periodic-loop ticks that raised (the loop kept running)",
                    ).labels(loop=self.name).inc()


class Ticker:
    """Wall-clock stand-in for a simulator's ``now``/``periodic`` pair.

    ``now`` reads the injected time source (a live farm passes its own,
    so marks carry farm time); tick errors count on ``telemetry``.
    """

    def __init__(
        self, now: Callable[[], float] = time.monotonic, telemetry: Any = None
    ) -> None:
        self._now = now
        self.telemetry = telemetry

    @property
    def now(self) -> float:
        return self._now()

    def periodic(
        self, period: float, fn: Callable[[], Any], *, name: str = ""
    ) -> PeriodicThread:
        return PeriodicThread(period, fn, name, self.telemetry)
