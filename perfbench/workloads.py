"""The four workloads, how one run of each is made, and its metrics.

Why each workload exists is written up in ``perfbench/README.md``.  All
inputs come from ``--seed``: payload contents, and the per-task service
time jitter of ``managed-ramp``.  The farm receives only the generated
payloads.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from . import tasks
from .loops import (
    LoopResult,
    WorkerSampler,
    closed_loop,
    open_loop,
    paced_schedule,
    percentile,
    step_schedule,
)
from .stack import RAMP_LOW, Stack, bare_farm, managed_stack, production_stack

#: distinct payload bodies generated per seed (task i uses body i % POOL)
POOL = 1024
#: in-flight tasks of the closed loops: both workers' full dispatch windows
WINDOW = 128
PACED_RATE = 1000.0
RAMP_STARVE_RATE = 10.0
RAMP_STEP_RATE = 60.0
RAMP_TASK_SECONDS = 0.04
RAMP_JITTER = 0.25
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 5
BARE_SECONDS = 1.5


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in ``perfbench/README.md``."""

    name: str
    fn: Callable[[Any], Any]
    ints: int  # payload length (task id included)
    secured: bool
    open_loop: bool
    #: the stream contract's low bound (tasks/s); ``adapt_s`` is measured
    #: against it from the moment load steps up
    low: float
    managed: bool = False
    #: closed loops: peak RSS is read once this many tasks completed, so
    #: it prices a fixed amount of work however fast the host runs
    rss_tasks: Optional[int] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("stream-saturate", tasks.echo, 8, False, False, 1000.0, rss_tasks=20000),
        Workload("stream-paced", tasks.echo, 8, False, True, 500.0),
        Workload("secure-bulk", tasks.bulk_sum, 256, True, False, 500.0, rss_tasks=10000),
        Workload("managed-ramp", tasks.sleep_echo, 2, True, True, RAMP_LOW, managed=True),
    )
}


def ramp_step_at(seconds: float) -> float:
    """When ``managed-ramp`` steps from starving to overloading one worker."""
    return min(3.0, 0.3 * seconds)


def task_maker(wl: Workload, seed: int) -> Callable[[int], Tuple[Any, Any]]:
    """``make_task(i) -> (payload, expected result)`` drawn from ``seed``."""
    rng = random.Random(seed)
    if wl.managed:
        jitter = [
            RAMP_TASK_SECONDS * rng.uniform(1 - RAMP_JITTER, 1 + RAMP_JITTER)
            for _ in range(POOL)
        ]
        return lambda i: ([i, jitter[i % POOL]], i)
    bodies = [[rng.randrange(1 << 20) for _ in range(wl.ints - 1)] for _ in range(POOL)]
    if wl.fn is tasks.bulk_sum:
        sums = [sum(b) for b in bodies]

        def make_bulk(i: int) -> Tuple[Any, Any]:
            return [i] + bodies[i % POOL], [i, i + sums[i % POOL]]

        return make_bulk

    def make_echo(i: int) -> Tuple[Any, Any]:
        payload = [i] + bodies[i % POOL]
        return payload, payload

    return make_echo


def build(wl: Workload, workdir: str, tag: str) -> Stack:
    if wl.managed:
        return managed_stack(wl.fn)
    return production_stack(
        wl.fn, contract_low=wl.low, secured=wl.secured, workdir=workdir, tag=tag
    )


def drive(wl: Workload, stack: Stack, make_task: Callable, seconds: float) -> LoopResult:
    sampler = WorkerSampler(stack.farm)
    if not wl.open_loop:
        return closed_loop(
            stack.farm,
            make_task,
            window=WINDOW,
            seconds=seconds,
            sampler=sampler,
            rss_after=wl.rss_tasks,
        )
    if wl.managed:
        schedule = step_schedule(
            RAMP_STARVE_RATE, RAMP_STEP_RATE, ramp_step_at(seconds), seconds
        )
    else:
        schedule = paced_schedule(PACED_RATE, seconds)
    return open_loop(stack.farm, make_task, schedule=schedule, seconds=seconds, sampler=sampler)


@dataclass
class Pass:
    """One built stack, driven once, closed and audited."""

    result: LoopResult
    stack: Stack
    setup_s: float
    adapt_s: Optional[float]
    coord_cpu_s: float
    child_cpu_s: float
    open_spans: int
    insecure: int
    dead_letters: int

    @property
    def completed(self) -> int:
        return self.result.ledger.submitted - self.result.ledger.lost

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """The gated metrics: CPU and memory per fixed work, worker cost."""
        cpu = self.coord_cpu_s + self.child_cpu_s
        return {
            "cpu_ms_per_ktask": (cpu * 1e6 / max(1, self.completed), "ms"),
            "rss_peak_mb": (self.result.rss_mb, "MB"),
            "worker_s": (self.result.worker_seconds, "s"),
        }

    def wall_clock(self, seconds: float) -> Dict[str, Tuple[float, str]]:
        """Throughput, latency and adaptation time: printed, not gated."""
        ledger = self.result.ledger
        return {
            "throughput_tps": (self.result.throughput(), "1/s"),
            "latency_p50_ms": (percentile(ledger.latencies, 50) * 1e3, "ms"),
            "latency_p99_ms": (percentile(ledger.latencies, 99) * 1e3, "ms"),
            "adapt_s": (self.adapt_s if self.adapt_s is not None else seconds, "s"),
        }


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(wl: Workload, make_task: Callable, seconds: float, workdir: str, tag: str) -> Pass:
    """Build, drive for ``seconds``, close, and check one stack.

    CPU is counted over the whole pass, set-up and tear-down included:
    this process (coordinator, managers, generator) plus the worker
    processes, which are reaped by the time ``close`` returns.
    """
    child0 = _child_cpu()
    cpu0 = time.process_time()
    t_build = time.perf_counter()
    stack = build(wl, workdir, tag)
    built = time.perf_counter() - t_build
    try:
        # start every run from the same collector state: set-up garbage
        # collected and the generation counters at zero
        gc.collect()
        result = drive(wl, stack, make_task, seconds)
        dead = len(getattr(stack.dist, "dead_letters", ()))
    finally:
        stack.close()
    step = result.t_start + (ramp_step_at(seconds) if wl.managed else 0.0)
    tel = stack.telemetry
    return Pass(
        result=result,
        stack=stack,
        setup_s=built + (result.first_accepted - result.t_start),
        adapt_s=result.ledger.adapt_time(step, wl.low),
        coord_cpu_s=time.process_time() - cpu0,
        child_cpu_s=_child_cpu() - child0,
        open_spans=len(tel.spans.open_spans()) if tel is not None else 0,
        insecure=stack.insecure_dispatches() if wl.secured else 0,
        dead_letters=dead,
    )


def setup_once(wl: Workload, make_task: Callable, workdir: str, tag: str) -> Tuple[float, int]:
    """Build a stack, submit one task, time it; returns ``(setup_s, failed)``."""
    t_build = time.perf_counter()
    stack = build(wl, workdir, tag)
    try:
        payload, expected = make_task(0)
        stack.farm.submit(payload)
        setup = time.perf_counter() - t_build
        result = stack.farm.results.get(timeout=30.0)
    finally:
        stack.close()
    return setup, int(result != expected)


def bare_row(make_task: Callable, seconds: float) -> Tuple[float, int, int]:
    """``stream-saturate``'s loop on a bare DistFarm: ``(tasks/s, submitted, failed)``."""
    stack = bare_farm(tasks.echo)
    try:
        result = closed_loop(stack.farm, make_task, window=WINDOW, seconds=seconds)
    finally:
        stack.close()
    return result.throughput(), result.ledger.submitted, result.ledger.failed


def workdir_for(root: str) -> str:
    path = os.path.join(root, "perfbench", "out")
    os.makedirs(path, exist_ok=True)
    return path
