"""Assemble one invocation: passes, set-ups, bare row, metrics, output."""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .loops import percentile
from .trace import Tracer, layer_metrics
from .workloads import (
    BARE_SECONDS,
    PACED_RATE,
    RAMP_STARVE_RATE,
    RAMP_STEP_RATE,
    SETUPS,
    WINDOW,
    WORKLOADS,
    Pass,
    bare_row,
    ramp_step_at,
    run_pass,
    setup_once,
    task_maker,
    workdir_for,
)

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    metrics: Metrics = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }

    def add_pass(self, label: str, p: Pass) -> None:
        """Count one pass's tasks and failures; say what was checked."""
        ledger = p.result.ledger
        self.attempted += ledger.submitted
        self.failed += ledger.failed
        if p.open_spans:
            self.problems.append(f"{label}: {p.open_spans} spans open after shutdown")
        if p.insecure:
            self.problems.append(f"{label}: {p.insecure} tasks dispatched to unsecured workers")
        if p.adapt_s is None:
            self.lines.append(
                f"{label}: completion rate never reached the contract's low bound; "
                "adapt_s reports the run length"
            )
        self.lines.append(
            f"{label}: submitted={ledger.submitted} lost={ledger.lost} "
            f"duplicated={ledger.duplicates} wrong={ledger.wrong} errors={ledger.errors} "
            f"dead_letters={p.dead_letters} open_spans={p.open_spans} "
            f"insecure_dispatches={p.insecure} "
            f"failed_frac={ledger.failed / max(1, ledger.submitted):.6f}"
        )


def describe_load(name: str, seconds: float) -> str:
    wl = WORKLOADS[name]
    if not wl.open_loop:
        return f"closed loop, window={WINDOW} tasks in flight, payload={wl.ints} ints"
    if wl.managed:
        return (
            f"open loop, {RAMP_STARVE_RATE:g} tasks/s until t={ramp_step_at(seconds):g}s, "
            f"then {RAMP_STEP_RATE:g} tasks/s"
        )
    return f"open loop, {PACED_RATE:g} tasks/s, payload={wl.ints} ints"


def timing_line(label: str, p: Pass) -> str:
    lat = p.result.ledger.latencies
    return (
        f"{label}: latency n={len(lat)} p50={percentile(lat, 50) * 1e3:.3f}ms "
        f"p99={percentile(lat, 99) * 1e3:.3f}ms"
    )


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: str) -> Report:
    wl = WORKLOADS[name]
    make_task = task_maker(wl, seed)
    workdir = workdir_for(root)
    report = Report()
    report.lines.append(
        f"# perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(traced)}"
    )
    report.lines.append(f"# load: {describe_load(name, seconds)}")

    if not traced:
        main = run_pass(wl, make_task, seconds, workdir, "main")
        report.add_pass("run", main)
        setups = [main.setup_s]
        for k in range(SETUPS - 1):
            setup_s, failed = setup_once(wl, make_task, workdir, f"setup{k}")
            setups.append(setup_s)
            report.attempted += 1
            report.failed += failed
        report.metrics = main.end_to_end()
        report.metrics["setup_s"] = (statistics.median(setups), "s")
        report.lines.append(timing_line("run", main))
        report.lines.append("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        wall = main.wall_clock(seconds)
        production_tps = wall["throughput_tps"][0]
        late = main.result.ledger.late
    else:
        half = seconds / 2.0
        plain = run_pass(wl, make_task, half, workdir, "plain")
        report.add_pass("untraced half", plain)
        tracer = Tracer().install()
        try:
            shimmed = run_pass(wl, make_task, half, workdir, "traced")
        finally:
            tracer.uninstall()
        report.add_pass("traced half", shimmed)
        report.lines.append(timing_line("untraced half", plain))
        report.lines.append(timing_line("traced half", shimmed))
        report.metrics = traced_metrics(tracer, plain, shimmed, half)
        production_tps = plain.result.throughput()
        wall = {}
        late = shimmed.result.ledger.late
        path = os.path.join(workdir, f"spans-{name}.jsonl.gz")
        tracer.write(path, {"workload": name, "seed": seed, "seconds": half})
        report.lines.append(f"layer-call spans: {len(tracer.spans)} written to {os.path.relpath(path, root)}")

    if wl.open_loop:
        report.lines.append(
            f"gen.late_ms p50={percentile(late, 50) * 1e3:.3f} p99={percentile(late, 99) * 1e3:.3f} "
            f"max={max(late, default=0.0) * 1e3:.3f} (n={len(late)})"
        )

    bare_tps, bare_submitted, bare_failed = bare_row(
        task_maker(WORKLOADS["stream-saturate"], seed), BARE_SECONDS
    )
    report.attempted += bare_submitted
    report.failed += bare_failed
    bare = (
        f"bare reference (stream-saturate loop on DistFarm, no supervisor, no telemetry, "
        f"{BARE_SECONDS:g}s, not gated): {bare_tps:.1f} tasks/s"
    )
    if name == "stream-saturate":
        bare += (
            f"; production tax = bare / production = {bare_tps:.1f} / {production_tps:.1f} "
            f"= {bare_tps / max(production_tps, 1e-9):.2f}x"
        )
    report.lines.append(bare)
    if traced:
        report.metrics["bare.throughput_tps"] = (bare_tps, "1/s")
    for key, (value, unit) in wall.items():
        report.lines.append(f"{name} {key} = {value:.6g} {unit} (reported, not gated)")
    for key, (value, unit) in report.metrics.items():
        report.lines.append(f"{name} {key} = {value:.6g} {unit}")
    for problem in report.problems:
        report.lines.append(f"CHECK FAILED: {problem}")
    return report


def traced_metrics(tracer: Tracer, plain: Pass, shimmed: Pass, seconds: float) -> Metrics:
    tasks = shimmed.completed
    per_ktask = 1000.0 / max(1, tasks)
    out = layer_metrics(tracer, tasks, shimmed.stack)
    out["coord.cpu_ms_per_ktask"] = (shimmed.coord_cpu_s * 1e3 * per_ktask, "ms")
    out["worker.cpu_ms_per_ktask"] = (shimmed.child_cpu_s * 1e3 * per_ktask, "ms")
    out["drain.wait_us.p50"] = (percentile(shimmed.result.ledger.waits, 50) * 1e6, "us")
    out["gen.late_ms.p99"] = (percentile(shimmed.result.ledger.late, 99) * 1e3, "ms")
    untraced = dict(plain.wall_clock(seconds), **plain.end_to_end())
    traced = dict(shimmed.wall_clock(seconds), **shimmed.end_to_end())
    for key in ("throughput_tps", "latency_p50_ms", "latency_p99_ms", "adapt_s", "cpu_ms_per_ktask"):
        out[f"e2e.untraced.{key}"] = untraced[key]
        out[f"e2e.traced.{key}"] = traced[key]
    out["shim.throughput_x"] = (
        untraced["throughput_tps"][0] / max(traced["throughput_tps"][0], 1e-9), "x"
    )
    out["shim.latency_p50_x"] = (
        traced["latency_p50_ms"][0] / max(untraced["latency_p50_ms"][0], 1e-9), "x"
    )
    return out
