"""Experiment EXT-LOAD — adaptation to external load on the worker cores.

"Autonomic adaptation has also been achieved in the case of additional
(external) load upon the cores used for the computation of the BS
application.  In this case, overloaded workers […] began to deliver
fewer results than expected and the manager reacted by adding workers to
the farm." (§4.2)

We reproduce this on the single-farm BS: the farm runs in contract, then
at ``spike_time`` an external load step hits a fraction of the worker
nodes; their effective speed drops, throughput falls below the contract,
and the Figure 5 ``CheckRateLow`` rule adds workers until the contract
is re-established.

Expected shape: throughput dip at the spike, a burst of addWorker
actions, and recovery back above the contract level — with strictly more
workers than before the spike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.behavioural import FarmBS, build_farm_bs
from ..core.contracts import MinThroughputContract
from ..sim.engine import Simulator
from ..sim.resources import ResourceManager, make_cluster
from ..obs.events import TraceRecorder
from ..sim.workload import ConstantWork, TaskSource

__all__ = ["LoadSpikeConfig", "LoadSpikeResult", "run_loadspike"]


@dataclass
class LoadSpikeConfig:
    target_throughput: float = 0.6
    worker_rate: float = 0.2
    input_rate: float = 0.8          # matches initial capacity: no warm-up growth
    initial_degree: int = 4          # comfortably in contract at start
    pool_size: int = 20
    spike_time: float = 200.0
    spike_load: float = 0.6          # loaded nodes keep 40% of their speed
    spiked_fraction: float = 1.0     # fraction of *initial* workers hit
    duration: float = 600.0
    control_period: float = 10.0
    worker_setup_time: float = 5.0
    rate_window: float = 20.0

    @property
    def worker_work(self) -> float:
        return 1.0 / self.worker_rate


@dataclass
class LoadSpikeResult:
    config: LoadSpikeConfig
    trace: TraceRecorder
    bs: FarmBS
    workers_before: int
    workers_after: int
    throughput_before: float
    throughput_dip: float
    throughput_after: float
    spiked_nodes: List[str] = field(default_factory=list)

    @property
    def adapted(self) -> bool:
        """The manager added capacity and restored the contract."""
        return (
            self.workers_after > self.workers_before
            and self.throughput_after >= self.config.target_throughput * 0.9
        )

    @property
    def dip_visible(self) -> bool:
        return self.throughput_dip < self.throughput_before * 0.95


def run_loadspike(config: Optional[LoadSpikeConfig] = None) -> LoadSpikeResult:
    cfg = config or LoadSpikeConfig()
    sim = Simulator()
    trace = TraceRecorder()
    rm = ResourceManager(make_cluster(cfg.pool_size))

    bs = build_farm_bs(
        sim,
        rm,
        name="farm",
        worker_work=cfg.worker_work,
        initial_degree=cfg.initial_degree,
        trace=trace,
        control_period=cfg.control_period,
        worker_setup_time=cfg.worker_setup_time,
        rate_window=cfg.rate_window,
        constants_kwargs={"add_burst": 1, "max_workers": cfg.pool_size},
        spawn_worker_managers=False,
    )
    TaskSource(
        sim,
        bs.farm.input,
        rate=cfg.input_rate,
        work_model=ConstantWork(cfg.worker_work),
        name="stream",
    )
    bs.assign_contract(MinThroughputContract(cfg.target_throughput))

    # inject the external load step on a fraction of the initial workers
    initial_nodes = [w.node for w in bs.farm.workers]
    n_spiked = max(1, int(len(initial_nodes) * cfg.spiked_fraction))
    spiked = initial_nodes[:n_spiked]
    for node in spiked:
        node.load_schedule.set_load(cfg.spike_time, cfg.spike_load)

    def sample() -> None:
        snap = bs.farm.force_snapshot()
        trace.sample("workers", sim.now, snap.num_workers)
        trace.sample("throughput", sim.now, snap.departure_rate)

    sim.periodic(cfg.control_period / 2.0, sample, name="sampler")
    sim.run(until=cfg.duration)

    thr = trace.series_values("throughput")
    wrk = trace.series_values("workers")

    def window_value(points: List[Tuple[float, float]], t: float) -> float:
        best = 0.0
        for tt, v in points:
            if tt <= t:
                best = v
        return best

    before = window_value(thr, cfg.spike_time - 1.0)
    dip = min(
        (v for t, v in thr if cfg.spike_time < t <= cfg.spike_time + 120.0),
        default=before,
    )
    after = thr[-1][1] if thr else 0.0

    return LoadSpikeResult(
        config=cfg,
        trace=trace,
        bs=bs,
        workers_before=int(window_value(wrk, cfg.spike_time - 1.0)),
        workers_after=int(wrk[-1][1]) if wrk else 0,
        throughput_before=before,
        throughput_dip=dip,
        throughput_after=after,
        spiked_nodes=[n.name for n in spiked],
    )
