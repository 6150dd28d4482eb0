"""Farm of pipeline replicas: the paper's nested-pattern composition.

Section 3.1's canonical example tree is
``farm(pipeline(sequential, farm(sequential), sequential))``: a farm
whose *workers are themselves pipelines*.  :class:`SimFarmOfPipelines`
provides that composition on the DES substrate: each "executor" is a
:class:`PipelineReplica` — a chain of :class:`~repro.sim.pipeline.
SeqStage`s on its own nodes — and the dispatcher round-robins whole
tasks across replica heads.

The monitoring/actuator surface mirrors :class:`~repro.sim.farm.
SimFarm` exactly (``snapshot``, ``add_worker``, ``remove_worker``,
``balance_load``, blackout, ``num_workers``), so the standard
:class:`~repro.gcm.abc_controller.FarmABC` (with ``nodes_per_executor =
number of stages``) and :class:`~repro.core.skeleton_manager.
FarmManager` drive it unchanged — the nested tree needs no new policy
code, exactly as behavioural-skeleton composition promises.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence

from .engine import Simulator
from .farm import FarmSnapshot
from .metrics import WindowRateEstimator, queue_length_stats
from .pipeline import SeqStage
from .queues import Store, transfer
from .resources import Node
from .workload import Task

__all__ = ["PipelineReplica", "SimFarmOfPipelines"]


class PipelineReplica:
    """One farm executor: a pipeline instance over its own nodes."""

    def __init__(
        self,
        sim: Simulator,
        owner: "SimFarmOfPipelines",
        replica_id: int,
        nodes: Sequence[Node],
        stage_works: Sequence[float],
        *,
        secured: bool = False,
        rate_window: float = 10.0,
    ) -> None:
        if len(nodes) != len(stage_works):
            raise ValueError(
                f"replica needs one node per stage "
                f"({len(stage_works)} stages, {len(nodes)} nodes)"
            )
        self.sim = sim
        self.owner = owner
        # `worker_id` (not replica_id) so FarmABC bookkeeping matches.
        self.worker_id = replica_id
        self.nodes = list(nodes)
        self.secured = secured
        self.active = True
        self._stopped = False
        self.completed = 0
        self.current_task: Optional[Task] = None  # FarmSnapshot compat

        self.stages: List[SeqStage] = []
        store = Store(sim, name=f"{owner.name}.r{replica_id}.s0")
        self.head = store
        for i, (node, work) in enumerate(zip(nodes, stage_works)):
            is_last = i == len(stage_works) - 1
            out = None if is_last else Store(sim, name=f"{owner.name}.r{replica_id}.s{i + 1}")
            stage = SeqStage(
                sim,
                name=f"{owner.name}.r{replica_id}.stage{i}",
                node=node,
                input_store=store,
                output_store=out,
                service_work=work,
                rate_window=rate_window,
                on_done=(lambda t, self=self: self._on_done(t)) if is_last else None,
            )
            self.stages.append(stage)
            store = out  # type: ignore[assignment]

    @property
    def name(self) -> str:
        return f"{self.owner.name}.r{self.worker_id}"

    @property
    def queue(self) -> Store:
        """The replica's head queue (rebalancing moves tasks here)."""
        return self.head

    def queued_total(self) -> int:
        """Tasks anywhere inside the replica (queued or in service)."""
        q = sum(len(s.input) for s in self.stages)
        in_service = sum(1 for s in self.stages if s.util._busy_since is not None)
        return q + in_service

    def _on_done(self, task: Task) -> None:
        self.completed += 1
        task.completed_at = self.sim.now
        self.owner._on_task_done(self, task)

    def stop(self) -> None:
        self.active = False
        self._stopped = True
        for s in self.stages:
            s.stop()


class SimFarmOfPipelines:
    """Functional replication whose workers are pipeline replicas."""

    def __init__(
        self,
        sim: Simulator,
        *,
        name: str = "farmpipe",
        stage_works: Sequence[float],
        rate_window: float = 10.0,
        replica_setup_time: float = 5.0,
        on_result: Optional[Callable[[Task], None]] = None,
    ) -> None:
        if not stage_works:
            raise ValueError("need at least one stage")
        if any(w < 0 for w in stage_works):
            raise ValueError("stage works must be >= 0")
        self.sim = sim
        self.name = name
        self.stage_works = list(stage_works)
        self.rate_window = rate_window
        self.worker_setup_time = replica_setup_time  # SimFarm-compatible name
        self.on_result = on_result

        self.input = Store(sim, name=f"{name}.input")
        self.output = Store(sim, name=f"{name}.output")
        self.workers: List[PipelineReplica] = []  # SimFarm-compatible name
        self._next_id = 0
        self._rr = 0

        self.arrival_est = WindowRateEstimator(rate_window, start_time=sim.now)
        self.departure_est = WindowRateEstimator(rate_window, start_time=sim.now)
        self.completed = 0
        self.end_of_stream = False
        self._blackout_until = -1.0
        self.reconfigurations = 0
        self.failures = 0

        self._proc = sim.process(self._dispatch_loop(), name=f"{name}.dispatcher")

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> Iterator[Any]:
        while True:
            if not any(r.active for r in self.workers):
                yield self.sim.timeout(0.05)
                continue
            task = yield self.input.get()
            self.arrival_est.mark(self.sim.now)
            live = [r for r in self.workers if r.active]
            self._rr = (self._rr + 1) % len(live)
            live[self._rr].head.put_nowait(task)

    def _on_task_done(self, replica: PipelineReplica, task: Task) -> None:
        self.departure_est.mark(self.sim.now)
        self.completed += 1
        self.output.put_nowait(task)
        if self.on_result is not None:
            self.on_result(task)

    # ------------------------------------------------------------------
    # monitoring (SimFarm-shaped)
    # ------------------------------------------------------------------
    @property
    def in_blackout(self) -> bool:
        return self.sim.now < self._blackout_until

    def snapshot(self) -> Optional[FarmSnapshot]:
        if self.in_blackout:
            return None
        return self.force_snapshot()

    def force_snapshot(self) -> FarmSnapshot:
        live = [r for r in self.workers if r.active]
        lengths = tuple(r.queued_total() for r in live)
        _, var, _, _ = queue_length_stats(lengths)
        utils = [
            s.util.utilization(self.sim.now) for r in live for s in r.stages
        ]
        return FarmSnapshot(
            time=self.sim.now,
            arrival_rate=self.arrival_est.rate(self.sim.now),
            departure_rate=self.departure_est.rate(self.sim.now),
            num_workers=len(live),
            queue_lengths=lengths,
            queue_variance=var,
            utilization=sum(utils) / len(utils) if utils else 0.0,
            completed=self.completed,
            pending=self.pending,
        )

    @property
    def num_workers(self) -> int:
        return sum(1 for r in self.workers if r.active)

    @property
    def pending(self) -> int:
        inside = sum(r.queued_total() for r in self.workers if not r._stopped)
        return len(self.input) + inside

    # ------------------------------------------------------------------
    # actuators (SimFarm-shaped)
    # ------------------------------------------------------------------
    def add_worker(self, nodes: Sequence[Node], *, secured: bool = False) -> PipelineReplica:
        """Deploy a new pipeline replica over ``nodes`` (one per stage)."""
        if isinstance(nodes, Node):
            nodes = [nodes]
        rid = self._next_id
        self._next_id += 1
        replica = PipelineReplica(
            self.sim,
            self,
            rid,
            nodes,
            self.stage_works,
            secured=secured,
            rate_window=self.rate_window,
        )
        if self.worker_setup_time > 0:
            replica.active = False
            self._blackout_until = max(
                self._blackout_until, self.sim.now + self.worker_setup_time + 1e-6
            )

            def activate() -> None:
                if not replica._stopped:
                    replica.active = True

            self.sim.schedule(self.worker_setup_time, activate)
        self.workers.append(replica)
        self.reconfigurations += 1
        return replica

    def remove_worker(self) -> Optional[PipelineReplica]:
        """Retire the newest replica; its head queue migrates first."""
        live = [r for r in self.workers if r.active]
        if len(live) <= 1:
            return None
        victim = live[-1]
        victim.active = False  # no new dispatches
        survivors = [r for r in live if r is not victim]
        queued = len(victim.head)
        for i in range(queued):
            transfer(victim.head, survivors[i % len(survivors)].head, 1)

        def finalize() -> None:
            if victim.queued_total() == 0:
                victim.stop()
            else:
                self.sim.schedule(0.5, finalize)

        finalize()
        self.reconfigurations += 1
        return victim

    def balance_load(self) -> int:
        """Equalise replica *head* queues (in-pipe tasks stay put)."""
        from .queues import rebalance as rebalance_stores

        return rebalance_stores(r.head for r in self.workers if r.active)

    def secure_worker(self, replica: PipelineReplica) -> None:
        replica.secured = True
        for s in replica.stages:
            s.secured = True

    def secure_all(self) -> None:
        for r in self.workers:
            self.secure_worker(r)

    # ------------------------------------------------------------------
    # stream plumbing
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> None:
        self.input.put_nowait(task)

    def notify_end_of_stream(self) -> None:
        self.end_of_stream = True

    @property
    def drained(self) -> bool:
        return self.end_of_stream and self.pending == 0
