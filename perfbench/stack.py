"""The stacks the workloads run on, built only through public constructors.

* :func:`production_stack` — what an operator deploys for a task
  stream: ``Telemetry`` with tracing on, the ring-buffer TSDB scraping
  every 10 ms, an SLO engine compiled from the contract, and a
  ``SupervisedFarm`` (journaled dispatch) over ``DistFarm`` with two
  spawned workers, steered by a ``Supervisor``-owned ``FarmController``.
  ``max_workers`` is pinned to the initial two, so the MAPE loop runs at
  its real cost but can never change the worker count.
* :func:`managed_stack` — the paper's §3.2 multi-concern story on
  ``DistFarm``: one secured worker, a ``ThroughputRangeContract``, the
  ``FarmController`` routing growth through a ``LiveGeneralManager``
  that consults a ``LiveSecurityManager`` over an untrusted node pool
  (grow → quarantine → secure → admit).  Unsupervised, because the
  supervisor and the security manager do not compose today.
* :func:`bare_farm` — a ``DistFarm`` with no supervisor and no
  telemetry: the reference row that prices the production tax.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.core.contracts import ThroughputRangeContract
from repro.core.multiconcern import CoordinationMode
from repro.obs import Telemetry
from repro.obs.slo import BurnWindows, SLOEngine, slo_from_contract
from repro.runtime.controller import FarmController
from repro.runtime.dist_farm import DistFarm
from repro.runtime.multiconcern import LiveGeneralManager, WorkerPlacement
from repro.runtime.supervision import SupervisedFarm, Supervisor
from repro.security.manager import LiveSecurityManager
from repro.sim.resources import Domain, ResourceManager, make_cluster

#: the tuned v4 data plane (deep pipelined window, batched frames), as
#: in benchmarks/test_bench_dist.py
TUNED = dict(max_inflight=64, batch_size=32)
STREAM_WORKERS = 2
SCRAPE_INTERVAL = 0.01
TSDB_RETENTION = 30.0
CONTROL_PERIOD = 0.2
#: upper edge of the stream contracts: far above any rate the box reaches
STREAM_HIGH = 1e9

#: managed-ramp: the fig4 --with-security shape (one worker sustains
#: ~25 tasks/s of 40 ms tasks; the stripe needs two to three)
RAMP_LOW = 30.0
RAMP_HIGH = 90.0
RAMP_MAX_WORKERS = 8
RAMP_RATE_WINDOW = 1.5
UNTRUSTED_NODES = 16


@dataclass
class Stack:
    """One built stack and everything needed to stop and audit it."""

    farm: Any
    telemetry: Optional[Telemetry]
    managers: List[Any] = field(default_factory=list)
    journal_path: Optional[str] = None
    closed: bool = False
    #: audit figures taken at close, while the journal and TSDB still exist
    journal_bytes: int = 0
    tsdb_series: int = 0
    controller_actions: int = 0

    @property
    def dist(self) -> DistFarm:
        """The ``DistFarm`` incarnation doing the dispatching."""
        return getattr(self.farm, "farm", self.farm)

    def insecure_dispatches(self) -> int:
        """``repro_mc_insecure_dispatch_total`` summed over every farm."""
        if self.telemetry is None:
            return 0
        total = 0.0
        for family in self.telemetry.metrics.families():
            if family.name == "repro_mc_insecure_dispatch_total":
                total += sum(inst.value for _, inst in family.samples())
        return int(total)

    def close(self) -> None:
        """Stop managers, the scraper and the farm, in that order."""
        if self.closed:
            return
        self.closed = True
        for manager in self.managers:
            manager.stop()
            controller = getattr(manager, "controller", manager)
            self.controller_actions += len(getattr(controller, "actions", ()))
        store = self.telemetry.timeseries if self.telemetry is not None else None
        if store is not None:
            self.telemetry.stop_timeseries()
            self.tsdb_series = sum(len(store.label_sets(m)) for m in store.metric_names())
        self.farm.shutdown()
        if self.journal_path is not None and os.path.exists(self.journal_path):
            self.journal_bytes = os.path.getsize(self.journal_path)
            os.remove(self.journal_path)


def _attach_slo(tel: Telemetry, contract: Any, manager: str) -> SLOEngine:
    store = tel.start_timeseries(
        interval=SCRAPE_INTERVAL, retention=TSDB_RETENTION, scraper_thread=True
    )
    return SLOEngine(
        tel,
        store,
        slo_from_contract(contract, name="bench", manager=manager, budget_window=30.0),
        windows=BurnWindows().scaled(1.0 / 150.0),
        broker=tel.stream,
    )


def production_stack(
    fn: Any, *, contract_low: float, secured: bool, workdir: str, tag: str
) -> Stack:
    """Telemetry + TSDB/SLO + journaled SupervisedFarm(dist) + controller."""
    tel = Telemetry()
    journal_path = os.path.join(workdir, f"journal-{os.getpid()}-{tag}.jsonl")
    if os.path.exists(journal_path):
        os.remove(journal_path)
    contract = ThroughputRangeContract(contract_low, STREAM_HIGH)
    farm = SupervisedFarm(
        fn,
        backend="dist",
        journal_path=journal_path,
        name="bench",
        initial_workers=STREAM_WORKERS,
        max_workers=STREAM_WORKERS,
        telemetry=tel,
        farm_options=dict(TUNED),
    )
    stack = Stack(farm, tel, journal_path=journal_path)
    try:
        supervisor = Supervisor(
            farm,
            contract=contract,
            control_period=CONTROL_PERIOD,
            max_workers=STREAM_WORKERS,
            telemetry=tel,
        ).start()
        stack.managers.append(supervisor)
        _attach_slo(tel, contract, f"{supervisor.name}-am")
        if secured:
            farm.secure_all()
    except BaseException:
        stack.close()
        raise
    return stack


def managed_stack(fn: Any) -> Stack:
    """One secured DistFarm worker under controller + GM + security manager."""
    tel = Telemetry()
    contract = ThroughputRangeContract(RAMP_LOW, RAMP_HIGH)
    farm = DistFarm(
        fn,
        initial_workers=1,
        name="ramp",
        rate_window=RAMP_RATE_WINDOW,
        max_workers=RAMP_MAX_WORKERS,
        telemetry=tel,
    )
    stack = Stack(farm, tel)
    try:
        controller = FarmController(
            farm,
            contract,
            control_period=CONTROL_PERIOD,
            max_workers=RAMP_MAX_WORKERS,
            telemetry=tel,
            name="AM_ramp",
        )
        stack.managers.append(controller)
        _attach_slo(tel, contract, controller.name)
        farm.secure_all()
        pool = make_cluster(
            UNTRUSTED_NODES,
            prefix="u",
            domain=Domain("untrusted_ip_domain_A", trusted=False),
        )
        placement = WorkerPlacement(ResourceManager(pool))
        security = LiveSecurityManager(
            farm, placement, control_period=CONTROL_PERIOD, telemetry=tel, name="AM_sec"
        )
        stack.managers.append(security)
        gm = LiveGeneralManager(
            farm, placement, mode=CoordinationMode.TWO_PHASE, telemetry=tel, name="GM"
        )
        gm.register(security)
        gm.register(controller, priority=0)
        security.start()
        controller.start()
    except BaseException:
        stack.close()
        raise
    return stack


def bare_farm(fn: Any) -> Stack:
    """DistFarm alone: no telemetry, no journal, no managers."""
    farm = DistFarm(fn, initial_workers=STREAM_WORKERS, name="bare", **TUNED)
    return Stack(farm, None)

