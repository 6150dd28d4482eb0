"""Live multi-concern coordination: the simulated GM over a real farm.

Section 3.2's coordination design — per-concern autonomic managers plus
a general super-AM running the two-phase intent protocol — is
:class:`repro.core.multiconcern.GeneralManager`.  This module runs that
one class against *wall-clock* substrates (the thread, process and dist
farms, behind the :class:`~repro.runtime.backend.FarmBackend` admission
gate) by swapping two things: the surface an intent plans over and the
clock that stamps it.

* :class:`WorkerPlacement` maps live farm workers onto the nodes of a
  :class:`~repro.sim.resources.ResourceManager`, so the domain/trust
  model (which node sits on untrusted ground) drives live securing
  decisions exactly as it drives simulated ones.
* :class:`PlacementABC` is the live plan/commit/abort surface: a plan
  reserves placement nodes, an abort releases them, and a commit brings
  each worker up **quarantined** (the backend's admission gate keeps
  every task off it), secures its channel where the review amended the
  plan (a real wire handshake on the dist farm, which also bounces any
  task frame that beats it), binds it to its node and only then admits
  it into the dispatch set.  In ``NAIVE`` mode — the ablation baseline —
  workers are instantiated unsecured and dispatchable at once: the leak
  window §3.2 warns about, measurable live as a non-zero
  ``repro_mc_insecure_dispatch_total``.
* :class:`LiveGeneralManager` is the GM over a :class:`PlacementABC`
  and ``farm.now()``: it coordinates a performance
  :class:`~repro.runtime.controller.FarmController` and a
  :class:`~repro.security.manager.LiveSecurityManager` over one farm,
  with the simulated GM's review order, outcomes, audit record,
  ``mc.intent``/``mc.commit`` spans and ``repro_mc_*`` counters.  The
  commit adds ``mc.quarantine``/``mc.secured``/``mc.admit`` events per
  worker — the observable account of "no task ever reached an
  unsecured worker".
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from ..core.multiconcern import CoordinationMode, GeneralManager
from ..gcm.abc_controller import PlannedReconfiguration
from ..obs.telemetry import NOOP, Telemetry
from ..rules.beans import ManagerOperation
from ..sim.resources import Node, ResourceManager

__all__ = ["WorkerPlacement", "PlacementABC", "LiveGeneralManager"]


class WorkerPlacement:
    """Binds live farm worker ids to resource-manager nodes.

    The farm knows workers; the security policy knows nodes and domains.
    This is the joint between them: the GM reserves nodes from
    ``resources`` before growing, binds each new worker id to its node,
    and the security manager consults the binding to decide which live
    channels cross untrusted ground.
    """

    def __init__(self, resources: ResourceManager) -> None:
        self.resources = resources
        self._bindings: Dict[int, Node] = {}
        self._lock = threading.Lock()

    def bind(self, worker_id: int, node: Node) -> None:
        with self._lock:
            self._bindings[worker_id] = node

    def node_of(self, worker_id: int) -> Optional[Node]:
        with self._lock:
            return self._bindings.get(worker_id)

    def bound(self) -> Dict[int, Node]:
        """A snapshot of the worker → node map."""
        with self._lock:
            return dict(self._bindings)


class PlacementABC:
    """Grow plans for a live farm, placed on :class:`WorkerPlacement` nodes.

    The live counterpart of :class:`~repro.gcm.abc_controller.FarmABC`'s
    plan/commit/abort split; ``gated`` (two-phase coordination) sends
    every new worker through the admission gate.
    """

    def __init__(
        self,
        farm: Any,
        placement: WorkerPlacement,
        *,
        gated: bool = True,
        telemetry: Telemetry = NOOP,
    ) -> None:
        self.farm = farm
        self.placement = placement
        self.gated = gated
        self.telemetry = telemetry

    def plan_add_workers(self, count: int = 1) -> Optional[PlannedReconfiguration]:
        """Reserve ``count`` nodes; None if the pool cannot satisfy it."""
        nodes = self.placement.resources.try_recruit(count)
        return PlannedReconfiguration(nodes) if nodes else None

    def abort_plan(self, plan: PlannedReconfiguration) -> None:
        """Hand the plan's reserved nodes back to the pool."""
        plan.aborted = True
        self.placement.resources.release_all(plan.nodes)

    def commit_plan(self, plan: PlannedReconfiguration) -> List[int]:
        """Phase two: bring each planned worker up through the gate.

        Gated order per node: ``add_worker(quarantined=True)`` (the
        backend dispatcher cannot touch it), then — where the plan was
        amended — ``secure_worker``, then ``admit_worker``.  A worker
        whose securing fails is *left quarantined*: it holds a slot but
        can never receive a task, which is the safe failure mode.

        Returns the admitted worker ids; ``plan.failed`` says why each
        other node got no admitted worker.
        """
        plan.committed = True
        tel = self.telemetry
        admitted: List[int] = []
        for node in plan.nodes:
            needs_secure = bool(plan.secured.get(node.name))
            kwargs: Dict[str, Any] = {}
            if self.gated:
                kwargs["quarantined"] = True
                if needs_secure and getattr(self.farm, "SUPPORTS_REQUIRE_SECURE", False):
                    # double-ended gate: the dist worker itself bounces
                    # any task frame that beats the handshake
                    kwargs["require_secure"] = True
            try:
                handle = self.farm.add_worker(**kwargs)
            except RuntimeError:
                # substrate capacity exhausted: hand the node back
                self.placement.resources.release(node)
                plan.failed[node.name] = "capacity"
                tel.event("mc.no_capacity", node=node.name)
                continue
            worker_id = handle.worker_id
            self.placement.bind(worker_id, node)
            if not self.gated:
                # phase-less instantiation: live and dispatchable right
                # away, unsecured — the §3.2 leak window, on purpose
                admitted.append(worker_id)
                tel.event("mc.admit", worker=worker_id, node=node.name, naive=True)
                continue
            tel.event("mc.quarantine", worker=worker_id, node=node.name)
            if needs_secure:
                if not self.farm.secure_worker(worker_id):
                    plan.failed[node.name] = "secure"
                    tel.event("mc.secure_failed", worker=worker_id, node=node.name)
                    continue
                tel.event("mc.secured", worker=worker_id, node=node.name)
            if self.farm.admit_worker(worker_id):
                admitted.append(worker_id)
                tel.event("mc.admit", worker=worker_id, node=node.name)
            else:
                plan.failed[node.name] = "admit"
        return admitted


class LiveGeneralManager(GeneralManager):
    """The super-AM coordinating concern managers over one live farm.

    :class:`~repro.core.multiconcern.GeneralManager` with a
    :class:`PlacementABC` as every intent's surface and ``farm.now()``
    as its clock; rounds run one at a time.
    """

    def __init__(
        self,
        farm: Any,
        placement: WorkerPlacement,
        *,
        mode: CoordinationMode = CoordinationMode.TWO_PHASE,
        telemetry: Optional[Telemetry] = None,
        name: str = "GM_live",
    ) -> None:
        super().__init__(mode=mode, telemetry=telemetry)
        self.farm = farm
        self.placement = placement
        self.name = name
        self.abc = PlacementABC(
            farm,
            placement,
            gated=mode is CoordinationMode.TWO_PHASE,
            telemetry=self.telemetry,
        )
        #: one intent round at a time: concurrent controllers must not
        #: interleave their reserve/review/commit sequences
        self._lock = threading.RLock()

    def intent_abc(self, originator: Any) -> PlacementABC:
        return self.abc

    def now(self, originator: Any) -> float:
        return self.farm.now()

    def execute_intent(
        self, originator: Any, op: ManagerOperation, data: Any = None
    ) -> bool:
        """The GM's intent round under the one-round-at-a-time lock."""
        with self._lock:
            return super().execute_intent(originator, op, data)
