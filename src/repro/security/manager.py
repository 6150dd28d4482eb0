"""The security autonomic manager (AM_sec) and its ABC.

Section 3.2's second concern hierarchy: a manager whose goal is that no
plaintext data crosses untrusted network segments.  It participates in
multi-concern coordination in two ways:

* **reactively** — its own MAPE loop scans the managed farms for
  *exposed* workers (unsecured bindings to untrusted nodes) and for
  recorded leaks, and fires ``SECURE_CHANNEL`` to close the hole.  This
  is the only defence available in *naive* coordination mode and is
  inherently late: messages sent between the worker's instantiation and
  the next security tick leak (the window the paper warns about).
* **proactively** — :meth:`SecurityManager.review_intent` implements
  phase two of the two-phase intent protocol: when AM_perf proposes new
  workers, any reserved node in an untrusted domain gets its plan entry
  amended to ``secure`` *before* instantiation, so not a single message
  leaks; a node in one of ``veto_domains`` (none unless configured, so
  the simulated manager never vetoes) kills the whole plan instead.

One manager for both substrates: :class:`LiveSecurityManager` is
:class:`SecurityManager` on a wall-clock :class:`~repro.obs.clock.Ticker`
over a :class:`LiveSecurityABC`, whose monitor counts exposed workers
over the live placement bindings and whose ``SECURE_CHANNEL`` actuator
secures each one through ``farm.secure_worker``.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..gcm.abc_controller import (
    AutonomicBehaviourController,
    FarmABC,
    PlannedReconfiguration,
)
from ..obs.clock import Ticker
from ..obs.telemetry import NOOP, Telemetry
from ..rules.beans import Bean, ManagerOperation
from ..rules.dsl import rule, value_gt
from ..sim.engine import Simulator
from ..sim.network import Network
from ..sim.resources import TRUSTED_DEFAULT, Node
from ..core.contracts import Contract, SecurityContract
from ..core.events import Events
from ..core.manager import AutonomicManager
from ..core.multiconcern import ConcernReview
from .domains import SecurityPolicy

__all__ = [
    "SecurityABC",
    "SecurityManager",
    "LiveSecurityABC",
    "LiveSecurityManager",
    "ExposureBean",
    "LeakBean",
]


class ExposureBean(Bean):
    """Number of exposed workers (unsecured channels to untrusted nodes)."""


class LeakBean(Bean):
    """Number of plaintext messages that have crossed untrusted links."""


class SecurityABC(AutonomicBehaviourController):
    """Monitoring + actuators for the security concern.

    Oversees one or more farm ABCs plus the network audit log.
    """

    _OPS = frozenset({ManagerOperation.SECURE_CHANNEL})

    def __init__(
        self,
        farm_abcs: List[FarmABC],
        network: Optional[Network],
        policy: SecurityPolicy,
    ) -> None:
        self.farm_abcs = list(farm_abcs)
        self.network = network
        self.policy = policy
        self.secured_actions = 0

    # -- monitoring ------------------------------------------------------
    def exposed_workers(self) -> List[Any]:
        """All farm workers whose channel violates the policy right now."""
        exposed = []
        for fabc in self.farm_abcs:
            farm = fabc.farm
            for w in farm.workers:
                if w._stopped:
                    continue
                if self.policy.worker_exposed(farm.emitter_node, w.node, w.secured):
                    exposed.append(w)
        return exposed

    def monitor(self) -> Optional[Dict[str, Any]]:
        return {
            "insecure_untrusted_workers": len(self.exposed_workers()),
            "leak_count": self.network.leak_count if self.network else 0,
            "secured_actions": self.secured_actions,
        }

    # -- actuators ---------------------------------------------------------
    def supported_operations(self) -> FrozenSet[ManagerOperation]:
        return self._OPS

    def execute(self, op: ManagerOperation, data: Any = None) -> bool:
        if op is ManagerOperation.SECURE_CHANNEL:
            for exposed in self.exposed_workers():
                if self.secure(exposed):
                    self.secured_actions += 1
            return True
        raise ValueError(f"SecurityABC does not implement {op}")

    def secure(self, worker: Any) -> bool:
        """Secure one exposed worker's channel; True once it is."""
        worker.farm.secure_worker(worker)
        return True


class SecurityManager(AutonomicManager, ConcernReview):
    """AM_sec: keeps every channel crossing untrusted ground secured."""

    #: domains whose nodes a plan may not use at all (none by default)
    veto_domains: FrozenSet[str] = frozenset()

    def __init__(
        self,
        name: str,
        sim: Simulator,
        abc: SecurityABC,
        **kwargs: Any,
    ) -> None:
        kwargs.setdefault("concern", "security")
        super().__init__(name, sim, abc=abc, **kwargs)
        self.security_abc = abc
        self.amendments = 0
        self.vetoes = 0
        self.engine.add_rules(self._rules())

    @property
    def secured_actions(self) -> int:
        """Channels the reactive loop has secured so far."""
        return self.security_abc.secured_actions

    def _rules(self):
        def secure_exposed(act):
            act["exposure"].fire_operation(ManagerOperation.SECURE_CHANNEL)

        return [
            rule("SecureExposedWorkers")
            .doc("close any unsecured channel to an untrusted node")
            .salience(50)
            .when(ExposureBean, value_gt(0), bind="exposure")
            .then(secure_exposed),
        ]

    # -- MAPE hooks --------------------------------------------------------
    def on_contract(self, contract: Contract) -> None:
        if not isinstance(contract, SecurityContract):
            raise ValueError(
                f"{self.name}: security manager needs a SecurityContract, "
                f"got {type(contract).__name__}"
            )

    def observe(self, data: Mapping[str, Any]) -> None:
        mem = self.engine.memory
        mem.replace(self.make_bean(ExposureBean(data["insecure_untrusted_workers"])))
        mem.replace(self.make_bean(LeakBean(data["leak_count"])))
        now = self.sim.now
        self.trace.sample(f"{self.name}.exposed", now, data["insecure_untrusted_workers"])
        self.trace.sample(f"{self.name}.leaks", now, data["leak_count"])
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.gauge(
                "repro_security_exposed_workers",
                "workers with unsecured channels to untrusted nodes",
            ).labels(manager=self.name).set(data["insecure_untrusted_workers"])
            tel.metrics.gauge(
                "repro_security_leaked_messages",
                "plaintext messages that crossed untrusted links",
            ).labels(manager=self.name).set(data["leak_count"])

    def on_operation(self, op: ManagerOperation, data: Any) -> None:
        if op is ManagerOperation.SECURE_CHANNEL:
            n_before = len(self.security_abc.exposed_workers())
            self.security_abc.execute(op, data)
            self.trace.mark(
                self.sim.now, self.name, Events.SECURE_WORKER, count=n_before
            )
            return
        super().on_operation(op, data)

    # -- two-phase protocol (phase 2) ---------------------------------------
    def review_intent(
        self, originator: AutonomicManager, plan: PlannedReconfiguration
    ) -> bool:
        """Amend untrusted nodes to run secured; veto forbidden domains.

        A node in one of :attr:`veto_domains` must not host a worker even
        over a secured channel (trust was revoked outright), so the whole
        plan dies and the originator's grow intent fails closed.  Any
        other untrusted node is *achievable* by securing its channel; that
        just costs throughput (the perf/sec trade-off the paper leaves to
        the GM's contract arithmetic).
        """
        for node in plan.nodes:
            if node.domain.name in self.veto_domains:
                self.vetoes += 1
                self.telemetry.event(
                    "security.veto", node=node.name, domain=node.domain.name
                )
                return False
        amended = []
        for node in plan.nodes:
            if not self.security_abc.policy.node_trusted(node):
                plan.require_secure(node)
                amended.append(node.name)
        if amended:
            self.amendments += len(amended)
            self.telemetry.event("security.amend", nodes=amended)
        return True


class LiveSecurityABC(SecurityABC):
    """The security ABC of one live farm, read off placement bindings."""

    def __init__(
        self,
        farm: Any,
        placement: Any,
        policy: SecurityPolicy,
        emitter_node: Node,
        telemetry: Telemetry,
        manager: str,
    ) -> None:
        super().__init__([], None, policy)
        self.farm = farm
        self.placement = placement
        #: where the emitter/collector run — one end of every channel
        self.emitter_node = emitter_node
        self.telemetry = telemetry
        self.manager = manager

    def exposed_workers(self) -> List[Tuple[int, Node]]:
        """``(worker_id, node)`` for every live channel violating policy.

        Only workers with a placement binding are considered: a worker
        the GM never placed has no node identity, hence no domain to
        distrust.  Quarantined workers are skipped — the admission gate
        already guarantees they receive no tasks, and the GM commit that
        owns them is securing their channel; a reactive handshake here
        would just race it.
        """
        exposed: List[Tuple[int, Node]] = []
        for w in self.farm.workers:
            if not getattr(w, "active", True) or getattr(w, "retiring", False):
                continue
            if getattr(w, "quarantined", False):
                continue
            node = self.placement.node_of(w.worker_id)
            if node is None:
                continue
            if self.policy.worker_exposed(self.emitter_node, node, w.secured):
                exposed.append((w.worker_id, node))
        return exposed

    def secure(self, worker: Tuple[int, Node]) -> bool:
        worker_id, node = worker
        if not self.farm.secure_worker(worker_id):
            return False
        tel = self.telemetry
        tel.event("security.secure", worker=worker_id, node=node.name)
        if tel.enabled:
            tel.metrics.counter(
                "repro_mc_reactive_secured_total",
                "channels secured reactively, after instantiation",
            ).labels(manager=self.manager).inc()
        return True


class LiveSecurityManager(SecurityManager):
    """AM_sec over a live :class:`~repro.runtime.backend.FarmBackend`.

    :class:`SecurityManager` — same ``SecureExposedWorkers`` rule, beans,
    gauges and :meth:`review_intent` — on a wall-clock
    :class:`~repro.obs.clock.Ticker` over a :class:`LiveSecurityABC`,
    registered with the live GM
    (:class:`~repro.runtime.multiconcern.LiveGeneralManager`).  Its
    reactive tick secures every exposed worker — an unsecured channel
    whose bound node sits on untrusted ground, per the
    :class:`~repro.runtime.multiconcern.WorkerPlacement` binding — on
    the spot; on the dist farm that is a real wire handshake.  That path
    alone is the late defence: under naive coordination, tasks
    dispatched before the tick travel plaintext.
    """

    def __init__(
        self,
        farm: Any,
        placement: Any,
        *,
        policy: Optional[SecurityPolicy] = None,
        emitter_node: Optional[Node] = None,
        veto_domains: Tuple[str, ...] = (),
        control_period: float = 0.25,
        telemetry: Optional[Telemetry] = None,
        name: str = "AM_sec_live",
    ) -> None:
        abc = LiveSecurityABC(
            farm,
            placement,
            policy if policy is not None else SecurityPolicy(),
            emitter_node or Node("emitter", domain=TRUSTED_DEFAULT),
            telemetry if telemetry is not None else NOOP,
            name,
        )
        super().__init__(
            name,
            Ticker(farm.now, telemetry),
            abc,
            telemetry=telemetry,
            control_period=control_period,
            autostart=False,
        )
        self.veto_domains = frozenset(veto_domains)
        self.assign_contract(SecurityContract())
