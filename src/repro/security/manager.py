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
  leaks.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..gcm.abc_controller import (
    AutonomicBehaviourController,
    FarmABC,
    PlannedReconfiguration,
)
from ..obs.clock import PeriodicThread, Ticker
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
            exposed = self.exposed_workers()
            for fabc in self.farm_abcs:
                for w in exposed:
                    if w.farm is fabc.farm:
                        fabc.farm.secure_worker(w)
                        self.secured_actions += 1
            return True
        raise ValueError(f"SecurityABC does not implement {op}")


class SecurityManager(AutonomicManager, ConcernReview):
    """AM_sec: keeps every channel crossing untrusted ground secured."""

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
        self.engine.add_rules(self._rules())

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
        """Amend the plan: any untrusted reserved node must run secured.

        Never vetoes — security is always *achievable* by securing the
        channel; it just costs throughput (the perf/sec trade-off the
        paper leaves to the GM's contract arithmetic).
        """
        amended = []
        for node in plan.nodes:
            if not self.security_abc.policy.node_trusted(node):
                plan.require_secure(node)
                amended.append(node)
        if amended and self.telemetry.enabled:
            self.telemetry.event("security.amend", nodes=amended)
        return True


class LiveSecurityManager(ConcernReview):
    """AM_sec over a live :class:`~repro.runtime.backend.FarmBackend`.

    The wall-clock counterpart of :class:`SecurityManager`, built for
    the live GM (:class:`~repro.runtime.multiconcern.LiveGeneralManager`)
    rather than the simulator.  Same two faces:

    * **reactively** — :meth:`control_step` (run on a wall-clock
      :class:`~repro.obs.clock.Ticker`, like the performance
      :class:`~repro.runtime.controller.FarmController`)
      scans the farm for exposed workers — unsecured channels whose
      bound node sits on untrusted ground, per the
      :class:`~repro.runtime.multiconcern.WorkerPlacement` binding — and
      secures them on the spot.  On the dist farm that is a real wire
      handshake.  This path alone is the late defence; under naive
      coordination, tasks dispatched before this tick travel plaintext.
    * **proactively** — :meth:`review_intent` amends grow plans so every
      untrusted node is secured *before* admission, and can veto
      outright when a reserved node belongs to a domain in
      ``veto_domains`` (e.g. a domain whose trust was revoked mid-run
      and must not host workers at all).
    """

    #: boolean concern → the GM defaults this manager to priority 10
    concern = "security"

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
        if control_period <= 0:
            raise ValueError("control_period must be positive")
        self.farm = farm
        self.placement = placement
        self.policy = policy if policy is not None else SecurityPolicy()
        #: where the emitter/collector run — one end of every channel
        self.emitter_node = emitter_node or Node("emitter", domain=TRUSTED_DEFAULT)
        self.veto_domains = frozenset(veto_domains)
        self.control_period = control_period
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.name = name
        self.coordinator: Optional[Any] = None
        self.secured_actions = 0
        self.amendments = 0
        self.vetoes = 0
        self.loop: Optional[PeriodicThread] = None

    # -- monitoring --------------------------------------------------------
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

    # -- MAPE tick (public so tests can drive it deterministically) --------
    def control_step(self) -> List[int]:
        """One reactive tick: find exposed workers, secure their channels."""
        tel = self.telemetry
        secured: List[int] = []
        with tel.span("mape.cycle", actor=self.name) as cycle:
            exposed = self.exposed_workers()
            if tel.enabled:
                tel.metrics.gauge(
                    "repro_security_exposed_workers",
                    "workers with unsecured channels to untrusted nodes",
                ).labels(manager=self.name).set(len(exposed))
                cycle.set_attribute("exposed", len(exposed))
            for worker_id, node in exposed:
                if self.farm.secure_worker(worker_id):
                    secured.append(worker_id)
                    self.secured_actions += 1
                    tel.event(
                        "security.secure", worker=worker_id, node=node.name
                    )
                    if tel.enabled:
                        tel.metrics.counter(
                            "repro_mc_reactive_secured_total",
                            "channels secured reactively, after instantiation",
                        ).labels(manager=self.name).inc()
        return secured

    # -- loop lifecycle ----------------------------------------------------
    def start(self) -> "LiveSecurityManager":
        if self.loop is None or self.loop.cancelled:
            self.loop = Ticker(telemetry=self.telemetry).periodic(
                self.control_period, self.control_step, name=f"{self.name}.loop"
            )
        return self

    def stop(self, timeout: float = 5.0) -> None:
        if self.loop is not None:
            self.loop.cancel(timeout)

    # -- two-phase protocol (phase 2) --------------------------------------
    def review_intent(self, originator: Any, plan: PlannedReconfiguration) -> bool:
        """Amend untrusted nodes to run secured; veto forbidden domains.

        Unlike the simulated manager this one *can* veto: a node in one
        of ``veto_domains`` must not host a worker even over a secured
        channel (trust was revoked outright), so the whole plan dies and
        the originator's grow intent fails closed.
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
            if not self.policy.node_trusted(node):
                plan.require_secure(node)
                amended.append(node.name)
        if amended:
            self.amendments += len(amended)
            self.telemetry.event("security.amend", nodes=amended)
        return True
