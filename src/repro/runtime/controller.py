"""Live autonomic control of a farm backend: the sim manager on a wall clock.

:class:`FarmController` *is* the simulated
:class:`~repro.core.skeleton_manager.FarmManager` — same Figure 5 rules,
contract mapping, beans, gauges, ``mape.*`` spans and trace record — with
a wall-clock :class:`~repro.obs.clock.Ticker` as its ``sim`` and
:class:`BackendABC` as its ABC, so any
:class:`~repro.runtime.backend.FarmBackend` (thread, process or dist
farm) runs under it.  The rules cannot tell a simulated farm from a live
one: the paper's separation of mechanism and policy, made literal.  The
live subclass only adds a cycle lock, so a contract swap from another
thread lands between two MAPE cycles, never inside one.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..core.contracts import Contract
from ..core.events import Events
from ..core.policies import ManagersConstants
from ..core.skeleton_manager import FarmManager
from ..gcm.abc_controller import ABCError, AutonomicBehaviourController
from ..obs.clock import Ticker
from ..obs.telemetry import Telemetry
from ..rules.beans import ManagerOperation
from .backend import FarmBackend

__all__ = ["BackendABC", "FarmController"]

#: trace mark → the ``actions`` label it reads as
_ACTIONS = {
    Events.ADD_WORKER: "addWorker x{count}",
    Events.REMOVE_WORKER: "removeWorker",
    Events.REBALANCE: "rebalance x{moved}",
}


class BackendABC(AutonomicBehaviourController):
    """The ABC of a live farm: snapshot monitoring and three actuators."""

    _OPS = frozenset({ManagerOperation.ADD_EXECUTOR, ManagerOperation.REMOVE_EXECUTOR,
                      ManagerOperation.BALANCE_LOAD})

    def __init__(self, farm: FarmBackend) -> None:
        self.farm = farm
        self.last_balance_moved = 0

    def monitor(self) -> Dict[str, Any]:
        return vars(self.farm.snapshot())

    def supported_operations(self) -> FrozenSet[ManagerOperation]:
        return self._OPS

    def execute(self, op: ManagerOperation, data: Any = None) -> bool:
        if op is ManagerOperation.ADD_EXECUTOR:
            count = int(data.get("count", 1)) if isinstance(data, Mapping) else 1
            added = 0
            for _ in range(count):
                try:
                    self.farm.add_worker()
                except RuntimeError:  # the backend is at capacity
                    break
                added += 1
            return added > 0  # partial growth counts as success
        if op is ManagerOperation.REMOVE_EXECUTOR:
            return self.farm.remove_worker() is not None
        if op is ManagerOperation.BALANCE_LOAD:
            self.last_balance_moved = self.farm.balance_load()
            return True
        raise ABCError(f"a live farm does not implement {op}")


class FarmController(FarmManager):
    """The farm manager enforcing a contract on a :class:`FarmBackend`.

    A root :class:`FarmManager` without worker managers on a ticker over
    ``farm.now``: the first tick comes one ``control_period`` after
    :meth:`start`; a tick that raises is counted and the loop goes on.

    When a :class:`~repro.runtime.multiconcern.LiveGeneralManager` has
    registered this controller (setting :attr:`coordinator`), grow
    actuations become *intents*: they route through the GM's two-phase
    protocol, where other concern managers may amend or veto them,
    instead of calling ``farm.add_worker()`` directly.
    """

    def __init__(
        self,
        farm: FarmBackend,
        contract: Contract,
        *,
        control_period: float = 0.5,
        constants: Optional[ManagersConstants] = None,
        max_workers: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        name: str = "AM_live",
    ) -> None:
        super().__init__(
            name,
            Ticker(farm.now, telemetry),
            BackendABC(farm),
            constants=constants,
            manage_workers=False,
            telemetry=telemetry,
            control_period=control_period,
            autostart=False,
        )
        if max_workers is not None:
            self.constants.FARM_MAX_NUM_WORKERS = max_workers
        self.farm = farm
        #: serialises contract swaps against in-flight MAPE cycles, so a
        #: cycle always analyses/plans/executes against ONE contract's
        #: thresholds — never a half-old, half-new mixture
        self._cycle_lock = threading.RLock()
        self.assign_contract(contract)

    def assign_contract(self, contract: Contract) -> None:
        """Swap the enforced contract between two MAPE cycles."""
        with self._cycle_lock:
            super().assign_contract(contract)

    def control_step(self) -> List[str]:
        """One MAPE tick under the cycle lock; returns the fired rules."""
        with self._cycle_lock:
            return super().control_step()

    # -- the (time, text) views ShardAgent reports and the examples print --
    @property
    def actions(self) -> List[Tuple[float, str]]:
        """Committed actuations, read off this manager's trace marks."""
        return [
            (m.time, _ACTIONS[m.name].format(**m.detail)
             + (" (intent)" if m.detail.get("intent") else ""))
            for m in self.trace.events
            if m.name in _ACTIONS
        ]

    @property
    def violations(self) -> List[Tuple[float, str]]:
        """``(time, kind)`` of every violation this manager raised."""
        return [(v.time, v.kind) for v in self.violations_raised]
