"""Multi-concern coordination: the GM and the two-phase intent protocol.

Section 3.2 analyses what happens when several autonomic managers, each
owning a different concern, act on the same computation.  The paper's
design points, all implemented here:

* **MM structuring** — "multiple (hierarchies of) AMs, each taking care
  of a different concern C_i plus a general super-AM orchestrating the
  multiple AMs".  :class:`GeneralManager` is that super-AM: concern
  managers register with a priority.
* **Boolean concerns get priority** — security is boolean ("data and
  code communication is either secure or it is not.  Therefore […] they
  should be given a priority"): :meth:`GeneralManager.register` defaults
  boolean concerns to a higher priority, and reviews run in priority
  order.
* **Two-phase intent protocol** — "i) AM_perf should express the
  *intent* to add a new node, ii) AM_sec could react by prompting
  securing of communications and iii) AM_perf may then instantiate the
  new secure worker."  :meth:`GeneralManager.execute_intent` runs
  exactly this: plan (reserve) → review (each concern manager may amend
  or veto the :class:`~repro.gcm.abc_controller.PlannedReconfiguration`)
  → commit or abort.
* **Naive mode** (the ablation baseline) — ``mode="naive"`` commits the
  originator's plan immediately and lets other concern managers catch up
  through their own control loops, reproducing the insecure window the
  paper warns about.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..gcm.abc_controller import FarmABC, PlannedReconfiguration
from ..obs.telemetry import NOOP, Telemetry
from ..rules.beans import ManagerOperation
from ..obs.events import TraceRecorder
from .events import Events
from .manager import AutonomicManager, ManagerError

__all__ = [
    "CoordinationMode",
    "ConcernReview",
    "GeneralManager",
    "IntentRecord",
    "review_plan",
]


class CoordinationMode(enum.Enum):
    """How the GM commits multi-concern reconfigurations."""

    TWO_PHASE = "two-phase"
    NAIVE = "naive"


class ConcernReview:
    """Mixin/protocol for managers that can review reconfiguration intents.

    ``review_intent`` may mutate the plan (amendments such as "secure
    this node's bindings") and returns False to veto the whole intent.
    """

    def review_intent(
        self, originator: AutonomicManager, plan: PlannedReconfiguration
    ) -> bool:
        return True


def review_plan(
    originator: Any,
    plan: PlannedReconfiguration,
    reviewers: Any,
    *,
    telemetry: Telemetry = NOOP,
    on_amend: Any = None,
    on_veto: Any = None,
) -> Tuple[bool, int, Tuple[str, ...]]:
    """Phase one of the intent protocol: run every reviewer over ``plan``.

    Shared by the simulated :class:`GeneralManager` and the live
    :class:`~repro.runtime.multiconcern.LiveGeneralManager`, so the
    review semantics — priority order, amendment detection, first veto
    wins — cannot drift between substrates.  ``on_amend(reviewer,
    secured_nodes)`` and ``on_veto(reviewer)`` are optional hooks for
    caller-specific bookkeeping (trace marks, plan abort).

    Returns ``(ok, amendments, reviewer_names)``; ``ok`` is False the
    moment any reviewer vetoes.
    """
    amendments = 0
    names: list = []
    for reviewer in reviewers:
        if reviewer is originator:
            continue
        if not isinstance(reviewer, ConcernReview) and not hasattr(
            reviewer, "review_intent"
        ):
            continue
        names.append(reviewer.name)
        before = dict(plan.secured)
        verdict = reviewer.review_intent(originator, plan)
        telemetry.event(
            "intent.review", reviewer=reviewer.name, verdict=verdict is not False
        )
        if plan.secured != before:
            amendments += 1
            if on_amend is not None:
                on_amend(reviewer, [n for n in plan.secured if plan.secured[n]])
            telemetry.event("intent.amend", reviewer=reviewer.name)
        if verdict is False:
            if on_veto is not None:
                on_veto(reviewer)
            telemetry.event("intent.veto", reviewer=reviewer.name)
            return False, amendments, tuple(names)
    return True, amendments, tuple(names)


@dataclass
class IntentRecord:
    """Audit entry for one intent run through the GM."""

    time: float
    originator: str
    operation: str
    outcome: str  # committed | vetoed | no-plan
    amendments: int = 0
    reviewers: Tuple[str, ...] = ()


class GeneralManager:
    """The super-AM orchestrating per-concern manager hierarchies."""

    #: concerns that are boolean and therefore outrank quantitative ones
    BOOLEAN_CONCERNS = frozenset({"security"})

    def __init__(
        self,
        *,
        mode: CoordinationMode = CoordinationMode.TWO_PHASE,
        trace: Optional[TraceRecorder] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.mode = mode
        self.trace = trace or TraceRecorder()
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._managers: List[Tuple[int, AutonomicManager]] = []
        self.intents: List[IntentRecord] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self, manager: AutonomicManager, *, priority: Optional[int] = None
    ) -> None:
        """Attach a concern manager; boolean concerns default to priority 10.

        Registration also installs this GM as the manager's coordinator,
        so its actuators route intents through here.
        """
        if priority is None:
            priority = 10 if manager.concern in self.BOOLEAN_CONCERNS else 0
        self._managers.append((priority, manager))
        self._managers.sort(key=lambda t: -t[0])
        manager.coordinator = self

    @property
    def managers(self) -> List[AutonomicManager]:
        """Registered managers in review (priority) order."""
        return [m for _, m in self._managers]

    def managers_of(self, concern: str) -> List[AutonomicManager]:
        return [m for m in self.managers if m.concern == concern]

    # ------------------------------------------------------------------
    # the intent protocol
    # ------------------------------------------------------------------
    def execute_intent(
        self, originator: AutonomicManager, op: ManagerOperation, data: Any
    ) -> bool:
        """Run one reconfiguration intent through the coordination policy.

        Only ``ADD_EXECUTOR`` on a farm ABC has a plan/commit split; any
        other operation is executed directly (nothing for other concerns
        to interpose on in this substrate).
        """
        abc = originator.abc
        if op is not ManagerOperation.ADD_EXECUTOR or not isinstance(abc, FarmABC):
            return abc.execute(op, data) if abc is not None else False

        tel = self.telemetry
        with tel.span(
            "intent.round",
            actor="GM",
            originator=originator.name,
            operation=op.value,
            mode=self.mode.value,
        ) as round_span:
            count = int(data.get("count", 1)) if isinstance(data, Mapping) else 1
            plan = abc.plan_add_workers(count)
            tel.event("intent.plan", count=count, ok=plan is not None)
            if plan is None:
                round_span.set_attribute("outcome", "no-plan")
                self._record(originator, op, "no-plan")
                return False

            if self.mode is CoordinationMode.NAIVE:
                # Phase-less commit: other concern managers only find out via
                # their own monitoring — the unsafe window of §3.2.
                abc.commit_plan(plan)
                tel.event("intent.commit", reviewers=0)
                round_span.set_attribute("outcome", "committed")
                self._record(originator, op, "committed", reviewers=())
                return True

            def on_amend(reviewer: AutonomicManager, secured_nodes: List[str]) -> None:
                self.trace.mark(
                    originator.sim.now,
                    reviewer.name,
                    Events.INTENT_AMENDED,
                    nodes=secured_nodes,
                )

            def on_veto(reviewer: AutonomicManager) -> None:
                abc.abort_plan(plan)
                self.trace.mark(originator.sim.now, reviewer.name, Events.INTENT_VETOED)

            ok, amendments, reviewers = review_plan(
                originator,
                plan,
                self.managers,
                telemetry=tel,
                on_amend=on_amend,
                on_veto=on_veto,
            )
            if not ok:
                round_span.set_attribute("outcome", "vetoed")
                self._record(
                    originator, op, "vetoed", amendments=amendments,
                    reviewers=reviewers,
                )
                return False
            abc.commit_plan(plan)
            tel.event("intent.commit", reviewers=len(reviewers), amendments=amendments)
            round_span.set_attribute("outcome", "committed")
            self._record(
                originator, op, "committed", amendments=amendments,
                reviewers=reviewers,
            )
            return True

    def _record(
        self,
        originator: AutonomicManager,
        op: ManagerOperation,
        outcome: str,
        *,
        amendments: int = 0,
        reviewers: Tuple[str, ...] = (),
    ) -> None:
        rec = IntentRecord(
            time=originator.sim.now,
            originator=originator.name,
            operation=op.value,
            outcome=outcome,
            amendments=amendments,
            reviewers=reviewers,
        )
        self.intents.append(rec)
        self.trace.mark(
            originator.sim.now,
            "GM",
            Events.INTENT_REVIEW,
            originator=originator.name,
            outcome=outcome,
        )

    # ------------------------------------------------------------------
    # the §3.2 super-contract c̄
    # ------------------------------------------------------------------
    def super_contract(
        self, weights: Optional[List[float]] = None
    ) -> "WeightedCompositeContract":
        """Derive c̄ from the registered managers' contracts.

        "how to derive some kind of 'summary' super-contract c̄ from
        c₁, …, c_h with its own policies such that managing that contract
        leads to fair and efficient management of all the concerns" —
        the linear-combination answer lives in
        :class:`~repro.core.contracts.WeightedCompositeContract`; this
        method assembles it from whatever the concern managers currently
        hold.
        """
        from .contracts import WeightedCompositeContract

        parts = [m.contract for m in self.managers if m.contract is not None]
        if not parts:
            raise ManagerError("no registered manager holds a contract yet")
        return WeightedCompositeContract(parts, weights)

    def combined_monitor(self) -> Dict[str, Any]:
        """Union of every registered manager's last monitor sample.

        Key collisions resolve in priority order (higher-priority
        concerns win), matching the review ordering.
        """
        merged: Dict[str, Any] = {}
        for m in reversed(self.managers):  # low priority first, overwritten
            if m.last_monitor:
                merged.update(m.last_monitor)
        return merged

    def super_contract_score(
        self, weights: Optional[List[float]] = None
    ) -> Optional[float]:
        """c̄'s satisfaction degree against the combined monitor sample."""
        return self.super_contract(weights).score(self.combined_monitor())

    # ------------------------------------------------------------------
    # audit helpers
    # ------------------------------------------------------------------
    def committed_intents(self) -> List[IntentRecord]:
        return [r for r in self.intents if r.outcome == "committed"]

    def vetoed_intents(self) -> List[IntentRecord]:
        return [r for r in self.intents if r.outcome == "vetoed"]
