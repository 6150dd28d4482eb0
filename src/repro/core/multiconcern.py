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

One protocol for both substrates: the simulated GM plans over the
originator's :class:`~repro.gcm.abc_controller.FarmABC`;
:class:`~repro.runtime.multiconcern.LiveGeneralManager` is this class
over a placement-backed live ABC and the farm's clock.  Reviews, the
intent audit (:class:`IntentRecord`, ``intent*`` trace marks), the
``mc.intent``/``mc.commit`` spans and the ``repro_mc_*`` counters are
written by one :meth:`GeneralManager.execute_intent`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..gcm.abc_controller import FarmABC, PlannedReconfiguration
from ..obs.telemetry import NOOP, Telemetry
from ..rules.beans import ManagerOperation
from ..obs.events import TraceRecorder
from .contracts import BOOLEAN_CONCERNS, WeightedCompositeContract
from .events import Events
from .manager import AutonomicManager, ManagerError

__all__ = [
    "CoordinationMode",
    "ConcernReview",
    "GeneralManager",
    "IntentRecord",
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


@dataclass
class IntentRecord:
    """Audit entry for one intent run through the GM."""

    time: float
    originator: str
    operation: str
    outcome: str  # committed | partial | failed | vetoed | no-plan
    amendments: int = 0
    reviewers: Tuple[str, ...] = ()


class GeneralManager:
    """The super-AM orchestrating per-concern manager hierarchies.

    Substrate-neutral: an intent plans, commits and aborts over the
    surface :meth:`intent_abc` names and is stamped by :meth:`now`, the
    two hooks :class:`~repro.runtime.multiconcern.LiveGeneralManager`
    overrides to run the same protocol over a live farm.
    """

    #: actor of the GM's spans and trace marks, and its metric label
    name = "GM"

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
            priority = 10 if manager.concern in BOOLEAN_CONCERNS else 0
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
    def intent_abc(self, originator: Any) -> Optional[Any]:
        """The plan/commit/abort surface a grow intent runs over, if any."""
        abc = originator.abc
        return abc if isinstance(abc, FarmABC) else None

    def now(self, originator: Any) -> float:
        """The time an intent's audit record and trace marks carry."""
        return originator.sim.now

    def execute_intent(
        self, originator: AutonomicManager, op: ManagerOperation, data: Any = None
    ) -> bool:
        """Run one reconfiguration intent: plan → review → commit or abort.

        Only ``ADD_EXECUTOR`` over an :meth:`intent_abc` has a plan/commit
        split; any other operation goes straight to the originator's ABC
        (nothing for other concerns to interpose on), or is refused when
        there is none.  Returns True iff at least one executor came up.
        """
        abc = self.intent_abc(originator)
        if op is not ManagerOperation.ADD_EXECUTOR or abc is None:
            own = getattr(originator, "abc", None)
            return own.execute(op, data) if own is not None else False

        tel = self.telemetry
        count = int(data.get("count", 1)) if isinstance(data, Mapping) else 1
        with tel.span(
            "mc.intent",
            actor=self.name,
            originator=originator.name,
            operation=op.value,
            mode=self.mode.value,
        ) as intent_span:
            plan = abc.plan_add_workers(count)
            tel.event("intent.plan", count=count, ok=plan is not None)
            if plan is None:
                intent_span.set_attribute("outcome", "no-plan")
                self._record(originator, op, "no-plan")
                return False

            amendments = 0
            reviewers: Tuple[str, ...] = ()
            # NAIVE skips the review: other concern managers only find out
            # via their own monitoring — the unsafe window of §3.2
            if self.mode is CoordinationMode.TWO_PHASE:
                names: List[str] = []
                for reviewer in self.managers:  # priority order, first veto wins
                    if reviewer is originator or not hasattr(reviewer, "review_intent"):
                        continue
                    names.append(reviewer.name)
                    before = dict(plan.secured)
                    verdict = reviewer.review_intent(originator, plan)
                    tel.event(
                        "intent.review", reviewer=reviewer.name, verdict=verdict is not False
                    )
                    if plan.secured != before:
                        amendments += 1
                        secured = [n for n in plan.secured if plan.secured[n]]
                        self.trace.mark(
                            self.now(originator),
                            reviewer.name,
                            Events.INTENT_AMENDED,
                            nodes=secured,
                        )
                        tel.event("intent.amend", reviewer=reviewer.name)
                    if verdict is False:
                        abc.abort_plan(plan)
                        self.trace.mark(
                            self.now(originator), reviewer.name, Events.INTENT_VETOED
                        )
                        tel.event("intent.veto", reviewer=reviewer.name)
                        intent_span.set_attribute("outcome", "vetoed")
                        self._record(originator, op, "vetoed", amendments, tuple(names))
                        return False
                reviewers = tuple(names)
            tel.event("intent.commit", reviewers=len(reviewers), amendments=amendments)
            intent_span.set_attribute("outcome", "committed")
        with tel.span(
            "mc.commit",
            actor=self.name,
            originator=originator.name,
            nodes=[n.name for n in plan.nodes],
        ) as commit_span:
            admitted = len(abc.commit_plan(plan))
            failures = len(plan.failed)
            commit_span.set_attribute("admitted", admitted)
            commit_span.set_attribute("failures", failures)
        outcome = "committed" if not failures else "partial" if admitted else "failed"
        self._record(originator, op, outcome, amendments, reviewers)
        self._count("repro_mc_amendments_total", "plan amendments applied by reviewers", amendments)
        self._count(
            "repro_mc_admitted_workers_total",
            "workers committed through the admission gate",
            admitted,
        )
        self._count(
            "repro_mc_secure_failures_total",
            "commit steps aborted by a failed channel handshake",
            sum(why == "secure" for why in plan.failed.values()),
        )
        return admitted > 0

    def _count(self, metric: str, help_text: str, n: int) -> None:
        if n and self.telemetry.enabled:
            self.telemetry.metrics.counter(metric, help_text).labels(gm=self.name).inc(n)

    def _record(
        self,
        originator: Any,
        op: ManagerOperation,
        outcome: str,
        amendments: int = 0,
        reviewers: Tuple[str, ...] = (),
    ) -> None:
        now = self.now(originator)
        self.intents.append(
            IntentRecord(now, originator.name, op.value, outcome, amendments, reviewers)
        )
        self.trace.mark(
            now, self.name, Events.INTENT_REVIEW, originator=originator.name, outcome=outcome
        )
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_mc_intent_rounds_total", "intent rounds through the GM, by outcome"
            ).labels(gm=self.name, outcome=outcome).inc()

    # ------------------------------------------------------------------
    # the §3.2 super-contract c̄
    # ------------------------------------------------------------------
    def super_contract(
        self, weights: Optional[List[float]] = None
    ) -> WeightedCompositeContract:
        """Derive c̄ from the registered managers' contracts.

        "how to derive some kind of 'summary' super-contract c̄ from
        c₁, …, c_h with its own policies such that managing that contract
        leads to fair and efficient management of all the concerns" —
        the linear-combination answer lives in
        :class:`~repro.core.contracts.WeightedCompositeContract`; this
        method assembles it from whatever the concern managers currently
        hold.
        """
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
    def outcomes(self) -> Dict[str, int]:
        """Intent outcome histogram (committed/partial/vetoed/...)."""
        out: Dict[str, int] = {}
        for rec in self.intents:
            out[rec.outcome] = out.get(rec.outcome, 0) + 1
        return out
