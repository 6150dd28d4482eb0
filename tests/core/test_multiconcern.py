"""Tests for the GM, priorities and the two-phase intent protocol."""

from repro.core.behavioural import build_farm_bs
from repro.core.contracts import SecurityContract
from repro.core.manager import AutonomicManager
from repro.core.multiconcern import (
    ConcernReview,
    CoordinationMode,
    GeneralManager,
)
from repro.rules.beans import ManagerOperation
from repro.security.domains import SecurityPolicy
from repro.security.manager import SecurityABC, SecurityManager
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.resources import Domain, Node, ResourceManager
from repro.sim.workload import ConstantWork, TaskSource

LAN = Domain("lan", trusted=True)
WAN = Domain("wan", trusted=False)


def setup(mode=CoordinationMode.TWO_PHASE, trusted=1, untrusted=4):
    sim = Simulator()
    network = Network()
    nodes = [Node(f"t{i}", domain=LAN) for i in range(trusted)] + [
        Node(f"u{i}", domain=WAN) for i in range(untrusted)
    ]
    rm = ResourceManager(nodes)
    bs = build_farm_bs(
        sim,
        rm,
        worker_work=5.0,
        initial_degree=trusted,
        worker_setup_time=0.0,
        network=network,
        spawn_worker_managers=False,
        emitter_node=Node("frontend", domain=LAN),
    )
    policy = SecurityPolicy()
    sec_abc = SecurityABC([bs.abc], network, policy)
    sec = SecurityManager("AM_sec", sim, sec_abc, control_period=15.0)
    sec.assign_contract(SecurityContract())
    gm = GeneralManager(mode=mode)
    gm.register(sec)
    gm.register(bs.manager, priority=0)
    return sim, bs, sec, gm, network, rm


class TestRegistration:
    def test_boolean_concern_gets_priority(self):
        sim, bs, sec, gm, *_ = setup()
        assert gm.managers[0] is sec  # security reviews first

    def test_coordinator_installed(self):
        sim, bs, sec, gm, *_ = setup()
        assert bs.manager.coordinator is gm
        assert sec.coordinator is gm

    def test_managers_of(self):
        sim, bs, sec, gm, *_ = setup()
        assert gm.managers_of("security") == [sec]
        assert gm.managers_of("performance") == [bs.manager]

    def test_explicit_priority_override(self):
        gm = GeneralManager()
        sim = Simulator()
        a = AutonomicManager("a", sim, autostart=False)
        b = AutonomicManager("b", sim, autostart=False)
        gm.register(a, priority=1)
        gm.register(b, priority=5)
        assert gm.managers == [b, a]


class TestTwoPhaseProtocol:
    def test_untrusted_plan_amended_to_secure(self):
        sim, bs, sec, gm, network, rm = setup()
        ok = gm.execute_intent(
            bs.manager, ManagerOperation.ADD_EXECUTOR, {"count": 2}
        )
        assert ok
        new_workers = [w for w in bs.farm.workers if not w.node.trusted]
        assert len(new_workers) == 2
        assert all(w.secured for w in new_workers)
        assert gm.outcomes().get("committed")
        assert gm.intents[-1].amendments == 1

    def test_trusted_plan_not_amended(self):
        sim, bs, sec, gm, network, rm = setup(trusted=3, untrusted=0)
        # one trusted node left after bootstrap? bootstrap used all 3;
        # release one to make room
        rm.release(rm.get("t2"))
        bs.farm.remove_worker()
        ok = gm.execute_intent(bs.manager, ManagerOperation.ADD_EXECUTOR, {"count": 1})
        assert ok
        assert gm.intents[-1].amendments == 0

    def test_no_plan_when_pool_empty(self):
        sim, bs, sec, gm, network, rm = setup(trusted=1, untrusted=0)
        ok = gm.execute_intent(bs.manager, ManagerOperation.ADD_EXECUTOR, {"count": 1})
        assert not ok
        assert gm.intents[-1].outcome == "no-plan"

    def test_veto_aborts_and_releases(self):
        sim, bs, sec, gm, network, rm = setup()

        class Veto(AutonomicManager, ConcernReview):
            def review_intent(self, originator, plan):
                return False

        veto = Veto("AM_veto", sim, autostart=False)
        gm.register(veto, priority=100)
        allocated_before = rm.allocated_count
        ok = gm.execute_intent(bs.manager, ManagerOperation.ADD_EXECUTOR, {"count": 1})
        assert not ok
        assert rm.allocated_count == allocated_before  # reservation released
        assert gm.outcomes().get("vetoed")

    def test_non_add_operations_pass_through(self):
        sim, bs, sec, gm, network, rm = setup()
        ok = gm.execute_intent(bs.manager, ManagerOperation.BALANCE_LOAD, None)
        assert ok  # executed directly on the ABC

    def test_originator_not_asked_to_review_itself(self):
        sim, bs, sec, gm, network, rm = setup()
        gm.execute_intent(bs.manager, ManagerOperation.ADD_EXECUTOR, {"count": 1})
        assert bs.manager.name not in gm.intents[-1].reviewers
        assert sec.name in gm.intents[-1].reviewers


class TestNaiveMode:
    def test_commits_without_review(self):
        sim, bs, sec, gm, network, rm = setup(mode=CoordinationMode.NAIVE)
        ok = gm.execute_intent(bs.manager, ManagerOperation.ADD_EXECUTOR, {"count": 1})
        assert ok
        new_worker = bs.farm.workers[-1]
        assert not new_worker.node.trusted
        assert not new_worker.secured  # the unsafe window is open
        assert gm.intents[-1].reviewers == ()

    def test_naive_leaks_until_security_tick(self):
        sim, bs, sec, gm, network, rm = setup(mode=CoordinationMode.NAIVE)
        gm.execute_intent(bs.manager, ManagerOperation.ADD_EXECUTOR, {"count": 1})
        TaskSource(sim, bs.farm.input, rate=2.0, work_model=ConstantWork(1.0))
        sim.run(until=14.9)  # before the security manager's first tick
        assert network.leak_count > 0
        sim.run(until=30.0)  # security tick at t=15 secures the worker
        leaks_at_tick = network.leak_count
        sim.run(until=100.0)
        # a couple of straggler results from pre-securing tasks may still
        # leak, but the flow must be stanched
        assert network.leak_count <= leaks_at_tick + 2

    def test_two_phase_never_leaks(self):
        sim, bs, sec, gm, network, rm = setup(mode=CoordinationMode.TWO_PHASE)
        gm.execute_intent(bs.manager, ManagerOperation.ADD_EXECUTOR, {"count": 2})
        TaskSource(sim, bs.farm.input, rate=2.0, work_model=ConstantWork(1.0))
        sim.run(until=120.0)
        assert network.leak_count == 0


class TestIntentAudit:
    def test_records_have_metadata(self):
        sim, bs, sec, gm, network, rm = setup()
        gm.execute_intent(bs.manager, ManagerOperation.ADD_EXECUTOR, {"count": 1})
        rec = gm.intents[-1]
        assert rec.originator == bs.manager.name
        assert rec.operation == "add_executor"
        assert rec.outcome == "committed"

    def test_gm_trace_marks_reviews(self):
        sim, bs, sec, gm, network, rm = setup()
        gm.execute_intent(bs.manager, ManagerOperation.ADD_EXECUTOR, {"count": 1})
        assert gm.trace.count("intentReview") == 1
