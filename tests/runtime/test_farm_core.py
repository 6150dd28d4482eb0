"""Model-based test of :class:`FarmCore` alone, under a fake transport.

The conformance suite proves the backends end to end; this machine
drives the substrate-free core directly through every booking path —
submit, dispatch, ack, duplicate and late acks, refusal, worker crash,
the quarantine → secure → admit gate and the retry clock — and checks
after every step the invariants the paper's claims rest on: results
are exactly-once, no task is lost, and no task reaches a quarantined
or dead worker.
"""

import sys
import threading

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.obs.telemetry import Telemetry
from repro.runtime.farm_core import FarmCore, WorkerState
from repro.runtime.farm_runtime import ThreadFarm

MAX_ATTEMPTS = 2


class FakeFarm(FarmCore):
    """The core over an in-memory transport: dispatch only books."""

    METRICS = "repro_fake"


class FarmCoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = 0.0
        self.tel = Telemetry()
        self.farm = FakeFarm(
            name="fake",
            rate_window=5.0,
            max_workers=6,
            telemetry=self.tel,
            clock=lambda: self.clock,
            max_attempts=MAX_ATTEMPTS,
            backoff_base=0.1,
            backoff_cap=0.4,
        )
        self.submitted = set()
        self.delivered = []
        self.ready = []  # the fake transport's dispatch queue
        self.late = []  # (dead worker, task id) acks still in flight
        self.bad_dispatches = []
        for _ in range(2):
            self._add(quarantined=False)

    def _add(self, *, quarantined):
        with self.farm._lock:
            self.farm._check_capacity()
            self.farm._register(
                WorkerState(self.farm._next_id, secured=not quarantined, quarantined=quarantined)
            )

    def _deliver(self, worker, task_id):
        with self.farm._lock:
            if self.farm._ack(worker, task_id, task_id * task_id):
                self.delivered.append(task_id)

    def _loaded(self):
        return [w for w in self.farm.workers if w.active and w.outstanding]

    # -- rules ---------------------------------------------------------
    @rule()
    def submit(self):
        with self.farm._lock:
            record = self.farm._new_task(len(self.submitted), None, None)
        self.submitted.add(record.task_id)
        self.ready.append(record.task_id)

    @precondition(lambda self: self.ready)
    @rule()
    def dispatch(self):
        with self.farm._lock:
            task_id = self.ready.pop(0)
            record = self.farm._tasks.get(task_id)
            if record is None or record.worker_id is not None:
                return  # completed or already dispatched meanwhile
            worker = self.farm._round_robin()
            if worker is None:
                self.ready.insert(0, task_id)
                return
            if worker.quarantined or not worker.active:
                self.bad_dispatches.append((task_id, worker.worker_id))
            self.farm._assign(record, worker)
            self.farm._count_dispatch(worker)

    @precondition(lambda self: self._loaded())
    @rule(data=st.data())
    def ack(self, data):
        worker = data.draw(st.sampled_from(self._loaded()))
        self._deliver(worker, data.draw(st.sampled_from(sorted(worker.outstanding))))

    @precondition(lambda self: self.delivered)
    @rule(data=st.data())
    def duplicate_ack(self, data):
        worker = data.draw(st.sampled_from(self.farm.workers))
        task_id = data.draw(st.sampled_from(self.delivered))
        before = len(self.delivered)
        self._deliver(worker, task_id)
        assert len(self.delivered) == before

    @precondition(lambda self: self.late)
    @rule(data=st.data())
    def late_ack(self, data):
        """A dead worker's ack that was already on the wire arrives."""
        worker, task_id = self.late.pop(data.draw(st.integers(0, len(self.late) - 1)))
        self._deliver(worker, task_id)

    @precondition(lambda self: self._loaded())
    @rule(data=st.data())
    def refuse(self, data):
        worker = data.draw(st.sampled_from(self._loaded()))
        task_id = data.draw(st.sampled_from(sorted(worker.outstanding)))
        with self.farm._lock:
            if self.farm._requeue(worker, task_id, "refused") is not None:
                self.ready.append(task_id)

    @precondition(lambda self: any(w.active for w in self.farm.workers))
    @rule(data=st.data())
    def crash(self, data):
        worker = data.draw(st.sampled_from([w for w in self.farm.workers if w.active]))
        self.late.extend((worker, t) for t in worker.outstanding)
        with self.farm._lock:
            self.farm._declare_dead(worker, self.farm.now())
        assert not worker.outstanding

    @precondition(lambda self: sum(w.active for w in self.farm.workers) < 6)
    @rule()
    def add_quarantined(self):
        self._add(quarantined=True)

    @precondition(lambda self: any(w.active and w.quarantined for w in self.farm.workers))
    @rule(data=st.data())
    def admit(self, data):
        held = [w for w in self.farm.workers if w.active and w.quarantined]
        worker = data.draw(st.sampled_from(held))
        assert self.farm.secure_worker(worker.worker_id)
        assert self.farm.admit_worker(worker.worker_id)

    @rule(dt=st.floats(0.0, 0.5))
    def tick(self, dt):
        self.clock += dt
        with self.farm._lock:
            self.ready.extend(r.task_id for r in self.farm._due_retries(self.farm.now()))

    # -- invariants ----------------------------------------------------
    def _counter(self, name):
        family = self.tel.metrics.get(name)
        return 0 if family is None else family.labels(farm="fake").value

    @invariant()
    def delivered_at_most_once(self):
        assert len(self.delivered) == len(set(self.delivered))

    @invariant()
    def no_task_lost_or_invented(self):
        delivered = set(self.delivered)
        dead = {d.task_id for d in self.farm.dead_letters}
        live = set(self.farm._tasks)
        assert not (delivered & dead) and not (delivered & live) and not (dead & live)
        assert delivered | dead | live == self.submitted

    @invariant()
    def never_dispatched_past_the_gate(self):
        assert self.bad_dispatches == []
        assert self._counter("repro_mc_insecure_dispatch_total") == 0

    @invariant()
    def attempts_within_budget(self):
        attempts = [r.attempts for r in self.farm._tasks.values()]
        attempts += [d.attempts for d in self.farm.dead_letters]
        assert all(a <= MAX_ATTEMPTS for a in attempts)
        assert all(d.attempts == MAX_ATTEMPTS for d in self.farm.dead_letters)

    @invariant()
    def outstanding_is_the_dispatched_table(self):
        table = self.farm._tasks
        held = [t for w in self.farm.workers for t in w.outstanding]
        assert len(held) == len(set(held)), "a task sits in two windows"
        assert set(held) <= set(table)
        for w in self.farm.workers:
            assert all(table[t].worker_id == w.worker_id for t in w.outstanding)

    @invariant()
    def counters_equal_attributes(self):
        farm = self.farm
        assert self._counter("repro_fake_tasks_replayed_total") == farm.replays
        assert self._counter("repro_fake_dead_letter_total") == len(farm.dead_letters)
        assert self._counter("repro_fake_duplicate_results_total") == farm.duplicates
        assert self._counter("repro_fake_worker_crashes_total") == len(farm.crashes)
        assert self._counter("repro_mc_dispatch_total") == sum(w.dispatched for w in farm.workers)
        assert self._counter("repro_mc_quarantined_workers") == farm.quarantined_workers

    @invariant()
    def snapshot_matches_the_table(self):
        snap = self.farm.snapshot()
        assert snap.pending == len(self.farm._tasks)
        assert snap.completed == len(self.delivered)
        in_flight = sum(1 for r in self.farm._tasks.values() if r.worker_id is not None)
        assert sum(snap.queue_lengths) == in_flight


FarmCoreMachine.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestFarmCore = FarmCoreMachine.TestCase


def test_core_bookkeeping_survives_thread_contention():
    """Eight worker threads ack into one core while the submitter and a
    rebalancing thread contend for the same lock, with the interpreter
    switching threads every few microseconds: a lost update would break
    the counts or leave an id in some worker's window."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    farm = ThreadFarm(lambda x: x + 1, initial_workers=8, telemetry=Telemetry())
    stop = threading.Event()

    def rebalance():
        while not stop.is_set():
            farm.balance_load()
            farm.snapshot()

    balancer = threading.Thread(target=rebalance, daemon=True)
    try:
        balancer.start()
        for i in range(2000):
            farm.submit(i)
        results = farm.drain_results(2000, timeout=60.0)
        stop.set()
        balancer.join(10.0)
        assert not balancer.is_alive()
        assert sorted(results) == list(range(1, 2001))
        snap = farm.snapshot()
        assert snap.completed == farm.submitted == 2000
        assert snap.pending == 0 and farm.duplicates == 0
        assert all(not w.outstanding for w in farm.workers)
        assert sum(w.dispatched for w in farm.workers) >= 2000
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        farm.shutdown()
