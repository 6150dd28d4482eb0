"""Unit tests for the distributed farm: wire protocol, faults, telemetry.

The cross-backend invariants (no loss, exactly-once, monotone counts,
clean shutdown) live in ``test_backend_conformance.py``; this file
covers what is *specific* to the TCP substrate — the framing module,
the ``module:qualname`` function hand-off, remotely attached workers,
secured payloads on the wire, dead-lettering, error results, and the
``repro_dist_*`` telemetry surface.
"""

import asyncio
import importlib.util
import subprocess
import sys
import time

import pytest

from repro.obs.telemetry import Telemetry
from repro.runtime.dist_farm import DistFarm, fn_spec
from repro.runtime.dist_proto import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame_v4,
    read_frame_ex,
)
from repro.runtime.dist_worker import resolve_fn

from .waiting import wait_until


def dist_task(payload):
    """(work, value) -> value**2, with optional failure modes baked in."""
    work, value = payload
    if value == "boom":
        raise ValueError("task asked to fail")
    if value == "unserializable":
        return {1, 2, 3}  # a set cannot cross the JSON wire
    if work:
        time.sleep(work)
    return value * value


def quick_farm(**overrides):
    defaults = dict(
        initial_workers=2,
        heartbeat_period=0.05,
        heartbeat_timeout=0.5,
        supervise_period=0.02,
        backoff_base=0.02,
        backoff_cap=0.2,
        rate_window=0.5,
    )
    defaults.update(overrides)
    return DistFarm(dist_task, **defaults)


def roundtrip(frame_bytes):
    """Feed raw bytes through an asyncio StreamReader into read_frame_ex."""

    async def go():
        reader = asyncio.StreamReader()
        if frame_bytes:
            reader.feed_data(frame_bytes)
        reader.feed_eof()
        return await read_frame_ex(reader)

    return asyncio.run(go())


class TestWireProtocol:
    def test_frame_roundtrip(self):
        msg = {"type": "task", "task_id": 7, "payload": [0.1, 42]}
        assert roundtrip(encode_frame_v4(msg)) == msg

    def test_eof_and_garbage_return_none(self):
        frame = encode_frame_v4({"type": "hb", "completed": 1})
        assert roundtrip(b"") is None
        assert roundtrip(frame[:2]) is None  # truncated header
        assert roundtrip(frame[:-1]) is None  # torn body

    def test_oversize_length_prefix_rejected(self):
        # rejected from the header alone — before the reader ever tries
        # to buffer (or allocate) the announced body — with a diagnosis
        # naming the limit
        header = bytes([0xD4, 4, 0]) + (MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME"):
            roundtrip(header + b"x")
        with pytest.raises(ValueError):
            encode_frame_v4({"type": "hb", "pad": "x" * (MAX_FRAME + 10)})

    def test_mismatched_protocol_version_refused_with_clear_error(self):
        farm = quick_farm(initial_workers=1)

        async def attach(proto):
            reader, writer = await asyncio.open_connection("127.0.0.1", farm.port)
            hello = {"type": "hello", "worker_id": -1}
            if proto is not None:
                hello["proto"] = proto
            writer.write(encode_frame_v4(hello))
            reply = await read_frame_ex(reader)
            writer.close()
            return reply

        try:
            # 3: the retired length-prefixed generation, on v4 frames
            for bad in (3, 999, None):
                reply = asyncio.run(attach(bad))
                assert reply is not None and reply["type"] == "error"
                assert "protocol version mismatch" in reply["error"]
                assert f"speaks version {PROTOCOL_VERSION}" in reply["error"]
                if bad is not None:
                    assert f"announced protocol version {bad}" in reply["error"]
                assert reply["proto"] == PROTOCOL_VERSION
            # the refusals registered nobody beyond the spawned worker
            assert farm.num_workers == 1
            # a matching version is welcomed as usual
            reply = asyncio.run(attach(PROTOCOL_VERSION))
            assert reply is not None and reply["type"] == "welcome"
            assert reply["proto"] == PROTOCOL_VERSION
        finally:
            farm.shutdown()


class TestFnSpec:
    def test_roundtrips_module_level_callable(self):
        spec = fn_spec(dist_task)
        assert resolve_fn(spec) is dist_task

    def test_accepts_explicit_spec_string(self):
        assert fn_spec("pkg.mod:fn") == "pkg.mod:fn"
        with pytest.raises(ValueError):
            fn_spec("no-colon")

    def test_rejects_unimportable_callables(self):
        with pytest.raises(ValueError):
            fn_spec(lambda x: x)  # <locals> cannot be imported remotely

    def test_resolve_rejects_non_callable(self):
        with pytest.raises(TypeError):
            resolve_fn("time:altzone")


class TestRemoteAttach:
    def test_worker_started_by_hand_joins_the_farm(self):
        """The coordinator accepts workers it did not spawn — the
        distributed story: capacity can come from anywhere on the net."""
        farm = quick_farm(initial_workers=1)
        proc = None
        try:
            before = farm.num_workers
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.runtime.dist_worker",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    str(farm.port),
                    "--fn",
                    fn_spec(dist_task),
                    "--heartbeat-period",
                    "0.05",
                ],
            )
            wait_until(
                lambda: farm.num_workers == before + 1,
                message="hand-started worker to attach",
            )
            total = 30
            for i in range(total):
                farm.submit((0.005, i))
            results = farm.drain_results(total, timeout=30.0)
            assert sorted(results) == [i * i for i in range(total)]
            # the attached worker genuinely served part of the stream
            attached = [w for w in farm.workers if w.process is None]
            assert attached and attached[0].reported_completed > 0
        finally:
            farm.shutdown()
            if proc is not None:
                proc.wait(10.0)

    def test_attach_beyond_max_workers_is_refused(self):
        farm = quick_farm(initial_workers=1, max_workers=1)
        proc = None
        try:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.runtime.dist_worker",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    str(farm.port),
                    "--fn",
                    fn_spec(dist_task),
                    "--connect-attempts",
                    "3",
                ],
            )
            # the coordinator closes the connection instead of welcoming
            assert proc.wait(30.0) != 0
            assert farm.num_workers == 1
        finally:
            farm.shutdown()
            if proc is not None and proc.poll() is None:
                proc.kill()


class TestCodecPinning:
    def test_env_var_pins_an_auto_session(self, monkeypatch):
        """``REPRO_DIST_CODEC`` forces the negotiated codec fleet-wide —
        the hook the CI msgpack conformance leg rides. Pinning to json is
        observable because spawned (trusted) workers would otherwise
        negotiate pickle."""
        monkeypatch.setenv("REPRO_DIST_CODEC", "json")
        farm = quick_farm(initial_workers=1)
        try:
            assert farm.codec == "json"
            farm.submit((0.0, 5))
            assert farm.drain_results(1, timeout=30.0) == [25]
            assert all(w.codec == "json" for w in farm.workers)
        finally:
            farm.shutdown()

    def test_explicit_codec_beats_the_env(self, monkeypatch):
        """The env var only resolves ``codec="auto"``; a call site that
        pinned a codec keeps it."""
        monkeypatch.setenv("REPRO_DIST_CODEC", "json")
        farm = quick_farm(initial_workers=1, codec="pickle")
        try:
            assert farm.codec == "pickle"
            farm.submit((0.0, 4))
            assert farm.drain_results(1, timeout=30.0) == [16]
            assert all(w.codec == "pickle" for w in farm.workers)
        finally:
            farm.shutdown()

    @pytest.mark.skipif(
        importlib.util.find_spec("msgpack") is None,
        reason="msgpack not installed (CI installs it via the codecs extra)",
    )
    def test_msgpack_session_end_to_end(self):
        farm = quick_farm(initial_workers=1, codec="msgpack")
        try:
            farm.submit((0.0, 6))
            assert farm.drain_results(1, timeout=30.0) == [36]
            assert all(w.codec == "msgpack" for w in farm.workers)
        finally:
            farm.shutdown()


class TestSecuredChannel:
    def test_secure_all_mid_stream_keeps_results_correct(self):
        farm = quick_farm()
        try:
            for i in range(10):
                farm.submit((0.0, i))
            farm.secure_all()
            for i in range(10, 20):
                farm.submit((0.0, i))
            results = farm.drain_results(20, timeout=30.0)
            assert sorted(results) == [i * i for i in range(20)]
            assert all(w.secured for w in farm.workers)
        finally:
            farm.shutdown()


class TestFaultEdges:
    def test_replay_budget_exhaustion_dead_letters(self):
        """max_attempts=1: the first crash a task is caught in consigns
        it to the dead-letter list instead of replaying forever."""
        farm = quick_farm(initial_workers=1, max_attempts=1)
        try:
            farm.submit((5.0, 1))
            farm.submit((5.0, 2))  # both fit the default dispatch window
            wait_until(
                lambda: any(w.outstanding for w in farm.workers),
                message="tasks in flight on the victim",
            )
            assert farm.drop_connection() is not None
            wait_until(
                lambda: len(farm.dead_letters) == 2,
                message="exhausted tasks to dead-letter",
            )
            assert sorted(d.payload[1] for d in farm.dead_letters) == [1, 2]
            assert all(d.attempts == 1 for d in farm.dead_letters)
            assert farm.completed == 0
        finally:
            farm.shutdown()

    def test_task_exception_surfaces_as_error_result(self):
        farm = quick_farm(initial_workers=1)
        try:
            farm.submit((0.0, "boom"))
            (result,) = farm.drain_results(1, timeout=30.0)
            assert isinstance(result, RuntimeError)
            assert "ValueError: task asked to fail" in str(result)
        finally:
            farm.shutdown()

    def test_unserializable_result_surfaces_as_error_result(self):
        """A value that cannot cross the JSON wire is an *error result*,
        not a lost task or a dead worker (pinned to the json codec: the
        pickle fast path would happily serialize a set)."""
        farm = quick_farm(initial_workers=1, codec="json")
        try:
            farm.submit((0.0, "unserializable"))
            farm.submit((0.0, 3))  # the worker must survive to serve this
            results = farm.drain_results(2, timeout=30.0)
            errors = [r for r in results if isinstance(r, RuntimeError)]
            values = [r for r in results if not isinstance(r, RuntimeError)]
            assert len(errors) == 1 and "TypeError" in str(errors[0])
            assert values == [9]
        finally:
            farm.shutdown()

    def test_retiring_worker_drains_window_before_exit(self):
        farm = quick_farm(initial_workers=2)
        try:
            total = 40
            for i in range(total):
                farm.submit((0.005, i))
            farm.remove_worker()
            results = farm.drain_results(total, timeout=30.0)
            assert sorted(results) == [i * i for i in range(total)]
            wait_until(
                lambda: farm.num_workers == 1,
                message="victim to retire after draining",
            )
            # a graceful retirement is not a crash
            assert not farm.crashes and not farm.dead_letters
        finally:
            farm.shutdown()


class TestSupervisionLoop:
    def test_a_raising_pass_is_counted_and_supervision_goes_on(self, monkeypatch):
        """The supervision pass runs on the live-loop ticker: a pass that
        raises is counted, and the next passes still declare a killed
        worker dead and replay its tasks."""
        calls = []
        supervise_once = DistFarm.supervise_once

        def flaky(farm):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("supervision pass failed")
            return supervise_once(farm)

        monkeypatch.setattr(DistFarm, "supervise_once", flaky)
        tel = Telemetry()
        farm = quick_farm(telemetry=tel)
        try:
            wait_until(lambda: len(calls) > 1, message="a pass after the raising one")
            errors = tel.metrics.counter("repro_loop_tick_errors_total", "")
            assert errors.labels(loop=f"{farm.name}-supervisor").value == 1
            for i in range(20):
                farm.submit((0.05, i))
            wait_until(
                lambda: farm.snapshot().completed >= 2,
                message="stream in flight before the fault",
            )
            victim = farm.inject_crash()
            assert victim is not None
            results = farm.drain_results(20, timeout=60.0)
            assert sorted(results) == [i * i for i in range(20)]
            assert not next(w for w in farm.workers if w.worker_id == victim).active
            assert farm.replays >= 1
        finally:
            farm.shutdown()


class TestDistTelemetry:
    def test_counters_and_spans_reach_the_registry(self):
        tel = Telemetry()
        farm = quick_farm(telemetry=tel)
        try:
            for i in range(20):
                farm.submit((0.01, i))
            wait_until(
                lambda: farm.snapshot().completed >= 5,
                message="stream in flight before the fault",
            )
            assert farm.drop_connection() is not None
            farm.drain_results(20, timeout=60.0)
            wait_until(
                lambda: "repro_dist_worker_crashes_total" in tel.metrics,
                message="crash counter to be registered",
            )
            crashes = tel.metrics.get("repro_dist_worker_crashes_total")
            assert crashes.labels(farm=farm.name).value >= 1
            replayed = tel.metrics.get("repro_dist_tasks_replayed_total")
            assert replayed is None or replayed.labels(farm=farm.name).value >= 0
            completed = tel.metrics.get("repro_dist_worker_completed_tasks")
            assert completed is not None and completed.samples()
            frames = tel.metrics.get("repro_dist_frames_total")
            assert frames is not None
            assert frames.labels(farm=farm.name, direction="rx").value > 0
        finally:
            farm.shutdown()
        spans = tel.spans.named("dist.worker", farm.name)
        assert spans, "every worker lifetime is a dist.worker span"
        assert any(s.attributes.get("outcome") == "crashed" for s in spans)

    def test_refusal_replays_and_dead_letters_are_counted(self):
        """A ``--require-secure`` worker bounces a task until its budget
        is spent: each replay and the dead letter reach the registry."""
        tel = Telemetry()
        farm = quick_farm(initial_workers=0, max_attempts=3, telemetry=tel)
        try:
            farm.add_worker(require_secure=True)
            farm.submit((0.0, 4))
            wait_until(lambda: len(farm.dead_letters) == 1, message="bounced task to dead-letter")

            def counter(name):
                return tel.metrics.get(name).labels(farm=farm.name).value

            assert farm.dead_letters[0].attempts == 3
            assert counter("repro_dist_dead_letter_total") == len(farm.dead_letters) == 1
            assert counter("repro_dist_tasks_replayed_total") == farm.replays == 2
        finally:
            farm.shutdown()
