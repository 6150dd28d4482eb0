"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

The loop tests drive the generators with an in-process fake farm; the
output tests run ``perfbench/run.py`` for one second per workload.
"""

import json
import os
import queue
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.loops import Ledger, closed_loop, open_loop, paced_schedule  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


class FakeFarm:
    """Echoes each payload straight back; can drop, duplicate or stall."""

    def __init__(self, drop=(), duplicate=(), stall_at=None, stall=0.0):
        self.results = queue.Queue()
        self.drop = set(drop)
        self.duplicate = set(duplicate)
        self.stall_at = stall_at
        self.stall = stall

    def submit(self, payload):
        task_id = payload[0]
        if task_id == self.stall_at:
            time.sleep(self.stall)
        if task_id in self.drop:
            return
        self.results.put(list(payload))
        if task_id in self.duplicate:
            self.results.put(list(payload))


def echo_task(i):
    payload = [i, 7, 8]
    return payload, payload


def failed_frac(ledger: Ledger) -> float:
    return ledger.failed / ledger.submitted


def test_clean_loop_has_no_failures():
    result = closed_loop(FakeFarm(), echo_task, window=4, seconds=0.05)
    assert result.ledger.submitted > 4
    assert failed_frac(result.ledger) == 0.0


def test_lost_result_raises_failed_frac():
    result = closed_loop(FakeFarm(drop={2}), echo_task, window=4, seconds=0.05, drain_timeout=0.2)
    assert result.ledger.lost == 1
    assert failed_frac(result.ledger) > 0.0


def test_duplicated_result_raises_failed_frac():
    result = closed_loop(FakeFarm(duplicate={3}), echo_task, window=4, seconds=0.05)
    assert result.ledger.duplicates == 1
    assert failed_frac(result.ledger) > 0.0


def test_wrong_result_raises_failed_frac():
    ledger = Ledger()
    ledger.expect(0, 0.0, [0, 1])
    ledger.complete([0, 2], 1.0)
    assert ledger.wrong == 1 and failed_frac(ledger) == 1.0


def test_open_loop_latency_counts_from_due_time():
    # submit of task 5 blocks the generator for 50 ms; the fake serves
    # instantly, so later tasks' latency can only come from the stall
    stall = 0.05
    farm = FakeFarm(stall_at=5, stall=stall)
    result = open_loop(farm, echo_task, schedule=paced_schedule(1000.0, 0.1), seconds=0.1)
    ledger = result.ledger
    assert ledger.failed == 0
    assert max(ledger.late) >= stall * 0.9
    assert max(ledger.latencies) >= stall * 0.9


def test_adapt_time_is_first_window_at_the_low_bound():
    ledger = Ledger()
    ledger.done_at = [i * 0.1 for i in range(10)] + [1.0 + i * 0.01 for i in range(100)]
    # 10/s before t=1, 100/s after: 30 completions in a 1 s window need
    # about 0.2 s of the faster rate
    adapt = ledger.adapt_time(1.0, 30.0)
    assert 0.15 < adapt < 0.25
    assert ledger.adapt_time(1.0, 1000.0) is None


#: wall-clock metrics every untraced run prints beside the gated ones
REPORTED = [("throughput_tps", "1/s"), ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
            ("adapt_s", "s")]


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmarked_workloads_exist():
    assert {w["name"] for w in _bench_spec()["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_end_to_end_metric_printed_with_unit(workload):
    spec = _bench_spec()
    text, summary = _run(workload, 0)
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    for metric in spec["end_to_end"]:
        got = summary["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert any(line.startswith(f"{workload} {metric['name']} = ") and
                   line.endswith(f" {metric['unit']}") for line in text)
    assert set(summary["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name, unit in REPORTED:
        assert any(line.startswith(f"{workload} {name} = ") and
                   line.endswith(f" {unit} (reported, not gated)") for line in text)


def test_every_per_layer_metric_printed_with_unit():
    spec = _bench_spec()
    text, summary = _run("secure-bulk", 1)
    assert summary["correct"]
    assert set(summary["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert os.path.exists(os.path.join(ROOT, "perfbench", "out", "spans-secure-bulk.jsonl.gz"))


def test_refuses_to_run_without_the_program(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    with open(os.path.join(ROOT, "perfbench", "run.py")) as src:
        (tmp_path / "perfbench" / "run.py").write_text(src.read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-saturate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
