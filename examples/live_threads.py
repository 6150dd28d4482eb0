#!/usr/bin/env python3
"""The same autonomic policies on real threads (ProActive analog).

Everything else in this repo runs on the deterministic simulator; this
example runs the *identical* Figure 5 rule set against a live
``threading``-based farm executing a real Python function.  The
wall-clock controller watches the farm's measured throughput and grows
it under load — mechanism/policy separation made concrete.

(Python's GIL caps true parallel speed-up for CPU-bound functions; the
worker function here sleeps to emulate I/O-bound work, where threads do
scale.)

Run:  python examples/live_threads.py
"""

import time

from repro.core import MinThroughputContract
from repro.runtime import ThreadFarm, FarmController


def filter_image(task_id: int) -> int:
    """Stand-in for an I/O-bound processing step (~50 ms each)."""
    time.sleep(0.05)
    return task_id * task_id


def main() -> None:
    farm = ThreadFarm(filter_image, initial_workers=1, name="livefarm")
    # One worker sustains ~20 tasks/s; demand 60 -> the controller must
    # grow the farm to at least 3 workers.
    controller = FarmController(
        farm,
        MinThroughputContract(60.0),
        control_period=0.25,
        max_workers=8,
    ).start()

    try:
        total = 600
        for i in range(total):
            farm.submit(i)
            time.sleep(0.01)  # ~100 tasks/s arrival pressure
        results = farm.drain_results(total, timeout=60.0)
        controller.stop()

        snap = farm.snapshot()
        print(f"tasks processed : {len(results)}")
        print(f"final workers   : {snap.num_workers} (started at 1)")
        print(f"throughput      : {snap.departure_rate:.1f} tasks/s")
        print()
        print("controller actions:")
        for t, action in controller.actions:
            print(f"  t={t:5.2f}s  {action}")
        if controller.violations:
            print("violations reported:")
            for t, kind in controller.violations[:5]:
                print(f"  t={t:5.2f}s  {kind}")
    finally:
        controller.stop()
        farm.shutdown()


if __name__ == "__main__":
    main()
