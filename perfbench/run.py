"""Run one workload of the production-configuration benchmark.

    python3 perfbench/run.py --workload stream-saturate --seed 1 --seconds 20 --trace 0

Run from the repository root: the stack is imported from ``src/``.
``--trace 0`` drives the workload for ``--seconds`` through the stack
untouched and prints the end-to-end metrics.  ``--trace 1`` runs it
untraced for half the time and then, with the layer shims and GC hook
of :mod:`perfbench.trace` installed, for the other half; it prints the
per-layer metrics, states the shim overhead as traced vs untraced
end-to-end, and writes the layer-call spans to
``perfbench/out/spans-<workload>.jsonl.gz``.

Every run also times the set-up several times (``setup_s`` is the
median), and records the bare reference row: the ``stream-saturate``
loop on a ``DistFarm`` with no supervisor and no telemetry.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.report import run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # a terminated run still unwinds, so every stack it built poisons and
    # reaps its worker processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for line in report.lines:
        print(line)
    print(json.dumps(report.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
