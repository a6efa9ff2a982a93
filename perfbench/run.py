"""Repository benchmark: one command for every workload, timed or traced.

Run from the repository root::

    python3 perfbench/run.py --workload offline-mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the named workload untraced and prints every
end-to-end metric.  ``--trace 1`` is the separate per-layer run: it
traces each workload once (each layer's numbers come from the workload
whose blocking path it is on, see README.md) and prints every per-layer
metric plus the tracing overhead.  The last stdout line is the result
JSON; the full run record and traces land in ``.perfbench_run/``.

Exit codes: 0 when every output check passed, 1 when one failed,
2 when not run from a checkout holding ``src/repro``, 3 on timeout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import traceback

from harness import pin_threads

pin_threads()  # before numpy is imported anywhere in this process tree

from harness import (  # noqa: E402
    END_TO_END,
    HostLoad,
    arm_watchdog,
    emit,
    run_dir,
    self_peak_rss_mb,
)

WORKLOADS = {
    "offline-mixed": "offline",
    "gateway-paced": "paced",
    "distributed-tree": "tree",
}

#: a run that overstays this is killed (with its process tree)
WATCHDOG_S = 170


def timed(workload: str, seed: int, seconds: float) -> dict:
    record = importlib.import_module(WORKLOADS[workload]).run(seed, seconds)
    extra = record.get("server_peak_rss_mb", 0.0) + record.get("children_peak_rss_mb", 0.0)
    record["metrics"]["peak_rss_mb"] = self_peak_rss_mb() + extra
    record["metrics"] = {
        name: (record["metrics"][name], unit) for name, unit in END_TO_END.items()
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "perfbench: run from the repository root (no src/repro here)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    arm_watchdog(WATCHDOG_S)
    host = HostLoad()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            from layers import traced

            record = traced(args.seed, run_dir(), name)
        else:
            record = timed(args.workload, args.seed, args.seconds)
    except Exception:  # noqa: BLE001 - the run boundary reports every failure
        traceback.print_exc()
        emit(False, 1, 1, {}, {"host": host.report(), "error": traceback.format_exc()}, name)
        return 1
    record["host"] = host.report()
    correct = all(record["checks"].values())
    if not correct:
        print(f"perfbench: output check failed: {json.dumps(record['checks'])}", flush=True)
    emit(correct, record["attempted"], record["failed"], record["metrics"], record, name)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
