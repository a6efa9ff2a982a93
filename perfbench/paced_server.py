"""Server process of the ``gateway-paced`` workload (the system under test).

A :class:`~repro.gateway.GatewayServer` over an
:class:`~repro.service.IngestionPipeline` with a durable
:class:`~repro.wal.WriteAheadLog` (``fsync="commit"``).  It prints
``LISTENING <port>`` once bound, serves one run, and writes what it
observed (estimate bits, counters, barrier latencies, its own peak RSS,
and spans when traced) to ``--out`` as JSON before exiting.

Started by ``paced.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from harness import pin_threads, self_peak_rss_mb

pin_threads()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))


async def serve(args, tracer) -> dict:
    from repro.gateway.server import GatewayServer
    from repro.service.pipeline import IngestionPipeline
    from repro.wal.log import WriteAheadLog

    pipeline = IngestionPipeline(args.shards, args.horizon, keep_reports=False)
    wal = pipeline.attach_wal(WriteAheadLog(args.wal_dir, fsync="commit"))
    server = GatewayServer(pipeline)
    try:
        await server.start({"workload": "gateway-paced"})
        print(f"LISTENING {server.port}", flush=True)
        await server.wait_complete(timeout=args.timeout)
        await server.stop()
        result = server.result()
        wal_stats = wal.stats()
    finally:
        wal.close()
    series = result.population_mean_series()
    return {
        "series_hex": [float(v).hex() for v in series],
        "n_reports": result.n_reports,
        "gateway": server.metrics.snapshot(),
        "wal": wal_stats,
        "pending_hwm": pipeline.pending_high_watermark,
        "barrier_latencies_s": list(pipeline.slot_latencies),
        "trace": tracer.dump() if tracer is not None else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--horizon", type=int, required=True)
    parser.add_argument("--wal-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--timeout", type=float, default=150.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    tracer = None
    if args.trace:
        from tracing import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
    record = asyncio.run(serve(args, tracer))
    record["peak_rss_mb"] = self_peak_rss_mb()
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
