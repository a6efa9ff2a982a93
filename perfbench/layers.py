"""The traced per-layer run (``--trace 1``).

Traces each workload once, at its own shape but a shorter length, and
takes each per-layer metric from the workload whose blocking path holds
that layer (the *home* column in README.md), so every metric is measured
where it matters on every traced run.  Each workload is also run
untraced on the same inputs right before its traced run; the difference
is the tracing overhead.  Every span is written to
``.perfbench_run/<run>-trace.json``.

``*_s`` metrics are self seconds summed over the traced pass (offline,
tree) or session (paced); counts are totals over the same window.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Tuple

import numpy as np

import offline
import paced
import tree
from harness import percentile
from tracing import Tracer, install_layers

#: measured slots of each traced and untraced gateway session
TRACE_SLOTS = 150

#: per-layer metrics: name -> unit (every traced run prints all of them)
PER_LAYER = {
    "vectorized.step_s": "s",
    "vectorized.reports": "count",
    "accountant.audit_s": "s",
    "sharding.overhead_s": "s",
    "collector.ingest_s": "s",
    "collector.ingest_reports": "count",
    "collector.merge_s": "s",
    "collector.merges": "count",
    "pipeline.submit_s": "s",
    "pipeline.barrier_wait_ms_p50": "ms",
    "pipeline.barrier_wait_ms_p99": "ms",
    "pipeline.pending_hwm": "count",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "wire.bytes": "bytes",
    "server.ack_rtt_ms_p50": "ms",
    "wal.append_s": "s",
    "wal.bytes": "bytes",
    "wal.syncs": "count",
    "wal.sync_wait_ms_p99": "ms",
    "distributed.root_fold_s": "s",
    "distributed.states": "count",
    "distributed.worker_skew": "1",
    "gateway.sheds": "count",
    "gateway.duplicates": "count",
    "gateway.reconnects": "count",
    "loadgen.lag_ms_p99": "ms",
    "trace.offline_overhead_frac": "1",
    "trace.paced_overhead_frac": "1",
    "trace.tree_overhead_frac": "1",
}


def trace_offline(seed: int) -> Tuple[Tracer, Dict[str, float]]:
    """One untraced and one traced pass on the same, warm inputs."""
    inputs = offline.build_inputs(seed)
    offline.run_pass(inputs, seed)
    start = time.perf_counter()
    offline.run_pass(inputs, seed)
    plain_s = time.perf_counter() - start
    tracer = Tracer()
    install_layers(tracer)
    try:
        start = time.perf_counter()
        with tracer.span("offline.pass"):
            offline.run_pass(inputs, seed)
        traced_s = time.perf_counter() - start
    finally:
        tracer.restore()
    return tracer, {"untraced_s": plain_s, "traced_s": traced_s}


def trace_paced(seed: int) -> Tuple[Tracer, Dict[str, Any]]:
    plain = paced.session(seed, TRACE_SLOTS, "plain")
    tracer = Tracer()
    install_layers(tracer)
    try:
        traced = paced.session(seed, TRACE_SLOTS, "traced", trace=True)
    finally:
        tracer.restore()
    for feed in traced["feeds"]:
        feed.engine.assert_valid()
    reference = paced.reference_series(traced["matrix"], seed)
    served = np.array([float.fromhex(v) for v in traced["server"]["series_hex"]])
    return tracer, {
        "plain": paced.slot_stats(plain["stamps"]),
        "traced": paced.slot_stats(traced["stamps"]),
        "server": traced["server"],
        "identical": bool(np.array_equal(served, reference)),
    }


def trace_tree(seed: int) -> Tuple[Tracer, Dict[str, Any]]:
    from repro.gateway.distributed import run_distributed

    processes = tree.run_pass(seed)  # per-worker finish times need real processes
    elapsed = [float(m["elapsed_seconds"]) for m in processes.worker_metrics.values()]

    def in_process():
        return run_distributed(
            tree.make_source(seed),
            workers=tree.WORKERS,
            algorithm=tree.ALGORITHM,
            seed=seed,
            keep_reports=False,
        )

    start = time.perf_counter()
    plain = in_process()
    plain_s = time.perf_counter() - start
    tracer = Tracer()
    install_layers(tracer)
    try:
        start = time.perf_counter()
        traced = in_process()
        traced_s = time.perf_counter() - start
    finally:
        tracer.restore()
    reconnects = sum(r.reconnects for r in traced.shard_reports)
    totals = traced.metrics_payload()["totals"]
    return tracer, {
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "worker_skew": max(elapsed) / min(elapsed),
        "sheds": totals["sheds"],
        "duplicates": totals["duplicates"] + traced.metrics.duplicates,
        "reconnects": reconnects,
        "identical": bool(
            np.array_equal(
                traced.result.population_mean_series(),
                processes.result.population_mean_series(),
            )
            and np.array_equal(
                plain.result.population_mean_series(),
                processes.result.population_mean_series(),
            )
        ),
    }


def _ack_rtt_ms(generator: Tracer, server_trace: Dict[str, Any]) -> float:
    """Client send->ack minus the server's ``submit`` span, per batch."""
    submit: Dict[Tuple[int, int], float] = {}
    for name, start, end, _, request in server_trace["spans"]:
        if name == "pipeline.submit":
            t, shard = request
            submit[(shard, t)] = end - start
    rtts = [
        (end - start) - submit[(shard, t)]
        for shard, t, start, end in generator.round_trips
        if (shard, t) in submit
    ]
    return 1000.0 * percentile(rtts, 50)


def traced(seed: int, out_dir: str, name: str) -> Dict[str, Any]:
    off_tracer, off = trace_offline(seed)
    gw_tracer, gw = trace_paced(seed)
    tree_tracer, tr = trace_tree(seed)

    off_self = off_tracer.self_seconds()
    server = gw["server"]
    srv = server["trace"]
    srv_self, srv_counts = srv["self_seconds"], srv["counts"]
    gen_self = gw_tracer.self_seconds()
    tree_self = tree_tracer.self_seconds()
    commits = [end - start for n, start, end, _, _ in srv["spans"] if n == "wal.commit"]
    barrier = server["barrier_latencies_s"]

    def p50(stats):
        return percentile(stats["latency"].tolist(), 50)

    values = {
        "vectorized.step_s": off_self.get("vectorized.step", 0.0),
        "vectorized.reports": off_tracer.counts["vectorized.step"],
        "accountant.audit_s": off_self.get("accountant.audit", 0.0),
        "sharding.overhead_s": off_self.get("offline.pass", 0.0),
        "collector.ingest_s": srv_self.get("collector.ingest", 0.0),
        "collector.ingest_reports": srv_counts.get("collector.ingest", 0),
        "collector.merge_s": tree_self.get("collector.merge", 0.0),
        "collector.merges": tree_tracer.counts["collector.merge"],
        "pipeline.submit_s": srv_self.get("pipeline.submit", 0.0),
        "pipeline.barrier_wait_ms_p50": 1000.0 * percentile(barrier, 50),
        "pipeline.barrier_wait_ms_p99": 1000.0 * percentile(barrier, 99),
        "pipeline.pending_hwm": server["pending_hwm"],
        "wire.encode_s": gen_self.get("wire.encode", 0.0),
        "wire.decode_s": srv_self.get("wire.decode", 0.0),
        "wire.bytes": gw_tracer.counts["wire.encode"],
        "server.ack_rtt_ms_p50": _ack_rtt_ms(gw_tracer, srv),
        "wal.append_s": srv_self.get("wal.append", 0.0) + srv_self.get("wal.commit", 0.0),
        "wal.bytes": server["wal"]["bytes_appended"],
        "wal.syncs": server["wal"]["syncs"],
        "wal.sync_wait_ms_p99": 1000.0 * percentile(commits, 99),
        "distributed.root_fold_s": tree_self.get("distributed.root_fold", 0.0),
        "distributed.states": tree_tracer.counts["distributed.root_fold"],
        "distributed.worker_skew": tr["worker_skew"],
        "gateway.sheds": server["gateway"]["sheds"] + tr["sheds"],
        "gateway.duplicates": server["gateway"]["duplicates"] + tr["duplicates"],
        "gateway.reconnects": tr["reconnects"],
        "loadgen.lag_ms_p99": 1000.0 * percentile(gw["traced"]["lag"].tolist(), 99),
        "trace.offline_overhead_frac": off["traced_s"] / off["untraced_s"] - 1.0,
        "trace.paced_overhead_frac": p50(gw["traced"]) / p50(gw["plain"]) - 1.0,
        "trace.tree_overhead_frac": tr["traced_s"] / tr["untraced_s"] - 1.0,
    }
    traces = {
        "offline-mixed": off_tracer.dump(),
        "gateway-paced": {"generator": gw_tracer.dump(), "server": srv},
        "distributed-tree": tree_tracer.dump(),
    }
    with open(os.path.join(out_dir, f"{name}-trace.json"), "w") as fh:
        json.dump(traces, fh)
    published = int(gw["traced"]["published"].sum())
    return {
        "checks": {
            "paced_bit_identical_to_sharded": gw["identical"],
            "tree_in_process_matches_processes": tr["identical"],
        },
        "attempted": 3,
        "failed": (TRACE_SLOTS - published) + int(values["gateway.sheds"])
        + int(values["gateway.duplicates"]) + int(values["gateway.reconnects"]),
        "metrics": {n: (values[n], unit) for n, unit in PER_LAYER.items()},
        "self_seconds": {
            "offline-mixed": off_self,
            "gateway-paced": {"generator": gen_self, "server": srv_self},
            "distributed-tree": tree_self,
        },
    }
