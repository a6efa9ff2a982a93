"""``distributed-tree``: the process-per-worker aggregation tree.

Closed loop: each pass is one ``run_distributed_processes`` call — two
worker processes, each a gateway over four of the eight shards, stream
per-slot shard states to the root in this process, which merges them
in shard order.  ``keep_reports=False``, so only per-slot aggregates
cross to the root: many tiny states, where ``gateway-paced`` carries
large report arrays.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Dict, List

import numpy as np

from harness import TreePeakRss, median, sub_seeds

USERS, SLOTS, SHARDS, WORKERS = 40_000, 100, 8, 2
SCENARIO = "diurnal"
ALGORITHM = "capp"


def make_source(seed: int):
    """The pass's input; also rebuilt inside each worker process."""
    from repro.runtime.scenarios import make_scenario
    from repro.runtime.sources import ScenarioSource

    return ScenarioSource(
        make_scenario(SCENARIO, USERS, SLOTS), chunk_size=USERS // SHARDS, seed=seed
    )


def run_pass(seed: int):
    from repro.gateway.distributed import run_distributed_processes

    return run_distributed_processes(
        functools.partial(make_source, seed),
        n_shards=SHARDS,
        workers=WORKERS,
        algorithm=ALGORITHM,
        seed=seed,
        keep_reports=False,
    )


def transport_failures(run) -> int:
    """Sheds, duplicate resends and reconnects seen anywhere in the tree."""
    totals = run.metrics_payload()["totals"]
    reconnects = sum(r.reconnects for r in run.shard_reports)
    return int(totals["sheds"] + totals["duplicates"] + reconnects + run.metrics.duplicates)


def reference_series(seed: int) -> np.ndarray:
    from repro.runtime.sharding import run_protocol_sharded

    result = run_protocol_sharded(make_source(seed), algorithm=ALGORITHM, seed=seed, keep_reports=False)
    result.assert_valid()
    return result.collector.population_mean_series()


def truth(seed: int) -> np.ndarray:
    return np.concatenate([c.matrix for c in make_source(seed).chunks()]).mean(axis=0)


def run(seed: int, seconds: float) -> Dict[str, Any]:
    """Three set-up rounds (one untimed pass each, on one derived seed's
    input), then passes for ``seconds`` on the last round's input."""
    setups: List[float] = []
    mses: List[float] = []
    children_rss = 0.0
    for round_index, round_seed in enumerate(sub_seeds(seed)):
        start = time.perf_counter()
        if round_index == 0:
            with TreePeakRss() as sampler:
                warm = run_pass(round_seed)
            children_rss = sampler.children_mb()
        else:
            warm = run_pass(round_seed)
        setups.append(time.perf_counter() - start)
        series = warm.result.population_mean_series()
        mses.append(float(np.mean((series - truth(round_seed)) ** 2)))
    expected = series

    walls: List[float] = []
    reports: List[int] = []
    mismatches = failures = 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        run_result = run_pass(round_seed)
        walls.append(time.perf_counter() - start)
        reports.append(run_result.result.n_reports)
        mismatches += not np.array_equal(run_result.result.population_mean_series(), expected)
        failures += transport_failures(run_result)
        if time.perf_counter() >= deadline:
            break

    reference = reference_series(round_seed)
    # The caller gets a pass's estimates when the call returns: each
    # slot's latency from the pass start is the pass wall.
    wall_ms = [1000.0 * w for w in walls]
    return {
        "checks": {
            "bit_identical_to_sharded": bool(np.array_equal(expected, reference)),
            "passes_deterministic": mismatches == 0,
            "audit": True,  # workers audit their shards; a failure raises
        },
        "attempted": len(walls),
        "failed": mismatches + failures,
        "metrics": {
            "reports_per_s": median([n / w for n, w in zip(reports, walls)]),
            "slot_latency_p50_ms": median(wall_ms),
            "slot_ontime_frac": 1.0,
            "setup_s": median(setups),
            "peak_rss_mb": None,  # own peak + children, filled by the caller
            "estimate_mse": float(np.mean(mses)),
        },
        "children_peak_rss_mb": children_rss,
        "detail": {"passes": len(walls), "pass_walls_s": walls, "setup_rounds_s": setups},
    }
