"""``gateway-paced``: an open-loop load generator against a durable gateway.

The system under test runs in its own process (``paced_server.py``):
a gateway server over the slot-barrier pipeline with a write-ahead log
that fsyncs every slot commit on the real disk.  This process is the
load generator.  It holds one :class:`~repro.gateway.GatewayClient`
per shard and perturbs every slot with ``shard_feeds`` before the slot
is due, because devices perturb and the server never does.  Every
shard's slot-``t`` batch is then sent at ``t * PERIOD`` whether or not
the server has kept up, so latency is service time plus any queueing
the server itself causes, never a closed loop's self-throttling.

A slot's latency runs from its due time to the ack of its last batch;
the server acks only after ``submit`` returns, and the last batch of a
slot is the one whose ``submit`` finalizes it.

The measured run is split into sessions, one per derived seed.  Each session builds its own
inputs, spawns its own server, and sends ``WARMUP_SLOTS`` untimed slots
before the measured ones; all of that is the session's set-up.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List

import numpy as np

from harness import median, percentile, pin_threads, run_dir, steal_ticks, sub_seeds

USERS, SHARDS = 12_000, 4
PERIOD = 0.020
WARMUP_SLOTS = 30
SESSIONS = 5
SCENARIO = "steady"
ALGORITHM = "capp"
SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "paced_server.py")


def build_matrix(seed: int, horizon: int) -> np.ndarray:
    from repro.runtime.scenarios import make_scenario
    from repro.runtime.sources import ScenarioSource

    source = ScenarioSource(
        make_scenario(SCENARIO, USERS, horizon), chunk_size=USERS // SHARDS, seed=seed
    )
    return np.concatenate([c.matrix for c in source.chunks()])


def build_feeds(matrix: np.ndarray, seed: int):
    from repro.service.feeds import shard_feeds

    return shard_feeds(matrix, algorithm=ALGORITHM, seed=seed, chunk_size=USERS // SHARDS)


class ServerProcess:
    """One spawned server: start, wait until listening, collect its record."""

    def __init__(self, horizon: int, tag: str, trace: bool, timeout: float) -> None:
        self.wal_dir = os.path.join(run_dir(), f"wal-{os.getpid()}-{tag}")
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        self.out = os.path.join(run_dir(), f"server-{os.getpid()}-{tag}.json")
        env = pin_threads(dict(os.environ))
        env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                SERVER,
                "--shards", str(SHARDS),
                "--horizon", str(horizon),
                "--wal-dir", self.wal_dir,
                "--out", self.out,
                "--trace", str(int(trace)),
                "--timeout", str(timeout),
            ],
            stdout=subprocess.PIPE,
            env=env,
        )
        self.port = self._await_listening(timeout=60.0)

    def _await_listening(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        stdout = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline().decode()
                if line.startswith("LISTENING "):
                    return int(line.split()[1])
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        raise RuntimeError(f"gateway server did not start (exit {self.proc.poll()})")

    def collect(self, timeout: float = 60.0) -> Dict[str, Any]:
        code = self.proc.wait(timeout=timeout)
        if code != 0:
            raise RuntimeError(f"gateway server exited with code {code}")
        with open(self.out) as fh:
            record = json.load(fh)
        os.remove(self.out)
        return record

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)


async def _drive(port: int, batches: List[List[Any]], horizon: int) -> Dict[str, np.ndarray]:
    """Send every shard's slot-``t`` batch at ``t * PERIOD``; stamp acks."""
    from repro.gateway.client import GatewayClient

    clients = [GatewayClient("127.0.0.1", port, shard) for shard in range(SHARDS)]
    for client in clients:
        await client.connect()
    sent = np.full((horizon, SHARDS), np.nan)
    acked = np.full((horizon, SHARDS), np.nan)
    steal = np.zeros(horizon)
    queues: List[asyncio.Queue] = [asyncio.Queue() for _ in range(SHARDS)]

    async def sender(shard: int) -> None:
        client, queue = clients[shard], queues[shard]
        while True:
            t = await queue.get()
            if t is None:
                return
            sent[t, shard] = time.perf_counter()
            await client.send_batch(batches[shard][t])
            acked[t, shard] = time.perf_counter()

    tasks = [asyncio.create_task(sender(shard)) for shard in range(SHARDS)]
    start = time.perf_counter() + 0.05
    due = start + PERIOD * np.arange(horizon)
    # The generator spins (``sleep(0)`` polls the sockets without blocking)
    # instead of sleeping until each due time or ack: an idle vCPU pays
    # the hypervisor's wake-up delay, which would land in the latency of
    # the slot being sent or acked.
    for t in range(horizon):
        while time.perf_counter() < due[t]:
            await asyncio.sleep(0)
        steal[t] = steal_ticks()
        for queue in queues:
            queue.put_nowait(t)
    for queue in queues:
        queue.put_nowait(None)
    while not all(task.done() for task in tasks):
        await asyncio.sleep(0)
    await asyncio.gather(*tasks)
    for client in clients:
        await client.finish()
    return {"due": due, "sent": sent, "acked": acked, "steal": steal}


def session(seed: int, measured: int, tag: str, trace: bool = False) -> Dict[str, Any]:
    """One session: set-up (inputs, perturbation, server, warm-up), then
    ``measured`` paced slots.  Returns per-slot stamps and the server record."""
    horizon = WARMUP_SLOTS + measured
    setup_start = time.perf_counter()
    matrix = build_matrix(seed, horizon)
    feeds = build_feeds(matrix, seed)
    # Perturb every slot before the run starts: the generator's own CPU
    # work must not delay acks it is waiting for.
    batches = [list(feed) for feed in feeds]
    server = ServerProcess(horizon, tag, trace, timeout=60.0 + 2 * horizon * PERIOD)
    try:
        stamps = asyncio.run(_drive(server.port, batches, horizon))
        record = server.collect()
    finally:
        server.close()
    stamps["setup_s"] = stamps["due"][WARMUP_SLOTS] - setup_start
    measured_reports = sum(b.n_reports for shard in batches for b in shard[WARMUP_SLOTS:])
    return {
        "stamps": stamps,
        "server": record,
        "matrix": matrix,
        "feeds": feeds,
        "measured_reports": measured_reports,
    }


def slot_stats(stamps: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Measured-slot latency (due -> last ack) and generator lag."""
    window = slice(WARMUP_SLOTS, None)
    due = stamps["due"][window]
    latency = np.nanmax(stamps["acked"][window], axis=1) - due
    published = ~np.isnan(stamps["acked"][window]).any(axis=1)
    lag = np.nanmax(stamps["sent"][window], axis=1) - due
    steal = np.diff(stamps["steal"])[WARMUP_SLOTS - 1 :]
    return {"latency": latency, "published": published, "lag": lag, "steal": steal}


def reference_series(matrix: np.ndarray, seed: int):
    from repro.runtime.sharding import run_protocol_sharded

    result = run_protocol_sharded(
        matrix,
        algorithm=ALGORITHM,
        seed=seed,
        chunk_size=USERS // SHARDS,
        keep_reports=False,
    )
    result.assert_valid()
    return result.collector.population_mean_series()


def run(seed: int, seconds: float) -> Dict[str, Any]:
    """``SESSIONS`` sessions, one per derived seed, ``seconds`` of measured
    slots in total; each session's served series is checked bit for bit
    against ``run_protocol_sharded`` on its own input."""
    measured = max(int(round(seconds / PERIOD / SESSIONS)), 1)
    latencies, lags, published, steals = [], [], [], []
    rates, setups, server_rss, mses = [], [], [], []
    identical = True
    sheds = duplicates = reports = 0
    for i, session_seed in enumerate(sub_seeds(seed, SESSIONS)):
        s = session(session_seed, measured, f"s{i}")
        stats = slot_stats(s["stamps"])
        latencies.append(stats["latency"])
        lags.append(stats["lag"])
        published.append(stats["published"])
        steals.append(stats["steal"])
        served = np.array([float.fromhex(v) for v in s["server"]["series_hex"]])
        reference = reference_series(s["matrix"], session_seed)
        identical &= bool(np.array_equal(served, reference))
        mses.append(float(np.mean((served - s["matrix"].mean(axis=0)) ** 2)))
        for feed in s["feeds"]:
            feed.engine.assert_valid()  # raises on any w-event overspend
        gateway = s["server"]["gateway"]
        sheds += gateway["sheds"]
        duplicates += gateway["duplicates"]
        reports += gateway["reports_accepted"]
        stamps = s["stamps"]
        due0 = stamps["due"][WARMUP_SLOTS]
        last_ack = np.nanmax(stamps["acked"][WARMUP_SLOTS:])
        rates.append(s["measured_reports"] / (last_ack - due0))
        setups.append(stamps["setup_s"])
        server_rss.append(s["server"]["peak_rss_mb"])
        del s
    latency = np.concatenate(latencies)
    lag = np.concatenate(lags)
    ok = np.concatenate(published)
    ontime = ok & (latency <= PERIOD)
    unpublished = int((~ok).sum())
    return {
        "checks": {"bit_identical_to_sharded": identical, "audit": True},
        "attempted": int(latency.size),
        "failed": unpublished + sheds + duplicates,
        "metrics": {
            "reports_per_s": median(rates),
            "slot_latency_p50_ms": 1000.0 * percentile(latency[ok].tolist(), 50),
            "slot_ontime_frac": float(ontime.mean()),
            "setup_s": median(setups),
            "peak_rss_mb": None,  # own peak + server_rss, filled by the caller
            "estimate_mse": float(np.mean(mses)),
        },
        "server_peak_rss_mb": max(server_rss),
        "detail": {
            "sessions": SESSIONS,
            "measured_slots": int(latency.size),
            "period_ms": 1000.0 * PERIOD,
            "offered_reports_per_s": USERS / PERIOD,
            "loadgen_lag_ms_p99": 1000.0 * percentile(lag.tolist(), 99),
            "pooled_slot_latency_p99_ms": 1000.0 * percentile(latency[ok].tolist(), 99),
            "setup_rounds_s": setups,
            "sheds": sheds,
            "duplicates": duplicates,
            "reports_accepted": reports,
            "slot_latency_ms": np.round(1000.0 * latency, 3).tolist(),
            "slot_steal_ticks": np.concatenate(steals).tolist(),
        },
    }
