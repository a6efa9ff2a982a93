"""Distributed gateway: worker shard servers behind a root aggregation tree.

The single-process gateway tops out at one GIL-bound event loop.  This
module scales the ingestion tier across processes while keeping the
repo's signature guarantee — the distributed result is *bit-identical*
to :func:`~repro.runtime.run_protocol_sharded` (and to the one-process
gateway) for the same seed and chunk decomposition:

.. code-block:: text

    clients (shard-affinity fleet)          workers              root
    shard 0 ─┐
    shard 1 ─┼─> GatewayWorker[0] ── SHARD_STATE/SLOT_FINAL ─┐
    shard 2 ─┐                                               ├─> RootAggregator
    shard 3 ─┼─> GatewayWorker[1] ── SHARD_STATE/SLOT_FINAL ─┘

Each :class:`GatewayWorker` owns a *contiguous* global shard range
``[shard_lo, shard_hi)`` and runs an ordinary
:class:`~repro.gateway.GatewayServer` + :class:`~repro.service.pipeline.
IngestionPipeline` slot barrier over its local shards.  When a slot
finalizes locally, the worker streams one ``SHARD_STATE`` frame per
global shard upstream (count, exact float64 slot sum, and — only when
the run keeps them — the raw values/user ids), closed by a
``SLOT_FINAL`` frame the root acknowledges.

The root (:class:`RootAggregator` over a :class:`ShardStateAggregator`,
an :class:`~repro.service.pipeline.IngestionPipeline` fed per-shard
states) runs the one slot barrier of every mode: it checks each state at
the edge, buffers it until every global shard has delivered slot ``t``,
then folds them in **ascending shard order** via :meth:`~repro.protocol.
collector.CollectorShardState.merge_in_place`, feeding its dashboards
and sinks.  Because each state carries the worker-computed
``float(segment.sum())`` bits (verified, never recomputed at the root)
and empty shard-slots are barrier markers that are never merged, the
root's fold replays exactly the flat pipeline's operation sequence —
float addition is non-associative, so this, not "merge per-worker
aggregates", is what makes the tree bit-exact.

Workers keep an outbox of encoded upstream frames per finalized slot
until the root acknowledges it, so worker kills, reconnects, and
WAL-backed recovery (:func:`recover_worker`) resend idempotently; the
root's per-shard resume slots make duplicates no-ops.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import multiprocessing
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import ensure_report_batch
from ..adversary.policies import RobustPolicy, make_policy
from ..protocol.collector import CollectorShardState
from ..protocol.messages import ShardSlotState
from ..service.events import ReportBatch, SlotEstimate
from ..service.feeds import ShardFeed, shard_feeds
from ..service.pipeline import IngestionPipeline, LiveRunResult
from .client import GatewayError
from .eventloop import gateway_run
from .fleet import NetemSpec, ShardUploadReport, drive_feed
from .metrics import GatewayMetrics, aggregate_worker_metrics
from .server import GatewayServer
from .wire import (
    MAX_PAYLOAD_BYTES,
    FrameType,
    WireError,
    decode_control,
    decode_shard_state_payload,
    encode_control,
    encode_shard_state_frame,
    read_frame,
)

__all__ = [
    "WorkerSpec",
    "DistributedRunResult",
    "ShardStateAggregator",
    "RootAggregator",
    "GatewayWorker",
    "recover_worker",
    "shard_ranges",
    "worker_for_shard",
    "run_distributed_fleet_async",
    "run_distributed",
    "run_distributed_processes",
]


# -- topology ------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """One worker's place in the topology: its shard range and listener."""

    worker: int
    shard_lo: int
    shard_hi: int
    host: str = "127.0.0.1"
    port: int = 0

    @property
    def n_shards(self) -> int:
        return self.shard_hi - self.shard_lo


def shard_ranges(n_shards: int, n_workers: int) -> List[Tuple[int, int]]:
    """Contiguous, near-even ``[lo, hi)`` shard ranges for each worker."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be positive, got {n_workers}")
    if n_workers > n_shards:
        raise ValueError(
            f"{n_workers} workers cannot each own a shard of a "
            f"{n_shards}-shard run"
        )
    base, extra = divmod(n_shards, n_workers)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for i in range(n_workers):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def worker_for_shard(topology: Sequence[WorkerSpec], shard: int) -> WorkerSpec:
    """The worker owning a global shard (shard-affinity routing)."""
    for spec in topology:
        if spec.shard_lo <= shard < spec.shard_hi:
            return spec
    raise ValueError(f"no worker in the topology owns shard {shard}")


# -- root: pure aggregation barrier --------------------------------------


class ShardStateAggregator(IngestionPipeline):
    """The root's slot barrier: an :class:`~repro.service.pipeline.
    IngestionPipeline` whose arrivals are per-shard wire states.

    Transport-free core of the root.  Only the edge check (:meth:`submit`
    of one :class:`~repro.protocol.messages.ShardSlotState` per slot and
    global shard) and the fold (:meth:`_sub_state` merged in ascending
    shard order, the flat pipeline's float operations) are its own.
    """

    def __init__(
        self,
        n_shards: int,
        horizon: int,
        epsilon: float = 1.0,
        w: int = 10,
        smoothing_window: Optional[int] = 3,
        track_users: bool = False,
        keep_reports: bool = True,
        robust_policy=None,
    ) -> None:
        super().__init__(
            n_shards,
            horizon,
            epsilon=epsilon,
            w=w,
            smoothing_window=smoothing_window,
            track_users=track_users,
            keep_reports=keep_reports,
            robust_policy=robust_policy,
        )

    def submit(self, state: ShardSlotState) -> List[SlotEstimate]:
        """Check one shard-slot state at the edge; finalize any slots it
        completes.  Beyond the pipeline's slot and user-id checks, the
        slot sum must be finite and, when values ship, exactly their
        ``float(values.sum())`` bits; the segments the run needs must
        ship, ``n_reports`` long.  Raises ``ValueError`` before buffering.
        """
        if not isinstance(state, ShardSlotState):
            raise TypeError(f"expected a ShardSlotState, got {type(state).__name__}")
        t, n, values, ids = state.t, state.n_reports, state.values, state.user_ids
        track_users = self.collector.track_users
        where = f"slot {t} shard {state.shard}"
        if not math.isfinite(state.total):
            raise ValueError(f"{where}: non-finite slot sum {state.total!r}")
        if n and values is None and (self.collector.keep_reports or track_users or ids is not None):
            raise ValueError(f"{where}: the state carries no values segment")
        if n and ids is None and track_users:
            raise ValueError(f"{where}: this run tracks users but the state carries no user-id segment")
        if n and any(s is not None and s.shape != (n,) for s in (values, ids)):
            raise ValueError(f"{where}: segments must hold {n} reports")
        id_range = self._check_arrival(t, state.shard, ids if n else None, values)
        # Sum an aligned copy, as the worker did: numpy sums an unaligned
        # view through a buffer, in another order.
        if n and values is not None and float(np.require(values, float, "A").sum()) != state.total:
            raise ValueError(f"{where}: slot sum {state.total!r} is not the (finite) sum of its values")
        return self._admit(state, id_range)

    def _fold(self, state: ShardSlotState) -> None:
        self.collector.merge_state(self._sub_state(state))

    def _sub_state(self, state: ShardSlotState) -> CollectorShardState:
        """Lift one wire state into a mergeable single-slot shard state.

        The slot sum is the worker's exact bits; the values segment is
        copied out of the frame buffer (owning float64 memory, same bits)
        exactly like :meth:`CollectorShardState.add_slot_batch` does.
        """
        track_users = self.collector.track_users
        keep_reports = self.collector.keep_reports
        policy = self.collector.robust_policy
        slot_values: Dict[int, List[Any]] = {}
        by_user: Dict[int, Dict[int, float]] = {}
        segment = None
        if state.values is not None and (keep_reports or track_users):
            segment = np.array(state.values, dtype=float)
        if keep_reports and segment is not None:
            slot_values[state.t] = [segment]
        if track_users and state.user_ids is not None and segment is not None:
            for uid, value in zip(state.user_ids.tolist(), segment.tolist()):
                by_user[int(uid)] = {state.t: value}
        # Workers apply the robust policy's report transform before
        # summing (see _encode_slot_frames), so the wire total is already
        # the policed fold; group labels are global shard indices, the
        # same grouping every other execution mode uses.
        group_sums: Dict[int, Dict[int, float]] = {}
        group_counts: Dict[int, Dict[int, int]] = {}
        if policy is not None and policy.uses_groups and state.n_reports:
            group_sums = {state.t: {state.shard: state.total}}
            group_counts = {state.t: {state.shard: state.n_reports}}
        return CollectorShardState(
            track_users=track_users,
            keep_reports=keep_reports,
            slot_sums={state.t: state.total},
            slot_counts={state.t: state.n_reports},
            slot_values=slot_values,
            by_user=by_user,
            n_reports=state.n_reports,
            robust_policy=policy,
            group_sums=group_sums,
            group_counts=group_counts,
        )


# -- root: TCP front -----------------------------------------------------


class RootAggregator:
    """TCP front for the aggregation tree: accepts workers, not clients.

    Speaks the distributed leg of the wire protocol — ``WORKER_HELLO``
    handshake (answering with the worker range's resume slot),
    ``SHARD_STATE`` / ``SLOT_FINAL`` streams, and a ``FIN`` that carries
    the worker's final metrics snapshot (surfaced in
    :attr:`worker_metrics` for the aggregated ``--metrics-out``
    artifact).  Workers connect over plain TCP, so the topology is
    multi-host-ready: nothing assumes fork or shared memory.  As in
    :class:`~repro.gateway.GatewayServer`, a per-shard clock enforces
    in-order delivery and yields the resume slot; resends are duplicates.
    """

    def __init__(
        self,
        aggregator: ShardStateAggregator,
        host: str = "127.0.0.1",
        port: int = 0,
        max_payload_bytes: int = MAX_PAYLOAD_BYTES,
        metrics: Optional[GatewayMetrics] = None,
    ) -> None:
        self.aggregator = aggregator
        self.host = host
        self._requested_port = int(port)
        self.max_payload_bytes = int(max_payload_bytes)
        self.metrics = metrics if metrics is not None else GatewayMetrics()
        self.worker_metrics: Dict[str, Dict[str, Any]] = {}
        self._next_expected: List[int] = [0] * aggregator.n_shards
        self._server: Optional[asyncio.base_events.Server] = None
        self._handlers: "set[asyncio.Task]" = set()
        self._done = asyncio.Event()

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("root aggregator not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("root aggregator already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self._requested_port
        )
        self.aggregator.start_run()

    async def wait_complete(self, timeout: Optional[float] = None) -> None:
        if self.aggregator.complete:
            return
        await asyncio.wait_for(self._done.wait(), timeout)

    async def stop(self, drain_timeout: float = 5.0) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._handlers:
            _, pending = await asyncio.wait(self._handlers, timeout=drain_timeout)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    def result(self, feeds: Optional[List[ShardFeed]] = None) -> LiveRunResult:
        """Package the completed aggregation (every slot must have finalized)."""
        self.metrics.mark_finished()
        self.aggregator.finish()
        return self.aggregator.build_result(
            self.metrics.elapsed_seconds,
            feeds=feeds,
            extra={"gateway_metrics": self.metrics.snapshot()},
        )

    async def _send(self, writer: asyncio.StreamWriter, frame: bytes) -> None:
        writer.write(frame)
        self.metrics.frames_sent += 1
        self.metrics.bytes_sent += len(frame)
        await writer.drain()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self.metrics.connections_opened += 1
        worker: Optional[Tuple[int, int, int]] = None  # (id, lo, hi)
        try:
            while True:
                frame = await read_frame(reader, self.max_payload_bytes)
                if frame is None:
                    break
                frame_type, payload = frame
                self.metrics.frames_received += 1
                self.metrics.bytes_received += len(payload) + 8
                if frame_type == FrameType.WORKER_HELLO:
                    worker = await self._handle_worker_hello(writer, payload)
                elif frame_type == FrameType.SHARD_STATE:
                    self._handle_shard_state(worker, payload)
                elif frame_type == FrameType.SLOT_FINAL:
                    await self._handle_slot_final(writer, worker, payload)
                elif frame_type == FrameType.FIN:
                    self._handle_fin(worker, payload)
                    await self._send(writer, encode_control(FrameType.FIN_ACK))
                    break
                else:
                    raise WireError(
                        f"unexpected frame type {frame_type} from worker"
                    )
        except (WireError, ValueError) as error:
            self.metrics.protocol_errors += 1
            try:
                await self._send(
                    writer, encode_control(FrameType.ERROR, message=str(error))
                )
            except (ConnectionError, RuntimeError):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # worker dropped mid-frame; its reconnect resumes
        except asyncio.CancelledError:
            pass
        finally:
            self.metrics.connections_closed += 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError, asyncio.CancelledError):
                pass

    async def _handle_worker_hello(
        self, writer: asyncio.StreamWriter, payload: bytes
    ) -> Tuple[int, int, int]:
        hello = decode_control(payload)
        try:
            worker_id = int(hello["worker"])
            lo = int(hello["shard_lo"])
            hi = int(hello["shard_hi"])
        except (KeyError, TypeError, ValueError):
            raise WireError(
                "WORKER_HELLO must carry integer 'worker', 'shard_lo', "
                "'shard_hi' fields"
            ) from None
        agg = self.aggregator
        if not 0 <= lo < hi <= agg.n_shards:
            raise WireError(
                f"worker {worker_id} claims shards [{lo}, {hi}) but this "
                f"run aggregates shards 0..{agg.n_shards - 1}"
            )
        declared = hello.get("horizon")
        if declared is not None and int(declared) != agg.horizon:
            raise WireError(
                f"worker {worker_id} runs horizon {declared} but the root "
                f"aggregates horizon {agg.horizon}"
            )
        await self._send(
            writer,
            encode_control(
                FrameType.WORKER_HELLO_ACK,
                worker=worker_id,
                resume_slot=min(self._next_expected[lo:hi]),
                horizon=agg.horizon,
                n_shards=agg.n_shards,
            ),
        )
        return worker_id, lo, hi

    def _handle_shard_state(
        self, worker: Optional[Tuple[int, int, int]], payload: bytes
    ) -> None:
        if worker is None:
            raise WireError("SHARD_STATE before WORKER_HELLO; handshake first")
        _, lo, hi = worker
        state = decode_shard_state_payload(payload)
        if not lo <= state.shard < hi:
            raise WireError(
                f"connection registered shards [{lo}, {hi}) but delivered "
                f"a state for shard {state.shard}"
            )
        if self.aggregator.has_batch(state.t, state.shard):
            # A resend after a reconnect: the barrier holds it already.
            self.metrics.duplicates += 1
            return
        expected = self._next_expected[state.shard]
        if state.t != expected:
            raise ValueError(
                f"shard {state.shard} delivered slot {state.t} but slot {expected} "
                "is next — workers stream states in slot order"
            )
        finalized = self.aggregator.submit(state)
        self._next_expected[state.shard] = state.t + 1
        self.metrics.batches_accepted += 1
        self.metrics.reports_accepted += state.n_reports
        if finalized:
            self.metrics.slots_finalized += len(finalized)
            latencies = self.aggregator.slot_latencies
            self.metrics.slot_latencies.extend(latencies[-len(finalized):])
            if self.aggregator.complete:
                self._done.set()

    async def _handle_slot_final(
        self,
        writer: asyncio.StreamWriter,
        worker: Optional[Tuple[int, int, int]],
        payload: bytes,
    ) -> None:
        if worker is None:
            raise WireError("SLOT_FINAL before WORKER_HELLO; handshake first")
        _, lo, hi = worker
        fields = decode_control(payload)
        try:
            t = int(fields["t"])
        except (KeyError, TypeError, ValueError):
            raise WireError("SLOT_FINAL must carry an integer 't' field") from None
        missing = [s for s in range(lo, hi) if not self.aggregator.has_batch(t, s)]
        if missing:
            raise WireError(
                f"SLOT_FINAL for slot {t} but shards {missing} have not "
                "delivered their states"
            )
        await self._send(
            writer, encode_control(FrameType.STATE_ACK, t=t)
        )

    def _handle_fin(
        self, worker: Optional[Tuple[int, int, int]], payload: bytes
    ) -> None:
        if worker is None or not payload:
            return
        fields = decode_control(payload)
        snapshot = fields.get("metrics")
        if isinstance(snapshot, dict):
            self.worker_metrics[str(worker[0])] = snapshot


# -- worker --------------------------------------------------------------


def _encode_slot_frames(
    worker: int,
    shard_lo: int,
    n_local_shards: int,
    estimate: SlotEstimate,
    waiting: Dict[int, ReportBatch],
    keep_reports: bool,
    track_users: bool,
    robust_policy: Optional[RobustPolicy] = None,
) -> List[bytes]:
    """Encode one finalized slot as its upstream frame group.

    One ``SHARD_STATE`` per local shard in ascending (global) order,
    closed by the slot's ``SLOT_FINAL``.  The per-shard total is
    ``float(np.array(values).sum())`` — the identical expression the
    collector folds with, so the root merges the exact bits the flat
    path would have produced.  When a robust policy is set, its report
    transform (e.g. clip) is applied *before* summing, exactly where
    :meth:`CollectorShardState.add_slot_batch` applies it, so the wire
    total and values are the policed bits.
    """
    frames: List[bytes] = []
    for local in range(n_local_shards):
        batch = waiting[local]
        if batch.n_reports:
            segment = np.array(batch.values, dtype=float)
            if robust_policy is not None:
                segment = np.asarray(robust_policy.transform(segment), dtype=float)
            total = float(segment.sum())
        else:
            segment, total = None, 0.0
        state = ShardSlotState(
            shard=shard_lo + local,
            t=estimate.t,
            n_reports=batch.n_reports,
            total=total,
            values=segment if (keep_reports or track_users) and batch.n_reports else None,
            user_ids=batch.user_ids if track_users and batch.n_reports else None,
        )
        frames.append(encode_shard_state_frame(state))
    frames.append(
        encode_control(
            FrameType.SLOT_FINAL,
            t=estimate.t,
            worker=worker,
            n_reports=estimate.n_reports,
        )
    )
    return frames


class GatewayWorker:
    """One shard range's ingestion server plus its upstream state stream.

    Reuses :class:`~repro.gateway.GatewayServer` unchanged for the
    client-facing side (clients dial the worker with *local* shard
    indices ``0..n_local-1``; the fleet router translates), and streams
    every finalized slot upstream to the root as encoded frame groups
    held in an outbox until acknowledged.  The outbox plus the root's
    per-shard resume clock make resends after reconnects idempotent.
    """

    def __init__(
        self,
        worker: int,
        shard_lo: int,
        shard_hi: int,
        horizon: int,
        epsilon: float = 1.0,
        w: int = 10,
        smoothing_window: Optional[int] = 3,
        track_users: bool = False,
        keep_reports: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        root_host: str = "127.0.0.1",
        root_port: int = 0,
        max_slot_skew: int = 8,
        retry_after: float = 0.02,
        record_batches: bool = False,
        robust_policy=None,
        pipeline: Optional[IngestionPipeline] = None,
        next_expected: Optional[List[int]] = None,
        outbox: Optional[List[Tuple[int, List[bytes]]]] = None,
        max_reconnects: int = 10,
        connect_attempts: int = 20,
        backoff: float = 0.05,
        connect_timeout: float = 10.0,
    ) -> None:
        if shard_hi <= shard_lo:
            raise ValueError(
                f"worker shard range [{shard_lo}, {shard_hi}) is empty"
            )
        self.worker = int(worker)
        self.shard_lo = int(shard_lo)
        self.shard_hi = int(shard_hi)
        self.root_host = root_host
        self.root_port = int(root_port)
        self.max_reconnects = int(max_reconnects)
        self.connect_attempts = int(connect_attempts)
        self.backoff = float(backoff)
        self.connect_timeout = float(connect_timeout)
        n_local = self.shard_hi - self.shard_lo
        if pipeline is None:
            pipeline = IngestionPipeline(
                n_shards=n_local,
                horizon=horizon,
                epsilon=epsilon,
                w=w,
                smoothing_window=smoothing_window,
                track_users=track_users,
                keep_reports=keep_reports,
                max_slot_skew=max_slot_skew,
                record_batches=record_batches,
                robust_policy=robust_policy,
            )
        elif pipeline.n_shards != n_local:
            raise ValueError(
                f"pipeline serves {pipeline.n_shards} shards but the "
                f"worker owns {n_local}"
            )
        self.pipeline = pipeline
        pipeline.on_slot_finalized = self._on_slot_finalized
        self.server = GatewayServer(
            pipeline,
            host=host,
            port=port,
            retry_after=retry_after,
            next_expected=next_expected,
        )
        #: encoded upstream frame groups, one per finalized slot, in
        #: ascending-slot order; kept until the root acks the slot
        self._outbox: List[Tuple[int, List[bytes]]] = outbox if outbox is not None else []
        self._outbox_grew = asyncio.Event()
        self.acked_slots = 0
        self.upstream_reconnects = 0
        self._upstream_task: Optional[asyncio.Task] = None
        self._up_writer: Optional[asyncio.StreamWriter] = None
        self._up_reader: Optional[asyncio.StreamReader] = None
        self._crashed = False

    @property
    def n_local_shards(self) -> int:
        return self.shard_hi - self.shard_lo

    def _on_slot_finalized(
        self, estimate: SlotEstimate, waiting: Dict[int, ReportBatch]
    ) -> None:
        frames = _encode_slot_frames(
            self.worker,
            self.shard_lo,
            self.n_local_shards,
            estimate,
            waiting,
            self.pipeline.collector.keep_reports,
            self.pipeline.collector.track_users,
            robust_policy=self.pipeline.collector.robust_policy,
        )
        self._outbox.append((estimate.t, frames))
        self._outbox_grew.set()

    # -- lifecycle -------------------------------------------------------

    async def start(self, metadata: Optional[Dict[str, Any]] = None) -> None:
        meta = {"worker": self.worker, "shard_lo": self.shard_lo}
        meta.update(metadata or {})
        await self.server.start(meta)
        self._upstream_task = asyncio.create_task(self._run_upstream())

    async def wait_complete(self, timeout: Optional[float] = None) -> None:
        """Block until every slot is finalized locally *and* acked upstream."""
        if self._upstream_task is None:
            raise RuntimeError("worker not started")
        await asyncio.wait_for(asyncio.shield(self._upstream_task), timeout)

    async def stop(self, drain_timeout: float = 5.0) -> None:
        await self.server.stop(drain_timeout)
        task = self._upstream_task
        if task is not None and not task.done():
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
        self._close_upstream()

    async def crash(self) -> None:
        """Kill -9 simulation: server, upstream stream, and WAL at once."""
        self._crashed = True
        task = self._upstream_task
        if task is not None and not task.done():
            task.cancel()
        self._close_upstream()
        await self.server.crash()
        if task is not None:
            await asyncio.gather(task, return_exceptions=True)

    def _close_upstream(self) -> None:
        if self._up_writer is not None:
            transport = self._up_writer.transport
            if transport is not None:
                transport.abort()
            self._up_writer = None
            self._up_reader = None

    # -- upstream stream -------------------------------------------------

    async def _connect_upstream(self) -> int:
        """Dial the root, handshake, return the resume slot."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.root_host, self.root_port),
            self.connect_timeout,
        )
        self._up_writer = writer
        try:
            writer.write(
                encode_control(
                    FrameType.WORKER_HELLO,
                    worker=self.worker,
                    shard_lo=self.shard_lo,
                    shard_hi=self.shard_hi,
                    horizon=self.pipeline.horizon,
                )
            )
            await writer.drain()
            ack = await asyncio.wait_for(
                self._expect(reader, FrameType.WORKER_HELLO_ACK),
                self.connect_timeout,
            )
        except BaseException:
            self._close_upstream()
            raise
        self._up_reader = reader
        return int(ack["resume_slot"])

    async def _expect(
        self, reader: asyncio.StreamReader, expected: int
    ) -> Dict[str, Any]:
        frame = await read_frame(reader)
        if frame is None:
            raise ConnectionResetError("root closed the connection")
        frame_type, payload = frame
        fields = decode_control(payload) if payload else {}
        if frame_type == FrameType.ERROR:
            raise GatewayError(
                fields.get("message", "root reported a protocol error")
            )
        if frame_type != expected:
            raise WireError(f"expected frame type {expected}, got {frame_type}")
        return fields

    async def _run_upstream(self) -> None:
        horizon = self.pipeline.horizon
        reconnects = -1  # first connect is free
        while True:
            try:
                resume = await self._retry_connect()
                await self._stream_from(resume, horizon)
                return
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                if self._crashed:
                    raise
                reconnects += 1
                self.upstream_reconnects = max(reconnects, 0)
                if reconnects >= self.max_reconnects:
                    raise ConnectionError(
                        f"worker {self.worker} exhausted its "
                        f"{self.max_reconnects} upstream reconnects"
                    )
                await asyncio.sleep(self.backoff)

    async def _retry_connect(self) -> int:
        for attempt in range(self.connect_attempts):
            try:
                return await self._connect_upstream()
            except (ConnectionError, OSError, asyncio.TimeoutError):
                if attempt == self.connect_attempts - 1:
                    raise
                await asyncio.sleep(self.backoff * (attempt + 1))
        raise ConnectionError("unreachable")  # pragma: no cover

    async def _stream_from(self, resume: int, horizon: int) -> None:
        writer = self._up_writer
        reader = self._up_reader
        assert writer is not None and reader is not None
        acked = 0
        while acked < len(self._outbox) and self._outbox[acked][0] < resume:
            acked += 1
        if self._outbox and resume < self._outbox[0][0]:
            raise GatewayError(
                f"root asks to resume from slot {resume} but this "
                f"worker's outbox starts at slot {self._outbox[0][0]} — "
                "slots compacted into a WAL checkpoint cannot be resent "
                "(see the operations runbook)"
            )
        self.acked_slots = max(self.acked_slots, acked)
        sent = acked
        while self.acked_slots < horizon:
            while sent >= len(self._outbox):
                self._outbox_grew.clear()
                if sent < len(self._outbox):
                    break
                await self._outbox_grew.wait()
            t, frames = self._outbox[sent]
            for frame in frames:
                writer.write(frame)
            await writer.drain()
            ack = await self._expect(reader, FrameType.STATE_ACK)
            if int(ack.get("t", t)) != t:
                raise WireError(
                    f"root acked slot {ack.get('t')} but slot {t} was in flight"
                )
            sent += 1
            self.acked_slots = sent
        self.server.metrics.mark_finished()
        writer.write(
            encode_control(
                FrameType.FIN,
                worker=self.worker,
                metrics=self.server.metrics.snapshot(),
            )
        )
        await writer.drain()
        await self._expect(reader, FrameType.FIN_ACK)
        self._close_upstream()


def recover_worker(
    wal_dir: str,
    worker: int,
    shard_lo: int,
    shard_hi: int,
    root_host: str,
    root_port: int,
    host: str = "127.0.0.1",
    port: int = 0,
    retry_after: float = 0.02,
    fsync: str = "commit",
    **worker_kwargs: Any,
) -> Tuple[GatewayWorker, Any]:
    """Rebuild a crashed worker from its write-ahead log.

    Replays the WAL through a fresh pipeline with the slot-finalization
    hook attached *before* replay, so every slot found in the surviving
    segments re-enters the upstream outbox — the root's resume clock
    then makes the resends idempotent.  Slots compacted into a WAL
    checkpoint are restored (bit-exact) but cannot be resent; if the
    root still needs one, the worker fails with a clear error (see the
    distributed runbook in ``docs/operations.md``).

    Returns ``(worker, recovery)`` — the worker is ready to
    :meth:`~GatewayWorker.start`; ``recovery`` is the underlying
    :class:`~repro.wal.WalRecovery` (replay counters, torn-tail flag).
    """
    from ..wal import WriteAheadLog, recover_pipeline

    outbox: List[Tuple[int, List[bytes]]] = []

    def configure(pipeline: IngestionPipeline) -> None:
        n_local = pipeline.n_shards

        def hook(estimate: SlotEstimate, waiting: Dict[int, ReportBatch]) -> None:
            outbox.append(
                (
                    estimate.t,
                    _encode_slot_frames(
                        worker,
                        shard_lo,
                        n_local,
                        estimate,
                        waiting,
                        pipeline.collector.keep_reports,
                        pipeline.collector.track_users,
                        robust_policy=pipeline.collector.robust_policy,
                    ),
                )
            )

        pipeline.on_slot_finalized = hook

    recovery = recover_pipeline(wal_dir, configure=configure)
    pipeline = recovery.pipeline
    if pipeline.n_shards != shard_hi - shard_lo:
        raise ValueError(
            f"WAL at {wal_dir} serves {pipeline.n_shards} shards but the "
            f"worker owns [{shard_lo}, {shard_hi})"
        )
    pipeline.attach_wal(WriteAheadLog(wal_dir, fsync=fsync))
    rebuilt = GatewayWorker(
        worker=worker,
        shard_lo=shard_lo,
        shard_hi=shard_hi,
        horizon=pipeline.horizon,
        host=host,
        port=port,
        root_host=root_host,
        root_port=root_port,
        retry_after=retry_after,
        pipeline=pipeline,
        next_expected=recovery.next_expected,
        outbox=outbox,
        **worker_kwargs,
    )
    return rebuilt, recovery


# -- fleet routing -------------------------------------------------------


class _WorkerLocalFeed:
    """View of a global shard feed re-indexed to its worker's local space.

    Workers run ordinary pipelines over local shards ``0..k-1``; the
    router wraps each global feed so the client handshake and batches
    carry the local index.  Re-wrapping batches is cheap —
    :class:`~repro.service.events.ReportBatch` construction is O(1)
    validation over the same arrays.
    """

    def __init__(self, feed: ShardFeed, shard_lo: int) -> None:
        self._feed = feed
        self.shard = feed.shard - shard_lo
        self.engine = feed.engine

    @property
    def horizon(self) -> int:
        return self._feed.horizon

    def __iter__(self):
        for batch in self._feed:
            yield ReportBatch(
                shard=self.shard,
                t=batch.t,
                user_ids=batch.user_ids,
                values=batch.values,
            )


async def run_distributed_fleet_async(
    feeds: Sequence[ShardFeed],
    topology: Sequence[WorkerSpec],
    jitter: float = 0.0,
    seed: int = 0,
    drops: Optional[Dict[int, Iterable[int]]] = None,
    netem: Optional[NetemSpec] = None,
    max_reconnects: int = 10,
) -> List[ShardUploadReport]:
    """Drive every shard feed to its owning worker (shard affinity).

    Same contract as :func:`~repro.gateway.fleet.run_fleet_async`, with
    routing: each feed dials the worker whose range covers its global
    shard, uploading under the worker-local index.  Jitter generators
    and ``drops`` stay keyed by *global* shard, so fault schedules are
    identical across 1-worker and N-worker topologies.
    """
    drops = drops or {}
    if netem is not None:
        max_reconnects += netem.partition_slot_count()

    async def _drive(feed: ShardFeed) -> ShardUploadReport:
        spec = worker_for_shard(topology, feed.shard)
        report = await drive_feed(
            _WorkerLocalFeed(feed, spec.shard_lo),
            spec.host,
            spec.port,
            jitter=jitter,
            rng=np.random.default_rng(
                np.random.SeedSequence([int(seed), feed.shard])
            )
            if jitter > 0.0
            else None,
            drop_slots=drops.get(feed.shard, ()),
            netem=netem,
            max_reconnects=max_reconnects,
        )
        report.shard = feed.shard  # report under the global index
        return report

    return list(await asyncio.gather(*(_drive(feed) for feed in feeds)))


# -- run drivers ---------------------------------------------------------


@dataclass
class DistributedRunResult:
    """A finished distributed run: estimates plus tree-wide telemetry."""

    result: LiveRunResult
    metrics: GatewayMetrics
    worker_metrics: Dict[str, Dict[str, Any]]
    shard_reports: List[ShardUploadReport]
    topology: List[WorkerSpec]
    root_port: int

    def metrics_payload(self) -> Dict[str, Any]:
        """Root snapshot plus the per-worker breakdown and totals."""
        payload: Dict[str, Any] = {"root": self.metrics.snapshot()}
        payload.update(aggregate_worker_metrics(self.worker_metrics))
        return payload


def run_distributed(
    source: Any,
    algorithm: "str | Sequence[str]" = "capp",
    epsilon: float = 1.0,
    w: int = 10,
    smoothing_window: Optional[int] = 3,
    participation: "float | Sequence[float] | None" = None,
    seed: int = 0,
    chunk_size: Optional[int] = None,
    workers: int = 2,
    host: str = "127.0.0.1",
    root_port: int = 0,
    jitter: float = 0.0,
    drops: Optional[Dict[int, Iterable[int]]] = None,
    netem: Optional[NetemSpec] = None,
    max_slot_skew: int = 8,
    retry_after: float = 0.02,
    track_users: bool = False,
    keep_reports: bool = True,
    record_history: bool = False,
    complete_timeout: float = 120.0,
    attack=None,
    robust_policy=None,
) -> DistributedRunResult:
    """Serve a population through the full aggregation tree, in-process.

    Root, workers, and fleet all share one event loop but talk real
    loopback TCP — the same frames a multi-host deployment sends.  The
    result is bit-identical to :func:`~repro.runtime.
    run_protocol_sharded` with the same seed and decomposition, and the
    population-wide w-event audit runs before returning.  Tests and the
    chaos drills use this driver; for process-per-worker scale-out see
    :func:`run_distributed_processes`.
    """
    feeds = shard_feeds(
        source,
        algorithm=algorithm,
        epsilon=epsilon,
        w=w,
        participation=participation,
        seed=seed,
        chunk_size=chunk_size,
        record_history=record_history,
        attack=attack,
    )
    if not feeds:
        raise ValueError("source yielded no chunks; nothing to serve")
    n_shards = len(feeds)
    horizon = feeds[0].horizon
    ranges = shard_ranges(n_shards, workers)

    async def _serve() -> DistributedRunResult:
        aggregator = ShardStateAggregator(
            n_shards,
            horizon,
            epsilon=epsilon,
            w=w,
            smoothing_window=smoothing_window,
            track_users=track_users,
            keep_reports=keep_reports,
            robust_policy=robust_policy,
        )
        root = RootAggregator(aggregator, host=host, port=root_port)
        await root.start()
        bound_port = root.port
        fleet: List[GatewayWorker] = []
        topology: List[WorkerSpec] = []
        try:
            for i, (lo, hi) in enumerate(ranges):
                wkr = GatewayWorker(
                    worker=i,
                    shard_lo=lo,
                    shard_hi=hi,
                    horizon=horizon,
                    epsilon=epsilon,
                    w=w,
                    smoothing_window=smoothing_window,
                    track_users=track_users,
                    keep_reports=keep_reports,
                    host=host,
                    root_host=host,
                    root_port=root.port,
                    max_slot_skew=max_slot_skew,
                    retry_after=retry_after,
                    robust_policy=robust_policy,
                )
                await wkr.start(
                    metadata={
                        "algorithm": algorithm
                        if isinstance(algorithm, str)
                        else "per-user",
                        "seed": int(seed),
                    }
                )
                fleet.append(wkr)
                topology.append(
                    WorkerSpec(i, lo, hi, host=host, port=wkr.server.port)
                )
            reports = await run_distributed_fleet_async(
                feeds,
                topology,
                jitter=jitter,
                seed=seed,
                drops=drops,
                netem=netem,
            )
            for wkr in fleet:
                await wkr.wait_complete(timeout=complete_timeout)
            await root.wait_complete(timeout=complete_timeout)
        finally:
            for wkr in fleet:
                await wkr.stop()
            await root.stop()
        result = root.result(feeds=feeds)
        return DistributedRunResult(
            result=result,
            metrics=root.metrics,
            worker_metrics=dict(root.worker_metrics),
            shard_reports=reports,
            topology=topology,
            root_port=bound_port,
        )

    run = gateway_run(_serve())
    run.result.assert_valid()
    return run


# -- process-per-worker scale-out ----------------------------------------


def _worker_process_main(
    make_source: Callable[[], Any], cfg: Dict[str, Any], queue: Any
) -> None:
    """Entry point of one worker process: local server + local fleet.

    Builds only its own shard range's feeds (the per-chunk generators
    are index-keyed, so the skipped chunks change nothing), serves them
    through a loopback fleet, streams states to the root, and reports
    its upload summary and w-event audit verdict back over the queue.
    """
    try:
        lo, hi = cfg["shard_lo"], cfg["shard_hi"]
        source = make_source()
        feeds = shard_feeds(
            source,
            algorithm=cfg["algorithm"],
            epsilon=cfg["epsilon"],
            w=cfg["w"],
            participation=cfg["participation"],
            seed=cfg["seed"],
            chunk_size=cfg["chunk_size"],
            shards=range(lo, hi),
            attack=cfg.get("attack"),
        )
        if len(feeds) != hi - lo:
            raise RuntimeError(
                f"worker {cfg['worker']}: source yielded {len(feeds)} "
                f"chunks for shard range [{lo}, {hi})"
            )

        async def _run():
            wkr = GatewayWorker(
                worker=cfg["worker"],
                shard_lo=lo,
                shard_hi=hi,
                horizon=feeds[0].horizon,
                epsilon=cfg["epsilon"],
                w=cfg["w"],
                smoothing_window=cfg["smoothing_window"],
                track_users=cfg["track_users"],
                keep_reports=cfg["keep_reports"],
                host=cfg["host"],
                root_host=cfg["root_host"],
                root_port=cfg["root_port"],
                max_slot_skew=cfg["max_slot_skew"],
                retry_after=cfg["retry_after"],
                robust_policy=cfg.get("robust_policy"),
            )
            await wkr.start(metadata={"seed": cfg["seed"]})
            topology = [
                WorkerSpec(cfg["worker"], lo, hi, cfg["host"], wkr.server.port)
            ]
            try:
                reports = await run_distributed_fleet_async(feeds, topology)
                await wkr.wait_complete(timeout=cfg["complete_timeout"])
            finally:
                await wkr.stop()
            return reports

        reports = gateway_run(_run())
        for feed in feeds:
            feed.engine.assert_valid()
        queue.put(
            {
                "worker": cfg["worker"],
                "ok": True,
                "reports": [dataclasses.asdict(r) for r in reports],
            }
        )
    except BaseException as error:  # noqa: BLE001 - crosses the process boundary
        queue.put(
            {
                "worker": cfg.get("worker"),
                "ok": False,
                "error": f"{type(error).__name__}: {error}",
            }
        )
        raise SystemExit(1) from None


def run_distributed_processes(
    make_source: Callable[[], Any],
    n_shards: int,
    workers: int = 2,
    algorithm: "str | Sequence[str]" = "capp",
    epsilon: float = 1.0,
    w: int = 10,
    smoothing_window: Optional[int] = 3,
    participation: "float | Sequence[float] | None" = None,
    seed: int = 0,
    chunk_size: Optional[int] = None,
    track_users: bool = False,
    keep_reports: bool = True,
    host: str = "127.0.0.1",
    root_port: int = 0,
    max_slot_skew: int = 8,
    retry_after: float = 0.02,
    complete_timeout: float = 300.0,
    mp_context: Optional[str] = None,
    attack=None,
    robust_policy=None,
) -> DistributedRunResult:
    """Serve a population with one OS process per worker.

    ``make_source`` is called once in the parent (to learn the horizon)
    and once per worker process; it must be picklable under spawn-style
    start methods (a top-level function or ``functools.partial``).  Each
    worker builds only its own shard range's feeds, runs its server and
    local loopback fleet on its own event loop, and streams states to
    the root in this process over TCP — the topology a multi-host
    deployment uses, minus the distance.

    The per-shard w-event audit runs inside each worker (budget ledgers
    never cross the process boundary); the returned result carries
    ``feeds=None`` accordingly.
    """
    source = make_source()
    horizon = int(source.horizon)
    ranges = shard_ranges(n_shards, workers)
    ctx = multiprocessing.get_context(mp_context)
    # Ship the adversarial knobs as their JSON-safe dict forms — worker
    # processes rebuild them via make_attack/make_policy, which keeps the
    # cfg payload picklable under every start method.
    from ..adversary.attacks import make_attack

    attack_spec = make_attack(attack)
    attack_cfg = None if attack_spec is None else attack_spec.to_dict()
    policy = make_policy(robust_policy)
    policy_cfg = None if policy is None else policy.to_dict()

    async def _serve() -> DistributedRunResult:
        aggregator = ShardStateAggregator(
            n_shards,
            horizon,
            epsilon=epsilon,
            w=w,
            smoothing_window=smoothing_window,
            track_users=track_users,
            keep_reports=keep_reports,
            robust_policy=policy,
        )
        root = RootAggregator(aggregator, host=host, port=root_port)
        await root.start()
        bound_port = root.port
        queue = ctx.Queue()
        procs: List[Any] = []
        for i, (lo, hi) in enumerate(ranges):
            cfg = {
                "worker": i,
                "shard_lo": lo,
                "shard_hi": hi,
                "algorithm": algorithm,
                "epsilon": epsilon,
                "w": w,
                "smoothing_window": smoothing_window,
                "participation": participation,
                "seed": seed,
                "chunk_size": chunk_size,
                "track_users": track_users,
                "keep_reports": keep_reports,
                "host": host,
                "root_host": host,
                "root_port": bound_port,
                "max_slot_skew": max_slot_skew,
                "retry_after": retry_after,
                "complete_timeout": complete_timeout,
                "attack": attack_cfg,
                "robust_policy": policy_cfg,
            }
            proc = ctx.Process(
                target=_worker_process_main,
                args=(make_source, cfg, queue),
                daemon=True,
            )
            proc.start()
            procs.append(proc)

        summaries: List[Dict[str, Any]] = []

        def _drain_queue() -> None:
            while True:
                try:
                    summaries.append(queue.get_nowait())
                except Exception:
                    return

        try:
            deadline = asyncio.get_running_loop().time() + complete_timeout
            while not aggregator.complete:
                _drain_queue()
                failed = [s for s in summaries if not s.get("ok")]
                if failed:
                    raise RuntimeError(
                        "worker process failed: "
                        + "; ".join(
                            f"worker {s.get('worker')}: {s.get('error')}"
                            for s in failed
                        )
                    )
                dead = [
                    p for p in procs if not p.is_alive() and p.exitcode not in (0, None)
                ]
                if dead:
                    raise RuntimeError(
                        f"{len(dead)} worker process(es) exited abnormally "
                        f"(exit codes {[p.exitcode for p in dead]})"
                    )
                if asyncio.get_running_loop().time() > deadline:
                    raise TimeoutError(
                        f"distributed run incomplete after {complete_timeout}s "
                        f"(root at slot {aggregator.next_slot}/{horizon})"
                    )
                try:
                    await root.wait_complete(timeout=0.05)
                except asyncio.TimeoutError:
                    continue
            loop = asyncio.get_running_loop()
            for proc in procs:
                await loop.run_in_executor(None, proc.join, 30.0)
            _drain_queue()
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            await root.stop()
        failed = [s for s in summaries if not s.get("ok")]
        if failed:
            raise RuntimeError(
                "worker process failed after completion: "
                + "; ".join(
                    f"worker {s.get('worker')}: {s.get('error')}" for s in failed
                )
            )
        reports = [
            ShardUploadReport(**fields)
            for summary in summaries
            for fields in summary.get("reports", ())
        ]
        reports.sort(key=lambda r: r.shard)
        result = root.result(feeds=None)
        return DistributedRunResult(
            result=result,
            metrics=root.metrics,
            worker_metrics=dict(root.worker_metrics),
            shard_reports=reports,
            topology=[
                WorkerSpec(i, lo, hi, host=host) for i, (lo, hi) in enumerate(ranges)
            ],
            root_port=bound_port,
        )

    return gateway_run(_serve())
