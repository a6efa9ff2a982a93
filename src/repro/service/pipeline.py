"""Slot-clocked live ingestion pipeline (the serving runtime).

:class:`IngestionPipeline` turns the repo's batch protocol engines into
an *online* collector service: producers push per-slot
:class:`~repro.service.events.ReportBatch`\\ es (one per shard per slot),
a slot barrier re-establishes deterministic cross-shard order, the
:class:`~repro.protocol.Collector` is updated incrementally via
``ingest_batch``, and every finalized slot's estimate fans out to the
registered :class:`~repro.analysis.StreamingQueryEngine` dashboards and
:class:`~repro.service.sinks.Sink`\\ s.

Determinism contract
--------------------

A slot finalizes only when all ``n_shards`` producers have delivered
their batch for it; its batches are then ingested in ascending shard
order.  Combined with the feeds' per-shard child generators
(:func:`~repro.service.feeds.shard_feeds`), the collector state after a
live run is **bit-identical** to the merged state of
:func:`~repro.runtime.run_protocol_sharded` for the same seed and chunk
decomposition — regardless of producer thread count, queue capacity, or
arrival order.  Queue timing can therefore never change an answer, only
a latency.

Backpressure and coalescing
---------------------------

Producer threads feed a :class:`~repro.service.queueing.BoundedBatchQueue`;
once ``queue_capacity`` batches are in flight, producers block until the
consumer catches up.  The consumer drains up to ``coalesce`` batches per
lock round-trip.  The queue alone cannot bound the slot-barrier buffer —
the consumer keeps draining while a slow shard holds a slot open, so
fast producers would park the whole run in the barrier — hence a second
gate: a producer whose next batch is ``max_slot_skew`` slots or more
ahead of the barrier clock waits until the clock advances.  The laggard
shard is never gated (its batch *is* the clock's next requirement), so
the gate cannot deadlock, and the barrier holds at most
``n_shards * (max_slot_skew + 1)`` batches whatever the thread timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import ensure_positive_int, ensure_report_batch
from ..analysis.streaming_queries import StreamingQueryEngine
from ..protocol.collector import Collector
from .events import EVENT_LOG_FORMAT, ReportBatch, SlotEstimate
from .feeds import EventLogSource, ShardFeed, shard_feeds
from .queueing import BoundedBatchQueue, QueueClosedError, QueueStats
from .sinks import Sink

__all__ = ["IngestionPipeline", "LiveRunResult", "run_live", "replay_event_log"]


@dataclass
class LiveRunResult:
    """Everything a finished live (or replayed) run produced.

    ``feeds`` is populated for live runs only — it keeps each shard's
    engines (and budget ledgers) alive for the population-wide audit;
    replayed runs ingest already-sanitized values and carry no ledgers.
    """

    collector: Collector
    slots: List[SlotEstimate] = field(repr=False)
    horizon: int = 0
    n_shards: int = 0
    epsilon: float = 1.0
    w: int = 10
    elapsed_seconds: float = 0.0
    slot_latencies: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False)
    queue_stats: Optional[QueueStats] = None
    dashboards: Dict[str, StreamingQueryEngine] = field(default_factory=dict)
    feeds: Optional[List[ShardFeed]] = field(default=None, repr=False)

    @property
    def n_reports(self) -> int:
        return self.collector.n_reports

    @property
    def reports_per_second(self) -> float:
        """Sustained ingestion throughput over the whole run."""
        if self.elapsed_seconds <= 0.0:
            return float("inf")
        return self.n_reports / self.elapsed_seconds

    def latency_quantile(self, q: float) -> float:
        """A quantile (e.g. ``0.99``) of per-slot finalization latency.

        Latency is measured from a slot's first buffered batch to its
        finalization — the time a slot spent open at the barrier.
        """
        if not self.slot_latencies.size:
            return 0.0
        return float(np.quantile(self.slot_latencies, q))

    def population_mean_series(self) -> np.ndarray:
        """Population-mean estimate at every slot that saw reports."""
        return self.collector.population_mean_series()

    def assert_valid(self) -> None:
        """Population-wide w-event audit (live runs; raises on overspend)."""
        if self.feeds is None:
            raise RuntimeError(
                "replayed runs carry no budget ledgers to audit — the "
                "audit ran when the log was recorded"
            )
        for feed in self.feeds:
            feed.engine.assert_valid()


class IngestionPipeline:
    """Slot-clocked streaming collector with dashboards and sinks.

    Args:
        n_shards: how many producers feed the pipeline; every slot needs
            exactly one batch from each before it finalizes.
        horizon: number of slots in the run.
        epsilon, w: the users' w-event parameters (the collector needs
            ``epsilon / w`` for distribution queries).
        smoothing_window: collector-side SMA window.
        track_users, keep_reports: forwarded to the
            :class:`~repro.protocol.Collector` (live serving defaults to
            ``track_users=False`` — per-user dicts are O(users x slots)).
        queue_capacity, coalesce: admission control for threaded serving
            (see :class:`~repro.service.queueing.BoundedBatchQueue`).
        max_slot_skew: how many slots a producer may run ahead of the
            barrier clock in threaded serving before it waits; bounds the
            barrier buffer at ``n_shards * (max_slot_skew + 1)`` batches
            even when one shard stalls (serial serving has zero skew by
            construction).
        record_batches: emit every ingested batch to the sinks, making a
            JSONL event log a complete replayable capture of the run.
        robust_policy: optional
            :class:`~repro.adversary.RobustPolicy` (or name/dict form)
            applied by the collector — the live-serving end of the same
            robust-aggregation layer the offline runtime threads through
            :func:`~repro.runtime.run_protocol_sharded`.
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
        queue_capacity: int = 256,
        coalesce: int = 8,
        max_slot_skew: int = 8,
        record_batches: bool = False,
        robust_policy=None,
    ) -> None:
        self.n_shards = ensure_positive_int(n_shards, "n_shards")
        self.horizon = ensure_positive_int(horizon, "horizon")
        self.epsilon = float(epsilon)
        self.w = int(w)
        self.queue_capacity = ensure_positive_int(queue_capacity, "queue_capacity")
        self.coalesce = ensure_positive_int(coalesce, "coalesce")
        self.max_slot_skew = ensure_positive_int(max_slot_skew, "max_slot_skew")
        self.record_batches = bool(record_batches)
        self.collector = Collector(
            epsilon_per_report=self.epsilon / self.w,
            smoothing_window=smoothing_window,
            track_users=track_users,
            keep_reports=keep_reports,
            robust_policy=robust_policy,
        )
        self.slot_estimates: List[SlotEstimate] = []
        self._dashboards: Dict[str, StreamingQueryEngine] = {}
        self._sinks: List[Sink] = []
        self._pending: Dict[int, Dict[int, ReportBatch]] = {}
        self._id_ranges: Dict[int, Dict[int, Tuple[int, int]]] = {}
        self.pending_high_watermark = 0
        self._first_seen: Dict[int, float] = {}
        self._latencies: List[float] = []
        self._next_slot = 0
        self._finished = False
        self._wal: Optional[Any] = None
        self._run_metadata: Dict[str, Any] = {}
        #: optional hook called as ``hook(estimate, waiting)`` at the end
        #: of every slot finalization, where ``waiting`` maps shard ->
        #: ReportBatch for the slot.  The distributed gateway worker uses
        #: it to stream finalized shard states upstream; WAL replay
        #: re-fires it, so a recovered worker rebuilds its outbox.
        self.on_slot_finalized: Optional[
            Callable[[SlotEstimate, Dict[int, ReportBatch]], None]
        ] = None

    # -- wiring ----------------------------------------------------------

    def add_sink(self, sink: Sink) -> Sink:
        """Register an output sink; returns it for chaining."""
        if not isinstance(sink, Sink):
            raise TypeError(f"sink must be a Sink, got {type(sink).__name__}")
        self._sinks.append(sink)
        return sink

    def register_dashboard(
        self, name: str, engine: Optional[StreamingQueryEngine] = None
    ) -> StreamingQueryEngine:
        """Attach a streaming-query dashboard fed by slot estimates.

        Every finalized slot's population-mean estimate is pushed to the
        engine (slots nobody reported at are skipped — there is no
        published value).  Returns the engine for chaining query
        registrations.
        """
        if name in self._dashboards:
            raise ValueError(f"dashboard {name!r} already registered")
        engine = engine if engine is not None else StreamingQueryEngine()
        if not isinstance(engine, StreamingQueryEngine):
            raise TypeError("engine must be a StreamingQueryEngine")
        self._dashboards[name] = engine
        return engine

    def attach_wal(self, wal: Any) -> Any:
        """Attach a :class:`~repro.wal.WriteAheadLog`; returns it.

        Once attached, every accepted batch is appended to the log
        *before* it is buffered (so before any ack can be sent), and
        every finalized slot appends a commit record — the durability
        contract :func:`~repro.wal.recover_pipeline` replays from.
        """
        from ..wal.log import WriteAheadLog

        if not isinstance(wal, WriteAheadLog):
            raise TypeError(f"wal must be a WriteAheadLog, got {type(wal).__name__}")
        if self._wal is not None:
            raise RuntimeError("pipeline already has a write-ahead log attached")
        self._wal = wal
        return wal

    @property
    def wal(self) -> Optional[Any]:
        """The attached write-ahead log, if any."""
        return self._wal

    @property
    def run_metadata(self) -> Dict[str, Any]:
        """The metadata passed to :meth:`start_run` (or set by recovery),
        preserved so compaction checkpoints keep carrying it once the
        segment holding the ``RUN_START`` record is deleted."""
        return dict(self._run_metadata)

    @run_metadata.setter
    def run_metadata(self, metadata: Dict[str, Any]) -> None:
        self._run_metadata = dict(metadata or {})

    def run_config(self) -> Dict[str, Any]:
        """The pipeline's constructor arguments, JSON-safe.

        This is what the WAL's ``RUN_START`` record and compaction
        checkpoints store — :func:`~repro.wal.recover_pipeline` rebuilds
        an identically configured pipeline from it.
        """
        config: Dict[str, Any] = {
            "n_shards": self.n_shards,
            "horizon": self.horizon,
            "epsilon": self.epsilon,
            "w": self.w,
            "smoothing_window": self.collector.smoothing_window,
            "track_users": self.collector.track_users,
            "keep_reports": self.collector.keep_reports,
            "queue_capacity": self.queue_capacity,
            "coalesce": self.coalesce,
            "max_slot_skew": self.max_slot_skew,
            "record_batches": self.record_batches,
        }
        # Included only when set, so unpoliced runs keep the exact v1
        # config (old WALs and their recovery path stay byte-compatible).
        if self.collector.robust_policy is not None:
            config["robust_policy"] = self.collector.robust_policy.to_dict()
        return config

    @property
    def dashboards(self) -> Dict[str, StreamingQueryEngine]:
        return dict(self._dashboards)

    @property
    def next_slot(self) -> int:
        """The slot the barrier is currently waiting to complete."""
        return self._next_slot

    @property
    def complete(self) -> bool:
        """Whether every slot in the horizon has finalized."""
        return self._next_slot >= self.horizon

    @property
    def slot_latencies(self) -> List[float]:
        """Per-slot finalization latencies so far, in finalization order.

        Latency runs from a slot's first buffered batch to its
        finalization (the time the slot spent open at the barrier).
        The returned list is live — treat it as read-only.
        """
        return self._latencies

    def has_batch(self, t: int, shard: int) -> bool:
        """Whether ``(t, shard)`` was already delivered (buffered at the
        barrier, or part of a finalized slot).

        The network gateway's duplicate-ack path asks this before
        ingesting — a client that lost an ack mid-reconnect resends, and
        the resend must neither error nor double-ingest.
        """
        if t < self._next_slot:
            return True
        return shard in self._pending.get(t, ())

    def pending_batches(self) -> List[ReportBatch]:
        """Batches buffered at the barrier, in ``(slot, shard)`` order.

        Compaction re-appends exactly these into the fresh WAL segment —
        they are the only accepted batches a checkpoint cannot cover
        (their slots have not finalized, so the collector state does not
        contain them yet).
        """
        batches: List[ReportBatch] = []
        for t in sorted(self._pending):
            waiting = self._pending[t]
            for shard in sorted(waiting):
                batches.append(waiting[shard])
        return batches

    def restore(
        self,
        collector_state: Any,
        slot_estimates: Sequence[SlotEstimate],
        next_slot: int,
    ) -> None:
        """Restore a checkpointed run onto this *fresh* pipeline.

        Replaces the collector state wholesale (bit-exact — see
        :meth:`~repro.protocol.Collector.restore_state`), reinstates the
        published slot estimates, and advances the barrier clock; WAL
        replay then drives the remaining batches through the normal
        :meth:`submit` path.  Registered dashboards are caught up by
        re-pushing the restored slot means, so their engines answer as
        if they had watched the whole run.  Slot latencies restart at
        the restore point — they measure this process's serving, not the
        crashed one's.
        """
        if (
            self._next_slot
            or self._pending
            or self.slot_estimates
            or self.collector.n_reports
        ):
            raise RuntimeError(
                "restore needs a fresh pipeline (nothing submitted yet)"
            )
        next_slot = int(next_slot)
        if not 0 <= next_slot <= self.horizon:
            raise ValueError(
                f"next_slot {next_slot} outside the run horizon {self.horizon}"
            )
        estimates = list(slot_estimates)
        if len(estimates) != next_slot:
            raise ValueError(
                f"checkpoint inconsistent: clock at slot {next_slot} but "
                f"{len(estimates)} slot estimates were stored"
            )
        for position, estimate in enumerate(estimates):
            if not isinstance(estimate, SlotEstimate) or estimate.t != position:
                raise ValueError(
                    f"checkpoint inconsistent: estimate {position} is "
                    f"{estimate!r}, expected slot {position}"
                )
        self.collector.restore_state(collector_state)
        self.slot_estimates = estimates
        self._next_slot = next_slot
        for estimate in estimates:
            if estimate.mean is not None:
                for engine in self._dashboards.values():
                    engine.push(estimate.mean)

    def _emit(self, record: Dict[str, Any]) -> None:
        for sink in self._sinks:
            sink.emit(record)

    def start_run(self, metadata: Optional[Dict[str, Any]] = None) -> None:
        """Emit the ``run_started`` record carrying the run configuration."""
        record: Dict[str, Any] = {
            "type": "run_started",
            "format": EVENT_LOG_FORMAT,
            "n_shards": self.n_shards,
            "horizon": self.horizon,
            "epsilon": self.epsilon,
            "w": self.w,
            "smoothing_window": self.collector.smoothing_window,
            "track_users": self.collector.track_users,
            "keep_reports": self.collector.keep_reports,
        }
        if self.collector.robust_policy is not None:
            record["robust_policy"] = self.collector.robust_policy.to_dict()
        record.update(metadata or {})
        self._run_metadata = dict(metadata or {})
        if self._wal is not None and not self._wal.resumed:
            self._wal.append_run_start(self.run_config(), metadata or {})
        self._emit(record)

    def build_result(
        self,
        elapsed_seconds: float,
        queue_stats: Optional[QueueStats] = None,
        feeds: Optional[List[ShardFeed]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> LiveRunResult:
        """Package the finished run, emit ``run_finished``, close sinks.

        Shared by every driver of the pipeline — in-process serving,
        event-log replay, and the network gateway — so they all publish
        the same result shape and trailer record.
        """
        result = LiveRunResult(
            collector=self.collector,
            slots=list(self.slot_estimates),
            horizon=self.horizon,
            n_shards=self.n_shards,
            epsilon=self.epsilon,
            w=self.w,
            elapsed_seconds=elapsed_seconds,
            slot_latencies=np.asarray(self._latencies, dtype=float),
            queue_stats=queue_stats,
            dashboards=dict(self._dashboards),
            feeds=feeds,
        )
        record: Dict[str, Any] = {
            "type": "run_finished",
            "slots": len(self.slot_estimates),
            "n_reports": self.collector.n_reports,
            "elapsed_seconds": elapsed_seconds,
            "reports_per_second": result.reports_per_second,
            "p99_slot_latency_seconds": result.latency_quantile(0.99),
        }
        record.update(extra or {})
        if self._wal is not None:
            self._wal.append_run_end(
                {
                    "slots": len(self.slot_estimates),
                    "n_reports": self.collector.n_reports,
                }
            )
            record["wal"] = self._wal.stats()
        self._emit(record)
        for sink in self._sinks:
            sink.close()
        return result

    # -- ingestion -------------------------------------------------------

    def submit(self, batch: ReportBatch) -> List[SlotEstimate]:
        """Accept one shard's batch; finalize any slots it completes.

        Batches may arrive in any interleaving across shards; each
        ``(slot, shard)`` pair must arrive exactly once, and a batch for
        an already-finalized slot is an error (the barrier guarantees
        ingestion order, so late arrivals would silently change results).
        Content is checked here, before the WAL append (ids, values, and
        an id range disjoint from other shards' pending batches for the
        slot); a refused batch leaves barrier and log untouched.

        Returns the slots this batch finalized (usually zero or one; more
        when this batch was the laggard holding several slots open).
        """
        if self._finished:
            raise RuntimeError("pipeline already finished; create a new one")
        if not isinstance(batch, ReportBatch):
            raise TypeError(f"expected a ReportBatch, got {type(batch).__name__}")
        t, shard = batch.t, batch.shard
        if t >= self.horizon:
            raise ValueError(f"batch for slot {t} is beyond the run horizon {self.horizon}")
        if shard >= self.n_shards:
            raise ValueError(
                f"batch from shard {shard} but the pipeline serves {self.n_shards} shards"
            )
        if t < self._next_slot:
            raise ValueError(
                f"batch from shard {shard} for slot {t} arrived after the slot "
                f"finalized (clock is at {self._next_slot})"
            )
        if shard in self._pending.get(t, ()):
            raise ValueError(f"duplicate batch from shard {shard} for slot {t}")
        id_range = None
        if batch.n_reports:
            lo, hi = id_range = ensure_report_batch(batch.user_ids, batch.values, t)
            for other, (other_lo, other_hi) in self._id_ranges.get(t, {}).items():
                if lo <= other_hi and other_lo <= hi:
                    raise ValueError(
                        f"slot {t}: shard {shard}'s user ids [{lo}, {hi}] overlap shard "
                        f"{other}'s [{other_lo}, {other_hi}]; no id range may span more "
                        "than one shard (shard feeds must cover disjoint user ranges)"
                    )
        if self._wal is not None:
            # Append, buffer, and finalize under the log's lock: a
            # concurrent compaction snapshot must see this batch either
            # pending or finalized — never appended-but-unbuffered,
            # which would let it delete the batch's only copy.
            with self._wal.exclusive():
                return self._admit(batch, id_range)
        return self._admit(batch, id_range)

    def _admit(self, batch: ReportBatch, id_range: Optional[Tuple[int, int]]) -> List[SlotEstimate]:
        """Log, buffer, and finalize one fully validated batch."""
        if self._wal is not None:
            # Write-ahead: the batch is durable before it is buffered, so
            # it is durable before any ack can reach the client.  submit
            # ran every check, content included: replay refuses no batch.
            self._wal.append_batch(batch)
        if batch.t not in self._first_seen:
            self._first_seen[batch.t] = time.perf_counter()
        self._pending.setdefault(batch.t, {})[batch.shard] = batch
        if id_range is not None:
            self._id_ranges.setdefault(batch.t, {})[batch.shard] = id_range
        buffered = sum(len(shards) for shards in self._pending.values())
        self.pending_high_watermark = max(self.pending_high_watermark, buffered)
        if self.record_batches:
            self._emit(batch.to_record())

        finalized: List[SlotEstimate] = []
        while len(self._pending.get(self._next_slot, ())) == self.n_shards:
            finalized.append(self._finalize(self._next_slot))
        return finalized

    def _finalize(self, t: int) -> SlotEstimate:
        """Ingest slot ``t``'s batches in shard order and publish it
        (:meth:`submit` validated them, overlapping id ranges included)."""
        waiting = self._pending.pop(t)
        self._id_ranges.pop(t, None)
        for shard in sorted(waiting):
            batch = waiting[shard]
            if batch.n_reports:
                # The group label is the shard (= global chunk) index, so
                # a median-of-means fold groups exactly as the offline
                # sharded runtime does.
                self.collector.ingest_batch(
                    t, batch.user_ids, batch.values, group=shard
                )
        count = self.collector.state.slot_counts.get(t, 0)
        mean = self.collector.population_mean(t) if count else None
        answers: Dict[str, Dict[str, Any]] = {}
        for name, engine in self._dashboards.items():
            if mean is not None:
                answers[name] = engine.push(mean)
            else:
                answers[name] = engine.answers()
        estimate = SlotEstimate(t=t, n_reports=count, mean=mean, answers=answers)
        self.slot_estimates.append(estimate)
        self._latencies.append(time.perf_counter() - self._first_seen.pop(t))
        self._next_slot = t + 1
        if self._wal is not None:
            # The commit record is the default fsync point: once it is
            # durable, power loss cannot take back a published slot.
            self._wal.append_commit(t, count, mean)
        self._emit(estimate.to_record())
        if self.on_slot_finalized is not None:
            self.on_slot_finalized(estimate, waiting)
        return estimate

    def finish(self) -> None:
        """Assert the run is complete and stop accepting batches.

        Raises:
            RuntimeError: some slots never completed their barrier —
                the message names the earliest incomplete slot and the
                shards it is still missing.
        """
        if self._finished:
            return
        if self._next_slot < self.horizon:
            t = self._next_slot
            received = set(self._pending.get(t, ()))
            missing = sorted(set(range(self.n_shards)) - received)
            raise RuntimeError(
                f"run incomplete: slot {t} finalized only with all "
                f"{self.n_shards} shard batches, but shards {missing} "
                "never delivered theirs"
            )
        self._finished = True

    # -- serving ---------------------------------------------------------

    def serve(
        self,
        feeds: Iterable[ShardFeed],
        max_workers: int = 1,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> LiveRunResult:
        """Drive a full run from shard feeds and return its result.

        Args:
            feeds: one :class:`~repro.service.feeds.ShardFeed` per shard
                (any iterable; ordering need not match shard indices).
            max_workers: ``1`` serves on the calling thread with a strict
                slot-major clock; ``>= 2`` runs producers on threads that
                push through the bounded queue (backpressure + coalescing
                engaged) while the calling thread consumes.
            metadata: extra fields for the ``run_started`` record.

        Returns:
            A :class:`LiveRunResult` whose collector is bit-identical to
            the offline sharded run's merged collector.
        """
        feeds = list(feeds)
        if len(feeds) != self.n_shards:
            raise ValueError(
                f"pipeline serves {self.n_shards} shards but got "
                f"{len(feeds)} feeds"
            )
        shards = sorted(feed.shard for feed in feeds)
        if shards != list(range(self.n_shards)):
            raise ValueError(
                f"feeds must cover shards 0..{self.n_shards - 1} exactly, "
                f"got {shards}"
            )
        max_workers = int(max_workers)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")

        self.start_run(metadata)

        start = time.perf_counter()
        queue_stats: Optional[QueueStats] = None
        try:
            if max_workers == 1:
                self._serve_serial(feeds)
            else:
                queue_stats = self._serve_threaded(feeds, max_workers)
            self.finish()
        except BaseException:
            # Flush sinks on the way out: a JSONL event log is post-mortem
            # evidence precisely when the run died mid-stream.
            for sink in self._sinks:
                sink.close()
            raise
        elapsed = time.perf_counter() - start
        return self.build_result(elapsed, queue_stats=queue_stats, feeds=feeds)

    def _serve_serial(self, feeds: List[ShardFeed]) -> None:
        """Strict slot clock: advance every shard once per tick."""
        iterators = [iter(feed) for feed in feeds]
        for _ in range(self.horizon):
            for iterator in iterators:
                self.submit(next(iterator))

    def _serve_threaded(self, feeds: List[ShardFeed], max_workers: int) -> QueueStats:
        """Producer threads push through the bounded queue; we consume."""
        import threading

        queue = BoundedBatchQueue(capacity=self.queue_capacity, coalesce=self.coalesce)
        n_producers = min(max_workers, len(feeds))
        errors: List[BaseException] = []
        remaining = [n_producers]
        lock = threading.Lock()
        clock = threading.Condition()

        def gate(batch: ReportBatch) -> None:
            # Slot-skew gate: never run more than max_slot_skew slots
            # ahead of the barrier clock, so a stalled shard cannot make
            # the others park the whole horizon in the barrier buffer.
            # The laggard shard (batch.t == next_slot) passes untouched,
            # which is what makes the gate deadlock-free.  The timeout
            # re-check covers a clock advance raced between the predicate
            # and the wait.
            with clock:
                while (
                    batch.t >= self._next_slot + self.max_slot_skew
                    and not queue.closed
                ):
                    clock.wait(0.05)

        def produce(assigned: List[ShardFeed]) -> None:
            # Slot-major interleave across this worker's feeds keeps the
            # barrier buffer small: no feed runs a full horizon ahead.
            try:
                iterators = [iter(feed) for feed in assigned]
                for _ in range(self.horizon):
                    for iterator in iterators:
                        batch = next(iterator)
                        gate(batch)
                        queue.put(batch)
            except QueueClosedError:
                pass
            except BaseException as error:  # propagate to the consumer
                errors.append(error)
                queue.close(abort=True)
            finally:
                with lock:
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        queue.close()
                with clock:
                    clock.notify_all()

        threads = [
            threading.Thread(
                target=produce,
                args=(feeds[index::n_producers],),
                name=f"repro-feed-{index}",
                daemon=True,
            )
            for index in range(n_producers)
        ]
        for thread in threads:
            thread.start()
        try:
            while True:
                drained = queue.get_batch()
                if not drained:
                    break
                before = self._next_slot
                for batch in drained:
                    self.submit(batch)
                if self._next_slot != before:
                    with clock:
                        clock.notify_all()
        except BaseException:
            queue.close(abort=True)
            with clock:
                clock.notify_all()
            raise
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        return queue.stats


def run_live(
    source,
    algorithm: "str | Sequence[str]" = "capp",
    epsilon: float = 1.0,
    w: int = 10,
    smoothing_window: Optional[int] = 3,
    participation: "float | Sequence[float] | None" = None,
    seed: int = 0,
    chunk_size: Optional[int] = None,
    max_workers: int = 1,
    queue_capacity: int = 256,
    coalesce: int = 8,
    max_slot_skew: int = 8,
    sinks: Sequence[Sink] = (),
    dashboards: Optional[Dict[str, StreamingQueryEngine]] = None,
    record_batches: bool = False,
    track_users: bool = False,
    keep_reports: bool = True,
    record_history: bool = False,
    attack=None,
    robust_policy=None,
) -> LiveRunResult:
    """Serve a population source through the live ingestion pipeline.

    The online counterpart of
    :func:`~repro.runtime.run_protocol_sharded`: same per-shard
    randomness, same merge order, bit-identical collector — but slots
    stream through continuously, dashboards update incrementally, and
    sinks observe every event as it happens.  The w-event audit runs
    before returning, exactly like the offline path.

    Args:
        source: a :class:`~repro.runtime.sources.StreamSource` or raw
            ``(users, slots)`` matrix (wrapped via ``chunk_size``).
        algorithm, epsilon, w, smoothing_window, participation, seed:
            protocol parameters, as in the offline runtime.
        chunk_size: users per shard when ``source`` is a raw matrix.
        max_workers: producer threads (``1`` = strict serial slot clock).
        queue_capacity, coalesce, max_slot_skew: threaded-mode admission
            control (queue depth and producer slot-skew bound).
        sinks: output sinks attached for the run (closed afterwards).
        dashboards: ``{name: StreamingQueryEngine}`` fed by slot means.
        record_batches: emit every batch to sinks (replayable capture).
        track_users, keep_reports: collector memory/feature switches.
        record_history: keep full per-slot budget ledgers on the feeds.
        attack: optional :class:`~repro.adversary.AttackSpec` (or dict
            form); ``None`` uses the source's default.
        robust_policy: optional
            :class:`~repro.adversary.RobustPolicy` (or name/dict form)
            applied by the pipeline's collector.

    Returns:
        A :class:`LiveRunResult` (already audited).
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
    horizon = feeds[0].horizon if feeds else 0
    if not feeds:
        raise ValueError("source yielded no chunks; nothing to serve")
    pipeline = IngestionPipeline(
        n_shards=len(feeds),
        horizon=horizon,
        epsilon=epsilon,
        w=w,
        smoothing_window=smoothing_window,
        track_users=track_users,
        keep_reports=keep_reports,
        queue_capacity=queue_capacity,
        coalesce=coalesce,
        max_slot_skew=max_slot_skew,
        record_batches=record_batches,
        robust_policy=robust_policy,
    )
    for sink in sinks:
        pipeline.add_sink(sink)
    for name, engine in (dashboards or {}).items():
        pipeline.register_dashboard(name, engine)
    metadata = {
        "algorithm": algorithm if isinstance(algorithm, str) else "per-user",
        "seed": int(seed),
    }
    result = pipeline.serve(feeds, max_workers=max_workers, metadata=metadata)
    result.assert_valid()
    return result


def replay_event_log(
    log: Union[EventLogSource, str],
    sinks: Sequence[Sink] = (),
    dashboards: Optional[Dict[str, StreamingQueryEngine]] = None,
    record_batches: bool = False,
) -> LiveRunResult:
    """Re-ingest a recorded run from its JSONL event log.

    Rebuilds a pipeline from the log's ``run_started`` configuration and
    replays every recorded batch through the same slot barrier, so the
    resulting collector is bit-identical to the recording run's — no
    mechanism is re-run, no budget is re-spent (the values are already
    sanitized, and the audit ran when the log was recorded).
    """
    source = log if isinstance(log, EventLogSource) else EventLogSource(log)
    meta = source.metadata()
    pipeline = IngestionPipeline(
        n_shards=int(meta["n_shards"]),
        horizon=int(meta["horizon"]),
        epsilon=float(meta["epsilon"]),
        w=int(meta["w"]),
        smoothing_window=meta.get("smoothing_window"),
        track_users=bool(meta.get("track_users", False)),
        keep_reports=bool(meta.get("keep_reports", True)),
        record_batches=record_batches,
        robust_policy=meta.get("robust_policy"),
    )
    for sink in sinks:
        pipeline.add_sink(sink)
    for name, engine in (dashboards or {}).items():
        pipeline.register_dashboard(name, engine)
    pipeline._emit({**meta, "replayed_from": source.path})

    start = time.perf_counter()
    try:
        for batch in source.batches():
            pipeline.submit(batch)
        pipeline.finish()
    except BaseException:
        for sink in sinks:
            sink.close()
        raise
    elapsed = time.perf_counter() - start
    return pipeline.build_result(elapsed, extra={"replayed_from": source.path})
