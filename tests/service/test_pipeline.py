"""IngestionPipeline: slot barrier, determinism, dashboards, replay.

The determinism headline — live == offline sharded, bit for bit — is
pinned here for serial and threaded serving, out-of-order submission,
and event-log replay; the golden fixtures (tests/golden) additionally
pin the absolute values.
"""

import numpy as np
import pytest

from repro.analysis.streaming_queries import (
    RollingMean,
    StreamingQueryEngine,
    ThresholdAlert,
)
from repro.runtime import MatrixSource, ScenarioSource, make_scenario, run_protocol_sharded
from repro.service import (
    EventLogSource,
    IngestionPipeline,
    JSONLSink,
    MemorySink,
    ReportBatch,
    replay_event_log,
    run_live,
    shard_feeds,
)

N_USERS, HORIZON, CHUNK = 36, 9, 10  # 4 shards, last one ragged
PARAMS = dict(algorithm="capp", epsilon=1.2, w=6, participation=0.9, seed=17)


def _source():
    matrix = np.random.default_rng(8).random((N_USERS, HORIZON))
    return MatrixSource(matrix, chunk_size=CHUNK)


@pytest.fixture(scope="module")
def offline():
    return run_protocol_sharded(_source(), **PARAMS)


def _batch(shard, t, ids=(), values=()):
    return ReportBatch(
        shard=shard,
        t=t,
        user_ids=np.asarray(ids, dtype=np.intp),
        values=np.asarray(values, dtype=float),
    )


class TestDeterminism:
    def test_serial_live_matches_offline_bitwise(self, offline):
        live = run_live(_source(), **PARAMS)
        np.testing.assert_array_equal(
            live.population_mean_series(),
            offline.collector.population_mean_series(),
        )
        assert live.collector.state.slot_sums == offline.collector.state.slot_sums
        assert (
            live.collector.state.slot_counts
            == offline.collector.state.slot_counts
        )
        assert live.n_reports == offline.collector.n_reports

    @pytest.mark.parametrize("max_workers", [2, 5])
    def test_threaded_live_matches_offline_bitwise(self, offline, max_workers):
        live = run_live(
            _source(),
            max_workers=max_workers,
            queue_capacity=3,
            coalesce=2,
            **PARAMS,
        )
        np.testing.assert_array_equal(
            live.population_mean_series(),
            offline.collector.population_mean_series(),
        )
        assert live.queue_stats is not None
        assert live.queue_stats.total_batches == 4 * HORIZON

    def test_out_of_order_submission_is_reordered_by_barrier(self, offline):
        """Reversed shard arrival per slot must not change a single bit."""
        feeds = shard_feeds(_source(), **PARAMS)
        pipeline = IngestionPipeline(
            n_shards=len(feeds), horizon=HORIZON, epsilon=1.2, w=6
        )
        iterators = [iter(feed) for feed in feeds]
        for _ in range(HORIZON):
            for iterator in reversed(iterators):
                pipeline.submit(next(iterator))
        pipeline.finish()
        np.testing.assert_array_equal(
            pipeline.collector.population_mean_series(),
            offline.collector.population_mean_series(),
        )

    def test_slot_reports_match_offline(self, offline):
        live = run_live(_source(), **PARAMS)
        for t in offline.collector.slots():
            np.testing.assert_array_equal(
                live.collector.state.slot_reports(t),
                offline.collector.state.slot_reports(t),
            )


class TestBarrier:
    def test_slot_finalizes_only_when_all_shards_arrive(self):
        pipeline = IngestionPipeline(n_shards=2, horizon=2)
        assert pipeline.submit(_batch(0, 0, [0], [0.5])) == []
        assert pipeline.next_slot == 0
        finalized = pipeline.submit(_batch(1, 0, [10], [0.7]))
        assert [est.t for est in finalized] == [0]
        assert pipeline.next_slot == 1

    def test_laggard_batch_finalizes_multiple_slots(self):
        pipeline = IngestionPipeline(n_shards=2, horizon=3)
        pipeline.submit(_batch(0, 0, [0], [0.5]))
        pipeline.submit(_batch(0, 1, [0], [0.6]))
        pipeline.submit(_batch(1, 1, [10], [0.7]))  # slot 0 still open
        assert pipeline.next_slot == 0
        finalized = pipeline.submit(_batch(1, 0, [10], [0.4]))
        assert [est.t for est in finalized] == [0, 1]

    def test_duplicate_shard_slot_rejected(self):
        pipeline = IngestionPipeline(n_shards=2, horizon=2)
        pipeline.submit(_batch(0, 0, [0], [0.5]))
        with pytest.raises(ValueError, match="duplicate batch"):
            pipeline.submit(_batch(0, 0, [1], [0.5]))

    def test_late_arrival_after_finalization_rejected(self):
        pipeline = IngestionPipeline(n_shards=1, horizon=2)
        pipeline.submit(_batch(0, 0, [0], [0.5]))
        with pytest.raises(ValueError, match="after the slot finalized"):
            pipeline.submit(_batch(0, 0, [1], [0.5]))

    def test_out_of_range_slot_and_shard_rejected(self):
        pipeline = IngestionPipeline(n_shards=1, horizon=2)
        with pytest.raises(ValueError, match="beyond the run horizon"):
            pipeline.submit(_batch(0, 2, [0], [0.5]))
        with pytest.raises(ValueError, match="shard 1"):
            pipeline.submit(_batch(1, 0, [0], [0.5]))

    def test_finish_reports_missing_shards(self):
        pipeline = IngestionPipeline(n_shards=3, horizon=1)
        pipeline.submit(_batch(1, 0, [0], [0.5]))
        with pytest.raises(RuntimeError, match=r"shards \[0, 2\]"):
            pipeline.finish()

    def test_submit_after_finish_rejected(self):
        pipeline = IngestionPipeline(n_shards=1, horizon=1)
        pipeline.submit(_batch(0, 0, [0], [0.5]))
        pipeline.finish()
        with pytest.raises(RuntimeError, match="already finished"):
            pipeline.submit(_batch(0, 0, [0], [0.5]))

    def test_empty_slot_finalizes_with_none_mean(self):
        pipeline = IngestionPipeline(n_shards=1, horizon=1)
        dashboard = pipeline.register_dashboard("dash")
        dashboard.register("mean", RollingMean(3))
        finalized = pipeline.submit(_batch(0, 0))
        assert finalized[0].mean is None
        assert finalized[0].n_reports == 0
        # No published value exists, so the dashboard must not advance.
        assert dashboard.values_seen == 0
        assert finalized[0].answers["dash"]["mean"] is None


class TestDashboardsAndSinks:
    def test_dashboard_sees_every_published_slot_mean(self, offline):
        dashboard = StreamingQueryEngine()
        dashboard.register("mean", RollingMean(window=HORIZON))
        live = run_live(_source(), dashboards={"main": dashboard}, **PARAMS)
        assert dashboard.values_seen == HORIZON
        expected = float(np.mean(offline.collector.population_mean_series()))
        assert dashboard.answers()["mean"] == pytest.approx(expected)
        assert live.slots[-1].answers["main"]["mean"] == pytest.approx(expected)

    def test_alerts_fire_from_slot_estimates(self):
        source = MatrixSource(np.full((20, 6), 0.95), chunk_size=10)
        dashboard = StreamingQueryEngine()
        dashboard.register("hot", ThresholdAlert(2, threshold=0.6))
        run_live(
            source,
            algorithm="sw-direct",
            epsilon=3.0,
            w=4,
            seed=1,
            dashboards={"d": dashboard},
        )
        assert dashboard.query("hot").fired_count >= 1

    def test_sink_receives_lifecycle_and_slot_records(self):
        sink = MemorySink()
        run_live(_source(), sinks=[sink], **PARAMS)
        types = [record["type"] for record in sink.records]
        assert types[0] == "run_started"
        assert types[-1] == "run_finished"
        assert types.count("slot") == HORIZON
        assert sink.records[0]["n_shards"] == 4

    def test_record_batches_captures_every_batch(self):
        sink = MemorySink()
        run_live(_source(), sinks=[sink], record_batches=True, **PARAMS)
        assert len(sink.of_type("batch")) == 4 * HORIZON

    def test_duplicate_dashboard_name_rejected(self):
        pipeline = IngestionPipeline(n_shards=1, horizon=1)
        pipeline.register_dashboard("dash")
        with pytest.raises(ValueError, match="already registered"):
            pipeline.register_dashboard("dash")

    def test_wrong_sink_and_engine_types_rejected(self):
        pipeline = IngestionPipeline(n_shards=1, horizon=1)
        with pytest.raises(TypeError):
            pipeline.add_sink(object())
        with pytest.raises(TypeError):
            pipeline.register_dashboard("x", engine=object())


class TestServeValidation:
    def test_feed_count_must_match_shards(self):
        feeds = shard_feeds(_source(), **PARAMS)
        pipeline = IngestionPipeline(n_shards=2, horizon=HORIZON)
        with pytest.raises(ValueError, match="2 shards but got 4 feeds"):
            pipeline.serve(feeds)

    def test_producer_error_propagates_in_threaded_mode(self):
        feeds = shard_feeds(_source(), **PARAMS)

        class Boom(RuntimeError):
            pass

        class ExplodingFeed:
            shard = feeds[1].shard
            horizon = feeds[1].horizon

            def __iter__(self):
                raise Boom("producer died")

        broken = [feeds[0], ExplodingFeed(), feeds[2], feeds[3]]
        pipeline = IngestionPipeline(n_shards=4, horizon=HORIZON)
        with pytest.raises(Boom):
            pipeline.serve(broken, max_workers=3)


class TestReplay:
    def test_replay_reproduces_recorded_run_bitwise(self, tmp_path, offline):
        log = tmp_path / "events.jsonl"
        live = run_live(
            _source(), sinks=[JSONLSink(log)], record_batches=True, **PARAMS
        )
        replayed = replay_event_log(log)
        np.testing.assert_array_equal(
            replayed.population_mean_series(),
            offline.collector.population_mean_series(),
        )
        assert replayed.collector.state.slot_sums == live.collector.state.slot_sums
        assert replayed.n_reports == live.n_reports

    def test_replay_feeds_dashboards(self, tmp_path):
        log = tmp_path / "events.jsonl"
        run_live(_source(), sinks=[JSONLSink(log)], record_batches=True, **PARAMS)
        dashboard = StreamingQueryEngine()
        dashboard.register("mean", RollingMean(3))
        replay_event_log(log, dashboards={"d": dashboard})
        assert dashboard.values_seen == HORIZON

    def test_replayed_result_has_no_ledgers_to_audit(self, tmp_path):
        log = tmp_path / "events.jsonl"
        run_live(_source(), sinks=[JSONLSink(log)], record_batches=True, **PARAMS)
        replayed = replay_event_log(log)
        with pytest.raises(RuntimeError, match="no budget ledgers"):
            replayed.assert_valid()

    def test_log_without_batches_raises(self, tmp_path):
        log = tmp_path / "events.jsonl"
        run_live(_source(), sinks=[JSONLSink(log)], **PARAMS)  # no batches
        with pytest.raises(ValueError, match="no batch records"):
            replay_event_log(log)

    def test_log_without_run_started_raises(self, tmp_path):
        log = tmp_path / "bare.jsonl"
        log.write_text('{"type": "batch", "shard": 0, "t": 0}\n')
        with pytest.raises(ValueError, match="no run_started record"):
            EventLogSource(log).metadata()

    def test_corrupted_log_line_raises(self, tmp_path):
        log = tmp_path / "corrupt.jsonl"
        log.write_text('{"type": "run_started"}\n{broken\n')
        with pytest.raises(ValueError, match="line 2 is not valid JSON"):
            list(EventLogSource(log).batches())

    def test_wrong_format_tag_raises(self, tmp_path):
        log = tmp_path / "other.jsonl"
        log.write_text('{"type": "run_started", "format": "other.v9"}\n')
        with pytest.raises(ValueError, match="unsupported event log format"):
            EventLogSource(log).metadata()


class TestScenarioServing:
    def test_scenario_source_uses_its_churn_schedule(self):
        spec = make_scenario("churn", n_users=40, horizon=12)
        source = ScenarioSource(spec, chunk_size=20, seed=3)
        live = run_live(source, epsilon=1.0, w=5, seed=4)
        offline = run_protocol_sharded(source, epsilon=1.0, w=5, seed=4)
        np.testing.assert_array_equal(
            live.population_mean_series(),
            offline.collector.population_mean_series(),
        )
        # Churn means not everyone reports every slot.
        assert live.n_reports < 40 * 12

    def test_live_audit_passes(self):
        live = run_live(_source(), **PARAMS)
        live.assert_valid()  # must not raise


class TestCrossShardDuplicates:
    def test_same_user_from_two_shards_rejected_without_tracking(self):
        """The barrier catches id collisions even at serving scale
        (track_users=False), where the collector itself cannot."""
        pipeline = IngestionPipeline(n_shards=2, horizon=1)
        pipeline.submit(_batch(0, 0, [3], [0.4]))
        with pytest.raises(ValueError, match="more than one shard"):
            pipeline.submit(_batch(1, 0, [3], [0.6]))

    def test_disjoint_ids_from_two_shards_accepted(self):
        pipeline = IngestionPipeline(n_shards=2, horizon=1)
        pipeline.submit(_batch(0, 0, [3], [0.4]))
        finalized = pipeline.submit(_batch(1, 0, [4], [0.6]))
        assert finalized[0].n_reports == 2


class TestEdgeValidation:
    """Content is validated once, in submit, before anything is logged."""

    def test_unsorted_unique_batch_accepted(self):
        pipeline = IngestionPipeline(n_shards=2, horizon=1)
        pipeline.submit(_batch(0, 0, [4, 1, 3], [0.1, 0.2, 0.3]))
        finalized = pipeline.submit(_batch(1, 0, [9, 6], [0.4, 0.5]))
        assert finalized[0].n_reports == 5

    @pytest.mark.parametrize(
        "ids, values, match",
        [
            ([1, 2, 2], [0.5] * 3, "duplicate user ids"),
            ([3, 1, 3], [0.5] * 3, "duplicate user ids"),
            ([0, 1], [0.5, np.nan], "finite"),
            ([-1, 1], [0.5, 0.5], "non-negative"),
        ],
    )
    def test_bad_content_rejected_at_submit(self, ids, values, match):
        pipeline = IngestionPipeline(n_shards=2, horizon=1)
        with pytest.raises(ValueError, match=match):
            pipeline.submit(_batch(0, 0, ids, values))
        assert pipeline.pending_batches() == []
        assert not pipeline.has_batch(0, 0)

    @pytest.mark.parametrize("ids", [[5], [0, 20], [11, 30], [10, 2]])
    def test_overlapping_range_rejected_before_the_wal(self, tmp_path, ids):
        from repro.wal import WriteAheadLog

        pipeline = IngestionPipeline(n_shards=3, horizon=2)
        wal = pipeline.attach_wal(WriteAheadLog(str(tmp_path)))
        pipeline.start_run()
        pipeline.submit(_batch(0, 0, [3, 7, 11], [0.1, 0.2, 0.3]))
        pending, records = pipeline.pending_batches(), wal.records_appended
        with pytest.raises(ValueError, match="disjoint user ranges"):
            pipeline.submit(_batch(1, 0, ids, [0.5] * len(ids)))
        assert pipeline.pending_batches() == pending
        assert wal.records_appended == records
        # The refused shard may still deliver a correct batch.
        pipeline.submit(_batch(1, 0, [12, 30], [0.4, 0.6]))
        finalized = pipeline.submit(_batch(2, 0))
        assert finalized[0].n_reports == 5
        wal.close()

    def test_ranges_only_conflict_within_a_slot(self):
        pipeline = IngestionPipeline(n_shards=2, horizon=2)
        pipeline.submit(_batch(0, 1, [0, 9], [0.1, 0.2]))
        pipeline.submit(_batch(1, 0, [0, 9], [0.3, 0.4]))
        pipeline.submit(_batch(0, 0))
        assert pipeline.submit(_batch(1, 1, [10], [0.5]))[0].n_reports == 3

    def test_serving_hot_path_has_no_unique_or_per_id_call(self, offline, monkeypatch):
        """Sorted shard feeds never reach np.unique, and without user
        tracking no per-id history lookup runs."""
        from repro.protocol.collector import CollectorShardState

        feeds = shard_feeds(_source(), **PARAMS)
        batches = [batch for feed in feeds for batch in feed]

        def forbidden(*args, **kwargs):
            raise AssertionError("called on the serving hot path")

        monkeypatch.setattr(np, "unique", forbidden)
        monkeypatch.setattr(CollectorShardState, "has_report", forbidden)
        pipeline = IngestionPipeline(n_shards=len(feeds), horizon=HORIZON, epsilon=1.2, w=6)
        for batch in batches:
            pipeline.submit(batch)
        assert pipeline.complete
        monkeypatch.undo()
        np.testing.assert_array_equal(
            pipeline.collector.population_mean_series(),
            offline.collector.population_mean_series(),
        )


class TestSlotSkewBound:
    def test_stalled_shard_cannot_blow_up_the_barrier_buffer(self, offline):
        """With one producer stalling per slot, fast shards must be gated
        at max_slot_skew — the barrier buffer stays bounded and results
        stay bit-identical."""
        import time as _time

        feeds = shard_feeds(_source(), **PARAMS)

        class SlowFeed:
            def __init__(self, feed):
                self._feed = feed
                self.shard = feed.shard
                self.horizon = feed.horizon

            def __iter__(self):
                for batch in self._feed:
                    _time.sleep(0.002)  # always the laggard
                    yield batch

        slowed = [SlowFeed(feeds[0]), *feeds[1:]]
        pipeline = IngestionPipeline(
            n_shards=4,
            horizon=HORIZON,
            epsilon=1.2,
            w=6,
            max_slot_skew=2,
            queue_capacity=64,
        )
        # One thread per shard: the three fast shards would otherwise run
        # the whole horizon ahead of the stalled one.
        result = pipeline.serve(slowed, max_workers=4)
        np.testing.assert_array_equal(
            result.population_mean_series(),
            offline.collector.population_mean_series(),
        )
        assert pipeline.pending_high_watermark <= 4 * (2 + 1)

    def test_serial_serving_has_minimal_barrier_occupancy(self):
        feeds = shard_feeds(_source(), **PARAMS)
        pipeline = IngestionPipeline(n_shards=4, horizon=HORIZON, epsilon=1.2, w=6)
        pipeline.serve(feeds, max_workers=1)
        assert pipeline.pending_high_watermark <= 4


class TestSinkLifecycleOnFailure:
    def test_sinks_are_flushed_when_the_run_dies(self, tmp_path):
        """A crashed serve must still leave a readable event log behind."""

        class Boom(RuntimeError):
            pass

        feeds = shard_feeds(_source(), **PARAMS)

        class ExplodingFeed:
            shard = feeds[1].shard
            horizon = feeds[1].horizon

            def __iter__(self):
                yield from ()
                raise Boom("producer died")

        sink = JSONLSink(tmp_path / "postmortem.jsonl")
        pipeline = IngestionPipeline(n_shards=4, horizon=HORIZON)
        pipeline.add_sink(sink)
        with pytest.raises((Boom, RuntimeError)):
            pipeline.serve([feeds[0], ExplodingFeed(), feeds[2], feeds[3]])
        assert sink._fh.closed
        lines = (tmp_path / "postmortem.jsonl").read_text().splitlines()
        assert lines, "run_started must have been flushed for post-mortem"
