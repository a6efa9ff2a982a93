"""Distributed gateway: aggregation tree, scale-out, and recovery.

The contract under test is the repo's signature invariant extended one
tier up: however many worker processes the shard range is split across,
and however often workers die, reconnect, or resend, the root-merged
estimates are bit-identical to ``run_protocol_sharded`` with the same
seed and shard decomposition.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.analysis.streaming_queries import (
    RollingExtrema,
    RollingMean,
    RollingTrend,
    StreamingQueryEngine,
    ThresholdAlert,
)
from repro.experiments.cli import main
from repro.gateway import (
    GatewayWorker,
    RootAggregator,
    ShardStateAggregator,
    WorkerSpec,
    aggregate_worker_metrics,
    install_event_loop,
    recover_worker,
    run_chaos,
    run_distributed,
    run_distributed_fleet_async,
    run_distributed_processes,
    shard_ranges,
    worker_for_shard,
)
from repro.gateway.eventloop import LOOP_ENV_VAR
from repro.gateway.wire import (
    FrameType,
    decode_control,
    encode_control,
    encode_shard_state_frame,
    read_frame,
)
from repro.protocol.messages import ShardSlotState, encode_shard_state
from repro.runtime import MatrixSource, run_protocol_sharded
from repro.service import MemorySink, run_live, shard_feeds
from repro.wal import WriteAheadLog

N_USERS, HORIZON, CHUNK = 36, 9, 9  # four shards
PARAMS = dict(epsilon=1.2, w=6, seed=17)


def _source():
    matrix = np.random.default_rng(8).random((N_USERS, HORIZON))
    return MatrixSource(matrix, chunk_size=CHUNK)


@pytest.fixture(scope="module")
def offline():
    return run_protocol_sharded(_source(), **PARAMS)


def _assert_matches_offline(result, offline):
    np.testing.assert_array_equal(
        result.population_mean_series(),
        offline.collector.population_mean_series(),
    )
    assert result.collector.state.slot_sums == offline.collector.state.slot_sums
    assert result.collector.state.slot_counts == offline.collector.state.slot_counts
    assert result.n_reports == offline.collector.state.n_reports


class TestTopology:
    def test_shard_ranges_contiguous_and_near_even(self):
        assert shard_ranges(4, 2) == [(0, 2), (2, 4)]
        assert shard_ranges(7, 3) == [(0, 3), (3, 5), (5, 7)]
        ranges = shard_ranges(10, 4)
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        assert all(hi == nxt_lo for (_, hi), (nxt_lo, _) in zip(ranges, ranges[1:]))
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_shard_ranges_rejects_bad_fleet(self):
        with pytest.raises(ValueError):
            shard_ranges(4, 0)
        with pytest.raises(ValueError):
            shard_ranges(2, 3)

    def test_worker_for_shard_routes_by_range(self):
        topology = [WorkerSpec(0, 0, 2), WorkerSpec(1, 2, 4)]
        assert worker_for_shard(topology, 0).worker == 0
        assert worker_for_shard(topology, 3).worker == 1
        with pytest.raises(ValueError):
            worker_for_shard(topology, 4)


def _state(shard, t, values, ids=None, total=None):
    segment = np.asarray(values, dtype=float)
    return ShardSlotState(
        shard=shard,
        t=t,
        n_reports=len(values),
        total=float(segment.sum()) if total is None else total,
        values=segment,
        user_ids=None if ids is None else np.asarray(ids, dtype=np.int64),
    )


class TestAggregatorProtocol:
    def _agg(self, **kwargs):
        return ShardStateAggregator(2, 3, epsilon=1.0, w=3, **kwargs)

    def test_slot_finalizes_once_all_shards_arrive(self):
        agg = self._agg()
        assert agg.submit(_state(0, 0, [0.5])) == []
        finalized = agg.submit(_state(1, 0, [0.75]))
        assert [e.t for e in finalized] == [0]
        assert agg.collector.state.slot_counts[0] == 2

    def test_duplicate_submit_refused_without_double_merge(self):
        agg = self._agg()
        agg.submit(_state(0, 0, [0.5, 0.25]))
        assert agg.has_batch(0, 0) and not agg.has_batch(0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            agg.submit(_state(0, 0, [0.5, 0.25]))
        assert agg.collector.state.n_reports == 0  # nothing merged yet

    def test_out_of_range_shard_and_slot_rejected(self):
        agg = self._agg()
        with pytest.raises(ValueError, match="shard"):
            agg.submit(_state(5, 0, [0.5]))
        with pytest.raises(ValueError, match="horizon"):
            agg.submit(_state(0, 3, [0.5]))
        with pytest.raises(TypeError, match="ShardSlotState"):
            agg.submit(object())

    def test_missing_values_segment_rejected_when_reports_kept(self):
        agg = self._agg(keep_reports=True)
        bare = ShardSlotState(shard=0, t=0, n_reports=2, total=1.0)
        with pytest.raises(ValueError, match="values segment"):
            agg.submit(bare)

    def test_missing_id_segment_rejected_when_users_tracked(self):
        agg = self._agg(track_users=True)
        with pytest.raises(ValueError, match="user-id segment"):
            agg.submit(_state(0, 0, [0.5]))


class TestRootEdgeCheck:
    """Bad state content is refused at ``submit``, before it is buffered."""

    def _agg(self, **kwargs):
        agg = ShardStateAggregator(2, 2, epsilon=1.0, w=2, **kwargs)
        agg.submit(_state(0, 0, [0.25, 0.5], ids=[0, 1]))
        return agg

    def _assert_untouched(self, agg):
        assert [(s.t, s.shard) for s in agg.pending_batches()] == [(0, 0)]
        assert agg.collector.state.n_reports == 0
        assert agg.next_slot == 0

    @pytest.mark.parametrize("total", [np.nan, np.inf, -np.inf])
    def test_non_finite_total_refused(self, total):
        agg = self._agg()
        bare = ShardSlotState(shard=1, t=0, n_reports=1, total=total)
        with pytest.raises(ValueError, match="non-finite slot sum"):
            agg.submit(bare)
        with pytest.raises(ValueError, match="non-finite slot sum"):
            agg.submit(_state(1, 0, [0.5], total=total))
        self._assert_untouched(agg)

    def test_total_that_is_not_the_sum_of_the_values_refused(self):
        agg = self._agg()
        with pytest.raises(ValueError, match="sum of its values"):
            agg.submit(_state(1, 0, [0.1, 0.2], total=5.0))
        self._assert_untouched(agg)
        # The exact bits count: one ulp off is a different fold.
        exact = float(np.array([0.1, 0.2]).sum())
        with pytest.raises(ValueError, match="sum of its values"):
            agg.submit(_state(1, 0, [0.1, 0.2], total=np.nextafter(exact, 1.0)))
        self._assert_untouched(agg)

    def test_non_finite_values_refused(self):
        agg = self._agg(keep_reports=True)
        with pytest.raises(ValueError, match="finite"):
            agg.submit(_state(1, 0, [0.5, np.nan], total=0.5))
        with pytest.raises(ValueError, match="finite"):
            agg.submit(_state(1, 0, [0.5, np.inf], ids=[5, 6], total=np.inf))
        self._assert_untouched(agg)

    @pytest.mark.parametrize(
        "ids, match",
        [([1, 7], "overlap shard 0"), ([-3, 7], "non-negative"), ([7, 7], "duplicate")],
    )
    def test_bad_user_ids_refused_before_they_poison_the_fold(self, ids, match):
        agg = self._agg(track_users=True)
        with pytest.raises(ValueError, match=match):
            agg.submit(_state(1, 0, [0.5, 0.75], ids=ids))
        self._assert_untouched(agg)
        # The honest resend still completes the slot.
        finalized = agg.submit(_state(1, 0, [0.5, 0.75], ids=[2, 3]))
        assert [e.t for e in finalized] == [0]
        assert agg.collector.state.by_user[3] == {0: 0.75}

    def test_segments_must_match_the_report_count(self):
        agg = self._agg(keep_reports=False)
        with pytest.raises(ValueError, match="hold 3 reports"):
            agg.submit(
                ShardSlotState(shard=1, t=0, n_reports=3, total=0.5, values=np.array([0.5]))
            )
        with pytest.raises(ValueError, match="no values segment"):
            agg.submit(
                ShardSlotState(shard=1, t=0, n_reports=1, total=0.5, user_ids=np.array([4]))
            )
        self._assert_untouched(agg)


async def _worker_hello(port, lo, hi, worker=0):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        encode_control(FrameType.WORKER_HELLO, worker=worker, shard_lo=lo, shard_hi=hi)
    )
    await writer.drain()
    frame_type, payload = await read_frame(reader)
    assert frame_type == FrameType.WORKER_HELLO_ACK
    return reader, writer, decode_control(payload)


async def _send_slot(reader, writer, states, t):
    """Stream one slot's states plus SLOT_FINAL; return the reply frame."""
    for state in states:
        writer.write(encode_shard_state_frame(state))
    writer.write(encode_control(FrameType.SLOT_FINAL, t=t))
    await writer.drain()
    frame_type, payload = await read_frame(reader)
    return frame_type, decode_control(payload)


async def _close(writer):
    writer.close()
    await writer.wait_closed()


class TestRootProtocol:
    """The root's per-shard clock, exercised over its TCP front."""

    def _serve(self, drill, **kwargs):
        async def _run():
            root = RootAggregator(ShardStateAggregator(2, 3, epsilon=1.0, w=3, **kwargs))
            await root.start()
            try:
                return await drill(root)
            finally:
                await root.stop()

        return asyncio.run(_run())

    def test_duplicate_resend_is_acked_idempotently(self):
        async def drill(root):
            reader, writer, _ = await _worker_hello(root.port, 0, 1)
            state = _state(0, 0, [0.5, 0.25])
            writer.write(encode_shard_state_frame(state))
            frame_type, fields = await _send_slot(reader, writer, [state], 0)
            await _close(writer)
            assert frame_type == FrameType.STATE_ACK and fields["t"] == 0
            assert root.metrics.duplicates == 1
            assert root.metrics.batches_accepted == 1
            assert len(root.aggregator.pending_batches()) == 1
            assert root.aggregator.collector.state.n_reports == 0  # no double merge

        self._serve(drill)

    def test_out_of_order_delivery_answers_error(self):
        async def drill(root):
            reader, writer, _ = await _worker_hello(root.port, 0, 1)
            frame_type, fields = await _send_slot(reader, writer, [_state(0, 1, [0.5])], 1)
            await _close(writer)
            assert frame_type == FrameType.ERROR
            assert "slot order" in fields["message"]
            assert root.aggregator.pending_batches() == []
            assert root.metrics.protocol_errors == 1

        self._serve(drill)

    def test_hello_ack_resumes_at_earliest_missing_slot_in_range(self):
        async def drill(root):
            reader, writer, ack = await _worker_hello(root.port, 0, 1)
            assert ack["resume_slot"] == 0
            frame_type, _ = await _send_slot(reader, writer, [_state(0, 0, [0.5])], 0)
            assert frame_type == FrameType.STATE_ACK
            await _close(writer)
            _, writer, ack = await _worker_hello(root.port, 0, 1)
            assert ack["resume_slot"] == 1
            await _close(writer)
            _, writer, ack = await _worker_hello(root.port, 0, 2)
            assert ack["resume_slot"] == 0  # shard 1 has delivered nothing
            await _close(writer)
            reader, writer = await asyncio.open_connection("127.0.0.1", root.port)
            writer.write(encode_control(FrameType.WORKER_HELLO, worker=9, shard_lo=1, shard_hi=1))
            await writer.drain()
            frame_type, _ = await read_frame(reader)
            await _close(writer)
            assert frame_type == FrameType.ERROR  # empty range

        self._serve(drill)

    def test_bad_state_errors_only_its_worker_and_the_run_finishes(self):
        """A poisoned state answers ERROR to its own worker; the root's
        barrier and collector do not move and the honest worker finishes."""

        async def drill(root):
            agg = root.aggregator
            good = [_state(0, t, [0.25, 0.5], ids=[0, 1]) for t in range(3)]
            honest_r, honest_w, _ = await _worker_hello(root.port, 0, 1, worker=0)
            assert (await _send_slot(honest_r, honest_w, good[:1], 0))[0] == FrameType.STATE_ACK
            for bad in (
                _state(1, 0, [0.5], ids=[5], total=np.nan),
                _state(1, 0, [0.1, 0.2], ids=[5, 6], total=5.0),
                _state(1, 0, [0.5, 0.75], ids=[1, 7]),  # shard 0 shipped id 1
            ):
                reader, writer, _ = await _worker_hello(root.port, 1, 2, worker=1)
                frame_type, fields = await _send_slot(reader, writer, [bad], 0)
                await _close(writer)
                assert frame_type == FrameType.ERROR, fields
                assert [(s.t, s.shard) for s in agg.pending_batches()] == [(0, 0)]
                assert agg.collector.state.n_reports == 0 and agg.next_slot == 0
            reader, writer, ack = await _worker_hello(root.port, 1, 2, worker=1)
            assert ack["resume_slot"] == 0
            for t in range(3):
                frame_type, _ = await _send_slot(
                    reader, writer, [_state(1, t, [0.75], ids=[2])], t
                )
                assert frame_type == FrameType.STATE_ACK
                if t:
                    frame_type, _ = await _send_slot(honest_r, honest_w, good[t : t + 1], t)
                    assert frame_type == FrameType.STATE_ACK
            for r, w in ((honest_r, honest_w), (reader, writer)):
                w.write(encode_control(FrameType.FIN))
                await w.drain()
                assert (await read_frame(r))[0] == FrameType.FIN_ACK
                await _close(w)
            await root.wait_complete(timeout=10.0)
            assert root.metrics.protocol_errors == 3
            return root.result()

        result = self._serve(drill, track_users=True)
        assert [s.n_reports for s in result.slots] == [3, 3, 3]
        assert result.collector.state.by_user[2] == {0: 0.75, 1: 0.75, 2: 0.75}


class TestBitEquality:
    @pytest.mark.parametrize("algorithm", ["capp", "sw-direct", "pm-app"])
    def test_three_estimators_match_offline(self, algorithm):
        params = dict(PARAMS, algorithm=algorithm)
        offline = run_protocol_sharded(_source(), **params)
        run = run_distributed(_source(), workers=2, **params)
        _assert_matches_offline(run.result, offline)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_every_fleet_size_matches_offline(self, workers, offline):
        run = run_distributed(_source(), workers=workers, **PARAMS)
        _assert_matches_offline(run.result, offline)
        assert len(run.topology) == workers

    def test_track_users_and_report_memory_survive_the_tree(self):
        tracked = run_protocol_sharded(_source(), track_users=True, **PARAMS)
        run = run_distributed(_source(), workers=2, track_users=True, **PARAMS)
        _assert_matches_offline(run.result, tracked)
        assert run.result.collector.state.by_user == tracked.collector.state.by_user
        for t in range(HORIZON):
            np.testing.assert_array_equal(
                run.result.collector.state.slot_reports(t),
                tracked.collector.state.slot_reports(t),
            )

    def test_client_drops_and_jitter_do_not_change_answers(self, offline):
        run = run_distributed(
            _source(),
            workers=2,
            jitter=0.001,
            drops={1: [2, 5], 3: [0]},
            **PARAMS,
        )
        _assert_matches_offline(run.result, offline)
        assert sum(r.reconnects for r in run.shard_reports) >= 2

    def test_result_passes_the_w_event_audit(self):
        run = run_distributed(_source(), workers=2, **PARAMS)
        run.result.assert_valid()


def _dashboard():
    engine = StreamingQueryEngine()
    engine.register("mean", RollingMean(3))
    engine.register("extrema", RollingExtrema(4))
    engine.register("trend", RollingTrend(3))
    engine.register("hot", ThresholdAlert(2, threshold=0.5))
    return engine


class TestRootDashboardsAndSinks:
    def test_root_publishes_what_the_flat_pipeline_publishes(self):
        """Dashboards and sinks registered on the root see exactly the
        flat pipeline's slot estimates — means, counts and answers."""
        flat_sink = MemorySink()
        flat = run_live(
            _source(), dashboards={"main": _dashboard()}, sinks=[flat_sink], **PARAMS
        )
        feeds = shard_feeds(_source(), **PARAMS)
        aggregator = ShardStateAggregator(
            len(feeds), HORIZON, epsilon=PARAMS["epsilon"], w=PARAMS["w"]
        )
        dashboard = aggregator.register_dashboard("main", _dashboard())
        tree_sink = aggregator.add_sink(MemorySink())

        async def _serve():
            root = RootAggregator(aggregator)
            await root.start()
            fleet = []
            try:
                for i, (lo, hi) in enumerate(shard_ranges(len(feeds), 2)):
                    wkr = GatewayWorker(
                        worker=i,
                        shard_lo=lo,
                        shard_hi=hi,
                        horizon=HORIZON,
                        epsilon=PARAMS["epsilon"],
                        w=PARAMS["w"],
                        root_port=root.port,
                    )
                    await wkr.start()
                    fleet.append(wkr)
                topology = [
                    WorkerSpec(i, wkr.shard_lo, wkr.shard_hi, port=wkr.server.port)
                    for i, wkr in enumerate(fleet)
                ]
                await run_distributed_fleet_async(feeds, topology, seed=PARAMS["seed"])
                for wkr in fleet:
                    await wkr.wait_complete(timeout=60.0)
                await root.wait_complete(timeout=60.0)
            finally:
                for wkr in fleet:
                    await wkr.stop()
                await root.stop()
            return root.result(feeds=feeds)

        tree = asyncio.run(_serve())
        assert tree.slots == flat.slots
        assert all(s.answers["main"] for s in tree.slots)
        assert dashboard.values_seen == HORIZON
        assert tree.dashboards["main"].answers() == flat.dashboards["main"].answers()
        assert tree_sink.of_type("slot") == flat_sink.of_type("slot")
        types = [record["type"] for record in tree_sink.records]
        assert types[0] == "run_started" and types[-1] == "run_finished"
        tree.assert_valid()


class TestWorkerKillRecovery:
    def test_worker_crash_recover_resume_is_bit_identical(self, offline, tmp_path):
        """Kill a WAL-backed worker mid-run, recover it, finish the run."""
        wal_dir = str(tmp_path / "wal0")
        feeds = shard_feeds(_source(), **PARAMS)
        n_shards = len(feeds)
        ranges = shard_ranges(n_shards, 2)

        async def _drill():
            aggregator = ShardStateAggregator(
                n_shards, HORIZON, epsilon=PARAMS["epsilon"], w=PARAMS["w"]
            )
            root = RootAggregator(aggregator)
            await root.start()
            workers = []
            for i, (lo, hi) in enumerate(ranges):
                wkr = GatewayWorker(
                    worker=i,
                    shard_lo=lo,
                    shard_hi=hi,
                    horizon=HORIZON,
                    epsilon=PARAMS["epsilon"],
                    w=PARAMS["w"],
                    root_port=root.port,
                    retry_after=0.01,
                )
                workers.append(wkr)
            workers[0].pipeline.attach_wal(WriteAheadLog(wal_dir, fsync="never"))
            for wkr in workers:
                await wkr.start(metadata={"seed": PARAMS["seed"]})
            victim_port = workers[0].server.port
            topology = [
                WorkerSpec(i, lo, hi, port=workers[i].server.port)
                for i, (lo, hi) in enumerate(ranges)
            ]
            fleet = asyncio.ensure_future(
                run_distributed_fleet_async(feeds, topology, seed=PARAMS["seed"])
            )
            while workers[0].pipeline.next_slot < 4:
                await asyncio.sleep(0.005)
            await workers[0].crash()  # kill -9 equivalent: nothing flushed cleanly

            rebuilt, recovery = recover_worker(
                wal_dir,
                worker=0,
                shard_lo=ranges[0][0],
                shard_hi=ranges[0][1],
                root_host="127.0.0.1",
                root_port=root.port,
                port=victim_port,
                retry_after=0.01,
                fsync="never",
            )
            assert recovery.replayed_batches > 0
            for attempt in range(50):
                try:
                    await rebuilt.start(metadata={"seed": PARAMS["seed"]})
                    break
                except OSError:  # the crashed listener's socket lingers briefly
                    if attempt == 49:
                        raise
                    await asyncio.sleep(0.02)
            workers[0] = rebuilt
            reports = await fleet
            for wkr in workers:
                await wkr.wait_complete(timeout=60.0)
            await root.wait_complete(timeout=60.0)
            for wkr in workers:
                await wkr.stop()
            await root.stop()
            return root.result(feeds=feeds), reports

        result, reports = asyncio.run(_drill())
        _assert_matches_offline(result, offline)
        # The crashed worker's clients reconnected instead of restarting.
        assert sum(r.reconnects for r in reports if r.shard < ranges[0][1]) >= 1
        result.assert_valid()

    def test_chaos_harness_rejects_multi_worker_fleets(self, tmp_path):
        with pytest.raises(ValueError, match="workers must be 1"):
            run_chaos(_source(), str(tmp_path / "wal"), workers=2)


class TestProcessScaleOut:
    def test_process_per_worker_matches_offline(self, offline):
        run = run_distributed_processes(
            _source, n_shards=4, workers=2, **PARAMS
        )
        _assert_matches_offline(run.result, offline)
        assert [r.shard for r in run.shard_reports] == [0, 1, 2, 3]
        payload = run.metrics_payload()
        assert payload["totals"]["n_workers"] == 2
        assert (
            payload["totals"]["reports_accepted"]
            == offline.collector.state.n_reports
        )
        assert set(payload["workers"]) == {"0", "1"}


class TestMetricsAggregation:
    def test_totals_sum_counters_and_keep_worst_latency(self):
        workers = {
            "0": {
                "reports_accepted": 100,
                "bytes_received": 5000,
                "duplicates": 1,
                "elapsed_seconds": 2.0,
                "p50_slot_latency_seconds": 0.002,
                "p99_slot_latency_seconds": 0.010,
            },
            "1": {
                "reports_accepted": 60,
                "bytes_received": 3000,
                "duplicates": 0,
                "elapsed_seconds": 4.0,
                "p50_slot_latency_seconds": 0.003,
                "p99_slot_latency_seconds": 0.007,
            },
        }
        aggregated = aggregate_worker_metrics(workers)
        totals = aggregated["totals"]
        assert totals["reports_accepted"] == 160
        assert totals["bytes_received"] == 8000
        assert totals["duplicates"] == 1
        assert totals["n_workers"] == 2
        # The straggler bounds wall-clock, so the rate divides by it.
        assert totals["elapsed_seconds"] == 4.0
        assert totals["reports_per_second"] == 40.0
        assert totals["worst_p50_slot_latency_seconds"] == 0.003
        assert totals["worst_p99_slot_latency_seconds"] == 0.010
        assert aggregated["workers"] == workers

    def test_empty_fleet_yields_zero_rate(self):
        totals = aggregate_worker_metrics({})["totals"]
        assert totals["n_workers"] == 0
        assert totals["reports_per_second"] == 0.0


class TestEventLoopSelection:
    def test_asyncio_is_explicit_default(self, monkeypatch):
        monkeypatch.delenv(LOOP_ENV_VAR, raising=False)
        assert install_event_loop("asyncio") == "asyncio"
        assert install_event_loop(None) in ("asyncio", "uvloop")

    def test_invalid_choice_rejected(self):
        with pytest.raises(ValueError, match=LOOP_ENV_VAR):
            install_event_loop("gevent")

    def test_env_var_drives_selection(self, monkeypatch):
        monkeypatch.setenv(LOOP_ENV_VAR, "asyncio")
        assert install_event_loop() == "asyncio"

    def test_missing_uvloop_degrades_with_warning(self):
        try:
            import uvloop  # noqa: F401

            pytest.skip("uvloop installed; fallback path not reachable")
        except ImportError:
            pass
        with pytest.warns(RuntimeWarning, match="uvloop"):
            assert install_event_loop("uvloop") == "asyncio"

    def test_selection_never_changes_answers(self, offline):
        run = run_distributed(_source(), workers=2, **PARAMS)
        _assert_matches_offline(run.result, offline)


class TestDistributedCLI:
    def test_workers_with_standalone_exits_2(self, capsys):
        assert main(["gateway-serve", "--workers", "2", "--standalone"]) == 2
        assert "gateway-root" in capsys.readouterr().err

    def test_workers_with_wal_exits_2(self, capsys, tmp_path):
        code = main(
            ["gateway-serve", "--workers", "2", "--wal", str(tmp_path / "w")]
        )
        assert code == 2
        assert "per-worker" in capsys.readouterr().err

    def test_more_workers_than_shards_exits_2(self, capsys):
        code = main(
            ["gateway-serve", "--workers", "9", "--shards", "4", "--scale", "0.02"]
        )
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    def test_bad_connect_root_exits_2(self, capsys):
        assert main(["gateway-serve", "--connect-root", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_distributed_serve_verifies_and_writes_metrics(self, capsys, tmp_path):
        metrics_path = str(tmp_path / "dist.json")
        code = main(
            [
                "gateway-serve",
                "--workers", "2",
                "--shards", "4",
                "--scale", "0.02",
                "--verify",
                "--metrics-out", metrics_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical to sharded run" in out and "yes" in out
        import json

        with open(metrics_path) as fh:
            payload = json.load(fh)
        assert payload["bit_identical"] is True
        assert payload["n_workers"] == 2
        assert payload["totals"]["n_workers"] == 2
        assert len(payload["shards"]) == 4

    def test_gateway_root_times_out_cleanly(self, capsys):
        code = main(
            [
                "gateway-root",
                "--shards", "2",
                "--scale", "0.02",
                "--port", "0",
                "--serve-timeout", "0.2",
            ]
        )
        assert code == 2
        assert "serve-timeout" in capsys.readouterr().err


@pytest.mark.skipif(os.name != "posix", reason="fork start method")
class TestTwoCommandDeployment:
    def test_root_plus_connect_root_over_loopback(self, capsys):
        """gateway-root and gateway-serve --connect-root, one process each."""
        import threading

        root_codes = []

        def serve_root():
            root_codes.append(
                main(
                    [
                        "gateway-root",
                        "--shards", "4",
                        "--scale", "0.02",
                        "--port", "7278",
                        "--verify",
                        "--serve-timeout", "60",
                    ]
                )
            )

        thread = threading.Thread(target=serve_root, daemon=True)
        thread.start()
        import socket
        import time

        for _ in range(200):  # wait for the root to bind
            try:
                socket.create_connection(("127.0.0.1", 7278), timeout=0.1).close()
                break
            except OSError:
                time.sleep(0.05)
        code = main(
            [
                "gateway-serve",
                "--connect-root", "127.0.0.1:7278",
                "--workers", "2",
                "--shards", "4",
                "--scale", "0.02",
            ]
        )
        thread.join(timeout=60)
        assert code == 0
        assert root_codes == [0]
        out = capsys.readouterr().out
        assert "bit-identical to sharded run" in out


class TestShardStateCodecEdges:
    def test_segment_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="values"):
            encode_shard_state(0, 0, 3, 1.0, values=np.zeros(2))
        with pytest.raises(ValueError, match="user"):
            encode_shard_state(
                0, 0, 2, 1.0, values=np.zeros(2), user_ids=np.zeros(3, dtype=np.int64)
            )
