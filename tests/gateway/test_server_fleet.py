"""Gateway server + fleet: bit-identity, fault tolerance, validation.

The acceptance headline — gateway-served estimates are bit-identical to
``run_protocol_sharded`` for the same seed and shard decomposition — is
pinned serially, with >= 4 concurrent client connections, with arrival
jitter, and with a forced mid-slot reconnect.  Server-side validation
(handshake, shard ranges, slot order, duplicates, load shedding,
version negotiation) is exercised against the real TCP listener.
"""

import asyncio
import json
import struct

import numpy as np
import pytest

from repro.gateway import (
    GatewayClient,
    GatewayError,
    GatewayServer,
    run_gateway,
)
from repro.gateway.wire import WIRE_MAGIC, FrameType, WireError, encode_control, read_frame
from repro.runtime import MatrixSource, run_protocol_sharded
from repro.service import (
    IngestionPipeline,
    JSONLSink,
    ReportBatch,
    replay_event_log,
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


def _assert_matches_offline(result, offline):
    np.testing.assert_array_equal(
        result.population_mean_series(),
        offline.collector.population_mean_series(),
    )
    assert result.collector.state.slot_sums == offline.collector.state.slot_sums
    assert result.collector.state.slot_counts == offline.collector.state.slot_counts
    assert result.n_reports == offline.collector.n_reports


class TestNetemSpec:
    def test_window_semantics(self):
        from repro.gateway import NetemSpec

        netem = NetemSpec(
            delay=0.5,
            delay_windows=((2, 4),),
            partition_windows=((7, 7), (9, 10)),
            shards=(1,),
        )
        assert netem.delay_at(1, 3) == 0.5
        assert netem.delay_at(1, 5) == 0.0  # outside the delay window
        assert netem.delay_at(0, 3) == 0.0  # shard not in scope
        assert netem.partitioned(1, 7)
        assert netem.partitioned(1, 10)
        assert not netem.partitioned(1, 8)
        assert not netem.partitioned(2, 7)
        assert netem.partition_slot_count() == 3

    def test_empty_delay_windows_delay_every_slot(self):
        from repro.gateway import NetemSpec

        netem = NetemSpec(delay=0.1)
        assert netem.delay_at(0, 0) == 0.1
        assert netem.delay_at(3, 99) == 0.1
        assert not netem.partitioned(0, 0)

    def test_invalid_specs_rejected(self):
        from repro.gateway import NetemSpec

        with pytest.raises(ValueError, match="delay"):
            NetemSpec(delay=-0.1)
        with pytest.raises(ValueError, match="partition_outage"):
            NetemSpec(partition_outage=-1.0)
        with pytest.raises(ValueError, match="start > end"):
            NetemSpec(partition_windows=((5, 2),))


class TestBitIdentity:
    def test_serial_upload_matches_offline(self, offline):
        """One shard at a time over its own connection — the serial mode."""
        feeds = shard_feeds(_source(), **PARAMS)
        pipeline = IngestionPipeline(n_shards=len(feeds), horizon=HORIZON, epsilon=1.2, w=6)

        async def _serve():
            server = GatewayServer(pipeline)
            await server.start()
            try:
                # Strict slot-major clock: every shard uploads slot t
                # before any shard uploads slot t+1.
                clients = [GatewayClient("127.0.0.1", server.port, f.shard) for f in feeds]
                for client in clients:
                    await client.connect()
                iterators = [iter(feed) for feed in feeds]
                for _ in range(HORIZON):
                    for client, iterator in zip(clients, iterators):
                        assert await client.send_batch(next(iterator)) == "accepted"
                for client in clients:
                    await client.finish()
                await server.wait_complete(timeout=30)
            finally:
                await server.stop()
            return server.result(feeds=feeds)

        result = asyncio.run(_serve())
        result.assert_valid()
        _assert_matches_offline(result, offline)

    def test_concurrent_fleet_matches_offline(self, offline):
        """>= 4 concurrent connections with arrival jitter."""
        run = run_gateway(_source(), jitter=0.002, **PARAMS)
        assert len(run.shard_reports) == 4
        assert run.metrics.connections_opened >= 4
        _assert_matches_offline(run.result, offline)

    def test_mid_slot_reconnect_matches_offline(self, offline):
        """Forced mid-slot drops (ack lost) must not change a bit."""
        run = run_gateway(_source(), drops={1: [3], 2: [0, 5]}, **PARAMS)
        by_shard = {r.shard: r for r in run.shard_reports}
        assert by_shard[1].reconnects >= 1
        assert by_shard[2].reconnects >= 2
        assert by_shard[1].dropped_slots == [3]
        # A dropped upload is recovered either by the resume handshake
        # (skipped) or by an idempotent duplicate resend.
        assert by_shard[1].skipped + by_shard[1].duplicates >= 1
        for report in run.shard_reports:
            assert report.delivered == HORIZON
        _assert_matches_offline(run.result, offline)

    def test_netem_impairment_matches_offline(self, offline):
        """Delay + partition windows reorder the wire, not the math."""
        from repro.gateway import NetemSpec

        netem = NetemSpec(
            delay=0.002,
            delay_windows=((1, 2),),
            partition_windows=((4, 5),),
            partition_outage=0.005,
            shards=(0, 2),
        )
        run = run_gateway(_source(), netem=netem, **PARAMS)
        by_shard = {r.shard: r for r in run.shard_reports}
        # Only the scoped shards hit the partition window: 2 slots each.
        assert by_shard[0].partitions == 2
        assert by_shard[2].partitions == 2
        assert by_shard[1].partitions == 0
        assert by_shard[3].partitions == 0
        assert by_shard[0].reconnects >= 2
        for report in run.shard_reports:
            assert report.delivered == HORIZON
        _assert_matches_offline(run.result, offline)

    def test_gateway_event_log_replays_bit_identically(self, offline, tmp_path):
        """record_batches through the gateway yields a replayable capture."""
        log = tmp_path / "gateway-events.jsonl"
        run = run_gateway(
            _source(), sinks=[JSONLSink(log)], record_batches=True, **PARAMS
        )
        replayed = replay_event_log(str(log))
        _assert_matches_offline(replayed, offline)
        assert replayed.n_reports == run.result.n_reports


class TestServerValidation:
    """Drive the real listener with hand-built clients and raw frames."""

    @staticmethod
    def _with_server(coro_factory, n_shards=2, horizon=3, max_slot_skew=8):
        async def _run():
            pipeline = IngestionPipeline(
                n_shards=n_shards, horizon=horizon, max_slot_skew=max_slot_skew
            )
            server = GatewayServer(pipeline, retry_after=0.01)
            await server.start()
            try:
                return await coro_factory(server, pipeline)
            finally:
                await server.stop()

        return asyncio.run(_run())

    @staticmethod
    def _batch(shard, t, ids=(0,), values=(0.5,)):
        return ReportBatch(
            shard=shard,
            t=t,
            user_ids=np.asarray(ids, dtype=np.intp),
            values=np.asarray(values, dtype=float),
        )

    def test_duplicate_upload_acked_idempotently(self):
        async def scenario(server, pipeline):
            client = GatewayClient("127.0.0.1", server.port, 0)
            await client.connect()
            batch = self._batch(0, 0)
            assert await client.send_batch(batch) == "accepted"
            client.resume_slot = 0  # feign amnesia and resend
            assert await client.send_batch(batch) == "duplicate"
            await client.finish()
            return pipeline

        pipeline = self._with_server(scenario)
        # Not double-ingested: the batch is still buffered exactly once.
        assert server_counts(pipeline) == {0: 1}
        assert pipeline.has_batch(0, 0) and not pipeline.has_batch(0, 1)

    def test_out_of_order_upload_rejected(self):
        async def scenario(server, pipeline):
            client = GatewayClient("127.0.0.1", server.port, 0)
            await client.connect()
            with pytest.raises(GatewayError, match="slot order"):
                await client.send_batch(self._batch(0, 2))

        self._with_server(scenario)

    def test_batch_before_hello_rejected(self):
        async def scenario(server, pipeline):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            from repro.gateway.wire import encode_batch_frame

            writer.write(encode_batch_frame(self._batch(0, 0)))
            await writer.drain()
            frame_type, payload = await read_frame(reader)
            assert frame_type == FrameType.ERROR
            assert b"HELLO" in payload
            writer.close()

        self._with_server(scenario)

    def test_shard_out_of_range_rejected(self):
        async def scenario(server, pipeline):
            client = GatewayClient("127.0.0.1", server.port, 7)
            with pytest.raises(GatewayError, match="out of range"):
                await client.connect()

        self._with_server(scenario)

    def test_batch_for_foreign_shard_rejected(self):
        async def scenario(server, pipeline):
            client = GatewayClient("127.0.0.1", server.port, 0)
            await client.connect()
            client.shard = 1  # lie locally so the client agrees to send it
            with pytest.raises(GatewayError, match="authenticated shard 0"):
                await client.send_batch(self._batch(1, 0))

        self._with_server(scenario)

    def test_slot_beyond_horizon_rejected(self):
        async def scenario(server, pipeline):
            client = GatewayClient("127.0.0.1", server.port, 0)
            await client.connect()
            with pytest.raises(GatewayError, match="horizon"):
                await client.send_batch(self._batch(0, 5))

        self._with_server(scenario, horizon=3)

    def test_load_shedding_rejects_far_ahead_shard(self):
        """A shard past the skew bound gets REJECT until the laggard lands."""

        async def scenario(server, pipeline):
            fast = GatewayClient("127.0.0.1", server.port, 1)
            slow = GatewayClient("127.0.0.1", server.port, 0)
            await fast.connect()
            await slow.connect()
            assert await fast.send_batch(self._batch(1, 0)) == "accepted"
            # Slot 1 is >= next_slot(0) + skew(1): shed, then accepted
            # once the laggard finalizes slot 0 (send_batch retries).
            sender = asyncio.create_task(fast.send_batch(self._batch(1, 1)))
            await asyncio.sleep(0.05)
            assert server.metrics.sheds >= 1
            assert not sender.done()
            assert await slow.send_batch(self._batch(0, 0, ids=(10,))) == "accepted"
            assert await sender == "accepted"
            await fast.finish()
            await slow.finish()
            return server.metrics.sheds

        sheds = self._with_server(scenario, max_slot_skew=1)
        assert sheds >= 1

    def test_unsupported_wire_version_gets_error_frame(self):
        async def scenario(server, pipeline):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            hello = bytearray(encode_control(FrameType.HELLO, shard=0))
            hello[2] = 99  # future wire version
            writer.write(bytes(hello))
            await writer.drain()
            frame_type, payload = await read_frame(reader)
            assert frame_type == FrameType.ERROR
            message = json.loads(payload)["message"]
            assert "version" in message
            writer.close()
            return message

        self._with_server(scenario)

    def test_garbage_preamble_gets_error_and_close(self):
        async def scenario(server, pipeline):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(struct.pack(">2sBBI", b"ZZ", 1, 1, 0))
            await writer.drain()
            frame_type, _ = await read_frame(reader)
            assert frame_type == FrameType.ERROR
            assert await reader.read() == b""  # server hung up
            writer.close()

        self._with_server(scenario)
        assert WIRE_MAGIC == b"RG"

    def test_wire_error_is_value_error(self):
        assert issubclass(WireError, ValueError)


class TestContentRefusedBeforeWal:
    """A batch the barrier would refuse is refused at its own upload:
    only the sender gets ``ERROR``, the write-ahead log never holds it,
    the other shards finish, and the log recovers cleanly."""

    FAULTS = {
        "nan": "must be finite",
        "negative-id": "non-negative",
        "overlap": "disjoint user ranges",
    }

    @staticmethod
    def _corrupt(batch, fault, peer_id):
        ids, values = batch.user_ids.copy(), batch.values.copy()
        if fault == "nan":
            values[-1] = np.nan
        elif fault == "negative-id":
            ids[0] = -1
        else:  # an id of shard 1: legal alone, overlapping at the slot
            ids[-1] = peer_id
        return ReportBatch(shard=batch.shard, t=batch.t, user_ids=ids, values=values)

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_only_the_sender_fails_and_the_log_recovers(self, tmp_path, offline, fault):
        from repro.wal import WriteAheadLog, recover_pipeline

        feeds = shard_feeds(_source(), **PARAMS)
        batches = {feed.shard: list(feed) for feed in feeds}
        assert batches[0][0].n_reports and batches[1][0].n_reports
        bad = self._corrupt(batches[0][0], fault, batches[1][0].user_ids[-1])
        wal_dir = str(tmp_path / "wal")
        n_shards = len(feeds)

        async def first_server():
            pipeline = IngestionPipeline(
                n_shards=n_shards,
                horizon=HORIZON,
                epsilon=1.2,
                w=6,
                max_slot_skew=HORIZON + 1,  # no sheds: shards 1.. upload it all
            )
            wal = pipeline.attach_wal(WriteAheadLog(wal_dir))
            server = GatewayServer(pipeline)
            await server.start()
            try:
                for shard in range(1, n_shards):
                    client = GatewayClient("127.0.0.1", server.port, shard)
                    await client.connect()
                    for batch in batches[shard]:
                        assert await client.send_batch(batch) == "accepted"
                    await client.finish()
                appended = wal.batches_appended
                sender = GatewayClient("127.0.0.1", server.port, 0)
                await sender.connect()
                with pytest.raises(GatewayError, match=self.FAULTS[fault]):
                    await sender.send_batch(bad)
                await sender.close()
                assert wal.batches_appended == appended == (n_shards - 1) * HORIZON
                assert server.metrics.protocol_errors == 1
                assert not pipeline.has_batch(0, 0)
                assert len(pipeline.pending_batches()) == appended
            finally:
                await server.crash()

        async def recovered_server(recovery):
            pipeline = recovery.pipeline
            pipeline.attach_wal(WriteAheadLog(wal_dir))
            server = GatewayServer(pipeline, next_expected=recovery.next_expected)
            await server.start()
            try:
                client = GatewayClient("127.0.0.1", server.port, 0)
                assert await client.connect() == 0
                for batch in batches[0]:
                    assert await client.send_batch(batch) == "accepted"
                await client.finish()
                await server.wait_complete(timeout=30)
                return server.result()
            finally:
                await server.stop()
                pipeline.wal.close()

        asyncio.run(first_server())
        recovery = recover_pipeline(wal_dir)
        assert recovery.replayed_batches == (n_shards - 1) * HORIZON
        assert recovery.next_expected == [0] + [HORIZON] * (n_shards - 1)
        _assert_matches_offline(asyncio.run(recovered_server(recovery)), offline)


def server_counts(pipeline):
    """Buffered batch count per slot (barrier introspection for tests)."""
    return {t: len(shards) for t, shards in pipeline._pending.items()}
