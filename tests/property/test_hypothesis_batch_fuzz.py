"""Mutation fuzz of the report-batch decoder into a WAL-backed barrier.

Every mutated ``BATCH`` payload — flipped bytes, overwritten 8-byte
words (NaN/inf values, negative/duplicate/peer-range ids, garbage
header fields), truncation, trailing junk — must either

* raise ``WireError``/``ValueError``/``TypeError`` with the write-ahead
  log's record count unchanged (refused before it is durable), or
* be ingested with exactly the slot fold a fresh
  :class:`~repro.protocol.Collector` computes from the decoded batch.
"""

import struct
import tempfile

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.gateway.wire import WireError, decode_batch_payload
from repro.protocol import Collector
from repro.protocol.messages import encode_report_batch
from repro.service import IngestionPipeline, ReportBatch
from repro.wal import WriteAheadLog

HORIZON = 4
PEER_IDS = np.arange(40, 48)  # shard 1's batch at every slot

WORDS = [
    struct.pack("<d", value) for value in (np.nan, np.inf, -np.inf, -0.0, 1e308)
] + [struct.pack("<q", value) for value in (-1, 0, 3, 41, 2**62)]


def _peer(t):
    return ReportBatch(1, t, PEER_IDS, np.linspace(0.0, 1.0, PEER_IDS.size))


@st.composite
def mutated_payloads(draw):
    ids = np.array(
        sorted(draw(st.sets(st.integers(0, 39), max_size=8))), dtype=np.int64
    )
    values = np.array(
        draw(
            st.lists(
                st.floats(-1.0, 2.0, allow_nan=False),
                min_size=ids.size,
                max_size=ids.size,
            )
        )
    )
    t = draw(st.integers(0, HORIZON - 1))
    payload = bytearray(encode_report_batch(0, t, ids, values))
    kind = draw(st.sampled_from(["flip", "word", "truncate", "extend"]))
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            payload[draw(st.integers(0, len(payload) - 1))] = draw(st.integers(0, 255))
    elif kind == "word":
        for _ in range(draw(st.integers(1, 3))):
            at = 8 * draw(st.integers(0, len(payload) // 8 - 1))
            payload[at : at + 8] = draw(st.sampled_from(WORDS))
    elif kind == "truncate":
        del payload[draw(st.integers(0, len(payload) - 1)) :]
    else:
        payload += draw(st.binary(min_size=1, max_size=24))
    return bytes(payload)


@settings(max_examples=200, deadline=None)
@given(payload=mutated_payloads())
def test_mutated_batch_is_refused_before_the_wal_or_folded_exactly(payload):
    with tempfile.TemporaryDirectory() as directory:
        pipeline = IngestionPipeline(n_shards=2, horizon=HORIZON)
        wal = pipeline.attach_wal(WriteAheadLog(directory, fsync="never"))
        try:
            pipeline.start_run()
            for t in range(HORIZON):
                pipeline.submit(_peer(t))
            records = wal.records_appended
            try:
                batch = decode_batch_payload(payload, copy=False)
                pipeline.submit(batch)
            except (WireError, ValueError, TypeError) as error:
                event(f"refused: {type(error).__name__}")
                assert wal.records_appended == records
                return
            assert wal.records_appended > records
            event("accepted")
            for t in range(HORIZON):
                if not pipeline.has_batch(t, 0):
                    pipeline.submit(ReportBatch(0, t, np.empty(0, np.int64), np.empty(0)))
            assert pipeline.complete
        finally:
            wal.close()

    fresh = Collector(track_users=False)
    peer = _peer(batch.t)
    fresh.ingest_batch(batch.t, batch.user_ids, batch.values, group=0)
    fresh.ingest_batch(batch.t, peer.user_ids, peer.values, group=1)
    got, expected = pipeline.collector.state, fresh.state
    t = batch.t
    assert got.slot_counts[t] == expected.slot_counts[t]
    assert struct.pack("<d", got.slot_sums[t]) == struct.pack("<d", expected.slot_sums[t])
    np.testing.assert_array_equal(got.slot_reports(t), expected.slot_reports(t))
