"""Mutation fuzz of the shard-state decoder into the root's barrier.

Every mutated ``SHARD_STATE`` payload — flipped bytes, overwritten
8-byte words (NaN/inf slot sums and values in either byte order,
negative/duplicate/peer-range ids, garbage header fields), truncation,
trailing junk — must either

* raise ``WireError``/``ValueError``/``TypeError`` with the root's
  pending states and collector unchanged (refused before it is
  buffered), or
* be folded with exactly the slot state a fresh
  :class:`~repro.protocol.Collector` computes by ingesting the decoded
  values and ids directly.

Only runs that ship the values segment are fuzzed: without it the root
has no content to check the shipped slot sum against.
"""

import struct

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.gateway import ShardStateAggregator
from repro.gateway.wire import WireError, decode_shard_state_payload
from repro.protocol import Collector
from repro.protocol.messages import ShardSlotState, encode_shard_state

HORIZON = 3
PEER_IDS = np.arange(40, 48)  # shard 1's state at every slot
PEER_VALUES = np.linspace(0.0, 1.0, PEER_IDS.size)

WORDS = [
    struct.pack(order + "d", value)
    for order in "<>"
    for value in (np.nan, np.inf, -np.inf, -0.0, 1e308)
] + [struct.pack("<q", value) for value in (-1, 0, 3, 41, 2**62)]


def _peer(t):
    return ShardSlotState(
        shard=1,
        t=t,
        n_reports=PEER_IDS.size,
        total=float(PEER_VALUES.sum()),
        values=PEER_VALUES,
        user_ids=PEER_IDS,
    )


@st.composite
def mutated_payloads(draw, track_users):
    ids = np.array(
        sorted(draw(st.sets(st.integers(0, 39), min_size=1, max_size=8))), dtype=np.int64
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
    payload = bytearray(
        encode_shard_state(
            0,
            t,
            ids.size,
            float(values.sum()),
            values=values,
            user_ids=ids if track_users else None,
        )
    )
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


@st.composite
def fuzz_cases(draw):
    keep_reports, track_users = draw(st.sampled_from([(True, False), (True, True), (False, True)]))
    return keep_reports, track_users, draw(mutated_payloads(track_users))


def _pending(aggregator):
    return [(state.t, state.shard) for state in aggregator.pending_batches()]


@settings(max_examples=200, deadline=None)
@given(case=fuzz_cases())
def test_mutated_state_is_refused_before_the_barrier_or_folded_exactly(case):
    keep_reports, track_users, payload = case
    aggregator = ShardStateAggregator(
        2, HORIZON, keep_reports=keep_reports, track_users=track_users
    )
    for t in range(HORIZON):
        aggregator.submit(_peer(t))
    before = _pending(aggregator)
    try:
        state = decode_shard_state_payload(payload)
        aggregator.submit(state)
    except (WireError, ValueError, TypeError) as error:
        event(f"refused: {type(error).__name__}")
        assert _pending(aggregator) == before
        assert aggregator.next_slot == 0
        assert aggregator.collector.state.n_reports == 0
        assert aggregator.collector.state.slot_sums == {}
        return
    event("accepted")
    for t in range(HORIZON):
        if not aggregator.has_batch(t, 0):
            aggregator.submit(ShardSlotState(shard=0, t=t, n_reports=0, total=0.0))
    assert aggregator.complete

    fresh = Collector(track_users=track_users, keep_reports=keep_reports)
    for t in range(HORIZON):
        if t == state.t and state.n_reports:
            ids = state.user_ids if track_users else np.arange(state.n_reports)
            fresh.ingest_batch(t, ids, state.values, group=0)
        fresh.ingest_batch(t, PEER_IDS, PEER_VALUES, group=1)
    got, expected = aggregator.collector.state, fresh.state
    assert got.slot_counts == expected.slot_counts
    assert [struct.pack("<d", got.slot_sums[t]) for t in range(HORIZON)] == [
        struct.pack("<d", expected.slot_sums[t]) for t in range(HORIZON)
    ]
    if keep_reports:
        for t in range(HORIZON):
            np.testing.assert_array_equal(got.slot_reports(t), expected.slot_reports(t))
    if track_users:
        assert got.by_user == expected.by_user
