"""Property tests for the SHARD_STATE wire codec and tree merge.

Two invariants, both bitwise:

* encode → decode round-trips every field exactly (the worker-computed
  slot sum is shipped as raw float64 bits, never re-derived), and
* folding decoded states through the root's
  :class:`~repro.gateway.ShardStateAggregator` produces byte-identical
  collector state to ingesting the same batches directly — the flat
  pipeline's operation sequence — including empty shard-slots and
  report-keeping / user-tracking memory switches.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import ShardStateAggregator
from repro.gateway.wire import decode_shard_state_payload, encode_shard_state_frame
from repro.protocol import Collector
from repro.protocol.messages import (
    ShardSlotState,
    decode_shard_state,
    encode_shard_state,
)

values_arrays = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=True
    ),
    min_size=0,
    max_size=12,
).map(lambda xs: np.asarray(xs, dtype=float))


def _state(shard, t, segment, with_ids, base_uid=0):
    n = len(segment)
    ids = (
        np.arange(base_uid, base_uid + n, dtype=np.int64) if with_ids else None
    )
    return ShardSlotState(
        shard=shard,
        t=t,
        n_reports=n,
        total=float(segment.sum()),
        values=segment if n else None,
        user_ids=ids if n else None,
    )


def _encode(state):
    return encode_shard_state(
        state.shard,
        state.t,
        state.n_reports,
        state.total,
        values=state.values,
        user_ids=state.user_ids,
    )


class TestRoundTrip:
    @given(
        segment=values_arrays,
        shard=st.integers(0, 2**31 - 1),
        t=st.integers(0, 2**31 - 1),
        with_ids=st.booleans(),
        copy=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_is_bitwise_identity(
        self, segment, shard, t, with_ids, copy
    ):
        state = _state(shard, t, segment, with_ids)
        decoded = decode_shard_state(_encode(state), copy=copy)
        assert decoded.shard == shard and decoded.t == t
        assert decoded.n_reports == state.n_reports
        # The slot sum travels as raw float64 bits.
        assert np.float64(decoded.total).tobytes() == np.float64(
            state.total
        ).tobytes()
        if state.values is None:
            assert decoded.values is None
        else:
            assert decoded.values.tobytes() == state.values.tobytes()
        if state.user_ids is None:
            assert decoded.user_ids is None
        else:
            assert (decoded.user_ids == state.user_ids).all()

    @given(segment=values_arrays.filter(len), copy=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_framed_round_trip_matches_codec(self, segment, copy):
        state = _state(3, 7, segment, True)
        frame = encode_shard_state_frame(state)
        decoded = decode_shard_state_payload(frame[8:], copy=copy)
        assert decoded.values.tobytes() == state.values.tobytes()
        assert np.float64(decoded.total).tobytes() == np.float64(
            state.total
        ).tobytes()


class TestMergeEquivalence:
    @given(
        shard_segments=st.lists(values_arrays, min_size=1, max_size=4),
        slots=st.integers(1, 3),
        keep_reports=st.booleans(),
        track_users=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_wire_merge_equals_direct_ingest(
        self, shard_segments, slots, keep_reports, track_users
    ):
        """encode → decode → aggregate == ingest directly, bit for bit."""
        n_shards = len(shard_segments)
        aggregator = ShardStateAggregator(
            n_shards,
            slots,
            epsilon=1.0,
            w=2,
            keep_reports=keep_reports,
            track_users=track_users,
        )
        direct = Collector(
            epsilon_per_report=0.5,
            keep_reports=keep_reports,
            track_users=track_users,
        )
        for t in range(slots):
            for shard, segment in enumerate(shard_segments):
                base_uid = shard * 100  # distinct users per shard
                state = _state(
                    shard, t, segment, track_users or True, base_uid=base_uid
                )
                decoded = decode_shard_state(_encode(state))
                aggregator.submit(decoded)
                if len(segment):
                    direct.ingest_batch(
                        t,
                        np.arange(
                            base_uid, base_uid + len(segment), dtype=np.int64
                        ),
                        segment,
                    )
        tree = aggregator.collector.state
        flat = direct.state
        assert tree.slot_sums == flat.slot_sums  # exact float equality
        assert tree.slot_counts == flat.slot_counts
        assert tree.n_reports == flat.n_reports
        if track_users:
            assert tree.by_user == flat.by_user
        if keep_reports:
            for t in range(slots):
                assert (
                    tree.slot_reports(t).tobytes()
                    == flat.slot_reports(t).tobytes()
                )
