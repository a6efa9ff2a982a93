"""Property tests: robust policies are decomposition-invariant.

The adversarial tier's core claim (:mod:`repro.adversary.policies`) is
that a robust policy folds to the *same answer* no matter how the report
stream is decomposed into shard states and merged:

* ``trim`` sorts the retained reports at query time, so the trimmed mean
  is invariant under **any** partition and **any** merge order;
* ``clip`` transforms element-wise at ingestion, so merging a contiguous
  decomposition's shard states in ascending order reproduces the direct
  per-batch ingest's running sums bit for bit (same per-chunk fold);
* ``median-of-means`` aggregates per group label, so group sums/counts
  survive any partition that preserves the labels.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adversary import RobustPolicy
from repro.protocol import Collector
from repro.protocol.collector import CollectorShardState

report_arrays = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=True
    ),
    min_size=1,
    max_size=40,
).map(lambda xs: np.asarray(xs, dtype=float))


def _cuts(values, boundaries):
    """Contiguous segments of ``values`` at sorted unique boundaries."""
    points = sorted({b % (len(values) + 1) for b in boundaries})
    return [
        seg
        for seg in np.split(values, points)
        if len(seg)
    ]


def _segment_state(policy, t, segment, base_uid, group, keep_reports):
    state = CollectorShardState(
        keep_reports=keep_reports, robust_policy=policy
    )
    ids = np.arange(base_uid, base_uid + len(segment), dtype=np.int64)
    state.add_slot_batch(t, ids, segment, group=group)
    return state


class TestTrimInvariance:
    @given(
        values=report_arrays,
        boundaries=st.lists(st.integers(0, 60), max_size=5),
        order_seed=st.integers(0, 2**16),
        trim=st.floats(min_value=0.0, max_value=0.45),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_partition_any_merge_order(
        self, values, boundaries, order_seed, trim
    ):
        """Trimmed mean is the same for every decomposition + shuffle."""
        policy = RobustPolicy(kind="trim", trim=trim)
        flat = Collector(
            epsilon_per_report=1.0, keep_reports=True, robust_policy=policy
        )
        flat.ingest_batch(0, np.arange(len(values)), values)

        segments = _cuts(values, boundaries)
        offsets = np.cumsum([0] + [len(s) for s in segments[:-1]])
        states = [
            _segment_state(policy, 0, seg, int(off), i, keep_reports=True)
            for i, (seg, off) in enumerate(zip(segments, offsets))
        ]
        # Merge in an arbitrary (seeded) order — trim must not care.
        order = np.random.default_rng(order_seed).permutation(len(states))
        merged = states[order[0]]
        for i in order[1:]:
            merged.merge_in_place(states[i])

        assert policy.slot_mean(merged, 0) == flat.population_mean(0)

    @given(values=report_arrays)
    @example(values=np.full(3, -918052.9521276106))  # mean() rounds below the min
    @settings(max_examples=40, deadline=None)
    def test_trim_bounded_by_extremes(self, values):
        policy = RobustPolicy(kind="trim", trim=0.25)
        flat = Collector(
            epsilon_per_report=1.0, keep_reports=True, robust_policy=policy
        )
        flat.ingest_batch(0, np.arange(len(values)), values)
        assert values.min() <= flat.population_mean(0) <= values.max()


class TestClipInvariance:
    @given(
        values=report_arrays,
        boundaries=st.lists(st.integers(0, 60), max_size=5),
        low=st.floats(min_value=-2.0, max_value=0.4),
        span=st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_contiguous_merge_matches_flat_ingest_bitwise(
        self, values, boundaries, low, span
    ):
        """Ascending shard-state merge == direct per-batch ingest, exact
        float bits — the chunk decomposition defines the fold, and every
        execution mode (flat pipeline or merge tree) must reproduce it.
        """
        policy = RobustPolicy(kind="clip", low=low, high=low + span)
        segments = _cuts(values, boundaries)
        offsets = np.cumsum([0] + [len(s) for s in segments[:-1]])

        flat = Collector(epsilon_per_report=1.0, robust_policy=policy)
        for seg, off in zip(segments, offsets):
            ids = np.arange(int(off), int(off) + len(seg), dtype=np.int64)
            flat.ingest_batch(0, ids, seg)

        merged = CollectorShardState(robust_policy=policy)
        for i, (seg, off) in enumerate(zip(segments, offsets)):
            merged.merge_in_place(
                _segment_state(policy, 0, seg, int(off), i, keep_reports=False)
            )

        # Exact equality on purpose: same element-wise transform, same
        # left-to-right fold order, therefore the same bits.
        assert merged.slot_sums == flat.state.slot_sums
        assert merged.slot_counts == flat.state.slot_counts
        assert policy.slot_mean(merged, 0) == flat.population_mean(0)

    @given(values=report_arrays)
    @settings(max_examples=40, deadline=None)
    def test_clip_is_idempotent(self, values):
        policy = RobustPolicy(kind="clip")
        once = policy.transform(values)
        np.testing.assert_array_equal(policy.transform(once), once)


class TestMedianOfMeansInvariance:
    @given(
        values=report_arrays,
        boundaries=st.lists(st.integers(0, 60), max_size=4),
        order_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_aggregates_survive_any_merge_order(
        self, values, boundaries, order_seed
    ):
        """Per-group sums/counts — and the median fold — are order-free."""
        policy = RobustPolicy(kind="median-of-means")
        segments = _cuts(values, boundaries)
        offsets = np.cumsum([0] + [len(s) for s in segments[:-1]])

        flat = Collector(epsilon_per_report=1.0, robust_policy=policy)
        for i, (seg, off) in enumerate(zip(segments, offsets)):
            ids = np.arange(int(off), int(off) + len(seg), dtype=np.int64)
            flat.ingest_batch(0, ids, seg, group=i)

        states = [
            _segment_state(policy, 0, seg, int(off), i, keep_reports=False)
            for i, (seg, off) in enumerate(zip(segments, offsets))
        ]
        order = np.random.default_rng(order_seed).permutation(len(states))
        merged = states[order[0]]
        for i in order[1:]:
            merged.merge_in_place(states[i])

        assert merged.group_sums == flat.state.group_sums
        assert merged.group_counts == flat.state.group_counts
        assert policy.slot_mean(merged, 0) == flat.population_mean(0)
