"""Collector edge cases: sparse slots, gaps, Sample-Split-style reporting."""

import numpy as np
import pytest

from repro.protocol import Collector, Report


class TestSparseReporting:
    def test_users_reporting_different_slots(self):
        # Sample-Split style: user 0 reports even slots, user 1 odd slots.
        collector = Collector()
        for t in range(0, 10, 2):
            collector.ingest(Report(0, t, 0.2))
        for t in range(1, 10, 2):
            collector.ingest(Report(1, t, 0.8))
        assert collector.slots() == list(range(10))
        assert collector.population_mean(0) == pytest.approx(0.2)
        assert collector.population_mean(1) == pytest.approx(0.8)

    def test_user_series_skips_gaps(self):
        collector = Collector()
        collector.ingest(Report(0, 0, 0.1))
        collector.ingest(Report(0, 5, 0.9))
        np.testing.assert_allclose(collector.user_series(0), [0.1, 0.9])

    def test_subsequence_mean_over_gap(self):
        collector = Collector()
        collector.ingest(Report(0, 0, 0.2))
        collector.ingest(Report(0, 4, 0.4))
        # Only the observed slots inside the range count.
        assert collector.user_subsequence_mean(0, 0, 4) == pytest.approx(0.3)

    def test_subsequence_mean_no_reports_in_range(self):
        collector = Collector()
        collector.ingest(Report(0, 10, 0.5))
        with pytest.raises(KeyError, match="no reports in"):
            collector.user_subsequence_mean(0, 0, 5)

    def test_unknown_user_rejected(self):
        collector = Collector()
        collector.ingest(Report(0, 0, 0.5))
        with pytest.raises(KeyError, match="no reports from user"):
            collector.user_series(42)

    def test_out_of_order_ingestion_allowed(self):
        # Reports may arrive late/reordered (network reality); queries
        # still sort by slot.
        collector = Collector()
        collector.ingest(Report(0, 3, 0.3))
        collector.ingest(Report(0, 1, 0.1))
        collector.ingest(Report(0, 2, 0.2))
        np.testing.assert_allclose(collector.user_series(0), [0.1, 0.2, 0.3])


class TestPublication:
    def test_single_report_stream(self):
        collector = Collector(smoothing_window=3)
        collector.ingest(Report(0, 0, 0.7))
        np.testing.assert_allclose(collector.publish_user_stream(0), [0.7])

    def test_no_smoothing_configuration(self):
        collector = Collector(smoothing_window=None)
        for t in range(5):
            collector.ingest(Report(0, t, float(t) / 10))
        np.testing.assert_allclose(
            collector.publish_user_stream(0), [0.0, 0.1, 0.2, 0.3, 0.4]
        )

    def test_even_smoothing_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            Collector(smoothing_window=4)

    def test_crowd_estimates_sorted_by_user(self):
        collector = Collector()
        collector.ingest(Report(5, 0, 0.5))
        collector.ingest(Report(1, 0, 0.1))
        estimates = collector.crowd_mean_estimates(0, 0)
        np.testing.assert_allclose(estimates, [0.1, 0.5])  # user 1 first


class TestBatchIngest:
    def test_matches_per_report_ingest(self):
        values = np.random.default_rng(0).random(20)
        ids = np.arange(20)
        batched = Collector()
        batched.ingest_batch(0, ids, values)
        sequential = Collector()
        for uid, v in zip(ids, values):
            sequential.ingest(Report(int(uid), 0, float(v)))
        assert batched.n_reports == sequential.n_reports == 20
        assert batched.population_mean(0) == pytest.approx(
            sequential.population_mean(0)
        )
        for uid in ids:
            np.testing.assert_allclose(
                batched.user_series(int(uid)), sequential.user_series(int(uid))
            )

    def test_empty_batch_is_noop(self):
        collector = Collector()
        collector.ingest_batch(0, np.empty(0, dtype=int), np.empty(0))
        assert collector.n_reports == 0
        assert collector.slots() == []

    @pytest.mark.parametrize("track_users", [True, False])
    @pytest.mark.parametrize("ids", [[1, 1], [1, 2, 2, 3], [3, 1, 3]])
    def test_duplicate_within_batch_rejected(self, ids, track_users):
        """Sorted-with-repeats and unsorted input both reach the
        np.unique fallback; either way nothing is ingested."""
        collector = Collector(track_users=track_users)
        with pytest.raises(ValueError, match="duplicate user ids"):
            collector.ingest_batch(0, np.array(ids), np.full(len(ids), 0.5))
        assert collector.n_reports == 0

    def test_duplicate_against_history_rejected_atomically(self):
        collector = Collector()
        collector.ingest(Report(2, 0, 0.5))
        with pytest.raises(ValueError, match="duplicate report for user 2"):
            collector.ingest_batch(0, np.array([1, 2]), np.array([0.1, 0.2]))
        # The rejected batch must leave no partial state behind.
        assert collector.n_reports == 1
        with pytest.raises(KeyError):
            collector.user_series(1)

    def test_unsorted_unique_batch_accepted(self):
        """Engines emit increasing ids; any other order takes the
        np.unique fallback and is accepted exactly the same."""
        ids, values = np.array([7, 2, 9, 0]), np.array([0.1, 0.2, 0.3, 0.4])
        unsorted = Collector()
        unsorted.ingest_batch(0, ids, values)
        order = np.argsort(ids)
        ordered = Collector()
        ordered.ingest_batch(0, ids[order], values[order])
        assert unsorted.n_reports == 4
        for uid in ids.tolist():
            assert unsorted.user_series(uid) == ordered.user_series(uid)

    def test_tracked_cross_batch_duplicate_rejected_atomically(self):
        collector = Collector(track_users=True)
        collector.ingest_batch(0, np.array([4, 5, 6]), np.array([0.1, 0.2, 0.3]))
        before = (collector.n_reports, dict(collector.state.slot_sums))
        with pytest.raises(ValueError, match="duplicate report for user 6"):
            collector.ingest_batch(0, np.array([1, 6, 8]), np.array([0.4, 0.5, 0.6]))
        assert (collector.n_reports, dict(collector.state.slot_sums)) == before
        with pytest.raises(KeyError):
            collector.user_series(1)

    def test_untracked_ingest_makes_no_per_id_call(self, monkeypatch):
        from repro.protocol.collector import CollectorShardState

        def per_id(*args):
            raise AssertionError("per-id history lookup without track_users")

        monkeypatch.setattr(CollectorShardState, "has_report", per_id)
        collector = Collector(track_users=False)
        collector.ingest_batch(0, np.arange(50), np.full(50, 0.5))
        collector.ingest_batch(1, np.array([9, 3]), np.array([0.1, 0.2]))
        assert collector.n_reports == 52

    def test_validation(self):
        collector = Collector()
        with pytest.raises(ValueError, match="non-negative"):
            collector.ingest_batch(-1, np.array([0]), np.array([0.1]))
        with pytest.raises(ValueError, match="aligned"):
            collector.ingest_batch(0, np.array([0, 1]), np.array([0.1]))
        with pytest.raises(TypeError, match="integers"):
            collector.ingest_batch(0, np.array([0.5]), np.array([0.1]))
        with pytest.raises(ValueError, match="finite"):
            collector.ingest_batch(0, np.array([0]), np.array([np.nan]))
        with pytest.raises(ValueError, match="non-negative"):
            collector.ingest_batch(0, np.array([-1]), np.array([0.1]))
