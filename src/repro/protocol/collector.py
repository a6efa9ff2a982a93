"""Collector-side aggregation service (Step 3 of the Fig. 1 protocol).

The collector ingests sanitized :class:`~repro.protocol.messages.Report`
messages and maintains per-slot cross-user aggregates: population means,
per-user report series (for stream publication with optional incremental
smoothing), and on-demand EM distribution estimates over any slot.

All aggregate state lives in a :class:`CollectorShardState` — per-slot
running sums and counts (O(1) mean queries), per-slot report arrays (for
distribution reconstruction), and optionally the per-user report dicts.
Shard states form a commutative monoid under
:meth:`CollectorShardState.merge`, so a population can be split across
processes or machines, aggregated independently, and combined into one
collector whose answers equal single-collector ingestion (see
:mod:`repro.runtime`).

The collector never touches true values — everything it computes is
post-processing of LDP outputs, hence privacy-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .._validation import ensure_epsilon, ensure_positive_int, ensure_report_batch
from ..adversary.policies import RobustPolicy, make_policy
from ..core.online import OnlineSmoother
from ..core.smoothing import simple_moving_average
from ..mechanisms import SquareWaveMechanism
from .messages import Report

__all__ = ["Collector", "CollectorShardState"]


@dataclass
class CollectorShardState:
    """Mergeable aggregate state of one collector (or collector shard).

    Holds everything the collector's queries need: per-slot running sums
    and report counts, per-slot report value arrays, and — unless user
    tracking is disabled — each user's ``{slot: value}`` dict.  States are
    associative and commutative under :meth:`merge` (sums add, counts add,
    report arrays concatenate, user dicts union), so shard states computed
    over disjoint user subsets combine into the state a single collector
    would have built ingesting every report itself.

    The per-slot report arrays are kept as lists of *segments* — a
    ``(k,)`` float64 array per ingested batch (8 bytes per report and
    O(1) merging, which is what makes holding a merged million-user
    collector in one process cheap), or a bare float per scalar ingest so
    the per-report reference path pays no array-construction overhead.
    :meth:`slot_reports` concatenates (and caches) a slot's segments on
    demand.

    Args:
        track_users: keep the per-user dict-of-dicts.  Required for
            per-user publication queries and cross-batch duplicate
            detection, but O(users x slots) in memory — population-scale
            runs pass ``False`` and keep only the O(slots x reports)
            aggregates.
        keep_reports: retain the per-slot report arrays.  Required for
            EM distribution reconstruction, but likewise O(users x slots)
            — at extreme scale pass ``False`` and the state keeps only
            the O(slots) sums/counts that mean queries need.
    """

    track_users: bool = True
    keep_reports: bool = True
    slot_sums: Dict[int, float] = field(default_factory=dict)
    slot_counts: Dict[int, int] = field(default_factory=dict)
    slot_values: Dict[int, List["np.ndarray | float"]] = field(default_factory=dict)
    by_user: Dict[int, Dict[int, float]] = field(default_factory=dict)
    n_reports: int = 0
    #: optional robust-aggregation policy (:mod:`repro.adversary`): a
    #: ``clip`` policy transforms every value at ingestion time (before
    #: it enters any running sum, preserving the fold order exactly);
    #: ``median-of-means`` additionally accumulates per-group sums and
    #: counts keyed by the ingesting batch's ``group`` label (the global
    #: chunk index).  Merging requires both operands to carry the same
    #: policy.
    robust_policy: Optional[RobustPolicy] = None
    group_sums: Dict[int, Dict[int, float]] = field(default_factory=dict)
    group_counts: Dict[int, Dict[int, int]] = field(default_factory=dict)

    # -- ingestion -------------------------------------------------------

    def add_report(
        self, user_id: int, t: int, value: float, group: int = 0
    ) -> None:
        """Fold one report in (scalar fast path — no array per report)."""
        policy = self.robust_policy
        if policy is not None:
            value = policy.transform_scalar(value)
        if self.track_users:
            self.by_user.setdefault(user_id, {})[t] = value
        if self.keep_reports:
            self.slot_values.setdefault(t, []).append(value)
        self.slot_sums[t] = self.slot_sums.get(t, 0.0) + value
        self.slot_counts[t] = self.slot_counts.get(t, 0) + 1
        self.n_reports += 1
        if policy is not None and policy.uses_groups:
            sums = self.group_sums.setdefault(t, {})
            counts = self.group_counts.setdefault(t, {})
            sums[group] = sums.get(group, 0.0) + value
            counts[group] = counts.get(group, 0) + 1

    def add_slot_batch(
        self, t: int, ids: "Optional[list[int]]", values: np.ndarray, group: int = 0
    ) -> None:
        """Fold one slot's reports in (inputs already validated; ``ids``
        is read only when tracking users).

        ``group`` labels the batch's shard group for the
        ``median-of-means`` policy; every execution mode passes the
        *global* chunk index, so group aggregates are identical across
        execution modes for the same chunking.
        """
        segment = np.array(values, dtype=float)  # own the memory
        policy = self.robust_policy
        if policy is not None:
            segment = np.asarray(policy.transform(segment), dtype=float)
        if self.track_users:
            by_user = self.by_user
            for uid, value in zip(ids, segment.tolist()):
                by_user.setdefault(uid, {})[t] = value
        if self.keep_reports:
            self.slot_values.setdefault(t, []).append(segment)
        total = float(segment.sum())
        self.slot_sums[t] = self.slot_sums.get(t, 0.0) + total
        self.slot_counts[t] = self.slot_counts.get(t, 0) + segment.size
        self.n_reports += segment.size
        if policy is not None and policy.uses_groups:
            sums = self.group_sums.setdefault(t, {})
            counts = self.group_counts.setdefault(t, {})
            sums[group] = sums.get(group, 0.0) + total
            counts[group] = counts.get(group, 0) + segment.size

    def slot_reports(self, t: int) -> np.ndarray:
        """All reports ingested at slot ``t`` (ingestion order, compacted).

        Segments may be ``(k,)`` arrays (batch ingestion) or bare floats
        (scalar ingestion); ``hstack`` flattens both.  The compacted form
        is cached back, so repeated queries touch one array.
        """
        if not self.keep_reports:
            raise RuntimeError(
                "per-slot report queries need keep_reports=True "
                "(disabled to bound memory at population scale)"
            )
        segments = self.slot_values.get(t)
        if not segments:
            return np.zeros(0)
        if len(segments) > 1 or not isinstance(segments[0], np.ndarray):
            self.slot_values[t] = segments = [np.hstack(segments)]
        return segments[0]

    def has_report(self, user_id: int, t: int) -> bool:
        """Whether ``(user_id, t)`` was already ingested (needs tracking)."""
        return self.track_users and t in self.by_user.get(user_id, ())

    # -- merge algebra ---------------------------------------------------

    def merge_in_place(self, other: "CollectorShardState") -> None:
        """Absorb ``other`` into this state (``other`` is not mutated).

        Raises:
            ValueError: if both states track users and share any
                (user, slot) pair — the duplicate-report rule
                :meth:`Collector.ingest` enforces, applied across shards
                — or if the states carry different robust policies (a
                mixed-policy fold has no well-defined estimate).
        """
        if self.robust_policy != other.robust_policy:
            raise ValueError(
                f"cannot merge shard states with different robust "
                f"policies ({self.robust_policy!r} vs "
                f"{other.robust_policy!r})"
            )
        if self.track_users and other.track_users:
            for uid, series in other.by_user.items():
                mine = self.by_user.get(uid)
                if mine:
                    overlap = mine.keys() & series.keys()
                    if overlap:
                        raise ValueError(
                            f"merge overlap: duplicate report for user {uid} "
                            f"at t={min(overlap)}"
                        )
        else:
            self.track_users = False
            self.by_user.clear()
        if not (self.keep_reports and other.keep_reports):
            self.keep_reports = False
            self.slot_values.clear()
        self.n_reports += other.n_reports
        for t, total in other.slot_sums.items():
            self.slot_sums[t] = self.slot_sums.get(t, 0.0) + total
        for t, count in other.slot_counts.items():
            self.slot_counts[t] = self.slot_counts.get(t, 0) + count
        if self.keep_reports:
            for t, values in other.slot_values.items():
                self.slot_values.setdefault(t, []).extend(values)
        if self.track_users:
            for uid, series in other.by_user.items():
                self.by_user.setdefault(uid, {}).update(series)
        for t, groups in other.group_sums.items():
            mine = self.group_sums.setdefault(t, {})
            for group, total in groups.items():
                mine[group] = mine.get(group, 0.0) + total
        for t, groups in other.group_counts.items():
            mine_counts = self.group_counts.setdefault(t, {})
            for group, count in groups.items():
                mine_counts[group] = mine_counts.get(group, 0) + count

    def merge(self, other: "CollectorShardState") -> "CollectorShardState":
        """Combined state of two shards (neither operand is mutated).

        Associative and commutative up to floating-point rounding of the
        slot sums and the ordering of the concatenated report arrays;
        counts and the multiset of (user, slot, value) triples combine
        exactly.  The merged state tracks users (or retains report
        arrays) only when both operands do — a shard that dropped state
        cannot be reconstructed.
        """
        merged = self.copy()
        merged.merge_in_place(other)
        return merged

    def copy(self) -> "CollectorShardState":
        """Independent copy (segments are shared — they are never mutated)."""
        return CollectorShardState(
            track_users=self.track_users,
            keep_reports=self.keep_reports,
            slot_sums=dict(self.slot_sums),
            slot_counts=dict(self.slot_counts),
            slot_values={t: list(v) for t, v in self.slot_values.items()},
            by_user={uid: dict(s) for uid, s in self.by_user.items()},
            n_reports=self.n_reports,
            robust_policy=self.robust_policy,
            group_sums={t: dict(g) for t, g in self.group_sums.items()},
            group_counts={t: dict(g) for t, g in self.group_counts.items()},
        )


class Collector:
    """Aggregates sanitized reports from many users.

    Args:
        epsilon_per_report: the per-report budget users ran with — needed
            only for EM distribution reconstruction (the SW channel shape
            depends on it); pass ``None`` to disable distribution queries.
        smoothing_window: odd SMA window applied by publication queries;
            ``None`` publishes raw report series.
        track_users: keep per-user report dicts (default).  Population-
            scale runs pass ``False`` to drop the O(users x slots) dict;
            aggregate queries (means, distributions) still work, per-user
            queries and cross-batch duplicate detection raise/disable.
        keep_reports: retain per-slot report arrays (default).  Pass
            ``False`` at extreme scale to keep only O(slots) running
            aggregates; mean queries still work, distribution queries
            raise.
        robust_policy: optional robust-aggregation policy — a
            :class:`~repro.adversary.RobustPolicy`, a kind name
            (``"clip"``, ``"trim"``, ``"median-of-means"``), a policy
            dict, or ``None``/``"none"`` for the plain fold.  ``clip``
            transforms values at ingestion; ``trim`` and
            ``median-of-means`` change the :meth:`population_mean`
            query fold (``trim`` requires ``keep_reports=True``).
    """

    def __init__(
        self,
        epsilon_per_report: Optional[float] = None,
        smoothing_window: Optional[int] = 3,
        track_users: bool = True,
        keep_reports: bool = True,
        robust_policy: "RobustPolicy | str | dict | None" = None,
    ) -> None:
        if epsilon_per_report is not None:
            epsilon_per_report = ensure_epsilon(
                epsilon_per_report, "epsilon_per_report"
            )
        if smoothing_window is not None:
            smoothing_window = ensure_positive_int(smoothing_window, "smoothing_window")
            if smoothing_window % 2 == 0:
                raise ValueError("smoothing_window must be odd")
        policy = make_policy(robust_policy)
        if policy is not None and policy.needs_reports and not keep_reports:
            raise ValueError(
                f"robust policy {policy.kind!r} reads retained report "
                "arrays; it requires keep_reports=True"
            )
        self.epsilon_per_report = epsilon_per_report
        self.smoothing_window = smoothing_window
        self._state = CollectorShardState(
            track_users=bool(track_users),
            keep_reports=bool(keep_reports),
            robust_policy=policy,
        )

    # -- shard state -----------------------------------------------------

    @property
    def state(self) -> CollectorShardState:
        """The collector's aggregate state (live reference, not a copy)."""
        return self._state

    @property
    def track_users(self) -> bool:
        return self._state.track_users

    @property
    def keep_reports(self) -> bool:
        return self._state.keep_reports

    @property
    def robust_policy(self) -> Optional[RobustPolicy]:
        return self._state.robust_policy

    def restore_state(self, state: CollectorShardState) -> None:
        """Replace this collector's aggregate state wholesale.

        The checkpoint-restore entry point of the write-ahead log
        (:mod:`repro.wal`): unlike :meth:`merge_state` — which folds the
        restored sums into fresh zeros and is therefore only equal up to
        floating-point identities like ``0.0 + -0.0`` — replacement is
        bit-exact by construction.  Only an *empty* collector may be
        restored, and the state's memory switches must match the
        collector's configuration.
        """
        if not isinstance(state, CollectorShardState):
            raise TypeError(
                f"expected a CollectorShardState, got {type(state).__name__}"
            )
        if self._state.n_reports or self._state.slot_sums or self._state.slot_counts:
            raise RuntimeError(
                "restore_state needs an empty collector (it replaces, "
                "never merges)"
            )
        if (
            state.track_users != self._state.track_users
            or state.keep_reports != self._state.keep_reports
        ):
            raise ValueError(
                "checkpoint state was built with "
                f"track_users={state.track_users}/"
                f"keep_reports={state.keep_reports} but this collector is "
                f"configured with track_users={self._state.track_users}/"
                f"keep_reports={self._state.keep_reports}"
            )
        if state.robust_policy != self._state.robust_policy:
            raise ValueError(
                "checkpoint state was built with robust_policy="
                f"{state.robust_policy!r} but this collector is "
                f"configured with {self._state.robust_policy!r}"
            )
        self._state = state

    def merge_state(self, other: "CollectorShardState | Collector") -> None:
        """Absorb another collector's (or shard's) aggregate state.

        After merging every shard of a partitioned population, this
        collector answers aggregate queries exactly as if it had ingested
        every report itself (see the merge-algebra tests).
        """
        state = other._state if isinstance(other, Collector) else other
        self._state.merge_in_place(state)

    def _require_user_tracking(self) -> Dict[int, Dict[int, float]]:
        if not self._state.track_users:
            raise RuntimeError(
                "per-user queries need track_users=True "
                "(disabled to bound memory at population scale)"
            )
        return self._state.by_user

    # -- ingestion -------------------------------------------------------

    def ingest(self, report: Report) -> None:
        """Record one report (duplicate (user, t) pairs are rejected)."""
        if self._state.has_report(report.user_id, report.t):
            raise ValueError(
                f"duplicate report for user {report.user_id} at t={report.t}"
            )
        self._state.add_report(int(report.user_id), int(report.t), float(report.value))

    def ingest_many(self, reports: "list[Report]") -> None:
        for report in reports:
            self.ingest(report)

    def ingest_batch(
        self,
        t: int,
        user_ids: np.ndarray,
        values: np.ndarray,
        group: int = 0,
    ) -> None:
        """Record one slot's reports for many users in a single call.

        The batch entry point of the vectorized protocol engine: instead
        of ``n_users`` :class:`Report` objects per slot, the engine hands
        over the participating users' ids and their perturbed values as
        parallel arrays.  Semantically equivalent to ingesting the
        corresponding reports one by one (duplicates rejected, same
        aggregates), but without per-report object construction.

        Content is checked by :func:`~repro._validation.ensure_report_batch`,
        the O(n) check the pipeline also runs at its edge; duplicates of
        earlier batches are caught only with ``track_users`` (the only
        per-id Python work).

        Args:
            t: the time slot every value belongs to.
            user_ids: ``(k,)`` non-negative, distinct user ids.
            values: ``(k,)`` perturbed values aligned with ``user_ids``.
            group: shard-group label for the ``median-of-means`` robust
                policy (the batch's global chunk index; ignored
                otherwise).
        """
        t = int(t)
        if t < 0:
            raise ValueError(f"t must be non-negative, got {t}")
        vals = np.asarray(values, dtype=float)
        ids = np.asarray(user_ids)
        if vals.ndim != 1 or ids.shape != vals.shape:
            raise ValueError(
                f"user_ids and values must be aligned 1-D arrays, got "
                f"shapes {ids.shape} and {vals.shape}"
            )
        if ids.size == 0:
            return
        ensure_report_batch(ids, vals, t)
        # Check history before mutating anything, so a rejected batch
        # leaves the collector untouched (the history is the per-user dict).
        id_list = ids.tolist() if self._state.track_users else None
        for uid in id_list or ():
            if self._state.has_report(uid, t):
                raise ValueError(f"duplicate report for user {uid} at t={t}")
        self._state.add_slot_batch(t, id_list, vals, group=int(group))

    # -- inspection ------------------------------------------------------

    @property
    def n_reports(self) -> int:
        return self._state.n_reports

    @property
    def n_users(self) -> int:
        return len(self._require_user_tracking())

    def slots(self) -> "list[int]":
        """Time slots with at least one report, sorted."""
        return sorted(self._state.slot_counts)

    # -- aggregate queries -------------------------------------------------

    def population_mean(self, t: int) -> float:
        """Cross-user mean of reports at slot ``t``.

        O(1) via running sums by default.  Under a ``trim`` or
        ``median-of-means`` robust policy the query applies the policy's
        fold instead (sorted trimmed mean / median of group means) —
        both are pure functions of the slot's report multiset and group
        aggregates, so every execution mode answers identically.
        """
        count = self._state.slot_counts.get(t)
        if not count:
            raise KeyError(f"no reports at slot {t}")
        policy = self._state.robust_policy
        if policy is not None:
            return policy.slot_mean(self._state, t)
        return self._state.slot_sums[t] / count

    def population_mean_series(self) -> np.ndarray:
        """Population mean at every observed slot (sorted by slot)."""
        return np.array([self.population_mean(t) for t in self.slots()])

    def user_series(self, user_id: int) -> np.ndarray:
        """One user's report series ordered by slot."""
        per_user = self._require_user_tracking().get(user_id)
        if not per_user:
            raise KeyError(f"no reports from user {user_id}")
        return np.array([per_user[t] for t in sorted(per_user)])

    def publish_user_stream(self, user_id: int) -> np.ndarray:
        """The published (optionally smoothed) stream for one user."""
        series = self.user_series(user_id)
        if self.smoothing_window is None or series.size == 1:
            return series
        return simple_moving_average(series, self.smoothing_window)

    def user_subsequence_mean(self, user_id: int, start: int, end: int) -> float:
        """Estimated mean of one user's subsequence ``[start, end]``."""
        per_user = self._require_user_tracking().get(user_id)
        if not per_user:
            raise KeyError(f"no reports from user {user_id}")
        values = [per_user[t] for t in range(start, end + 1) if t in per_user]
        if not values:
            raise KeyError(f"user {user_id} has no reports in [{start}, {end}]")
        return float(np.mean(values))

    def crowd_mean_estimates(self, start: int, end: int) -> np.ndarray:
        """Per-user subsequence-mean estimates over ``[start, end]``.

        The input to crowd-level distribution analysis (Fig. 8).
        """
        estimates = [
            self.user_subsequence_mean(user_id, start, end)
            for user_id in sorted(self._require_user_tracking())
        ]
        return np.array(estimates)

    def estimate_slot_distribution(self, t: int, n_bins: int = 32) -> np.ndarray:
        """EM-reconstructed distribution of true values at slot ``t``.

        Requires ``epsilon_per_report`` (the SW channel is budget-shaped).
        Only statistically meaningful when many users reported at ``t``.
        """
        if self.epsilon_per_report is None:
            raise RuntimeError(
                "distribution queries need epsilon_per_report at construction"
            )
        values = self._state.slot_reports(t)
        if not values.size:
            raise KeyError(f"no reports at slot {t}")
        mech = SquareWaveMechanism(self.epsilon_per_report)
        return mech.estimate_distribution(values, n_bins=n_bins)

    def streaming_smoother(self) -> OnlineSmoother:
        """A fresh incremental smoother matching this collector's window."""
        if self.smoothing_window is None:
            raise RuntimeError("collector was configured without smoothing")
        return OnlineSmoother(self.smoothing_window)
