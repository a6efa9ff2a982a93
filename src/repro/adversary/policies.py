"""Robust-aggregation policies applied at the collector boundary.

A :class:`RobustPolicy` is the collector's defense against poisoned
reports (:mod:`repro.adversary.attacks`).  Policies plug into
:class:`~repro.protocol.Collector` /
:class:`~repro.protocol.CollectorShardState` so every execution mode —
vectorized, sharded, live, gateway, distributed — applies the *identical*
fold and stays bit-identical to the others:

* ``none`` — the plain running-sum mean (the default; represented as
  ``None`` everywhere downstream so unconfigured runs are untouched).
* ``clip`` — clip-to-domain at *ingestion* time: every report is clipped
  into ``[low, high]`` element-wise before it enters the running sums.
  Clipping is idempotent and element-wise, so the fold order is exactly
  the unclipped fold's order and any shard decomposition merges to the
  same bits.
* ``trim`` — trimmed mean at *query* time: the slot's retained reports
  are sorted and the ``trim`` fraction is dropped from each tail before
  averaging.  Sorting removes the segment-concatenation order, so the
  estimate is invariant under decomposition **and** merge order (it
  needs ``keep_reports=True``).
* ``median-of-means`` — median of per-shard-group means at query time:
  each ingested batch carries a group label (the global chunk index),
  per-group sums/counts accumulate in the shard state, and the estimate
  is the median of the group means in sorted-group order.  The grouping
  is defined by the chunk decomposition, so the estimate is a pure
  function of ``(source chunking, reports)``.

Policies are frozen dataclasses: picklable (multiprocessing workers),
hashable, and comparable — shard-state merges require both operands to
carry the *same* policy, so mixed-policy folds fail loudly.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

__all__ = ["POLICIES", "RobustPolicy", "make_policy"]

#: the registered robust-aggregation policy kinds
POLICIES = ("none", "clip", "trim", "median-of-means")


@dataclass(frozen=True)
class RobustPolicy:
    """One robust-aggregation policy (see the module docstring).

    Args:
        kind: ``clip``, ``trim``, or ``median-of-means`` (``none`` is
            represented as no policy at all — see :func:`make_policy`).
        low, high: the clip interval (``clip`` only; defaults to the
            protocol's ``[0, 1]`` input domain).
        trim: fraction trimmed from *each* tail (``trim`` only).
    """

    kind: str = "clip"
    low: float = 0.0
    high: float = 1.0
    trim: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in POLICIES:
            close = difflib.get_close_matches(
                str(self.kind), POLICIES, n=3, cutoff=0.5
            )
            hint = (
                f"; did you mean {' or '.join(repr(c) for c in close)}?"
                if close
                else ""
            )
            known = ", ".join(POLICIES)
            raise ValueError(
                f"unknown robust policy {self.kind!r}{hint} (known: {known})"
            )
        if not (np.isfinite(self.low) and np.isfinite(self.high)):
            raise ValueError(
                f"clip bounds must be finite, got [{self.low}, {self.high}]"
            )
        if not self.low < self.high:
            raise ValueError(
                f"clip bounds must satisfy low < high, got "
                f"[{self.low}, {self.high}]"
            )
        if not 0.0 <= float(self.trim) < 0.5:
            raise ValueError(
                f"trim fraction must be in [0, 0.5), got {self.trim}"
            )

    # -- capability switches ---------------------------------------------

    @property
    def uses_groups(self) -> bool:
        """Whether ingestion must accumulate per-group sums/counts."""
        return self.kind == "median-of-means"

    @property
    def needs_reports(self) -> bool:
        """Whether the policy's query fold reads retained report arrays."""
        return self.kind == "trim"

    # -- the two folds ---------------------------------------------------

    def transform(self, values: np.ndarray) -> np.ndarray:
        """The ingestion-time value transform (identity unless ``clip``)."""
        if self.kind == "clip":
            return np.clip(values, self.low, self.high)
        return values

    def transform_scalar(self, value: float) -> float:
        """Scalar counterpart of :meth:`transform` (per-report path)."""
        if self.kind == "clip":
            return float(min(max(value, self.low), self.high))
        return float(value)

    def slot_mean(self, state, t: int) -> float:
        """The query-time population-mean fold over one slot's state.

        ``state`` is a :class:`~repro.protocol.CollectorShardState`
        (duck-typed to avoid a circular import).  The caller guarantees
        the slot has at least one report.
        """
        if self.kind == "trim":
            values = np.sort(np.asarray(state.slot_reports(t), dtype=float))
            k = int(float(self.trim) * values.size)
            if values.size - 2 * k < 1:
                return float(np.median(values))
            kept = values[k : values.size - k]
            # Clamped to the kept window: mean() can round one ulp past
            # its extremes (three equal values can average below them).
            return float(min(max(kept.mean(), kept[0]), kept[-1]))
        if self.kind == "median-of-means":
            sums = state.group_sums.get(t, {})
            counts = state.group_counts.get(t, {})
            means = [
                sums[g] / counts[g] for g in sorted(sums) if counts.get(g)
            ]
            if not means:
                raise KeyError(f"no group aggregates at slot {t}")
            return float(np.median(means))
        return state.slot_sums[t] / state.slot_counts[t]

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload (checkpoints, WAL run configs, snapshots)."""
        return {
            "kind": str(self.kind),
            "low": float(self.low),
            "high": float(self.high),
            "trim": float(self.trim),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RobustPolicy":
        return cls(
            kind=str(data.get("kind", "clip")),
            low=float(data.get("low", 0.0)),
            high=float(data.get("high", 1.0)),
            trim=float(data.get("trim", 0.1)),
        )


def make_policy(
    policy: "RobustPolicy | str | Dict[str, Any] | None",
) -> Optional[RobustPolicy]:
    """Resolve a policy argument to a :class:`RobustPolicy` (or ``None``).

    Accepts a policy object, a kind name (``"clip"``, ``"trim"``,
    ``"median-of-means"``), a :meth:`RobustPolicy.to_dict` payload, or
    ``None``.  Both ``None`` and ``"none"`` resolve to ``None`` — the
    collector's untouched default fold — so the no-defense path carries
    no policy object anywhere (and serialized states omit the field).
    """
    if policy is None:
        return None
    if isinstance(policy, RobustPolicy):
        return None if policy.kind == "none" else policy
    if isinstance(policy, str):
        if policy == "none":
            return None
        return RobustPolicy(kind=policy)
    if isinstance(policy, dict):
        return make_policy(RobustPolicy.from_dict(policy))
    raise TypeError(
        f"robust_policy must be a RobustPolicy, a kind name, a dict, or "
        f"None, got {type(policy).__name__}"
    )
