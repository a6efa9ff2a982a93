"""Population-batched engines for the baseline algorithms.

Every engine here mirrors the :class:`~repro.core.online.BatchOnlinePerturber`
contract — ``n_users`` independent streams held as NumPy state arrays, one
``submit`` per time slot perturbing the whole population slice — so the
vectorized/sharded/live runtimes can execute the paper's full comparison
set, not just the core four algorithms.

Determinism contract: for ``n_users = 1`` with the same generator, each
engine is bit-identical to its scalar :class:`~repro.core.base.StreamPerturber`
counterpart (tested in ``tests/baselines/test_batch_baselines.py``):

* the per-slot generator consumption order matches the scalar loop
  (probe draw, then publication draw, in slot order);
* Square Wave parameters for data-dependent budgets (BA/BD publication
  pots) come from cached :class:`SquareWaveMechanism` instances, so the
  exact ``math.expm1``-based constants of the scalar path are reused —
  NumPy's SIMD ``exp``/``expm1`` differ from ``libm`` in the last ulp,
  which would silently break bit-equality;
* per-user mechanism invocations are grouped by distinct budget and
  drawn group-by-group in ascending budget order, which is a no-op for a
  single user and deterministic for any population.

:class:`BatchPPSampling` is the one *streaming adaptation*: the scalar
PP-S replicates each segment's report backwards over the segment (it sees
the whole interval at once), which a slot-clocked engine cannot do.  The
engine instead uploads at each segment's **last** slot and re-publishes
that report (spending nothing) until the next upload; the uploaded
segment reports themselves are bit-identical to the scalar
``SamplingResult.segment_reports`` for one user.  The matrix-level batch
path (:meth:`PPSampling.perturb_population`) keeps the scalar replication
semantics exactly.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .. import kernels
from .._validation import ensure_positive_int
from ..core.online import BatchOnlinePerturber
from ..core.sampling import PPSampling, choose_num_samples, segment_bounds
from ..mechanisms import HybridMechanism, SquareWaveMechanism
from ..privacy import per_sample_budget, samples_per_window
from .ba_sw import BASW
from .bd_sw import _MIN_PUBLISH_EPSILON, BDSW
from .topl import ToPL, estimate_tau_matrix, range_phase_length

__all__ = ["BatchBASW", "BatchBDSW", "BatchToPL", "BatchPPSampling"]

#: cap on cached per-budget SW constant rows.  BA-SW's pot takes a
#: handful of discrete values so its cache stays tiny; BD-SW's
#: halving-rule candidates are data-dependent, so on adversarial streams
#: the cache could otherwise grow O(users x slots).  A row is seven
#: floats, so the cap is generous; an eviction only costs re-deriving
#: the constants.
_CONST_CACHE_LIMIT = 65536

#: columns of a cached constants row (see ``_sw_constants``)
_B, _NEAR_MASS, _P_MINUS_Q, _MEAN_CONST, _MEAN_COEF, _BASE_MOMENT = range(6)


def _sw_constants(eps, _exp=math.exp, _expm1=math.expm1):
    """The publish pass's scalar SW constants at one budget.

    Inlined :func:`sw_probabilities` (same ``math``-library expressions,
    minus the validation — publish budgets are halves of already
    validated pools) followed by the value-independent subexpressions of
    ``near_mass``, ``expected_output`` and the second raw moment, each
    in the exact Python-float expression order of
    :class:`SquareWaveMechanism`.  BD-SW's halving rule produces tens of
    thousands of distinct budgets per population run, so this runs hot:
    every call is a cache miss in ``_VariableSpendEngine``.
    """
    b = (eps + _expm1(-eps)) / (2.0 * (_expm1(eps) - eps))
    e_eps = _exp(eps)
    q = 1.0 / (2.0 * b * e_eps + 1.0)
    p = e_eps * q
    return (
        b,
        2.0 * b * p,  # near_mass
        p - q,
        q * (1.0 + 2.0 * b) / 2.0,  # value-independent part of E[y]
        2.0 * b * (p - q),  # coefficient of x in E[y]
        q * ((1.0 + b) ** 3 - (-b) ** 3) / 3,  # E[y^2] base term
    )


class _VariableSpendEngine(BatchOnlinePerturber):
    """Shared plumbing for engines whose per-slot spends are data-dependent.

    ``_perturb_active`` records each participating user's actual spend in
    ``self._spends``; the accountant reads (and clears) it through the
    :meth:`_slot_spends` hook, so skipped slots and masked-out users are
    charged exactly zero.
    """

    def __init__(self, epsilon, w, n_users, rng=None, record_history=True):
        super().__init__(
            epsilon, w, n_users, rng, mechanism="sw", record_history=record_history
        )
        self._spends = np.zeros(self.n_users)
        self.accumulated_deviation = np.zeros(self.n_users)
        self._const_keys = np.empty(0)
        self._const_kidx = np.empty(0, dtype=np.intp)
        self._const_buf = np.empty((256, 6))
        self._const_n = 0

    def _slot_spends(self, mask):
        spends = self._spends.copy()
        self._spends[:] = 0.0
        return spends

    def _constants_rows(self, budgets: np.ndarray) -> np.ndarray:
        """``(budgets.size, 6)`` constants matrix at per-user budgets.

        The scalar baselines build a fresh mechanism per publication;
        here each distinct budget's scalar constants row is computed once
        (:func:`_sw_constants`, Python float arithmetic in the exact
        scalar expression order — NumPy's SIMD ``exp``/``expm1`` differ
        from ``libm`` in the last ulp, so the constants can never be
        vectorized) and memoized in an append-only row buffer addressed
        through a sorted key array.  BD-SW's halving rule makes most
        budgets distinct across a population run, so lookups have to be
        cheap on both sides: hits are one vectorized ``searchsorted``,
        and the Python miss loop touches each new budget exactly once.
        ``budgets`` may be unsorted and contain duplicates.
        """
        keys = self._const_keys
        pos = np.searchsorted(keys, budgets)
        if keys.size:
            inb = pos < keys.size
            found = inb.copy()
            found[inb] = keys[pos[inb]] == budgets[inb]
            miss = ~found
        else:
            miss = np.ones(budgets.size, dtype=bool)
        if miss.any():
            missing = np.unique(budgets[miss])
            start = self._const_n
            if start + missing.size > _CONST_CACHE_LIMIT:
                # Evict, then rebuild from every budget: hits lose their rows too.
                keys = np.empty(0)
                self._const_kidx = np.empty(0, dtype=np.intp)
                missing = np.unique(budgets)
                start = 0
            buf = self._const_buf
            while start + missing.size > buf.shape[0]:
                buf = self._const_buf = np.concatenate([buf, np.empty_like(buf)])
            buf[start : start + missing.size] = np.array(
                [_sw_constants(b) for b in missing.tolist()]
            )
            where = np.searchsorted(keys, missing)
            self._const_keys = keys = np.insert(keys, where, missing)
            self._const_kidx = np.insert(
                self._const_kidx, where, np.arange(start, start + missing.size)
            )
            self._const_n = start + missing.size
            pos = np.searchsorted(keys, budgets)
        return self._const_buf[self._const_kidx[pos]]

    def _grouped_publish_noise(
        self,
        budgets: np.ndarray,
        values: np.ndarray,
        consts: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``sqrt(Var_SW(budget)(x))`` per user, at per-user budgets.

        One vectorized pass over the whole slice: the per-budget scalar
        constants come from the cache (or a caller-precomputed per-user
        slice of it — the rows are pure functions of the budget, so the
        assembly route cannot change the bits), the value-dependent
        arithmetic runs elementwise with per-user constant arrays —
        bit-identical to evaluating ``output_variance`` one budget group
        at a time.
        """
        if consts is None:
            consts = self._constants_rows(budgets)
        return kernels.sw_publish_noise(
            values,
            consts[:, _B],
            consts[:, _P_MINUS_Q],
            consts[:, _MEAN_CONST],
            consts[:, _MEAN_COEF],
            consts[:, _BASE_MOMENT],
        )

    def _grouped_publish_draw(
        self,
        budgets: np.ndarray,
        values: np.ndarray,
        consts: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """SW publication draws per user, grouped by distinct budget.

        Groups consume the generator in ascending-budget order — the
        historical contract, vacuous for a single user (the bit-identity
        case).  Instead of one ``perturb`` call per group, the pass
        draws every group's three uniform blocks as a single
        ``random(3 * n)`` call (the ``Generator.random`` fill is
        sequential, so one call sliced per group consumes the exact
        doubles of the per-group calls) and applies the SW arithmetic
        elementwise with per-user constants via the kernel tier.
        """
        uniq, inverse = np.unique(budgets, return_inverse=True)
        if consts is None:
            consts = self._constants_rows(uniq)[inverse]
        # Users sorted by (budget, original position): the stable argsort
        # reproduces each group's historical intra-group order.
        order = np.argsort(inverse, kind="stable")
        group = inverse[order]
        rows = consts[order]
        # perturb() clips through _prepare before drawing.
        v = np.clip(values[order], 0.0, 1.0)
        n = values.size
        uniforms = self._rng.random(3 * n)
        counts = np.bincount(inverse, minlength=uniq.size)
        starts = np.cumsum(counts) - counts
        # Group g's block is uniforms[3 * start : 3 * start + 3 * count],
        # split [near | span | far]; position-in-group indexes into each.
        pos = np.arange(n) - starts[group]
        base = 3 * starts[group]
        size = counts[group]
        reports = np.empty(n)
        reports[order] = kernels.sw_report_from_uniforms(
            v,
            rows[:, _B],
            rows[:, _NEAR_MASS],
            uniforms[base + pos],
            uniforms[base + size + pos],
            uniforms[base + 2 * size + pos],
        )
        return reports


class BatchBASW(_VariableSpendEngine):
    """Population-batched budget-absorbing SW publisher (BA-SW).

    Per-user state: the publication pot, the dead-slot payback counter,
    and the last published report.  Each slot draws one vectorized probe
    for every participant, then one publication draw per distinct pot
    value among the publishing users.  Masked-out users skip the slot
    entirely (no probe, no pot accrual, zero spend), matching the
    ``OnlinePerturber.skip`` semantics.
    """

    def __init__(
        self,
        epsilon,
        w,
        n_users,
        rng=None,
        probe_fraction: float = 0.5,
        record_history: bool = True,
    ):
        super().__init__(epsilon, w, n_users, rng, record_history)
        # The scalar class owns the parameter validation and the
        # probe/publication budget split — read the derived fields off a
        # template so the two engines cannot diverge.
        template = BASW(epsilon, w, probe_fraction=probe_fraction)
        self.probe_fraction = template.probe_fraction
        self.probe_epsilon = template.probe_epsilon
        self.publish_share = template.publish_share
        self.pot_cap = template.pot_cap
        self._probe_mech = SquareWaveMechanism(self.probe_epsilon)
        self.pot = np.zeros(self.n_users)
        self.dead_remaining = np.zeros(self.n_users, dtype=np.int64)
        self.last_report = np.full(self.n_users, np.nan)

    def _perturb_active(self, values: np.ndarray, active: np.ndarray) -> np.ndarray:
        probes = self._probe_mech.perturb_batch(values, self._rng)
        self._spends[active] = self.probe_epsilon
        reports = np.empty(values.size)

        dead = self.dead_remaining[active] > 0
        if dead.any():
            dead_ids = active[dead]
            self.dead_remaining[dead_ids] -= 1
            reports[dead] = self.last_report[dead_ids]

        alive = np.flatnonzero(~dead)
        if alive.size:
            alive_ids = active[alive]
            pot = np.minimum(self.pot[alive_ids] + self.publish_share, self.pot_cap)
            self.pot[alive_ids] = pot
            first = np.isnan(self.last_report[alive_ids])
            publish = first.copy()
            decide = np.flatnonzero(~first)
            if decide.size:
                decide_ids = alive_ids[decide]
                dissimilarity = np.abs(
                    probes[alive[decide]] - self.last_report[decide_ids]
                )
                noise = self._grouped_publish_noise(
                    pot[decide], values[alive[decide]]
                )
                publish[decide] = dissimilarity > noise
            pub = np.flatnonzero(publish)
            if pub.size:
                pub_ids = alive_ids[pub]
                spend = pot[pub]
                drawn = self._grouped_publish_draw(spend, values[alive[pub]])
                self._spends[pub_ids] += spend
                self.dead_remaining[pub_ids] = np.maximum(
                    np.ceil(2.0 * spend / self.publish_share).astype(np.int64) - 1,
                    0,
                )
                self.pot[pub_ids] = 0.0
                self.last_report[pub_ids] = drawn
            reports[alive] = self.last_report[alive_ids]

        self.accumulated_deviation[active] += values - reports
        return reports


class BatchBDSW(_VariableSpendEngine):
    """Population-batched budget-distributing SW publisher (BD-SW).

    Per-user state: the sliding window of the last ``w`` publication
    spends (time order) and the last published report.  The window's
    remaining budget is summed left-to-right, exactly like the scalar
    deque, so the halving-rule candidates match bit for bit.
    """

    def __init__(
        self,
        epsilon,
        w,
        n_users,
        rng=None,
        probe_fraction: float = 0.5,
        record_history: bool = True,
    ):
        super().__init__(epsilon, w, n_users, rng, record_history)
        template = BDSW(epsilon, w, probe_fraction=probe_fraction)
        self.probe_fraction = template.probe_fraction
        self.probe_epsilon = template.probe_epsilon
        self.publish_pool = template.publish_pool
        self._probe_mech = SquareWaveMechanism(self.probe_epsilon)
        self.window_spends = np.zeros((self.n_users, self.w))
        self.last_report = np.full(self.n_users, np.nan)

    def _perturb_active(self, values: np.ndarray, active: np.ndarray) -> np.ndarray:
        probes = self._probe_mech.perturb_batch(values, self._rng)
        self._spends[active] = self.probe_epsilon

        # Full participation (the common case) mutates the state matrix in
        # place; a partial slot works on a gathered copy, scattered back
        # below.  NumPy buffers the overlapping in-place shift, so both
        # paths see identical values.
        full = active.size == self.n_users
        window = self.window_spends if full else self.window_spends[active]
        window[:, :-1] = window[:, 1:]
        window[:, -1] = 0.0
        # Left-to-right accumulation mirrors the scalar `sum(deque)`.
        total = np.zeros(values.size)
        for j in range(self.w):
            total = total + window[:, j]
        candidate = (self.publish_pool - total) / 2.0

        last = self.last_report[active]
        first = np.isnan(last)
        can_publish = candidate > _MIN_PUBLISH_EPSILON
        publish = first & can_publish
        # Both the noise comparison and the publication draw need the SW
        # constants at the halving-rule candidates, and the publishing
        # users are a subset of the capable ones — one cache pass over
        # the capable slice (sorted-unique keys keep the lookup cheap)
        # serves both.  The rows are pure functions of the budget, so
        # slicing a shared matrix is bit-identical to two lookups.
        can_idx = np.flatnonzero(can_publish)
        if can_idx.size:
            uniq, inv = np.unique(candidate[can_idx], return_inverse=True)
            rows_can = self._constants_rows(uniq)[inv]
            pos_in_can = np.empty(values.size, dtype=np.intp)
            pos_in_can[can_idx] = np.arange(can_idx.size)
        decide = np.flatnonzero(~first & can_publish)
        if decide.size:
            dissimilarity = np.abs(probes[decide] - last[decide])
            noise = self._grouped_publish_noise(
                candidate[decide], values[decide], rows_can[pos_in_can[decide]]
            )
            publish[decide] = dissimilarity > noise

        pub = np.flatnonzero(publish)
        if pub.size:
            pub_ids = active[pub]
            spend = candidate[pub]
            drawn = self._grouped_publish_draw(
                spend, values[pub], rows_can[pos_in_can[pub]]
            )
            self._spends[pub_ids] += spend
            window[pub, -1] = spend
            self.last_report[pub_ids] = drawn
            last = self.last_report[active]

        # Degenerate fallback (no budget, nothing published yet): publish
        # the probe so the collector still receives something.
        fallback = np.flatnonzero(np.isnan(last))
        reports = np.where(np.isnan(last), probes, last)
        if fallback.size:
            self.last_report[active[fallback]] = probes[fallback]

        if not full:
            self.window_spends[active] = window
        self.accumulated_deviation[active] += values - reports
        return reports


class BatchToPL(BatchOnlinePerturber):
    """Population-batched ToPL: SW range phase, then HM value phase.

    The two-phase schedule is slot-indexed, so the engine needs the run
    horizon at construction.  Phase-1 reports are buffered per user; the
    per-user clipping thresholds are fitted in one multi-row EM pass when
    the first phase-2 slot arrives.  A user who never reported during
    phase 1 (fully masked out) keeps the uniform prior, i.e. ``tau = 1``
    (no clipping).
    """

    def __init__(
        self,
        epsilon,
        w,
        n_users,
        horizon: int,
        rng=None,
        range_fraction: float = 0.3,
        quantile: float = 0.98,
        record_history: bool = True,
    ):
        super().__init__(
            epsilon, w, n_users, rng, mechanism="hm", record_history=record_history
        )
        template = ToPL(
            epsilon, w, range_fraction=range_fraction, quantile=quantile
        )
        self.range_fraction = template.range_fraction
        self.quantile = template.quantile
        self.horizon = ensure_positive_int(horizon, "horizon")
        self.n_range = range_phase_length(self.horizon, self.range_fraction)
        self._sw = SquareWaveMechanism(self.epsilon_per_slot)
        self._hm = HybridMechanism(self.epsilon_per_slot)
        self._phase1 = np.full((self.n_users, self.n_range), np.nan)
        self.tau: Optional[np.ndarray] = None
        self.accumulated_deviation = np.zeros(self.n_users)

    def _fit_tau(self) -> None:
        # One batched fit over the NaN-padded phase-1 buffer: bit-identical
        # to extracting each row's finite reports and fitting row lists,
        # without the per-user Python extraction loop.
        self.tau = estimate_tau_matrix(
            self._phase1, self.epsilon_per_slot, self.quantile
        )

    def _perturb_active(self, values: np.ndarray, active: np.ndarray) -> np.ndarray:
        t = self._t
        if t >= self.horizon:
            raise RuntimeError(
                f"all {self.horizon} slots already submitted; ToPL's phase "
                "schedule covers a fixed horizon"
            )
        if t < self.n_range:
            reports = self._sw.perturb_batch(values, self._rng)
            self._phase1[active, t] = reports
        else:
            if self.tau is None:
                self._fit_tau()
            tau = self.tau[active]
            scaled = np.clip(values, 0.0, tau) / tau
            reports = self._hm.perturb_batch(scaled, self._rng) * tau
        self.accumulated_deviation[active] += values - reports
        return reports


class BatchPPSampling(BatchOnlinePerturber):
    """Slot-clocked streaming PP-S over a population.

    Within a segment the engine buffers each user's values; at the
    segment's last slot it uploads the perturbed segment mean through the
    inner batched PP engine (spending the Theorem-6 per-sample budget)
    and re-publishes that report — spending nothing — on the following
    slots until the next upload.  Slots before the first upload produce
    no report (NaN), which the protocol engines translate into "user did
    not report".

    Sampling decides its uploads from the calendar, not per user, so the
    engine requires full participation: partial masks raise.
    """

    def __init__(
        self,
        epsilon,
        w,
        n_users,
        horizon: int,
        base="capp",
        n_samples: Optional[int] = None,
        base_kwargs: Optional[dict] = None,
        rng=None,
        record_history: bool = True,
    ):
        super().__init__(
            epsilon, w, n_users, rng, mechanism="sw", record_history=record_history
        )
        self.horizon = ensure_positive_int(horizon, "horizon")
        # Reuse the scalar class for base resolution and parameter checks.
        template = PPSampling(
            epsilon, w, base=base, n_samples=n_samples, base_kwargs=base_kwargs
        )
        n_samples = template.n_samples or choose_num_samples(
            self.horizon, self.w, self.epsilon
        )
        self.n_samples = min(n_samples, self.horizon)
        self.segment_length = self.horizon // self.n_samples
        self.samples_per_window = samples_per_window(self.w, self.segment_length)
        self.epsilon_per_sample = per_sample_budget(
            self.epsilon, self.w, self.segment_length
        )
        self._bounds = segment_bounds(self.horizon, self.n_samples)
        self._upload_slots = {hi - 1: r for r, (_, hi) in enumerate(self._bounds)}
        self.inner = template.base_class(
            epsilon=self.epsilon_per_sample * self.samples_per_window,
            w=self.samples_per_window,
            **template.base_kwargs,
        )._make_batch_engine(
            self.n_users,
            self._rng,
            horizon=self.n_samples,
            record_history=record_history,
        )
        self._columns: "list[np.ndarray]" = []
        self._last_report = np.full(self.n_users, np.nan)
        self._spend_now = 0.0

    def _slot_spends(self, mask):
        spend, self._spend_now = self._spend_now, 0.0
        return spend

    def submit(self, values, mask=None):
        # Guard at the submit boundary, not inside _perturb_active: the
        # base class skips _perturb_active entirely on an all-masked
        # slot, which would silently advance the slot clock past an
        # upload and desynchronize every later segment.
        if mask is not None:
            raise NotImplementedError(
                "sampling engines upload on a fixed calendar shared by the "
                "whole population and do not support partial participation"
            )
        return super().submit(values)

    def skip_slot(self):
        raise NotImplementedError(
            "sampling engines upload on a fixed calendar shared by the "
            "whole population and cannot skip slots"
        )

    def _perturb_active(self, values: np.ndarray, active: np.ndarray) -> np.ndarray:
        t = self._t
        if t >= self.horizon:
            raise RuntimeError(
                f"all {self.horizon} slots already submitted; the sampling "
                "segmentation covers a fixed horizon"
            )
        self._columns.append(values.copy())
        upload = self._upload_slots.get(t)
        if upload is not None:
            segment = np.column_stack(self._columns)
            self._columns.clear()
            means = np.clip(segment.mean(axis=1), 0.0, 1.0)
            self._last_report = self.inner.submit(means)
            self._spend_now = self.epsilon_per_sample
        return self._last_report
