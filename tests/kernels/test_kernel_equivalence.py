"""Bitwise-equivalence harness for the compiled-kernel tier.

Three layers of pinning:

1. **Backend selection** — the ``REPRO_KERNELS`` switch, the
   numba-missing fallback (simulated by poisoning ``sys.modules``), and
   the error contract of :func:`repro.kernels.select_backend`.
2. **Kernel vs frozen reference** — each kernel against an embedded
   copy of the historical inline expressions (independent of
   ``repro.kernels._numpy``, so a refactor there cannot silently move
   the goalposts), on every available backend.
3. **Engine vs frozen reference** — the rewritten grouped publish
   passes and the batched ToPL threshold fit against per-group /
   per-row reference implementations that consume the generator the
   historical way, bit for bit at population scale.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import kernels
from repro.baselines.batch import (
    _B,
    _BASE_MOMENT,
    _MEAN_COEF,
    _MEAN_CONST,
    _NEAR_MASS,
    _P_MINUS_Q,
    BatchBASW,
    _sw_constants,
)
from repro.baselines.topl import estimate_tau_matrix, estimate_tau_rows
from repro.mechanisms import SquareWaveMechanism

BACKENDS = ["numpy"] + (["numba"] if kernels.numba_available() else [])


@pytest.fixture(autouse=True)
def _restore_backend():
    """Leave the process-wide backend as the environment dictates."""
    yield
    kernels.select_backend()


@pytest.fixture()
def backend(request):
    kernels.select_backend(request.param)
    return request.param


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_numpy_and_off_force_the_fallback(self):
        assert kernels.select_backend("numpy") == "numpy"
        assert kernels.active_backend() == "numpy"
        assert kernels.select_backend("off") == "numpy"

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError, match="REPRO_KERNELS"):
            kernels.select_backend("fast")

    def test_env_variable_drives_the_default(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "off")
        assert kernels.select_backend() == "numpy"
        monkeypatch.setenv(kernels.ENV_VAR, " NumPy ")
        assert kernels.select_backend() == "numpy"
        monkeypatch.setenv(kernels.ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="turbo"):
            kernels.select_backend()

    def test_auto_matches_numba_availability(self):
        expected = "numba" if kernels.numba_available() else "numpy"
        assert kernels.select_backend("auto") == expected

    def test_forced_numba_errors_when_missing(self):
        if kernels.numba_available():
            assert kernels.select_backend("numba") == "numba"
        else:
            with pytest.raises(ImportError):
                kernels.select_backend("numba")

    def test_simulated_numba_absence(self, monkeypatch):
        # Poison the import machinery: a None entry in sys.modules makes
        # ``import numba`` raise ImportError, and dropping the cached
        # backend module forces the re-import to go through it.
        monkeypatch.setitem(sys.modules, "numba", None)
        monkeypatch.delitem(sys.modules, "repro.kernels._numba", raising=False)
        assert not kernels.numba_available()
        assert kernels.select_backend("auto") == "numpy"
        with pytest.raises(ImportError):
            kernels.select_backend("numba")
        # The engines still run end to end on the fallback.
        engine = BatchBASW(1.0, 5, 4, np.random.default_rng(0))
        out = engine.submit(np.linspace(0.1, 0.9, 4))
        assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# kernels vs frozen inline expressions
# ---------------------------------------------------------------------------


def _reference_sw_report(values, b, near_mass, u_near, u_span, u_far):
    """The SW draw exactly as ``SquareWaveMechanism.perturb`` wrote it
    before the kernel tier existed."""
    near = u_near < near_mass
    near_draw = values + b * (2.0 * u_span - 1.0)
    left = u_far < values
    far_draw = np.where(left, -b + u_far, b + u_far)
    return np.where(near, near_draw, far_draw)


def _reference_publish_noise(values, b, p_minus_q, mean_const, mean_coef, base_moment):
    """``sqrt(output_variance)`` exactly as the publish pass wrote it."""
    mean = mean_const + mean_coef * values
    window = p_minus_q * ((values + b) ** 3 - (values - b) ** 3) / 3
    raw_second = base_moment + window
    return np.sqrt(raw_second - mean**2)


def _random_inputs(seed, n):
    rng = np.random.default_rng(seed)
    values = rng.random(n)
    uniforms = rng.random((3, n))
    budgets = rng.random(n) * 2.0 + 0.01
    return values, uniforms, budgets


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
class TestKernelBitwise:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_sw_report_scalar_constants(self, backend, seed):
        values, uniforms, _ = _random_inputs(seed, 257)
        mech = SquareWaveMechanism(0.8)
        got = kernels.sw_report_from_uniforms(
            values, mech.b, mech.near_mass, *uniforms
        )
        expected = _reference_sw_report(values, mech.b, mech.near_mass, *uniforms)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("seed", [1, 42])
    def test_sw_report_per_element_constants(self, backend, seed):
        values, uniforms, budgets = _random_inputs(seed, 193)
        consts = np.array([_sw_constants(eps) for eps in budgets.tolist()])
        got = kernels.sw_report_from_uniforms(
            values, consts[:, _B], consts[:, _NEAR_MASS], *uniforms
        )
        expected = _reference_sw_report(
            values, consts[:, _B], consts[:, _NEAR_MASS], *uniforms
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("seed", [3, 99])
    def test_publish_noise_matches_output_variance(self, backend, seed):
        values, _, budgets = _random_inputs(seed, 151)
        consts = np.array([_sw_constants(eps) for eps in budgets.tolist()])
        got = kernels.sw_publish_noise(
            values,
            consts[:, _B],
            consts[:, _P_MINUS_Q],
            consts[:, _MEAN_CONST],
            consts[:, _MEAN_COEF],
            consts[:, _BASE_MOMENT],
        )
        # Element by element against the mechanism's own variance — the
        # constants rows must reproduce the scalar formula exactly.
        expected = np.empty(values.size)
        for i, eps in enumerate(budgets.tolist()):
            mech = SquareWaveMechanism(eps)
            expected[i] = np.sqrt(mech.output_variance(values[i : i + 1]))[0]
        np.testing.assert_array_equal(got, expected)

    def test_backends_agree_with_each_other(self, backend):
        # Redundant with the reference checks, but pins the cross-backend
        # statement directly: whatever backend is active produces the
        # reference-numpy bits.
        values, uniforms, budgets = _random_inputs(11, 509)
        consts = np.array([_sw_constants(eps) for eps in budgets.tolist()])
        from repro.kernels import _numpy as reference

        got = kernels.sw_report_from_uniforms(
            values, consts[:, _B], consts[:, _NEAR_MASS], *uniforms
        )
        expected = reference.sw_report_from_uniforms(
            values, consts[:, _B], consts[:, _NEAR_MASS], *uniforms
        )
        np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------------------
# engines vs per-group / per-row frozen references
# ---------------------------------------------------------------------------


def _reference_grouped_noise(budgets, values):
    """Pre-rewrite publish noise: one mechanism per distinct budget."""
    out = np.empty(values.size)
    for budget in np.unique(budgets):
        members = np.flatnonzero(budgets == budget)
        mech = SquareWaveMechanism(float(budget))
        out[members] = np.sqrt(mech.output_variance(values[members]))
    return out


def _reference_grouped_draw(budgets, values, rng):
    """Pre-rewrite publish draw: one ``perturb_batch`` per distinct
    budget, in ascending-budget order (the historical rng contract)."""
    out = np.empty(values.size)
    for budget in np.unique(budgets):
        members = np.flatnonzero(budgets == budget)
        mech = SquareWaveMechanism(float(budget))
        out[members] = mech.perturb_batch(values[members], rng)
    return out


def _engine(seed):
    return BatchBASW(1.0, 5, 4, np.random.default_rng(seed))


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
class TestEngineBitwise:
    @pytest.mark.parametrize("seed", [0, 5, 21])
    def test_grouped_noise_matches_per_group_reference(self, backend, seed):
        rng = np.random.default_rng(seed)
        n = 400
        values = rng.random(n)
        # Duplicated budgets exercise the grouping; distinct ones the cache.
        budgets = rng.choice(rng.random(60) * 1.5 + 0.01, size=n)
        engine = _engine(seed)
        got = engine._grouped_publish_noise(budgets, values)
        np.testing.assert_array_equal(got, _reference_grouped_noise(budgets, values))

    @pytest.mark.parametrize("seed", [2, 9, 33])
    def test_grouped_draw_matches_per_group_reference(self, backend, seed):
        rng = np.random.default_rng(seed)
        n = 400
        values = rng.random(n)
        budgets = rng.choice(rng.random(60) * 1.5 + 0.01, size=n)
        engine = _engine(seed)
        engine._rng = np.random.default_rng(1234)
        got = engine._grouped_publish_draw(budgets, values)
        expected = _reference_grouped_draw(
            budgets, values, np.random.default_rng(1234)
        )
        np.testing.assert_array_equal(got, expected)

    def test_draw_with_precomputed_constants_is_identical(self, backend):
        rng = np.random.default_rng(77)
        n = 128
        values = rng.random(n)
        budgets = rng.choice(rng.random(12) * 1.5 + 0.01, size=n)
        engine = _engine(77)
        consts = engine._constants_rows(budgets)
        engine._rng = np.random.default_rng(5)
        with_rows = engine._grouped_publish_draw(budgets, values, consts)
        engine._rng = np.random.default_rng(5)
        without = engine._grouped_publish_draw(budgets, values)
        np.testing.assert_array_equal(with_rows, without)

    @pytest.mark.parametrize("seed", [4, 18])
    def test_tau_matrix_matches_row_fit(self, backend, seed):
        rng = np.random.default_rng(seed)
        n_users, n_range = 40, 6
        matrix = rng.random((n_users, n_range)) * 1.4 - 0.2
        # NaN-pad a ragged participation pattern, including an all-NaN row.
        mask = rng.random((n_users, n_range)) < 0.3
        matrix[mask] = np.nan
        matrix[0, :] = np.nan
        rows = [row[np.isfinite(row)] for row in matrix]
        got = estimate_tau_matrix(matrix, 0.2, 0.98)
        expected = estimate_tau_rows(rows, 0.2, 0.98)
        np.testing.assert_array_equal(got, expected)
        assert got[0] == 1.0  # no reports -> uniform prior -> no clipping


class TestConstantsCache:
    def test_rows_match_fresh_mechanisms(self):
        budgets = np.random.default_rng(3).random(300) * 2.0 + 0.005
        engine = _engine(0)
        rows = engine._constants_rows(budgets)
        for i, eps in enumerate(budgets.tolist()):
            mech = SquareWaveMechanism(eps)
            assert rows[i, _B] == mech.b
            assert rows[i, _NEAR_MASS] == mech.near_mass
            assert rows[i, _P_MINUS_Q] == mech.p - mech.q

    def test_duplicate_and_repeat_lookups_hit_the_same_rows(self):
        engine = _engine(0)
        budgets = np.array([0.3, 0.7, 0.3, 0.1, 0.7, 0.7])
        first = engine._constants_rows(budgets)
        again = engine._constants_rows(budgets)
        np.testing.assert_array_equal(first, again)
        assert engine._const_n == 3

    def test_cache_grows_past_initial_capacity(self):
        engine = _engine(0)
        budgets = np.random.default_rng(8).random(1000) * 2.0 + 0.005
        rows = engine._constants_rows(budgets)
        assert engine._const_n == np.unique(budgets).size
        resampled = engine._constants_rows(budgets[::-1])
        np.testing.assert_array_equal(rows[::-1], resampled)

    def test_eviction_returns_each_budgets_own_row(self, monkeypatch):
        """Crossing the cache cap evicts; budgets that hit before the
        eviction must get fresh rows too — never an out-of-range index
        and never a neighbouring budget's row."""
        from repro.baselines import batch

        monkeypatch.setattr(batch, "_CONST_CACHE_LIMIT", 8)
        engine = _engine(0)
        rng = np.random.default_rng(5)
        pool = rng.random(40) * 2.0 + 0.005
        engine._constants_rows(pool[:6])
        evictions = 0
        for k in range(8):
            # Old hits mixed with new misses, shuffled, with duplicates.
            budgets = np.concatenate([pool[k : k + 3], pool[6 + 4 * k : 10 + 4 * k]])
            budgets = rng.permutation(np.concatenate([budgets, budgets[:2]]))
            rows = engine._constants_rows(budgets)
            # A rebuilt cache holds exactly this call's budgets (the
            # previous call's misses are not among them).
            evictions += engine._const_keys.size == np.unique(budgets).size
            for row, eps in zip(rows, budgets.tolist()):
                np.testing.assert_array_equal(row, _sw_constants(eps))
            assert engine._const_n <= 8
        assert evictions >= 4  # the cap really was crossed, repeatedly

    def test_eviction_leaves_population_runs_bit_identical(self, monkeypatch):
        from repro.baselines import batch
        from repro.runtime import MatrixSource, run_protocol_sharded

        matrix = np.random.default_rng(2).random((300, 24))

        def run():
            source = MatrixSource(matrix, chunk_size=150)
            result = run_protocol_sharded(source, algorithm="bd-sw", seed=3)
            return result.collector.population_mean_series()

        reference = run()
        monkeypatch.setattr(batch, "_CONST_CACHE_LIMIT", 64)
        np.testing.assert_array_equal(run(), reference)
