"""Tests for repro._validation — the shared argument-checking helpers."""

import numpy as np
import pytest

from repro._validation import (
    MAX_EPSILON,
    ensure_epsilon,
    ensure_in_unit_interval,
    ensure_positive_int,
    ensure_probability,
    ensure_report_batch,
    ensure_rng,
    ensure_stream,
    ensure_window,
)


class TestEnsureEpsilon:
    def test_accepts_positive_float(self):
        assert ensure_epsilon(1.5) == 1.5

    def test_accepts_int(self):
        assert ensure_epsilon(2) == 2.0
        assert isinstance(ensure_epsilon(2), float)

    def test_accepts_numpy_scalar(self):
        assert ensure_epsilon(np.float64(0.5)) == 0.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="positive"):
            ensure_epsilon(0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            ensure_epsilon(-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ensure_epsilon(float("nan"))

    def test_rejects_infinity(self):
        with pytest.raises(ValueError, match="finite"):
            ensure_epsilon(float("inf"))

    def test_rejects_above_cap(self):
        with pytest.raises(ValueError, match=str(MAX_EPSILON)):
            ensure_epsilon(MAX_EPSILON + 1)

    def test_accepts_cap_exactly(self):
        assert ensure_epsilon(MAX_EPSILON) == MAX_EPSILON

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            ensure_epsilon(True)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            ensure_epsilon("1.0")

    def test_custom_name_in_message(self):
        with pytest.raises(ValueError, match="my_eps"):
            ensure_epsilon(-1.0, name="my_eps")


class TestEnsurePositiveInt:
    def test_accepts_positive(self):
        assert ensure_positive_int(3, "n") == 3

    def test_accepts_numpy_integer(self):
        assert ensure_positive_int(np.int64(5), "n") == 5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ensure_positive_int(0, "n")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ensure_positive_int(-2, "n")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            ensure_positive_int(2.0, "n")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            ensure_positive_int(True, "n")


class TestEnsureProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert ensure_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 2.0])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            ensure_probability(value, "p")


class TestEnsureStream:
    def test_returns_copy(self):
        original = np.array([0.1, 0.2])
        out = ensure_stream(original)
        out[0] = 9.0
        assert original[0] == 0.1

    def test_coerces_list(self):
        out = ensure_stream([1, 2, 3])
        assert out.dtype == float
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            ensure_stream([])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ensure_stream([[1.0, 2.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ensure_stream([0.1, float("nan")])


class TestEnsureInUnitInterval:
    def test_accepts_bounds(self):
        out = ensure_in_unit_interval(np.array([0.0, 1.0]))
        assert out.tolist() == [0.0, 1.0]

    def test_rejects_below(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ensure_in_unit_interval(np.array([-0.1, 0.5]))

    def test_rejects_above(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ensure_in_unit_interval(np.array([0.5, 1.1]))


class TestEnsureRng:
    def test_passes_through_generator(self, rng):
        assert ensure_rng(rng) is rng

    def test_creates_default(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_rejects_legacy_randomstate(self):
        with pytest.raises(TypeError):
            ensure_rng(np.random.RandomState(0))


class TestEnsureWindow:
    def test_accepts_positive(self):
        assert ensure_window(10) == 10

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ensure_window(0)


class TestEnsureReportBatch:
    @staticmethod
    def _check(ids, values=None):
        ids = np.asarray(ids)
        values = np.full(ids.size, 0.5) if values is None else np.asarray(values)
        return ensure_report_batch(ids, values, t=3)

    def test_returns_bounds_of_increasing_ids(self):
        assert self._check([2, 5, 11]) == (2, 11)
        assert self._check([7]) == (7, 7)

    def test_unsorted_unique_ids_take_the_fallback(self):
        assert self._check([11, 2, 5]) == (2, 11)
        assert self._check(np.array([4, 1], dtype=np.uint32)) == (1, 4)

    @pytest.mark.parametrize("ids", [[1, 1], [1, 2, 2], [4, 2, 4]])
    def test_duplicates_rejected(self, ids):
        with pytest.raises(ValueError, match="duplicate user ids in batch at t=3"):
            self._check(ids)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="non-negative, got -2"):
            self._check([-2, 0, 1])
        with pytest.raises(ValueError, match="non-negative, got -1"):
            self._check([3, -1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            self._check([0, 1], [0.5, bad])

    def test_float_ids_rejected(self):
        with pytest.raises(TypeError, match="integers"):
            self._check([0.0, 1.0])
