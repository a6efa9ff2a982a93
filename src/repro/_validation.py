"""Shared argument-validation helpers.

Every public entry point in :mod:`repro` validates its arguments through
these helpers so that error messages are uniform across the library and the
validation logic is tested in one place.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ensure_epsilon",
    "ensure_positive_int",
    "ensure_probability",
    "ensure_report_batch",
    "ensure_stream",
    "ensure_stream_matrix",
    "ensure_in_unit_interval",
    "ensure_rng",
    "ensure_window",
]

#: Largest privacy budget we accept for a single randomizer invocation.
#: ``exp(eps)`` must stay finite in double precision; practical deployments
#: never exceed this.
MAX_EPSILON = 50.0


def ensure_epsilon(epsilon: float, name: str = "epsilon") -> float:
    """Validate a privacy budget and return it as a ``float``.

    Raises:
        TypeError: if ``epsilon`` is not a real number.
        ValueError: if ``epsilon`` is not in ``(0, MAX_EPSILON]``.
    """
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float, np.floating, np.integer)):
        raise TypeError(f"{name} must be a real number, got {type(epsilon).__name__}")
    value = float(epsilon)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    if value > MAX_EPSILON:
        raise ValueError(f"{name} must be <= {MAX_EPSILON}, got {value}")
    return value


def ensure_positive_int(value: int, name: str) -> int:
    """Validate a strictly positive integer parameter."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)


def ensure_probability(value: float, name: str) -> float:
    """Validate a probability in ``[0, 1]``."""
    prob = float(value)
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {prob}")
    return prob


def ensure_report_batch(user_ids: np.ndarray, values: np.ndarray, t: int) -> Tuple[int, int]:
    """Validate one slot's non-empty, aligned 1-D report arrays.

    Ids must be non-negative integers, distinct within the batch; values
    finite.  O(n) for the strictly increasing ids every engine emits;
    only other orders pay for ``np.unique``.  Returns the ``(lo, hi)`` id
    bounds.  Raises ``TypeError`` for non-integer ids, else ``ValueError``.
    """
    if not np.issubdtype(user_ids.dtype, np.integer):
        raise TypeError(f"user_ids must be integers, got dtype {user_ids.dtype}")
    increasing = bool((user_ids[1:] > user_ids[:-1]).all())
    lo, hi = (user_ids[0], user_ids[-1]) if increasing else (user_ids.min(), user_ids.max())
    if lo < 0:
        raise ValueError(f"user_id must be non-negative, got {lo}")
    if not np.isfinite(values).all():
        raise ValueError("report values must be finite")
    if not increasing and np.unique(user_ids).size != user_ids.size:
        raise ValueError(f"duplicate user ids in batch at t={t}")
    return int(lo), int(hi)


def ensure_stream(values: Sequence[float], name: str = "values") -> np.ndarray:
    """Coerce a stream to a 1-D float array and validate it.

    Returns a *copy*, so callers may mutate the result freely.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr.copy()


def ensure_stream_matrix(streams, name: str = "streams") -> np.ndarray:
    """Validate a ``(n_users, T)`` population matrix of values in ``[0, 1]``.

    A zero-user matrix is allowed (an empty population is a valid, if
    trivial, protocol run); a population with zero slots is not.
    """
    arr = np.asarray(streams, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must form a (users, T) matrix, got shape {arr.shape}")
    if arr.shape[0] and arr.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty")
    if arr.size:
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must contain only finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError(
                f"{name} must lie in [0, 1]; observed range "
                f"[{arr.min():.6g}, {arr.max():.6g}]"
            )
    return arr


def ensure_in_unit_interval(values: np.ndarray, name: str = "values") -> np.ndarray:
    """Validate that every element lies in ``[0, 1]``."""
    arr = ensure_stream(values, name)
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError(
            f"{name} must lie in [0, 1]; observed range "
            f"[{arr.min():.6g}, {arr.max():.6g}]"
        )
    return arr


def ensure_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    """Return ``rng`` if given, else a freshly seeded default generator."""
    if rng is None:
        return np.random.default_rng()
    if not isinstance(rng, np.random.Generator):
        raise TypeError(
            "rng must be a numpy.random.Generator (use numpy.random.default_rng)"
        )
    return rng


def ensure_window(w: int, name: str = "w") -> int:
    """Validate a w-event window size."""
    return ensure_positive_int(w, name)
