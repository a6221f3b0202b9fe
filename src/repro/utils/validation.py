"""Small argument-validation helpers shared across the library.

These helpers exist to keep error messages uniform; every public constructor
in the library validates its arguments eagerly so that misconfiguration is
reported where it happens rather than deep inside a simulation loop.
"""

from __future__ import annotations

from typing import Iterable, TypeVar

import numpy as np

T = TypeVar("T")

__all__ = [
    "check_integer_lengths",
    "check_positive_int",
    "check_non_negative_int",
    "check_in_choices",
    "check_probability",
    "check_positive",
]


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is a strictly positive integer, else raise."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative_int(value: int, name: str) -> int:
    """Return ``value`` if it is a non-negative integer, else raise."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Return ``value`` if it is a strictly positive number, else raise."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return float(value)


def check_in_choices(value: T, choices: Iterable[T], name: str) -> T:
    """Return ``value`` if it is one of ``choices``, else raise."""
    choices = tuple(choices)
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Return ``value`` if it lies in ``[0, 1]``, else raise."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def check_integer_lengths(valid_lengths) -> np.ndarray:
    """Return a copy of ``valid_lengths`` as int64 if its dtype is integer.

    Lengths of any other dtype raise instead of being cast: a cast would
    serve 2.7 as 2, True as 1 and "3" as 3.  The copy keeps a caller that
    reuses its array from changing lengths already accepted.  Shape and
    range checks stay with the caller, which knows the row count and
    sequence length.
    """
    lengths = np.asarray(valid_lengths)
    # An empty list has numpy's default float dtype but no value to misread.
    if lengths.size and not np.issubdtype(lengths.dtype, np.integer):
        raise ValueError(
            f"valid_lengths must be integers, got dtype {lengths.dtype}"
        )
    return lengths.astype(np.int64)
