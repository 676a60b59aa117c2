"""Exception types shared across the package, the integer check of config
dataclasses and the number checks of values from outside, scalar and array."""

import math

import numpy as np


class EmptySpace(ValueError):
    """A measure space needs at least one point."""


class BadWeight(ValueError):
    """Measure weights must be finite and strictly positive."""


class SpaceMismatch(ValueError):
    """Values do not fit the measure space they are meant for: a field with
    the wrong number of values, or a field on another space than the form's."""


class NotIncreasing(ValueError):
    """Breakpoints must be strictly increasing."""


class NotAlternating(ValueError):
    """The function is not in any F_k (slopes must alternate +1, -1, ... )."""


class InconsistentSamples(ValueError):
    """Envelope samples violate the 1-Lipschitz consistency precondition."""


class BadSpec(ValueError):
    """A form descriptor violates one of its invariants."""


class NoConvergence(RuntimeError):
    """An inner proximal solve exhausted its iteration budget or failed its contract."""


class PreconditionFailed(RuntimeError):
    """A check was invoked on an instance that fails its prerequisites."""


def require_int(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer, not a bool or a float,
    of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def as_real(name: str, value) -> float:
    """value as a float; raise ValueError unless it is a finite int or float,
    numpy's included, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the largest float
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def as_reals(name: str, values) -> np.ndarray:
    """values as a new float array of their shape: a float or integer array
    is copied, anything else read entry by entry by ``as_real``'s rule (not a
    bool, a string or None); raise ValueError unless every entry is finite."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        obj = np.asarray(values, dtype=object)  # each entry as it was given
        values = np.reshape([x if type(x) is float else as_real(name, x) for x in obj.flat], obj.shape)
    arr = np.array(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr
