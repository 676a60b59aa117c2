"""Finite weighted measure spaces and the one check of values from outside.

A ``MeasureSpace`` is a finite point set {0, ..., n-1} with strictly positive
weights m(x). A ``Field`` is one finite real value per point: it validates
values that come from outside (a flow's initial datum, a witness's fields)
and keeps a read-only copy. The kernels and solvers work on plain arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import BadWeight, EmptySpace, SpaceMismatch, as_real


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class MeasureSpace:
    """Finite set of points with strictly positive, finite weights."""

    __slots__ = ("weights",)

    def __init__(self, weights) -> None:
        try:
            arr = np.asarray(weights, dtype=float)
        except (TypeError, ValueError) as exc:  # an entry that is not a number
            raise BadWeight(f"weights must be real numbers: {exc}") from exc
        if arr.ndim != 1:
            raise BadWeight("weights must be a one-dimensional sequence")
        if arr.size == 0:
            raise EmptySpace("a measure space needs at least one point")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise BadWeight("weights must be finite and strictly positive")
        object.__setattr__(self, "weights", _readonly(arr))

    def __setattr__(self, name, value):
        raise AttributeError("MeasureSpace is immutable")

    @property
    def n(self) -> int:
        return self.weights.size

    def __eq__(self, other) -> bool:
        return isinstance(other, MeasureSpace) and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self) -> int:
        return hash(self.weights.tobytes())

    def __repr__(self) -> str:
        return f"MeasureSpace(n={self.n})"


class Field:
    """A real-valued function on a MeasureSpace, one finite value per point.

    The values are a float or integer array, or a sequence of ints and
    floats; a bool, a string or None is not a value. Raises SpaceMismatch
    for the wrong shape and ValueError for any other bad value."""

    __slots__ = ("space", "values")

    def __init__(self, space: MeasureSpace, values) -> None:
        arr = values
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
            arr = np.asarray(values, dtype=object)  # each entry as it was given
        if arr.shape != (space.n,):
            raise SpaceMismatch(
                f"field has {arr.size} values for a space of {space.n} points"
            )
        if arr.dtype == object:
            arr = [x if type(x) is float else as_real("a field value", x) for x in arr]
        arr = _readonly(arr)
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __repr__(self) -> str:
        return f"Field({np.array2string(self.values, threshold=8)})"


def make_field(space: MeasureSpace, values) -> Field:
    return Field(space, values)
