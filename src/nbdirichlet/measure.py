"""Finite weighted measure spaces and fields on them.

A ``MeasureSpace`` is a finite point set {0, ..., n-1} with strictly positive
weights m(x), a ``Field`` one finite real value per point (a flow's initial
datum, a witness's field), each a read-only copy of numbers read by
``errors.as_reals``. The kernels and solvers work on plain arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import BadWeight, EmptySpace, SpaceMismatch, as_reals


class MeasureSpace:
    """Finite set of points with strictly positive, finite weights."""

    __slots__ = ("weights",)

    def __init__(self, weights) -> None:
        try:
            arr = as_reals("a weight", weights)
        except ValueError as exc:
            raise BadWeight(str(exc)) from exc
        if arr.ndim != 1:
            raise BadWeight("weights must be a one-dimensional sequence")
        if arr.size == 0:
            raise EmptySpace("a measure space needs at least one point")
        if np.any(arr <= 0.0):
            raise BadWeight("weights must be strictly positive")
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)

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

    The values are read by ``as_reals``: a float or integer array, or a
    sequence of ints and floats; a bool, a string or None is not a value.
    Raises SpaceMismatch for the wrong shape and ValueError for any other
    bad value."""

    __slots__ = ("space", "values")

    def __init__(self, space: MeasureSpace, values) -> None:
        arr = as_reals("a field value", values)
        if arr.shape != (space.n,):
            raise SpaceMismatch(f"field has {arr.size} values for a space of {space.n} points")
        arr.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __repr__(self) -> str:
        return f"Field({np.array2string(self.values, threshold=8)})"


def make_field(space: MeasureSpace, values) -> Field:
    return Field(space, values)
