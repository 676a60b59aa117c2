"""Finite weighted measure spaces and real-valued fields on them.

A ``MeasureSpace`` is a finite point set {0, ..., n-1} with strictly positive
weights m(x); a ``Field`` is one real value per point. Norms are taken in the
weighted L2 sense, ||f||^2 = sum_x m(x) f(x)^2, except for the sup norm which
ignores weights. All values are immutable; operations return fresh objects.
"""

from __future__ import annotations

import numpy as np

from .errors import BadWeight, EmptySpace, SpaceMismatch


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class MeasureSpace:
    """Finite set of points with strictly positive, finite weights."""

    __slots__ = ("weights",)

    def __init__(self, weights) -> None:
        arr = np.asarray(weights, dtype=float)
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
    """A real-valued function on a MeasureSpace, one finite value per point."""

    __slots__ = ("space", "values")

    def __init__(self, space: MeasureSpace, values) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.shape != (space.n,):
            raise SpaceMismatch(
                f"field has {arr.size} values for a space of {space.n} points"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", _readonly(arr))

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __add__(self, other: "Field") -> "Field":
        check_same_space(self, other)
        return Field(self.space, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        check_same_space(self, other)
        return Field(self.space, self.values - other.values)

    def __neg__(self) -> "Field":
        return Field(self.space, -self.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.space, self.values * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Field({np.array2string(self.values, threshold=8)})"


def check_same_space(f: Field, g: Field) -> None:
    if f.space is not g.space and f.space != g.space:
        raise SpaceMismatch("fields live on different measure spaces")


def make_space(weights) -> MeasureSpace:
    """Build the space with points 0..n-1 carrying the given weights."""
    return MeasureSpace(weights)


def make_field(space: MeasureSpace, values) -> Field:
    return Field(space, values)


def l2_norm(f: Field) -> float:
    """Weighted L2 norm, sqrt(sum m(x) f(x)^2)."""
    return float(np.sqrt(np.sum(f.space.weights * f.values**2)))


def linf_norm(f: Field) -> float:
    """Sup norm max |f(x)|; weights play no role."""
    return float(np.max(np.abs(f.values)))


def leq(f: Field, g: Field) -> bool:
    """Pointwise order: true iff f(x) <= g(x) at every point."""
    check_same_space(f, g)
    return bool(np.all(f.values <= g.values))
