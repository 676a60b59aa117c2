"""Exception types shared across the package, and the integer check of the
config dataclasses."""

import numpy as np


class EmptySpace(ValueError):
    """A measure space needs at least one point."""


class BadWeight(ValueError):
    """Measure weights must be finite and strictly positive."""


class SpaceMismatch(ValueError):
    """Two fields that should live on the same measure space do not."""


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
