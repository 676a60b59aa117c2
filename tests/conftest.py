"""Every Hypothesis test draws the same examples on every run and has no
per-example deadline, so its result depends neither on the run nor on the
speed of the machine. Each test keeps its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
