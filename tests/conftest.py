"""Suite-wide settings: every Hypothesis test draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
