"""Hypothesis runs a derandomized profile: each property test draws the same
examples on every run, seeded from the test itself, and no example database
replays earlier failures.  Two checkouts of the suite then test the same
inputs, so a rounding-level difference cannot pass on one run and fail on
the next."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
