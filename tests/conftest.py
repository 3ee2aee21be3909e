"""Hypothesis profiles: `HYPOTHESIS_PROFILE=ci` makes every property test
derandomized, so a failure seen in CI reproduces locally with the same
variable set."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None,
                          max_examples=100, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
