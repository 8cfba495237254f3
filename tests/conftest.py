"""Hypothesis profiles. `HYPOTHESIS_PROFILE=ci` draws the same examples on
every run and prints the blob that replays a failure, so a failure in CI
reproduces locally under the same variable; without it, local runs keep
drawing new examples."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
