"""Shared test configuration.

Property tests run under a derandomized hypothesis profile without a
per-example deadline, so the suite draws the same examples on every run
and does not fail on a slow or busy machine.
"""

from hypothesis import settings

settings.register_profile("unclosed", derandomize=True, deadline=None)
settings.load_profile("unclosed")
