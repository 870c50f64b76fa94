"""Shared test settings.

Property tests run under a derandomized ``hypothesis`` profile with a bounded
example count and no per-example deadline, so every run draws the same
examples and a slow shared host cannot fail them on timing.
"""

from hypothesis import settings

settings.register_profile("feynlab", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("feynlab")
