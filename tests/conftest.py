"""Hypothesis settings shared by the whole suite.

Property tests are derandomized, so a run draws the same examples every
time, and have no deadline, since the slow ones run full solves.  A test's
own ``@settings`` sets only ``max_examples``.
"""
from hypothesis import settings

settings.register_profile("dvarimax", derandomize=True, deadline=None)
settings.load_profile("dvarimax")
