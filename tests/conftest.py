"""Shared Hypothesis settings.

``pytest --hypothesis-profile=ci`` runs the properties that size their
runs with ``examples`` (tests/test_frobenius.py, tests/test_factors.py),
and those that take the profile's count (the Fibonacci factor and factor
cache properties of tests/test_ternary.py), at five times the examples
they run by default.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=500)
