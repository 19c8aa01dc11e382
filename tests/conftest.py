"""Shared pytest setup: property tests run derandomized, so every run draws the same examples."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None, print_blob=True)
settings.load_profile("repeatable")
