"""Suite-wide settings: property tests draw a fixed sequence of examples,
so every run of the suite checks the same cases in bounded time."""

from hypothesis import settings

settings.register_profile("oodtune", derandomize=True, deadline=None, max_examples=50,
                          database=None)
settings.load_profile("oodtune")
