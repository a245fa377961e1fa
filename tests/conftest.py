"""Hypothesis runs every property test deterministically.

Each test draws the same examples on every run and in every checkout:
``derandomize`` derives the draws from the test itself, and with no
example database a failure found once, in a stale ``.hypothesis/``, is
not replayed later. A draw that finds a defect is pinned as an
``@example`` once the program passes it. Tests keep their own
``max_examples`` and ``deadline``; the profile sets only what they leave
open.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
