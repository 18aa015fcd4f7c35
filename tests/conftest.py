"""Shared test settings.

Every ``hypothesis`` property runs the same reproducible profile: a fixed
example sequence, no example database and no per-example deadline, so
tier-1 stays deterministic and its time bounded.
"""

from hypothesis import settings

settings.register_profile(
    "nvbed", max_examples=40, deadline=None, derandomize=True, database=None
)
settings.load_profile("nvbed")
