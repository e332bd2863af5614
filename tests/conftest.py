"""One hypothesis profile for the suite: derandomized, no example database
and no deadline, so every run draws the same examples and tier-1 stays
deterministic.  Each property test sets only its own max_examples."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
