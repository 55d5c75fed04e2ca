"""Shared test settings: hypothesis runs a fixed, bounded set of examples so
the suite stays deterministic and its run time stays flat."""
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("tier1")
