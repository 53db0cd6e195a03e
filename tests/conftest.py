"""Shared test settings.

The property tests run under one deterministic hypothesis profile: the
same examples on every run, no deadline (the host's speed varies), a
small example count that keeps them to about a second, and no example
database written to disk.
"""

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself
    pass
else:
    settings.register_profile("qring", derandomize=True, deadline=None,
                              max_examples=40, database=None)
    settings.load_profile("qring")
