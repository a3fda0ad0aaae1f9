# Makes the tests directory importable (for helpers.py).

from hypothesis import settings

# Property tests draw the same examples on every run: tier-1 stays
# reproducible and no example fails on a slow machine's timing alone.
settings.register_profile("diffcolor", derandomize=True, deadline=None,
                          max_examples=200, database=None)
settings.load_profile("diffcolor")
