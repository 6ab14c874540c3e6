"""Settings shared by the whole suite."""

from hypothesis import settings

# Every property draws the same examples on every run: derandomized, with no
# example database, and no per-example deadline on a loaded host.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
