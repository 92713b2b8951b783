import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# the same examples on every run, and no example database written to disk
settings.register_profile("sigvol", derandomize=True, database=None, deadline=None)
settings.load_profile("sigvol")
