import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# `pytest --hypothesis-profile=ci` runs every property test that takes its
# example count from the profile (tests/test_exit_codes.py) at a larger
# count; tier-1 runs keep the default profile
settings.register_profile("ci", max_examples=1500, deadline=None)
