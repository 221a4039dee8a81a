"""Hypothesis profiles for the whole suite.

``HYPOTHESIS_PROFILE=ci`` prints, for a failing example, the blob that
reproduces it (``print_blob``); the examples stay random from run to run,
and the number of examples and the deadlines stay those of each test.
Without the variable the default profile runs.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
