"""Test settings shared by every test file.

Property tests run under one hypothesis profile that prints the
@reproduce_failure line of a failing example, so the failure replays in
a later run.  The profile changes no example count and no strategy.
"""

from hypothesis import settings

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
