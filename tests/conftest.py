"""Shared pytest configuration.

The ``ci`` Hypothesis profile, for runs on shared or slow hosts: no per-example
deadline, since examples that write files or solve large matrices can pass
Hypothesis' default 200 ms there, and the reproducing blob of a failure is
printed. Select it with ``pytest --hypothesis-profile=ci``.

Every test must leave CPython's cyclic garbage collector enabled or disabled
as it found it: the MOT readers pause it, and a pause left behind would slow
every later test and benchmark without failing any.
"""

import gc

import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, print_blob=True)


@pytest.fixture(autouse=True)
def collector_state_kept():
    enabled = gc.isenabled()
    yield
    if gc.isenabled() != enabled:
        (gc.enable if enabled else gc.disable)()
        pytest.fail(f"the test left the garbage collector {'dis' if enabled else 'en'}abled")
