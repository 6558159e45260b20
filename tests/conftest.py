"""Shared pytest configuration.

The ``ci`` Hypothesis profile, for runs on shared or slow hosts: no per-example
deadline, since examples that write files or solve large matrices can pass
Hypothesis' default 200 ms there, and the reproducing blob of a failure is
printed. Select it with ``pytest --hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", deadline=None, print_blob=True)
