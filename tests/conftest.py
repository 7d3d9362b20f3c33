"""Tier-1 settings shared by every test module.

Hypothesis runs under the ``tier1`` profile: ``derandomize=True`` draws the
same examples on every run, from a seed fixed per test, and
``database=None`` neither replays nor saves examples from ``.hypothesis/``.
So a run of the suite, of ``tests/unreached_lines.py`` or of a mutant's
tests in ``tests/mutation_gate.py`` repeats what an earlier run did.  Each
test's own ``@settings`` (its ``max_examples``, its ``deadline``) still
applies on top of the profile.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
