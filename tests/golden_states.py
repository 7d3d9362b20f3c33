"""The shipped golden states by tag, parsed once for every test module.

The map is built on first use, not at import, so a broken loader fails the
tests that read it rather than the collection of their modules.
"""

from functools import cache

from frsim.reference import load_reference_states


@cache
def _by_tag() -> dict:
    return {ref.tag: ref.state for ref in load_reference_states()}


def golden_state(tag: str):
    """The golden state tagged ``tag``; a ``KeyError`` names an unknown tag."""
    return _by_tag()[tag]
