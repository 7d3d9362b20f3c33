"""The protocol variants the test modules sweep, listed once."""

import itertools

from frsim.protocol import ProtocolVariant

ALL_NOTEBOOK_SETS = (
    frozenset(),
    frozenset({"Fbar"}),
    frozenset({"F"}),
    frozenset({"Fbar", "F"}),
)

# The 24 valid variants: cheat mode needs the coin friend's notebook.
ALL_VARIANTS = tuple(
    ProtocolVariant(announce_wbar=announce, notebooks=notebooks, cheat=cheat, intrusion=intrusion)
    for notebooks in ALL_NOTEBOOK_SETS
    for announce, cheat, intrusion in itertools.product((False, True), repeat=3)
    if not cheat or "Fbar" in notebooks
)


def variant_id(v):
    flags = ("announce" if v.announce_wbar else "secret", "+".join(sorted(v.notebooks)) or "none")
    return "-".join(flags + ("cheat",) * v.cheat + ("intrusion",) * v.intrusion)
