"""Closed-form round probabilities by hand expansion, independent of frsim.

The state after both friends have measured is written out term by term in
plain Python floats, and the ok/fail lab measurements are carried out by
substituting the decomposition of each perfectly correlated (system, record)
pair into the lab basis.  Nothing here imports the package under test.

Conventions follow the paper: the coin is ``sqrt(2/3)|t> + sqrt(1/3)|h>``,
tail prepares ``(|up> + |down>)/sqrt(2)``, head prepares ``|down>``, and
``ok`` is the odd combination of the correlated lab states.
"""

from __future__ import annotations

from itertools import product
from math import sqrt

# Paper values the expansion must reproduce.
P_HALT_NO_NOTEBOOKS = 1 / 12
P_HALT_BOTH_NOTEBOOKS = 1 / 4
P_WBAR_OK_NO_NOTEBOOKS = 1 / 6
P_UP_GIVEN_OK_NO_COIN_RECORD = 1.0
P_UP_GIVEN_OK_COIN_RECORD = 1 / 3
W_SPIN_LAB_OK_AFTER_WBAR_OK = 0.5

SUPPORT_ATOL = 1e-15

_H = 1 / sqrt(2)
# |t,t> = (|fail> - |ok>)/sqrt(2), |h,h> = (|fail> + |ok>)/sqrt(2); the spin
# lab decomposes the same way with up in the role of t and down of h.
_LAB = {
    "t": {"ok": -_H, "fail": _H},
    "h": {"ok": _H, "fail": _H},
    "up": {"ok": -_H, "fail": _H},
    "down": {"ok": _H, "fail": _H},
}

# (announce_wbar, notebooks, cheat, intrusion) for every valid variant.
VARIANTS: tuple[tuple[bool, frozenset, bool, bool], ...] = tuple(
    (announce, notebooks, cheat, intrusion)
    for announce, notebooks, cheat, intrusion in product(
        (True, False),
        (frozenset(), frozenset({"Fbar"}), frozenset({"F"}), frozenset({"Fbar", "F"})),
        (False, True),
        (False, True),
    )
    if not cheat or "Fbar" in notebooks
)


def after_friends(notebooks: frozenset) -> dict[tuple, float]:
    """Amplitudes after t=1, keyed (nbar, r, n, s); each friend's record equals r or s."""
    a = 1 / sqrt(3)
    terms = {}
    for r, s in (("t", "up"), ("t", "down"), ("h", "down")):
        nbar = r if "Fbar" in notebooks else "ready"
        n = s if "F" in notebooks else "ready"
        terms[(nbar, r, n, s)] = a
    return terms


def _coin_lab(terms: dict, label: str) -> dict[tuple, float]:
    out: dict[tuple, float] = {}
    for (nbar, r, n, s), amp in terms.items():
        out[(nbar, n, s)] = out.get((nbar, n, s), 0.0) + amp * _LAB[r][label]
    return out


def _spin_lab(terms: dict, label: str) -> dict[tuple, float]:
    out: dict[tuple, float] = {}
    for key, amp in terms.items():
        rest, s = key[:-1], key[-1]
        out[rest] = out.get(rest, 0.0) + amp * _LAB[s][label]
    return out


def _weight(terms: dict) -> float:
    return sum(amp * amp for amp in terms.values())


def joint(notebooks: frozenset, intrusion: bool) -> dict[tuple, float]:
    """P(wbar, w, intrusion) over one round; only outcomes of nonzero probability."""
    out = {}
    prepared = after_friends(notebooks)
    for wbar in ("ok", "fail"):
        branch = _coin_lab(prepared, wbar)
        if intrusion and wbar == "ok":
            for s in ("up", "down"):
                out[(wbar, None, s)] = _weight({k: v for k, v in branch.items() if k[-1] == s})
        else:
            for w in ("ok", "fail"):
                out[(wbar, w, None)] = _weight(_spin_lab(branch, w))
    return {key: p for key, p in out.items() if p > SUPPORT_ATOL}


def wbar_spin(notebooks: frozenset) -> dict[tuple[str, str], float]:
    """P(wbar, s): the coin-lab outcome jointly with the spin friend's reading."""
    prepared = after_friends(notebooks)
    out = {}
    for wbar in ("ok", "fail"):
        branch = _coin_lab(prepared, wbar)
        for s in ("up", "down"):
            out[(wbar, s)] = _weight({k: v for k, v in branch.items() if k[-1] == s})
    return out


def spin_lab_ok_before_coin_lab(notebooks: frozenset) -> float:
    """P(spin lab ok) for a measurement made right after t=1, before the coin lab is measured."""
    return _weight(_spin_lab(after_friends(notebooks), "ok"))


def coin_lab_ok(notebooks: frozenset) -> float:
    return _weight(_coin_lab(after_friends(notebooks), "ok"))


def halting_probability(notebooks: frozenset) -> float:
    return joint(notebooks, False).get(("ok", "ok", None), 0.0)


def self_check() -> list[str]:
    """Differences between the expansion and the paper's values (empty when they agree)."""
    none, both = frozenset(), frozenset({"Fbar", "F"})
    expected = {
        "P(halt), no notebooks": (halting_probability(none), P_HALT_NO_NOTEBOOKS),
        "P(halt), both notebooks": (halting_probability(both), P_HALT_BOTH_NOTEBOOKS),
        "P(Wbar = ok), no notebooks": (coin_lab_ok(none), P_WBAR_OK_NO_NOTEBOOKS),
        "P(up | ok), no coin record": (
            joint(none, True)[("ok", None, "up")] / coin_lab_ok(none),
            P_UP_GIVEN_OK_NO_COIN_RECORD,
        ),
        "P(up | ok), coin record": (
            joint(frozenset({"Fbar"}), True)[("ok", None, "up")] / coin_lab_ok(frozenset({"Fbar"})),
            P_UP_GIVEN_OK_COIN_RECORD,
        ),
        "P(w = ok | wbar = ok), no notebooks": (
            joint(none, False)[("ok", "ok", None)] / coin_lab_ok(none),
            W_SPIN_LAB_OK_AFTER_WBAR_OK,
        ),
    }
    return [
        f"{name}: expansion {got!r}, paper {want!r}"
        for name, (got, want) in expected.items()
        if abs(got - want) > 1e-12
    ]
