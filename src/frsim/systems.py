"""The systems and standard bases of the two-lab protocol.

Systems:

* ``R``     quantum coin with levels ``t`` (tail) and ``h`` (head)
* ``S``     spin-1/2 particle with levels ``up`` and ``down``
* ``Fbar``  friend operating the coin lab; memory levels ``ready``/``t``/``h``
* ``F``     friend operating the spin lab; memory levels ``ready``/``up``/``down``
* ``Wbar``  superobserver measuring the coin lab; records ``ok``/``fail``
* ``W``     superobserver measuring the spin lab; records ``ok``/``fail``
* ``Nbar``  notebook holding a copy of the coin outcome
* ``N``     notebook holding a copy of the spin outcome

The coin lab is the pair ``(R, Fbar)``; the spin lab is ``(S, F)``.  Every
observer memory and notebook starts in a distinguished ``ready`` level and is
written exactly once by a basis-copy unitary.

All states are stored in one canonical system order so fixtures and
cross-agent comparisons are unambiguous.

Each basis constructor builds its basis once per argument and returns that
same instance afterwards; the coin and spin bases are their systems' shared
:func:`~frsim.measurement.level_basis`.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

import numpy as np

from .measurement import READY, MeasurementBasis, SubspaceOutcome, level_basis
from .tensor import RegisterLayout, SystemId

R = SystemId("R", ("t", "h"))
S = SystemId("S", ("up", "down"))
FBAR = SystemId("Fbar", (READY, "t", "h"))
F = SystemId("F", (READY, "up", "down"))
WBAR = SystemId("Wbar", (READY, "ok", "fail"))
W = SystemId("W", (READY, "ok", "fail"))
NBAR = SystemId("Nbar", (READY, "t", "h"))
N = SystemId("N", (READY, "up", "down"))

CANONICAL_ORDER: tuple[SystemId, ...] = (NBAR, R, FBAR, N, S, F, WBAR, W)
BY_NAME: dict[str, SystemId] = {sys.name: sys for sys in CANONICAL_ORDER}

LAB_NAMES: dict[tuple[str, ...], str] = {("R", "Fbar"): "coin_lab", ("S", "F"): "spin_lab"}


def canonical_layout(names: Iterable[str]) -> RegisterLayout:
    """Layout over the given systems, ordered canonically.

    Every call with the same set of names returns the same instance, so what
    the layout builds once (its axis map and hash) is built once per set.
    """
    return _canonical_layout(frozenset(names))


@cache
def _canonical_layout(wanted: frozenset[str]) -> RegisterLayout:
    if unknown := wanted - set(BY_NAME):
        raise KeyError(f"unknown system names: {sorted(unknown)}")
    return RegisterLayout(tuple(sys for sys in CANONICAL_ORDER if sys.name in wanted))


def basis_name(targets: tuple[str, ...]) -> str:
    """What logs and predictions call a measurement of these systems."""
    return LAB_NAMES.get(tuple(targets), "+".join(targets))


def coin_basis() -> MeasurementBasis:
    """Complete ``{t, h}`` basis on the coin: the coin's level basis."""
    return level_basis(R)


def spin_basis() -> MeasurementBasis:
    """Complete ``{up, down}`` basis on the spin: the spin's level basis."""
    return level_basis(S)


def _lab_basis(first: SystemId, second: SystemId, plus: str, minus: str) -> MeasurementBasis:
    """``ok`` is ``(|plus,plus> - |minus,minus>)/sqrt(2)``, ``fail`` the sum."""
    a = np.kron(first.ket(plus), second.ket(plus))
    b = np.kron(first.ket(minus), second.ket(minus))
    return MeasurementBasis(
        targets=(first, second),
        outcomes=(
            SubspaceOutcome("ok", (a - b) / np.sqrt(2.0)),
            SubspaceOutcome("fail", (a + b) / np.sqrt(2.0)),
        ),
    )


@cache
def coin_lab_basis() -> MeasurementBasis:
    """``ok``/``fail`` basis on the coin lab ``(R, Fbar)``.

    ``ok`` is the odd combination ``(|h,h> - |t,t>)/sqrt(2)``, ``fail`` the
    even one; the rest of the lab space is a forbidden residual.
    """
    return _lab_basis(R, FBAR, "h", "t")


@cache
def spin_lab_basis() -> MeasurementBasis:
    """``ok``/``fail`` basis on the spin lab ``(S, F)``."""
    return _lab_basis(S, F, "down", "up")


@cache
def record_basis(memory: SystemId) -> MeasurementBasis:
    """Basis over a memory's written levels; the unwritten ready level is forbidden."""
    outcomes = tuple(
        SubspaceOutcome(label, memory.ket(label))
        for label in memory.levels
        if label != READY
    )
    return MeasurementBasis(targets=(memory,), outcomes=outcomes)
