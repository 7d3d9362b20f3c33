"""Reference agent descriptions shipped as data.

The JSON file stores each state as a sum of product terms whose coefficients
are exact constant expressions (evaluated to double precision here) and
whose factors are level kets or the composite ok/fail lab kets.  Tests
compare them, up to global phase, against the states the perspectives
module derives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import sqrt
from operator import le

import numpy as np

from .perspectives import Given, known_system_names
from .protocol import ProtocolVariant
from .systems import canonical_layout, coin_lab_basis, spin_lab_basis
from .tensor import NORM_TOL, RegisterLayout, StateVector, require

COEFFICIENTS: dict[str, float] = {
    "0": 0.0,
    "1": 1.0,
    "-1": -1.0,
    "1/2": 0.5,
    "-1/2": -0.5,
    "1/sqrt(2)": 1.0 / sqrt(2.0),
    "-1/sqrt(2)": -1.0 / sqrt(2.0),
    "1/sqrt(3)": 1.0 / sqrt(3.0),
    "-1/sqrt(3)": -1.0 / sqrt(3.0),
    "sqrt(2/3)": sqrt(2.0 / 3.0),
    "1/sqrt(6)": 1.0 / sqrt(6.0),
    "-1/sqrt(6)": -1.0 / sqrt(6.0),
    "1/sqrt(12)": 1.0 / sqrt(12.0),
    "-1/sqrt(12)": -1.0 / sqrt(12.0),
    "sqrt(3/4)": sqrt(3.0 / 4.0),
}

# Composite kets span two adjacent systems of the canonical order.
_COMPOSITES = {
    "coin_lab": (("R", "Fbar"), coin_lab_basis),
    "spin_lab": (("S", "F"), spin_lab_basis),
}


@dataclass(frozen=True, eq=False)
class ReferenceState:
    """One reference description: who, when, under which variant and branch."""

    tag: str
    agent: str
    time: int
    variant: ProtocolVariant
    given: Given
    state: StateVector


def _term_vector(layout: RegisterLayout, factors: dict[str, str]) -> np.ndarray:
    used: set[str] = set()
    vec = np.ones(1, dtype=np.complex128)
    names = layout.names
    i = 0
    while i < len(names):
        name = names[i]
        composite = next(
            (key for key, (systems, _) in _COMPOSITES.items()
             if key in factors and systems[0] == name),
            None,
        )
        if composite is not None:
            systems, basis_fn = _COMPOSITES[composite]
            if i + 1 >= len(names) or names[i + 1] != systems[1]:
                raise ValueError(
                    f"composite {composite!r} needs adjacent systems {systems} in {names}"
                )
            outcome = basis_fn().outcome(factors[composite])
            vec = np.kron(vec, outcome.vectors[0])
            used.add(composite)
            i += 2
            continue
        if name not in factors:
            raise ValueError(f"term is missing a factor for system {name!r}")
        vec = np.kron(vec, layout.system(name).ket(factors[name]))
        used.add(name)
        i += 1
    if unused := set(factors) - used:
        raise ValueError(f"term has factors for absent systems: {sorted(unused)}")
    return vec


def _build_state(layout: RegisterLayout, terms: list[dict]) -> StateVector:
    amps = np.zeros(layout.total_dimension, dtype=np.complex128)
    for term in terms:
        coeff = COEFFICIENTS[term["coeff"]]
        amps += coeff * _term_vector(layout, term["factors"])
    state = StateVector(layout, amps)
    require(abs(state.norm - 1.0), le, NORM_TOL, ValueError,
            lambda: f"reference state is not normalized (norm {state.norm})")
    return state


def load_reference_states() -> tuple[ReferenceState, ...]:
    """All shipped reference descriptions, keyed by tag/agent/time/variant."""
    payload = json.loads(
        resources.files("frsim").joinpath("data/reference_states.json").read_text()
    )
    out: list[ReferenceState] = []
    for entry in payload["states"]:
        variant = ProtocolVariant(**entry.get("variant", {}))
        given = Given(**entry.get("given", {}))
        agent = entry["agent"]
        expected_names = known_system_names(agent, variant)
        if tuple(entry["layout"]) != expected_names:
            raise ValueError(
                f"{entry['tag']}: layout {entry['layout']} does not match the "
                f"agent's modeled systems {expected_names}"
            )
        layout = canonical_layout(expected_names)
        out.append(
            ReferenceState(
                tag=entry["tag"],
                agent=agent,
                time=int(entry["time"]),
                variant=variant,
                given=given,
                state=_build_state(layout, entry["terms"]),
            )
        )
    tags = [ref.tag for ref in out]
    if len(set(tags)) != len(tags):
        raise ValueError("duplicate reference tags")
    return tuple(out)
