"""Per-agent relational descriptions of the protocol.

Each agent models every system except itself (an agent's description of a
measurement of a lab containing itself would amount to a self-measurement,
which the formalism cannot express; see :class:`PerspectiveLimit`).  The
external observer ``C`` models all systems.

An agent's description folds over the steps a round reaches
(:func:`frsim.protocol.reached_steps`), each step seen from where the agent
stands:

* the spin preparation, and each premeasurement or notebook copy into a
  memory it models, evolves the model,
* the agent's own read conditions its model of the other systems,
* a :attr:`~frsim.protocol.Step.heard` read conditions the model on the
  announcer's memory; where no read is heard, descriptions keep the full
  superposition over the records,
* every other read leaves the model as it is.

In cheat mode the coin friend's notebook exists physically but is unknown to
the other participants: their models omit it, and their folds skip its
copy step, while the external observer and the true dynamics include it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .measurement import (
    MeasurementBasis,
    _read,
    condition_on,
    outcome_probability,
)
from .protocol import ProtocolVariant, Step, prefix_state, reached_steps, schedule
from .systems import (
    BY_NAME,
    basis_name,
    canonical_layout,
    coin_basis,
    coin_lab_basis,
    level_basis,
    record_basis,
    spin_basis,
    spin_lab_basis,
)
from .tensor import RegisterLayout, StateVector, _level_stack

AGENTS = ("Fbar", "F", "Wbar", "W", "C")

# How error messages name the agents whose outcomes the steps write.
_ROLES = {"Fbar": "coin friend", "F": "spin friend",
          "Wbar": "coin-lab observer", "W": "spin-lab observer"}

CERTAINTY_TOL = 1e-10  # a classification rule, not an invariant: nothing raises on it

# The labels each ``Given`` field can take: those of the step that writes it.
GIVEN_LABELS = MappingProxyType({
    step.outcome: step.basis.labels()
    for step in schedule(ProtocolVariant(intrusion=True)) if step.outcome is not None
})


class PerspectiveLimit(Exception):
    """The requested description would require a self-measurement."""


@dataclass(frozen=True)
class Given:
    """The outcomes pinning down one branch of a round.

    ``r`` is the coin outcome seen by the coin friend (her own record),
    ``s`` the spin outcome seen by the spin friend, ``wbar``/``w`` the
    superobservers' lab outcomes and ``intrusion`` the direct spin reading
    of the intrusion variant.  Fields are None when not (yet) determined.
    """

    r: str | None = None
    s: str | None = None
    wbar: str | None = None
    w: str | None = None
    intrusion: str | None = None

    def __post_init__(self) -> None:
        for field, label in vars(self).items():
            if label is not None and label not in GIVEN_LABELS[field]:
                raise ValueError(f"{field} must be one of {GIVEN_LABELS[field]}, got {label!r}")


@dataclass(frozen=True, eq=False)
class AgentModel:
    """Snapshot of one agent's description plus the events it rests on."""

    agent: str
    layout: RegisterLayout
    state: StateVector
    log: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class CertaintyVerdict:
    """Probability of a hypothetical outcome with a three-way classification."""

    probability: float
    classification: str

    @classmethod
    def from_probability(cls, p: float) -> "CertaintyVerdict":
        if p >= 1.0 - CERTAINTY_TOL:
            kind = "certain-yes"
        elif p <= CERTAINTY_TOL:
            kind = "certain-no"
        else:
            kind = "uncertain"
        return cls(probability=p, classification=kind)


def known_system_names(agent: str, variant: ProtocolVariant) -> tuple[str, ...]:
    """Systems in the agent's model: all it knows about, minus itself."""
    if agent not in AGENTS:
        raise ValueError(f"unknown agent {agent!r}; expected one of {AGENTS}")
    names = set(variant.system_names())
    if agent != "C":
        names.discard(agent)
    if variant.cheat and agent in ("F", "Wbar", "W"):
        names.discard("Nbar")
    return tuple(sys.name for sys in canonical_layout(names).systems)


def agent_model_at(
    agent: str,
    time: int,
    given: Given | None = None,
    variant: ProtocolVariant = ProtocolVariant(),
) -> AgentModel:
    """The agent's description after the steps completed at ``time``.

    Folds the agent's view over the steps the round reaches
    (:func:`~frsim.protocol.reached_steps`): like the true dynamics, the fold
    skips each step that the outcomes in ``Given`` rule out, so a given
    ``wbar=ok`` leads to the intrusion and not to W's steps.  The unitary
    steps the agent applies before its first own or heard read are a
    record-free prefix: the fold starts from the shared
    :func:`~frsim.protocol.prefix_state` of those steps and folds only the
    rest, with the same operations in the same order.  Which steps those
    are, and the layout, depend only on the agent, the variant and the
    reached steps, so :func:`_fold_plan` finds them once per such key; per
    call run only :func:`~frsim.protocol.reached_steps`,
    the conditionings and the evolutions.  The prefix and the plan read no
    outcome, and a cache holds no error, so neither changes one.  Raises
    :class:`PerspectiveLimit` when a reached step measures a lab containing
    the agent, :class:`~frsim.measurement.InconsistentOutcomeError` when
    ``Given`` holds an outcome of a step the round does not reach, and
    :class:`ValueError` when the transcript prefix does not pin an outcome the
    agent would know at that time.
    """
    if time not in (0, 1, 2, 3):
        raise ValueError(f"time must be one of 0..3, got {time}")
    given = given or Given()
    steps = tuple(step for step in reached_steps(variant, vars(given)) if step.time <= time)
    layout, prefix, rest = _fold_plan(agent, variant, steps)
    state = prefix_state(layout, prefix)
    log: list[tuple[str, str, str]] = []
    for step in rest:
        if step.outcome is None:
            state = step.evolve(state)
            continue
        label = getattr(given, step.outcome)
        if step.memory.name == agent:
            if label is None:
                # The intrusion reading is the agent's to use, not to require.
                if step.after is not None:
                    continue
                raise ValueError(f"the {_ROLES[agent]}'s own outcome ({step.outcome}) "
                                 f"is required at t>={step.time}")
            state = condition_on(state, step.basis, label)
            log.append(("own", basis_name(step.targets), label))
        else:  # a heard read
            if label is None:
                lab = basis_name(step.targets).replace("_", "-")
                raise ValueError(f"the announced {lab} outcome ({step.outcome}) is "
                                 f"required at t>={step.time} in the announcing protocol")
            state = condition_on(state, record_basis(step.memory), label)
            log.append(("heard", step.memory.name, label))

    return AgentModel(agent=agent, layout=layout, state=state, log=tuple(log))


@lru_cache(maxsize=1024)  # every input of the 24 variants uses one of 456 plans
def _fold_plan(
    agent: str, variant: ProtocolVariant, steps: tuple[Step, ...]
) -> tuple[RegisterLayout, tuple[Step, ...], tuple[Step, ...]]:
    """:func:`agent_model_at`'s layout, the steps of its
    :func:`~frsim.protocol.prefix_state` and the steps it folds after them;
    found once per (agent, variant, reached steps).  Raises
    :class:`PerspectiveLimit` or, for an unknown agent, :class:`ValueError`."""
    for step in steps:
        if step.basis is not None and agent in step.targets:
            raise PerspectiveLimit(
                f"agent {agent!r} cannot describe the t={step.time} measurement of "
                f"the lab containing itself"
            )

    layout = canonical_layout(known_system_names(agent, variant))
    # The steps the model takes part in: the unitary ones into systems it
    # models, its own reads and the heard ones.  Up to its first read, the
    # model is a shared prefix.
    modelled = [step for step in steps if (
        (step.unitary is not None or step.memory.name in layout) if step.outcome is None
        else (step.memory.name == agent or step.heard))]
    split = next((i for i, step in enumerate(modelled) if step.outcome is not None),
                 len(modelled))
    return layout, tuple(modelled[:split]), tuple(modelled[split:])


def apply_announcement(model: AgentModel, announcer: str, label: str) -> AgentModel:
    """Condition the model on an announcement, via the announcer's memory.

    The announcer's memory must be part of the model's layout.  Announcing
    an outcome the model holds with zero probability raises
    :class:`~frsim.measurement.InconsistentOutcomeError`; it is never
    silently renormalized.
    """
    if announcer not in BY_NAME:
        raise ValueError(f"unknown announcer {announcer!r}")
    memory = BY_NAME[announcer]
    if memory.name not in model.layout:
        raise ValueError(
            f"announcer {announcer!r} has no memory system in the model of {model.agent!r}"
        )
    return replace(model, state=condition_on(model.state, record_basis(memory), label),
                   log=model.log + (("heard", announcer, label),))


def certainty_query(model: AgentModel, basis: MeasurementBasis, label: str) -> CertaintyVerdict:
    """Would the agent bet on this outcome?  Probability plus classification."""
    p = outcome_probability(model.state, basis, label)
    return CertaintyVerdict.from_probability(p)


def standard_predictions(model: AgentModel) -> dict[str, dict[str, float]]:
    """The agent's outcome probabilities for the standard measurements.

    Lab predictions use the ok/fail lab bases (valid before and after the
    lab measurement), projected since they involve interference.  Coin, spin,
    memories and notebooks report level occupancies, read off one ``|psi|**2``
    per model by one gather per level count (:func:`_standard_measurements`)
    as the very floats :func:`outcome_probability` gives.  Only measurements
    whose targets lie inside the agent's layout appear, so the coin friend
    gets no coin-lab prediction.
    """
    bases, gathers = _standard_measurements(model.layout)
    weights = abs(model.state.amplitudes) ** 2  # the terms _weight sums
    occupancies = {}
    for names, rows in gathers:
        # Row sums of one C-contiguous gather, in _weight's summation order
        # (summing the strided view of a trailing system would change bits).
        occupancies.update(zip(names, np.add.reduce(weights[rows], axis=-1).tolist()))
    predictions = {}
    for name, basis in bases:
        if name in occupancies:
            probabilities = occupancies[name]
        else:
            probabilities = _read(model.state, basis)[0]
        predictions[name] = dict(zip(basis.labels(), probabilities))
    return predictions


@lru_cache(maxsize=64)
def _standard_measurements(layout: RegisterLayout) -> tuple[
    tuple[tuple[str, MeasurementBasis], ...], tuple[tuple[tuple[str, ...], np.ndarray], ...]
]:
    """The standard measurements inside the layout, under their prediction
    names, and for each level count of the single-system ones the names of
    the layout's systems with that count and their shared
    :func:`~frsim.tensor._level_stack`; built once per layout."""
    bases = [coin_basis(), spin_basis(), coin_lab_basis(), spin_lab_basis()]
    bases += [level_basis(BY_NAME[name]) for name in ("Fbar", "F", "Nbar", "N", "Wbar", "W")]
    named = tuple((basis_name(basis.target_names), basis) for basis in bases
                  if all(name in layout for name in basis.target_names))
    counts = dict.fromkeys(basis.target_dimension for _, basis in named if len(basis.targets) == 1)
    gathers = tuple((tuple(basis_name((system.name,)) for system in systems), rows)
                    for systems, rows in (_level_stack(layout, count) for count in counts))
    return named, gathers
