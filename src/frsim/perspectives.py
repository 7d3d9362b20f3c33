"""Per-agent relational descriptions of the protocol.

Each agent models every system except itself (an agent's description of a
measurement of a lab containing itself would amount to a self-measurement,
which the formalism cannot express; see :class:`PerspectiveLimit`).  The
external observer ``C`` models all systems.

An agent's description folds over the protocol schedule
(:func:`frsim.protocol.schedule`), each step seen from where the agent stands:

* the agent's own outcome conditions its model of the other systems,
* every other step (friend premeasurements, notebook copies, the spin
  preparation, the superobservers' premeasurements) acts unitarily,
* a heard announcement conditions the model on the announcer's memory.

Announcement conditioning applies in the original protocol
(``announce_wbar=True``), where outcomes are shared and agents accept
record-backed updates.  In the modified protocol the coin-lab outcome stays
secret and no agent revises its description on hearsay, so descriptions keep
the full superposition over unannounced records.

In cheat mode the coin friend's notebook exists physically but is unknown to
the other participants: their models omit it, and their folds skip its
copy step, while the external observer and the true dynamics include it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .measurement import (
    InconsistentOutcomeError,
    MeasurementBasis,
    condition_on,
    outcome_probability,
)
from .protocol import ProtocolVariant, fresh_state, schedule
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
from .tensor import RegisterLayout, StateVector

AGENTS = ("Fbar", "F", "Wbar", "W", "C")

# How error messages name the agents whose outcomes the steps write.
_ROLES = {"Fbar": "coin friend", "F": "spin friend",
          "Wbar": "coin-lab observer", "W": "spin-lab observer"}

CERTAINTY_TOL = 1e-10

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
    def from_probability(cls, p: float, tol: float = CERTAINTY_TOL) -> "CertaintyVerdict":
        if p >= 1.0 - tol:
            kind = "certain-yes"
        elif p <= tol:
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

    Folds the agent's view over the protocol schedule, over the steps the
    round reaches: like the true dynamics, the fold ends with the intrusion
    once ``Given`` has the ``wbar=ok`` that triggers it.  Raises
    :class:`PerspectiveLimit` when a reached step measures a lab containing
    the agent, :class:`InconsistentOutcomeError` when ``Given`` holds an
    outcome of a step the round does not reach (after the end of the round,
    ruled out by a given earlier outcome, or absent from the variant), and
    :class:`ValueError` when the transcript prefix does not pin an outcome
    the agent would know at that time.
    """
    if time not in (0, 1, 2, 3):
        raise ValueError(f"time must be one of 0..3, got {time}")
    given = given or Given()
    labels = vars(given)
    round_steps = schedule(variant)
    for field in labels.keys() - {step.outcome for step in round_steps}:
        if labels[field] is not None:
            raise InconsistentOutcomeError(
                f"no step of this variant writes the {field} outcome, so "
                f"{field}={labels[field]} cannot be given")
    reached = []
    for step in round_steps:
        if reached and reached[-1].after is not None:  # the intrusion ended the round
            if step.outcome is not None and labels[step.outcome] is not None:
                field, label = reached[-1].after
                raise InconsistentOutcomeError(
                    f"the intrusion after {field}={label} ends the round at "
                    f"t={reached[-1].time}, so no {step.outcome} outcome follows")
        elif not step.skipped(labels):
            reached.append(step)
        elif labels[step.after[0]] is not None and labels[step.outcome] is not None:
            field, label = step.after
            raise InconsistentOutcomeError(
                f"the {step.outcome} step happens only after {field}={label}, so "
                f"{field}={labels[field]} leaves no {step.outcome} outcome")
    steps = [step for step in reached if step.time <= time]
    for step in steps:
        if step.basis is not None and agent in step.targets:
            raise PerspectiveLimit(
                f"agent {agent!r} cannot describe the t={step.time} measurement of "
                f"the lab containing itself"
            )

    layout = canonical_layout(known_system_names(agent, variant))
    state = fresh_state(layout)
    log: list[tuple[str, str, str]] = []
    for step in steps:
        memory = step.memory.name if step.memory is not None else None
        if memory == agent:
            label = getattr(given, step.outcome)
            if label is None:
                # The intrusion reading is the agent's to use, not to require.
                if step.after is not None:
                    continue
                raise ValueError(f"the {_ROLES[agent]}'s own outcome ({step.outcome}) "
                                 f"is required at t>={step.time}")
            state = condition_on(state, step.basis, label)
            log.append(("own", basis_name(step.targets), label))
        elif step.unitary is not None or (memory in layout and step.after is None):
            state = step.evolve(state)
            if step.announced and variant.announce_wbar:
                label = getattr(given, step.outcome)
                if label is None:
                    lab = basis_name(step.targets).replace("_", "-")
                    raise ValueError(f"the announced {lab} outcome ({step.outcome}) is "
                                     f"required at t>={step.time} in the announcing protocol")
                state = condition_on(state, record_basis(step.memory), label)
                log.append(("heard", memory, label))

    return AgentModel(agent=agent, layout=layout, state=state, log=tuple(log))


def agent_state_at(
    agent: str,
    time: int,
    given: Given | None = None,
    variant: ProtocolVariant = ProtocolVariant(),
) -> StateVector:
    """State vector of :func:`agent_model_at`, in canonical system order."""
    return agent_model_at(agent, time, given, variant).state


def apply_announcement(model: AgentModel, announcer: str, label: str) -> AgentModel:
    """Condition the model on an announcement, via the announcer's memory.

    The announcer's memory must be part of the model's layout.  Announcing
    an outcome the model holds with zero probability raises
    :class:`InconsistentOutcomeError`; it is never silently renormalized.
    """
    if announcer not in BY_NAME:
        raise ValueError(f"unknown announcer {announcer!r}")
    memory = BY_NAME[announcer]
    if memory.name not in model.layout:
        raise ValueError(
            f"announcer {announcer!r} has no memory system in the model of {model.agent!r}"
        )
    state = condition_on(model.state, record_basis(memory), label)
    return AgentModel(
        agent=model.agent,
        layout=model.layout,
        state=state,
        log=model.log + (("heard", announcer, label),),
    )


def certainty_query(model: AgentModel, basis: MeasurementBasis, label: str) -> CertaintyVerdict:
    """Would the agent bet on this outcome?  Probability plus classification."""
    p = outcome_probability(model.state, basis, label)
    return CertaintyVerdict.from_probability(p)


def standard_predictions(model: AgentModel) -> dict[str, dict[str, float]]:
    """The agent's outcome probabilities for the standard measurements.

    Lab predictions use the ok/fail lab bases (valid before and after the
    lab measurement); coin, spin, memories and notebooks report level
    occupancies.  Only measurements whose targets lie inside the agent's
    layout appear, so the coin friend gets no coin-lab prediction.
    """
    names = set(model.layout.names)
    bases = [coin_basis(), spin_basis(), coin_lab_basis(), spin_lab_basis()]
    bases += [level_basis(BY_NAME[name]) for name in ("Fbar", "F", "Nbar", "N", "Wbar", "W")]
    out: dict[str, dict[str, float]] = {}
    for basis in bases:
        if set(basis.target_names) <= names:
            out[basis_name(basis.target_names)] = {
                lab: outcome_probability(model.state, basis, lab) for lab in basis.labels()
            }
    return out
