"""The two-lab protocol, written once as a schedule of steps.

:func:`schedule` gives a variant's round as a tuple of :class:`Step` values
in time order:

* t=0  the coin is measured by its friend (unitary premeasurement), the spin
       is prepared conditionally on the coin, enabled notebooks are written;
* t=1  the spin is measured by its friend (+ notebook copy);
* t=2  the coin-lab superobserver measures the coin lab in the ok/fail basis
       (sampled collapse recorded into its memory); in the intrusion variant
       an ``ok`` is followed by a direct spin measurement that ends the round;
* t=3  the spin-lab superobserver does the same for the spin lab.

The round halts the experiment when both superobservers record ``ok``.

The true dynamics fold over the schedule: :func:`run_round` samples it on
the state (the reference path), and :func:`compiled_round` expands every
branch once into the one tree of labels and Born probabilities that
sampling and exact enumeration read.  Agents fold over it in
:mod:`frsim.perspectives`.

Randomness contract: one master seed; round ``k`` draws from an independent
substream derived from ``(seed, k)``; each sampled measurement consumes
exactly one uniform variate.  Rounds are therefore reproducible and safe to
execute in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from types import MappingProxyType

import numpy as np

from .measurement import MeasurementBasis, branch_all, pick_index, premeasure, sample
from .systems import (
    F,
    FBAR,
    N,
    NBAR,
    W,
    WBAR,
    canonical_layout,
    coin_basis,
    coin_lab_basis,
    record_basis,
    spin_basis,
    spin_lab_basis,
)
from .tensor import RegisterLayout, StateVector, SystemId, apply_unitary, product_state

FRIENDS_WITH_NOTEBOOKS = ("Fbar", "F")

# (coin-lab outcome, spin-lab outcome, intrusion outcome); entries are None
# where the round did not produce that outcome.
OutcomeKey = tuple[str | None, str | None, str | None]


@dataclass(frozen=True)
class ProtocolVariant:
    """Which optional features of the protocol are switched on.

    ``announce_wbar`` toggles the original protocol (the coin-lab
    superobserver announces at t=2, and agents condition on heard
    announcements) versus the modified one where that outcome stays secret
    and no announcement-based updates occur.  ``notebooks`` lists the friends
    who keep a written record.  ``cheat`` marks the coin friend's notebook as
    secret: it still exists physically but other agents do not model it.
    ``intrusion`` makes the coin-lab superobserver measure the spin directly
    after recording ``ok`` at t=2.
    """

    announce_wbar: bool = True
    notebooks: frozenset[str] = frozenset()
    cheat: bool = False
    intrusion: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "notebooks", frozenset(self.notebooks))
        unknown = self.notebooks - set(FRIENDS_WITH_NOTEBOOKS)
        if unknown:
            raise ValueError(f"notebooks must be a subset of {FRIENDS_WITH_NOTEBOOKS}, "
                             f"got extra {sorted(unknown)}")
        if self.cheat and "Fbar" not in self.notebooks:
            raise ValueError("cheat mode requires the coin friend's notebook")

    def system_names(self) -> tuple[str, ...]:
        names = ["R", "Fbar", "S", "F", "Wbar", "W"]
        if "Fbar" in self.notebooks:
            names.append("Nbar")
        if "F" in self.notebooks:
            names.append("N")
        return tuple(sys.name for sys in canonical_layout(names).systems)

    def layout(self):
        return canonical_layout(self.system_names())


@dataclass(frozen=True)
class ProtocolConfig:
    """A variant plus the seeding and bounds of a stochastic run."""

    variant: ProtocolVariant
    seed: int = 0
    max_rounds: int = 10000

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


@dataclass(frozen=True)
class RoundTranscript:
    """Sampled outcomes and announcements of one protocol round."""

    round_index: int
    wbar_outcome: str | None
    w_outcome: str | None
    intrusion_outcome: str | None
    announcements: tuple[tuple[int, str, str], ...]
    halted: bool

    def key(self) -> OutcomeKey:
        return (self.wbar_outcome, self.w_outcome, self.intrusion_outcome)


@dataclass(frozen=True)
class RunReport:
    """Transcripts and empirical statistics of a repeated-round run."""

    config: ProtocolConfig
    transcripts: tuple[RoundTranscript, ...]
    halted: bool
    halting_round: int | None
    outcome_counts: dict[OutcomeKey, int]

    @property
    def rounds_executed(self) -> int:
        return len(self.transcripts)

    def frequencies(self) -> dict[OutcomeKey, tuple[int, float, float]]:
        """Per outcome: (count, relative frequency, binomial standard error)."""
        n = self.rounds_executed
        out = {}
        for key, count in sorted(self.outcome_counts.items(), key=str):
            p = count / n
            out[key] = (count, p, sqrt(p * (1.0 - p) / n))
        return out


def round_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent substream for one round, addressable by (seed, *key)."""
    entropy = (int(seed),) + tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


_COIN_SUPERPOSITION = np.array([sqrt(2.0 / 3.0), sqrt(1.0 / 3.0)], dtype=np.complex128)

# Spin preparation, acting on (R, S): tail rotates the resting spin into
# (|up> + |down>)/sqrt(2), head leaves it in |down>.
_TAIL_ROTATION = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=np.complex128) / sqrt(2.0)
_PREPARE_SPIN = np.block([
    [_TAIL_ROTATION, np.zeros((2, 2))],
    [np.zeros((2, 2)), np.eye(2)],
]).astype(np.complex128)


@dataclass(frozen=True, eq=False)
class Step:
    """One event of a round, read alike by the true dynamics and every agent.

    A measurement step writes the outcome of ``basis`` into ``memory`` by a
    unitary premeasurement; ``outcome`` names the ``Given`` field that
    holds it.  A ``sampled`` step then collapses on that record in the true
    dynamics; an ``announced`` one is heard by every agent of the announcing
    protocol.  The spin preparation applies ``unitary`` to ``targets``
    instead.  The intrusion has ``after=(field, label)``: it happens only
    when that earlier outcome has that label, reads ``basis`` directly (its
    ``memory`` only names whose reading it is), and ends the round.
    """

    time: int
    targets: tuple[str, ...]
    basis: MeasurementBasis | None = None
    memory: SystemId | None = None
    outcome: str | None = None
    sampled: bool = False
    announced: bool = False
    after: tuple[str, str] | None = None
    unitary: np.ndarray | None = None

    def skipped(self, outcomes: dict[str, str]) -> bool:
        """Whether the earlier outcomes rule this step out of the round."""
        return self.after is not None and outcomes.get(self.after[0]) != self.after[1]

    @property
    def readout(self) -> MeasurementBasis:
        """What a sampled step collapses: its written record, or its basis directly."""
        return self.basis if self.after is not None else record_basis(self.memory)

    def evolve(self, state: StateVector) -> StateVector:
        """The unitary part of the step: the spin preparation or the premeasurement."""
        if self.unitary is not None:
            return apply_unitary(state, self.targets, self.unitary)
        if self.after is None:
            return premeasure(state, self.basis, self.memory)
        return state


def schedule(variant: ProtocolVariant) -> tuple[Step, ...]:
    """The variant's round as one tuple of steps in time order."""

    def measured(time: int, basis: MeasurementBasis, memory: SystemId, outcome=None, **flags):
        return Step(time, basis.target_names, basis, memory, outcome, **flags)

    steps = [measured(0, coin_basis(), FBAR, "r")]
    if "Fbar" in variant.notebooks:
        steps.append(measured(0, coin_basis(), NBAR))
    steps.append(Step(0, ("R", "S"), unitary=_PREPARE_SPIN))
    steps.append(measured(1, spin_basis(), F, "s"))
    if "F" in variant.notebooks:
        steps.append(measured(1, spin_basis(), N))
    steps.append(measured(2, coin_lab_basis(), WBAR, "wbar", sampled=True, announced=True))
    if variant.intrusion:
        steps.append(measured(2, spin_basis(), WBAR, "intrusion", sampled=True,
                              after=("wbar", "ok")))
    steps.append(measured(3, spin_lab_basis(), W, "w", sampled=True, announced=True))
    return tuple(steps)


def _at(variant: ProtocolVariant, *times: int) -> tuple[Step, ...]:
    return tuple(step for step in schedule(variant) if step.time in times)


def fresh_state(layout: RegisterLayout) -> StateVector:
    """Coin in ``sqrt(2/3)|t> + sqrt(1/3)|h>``, spin resting in ``down`` until
    prepared, every memory and notebook ready."""
    factors: dict[str, object] = {"R": _COIN_SUPERPOSITION, "S": "down"}
    for name in layout.names:
        factors.setdefault(name, "ready")
    return product_state(layout, factors)


def initial_state(variant: ProtocolVariant) -> StateVector:
    """Fresh-round state over the variant's systems (see :func:`fresh_state`)."""
    return fresh_state(variant.layout())


def _fold(
    state: StateVector, steps: tuple[Step, ...], rng: np.random.Generator | None = None
) -> tuple[StateVector, dict[str, str]]:
    """The true dynamics of ``steps``: the final state and the sampled outcomes."""
    outcomes: dict[str, str] = {}
    for step in steps:
        if step.skipped(outcomes):
            continue
        state = step.evolve(state)
        if step.sampled:
            outcomes[step.outcome], state = sample(state, step.readout, rng)
            if step.after is not None:
                break
    return state, outcomes


def _key(outcomes: dict[str, str]) -> OutcomeKey:
    return (outcomes.get("wbar"), outcomes.get("w"), outcomes.get("intrusion"))


def step_t0(state: StateVector, variant: ProtocolVariant) -> StateVector:
    """Coin measured by its friend, notebook written, spin prepared."""
    return _fold(state, _at(variant, 0))[0]


def step_t1(state: StateVector, variant: ProtocolVariant) -> StateVector:
    """Spin measured by its friend (+ notebook copy)."""
    return _fold(state, _at(variant, 1))[0]


def step_t2(
    state: StateVector,
    variant: ProtocolVariant,
    rng: np.random.Generator,
) -> tuple[StateVector, str, str | None]:
    """Coin lab measured and recorded; optional intrusion on ``ok``.

    Returns the post-measurement state, the sampled coin-lab outcome, and
    the intrusion outcome (None unless the intrusion variant fired).
    """
    state, outcomes = _fold(state, _at(variant, 2), rng)
    return state, outcomes["wbar"], outcomes.get("intrusion")


def step_t3(state: StateVector, rng: np.random.Generator) -> tuple[StateVector, str]:
    """Spin lab measured and recorded; the same step in every variant."""
    state, outcomes = _fold(state, _at(ProtocolVariant(), 3), rng)
    return state, outcomes["w"]


def state_after_preparation(variant: ProtocolVariant) -> StateVector:
    """Deterministic state after t=1, before any sampled measurement."""
    return step_t1(step_t0(initial_state(variant), variant), variant)


def _transcript(variant: ProtocolVariant, round_index: int, key: OutcomeKey) -> RoundTranscript:
    wbar, w, intrusion = key
    announcements: list[tuple[int, str, str]] = []
    if variant.announce_wbar:
        announcements.append((2, "Wbar", wbar))
    if w is not None:
        announcements.append((3, "W", w))
    halted = wbar == "ok" and w == "ok"
    return RoundTranscript(
        round_index=round_index,
        wbar_outcome=wbar,
        w_outcome=w,
        intrusion_outcome=intrusion,
        announcements=tuple(announcements),
        halted=halted,
    )


def run_round(
    variant: ProtocolVariant,
    rng: np.random.Generator,
    round_index: int = 0,
) -> RoundTranscript:
    """Execute one full round on a fresh set of systems (reference path)."""
    _, outcomes = _fold(state_after_preparation(variant), _at(variant, 2, 3), rng)
    return _transcript(variant, round_index, _key(outcomes))


@dataclass(frozen=True, eq=False)
class _Node:
    """One sampled step of the tree: Born probabilities and what follows each."""

    probabilities: tuple[float, ...]
    children: tuple["_Node | OutcomeKey | None", ...]


def _branch_tree(
    state: StateVector,
    steps: tuple[Step, ...],
    outcomes: dict[str, str],
    probability: float,
    leaves: dict[OutcomeKey, float],
) -> "_Node | OutcomeKey":
    """Expand ``steps`` like :func:`_fold`, following every branch of each sampled step.

    A branch of zero probability gets no subtree.  Each leaf is an outcome
    key, and its probability is also put into ``leaves``.
    """
    for i, step in enumerate(steps):
        if step.skipped(outcomes):
            continue
        state = step.evolve(state)
        if step.sampled:
            rest = () if step.after is not None else steps[i + 1:]
            branches = branch_all(state, step.readout)
            return _Node(
                tuple(b.probability for b in branches),
                tuple(
                    _branch_tree(b.post_state, rest, {**outcomes, step.outcome: b.label},
                                 probability * b.probability, leaves)
                    if b.probability > 0.0 else None
                    for b in branches
                ),
            )
    leaves[_key(outcomes)] = probability
    return _key(outcomes)


class RoundSampler:
    """The branch tree of one round's sampled steps, compiled once.

    The tree holds the exact Born probability of every branch, computed with
    the same operations as the reference path, and an outcome key at every
    leaf; no state.  ``joint`` maps each leaf reached with nonzero
    probability to that probability.  ``draw`` consumes uniforms in the same
    order and against the same cumulative sums as :func:`run_round`, so both
    paths give identical transcripts for identical generator states.
    """

    def __init__(self, variant: ProtocolVariant):
        self.variant = variant
        joint: dict[OutcomeKey, float] = {}
        self._tree = _branch_tree(
            state_after_preparation(variant), _at(variant, 2, 3), {}, 1.0, joint)
        self.joint = MappingProxyType(joint)  # shared through the cache: read-only

    def draw(self, rng: np.random.Generator, round_index: int = 0) -> RoundTranscript:
        node = self._tree
        while isinstance(node, _Node):
            node = node.children[pick_index(node.probabilities, float(rng.random()))]
        return _transcript(self.variant, round_index, node)


@lru_cache(maxsize=None)
def compiled_round(variant: ProtocolVariant) -> RoundSampler:
    """Shared per-variant branch tree; samplers are immutable after build."""
    return RoundSampler(variant)


def run_until_halt(config: ProtocolConfig, stream: tuple[int, ...] = ()) -> RunReport:
    """Repeat rounds until the halting condition or ``max_rounds``.

    ``stream`` prefixes the per-round substream key, so independent
    repetitions of the whole run can share one master seed.
    """
    sampler = compiled_round(config.variant)
    transcripts: list[RoundTranscript] = []
    counts: dict[OutcomeKey, int] = {}
    halted = False
    halting_round = None
    for k in range(config.max_rounds):
        transcript = sampler.draw(round_rng(config.seed, *stream, k), k)
        transcripts.append(transcript)
        key = transcript.key()
        counts[key] = counts.get(key, 0) + 1
        if transcript.halted:
            halted = True
            halting_round = k
            break
    return RunReport(
        config=config,
        transcripts=tuple(transcripts),
        halted=halted,
        halting_round=halting_round,
        outcome_counts=counts,
    )
