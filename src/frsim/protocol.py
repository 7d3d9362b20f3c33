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
substream derived from ``(seed, k)`` (``(seed, *stream, k)`` with a stream
key), numpy's ``default_rng(SeedSequence(...))``; each sampled measurement
consumes exactly one uniform variate.  Rounds are therefore reproducible and
safe to execute in parallel.  :func:`round_uniforms` computes the same
uniforms for a whole block of rounds at once and :meth:`RoundSampler.leaf_counts`
walks the tree with them, so block sampling reproduces the per-round path
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import sqrt
from types import MappingProxyType

import numpy as np

from .measurement import (
    ZERO_PROBABILITY_ATOL,
    MeasurementBasis,
    branch_all,
    pick_index,
    premeasure,
    sample,
)
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905).
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _hash_constants(value: int, mult: int):
    """SeedSequence's successive (xor, multiplier) pairs; they do not depend
    on the data, so they stay Python ints."""
    while True:
        following = value * mult & _MASK32
        yield value, following
        value = following


def _hash(word, constants):
    """One SeedSequence hash of a 32-bit word (Python int or uint32 array)."""
    xor, mult = next(constants)
    word = (word ^ xor) * mult & _MASK32
    return word ^ word >> 16


def _mix(x, y):
    word = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return word ^ word >> 16


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence reads it: little-endian 32-bit words, one for 0."""
    n = int(n)
    if n < 0:
        raise ValueError(f"seed and stream entries must be non-negative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of ``a * b`` for uint64 ``a``, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    middle = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return p11 + (p01 >> 32) + (p10 >> 32) + (middle >> 32)


def _add128(hi, lo, add_hi, add_lo):
    total = lo + add_lo
    return hi + add_hi + (total < lo), total


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's state update ``state * multiplier + inc`` modulo 2**128."""
    product_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI) \
        + hi * np.uint64(_PCG_MULT_LO)
    return _add128(product_hi, lo * np.uint64(_PCG_MULT_LO), inc_hi, inc_lo)


def _block_uniforms(entropy: list, depth: int) -> np.ndarray:
    """``default_rng(SeedSequence(entropy)).random(depth)`` for every round at
    once; one entropy word is a uint32 array over the rounds."""
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(entropy[i] if i < len(entropy) else 0, constants)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, constants))
    # generate_state(4, uint64): eight words, paired little-endian.
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = [_hash(pool[i % _POOL_SIZE], constants).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    # PCG64 seeding: inc = 2 * seq + 1; state = inc, += seed, one step.
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    hi, lo = _lcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    out = np.empty((len(lo), depth))
    for column in range(depth):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58  # XSL-RR output
        x = x >> rot | x << (64 - rot & 63)
        out[:, column] = (x >> 11) * 2.0**-53
    return out


def round_uniforms(seed: int, key: tuple[int, ...], start: int, stop: int,
                   depth: int) -> np.ndarray:
    """The first ``depth`` uniforms of rounds ``start..stop-1``, one row each.

    Row ``i`` equals ``round_rng(seed, *key, start + i).random(depth)`` bit
    for bit: numpy's SeedSequence mixing, PCG64 seeding and output are
    computed in vectorised uint32/uint64 arithmetic.  Round indices stop
    below 2**64.
    """
    if not 0 <= start <= stop <= 2**64:
        raise ValueError(f"rounds must satisfy 0 <= start <= stop <= 2**64, got {start}, {stop}")
    prefix = _words(seed) + [word for k in key for word in _words(k)]
    out = np.empty((stop - start, depth))
    lo = int(start)
    while lo < stop:  # SeedSequence reads k as one word below 2**32, as two above
        width = max(1, -(-lo.bit_length() // 32))
        hi = min(stop, 2 ** (32 * width))
        ks = np.arange(lo, hi, dtype=np.uint64)
        words = [(ks >> 32 * j & _MASK32).astype(np.uint32) for j in range(width)]
        out[lo - start:hi - start] = _block_uniforms(prefix + words, depth)
        lo = hi
    return out


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
    """One sampled step of the tree: its branches of nonzero probability.

    ``children[i]`` follows branch ``i``: a node index, or ``~j`` for the
    ``j``-th leaf.  ``level`` counts the sampled steps before this one, so
    it is the column of the round's uniforms this node reads.  A branch of
    zero probability is left out: :func:`pick_index` never picks it, and
    without it the cumulative sums and the fallback pick the same branches.
    """

    level: int
    probabilities: tuple[float, ...]
    children: tuple[int, ...]
    # What pick_index computes, for a whole column of uniforms at once: its
    # running sums, and the branch it takes in the roundoff slack at the top.
    cumulative: np.ndarray = field(init=False)
    fallback: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cumulative", np.array(list(accumulate(self.probabilities))))
        object.__setattr__(self, "fallback", max(
            i for i, p in enumerate(self.probabilities) if p > ZERO_PROBABILITY_ATOL))


def _branch_tree(
    state: StateVector,
    steps: tuple[Step, ...],
    outcomes: dict[str, str],
    probability: float,
    nodes: list[_Node],
    leaves: dict[OutcomeKey, float],
) -> int:
    """Expand ``steps`` like :func:`_fold`, following every branch of each sampled step.

    Each sampled step becomes a node appended to ``nodes`` after its
    subtrees, so a parent's index exceeds its children's.  Each leaf is an
    outcome key put into ``leaves`` with its probability.  Returns what
    ``steps`` start with: a node index, or ``~j`` for the ``j``-th leaf.
    """
    for i, step in enumerate(steps):
        if step.skipped(outcomes):
            continue
        state = step.evolve(state)
        if step.sampled:
            rest = () if step.after is not None else steps[i + 1:]
            branches = [b for b in branch_all(state, step.readout) if b.probability > 0.0]
            children = tuple(
                _branch_tree(b.post_state, rest, {**outcomes, step.outcome: b.label},
                             probability * b.probability, nodes, leaves)
                for b in branches
            )
            nodes.append(_Node(len(outcomes), tuple(b.probability for b in branches), children))
            return len(nodes) - 1
    leaves[_key(outcomes)] = probability
    return ~(len(leaves) - 1)


class RoundSampler:
    """The branch tree of one round's sampled steps, compiled once.

    The tree holds the exact Born probability of every branch, computed with
    the same operations as the reference path, and an outcome key at every
    leaf; no state.  ``joint`` maps each leaf to its (nonzero) probability,
    and ``leaves`` lists the leaf keys in the same order.  ``draw`` consumes
    uniforms in the same order and against the same cumulative sums as
    :func:`run_round`, so both paths give identical transcripts for
    identical generator states; ``leaf_counts`` does the same for a block of
    rounds at once.
    """

    def __init__(self, variant: ProtocolVariant):
        self.variant = variant
        nodes: list[_Node] = []
        joint: dict[OutcomeKey, float] = {}
        self._root = _branch_tree(
            state_after_preparation(variant), _at(variant, 2, 3), {}, 1.0, nodes, joint)
        self._nodes = tuple(nodes)
        self.joint = MappingProxyType(joint)  # shared through the cache: read-only
        self.leaves = tuple(joint)
        self.depth = 1 + max(node.level for node in nodes)

    def draw(self, rng: np.random.Generator, round_index: int = 0) -> RoundTranscript:
        nodes, ref = self._nodes, self._root
        while ref >= 0:
            node = nodes[ref]
            ref = node.children[pick_index(node.probabilities, float(rng.random()))]
        return _transcript(self.variant, round_index, self.leaves[~ref])

    def leaf_counts(self, seed: int, key: tuple[int, ...], start: int, stop: int) -> np.ndarray:
        """How often each leaf ends rounds ``start..stop-1`` of the substreams
        ``(seed, *key, k)``: the counts of ``draw(round_rng(seed, *key, k))``
        over those ``k``, computed a block at a time."""
        uniforms = round_uniforms(seed, key, start, stop, self.depth)
        ref = np.full(len(uniforms), self._root)
        for index in range(self._root, -1, -1):  # parents before children
            node = self._nodes[index]
            at = np.flatnonzero(ref == index)
            picked = np.searchsorted(node.cumulative, uniforms[at, node.level], side="right")
            picked[picked == len(node.cumulative)] = node.fallback
            ref[at] = np.take(node.children, picked)
        return np.bincount(~ref, minlength=len(self.leaves))


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
