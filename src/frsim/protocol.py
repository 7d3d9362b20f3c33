"""The two-lab protocol, written once as a schedule of steps.

:func:`schedule` gives a variant's round as a tuple of :class:`Step` values
in time order:

* t=0  the coin is measured by its friend, the spin is prepared
       conditionally on the coin, enabled notebooks are written;
* t=1  the spin is measured by its friend (+ notebook copy);
* t=2  the coin-lab superobserver measures the coin lab in the ok/fail basis
       (a sampled read of the record in its memory); in the intrusion
       variant an ``ok`` is followed by a direct spin measurement;
* t=3  the spin-lab superobserver does the same for the spin lab, unless
       an intrusion came first.

A measurement is two steps: a premeasurement, the unitary that writes the
outcome into the observer's memory, then the read of that record, which
carries the outcome (:class:`Step`).  Each step carries the condition that
skips it (:meth:`Step.skipped`), which every walker of the schedule reads.
The round halts the experiment when both superobservers record ``ok``
(:attr:`OutcomeKey.halts`).

The true dynamics fold over the schedule from the one start that
:func:`compiled_round` holds per variant: :func:`run_round` samples it on
the state (the reference path), and the compiled round expands every branch
once into the one tree of labels and Born probabilities that sampling and
exact enumeration read, one table of rows; both walkers read it a level at a
time and take the first branch whose running sum exceeds the uniform, the
roundoff slack above the last sum being each row's last interval.  Agents
fold over it in :mod:`frsim.perspectives`.  A fold's steps before its
first read are unitary steps on a fresh state; :func:`prefix_state` builds
each such record-free prefix once per (layout, the schedule's steps), and
the true dynamics and every agent share it.  The fresh state is the empty
prefix.  Nothing after the first collapse or conditioning is cached.

Randomness contract: one master seed; round ``k`` draws from an independent
substream derived from ``(seed, k)`` (``(seed, *stream, k)`` with a stream
key), numpy's ``default_rng(SeedSequence(...))``; each sampled measurement
consumes exactly one uniform variate.  Rounds are therefore reproducible and
safe to execute in parallel.  :func:`grid_uniforms` computes the same
uniforms for a whole grid of substream keys at once (a block of rounds, or
the same window of rounds of many streams) and :meth:`RoundSampler.walk`
walks the table with them in the grid's shape, one pass per level, so block
sampling reproduces the per-round path bit for bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, product
from math import fsum, sqrt
from operator import ge, index, le
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .measurement import (
    READY,
    InconsistentOutcomeError,
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
from .tensor import (PROBABILITY_ATOL, RegisterLayout, StateVector, SystemId, apply_unitary,
                     product_state, require)

FRIENDS_WITH_NOTEBOOKS = ("Fbar", "F")


class OutcomeKey(NamedTuple):
    """A round's sampled outcomes, named as the steps that write them; None if not reached."""

    wbar: str | None
    w: str | None
    intrusion: str | None

    @property
    def halts(self) -> bool:
        """Whether a round with these outcomes halts the experiment: both labs ok."""
        return self.wbar == "ok" and self.w == "ok"


@dataclass(frozen=True)
class JointDistribution:
    """Exact probabilities over round outcome keys: each at least
    ``-PROBABILITY_ATOL`` and their sum within it of 1 (else ValueError, also
    for a NaN).  ``entries`` is a read-only copy of the mapping given, so one
    distribution can be shared; ``dict(entries)`` gives a mutable copy."""

    entries: Mapping[OutcomeKey, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        for key, p in self.entries.items():
            require(p, ge, -PROBABILITY_ATOL, ValueError,
                    lambda: f"probability {p} for {key} is negative or not a number")
        total = sum(self.entries.values())
        require(abs(total - 1.0), le, PROBABILITY_ATOL, ValueError,
                lambda: f"probabilities sum to {total}, not 1")

    def __reduce__(self):  # a mapping proxy does not pickle; its copy does
        return JointDistribution, (dict(self.entries),)

    @cached_property
    def halt_probability(self) -> float:
        """The probability that a round halts the experiment (:attr:`OutcomeKey.halts`)."""
        return fsum(p for key, p in self.entries.items() if key.halts)

    def probability(self, key: OutcomeKey) -> float:
        return self.entries.get(key, 0.0)

    def marginal_wbar(self, label: str) -> float:
        return sum(p for key, p in self.entries.items() if key.wbar == label)

    def joint_wbar_w(self, wbar: str, w: str) -> float:
        return sum(p for key, p in self.entries.items() if key.wbar == wbar and key.w == w)

    def conditional_w(self, w: str, given_wbar: str) -> float:
        return self.joint_wbar_w(given_wbar, w) / self.marginal_wbar(given_wbar)

    def conditional_intrusion(self, outcome: str) -> float:
        """Probability of the direct spin reading that follows a ``wbar`` ok."""
        joint = sum(p for key, p in self.entries.items() if key.intrusion == outcome)
        return joint / self.marginal_wbar("ok")


@dataclass(frozen=True)
class ProtocolVariant:
    """Which optional features of the protocol are switched on.

    ``announce_wbar`` toggles the original protocol, where the lab outcomes
    are announced and heard, versus the modified one, where the coin-lab
    outcome stays secret; which steps announce and which are heard is read
    off :func:`schedule`.  ``notebooks`` lists the friends who keep a
    written record.  ``cheat`` marks the coin friend's notebook as secret:
    it still exists physically but other agents do not model it.
    ``intrusion`` makes the coin-lab superobserver measure the spin directly
    after recording ``ok`` at t=2.
    """

    announce_wbar: bool = True
    notebooks: frozenset[str] = frozenset()
    cheat: bool = False
    intrusion: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "notebooks", frozenset(self.notebooks))
        if unknown := self.notebooks - set(FRIENDS_WITH_NOTEBOOKS):
            raise ValueError(f"notebooks must be a subset of {FRIENDS_WITH_NOTEBOOKS}, "
                             f"got extra {sorted(unknown)}")
        if self.cheat and "Fbar" not in self.notebooks:
            raise ValueError("cheat mode requires the coin friend's notebook")

    @lru_cache(maxsize=None)  # one entry per variant, like schedule's
    def system_names(self) -> tuple[str, ...]:
        """Every step's targets and memories, in canonical order."""
        names = {name for step in schedule(self)
                 for name in step.targets + ((step.memory.name,) if step.memory else ())}
        return canonical_layout(names).names

    def layout(self):
        return canonical_layout(self.system_names())


@dataclass(frozen=True)
class ProtocolConfig:
    """A variant plus the seeding and bounds of a stochastic run."""

    variant: ProtocolVariant
    seed: int = 0
    max_rounds: int = 10000

    def __post_init__(self) -> None:
        if index(self.seed) < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if index(self.max_rounds) < 1:
            raise ValueError("max_rounds must be at least 1")


@dataclass(frozen=True)
class RoundTranscript:
    """Sampled outcomes (the round's :class:`OutcomeKey`) and announcements.

    ``announcements`` holds ``(time, announcer, label)`` for each
    :attr:`~Step.announced` step the round reaches, in schedule order.
    """

    round_index: int
    outcomes: OutcomeKey
    announcements: tuple[tuple[int, str, str], ...]

    @property
    def halted(self) -> bool:
        return self.outcomes.halts

    def key(self) -> OutcomeKey:
        return self.outcomes


@dataclass(frozen=True)
class RunReport:
    """The transcripts of a repeated-round run; its statistics are read off them."""

    config: ProtocolConfig
    transcripts: tuple[RoundTranscript, ...]

    @property
    def rounds_executed(self) -> int:
        return len(self.transcripts)

    @property
    def halted(self) -> bool:
        return bool(self.transcripts) and self.transcripts[-1].halted

    @property
    def halting_round(self) -> int | None:
        return self.transcripts[-1].round_index if self.halted else None

    @property
    def outcome_counts(self) -> dict[OutcomeKey, int]:
        return Counter(transcript.key() for transcript in self.transcripts)


def round_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent substream for one round, addressable by (seed, *key);
    each is an integer, and a float raises ``TypeError``."""
    entropy = (index(seed), *map(index, key))
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905).  Every array
# operation of the kernel takes an operand of the array's own dtype: uint32
# for SeedSequence's words, uint64 for PCG64's state, so numpy never has to
# resolve a Python int against the array.  ``_MASK32`` serves the Python
# ints of the seed and of the hash chains.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)
_ONE, _SHIFT63 = np.uint64(1), np.uint64(63)
_ROTATION_SHIFT, _WORD_BITS, _MANTISSA_SHIFT = np.uint64(58), np.uint64(64), np.uint64(11)


@lru_cache(maxsize=None)
def _hash_constants(value: int, mult: int, count: int) -> tuple[tuple[np.uint32, np.uint32], ...]:
    """SeedSequence's first ``count`` (xor, multiplier) pairs of the hash
    chain that starts at ``value``, as uint32 scalars.  They do not depend
    on the data, so each chain is built once per length."""
    pairs = []
    for _ in range(count):
        following = value * mult & _MASK32
        pairs.append((np.uint32(value), np.uint32(following)))
        value = following
    return tuple(pairs)


def _hash(word: np.ndarray, constants) -> np.ndarray:
    """One SeedSequence hash of a uint32 array."""
    xor, mult = next(constants)
    word = (word ^ xor) * mult
    return word ^ word >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    word = _MIX_MULT_L * x - _MIX_MULT_R * y
    return word ^ word >> _XSHIFT


def _words(n: int) -> list[np.ndarray]:
    """``n`` as SeedSequence reads it: little-endian 32-bit words, one for 0,
    each a one-element uint32 array that broadcasts along a grid."""
    n = index(n)
    if n < 0:
        raise ValueError(f"seed must be non-negative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return list(np.array(words, dtype=np.uint32).reshape(-1, 1))


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of ``a * b`` for uint64 ``a``, from 32-bit limbs.  The
    partial sums accumulate in place, so fewer block-sized arrays are alive
    at once; uint64 sums are the same words in any order."""
    a0, a1, b0, b1 = a & _LOW32, a >> _SHIFT32, b & _LOW32, b >> _SHIFT32
    p01, p10 = a0 * b1, a1 * b0
    middle = a0 * b0 >> _SHIFT32
    middle += p01 & _LOW32
    middle += p10 & _LOW32
    high = a1 * b1
    high += p01 >> _SHIFT32
    high += p10 >> _SHIFT32
    high += middle >> _SHIFT32
    return high


def _add128(hi, lo, add_hi, add_lo):
    total = lo + add_lo
    return hi + add_hi + (total < lo), total


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's state update ``state * multiplier + inc`` modulo 2**128."""
    product_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    return _add128(product_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _block_uniforms(entropy: list, depth: int) -> np.ndarray:
    """``default_rng(SeedSequence(entropy)).random(depth)`` for every round at
    once.  Each entropy word is a uint32 array; the arrays broadcast together
    to the shape of the block, and the last axis of the result holds each
    round's uniforms.

    The pool, the seed words and each output's temporaries are dropped as
    soon as they are used, so a block of 4096 rounds peaks near 0.5 MiB.  A
    block that passes the heap's trim threshold makes the heap grow and
    shrink on every block, at a page-fault cost that depends on what the
    process ran before.
    """
    hi, lo, inc_hi, inc_lo = _pcg_seed(_seed_pool(entropy))
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)  # the last step of PCG64 seeding
    out = np.empty(lo.shape + (depth,))
    for column in range(depth):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        out[..., column] = _xsl_rr_double(hi, lo)
    return out


def _seed_pool(entropy: list) -> list:
    """SeedSequence's entropy pool after mixing in ``entropy``."""
    extra = entropy[_POOL_SIZE:]
    constants = iter(_hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + len(extra))))
    pool = [_hash(entropy[i] if i < len(entropy) else np.zeros(1, np.uint32), constants)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    for word in extra:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, constants))
    return pool


def _pcg_seed(pool: list) -> tuple[np.ndarray, ...]:
    """PCG64's (state_hi, state_lo, inc_hi, inc_lo) before the last step of
    its seeding: inc = 2 * seq + 1; state = inc, += seed.  Seed and seq are
    ``generate_state(4, uint64)``: eight words, paired little-endian, and
    built a pair at a time."""
    constants = iter(_hash_constants(_INIT_B, _MULT_B, 8))

    def word(i: int) -> np.ndarray:
        return _hash(pool[i % _POOL_SIZE], constants).astype(np.uint64)

    seed_hi, seed_lo, seq_hi, seq_lo = (word(i) | word(i + 1) << _SHIFT32 for i in range(0, 8, 2))
    inc_hi, inc_lo = seq_hi << _ONE | seq_lo >> _SHIFT63, seq_lo << _ONE | _ONE
    return (*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)


def _xsl_rr_double(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output of each state, as ``random()`` turns it into a double."""
    x, rot = hi ^ lo, hi >> _ROTATION_SHIFT
    x = x >> rot | x << (_WORD_BITS - rot & _SHIFT63)
    return (x >> _MANTISSA_SHIFT) * 2.0**-53


def _axis(values) -> np.ndarray:
    """One axis of a grid as ascending uint64 indices, each in [0, 2**64)."""
    values = np.asarray(values)
    if (values[1:] < values[:-1]).any():
        raise ValueError("grid indices must ascend along each axis")
    if values.size and not 0 <= values[0] <= values[-1] < 2**64:
        raise ValueError(f"grid indices must lie in [0, 2**64), got {values[0]}..{values[-1]}")
    return values.astype(np.uint64, copy=False)


def _word_runs(values: np.ndarray):
    """Ascending uint64 ``values`` as SeedSequence reads each one: one 32-bit
    word below 2**32, two from there on.  Yields each run of equal word
    count as its slice and its words, low word first."""
    cut = int(np.searchsorted(values, np.uint64(2**32)))
    for run, width in ((slice(0, cut), 1), (slice(cut, len(values)), 2)):
        if run.start < run.stop:
            part = values[run]
            yield run, [(part >> _SHIFT32 * j).astype(np.uint32) for j in range(width)]  # low 32 bits


def grid_uniforms(seed: int, axes, depth: int) -> np.ndarray:
    """The first ``depth`` uniforms of every round of a grid of substream keys.

    ``out[i, j, ...]`` equals
    ``round_rng(seed, axes[0][i], axes[1][j], ...).random(depth)`` bit for
    bit: numpy's SeedSequence mixing, PCG64 seeding and output are computed
    in vectorised uint32/uint64 arithmetic.  Each axis ascends and holds
    integers in [0, 2**64).  The kernel runs once per combination of word
    counts along the axes.
    """
    axes = [_axis(values) for values in axes]
    out = np.empty(tuple(map(len, axes)) + (depth,))
    for runs in product(*map(_word_runs, axes)):
        at, words = zip(*runs)
        # Each word varies along its own axis and broadcasts along the others.
        entropy = _words(seed) + [word.reshape((-1,) + (1,) * (len(words) - 1 - axis))
                                  for axis, axis_words in enumerate(words) for word in axis_words]
        out[at] = _block_uniforms(entropy, depth)
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

    A measurement is two steps.  Its premeasurement has no ``outcome``: the
    unitary that writes the outcome of ``basis`` into ``memory``.  Its read
    follows it, with the same time, basis, memory and ``unless``; its
    ``outcome`` names the ``Given`` field that holds the record.  A
    ``sampled`` read collapses on that record in the true dynamics.  An
    ``announced`` read's outcome is listed in the round's transcript; a
    ``heard`` one conditions every agent's model on its memory.  A notebook
    copy is a premeasurement with no read.  The spin preparation applies
    ``unitary`` to ``targets`` instead.  The intrusion is a read with no
    premeasurement and ``after=(field, label)``: it happens only when that
    earlier outcome has that label, and reads ``basis`` directly (its
    ``memory`` only names whose reading it is).  A step with
    ``unless=(field, label)`` is skipped once that outcome is known to have
    that label.
    """

    time: int
    targets: tuple[str, ...]
    basis: MeasurementBasis | None = None
    memory: SystemId | None = None
    outcome: str | None = None
    sampled: bool = False
    announced: bool = False
    heard: bool = False
    after: tuple[str, str] | None = None
    unless: tuple[str, str] | None = None
    unitary: np.ndarray | None = None

    def skipped(self, outcomes: dict[str, str]) -> bool:
        """Whether the earlier outcomes rule this step out of the round."""
        return (self.after is not None and outcomes.get(self.after[0]) != self.after[1]) or (
            self.unless is not None and outcomes.get(self.unless[0]) == self.unless[1])

    @property
    def readout(self) -> MeasurementBasis:
        """What a sampled read collapses: its written record, or its basis directly."""
        return self.basis if self.after is not None else record_basis(self.memory)

    def evolve(self, state: StateVector) -> StateVector:
        """The step's unitary: the spin preparation or a premeasurement; a read has none."""
        if self.unitary is not None:
            return apply_unitary(state, self.targets, self.unitary)
        if self.outcome is None:
            return premeasure(state, self.basis, self.memory)
        return state


# The spin preparation, and every measurement step through one cache: equal
# steps are then one object, so a run of steps, hashed by identity, keys
# :func:`prefix_state`.  The 24 variants have sixteen distinct measurement
# steps (whether a read is announced, heard or skipped makes it another).
_SPIN_PREPARATION = Step(0, ("R", "S"), unitary=_PREPARE_SPIN)


@lru_cache(maxsize=None)
def _measured(time: int, basis: MeasurementBasis, memory: SystemId, outcome=None, **flags) -> Step:
    return Step(time, basis.target_names, basis, memory, outcome, **flags)


def _measurement(time: int, basis: MeasurementBasis, memory: SystemId, outcome: str,
                 unless: tuple[str, str] | None = None, **flags) -> tuple[Step, Step]:
    """A measurement's premeasurement of ``basis`` into ``memory``, then its read."""
    return (_measured(time, basis, memory, unless=unless),
            _measured(time, basis, memory, outcome, unless=unless, **flags))


@lru_cache(maxsize=None)
def schedule(variant: ProtocolVariant) -> tuple[Step, ...]:
    """The variant's round as one tuple of steps in time order, built once
    per variant and shared: steps are immutable, and equal steps of different
    variants are the same object."""
    steps = [*_measurement(0, coin_basis(), FBAR, "r")]
    if "Fbar" in variant.notebooks:
        steps.append(_measured(0, coin_basis(), NBAR))
    steps.append(_SPIN_PREPARATION)
    steps += _measurement(1, spin_basis(), F, "s")
    if "F" in variant.notebooks:
        steps.append(_measured(1, spin_basis(), N))
    heard = variant.announce_wbar  # else Wbar's outcome stays secret, and W's is not heard
    steps += _measurement(2, coin_lab_basis(), WBAR, "wbar", sampled=True,
                          announced=heard, heard=heard)
    if variant.intrusion:
        steps.append(_measured(2, spin_basis(), WBAR, "intrusion", sampled=True,
                               after=("wbar", "ok")))
    unless = ("wbar", "ok") if variant.intrusion else None
    steps += _measurement(3, spin_lab_basis(), W, "w", unless, sampled=True, announced=True,
                          heard=heard)
    return tuple(steps)


def reached_steps(variant: ProtocolVariant, outcomes: dict[str, str | None]) -> tuple[Step, ...]:
    """The steps a round with these partial outcomes reaches (those no
    outcome rules out, :meth:`Step.skipped`), in time order.  Raises
    :class:`InconsistentOutcomeError` when ``outcomes`` labels a step the
    round does not reach: one ruled out by a given earlier outcome, or
    absent from the variant."""
    steps = schedule(variant)
    for field in outcomes.keys() - {step.outcome for step in steps}:
        if outcomes[field] is not None:
            raise InconsistentOutcomeError(
                f"no step of this variant writes the {field} outcome, so "
                f"{field}={outcomes[field]} cannot be given")
    reached = []
    for step in steps:
        if not step.skipped(outcomes):
            reached.append(step)
        elif outcomes.get(step.outcome) is not None:
            if step.unless is not None:
                field, label = step.unless
                raise InconsistentOutcomeError(
                    f"the {step.outcome} step is skipped once {field}={label}, so "
                    f"no {step.outcome} outcome follows")
            field, label = step.after
            if outcomes.get(field) is not None:  # else the step may yet be reached
                raise InconsistentOutcomeError(
                    f"the {step.outcome} step happens only after {field}={label}, so "
                    f"{field}={outcomes[field]} leaves no {step.outcome} outcome")
    return tuple(reached)


def _at(variant: ProtocolVariant, *times: int) -> tuple[Step, ...]:
    return tuple(step for step in schedule(variant) if step.time in times)


@lru_cache(maxsize=64)  # every agent model, prepared state and round of the 24 variants use 48
def prefix_state(layout: RegisterLayout, steps: tuple[Step, ...]) -> StateVector:
    """The fresh state after each step in turn: a record-free prefix of
    a round, which no sampled or known outcome has touched yet.  The fresh
    state, ``prefix_state(layout, ())``, has the coin in
    ``sqrt(2/3)|t> + sqrt(1/3)|h>``, the spin resting in ``down`` until
    prepared and every memory and notebook ready.  A fold's prefix is its
    unitary steps before its first read (:func:`run_round`,
    :func:`~frsim.perspectives.agent_model_at`).  Built once per (layout,
    steps) and shared by the true dynamics and every agent; equal steps of
    different variants are one object, so their equal prefixes are one entry."""
    factors: dict[str, object] = {"R": _COIN_SUPERPOSITION, "S": "down"}
    for name in layout.names:
        factors.setdefault(name, READY)
    state = product_state(layout, factors)
    for step in steps:
        state = step.evolve(state)
    return state


def _fold(
    state: StateVector,
    steps: tuple[Step, ...],
    rng: np.random.Generator | None = None,
) -> tuple[StateVector, dict[str, str]]:
    """The true dynamics of ``steps``: the final state and the sampled outcomes."""
    outcomes: dict[str, str] = {}
    for step in steps:
        if step.skipped(outcomes):
            continue
        state = step.evolve(state)
        if step.sampled:
            outcomes[step.outcome], state = sample(state, step.readout, rng)
    return state, outcomes


def _key(outcomes: dict[str, str]) -> OutcomeKey:
    return OutcomeKey(*map(outcomes.get, OutcomeKey._fields))


def state_after_preparation(variant: ProtocolVariant) -> StateVector:
    """Deterministic state after t=1, before any sampled measurement: the
    shared :func:`prefix_state` of the variant's t=0,1 unitary steps."""
    return prefix_state(variant.layout(),
                        tuple(step for step in _at(variant, 0, 1) if step.outcome is None))


def run_round(
    variant: ProtocolVariant,
    rng: np.random.Generator,
    round_index: int = 0,
) -> RoundTranscript:
    """Execute one full round on a fresh set of systems (reference path).

    It starts from its :func:`compiled_round`'s ``start``, the shared prefix
    through Wbar's premeasurement, the first record it reads, so only the rest
    of t=2,3 folds per round; its announcements are the compiled table's."""
    sampler = compiled_round(variant)
    _, outcomes = _fold(prefix_state(*sampler.start), sampler.steps, rng)
    key = _key(outcomes)
    return RoundTranscript(round_index, key, sampler.announcements[key])


def _branch_tree(
    state: StateVector,
    steps: tuple[Step, ...],
    outcomes: dict[str, str],
    probability: float,
    nodes: list[tuple[list[float], tuple[int, ...]]],
    leaves: dict[OutcomeKey, float],
) -> int:
    """Expand ``steps`` like :func:`_fold`, following every branch of each sampled step.

    Each sampled step becomes a node appended to ``nodes`` after its
    subtrees: the running sums of its branches of nonzero probability, as
    :func:`pick_index` adds them, and what each branch starts with, a node
    index or ``~j`` for the ``j``-th leaf.  One extra, last entry takes the
    slack above the last sum: the branch :func:`pick_index` falls back to.
    :func:`branch_all` leaves out a branch of zero probability, which
    :func:`pick_index` never picks.  Each leaf is an outcome key put into
    ``leaves`` with its probability.  Returns what ``steps`` start with.
    """
    for i, step in enumerate(steps):
        if step.skipped(outcomes):
            continue
        state = step.evolve(state)
        if step.sampled:
            branches = branch_all(state, step.readout)
            children = tuple(
                _branch_tree(b.post_state, steps[i + 1:], {**outcomes, step.outcome: b.label},
                             probability * b.probability, nodes, leaves)
                for b in branches
            )
            probabilities = [b.probability for b in branches]
            children += (children[pick_index(probabilities, float("inf"))],)  # above the sums
            nodes.append((list(accumulate(probabilities)), children))
            return len(nodes) - 1
    leaves[_key(outcomes)] = probability
    return ~(len(leaves) - 1)


class RoundSampler:
    """The branch tree of one round's sampled steps, compiled once into one table.

    It and :func:`run_round` start at ``start``, the :func:`prefix_state` key
    of the unitary steps before the first sampled read, and fold ``steps``,
    the schedule from that read on.  The tree holds the exact Born
    probability of every branch, computed with the same operations as the
    reference path, and an outcome key at every leaf; no state.  ``distribution``, the variant's
    one :class:`JointDistribution`, checked once here, gives each leaf its
    (nonzero) probability; ``leaves`` lists the leaf keys in the same order,
    ``halting`` marks the leaves that halt the experiment, and
    ``announcements`` maps each leaf to its transcript's announcements.

    The table has a row per leaf, in the order of ``leaves``, then a row
    per node: its running sums, padded with ``+inf`` to the widest node, and
    its ``width + 1`` next rows, the roundoff slack's last and repeated by
    the padding.  A leaf's row keeps its round.  A uniform ``u`` takes the
    next row at the count of running sums ``<= u``.  ``draw`` follows one
    round and consumes uniforms in the same order as :func:`run_round`,
    taking the branches :func:`pick_index` takes, so both paths give
    identical transcripts for identical generator states; ``walk`` does the
    same for a whole grid of uniforms, one pass per level.
    """

    def __init__(self, variant: ProtocolVariant):
        steps = schedule(variant)
        first = next(i for i, step in enumerate(steps) if step.sampled)
        self.start = variant.layout(), tuple(step for step in steps[:first] if step.outcome is None)
        self.steps = steps = steps[first:]
        nodes: list[tuple[list[float], tuple[int, ...]]] = []
        joint: dict[OutcomeKey, float] = {}
        root = _branch_tree(prefix_state(*self.start), steps, {}, 1.0, nodes, joint)
        self.distribution = JointDistribution(joint)
        self.leaves = tuple(joint)
        # A step a leaf leaves empty was not reached, so it announces nothing.
        self.announcements = MappingProxyType({key: tuple(
            (step.time, step.memory.name, getattr(key, step.outcome)) for step in steps
            if step.announced and getattr(key, step.outcome) is not None) for key in self.leaves})
        self.halting = np.array([key.halts for key in self.leaves])
        # Each sampled step on a leaf's path wrote one of its outcomes.
        self.depth = max(sum(label is not None for label in key) for key in self.leaves)
        width = max(len(sums) for sums, _ in nodes)
        limits = [[float("inf")] * width for _ in self.leaves]
        following = [[j] * (width + 1) for j in range(len(self.leaves))]
        for sums, children in nodes:
            pad = width - len(sums)
            limits.append(sums + [float("inf")] * pad)
            following.append([ref + len(self.leaves) if ref >= 0 else ~ref
                              for ref in children + children[-1:] * pad])
        self._root = root + len(self.leaves)
        self._limits, self._following = np.array(limits), np.array(following)
        self._rows = tuple(zip(limits, following))

    def draw(self, rng: np.random.Generator, round_index: int = 0) -> RoundTranscript:
        rows, row = self._rows, self._root
        while row >= len(self.leaves):
            limits, following = rows[row]
            u, picked = rng.random(), 0
            for limit in limits:
                picked += limit <= u
            row = following[picked]
        key = self.leaves[row]
        return RoundTranscript(round_index, key, self.announcements[key])

    def walk(self, uniforms: np.ndarray) -> np.ndarray:
        """The leaf each round of ``uniforms`` ends at, as an index into
        ``leaves``.  The last axis holds the uniforms one ``draw`` consumes,
        so the result has the shape of the axes before it.  Each column of
        uniforms is one pass over the table: a round gathers its row's
        running sums, counts those ``<= u`` and moves to that next row.
        Fewer than ``depth`` columns would leave rounds at a node."""
        if uniforms.shape[-1] < self.depth:
            raise ValueError(f"a round reads {self.depth} uniforms, got {uniforms.shape[-1]}")
        rounds = uniforms.reshape(-1, uniforms.shape[-1])
        row = np.full(len(rounds), self._root)
        following, stride = self._following.ravel(), self._following.shape[1]
        for u in rounds.T:
            picked = row * stride
            for limit in self._limits.T:
                picked += limit[row] <= u
            row = following[picked]
        return row.reshape(uniforms.shape[:-1])


@lru_cache(maxsize=None)
def compiled_round(variant: ProtocolVariant) -> RoundSampler:
    """The variant's one compiled round, shared; samplers are immutable after build."""
    return RoundSampler(variant)


def run_until_halt(config: ProtocolConfig, stream: tuple[int, ...] = ()) -> RunReport:
    """Repeat rounds until the halting condition or ``max_rounds``.

    ``stream`` prefixes the per-round substream key, so independent
    repetitions of the whole run can share one master seed.
    """
    sampler = compiled_round(config.variant)
    transcripts: list[RoundTranscript] = []
    for k in range(config.max_rounds):
        transcripts.append(sampler.draw(round_rng(config.seed, *stream, k), k))
        if transcripts[-1].halted:
            break
    return RunReport(config, tuple(transcripts))
