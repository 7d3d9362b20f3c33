"""Projective measurements in labeled orthonormal bases on subsystem tuples.

A measurement basis assigns outcome labels to orthonormal subspaces of the
joint space of some target systems.  The basis need not be complete, but
:func:`branch_all` and :func:`sample` (and so the compiled branch tree)
raise :class:`NormalizationError` unless the outcome probabilities plus
the probability outside them (the residual) lie within :data:`NORM_TOL` of
1, and then :class:`ResidualError`, of which that is a kind, once the
residual reaches :data:`RESIDUAL_TOL`.  :func:`condition_on` and
:func:`outcome_probability` read only the outcome asked for and check the
state's norm alone (``condition_on`` after its zero-probability check), and
:func:`premeasure` leaves the residual part of the state as it is.  Each of
these checks is a :func:`~frsim.tensor.require`, which a NaN never passes: a NaN
state raises :class:`NormalizationError` from every readout, but
:class:`InconsistentOutcomeError` from :func:`condition_on` when the NaN
reaches the outcome's own probability.

Measurement comes in four flavours:

* :func:`branch_all` expands every outcome of nonzero probability,
* :func:`sample` draws one outcome from a seeded generator,
* :func:`condition_on` projects on an outcome that is already known,
* :func:`premeasure` and :func:`record_copy` write an outcome label into a
  memory system unitarily, without collapsing anything.

Every readout is one read (:func:`_read`) of the (targets, rest) matrix
that :func:`~frsim.tensor.transpose_plan`'s index gathers: the probability
of every outcome (or of the one asked for), their total with the residual,
and each post-state.  A level basis, each outcome one level ket of one
system (every :func:`level_basis` and :func:`record_basis`, so the coin and
spin bases), is recognised when it is built (``MeasurementBasis.levels``)
and reads its rows: their ``|psi|**2`` sums are its outcome probabilities,
the floats projection gives, and sum to the total, and a picked row,
normalized (:func:`_normalized`), is the post-state.  The coin-lab and
spin-lab bases project on each read outcome's bras, their total is one
reduce of ``|psi|**2``, and their post-states are written back through the
index.  The residual is the total less the outcome probabilities.
:func:`premeasure` writes by index: the ready check leaves weight only on
the memory's ready slice, so it gathers that slice alone, projects each
outcome on it with the same products as any basis, adds each projection,
then the residual, into its level's slice of one zeroed (memory levels,
targets, rest) block, and writes the block once (:func:`_record_plan`);
:func:`record_copy` premeasures the source's :func:`level_basis`.  Each
index checks once per layout and targets (and memory) that they are
distinct systems of the state's layout, and raises
:class:`~frsim.tensor.LayoutError` if not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from operator import gt, le, lt
from typing import Callable, ClassVar, Sequence

import numpy as np

from .tensor import (NORM_TOL, ORTHO_ATOL, RESIDUAL_TOL, ZERO_PROBABILITY_ATOL, RegisterLayout,
                     StateVector, SystemId, _adopt, _write, require, transpose_plan)

READY = "ready"  # the level every memory starts in, before an outcome is written
_TINY = np.finfo(np.float64).tiny  # the smallest normal float; below it a float keeps fewer bits


class BasisError(ValueError):
    """The outcome vectors violate orthonormality or shape constraints."""


class ResidualError(RuntimeError):
    """A forbidden residual outcome carried non-negligible probability."""


class NormalizationError(ResidualError):
    """The outcome probabilities and the residual do not sum to 1 within
    :data:`NORM_TOL`."""


class InconsistentOutcomeError(ValueError):
    """Conditioning on an outcome the state assigns (near-)zero probability."""


@dataclass(frozen=True, eq=False)
class SubspaceOutcome:
    """One labeled outcome: a set of orthonormal kets spanning its subspace,
    kept with their conjugates, the bras every projection reads."""

    label: str
    vectors: np.ndarray

    def __post_init__(self) -> None:
        vecs = np.atleast_2d(np.array(self.vectors, dtype=np.complex128))
        bras = vecs.conj()
        for rows in (vecs, bras):
            rows.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "bras", bras)


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Labeled orthonormal outcome subspaces on an ordered tuple of systems.

    Construction runs :func:`validate_basis`, so every basis in existence is
    orthonormal; an invalid one raises :class:`BasisError` right there.
    ``levels`` holds each outcome's level for a level basis, else None.
    """

    targets: tuple[SystemId, ...]
    outcomes: tuple[SubspaceOutcome, ...]
    residual: ClassVar[float] = RESIDUAL_TOL  # every basis forbids its residual alike

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if not self.targets:
            raise BasisError("basis needs at least one target system")
        if not self.outcomes:
            raise BasisError("basis needs at least one outcome")
        labels = tuple(o.label for o in self.outcomes)
        if len(set(labels)) != len(labels):
            raise BasisError(f"duplicate outcome labels: {list(labels)}")
        object.__setattr__(self, "_labels", labels)
        d = self.target_dimension
        for outcome in self.outcomes:
            if outcome.vectors.shape[1] != d:
                raise BasisError(
                    f"outcome {outcome.label!r} has vectors of dimension "
                    f"{outcome.vectors.shape[1]}, target space has {d}"
                )
        validate_basis(self)
        object.__setattr__(self, "levels", _levels(self))

    @cached_property
    def target_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.targets)

    @property
    def target_dimension(self) -> int:
        return int(np.prod([s.dimension for s in self.targets]))

    def labels(self) -> tuple[str, ...]:
        return self._labels

    def outcome(self, label: str) -> SubspaceOutcome:
        for o in self.outcomes:
            if o.label == label:
                return o
        raise KeyError(f"basis has no outcome labeled {label!r}")


@dataclass(frozen=True, eq=False)
class Branch:
    """One measurement outcome with its probability and collapsed state."""

    label: str
    probability: float
    post_state: StateVector


def validate_basis(basis: MeasurementBasis) -> None:
    """Check orthonormality within and across outcomes.

    Raises :class:`BasisError` if any vector is not normalized or any pair of
    vectors (within one outcome or across outcomes) is not orthogonal, each
    beyond :data:`ORTHO_ATOL`.  Each check passes only a good value, so a
    vector holding a NaN or an infinity is not normalized.
    """
    stacked = np.vstack([o.vectors for o in basis.outcomes])
    with np.errstate(all="ignore"):  # inf * 0 is NaN, which the checks reject
        gram = stacked.conj() @ stacked.T
    diag = np.abs(np.diag(gram) - 1.0)  # a NaN makes the maximum NaN; argmax finds the first
    require(diag.max(), le, ORTHO_ATOL, BasisError,
            lambda: f"outcome vector {np.argmax(diag)} is not normalized")
    off = np.abs(gram - np.eye(gram.shape[0]))
    require(off.max(), le, ORTHO_ATOL, BasisError, lambda: "outcome vectors {} and {} are not "
            "orthogonal".format(*np.unravel_index(np.argmax(off), off.shape)))


@cache
def level_basis(system: SystemId) -> MeasurementBasis:
    """Complete basis over all levels of one system, built once per system."""
    return MeasurementBasis(
        targets=(system,),
        outcomes=tuple(SubspaceOutcome(label, system.ket(label)) for label in system.levels),
    )


def _weight(amplitudes: np.ndarray) -> float:
    """Sum of squared magnitudes: a Born probability from the coefficients on
    an outcome's kets.  ``np.add.reduce`` over all axes is the reduction
    ``np.sum`` runs, without its dispatch."""
    return float(np.add.reduce(np.abs(amplitudes) ** 2, axis=None))


def _levels(basis: MeasurementBasis) -> tuple[int, ...] | None:
    """Each outcome's level if each is a level ket of the one target, else None."""
    kets = np.vstack([o.vectors for o in basis.outcomes])
    if len(basis.targets) > 1 or len(kets) > len(basis.outcomes):
        return None
    levels = np.argmax(abs(kets), axis=1)
    return tuple(levels.tolist()) if np.array_equal(kets, np.eye(kets.shape[1])[levels]) else None


def _normalized(projection: np.ndarray, probability: float) -> np.ndarray:
    """``projection``, of Born probability above 0, over its norm: over the
    probability's square root, or, below :data:`_TINY`, where the probability
    keeps a few bits, over its own norm once scaled by its largest magnitude."""
    if probability >= _TINY:
        return projection / np.sqrt(probability)
    scaled = projection / np.abs(projection).max()
    return scaled / np.linalg.norm(scaled)


def _read(state: StateVector, basis: MeasurementBasis,
          label: str | None = None) -> tuple[list[float], Callable, Callable]:
    """Every outcome's Born probability, or the labeled outcome's alone; what
    gives their total with the residual; and what gives the post-state of the
    outcome at an index of those probabilities from its probability.  A level
    basis reads its gathered rows; any other basis projects on each read
    outcome's bras."""
    rows = transpose_plan(state.layout, basis.targets)
    mat = state.amplitudes[rows]  # (targets, rest)
    outcomes, levels = basis.outcomes, basis.levels
    if label is not None:
        i = basis.outcomes.index(basis.outcome(label))
        outcomes, levels = outcomes[i:i + 1], levels and levels[i:i + 1]  # None stays None
    if levels is not None:
        weights = np.add.reduce(np.abs(mat) ** 2, axis=-1).tolist()  # as standard_predictions sums

        def project(index: int, probability: float) -> StateVector:
            amplitudes = np.zeros(len(state.amplitudes), np.complex128)
            amplitudes[rows[levels[index]]] = _normalized(mat[levels[index]], probability)
            return _adopt(state.layout, amplitudes)

        return [weights[level] for level in levels], lambda: sum(weights), project
    coefficients = [outcome.bras @ mat for outcome in outcomes]  # on each outcome's kets
    return ([_weight(c) for c in coefficients], lambda: _weight(state.amplitudes),
            lambda i, probability: _write(state.layout, rows, _normalized(
                outcomes[i].vectors.T @ coefficients[i], probability)))


def _checked(state: StateVector, basis: MeasurementBasis) -> tuple[list[float], Callable]:
    """:func:`_read`'s probabilities and projections, once their total lies
    within :data:`NORM_TOL` of 1 (else :class:`NormalizationError`) and the
    residual, the total less the probabilities, is below
    :data:`RESIDUAL_TOL` (else :class:`ResidualError`)."""
    probabilities, total_of, project = _read(state, basis)
    residual = _check_total(total_of(), basis) - sum(probabilities)
    require(residual, lt, RESIDUAL_TOL, ResidualError, lambda: (
        f"residual outcome on {basis.target_names} has probability "
        f"{residual:.3e} under a forbid policy"))
    return probabilities, project


def _check_total(total: float, basis: MeasurementBasis) -> float:
    """``total``, the outcome probabilities plus the residual, once it lies
    within :data:`NORM_TOL` of 1 (else :class:`NormalizationError`)."""
    require(abs(total - 1.0), le, NORM_TOL, NormalizationError, lambda: (
        f"outcome probabilities on {basis.target_names} and their residual sum to "
        f"{total!r}, not 1"))
    return total


def branch_all(state: StateVector, basis: MeasurementBasis) -> list[Branch]:
    """Expand the measurement into one branch per outcome of nonzero probability.

    Each branch carries the Born probability (squared norm of the projection)
    and the normalized post-measurement state, however small the probability.
    An outcome of probability 0 has no post-state and no branch.
    Probabilities that with the residual do not sum to 1 within
    :data:`NORM_TOL` raise :class:`NormalizationError`; probability outside
    the declared outcomes raises :class:`ResidualError` from
    :data:`RESIDUAL_TOL` on.
    """
    probabilities, project = _checked(state, basis)
    return [Branch(outcome.label, p, project(index, p))
            for index, (outcome, p) in enumerate(zip(basis.outcomes, probabilities)) if p > 0.0]


def pick_index(probabilities: Sequence[float], u: float) -> int:
    """Index of the branch containing ``u`` in the cumulative distribution.

    The cumulative sums are accumulated left to right in plain float
    arithmetic; the compiled tree (:class:`~frsim.protocol.RoundSampler`)
    stores them and this fallback as a last interval, and picks alike.
    """
    cumulative = 0.0
    for i, p in enumerate(probabilities):
        cumulative += p
        if u < cumulative:
            return i
    # u landed in roundoff slack at the top; take the last real branch (a search rule).
    for i in range(len(probabilities) - 1, -1, -1):
        if probabilities[i] > ZERO_PROBABILITY_ATOL:
            return i
    raise ValueError("all branch probabilities vanish")


def sample(
    state: StateVector,
    basis: MeasurementBasis,
    rng: np.random.Generator,
) -> tuple[str, StateVector]:
    """Draw one outcome with the Born probabilities of :func:`branch_all`.

    Consumes exactly one uniform variate from ``rng``, so outcome sequences
    are reproducible from the generator state alone.  Only the drawn
    outcome's post-measurement state is built.
    """
    probabilities, project = _checked(state, basis)
    i = pick_index(probabilities, float(rng.random()))  # never a probability-0 outcome
    return basis.outcomes[i].label, project(i, probabilities[i])


def condition_on(state: StateVector, basis: MeasurementBasis, label: str) -> StateVector:
    """Project on the labeled outcome and renormalize.

    Raises :class:`InconsistentOutcomeError` when the outcome has
    (near-)zero probability, which signals information inconsistent with the
    state rather than a numerical accident, and then
    :class:`NormalizationError` unless the state has norm 1 within
    :data:`NORM_TOL`.
    """
    (probability,), total_of, project = _read(state, basis, label)
    require(probability, gt, ZERO_PROBABILITY_ATOL, InconsistentOutcomeError, lambda: (
        f"outcome {label!r} on {basis.target_names} has probability "
        f"{probability:.3e}; conditioning on it is inconsistent"))
    _check_total(total_of(), basis)
    return project(0, probability)


def outcome_probability(state: StateVector, basis: MeasurementBasis, label: str) -> float:
    """Born probability of one labeled outcome, without collapsing; raises
    :class:`NormalizationError` unless the state has norm 1 within
    :data:`NORM_TOL`."""
    (probability,), total_of, _ = _read(state, basis, label)
    _check_total(total_of(), basis)
    return probability


def premeasure(
    state: StateVector,
    basis: MeasurementBasis,
    memory: SystemId,
) -> StateVector:
    """Unitarily write the basis outcome into a memory system.

    Implements the entangling unitary ``sum_o P_o (x) SWAP(ready, o) +
    P_residual (x) 1`` on (targets, memory): each outcome component gets the
    outcome's label written into the memory, without collapse.  The memory
    must hold a level named after every outcome label and must start in its
    :data:`READY` level on all populated amplitudes.  Only that ready slice
    is read and projected (:func:`_record_plan`): each projection lands on
    its label's level and the residual stays on the ready level.
    """
    rows, ready, written, off_ready_rows = _record_plan(state.layout, basis, memory)
    off = state.amplitudes[off_ready_rows]
    off_ready = _weight(off) if off.any() else 0.0  # zeros weigh 0.0; a NaN is not zero
    require(off_ready, le, ZERO_PROBABILITY_ATOL, ValueError, lambda: (
        f"memory {memory.name!r} is not in its ready state "
        f"(off-ready probability {off_ready:.3e})"))

    mat = state.amplitudes[rows[ready]]  # the ready slice: (targets, rest)
    block = np.zeros(rows.shape, np.complex128)  # (memory levels, targets, rest)
    residual = mat
    for outcome, level in zip(basis.outcomes, written):
        projected = outcome.vectors.T @ (outcome.bras @ mat)
        residual = residual - projected
        block[level] += projected  # an add, as into zeros: a -0.0 lands as 0.0
    block[ready] += residual
    return _write(state.layout, rows, block)


@lru_cache(maxsize=1024)
def _record_plan(layout: RegisterLayout, basis: MeasurementBasis, memory: SystemId
                 ) -> tuple[np.ndarray, int, tuple[int, ...], np.ndarray]:
    """What :func:`premeasure` reads and writes, built once per (layout,
    basis, memory): the :func:`~frsim.tensor.transpose_plan` index of the
    memory, then the targets, as (memory levels, targets, rest); the
    :data:`READY` level and each label's level; and the flat indices of the
    other levels than ready, (targets, levels, rest) as the ready check sums
    them, C-contiguous and read-only."""
    rows = transpose_plan(layout, (memory,) + basis.targets)
    for label in basis.labels():
        if label not in memory.levels:
            raise BasisError(f"memory {memory.name!r} has no level for outcome {label!r}")
    ready = memory.level_index(READY)
    rows = rows.reshape(memory.dimension, -1, rows.shape[1])
    off_ready_rows = np.ascontiguousarray(np.delete(rows, ready, axis=0).transpose(1, 0, 2))
    off_ready_rows.setflags(write=False)
    return rows, ready, tuple(map(memory.level_index, basis.labels())), off_ready_rows


def record_copy(state: StateVector, source: SystemId, target: SystemId) -> StateVector:
    """Copy the source system's level label into a ready target system.

    Premeasures the source's :func:`level_basis` into the target: each
    component ``|x>|ready>`` maps to ``|x>|x>``, so the copy is unitary and
    preserves superpositions between different source labels.
    """
    return premeasure(state, level_basis(source), target)
