"""Projective measurements in labeled orthonormal bases on subsystem tuples.

A measurement basis assigns outcome labels to orthonormal subspaces of the
joint space of some target systems.  The basis need not be complete, but
probability landing outside the declared subspaces (the residual) is an
error from :data:`RESIDUAL_TOL` on, for every basis.

Measurement comes in four flavours:

* :func:`branch_all` expands every outcome with its Born probability,
* :func:`sample` draws one outcome from a seeded generator,
* :func:`condition_on` projects on an outcome that is already known,
* :func:`premeasure` and :func:`record_copy` write an outcome label into a
  memory system unitarily, without collapsing anything.

The four flavours and :func:`outcome_probability` share one Born
projection; :func:`record_copy` premeasures the source's :func:`level_basis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import ClassVar, Sequence

import numpy as np

from .tensor import (
    LayoutError,
    StateVector,
    SystemId,
    _moved_matrix,
    _restore,
)

ORTHO_ATOL = 1e-12
ZERO_PROBABILITY_ATOL = 1e-12
RESIDUAL_TOL = 1e-9  # probability outside a basis's outcomes raises from here on
READY = "ready"  # the level every memory starts in, before an outcome is written


class BasisError(ValueError):
    """The outcome vectors violate orthonormality or shape constraints."""


class ResidualError(RuntimeError):
    """A forbidden residual outcome carried non-negligible probability."""


class InconsistentOutcomeError(ValueError):
    """Conditioning on an outcome the state assigns (near-)zero probability."""


@dataclass(frozen=True, eq=False)
class SubspaceOutcome:
    """One labeled outcome: a set of orthonormal kets spanning its subspace."""

    label: str
    vectors: np.ndarray

    def __post_init__(self) -> None:
        vecs = np.atleast_2d(np.array(self.vectors, dtype=np.complex128))
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def subspace_dimension(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Labeled orthonormal outcome subspaces on an ordered tuple of systems.

    Construction runs :func:`validate_basis`, so every basis in existence is
    orthonormal; an invalid one raises :class:`BasisError` right there.
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
        labels = [o.label for o in self.outcomes]
        if len(set(labels)) != len(labels):
            raise BasisError(f"duplicate outcome labels: {labels}")
        d = self.target_dimension
        for outcome in self.outcomes:
            if outcome.vectors.shape[1] != d:
                raise BasisError(
                    f"outcome {outcome.label!r} has vectors of dimension "
                    f"{outcome.vectors.shape[1]}, target space has {d}"
                )
        validate_basis(self)

    @property
    def target_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.targets)

    @property
    def target_dimension(self) -> int:
        return int(np.prod([s.dimension for s in self.targets]))

    @property
    def residual_dimension(self) -> int:
        """Dimension of the target space outside every declared outcome."""
        return self.target_dimension - sum(o.subspace_dimension for o in self.outcomes)

    def labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.outcomes)

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
    beyond :data:`ORTHO_ATOL`.
    """
    stacked = np.vstack([o.vectors for o in basis.outcomes])
    gram = stacked.conj() @ stacked.T
    diag = np.abs(np.diag(gram) - 1.0)
    if np.any(diag > ORTHO_ATOL):
        bad = int(np.argmax(diag))
        raise BasisError(f"outcome vector {bad} is not normalized")
    off = np.abs(gram - np.eye(gram.shape[0]))
    if np.any(off > ORTHO_ATOL):
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        raise BasisError(f"outcome vectors {i} and {j} are not orthogonal")


@cache
def level_basis(system: SystemId) -> MeasurementBasis:
    """Complete basis over all levels of one system, built once per system."""
    return MeasurementBasis(
        targets=(system,),
        outcomes=tuple(SubspaceOutcome(label, system.ket(label)) for label in system.levels),
    )


def _components(vectors: np.ndarray, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (target, rest) matrix's coefficients on the outcome's kets, and its
    projection on their span."""
    coeffs = vectors.conj() @ mat
    return coeffs, vectors.T @ coeffs


def _project(
    state: StateVector, basis: MeasurementBasis, outcomes: Sequence[SubspaceOutcome]
) -> tuple[np.ndarray, list[int], list[tuple[float, np.ndarray]]]:
    """The state as a (target, rest) matrix, the axis order that restores it,
    and each given outcome's Born probability and unnormalized projection."""
    layout = state.layout
    for system in basis.targets:
        if system.name not in layout:
            raise LayoutError(f"basis target {system.name!r} not in state layout")
        if layout.system(system.name) != system:
            raise LayoutError(f"system {system.name!r} differs from the basis target")
    mat, perm = _moved_matrix(state, basis.target_names)
    projections = []
    for outcome in outcomes:
        coeffs, projected = _components(outcome.vectors, mat)
        projections.append((float(np.sum(np.abs(coeffs) ** 2)), projected))
    return mat, perm, projections


def _project_all(
    state: StateVector, basis: MeasurementBasis
) -> tuple[list[int], list[tuple[float, np.ndarray]]]:
    """:func:`_project` on every outcome, raising :class:`ResidualError` when
    at least :data:`RESIDUAL_TOL` of the probability lies outside them."""
    mat, perm, projections = _project(state, basis, basis.outcomes)
    projected_total = np.zeros_like(mat)
    for _, projected in projections:
        projected_total += projected
    residual_probability = float(np.sum(np.abs(mat - projected_total) ** 2))
    if residual_probability >= RESIDUAL_TOL:
        raise ResidualError(
            f"residual outcome on {basis.target_names} has probability "
            f"{residual_probability:.3e} under a forbid policy"
        )
    return perm, projections


def _post_state(
    state: StateVector, perm: list[int], probability: float, projected: np.ndarray
) -> StateVector:
    if probability <= ZERO_PROBABILITY_ATOL:
        return state  # placeholder, never a physical branch
    layout = state.layout
    return StateVector(layout, _restore(projected / np.sqrt(probability), layout, perm))


def branch_all(state: StateVector, basis: MeasurementBasis) -> list[Branch]:
    """Expand the measurement into one branch per outcome.

    Each branch carries the Born probability (squared norm of the projection)
    and the normalized post-measurement state.  Probability outside the
    declared outcomes raises :class:`ResidualError` from
    :data:`RESIDUAL_TOL` on.
    """
    perm, projections = _project_all(state, basis)
    return [Branch(outcome.label, p, _post_state(state, perm, p, projected))
            for outcome, (p, projected) in zip(basis.outcomes, projections)]


def pick_index(probabilities: Sequence[float], u: float) -> int:
    """Index of the branch containing ``u`` in the cumulative distribution.

    The cumulative sums are accumulated left to right in plain float
    arithmetic; callers that cache probabilities and replay this function get
    bit-identical choices to a direct :func:`sample` call.
    """
    cumulative = 0.0
    for i, p in enumerate(probabilities):
        cumulative += p
        if u < cumulative:
            return i
    # u landed in roundoff slack at the top; take the last real branch.
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
    perm, projections = _project_all(state, basis)
    index = pick_index([p for p, _ in projections], float(rng.random()))
    return basis.outcomes[index].label, _post_state(state, perm, *projections[index])


def condition_on(state: StateVector, basis: MeasurementBasis, label: str) -> StateVector:
    """Project on the labeled outcome and renormalize.

    Raises :class:`InconsistentOutcomeError` when the outcome has
    (near-)zero probability, which signals information inconsistent with the
    state rather than a numerical accident.
    """
    _, perm, [(probability, projected)] = _project(state, basis, [basis.outcome(label)])
    if probability <= ZERO_PROBABILITY_ATOL:
        raise InconsistentOutcomeError(
            f"outcome {label!r} on {basis.target_names} has probability "
            f"{probability:.3e}; conditioning on it is inconsistent"
        )
    return _post_state(state, perm, probability, projected)


def outcome_probability(state: StateVector, basis: MeasurementBasis, label: str) -> float:
    """Born probability of one labeled outcome, without collapsing."""
    _, _, [(probability, _)] = _project(state, basis, [basis.outcome(label)])
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
    :data:`READY` level on all populated amplitudes.
    """
    layout = state.layout
    if memory.name not in layout:
        raise LayoutError(f"memory system {memory.name!r} not in state layout")
    if memory.name in basis.target_names:
        raise LayoutError("memory system cannot be part of the measured targets")
    for outcome in basis.outcomes:
        if outcome.label not in memory.levels:
            raise BasisError(
                f"memory {memory.name!r} has no level for outcome {outcome.label!r}"
            )

    mat, perm = _moved_matrix(state, basis.target_names + (memory.name,))
    cube = mat.reshape(-1, memory.dimension, mat.shape[1])  # (target, memory, rest)

    ready = memory.level_index(READY)
    off_ready = float(np.sum(np.abs(np.delete(cube, ready, axis=1)) ** 2))
    if off_ready > ZERO_PROBABILITY_ATOL:
        raise ValueError(
            f"memory {memory.name!r} is not in its ready state "
            f"(off-ready probability {off_ready:.3e})"
        )

    targets = mat.reshape(cube.shape[0], -1)  # (target, memory x rest)
    residual = cube.copy()
    result = np.zeros_like(cube)
    for outcome in basis.outcomes:
        projected = _components(outcome.vectors, targets)[1].reshape(cube.shape)
        residual -= projected
        levels = list(range(memory.dimension))  # SWAP(ready, outcome) as an index
        written = memory.level_index(outcome.label)
        levels[ready], levels[written] = written, ready
        result += projected[:, levels]
    result += residual

    return StateVector(layout, _restore(result.reshape(mat.shape), layout, perm))


def record_copy(state: StateVector, source: SystemId, target: SystemId) -> StateVector:
    """Copy the source system's level label into a ready target system.

    Premeasures the source's :func:`level_basis` into the target: each
    component ``|x>|ready>`` maps to ``|x>|x>``, so the copy is unitary and
    preserves superpositions between different source labels.
    """
    return premeasure(state, level_basis(source), target)
