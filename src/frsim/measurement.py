"""Projective measurements in labeled orthonormal bases on subsystem tuples.

A measurement basis assigns outcome labels to orthonormal subspaces of the
joint space of some target systems.  The basis need not be complete, but
:func:`branch_all` and :func:`sample` (and so the compiled branch tree)
raise when the probability outside it (the residual) reaches
:data:`RESIDUAL_TOL`.  :func:`condition_on` and :func:`outcome_probability`
read only the outcome asked for, and :func:`premeasure` leaves the residual
part of the state as it is.  Every probability check passes only a good
value, so a NaN fails it: a NaN state raises :class:`ResidualError` from
:func:`branch_all` and :func:`sample`, and :class:`InconsistentOutcomeError`
from :func:`condition_on`.

Measurement comes in four flavours:

* :func:`branch_all` expands every outcome with its Born probability,
* :func:`sample` draws one outcome from a seeded generator,
* :func:`condition_on` projects on an outcome that is already known,
* :func:`premeasure` and :func:`record_copy` write an outcome label into a
  memory system unitarily, without collapsing anything.

The four flavours and :func:`outcome_probability` share one Born
projection, and level occupancies are the same floats read as row sums of
one gather of ``|psi|**2`` per level count (:func:`_level_rows`,
:func:`_occupancies`); :func:`record_copy` premeasures the source's
:func:`level_basis`.
Each reads the state through :func:`~frsim.tensor.transpose_plan` for the
basis targets (and the memory), which checks once per layout and targets
that they are distinct systems of the state's layout, and raises
:class:`~frsim.tensor.LayoutError` if not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import ClassVar, Sequence

import numpy as np

from .tensor import RegisterLayout, StateVector, SystemId, TransposePlan, transpose_plan

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

    @cached_property
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


def _components(outcome: SubspaceOutcome, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (target, rest) matrix's coefficients on the outcome's kets, and its
    projection on their span."""
    coeffs = outcome.bras @ mat
    return coeffs, outcome.vectors.T @ coeffs


def _moved(state: StateVector, basis: MeasurementBasis) -> tuple[TransposePlan, np.ndarray]:
    """The shared plan that moves the basis targets to the front, and the
    state as its (target, rest) matrix."""
    plan = transpose_plan(state.layout, basis.targets)
    return plan, plan.matrix(state)


def _weight(amplitudes: np.ndarray) -> float:
    """Sum of squared magnitudes: a Born probability from the coefficients on
    an outcome's kets.  ``np.add.reduce`` over all axes is the reduction
    ``np.sum`` runs, without its dispatch."""
    return float(np.add.reduce(np.abs(amplitudes) ** 2, axis=None))


def _level_rows(layout: RegisterLayout, systems: Sequence[SystemId]) -> np.ndarray:
    """Per system of the layout, all with one level count, the flat amplitude
    indices of its (levels, rest) matrix as :meth:`~frsim.tensor.TransposePlan.matrix`
    orders it; read-only, shaped (systems, levels, rest)."""
    flat = np.arange(layout.total_dimension).reshape(layout.dims)
    plans = [transpose_plan(layout, (system,)) for system in systems]
    rows = np.stack([flat.transpose(plan.perm).reshape(plan.target_dimension, -1)
                     for plan in plans])
    rows.setflags(write=False)
    return rows


def _occupancies(weights: np.ndarray, rows: np.ndarray) -> list[list[float]]:
    """Each level's Born probability, per system of :func:`_level_rows`'
    ``rows``, from ``|psi|**2``: row sums of one C-contiguous gather, in
    :func:`_weight`'s summation order (summing the strided view of a trailing
    system would change bits)."""
    return np.add.reduce(weights[rows], axis=-1).tolist()


def _probabilities(
    state: StateVector, basis: MeasurementBasis, outcomes: Sequence[SubspaceOutcome]
) -> list[float]:
    """Each given outcome's Born probability, without forming its projection."""
    _, mat = _moved(state, basis)
    return [_weight(outcome.bras @ mat) for outcome in outcomes]


def _project_all(
    state: StateVector, basis: MeasurementBasis
) -> tuple[TransposePlan, list[tuple[float, np.ndarray]]]:
    """The plan that restores the state, and every outcome's Born probability
    and unnormalized projection; raises :class:`ResidualError` when at least
    :data:`RESIDUAL_TOL` of the probability lies outside the outcomes."""
    plan, mat = _moved(state, basis)
    projections = []
    for outcome in basis.outcomes:
        coeffs, projected = _components(outcome, mat)
        projections.append((_weight(coeffs), projected))
    residual_probability = _weight(mat - sum(projected for _, projected in projections))
    if not residual_probability < RESIDUAL_TOL:
        raise ResidualError(
            f"residual outcome on {basis.target_names} has probability "
            f"{residual_probability:.3e} under a forbid policy"
        )
    return plan, projections


def _post_state(
    state: StateVector, plan: TransposePlan, probability: float, projected: np.ndarray
) -> StateVector:
    if not probability > ZERO_PROBABILITY_ATOL:
        return state  # placeholder, never a physical branch
    return StateVector(state.layout, plan.restore(projected / np.sqrt(probability)))


def branch_all(state: StateVector, basis: MeasurementBasis) -> list[Branch]:
    """Expand the measurement into one branch per outcome.

    Each branch carries the Born probability (squared norm of the projection)
    and the normalized post-measurement state.  Probability outside the
    declared outcomes raises :class:`ResidualError` from
    :data:`RESIDUAL_TOL` on.
    """
    plan, projections = _project_all(state, basis)
    return [Branch(outcome.label, p, _post_state(state, plan, p, projected))
            for outcome, (p, projected) in zip(basis.outcomes, projections)]


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
    plan, projections = _project_all(state, basis)
    index = pick_index([p for p, _ in projections], float(rng.random()))
    return basis.outcomes[index].label, _post_state(state, plan, *projections[index])


def condition_on(state: StateVector, basis: MeasurementBasis, label: str) -> StateVector:
    """Project on the labeled outcome and renormalize.

    Raises :class:`InconsistentOutcomeError` when the outcome has
    (near-)zero probability, which signals information inconsistent with the
    state rather than a numerical accident.
    """
    outcome = basis.outcome(label)
    plan, mat = _moved(state, basis)
    coeffs, projected = _components(outcome, mat)
    probability = _weight(coeffs)
    if not probability > ZERO_PROBABILITY_ATOL:
        raise InconsistentOutcomeError(
            f"outcome {label!r} on {basis.target_names} has probability "
            f"{probability:.3e}; conditioning on it is inconsistent"
        )
    return _post_state(state, plan, probability, projected)


def outcome_probability(state: StateVector, basis: MeasurementBasis, label: str) -> float:
    """Born probability of one labeled outcome, without collapsing."""
    return _probabilities(state, basis, [basis.outcome(label)])[0]


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
    plan = transpose_plan(state.layout, basis.targets + (memory,))
    off_ready_levels, swaps = _record_swaps(memory, basis.labels())
    mat = plan.matrix(state)
    cube = mat.reshape(-1, memory.dimension, mat.shape[1])  # (target, memory, rest)

    off_ready = _weight(cube[:, off_ready_levels])
    if not off_ready <= ZERO_PROBABILITY_ATOL:
        raise ValueError(
            f"memory {memory.name!r} is not in its ready state "
            f"(off-ready probability {off_ready:.3e})"
        )

    targets = mat.reshape(cube.shape[0], -1)  # (target, memory x rest)
    residual = cube.copy()
    result = np.zeros_like(cube)
    for outcome, levels in zip(basis.outcomes, swaps):
        projected = _components(outcome, targets)[1].reshape(cube.shape)
        residual -= projected
        result += projected[:, levels]
    result += residual

    return StateVector(state.layout, plan.restore(result))


@lru_cache(maxsize=256)
def _record_swaps(
    memory: SystemId, labels: tuple[str, ...]
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """What writing each outcome label into the memory reads, built once per
    memory and labels: the memory's levels other than :data:`READY`, and per
    label the index array that swaps its level with the ready one."""
    for label in labels:
        if label not in memory.levels:
            raise BasisError(f"memory {memory.name!r} has no level for outcome {label!r}")
    ready = memory.level_index(READY)
    off_ready = np.array([i for i in range(memory.dimension) if i != ready])
    swaps = []
    for label in labels:
        levels = np.arange(memory.dimension)  # SWAP(ready, outcome) as an index
        written = memory.level_index(label)
        levels[ready], levels[written] = written, ready
        swaps.append(levels)
    for index in (off_ready, *swaps):
        index.setflags(write=False)
    return off_ready, tuple(swaps)


def record_copy(state: StateVector, source: SystemId, target: SystemId) -> StateVector:
    """Copy the source system's level label into a ready target system.

    Premeasures the source's :func:`level_basis` into the target: each
    component ``|x>|ready>`` maps to ``|x>|x>``, so the copy is unitary and
    preserves superpositions between different source labels.
    """
    return premeasure(state, level_basis(source), target)
