"""Named quantum registers and dense state vectors over their tensor product.

A register layout is an ordered tuple of named systems, each with labeled
basis levels.  Amplitudes are stored as a flat complex array indexed
row-major over the declared system order, so the amplitude of the basis
state ``|a>|b>|c>`` for a three-system layout sits at index
``(a * dim_b + b) * dim_c + c``.

Work that depends only on a layout and some of its systems is done once: a
layout keeps its name-to-axis map and its hash, and :func:`transpose_plan`
builds one index per (layout, target systems), shared by every equal layout:
the flat amplitude positions of the (targets, rest) matrix, so that
``amplitudes[index]`` is that matrix and a write puts a matrix back through
the same positions.  Building the index is also where the targets are checked
against the layout, so every axis move in the package, and its check, is made
there once per key.

All values are immutable after construction and all operations are pure
functions, so states can be shared freely between threads and callers: a
state holds a read-only copy of a caller's amplitudes, or the one array an
operation here has just written (:func:`_adopt`).  That is what lets
:mod:`frsim.protocol` hand one cached state, such as a round's record-free
prefix, to the true dynamics and to every agent.  The layouts, indices and
other values built once per layout and then shared are immutable too; two
threads that build the same one at once build equal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import le
from typing import Callable, Mapping, Sequence

import numpy as np

# The physical invariants' tolerances; every check of one is a call of require().
NORM_TOL = 1e-12  # a norm, or probabilities plus residual, off 1: worst drift seen 6.7e-16
FACTOR_NORM_TOL = 1e-9  # a product_state factor's norm off 1: a caller's ket, checked loosely
UNITARY_ATOL = 1e-12  # largest entry of |U^dagger U - 1| apply_unitary accepts
ORTHO_ATOL = 1e-12  # largest entry of |V^dagger V - 1| over a basis's outcome vectors
ZERO_PROBABILITY_ATOL = 1e-12  # at or below it a probability counts as none: no outcome, no record
RESIDUAL_TOL = 1e-9  # probability outside a basis's outcomes raises from here on
PROBABILITY_ATOL = 1e-10  # an exact distribution's slack below 0 and of its sum about 1


def require(value: float, compare: Callable, limit: float, error: type[Exception],
            message: Callable[[], str]) -> float:
    """``value`` if ``compare(value, limit)``, else raise ``error(message())``: the one
    check of every physical invariant.  ``compare`` (``operator.le``, ``lt``, ``ge`` or
    ``gt``) is named at each call; a NaN compares false, so it never passes."""
    if not compare(value, limit):
        raise error(message())
    return value


class LayoutError(ValueError):
    """Operands disagree about the register layout."""


class UnitarityError(ValueError):
    """A matrix applied as a unitary is not unitary within :data:`UNITARY_ATOL`."""


@dataclass(frozen=True)
class SystemId:
    """A named system with an ordered tuple of basis level labels."""

    name: str
    levels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.name:
            raise ValueError("system name must be non-empty")
        if len(self.levels) < 2:
            raise ValueError(f"system {self.name!r} needs at least 2 levels")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"system {self.name!r} has duplicate level labels")

    @property
    def dimension(self) -> int:
        return len(self.levels)

    def level_index(self, label: str) -> int:
        try:
            return self.levels.index(label)
        except ValueError:
            raise KeyError(f"system {self.name!r} has no level {label!r}") from None

    def ket(self, label: str) -> np.ndarray:
        """Basis ket for one level, as a dense complex array."""
        vec = np.zeros(self.dimension, dtype=np.complex128)
        vec[self.level_index(label)] = 1.0
        return vec


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered collection of distinct systems defining the amplitude indexing."""

    systems: tuple[SystemId, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "systems", tuple(self.systems))
        names = [s.name for s in self.systems]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate system names in layout: {names}")
        if not self.systems:
            raise ValueError("layout must contain at least one system")

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dimension for s in self.systems)

    @cached_property
    def total_dimension(self) -> int:
        return int(np.prod(self.dims))

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.systems)

    @cached_property
    def _axes(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def _hash(self) -> int:
        return hash(self.systems)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # A copy rebuilds what is cached: string hashes differ between processes.
        return RegisterLayout, (self.systems,)

    def axis(self, name: str) -> int:
        try:
            return self._axes[name]
        except KeyError:
            raise KeyError(f"layout has no system named {name!r}") from None

    def system(self, name: str) -> SystemId:
        return self.systems[self.axis(name)]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._axes

    def basis_label(self, index: int) -> tuple[str, ...]:
        """Level labels of the product basis state at a flat amplitude index."""
        labels = []
        for dim, sys in zip(self.dims[::-1], self.systems[::-1]):
            index, rem = divmod(index, dim)
            labels.append(sys.levels[rem])
        return tuple(labels[::-1])


@dataclass(frozen=True, eq=False)
class StateVector:
    """Amplitudes over a layout's product basis, meant to be normalized: the
    constructor checks only their count (else :class:`LayoutError`), not their
    norm or that each is finite, and keeps its own read-only complex copy."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128, order="C").reshape(-1)
        if amps.size != self.layout.total_dimension:
            raise LayoutError(
                f"amplitude count {amps.size} does not match layout dimension "
                f"{self.layout.total_dimension}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def nonzero_terms(self) -> list[tuple[tuple[str, ...], complex]]:
        """(basis labels, amplitude) pairs with magnitude above 1e-12: a rendering
        rule for listing terms, not an invariant."""
        return [(self.layout.basis_label(int(idx)), complex(self.amplitudes[idx]))
                for idx in np.flatnonzero(np.abs(self.amplitudes) > 1e-12)]


def _adopt(layout: RegisterLayout, amplitudes: np.ndarray) -> StateVector:
    """The state keeping ``amplitudes``, a fresh flat array nothing else holds, read-only."""
    amplitudes.setflags(write=False)
    state = object.__new__(StateVector)
    vars(state).update(layout=layout, amplitudes=amplitudes)
    return state


def _as_ket(system: SystemId, factor: np.ndarray | Sequence[complex] | str) -> np.ndarray:
    if isinstance(factor, str):
        return system.ket(factor)
    vec = np.asarray(factor, dtype=np.complex128).reshape(-1)
    if vec.size != system.dimension:
        raise LayoutError(
            f"factor for system {system.name!r} has dimension {vec.size}, "
            f"expected {system.dimension}"
        )
    return vec


def product_state(
    layout: RegisterLayout,
    factors: Mapping[str, np.ndarray | Sequence[complex] | str],
) -> StateVector:
    """Tensor product of one normalized ket per system, in layout order.

    Factors may be given as dense kets or as level labels.  Each factor must
    be normalized within :data:`FACTOR_NORM_TOL`, so finite (else ValueError);
    the result then has norm 1 up to roundoff.
    """
    if missing := set(layout.names) - set(factors):
        raise LayoutError(f"missing factors for systems: {sorted(missing)}")
    if extra := set(factors) - set(layout.names):
        raise LayoutError(f"factors for systems not in layout: {sorted(extra)}")

    amps = np.ones(1, dtype=np.complex128)
    for system in layout.systems:
        ket = _as_ket(system, factors[system.name])
        require(abs(np.linalg.norm(ket) - 1.0), le, FACTOR_NORM_TOL, ValueError,
                lambda: f"factor for system {system.name!r} is not normalized")
        amps = np.multiply.outer(amps, ket).ravel()  # np.kron's products, without its reshapes
    return _adopt(layout, amps)


def reorder(state: StateVector, target: RegisterLayout) -> StateVector:
    """Permute amplitudes so the same physical state is expressed in ``target``.

    ``target`` must contain exactly the systems of the state's layout.
    """
    if len(target.systems) != len(state.layout.systems):
        raise LayoutError(
            f"target layout {target.names} is not a permutation of {state.layout.names}"
        )
    return StateVector(target, state.amplitudes[transpose_plan(state.layout, target.systems)])


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = 1e-10) -> bool:
    """True when the states differ by at most a global phase.

    Both states must be normalized within ``tol`` (else ValueError, also for
    a NaN); the comparison is ``|<a|b>| >= 1 - tol``, so a leading sign or
    any overall phase is ignored.
    """
    if a.layout != b.layout:
        raise LayoutError("comparison requires identical layouts")
    for side, state in (("first", a), ("second", b)):
        require(abs(state.norm - 1.0), le, max(tol, NORM_TOL), ValueError,
                lambda: f"{side} state is not normalized (norm {state.norm})")
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol)


@lru_cache(maxsize=1024)  # the package builds about 160; each holds one entry per amplitude
def transpose_plan(layout: RegisterLayout, targets: tuple[SystemId, ...]) -> np.ndarray:
    """The shared index moving ``targets``, in that order, to the front: the
    flat amplitude positions of the (targets, rest) matrix, the rest in layout
    order; C-contiguous and read-only, so a gather by it is too.  A single
    target's index is its row of :func:`_level_stack`, so it is held once.

    Raises :class:`LayoutError` unless each target is the layout's system of
    that name, levels included, and appears once.
    """
    axes = []
    for system in targets:
        if system.name not in layout:
            raise LayoutError(f"system {system.name!r} not in layout {layout.names}")
        axis = layout.axis(system.name)
        if layout.systems[axis] != system:
            raise LayoutError(f"system {system.name!r} differs from the layout's")
        if axis in axes:
            raise LayoutError(f"system {system.name!r} is targeted twice")
        axes.append(axis)
    if len(axes) == 1:
        systems, stack = _level_stack(layout, targets[0].dimension)
        return stack[systems.index(targets[0])]
    return _index(layout.dims, axes)


def _index(dims: tuple[int, ...], axes: list[int]) -> np.ndarray:
    """The read-only (axes, rest) flat index over an array of shape ``dims``."""
    perm = axes + [i for i in range(len(dims)) if i not in axes]
    moved = np.arange(int(np.prod(dims))).reshape(dims).transpose(perm)
    index = np.ascontiguousarray(moved.reshape(int(np.prod([dims[i] for i in axes])), -1))
    index.setflags(write=False)
    return index


@lru_cache(maxsize=1024)  # as transpose_plan's, whose single-system entries view these
def _level_stack(layout: RegisterLayout, count: int) -> tuple[tuple[SystemId, ...], np.ndarray]:
    """The layout's systems with ``count`` levels, in layout order, and their
    (levels, rest) indices as one read-only (systems, levels, rest) array,
    which the agents' occupancies gather at once; built once per (layout,
    count)."""
    systems = tuple(system for system in layout.systems if system.dimension == count)
    stack = np.stack([_index(layout.dims, [layout.axis(system.name)]) for system in systems])
    stack.setflags(write=False)
    return systems, stack


def _write(layout: RegisterLayout, index: np.ndarray, matrix: np.ndarray) -> StateVector:
    """The state whose (targets, rest) matrix by ``index``, every position once, is ``matrix``."""
    amplitudes = np.empty(layout.total_dimension, dtype=np.complex128)
    amplitudes[index] = matrix
    return _adopt(layout, amplitudes)


@lru_cache(maxsize=64)  # the protocol applies one matrix; tests a few dozen
def _unitarity_drift(entries: bytes, size: int) -> float:
    """The largest entry of ``|U^dagger U - 1|`` (NaN if one is) for the
    square complex matrix with these C-ordered bytes; found once per matrix."""
    u = np.frombuffer(entries, dtype=np.complex128).reshape(size, size)
    return float(abs(u.conj().T @ u - np.eye(size)).max())


def apply_unitary(
    state: StateVector,
    target_names: Sequence[str],
    matrix: np.ndarray,
) -> StateVector:
    """Apply a unitary matrix to the joint space of the named systems.

    The matrix is indexed row-major over ``target_names`` in the given order;
    all other systems are untouched.  Each target must be in the layout and
    appear once, and the matrix must be square over their joint dimension
    (else :class:`LayoutError`) and unitary within :data:`UNITARY_ATOL`
    (else :class:`UnitarityError`).
    """
    try:
        targets = tuple(map(state.layout.system, target_names))
    except KeyError as exc:  # a missing target, as in every measurement
        raise LayoutError(*exc.args) from None
    index = transpose_plan(state.layout, targets)
    mat = state.amplitudes[index]
    u = np.asarray(matrix, dtype=np.complex128)
    if u.shape != (mat.shape[0], mat.shape[0]):
        raise LayoutError(
            f"unitary shape {u.shape} does not match target dimension {mat.shape[0]}"
        )
    drift = _unitarity_drift(u.tobytes(), len(u))
    require(drift, le, UNITARY_ATOL, UnitarityError,
            lambda: f"matrix is not unitary: |U^dagger U - 1| reaches {drift:.3e}")
    return _write(state.layout, index, u @ mat)
