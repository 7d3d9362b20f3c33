import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frsim
from frsim.systems import FBAR, R, S, coin_lab_basis
from frsim.tensor import (
    LayoutError,
    RegisterLayout,
    StateVector,
    SystemId,
    UnitarityError,
    apply_unitary,
    equal_up_to_global_phase,
    product_state,
    reorder,
    transpose_plan,
)

SQ23 = np.sqrt(2.0 / 3.0)
SQ13 = np.sqrt(1.0 / 3.0)


def two_level(name):
    return SystemId(name, ("0", "1"))


def test_product_state_coin_and_ready_particle():
    layout = RegisterLayout((R, two_level("M")))
    state = product_state(layout, {"R": [SQ23, SQ13], "M": "0"})
    np.testing.assert_allclose(state.amplitudes, [SQ23, 0.0, SQ13, 0.0], atol=1e-15)


def test_product_state_single_system_identity():
    layout = RegisterLayout((R,))
    state = product_state(layout, {"R": "t"})
    np.testing.assert_allclose(state.amplitudes, [1.0, 0.0], atol=0)


def test_product_state_basis_pair():
    layout = RegisterLayout((S, two_level("M")))
    state = product_state(layout, {"S": "up", "M": "1"})
    expected = np.zeros(4)
    expected[0 * 2 + 1] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected, atol=0)


def test_product_state_missing_factor():
    layout = RegisterLayout((R, S))
    with pytest.raises(LayoutError):
        product_state(layout, {"R": "t"})


def test_product_state_dimension_mismatch():
    layout = RegisterLayout((R, S))
    with pytest.raises(LayoutError):
        product_state(layout, {"R": [1.0, 0.0, 0.0], "S": "up"})


def test_product_state_rejects_unnormalized_factor():
    layout = RegisterLayout((R,))
    with pytest.raises(ValueError):
        product_state(layout, {"R": [1.0, 1.0]})


def test_a_nan_factor_is_not_normalized():
    with pytest.raises(ValueError, match="factor for system 'R' is not normalized"):
        product_state(RegisterLayout((R, S)), {"R": [np.nan, 0.0], "S": "up"})


def test_an_index_lists_the_targets_levels_then_the_rest():
    # Layout (a, b, c) of 2, 3 and 2 levels: the amplitude of |a b c> sits at
    # 6a + 2b + c.  Each row is one level of the targets, in their order; the
    # rest runs over the other systems in layout order.
    a, b, c = two_level("a"), SystemId("b", ("0", "1", "2")), two_level("c")
    layout = RegisterLayout((a, b, c))
    assert transpose_plan(layout, (b,)).tolist() == [[0, 1, 6, 7], [2, 3, 8, 9], [4, 5, 10, 11]]
    assert transpose_plan(layout, (c, a)).tolist() == [[0, 2, 4], [6, 8, 10], [1, 3, 5],
                                                       [7, 9, 11]]
    assert transpose_plan(layout, (a, b, c)).ravel().tolist() == list(range(12))
    state = StateVector(layout, np.arange(12) * 1j)
    assert reorder(state, RegisterLayout((b, c, a))).amplitudes.tolist() == [
        6j * x + 2j * y + 1j * z for y in range(3) for z in range(2) for x in range(2)]


def test_reorder_two_factor_swap():
    layout = RegisterLayout((R, S))
    state = product_state(layout, {"R": "t", "S": "up"})
    swapped = reorder(state, RegisterLayout((S, R)))
    expected = product_state(RegisterLayout((S, R)), {"S": "up", "R": "t"})
    np.testing.assert_allclose(swapped.amplitudes, expected.amplitudes, atol=0)


def test_reorder_identity():
    layout = RegisterLayout((R, S))
    state = product_state(layout, {"R": "h", "S": "down"})
    again = reorder(state, layout)
    np.testing.assert_allclose(again.amplitudes, state.amplitudes, atol=0)


def test_reorder_rejects_non_permutation():
    state = product_state(RegisterLayout((R, S)), {"R": "t", "S": "up"})
    for target in ((R, FBAR), (R, SystemId("S", ("up", "down", "x")))):
        with pytest.raises(LayoutError):
            reorder(state, RegisterLayout(target))
    with pytest.raises(LayoutError, match=r"target layout \('R',\) is not a permutation of "
                                          r"\('R', 'S'\)"):
        reorder(state, RegisterLayout((R,)))


@pytest.mark.parametrize(
    "build, error, message",
    (
        (lambda: SystemId("", ("0", "1")), ValueError, "system name must be non-empty"),
        (lambda: SystemId("a", ("0",)), ValueError, "system 'a' needs at least 2 levels"),
        (lambda: SystemId("a", ("0", "0")), ValueError, "system 'a' has duplicate level labels"),
        (lambda: R.level_index("x"), KeyError, "system 'R' has no level 'x'"),
        (lambda: RegisterLayout((R, R)), ValueError,
         r"duplicate system names in layout: \['R', 'R'\]"),
        (lambda: RegisterLayout(()), ValueError, "layout must contain at least one system"),
        (lambda: StateVector(RegisterLayout((R,)), [1.0]), LayoutError,
         "amplitude count 1 does not match layout dimension 2"),
        (lambda: product_state(RegisterLayout((R,)), {"R": "t", "S": "up"}), LayoutError,
         r"factors for systems not in layout: \['S'\]"),
    ),
    ids=("system-without-name", "system-of-one-level", "system-with-a-repeated-level",
         "unknown-level", "layout-with-a-repeated-system", "empty-layout",
         "wrong-amplitude-count", "factor-outside-the-layout"),
)
def test_each_construction_and_lookup_check_raises_its_documented_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_pickled_layout_hashes_like_a_fresh_one_in_another_process():
    # A layout caches its hash, and string hashes differ between processes,
    # so an unpickled layout must hash like one built where it is loaded.
    layout = RegisterLayout((R, S))
    hash(layout)
    check = ("import pickle, sys\n"
             "from frsim.systems import R, S\n"
             "from frsim.tensor import RegisterLayout\n"
             "copy = pickle.loads(sys.stdin.buffer.read())\n"
             "assert copy == RegisterLayout((R, S)) and hash(copy) == hash(RegisterLayout((R, S)))\n")
    src = str(Path(frsim.__file__).parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", check], input=pickle.dumps(layout), env=env,
                   check=True)


def test_lab_fail_ket_against_tail_pair():
    layout = RegisterLayout((R, FBAR))
    fail_ket = StateVector(layout, coin_lab_basis().outcome("fail").vectors[0])
    tails = product_state(layout, {"R": "t", "Fbar": "t"})
    assert np.vdot(fail_ket.amplitudes, tails.amplitudes) == pytest.approx(
        1.0 / np.sqrt(2.0), abs=1e-15)


def test_equal_up_to_global_phase_layout_mismatch():
    a = product_state(RegisterLayout((R,)), {"R": "t"})
    b = product_state(RegisterLayout((S,)), {"S": "up"})
    with pytest.raises(LayoutError):
        equal_up_to_global_phase(a, b)


def test_equal_up_to_global_phase_examples():
    layout = RegisterLayout((S,))
    up = product_state(layout, {"S": "up"})
    down = product_state(layout, {"S": "down"})
    minus_up = StateVector(layout, -up.amplitudes)
    phased = StateVector(layout, np.exp(0.73j) * up.amplitudes)
    assert equal_up_to_global_phase(up, minus_up)
    assert equal_up_to_global_phase(up, phased)
    assert not equal_up_to_global_phase(up, down)


def test_equal_up_to_global_phase_rejects_unnormalized():
    # A NaN norm once passed the check, and the NaN state compared as False.
    layout = RegisterLayout((S,))
    up = product_state(layout, {"S": "up"})
    for amplitude in (0.5, np.nan, np.inf):
        bad = StateVector(layout, np.array([amplitude, 0.0]))
        with pytest.raises(ValueError):
            equal_up_to_global_phase(up, bad)


def test_apply_unitary_shape_check():
    state = product_state(RegisterLayout((R, S)), {"R": "t", "S": "up"})
    with pytest.raises(LayoutError):
        apply_unitary(state, ("R",), np.eye(3))


def test_apply_unitary_checks_unitarity():
    # An entry of |U^dagger U - 1| may reach UNITARY_ATOL (1e-12), no further.
    state = product_state(RegisterLayout((R, S)), {"R": "t", "S": "up"})
    with pytest.raises(UnitarityError, match=r"reaches 3\.000e\+00"):
        apply_unitary(state, ("R",), 2 * np.eye(2))
    apply_unitary(state, ("R",), np.diag([1.0, 1.0 + 4e-13]))  # 8e-13 off
    with pytest.raises(UnitarityError):
        apply_unitary(state, ("R",), np.diag([1.0, 1.0 + 1e-12]))  # 2e-12 off


def test_apply_unitary_rejects_a_repeated_target():
    state = product_state(RegisterLayout((R, S)), {"R": "t", "S": "up"})
    with pytest.raises(LayoutError):
        apply_unitary(state, ("R", "R"), np.eye(4))


def test_apply_unitary_rejects_a_target_missing_from_the_layout():
    # Like every measurement, so the CLI maps it as a rejected value.
    state = product_state(RegisterLayout((R, S)), {"R": "t", "S": "up"})
    with pytest.raises(LayoutError, match="no system named 'X'"):
        apply_unitary(state, ("X",), np.eye(2))


@pytest.mark.parametrize("transposed", (False, True), ids=("flat", "transposed-view"))
def test_a_state_keeps_its_own_read_only_copy(transposed):
    # A caller's writable array, flat or a strided view such as a transposed
    # matrix, is copied once: writing to it afterwards leaves the state unchanged.
    layout = RegisterLayout((two_level("a"), SystemId("b", ("0", "1", "2"))))
    source = np.arange(6, dtype=np.complex128)
    given = source.reshape(3, 2).T if transposed else source
    state = StateVector(layout, given)
    expected = np.array([0, 2, 4, 1, 3, 5] if transposed else range(6), dtype=np.complex128)
    assert np.array_equal(state.amplitudes, expected)
    source[:] = -1.0
    assert np.array_equal(state.amplitudes, expected)
    assert state.amplitudes.flags.c_contiguous and not state.amplitudes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        state.amplitudes[0] = 0.0


def test_system_levels_given_as_a_list_are_kept_as_a_tuple():
    system = SystemId("X", ["a", "b"])
    assert system.levels == ("a", "b") and hash(system) == hash(SystemId("X", ("a", "b")))
    state = product_state(RegisterLayout((system, R)), {"X": "a", "R": "t"})
    flipped = apply_unitary(state, ("X",), np.array([[0, 1], [1, 0]]))
    assert flipped.nonzero_terms() == [(("b", "t"), 1 + 0j)]


# Randomized properties ------------------------------------------------------

_DIMS = st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4)


def _random_layout(dims):
    systems = tuple(
        SystemId(f"q{i}", tuple(str(k) for k in range(d))) for i, d in enumerate(dims)
    )
    return RegisterLayout(systems)


def _random_state(layout, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.total_dimension) + 1j * rng.normal(size=layout.total_dimension)
    return StateVector(layout, amps / np.linalg.norm(amps))


@settings(max_examples=60, deadline=None)
@given(dims=_DIMS, seed=st.integers(0, 2**32 - 1))
def test_tensor_product_of_normalized_factors_is_normalized(dims, seed):
    rng = np.random.default_rng(seed)
    layout = _random_layout(dims)
    factors = {}
    for system in layout.systems:
        vec = rng.normal(size=system.dimension) + 1j * rng.normal(size=system.dimension)
        factors[system.name] = vec / np.linalg.norm(vec)
    state = product_state(layout, factors)
    assert abs(state.norm - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(dims=_DIMS, seed=st.integers(0, 2**32 - 1), perm_seed=st.integers(0, 2**32 - 1))
def test_reorder_is_an_isometry(dims, seed, perm_seed):
    layout = _random_layout(dims)
    a = _random_state(layout, seed)
    b = _random_state(layout, seed + 1)
    perm = np.random.default_rng(perm_seed).permutation(len(layout.systems))
    target = RegisterLayout(tuple(layout.systems[i] for i in perm))
    ra, rb = reorder(a, target), reorder(b, target)
    assert abs(ra.norm - a.norm) < 1e-12
    assert abs(np.vdot(ra.amplitudes, rb.amplitudes)
               - np.vdot(a.amplitudes, b.amplitudes)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(dims=_DIMS, seed=st.integers(0, 2**32 - 1), perm_seed=st.integers(0, 2**32 - 1))
def test_reorder_matches_direct_amplitude_permutation(dims, seed, perm_seed):
    layout = _random_layout(dims)
    state = _random_state(layout, seed)
    perm = list(np.random.default_rng(perm_seed).permutation(len(layout.systems)))
    target = RegisterLayout(tuple(layout.systems[i] for i in perm))
    moved = reorder(state, target)
    # Oracle: walk every flat index and permute its digit tuple by hand.
    expected = np.zeros(layout.total_dimension, dtype=complex)
    dims_arr = layout.dims
    for flat in range(layout.total_dimension):
        digits = list(np.unravel_index(flat, dims_arr))
        new_digits = tuple(digits[i] for i in perm)
        new_flat = np.ravel_multi_index(new_digits, target.dims)
        expected[new_flat] = state.amplitudes[flat]
    np.testing.assert_allclose(moved.amplitudes, expected, atol=0)


@settings(max_examples=40, deadline=None)
@given(dims=_DIMS, seed=st.integers(0, 2**32 - 1))
def test_global_phase_equality_is_an_equivalence(dims, seed):
    layout = _random_layout(dims)
    rng = np.random.default_rng(seed)
    base = _random_state(layout, seed)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    a = StateVector(layout, base.amplitudes * phases[0])
    b = StateVector(layout, base.amplitudes * phases[1])
    # Reflexive, symmetric, and transitive across phase copies of one state.
    assert equal_up_to_global_phase(base, base)
    assert equal_up_to_global_phase(a, b) == equal_up_to_global_phase(b, a)
    assert equal_up_to_global_phase(base, a)
    assert equal_up_to_global_phase(a, b)
    assert equal_up_to_global_phase(base, b)
