import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracle
from frsim import protocol
from frsim.measurement import (
    NORM_TOL,
    RESIDUAL_TOL,
    ZERO_PROBABILITY_ATOL,
    BasisError,
    InconsistentOutcomeError,
    MeasurementBasis,
    NormalizationError,
    ResidualError,
    SubspaceOutcome,
    branch_all,
    _weight,
    condition_on,
    outcome_probability,
    pick_index,
    premeasure,
    record_copy,
    sample,
    validate_basis,
)
from frsim.reference import load_reference_states
from frsim.systems import (
    F,
    FBAR,
    N,
    NBAR,
    R,
    READY,
    S,
    W,
    WBAR,
    coin_basis,
    coin_lab_basis,
    level_basis,
    record_basis,
    spin_basis,
    spin_lab_basis,
)
from frsim.tensor import (
    LayoutError,
    RegisterLayout,
    StateVector,
    SystemId,
    apply_unitary,
    equal_up_to_global_phase,
    product_state,
    _level_stack,
    transpose_plan,
)
from golden_states import golden_state

SQ2 = np.sqrt(2.0)


def qubit(name):
    return SystemId(name, ("t", "h"))


def two_qubit_lab_basis(a, b):
    ok = (np.kron(a.ket("h"), b.ket("h")) - np.kron(a.ket("t"), b.ket("t"))) / SQ2
    fail = (np.kron(a.ket("h"), b.ket("h")) + np.kron(a.ket("t"), b.ket("t"))) / SQ2
    return MeasurementBasis(
        targets=(a, b),
        outcomes=(SubspaceOutcome("ok", ok), SubspaceOutcome("fail", fail)),
    )


# validate_basis --------------------------------------------------------------

def test_validate_lab_basis_on_four_dimensional_lab():
    a, b = qubit("a"), qubit("b")
    basis = two_qubit_lab_basis(a, b)
    assert validate_basis(basis) is None
    assert basis.target_dimension == 4
    assert basis.labels() == ("ok", "fail")


def test_validate_complete_coin_basis():
    assert validate_basis(coin_basis()) is None


def test_validate_rejects_non_orthogonal_outcomes():
    plus = (R.ket("t") + R.ket("h")) / SQ2
    with pytest.raises(BasisError, match="orthogonal"):
        basis = MeasurementBasis(
            targets=(R,),
            outcomes=(SubspaceOutcome("t", R.ket("t")), SubspaceOutcome("plus", plus)),
        )
        validate_basis(basis)


def test_validate_rejects_unnormalized_vector():
    with pytest.raises(BasisError, match="normalized"):
        basis = MeasurementBasis(
            targets=(R,),
            outcomes=(SubspaceOutcome("t", 0.5 * R.ket("t")),),
        )
        validate_basis(basis)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_a_basis_vector_that_is_not_finite_is_rejected(bad):
    # Construction runs validate_basis, whose checks pass only good values.
    with pytest.raises(BasisError, match="outcome vector 0 is not normalized"):
        MeasurementBasis(targets=(R,), outcomes=(SubspaceOutcome("a", [bad, 0]),
                                                 SubspaceOutcome("b", [0, 1])))


@pytest.mark.parametrize(
    "targets, outcomes, message",
    (
        ((), (("t", R.ket("t")),), "basis needs at least one target system"),
        ((R,), (), "basis needs at least one outcome"),
        ((R,), (("t", R.ket("t")), ("t", R.ket("h"))), r"duplicate outcome labels: \['t', 't'\]"),
        ((R,), (("t", FBAR.ket("t")),),
         "outcome 't' has vectors of dimension 3, target space has 2"),
    ),
    ids=("no-targets", "no-outcomes", "repeated-label", "wrong-vector-dimension"),
)
def test_a_malformed_basis_is_rejected(targets, outcomes, message):
    with pytest.raises(BasisError, match=message):
        MeasurementBasis(targets, tuple(SubspaceOutcome(label, ket) for label, ket in outcomes))


@pytest.mark.parametrize("read", (condition_on, outcome_probability))
def test_an_unknown_label_raises_key_error(read):
    with pytest.raises(KeyError, match="basis has no outcome labeled 'x'"):
        read(golden_state("external_t1"), coin_lab_basis(), "x")


def test_pick_index_needs_a_probability_above_zero():
    with pytest.raises(ValueError, match="all branch probabilities vanish"):
        pick_index([0.0, 0.0], 0.5)


def test_bases_are_built_once_and_validated_on_construction():
    constructors = (coin_basis, spin_basis, coin_lab_basis, spin_lab_basis,
                    lambda: record_basis(WBAR), lambda: level_basis(N))
    for build in constructors:
        assert build() is build()
    assert coin_basis() is level_basis(R)
    assert spin_basis() is level_basis(S)
    skew = (R.ket("t") + 0.5 * R.ket("h")) / np.sqrt(1.25)
    with pytest.raises(BasisError, match="orthogonal"):
        MeasurementBasis(
            targets=(R,),
            outcomes=(SubspaceOutcome("t", R.ket("t")), SubspaceOutcome("skew", skew)),
        )


# branch_all ------------------------------------------------------------------

def test_branch_probabilities_on_prepared_round():
    state = golden_state("coin_observer_t1")
    branches = {b.label: b for b in branch_all(state, coin_lab_basis())}
    assert branches["ok"].probability == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert branches["fail"].probability == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_branch_probabilities_spin_down_branch():
    state = golden_state("spin_friend_t1_down")
    branches = {b.label: b.probability for b in branch_all(state, coin_lab_basis())}
    assert branches["fail"] == pytest.approx(1.0, abs=1e-12)
    assert "ok" not in branches  # its probability is 0


def test_branch_on_eigenstate():
    state = product_state(RegisterLayout((S,)), {"S": "up"})
    branches = {b.label: b for b in branch_all(state, spin_basis())}
    assert branches["up"].probability == pytest.approx(1.0, abs=0)
    np.testing.assert_allclose(branches["up"].post_state.amplitudes, state.amplitudes)


def test_branch_probabilities_with_both_notebooks():
    state = golden_state("coin_observer_t1_both_notebooks")
    branches = {b.label: b.probability for b in branch_all(state, coin_lab_basis())}
    exact = exact_oracle.joint(frozenset({"Fbar", "F"}), False)
    wbar_ok = sum(p for key, p in exact.items() if key[0] == "ok")
    assert branches["ok"] == pytest.approx(wbar_ok, abs=1e-12)
    assert branches["ok"] == pytest.approx(0.5, abs=1e-12)
    assert branches["fail"] == pytest.approx(0.5, abs=1e-12)


def test_branch_probabilities_sum_to_one_and_posts_are_orthogonal():
    for tag in ("coin_observer_t1", "external_t2_secret", "coin_observer_t1_both_notebooks"):
        state = golden_state(tag)
        basis = coin_lab_basis()
        branches = branch_all(state, basis)
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)
        real = [b for b in branches if b.probability > 0]
        for i, bi in enumerate(real):
            for bj in real[i + 1:]:
                assert abs(np.vdot(bi.post_state.amplitudes, bj.post_state.amplitudes)) < 1e-10


def test_branch_repeatability():
    state = golden_state("coin_observer_t1")
    for branch in branch_all(state, coin_lab_basis()):
        if branch.probability == 0:
            continue
        again = {b.label: b.probability for b in branch_all(branch.post_state, coin_lab_basis())}
        assert again[branch.label] == pytest.approx(1.0, abs=1e-12)


def test_forbidden_residual_raises():
    a, b = qubit("a"), qubit("b")
    layout = RegisterLayout((a, b))
    crossed = product_state(layout, {"a": "t", "b": "h"})
    with pytest.raises(ResidualError):
        branch_all(crossed, two_qubit_lab_basis(a, b))


def test_forbidden_residual_tolerance_is_1e_9():
    # The residual is read as the total less the outcome probabilities: on a
    # record basis the ready row, on a lab basis the weight off ok and fail.
    a, b = qubit("a"), qubit("b")
    two_qubit_lab = two_qubit_lab_basis(a, b)
    cases = (  # each basis, its ok ket on the whole layout, and a state outside ok and fail
        (two_qubit_lab, two_qubit_lab.outcome("ok").vectors[0],
         product_state(RegisterLayout((a, b)), {"a": "t", "b": "h"})),
        (coin_lab_basis(), coin_lab_basis().outcome("ok").vectors[0],
         product_state(RegisterLayout((R, FBAR)), {"R": "t", "Fbar": READY})),
        (record_basis(WBAR), np.kron(R.ket("t"), WBAR.ket("ok")),
         product_state(RegisterLayout((R, WBAR)), {"R": "t", "Wbar": READY})),
    )
    for basis, ok, outside in cases:

        def leaking(residual):
            return StateVector(outside.layout, np.sqrt(1.0 - residual) * ok
                               + np.sqrt(residual) * outside.amplitudes)

        for residual in (1e-7, 2e-9):
            with pytest.raises(ResidualError, match=f"has probability {residual:.3e}") as raised:
                branch_all(leaking(residual), basis)
            assert type(raised.value) is ResidualError
        for residual in (5e-10, 1e-11):
            branches = {br.label: br.probability for br in branch_all(leaking(residual), basis)}
            assert branches["ok"] == pytest.approx(1.0 - residual, abs=1e-15)
            assert branches.get("fail", 0.0) == pytest.approx(0.0, abs=1e-15)


def _with_nan(state, index):
    """``state`` with its amplitude at ``index`` set to NaN."""
    amplitudes = state.amplitudes.copy()
    amplitudes[index] = np.nan
    return StateVector(state.layout, amplitudes)


def _sample(state, basis):
    return sample(state, basis, np.random.default_rng(0))


@pytest.mark.parametrize("measure", (branch_all, _sample), ids=("branch_all", "sample"))
def test_a_nan_state_fails_the_residual_check(measure):
    # A NaN probability sum is not within NORM_TOL of 1, so it raises as a
    # large residual does, instead of yielding NaN branches: on a complete
    # level basis (no residual rows), a record basis and a lab basis alike.
    state = golden_state("external_t1")
    nan_state = _with_nan(state, np.flatnonzero(state.amplitudes)[0])
    for basis in (coin_basis(), spin_basis(), record_basis(F), coin_lab_basis()):
        with pytest.raises(ResidualError, match="nan"):
            measure(nan_state, basis)


@pytest.mark.parametrize("measure", (branch_all, _sample), ids=("branch_all", "sample"))
def test_an_unnormalized_state_fails_the_normalization_check(measure):
    # |t,t> with amplitude 2: probability 4 on the level basis, read by index,
    # and 2 + 2 on the lab basis, read by projection.
    a, b = qubit("a"), qubit("b")
    state = StateVector(RegisterLayout((a, b)), [2, 0, 0, 0])
    for basis in (level_basis(a), two_qubit_lab_basis(a, b)):
        with pytest.raises(NormalizationError, match=r"sum to (4\.0|3\.999999999999999), not 1"):
            measure(state, basis)


@pytest.mark.parametrize("read", (condition_on, outcome_probability))
def test_one_outcome_of_an_unnormalized_state_fails_the_normalization_check(read):
    # The same |t,t> with amplitude 2: the level basis sums its gathered rows,
    # the lab basis reduces |psi|**2 once, and both find 4.
    a, b = qubit("a"), qubit("b")
    state = StateVector(RegisterLayout((a, b)), [2, 0, 0, 0])
    for basis, label in ((level_basis(a), "t"), (two_qubit_lab_basis(a, b), "ok")):
        with pytest.raises(NormalizationError, match=r"sum to 4\.0, not 1"):
            read(state, basis, label)


def test_a_nan_state_has_no_outcome_probability():
    state = golden_state("external_t1")
    nan_state = _with_nan(state, np.flatnonzero(state.amplitudes)[0])
    for basis in (coin_basis(), spin_basis(), record_basis(F), coin_lab_basis()):
        with pytest.raises(NormalizationError, match="nan"):
            outcome_probability(nan_state, basis, basis.labels()[0])


def test_a_nan_state_fails_the_normalization_check_of_every_readout():
    # The total is NaN wherever the NaN lies, so every readout raises
    # NormalizationError; condition_on raises InconsistentOutcomeError first
    # when the NaN reaches the outcome's own probability.  A lab basis spreads
    # a NaN to every outcome (0 * NaN is NaN).
    layout = RegisterLayout((R, WBAR))
    written = StateVector(layout, np.kron(R.ket("t"), WBAR.ket("ok") + WBAR.ket("fail")) / SQ2)
    assert layout.basis_label(3) == ("h", READY) and layout.basis_label(1) == ("t", "ok")
    lab = golden_state("external_t1")
    cases = ((_with_nan(written, 3), record_basis(WBAR), ()),
             (_with_nan(written, 1), record_basis(WBAR), ("ok",)),
             (_with_nan(lab, np.flatnonzero(lab.amplitudes)[0]), coin_lab_basis(), ("ok", "fail")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state, basis, inconsistent in cases:
            for read in (branch_all, _sample):
                with pytest.raises(NormalizationError, match="nan"):
                    read(state, basis)
            for label in basis.labels():
                with pytest.raises(NormalizationError, match="nan"):
                    outcome_probability(state, basis, label)
                error = InconsistentOutcomeError if label in inconsistent else NormalizationError
                with pytest.raises(error, match="nan"):
                    condition_on(state, basis, label)


@pytest.mark.parametrize("measure", (branch_all, _sample), ids=("branch_all", "sample"))
def test_a_memory_left_ready_fails_the_residual_check(measure):
    # A record basis leaves the ready level out: its row is the residual.
    state = product_state(RegisterLayout((R, WBAR)), {"R": "t", "Wbar": READY})
    with pytest.raises(ResidualError,
                       match=r"residual outcome on \('Wbar',\) has probability 1\.000e\+00"):
        measure(state, record_basis(WBAR))


def test_an_outcome_of_probability_zero_builds_no_branch():
    # It has no post-state: its projection and the square root it would be
    # divided by are both 0, and no 0/0 is taken on the way.
    cases = ((golden_state("spin_friend_t1_down"), coin_lab_basis(), ["fail"]),
             (product_state(RegisterLayout((S,)), {"S": "up"}), spin_basis(), ["up"]),
             (product_state(RegisterLayout((R, WBAR)), {"R": "t", "Wbar": "fail"}),
              record_basis(WBAR), ["fail"]))
    for state, basis, labels in cases:
        assert len(basis.outcomes) > len(labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            branches = branch_all(state, basis)
        assert [b.label for b in branches] == labels
        assert all(b.probability > 0.0 for b in branches)


def test_a_branch_below_the_zero_probability_tolerance_is_collapsed_onto():
    # h's probability 1e-14 lies below ZERO_PROBABILITY_ATOL, but it is not 0:
    # its branch carries |h>, not the state as it was, as sample's does.
    state = StateVector(RegisterLayout((R,)), np.sqrt(1 - 1e-14) * R.ket("t") + 1e-7 * R.ket("h"))
    branches = {b.label: b for b in branch_all(state, coin_basis())}
    assert 0.0 < branches["h"].probability <= ZERO_PROBABILITY_ATOL
    np.testing.assert_allclose(branches["h"].post_state.amplitudes, R.ket("h"), rtol=0, atol=1e-15)
    np.testing.assert_allclose(branches["t"].post_state.amplitudes, R.ket("t"), rtol=0, atol=1e-15)


# sample ----------------------------------------------------------------------

def test_sample_frequencies_match_branch_all():
    state = golden_state("spin_friend_t0")
    basis = spin_basis()
    expected = {b.label: b.probability for b in branch_all(state, basis)}
    rng = np.random.default_rng(20240811)
    n = 100_000
    counts = {"up": 0, "down": 0}
    for _ in range(n):
        label, _ = sample(state, basis, rng)
        counts[label] += 1
    for label, p in expected.items():
        se = np.sqrt(p * (1 - p) / n)
        assert abs(counts[label] / n - p) < 4 * se


def test_sample_eigenstate_is_deterministic():
    state = product_state(RegisterLayout((S,)), {"S": "up"})
    rng = np.random.default_rng(5)
    assert all(sample(state, spin_basis(), rng)[0] == "up" for _ in range(25))


def test_sample_fixed_seed_reproduces_sequence():
    state = golden_state("coin_observer_t1")
    basis = coin_lab_basis()
    seq1 = [sample(state, basis, np.random.default_rng(k))[0] for k in range(40)]
    seq2 = [sample(state, basis, np.random.default_rng(k))[0] for k in range(40)]
    assert seq1 == seq2


def test_a_drawn_outcome_below_the_zero_probability_tolerance_is_collapsed_onto():
    # u, the largest float below 1, lands in h's interval at the top of the
    # cumulative distribution, though h's probability 1e-14 lies below
    # ZERO_PROBABILITY_ATOL: the post-state is |h>, not the state as it was.
    state = StateVector(RegisterLayout((R,)), np.sqrt(1 - 1e-14) * R.ket("t") + 1e-7 * R.ket("h"))
    top = SimpleNamespace(random=lambda: np.nextafter(1.0, 0.0))
    label, post = sample(state, coin_basis(), top)
    assert label == "h"
    np.testing.assert_allclose(post.amplitudes, R.ket("h"), rtol=0, atol=1e-15)


# condition_on ----------------------------------------------------------------

def test_condition_spin_observer_on_heard_ok():
    before = golden_state("spin_observer_t2_secret")
    expected = golden_state("spin_observer_t2_heard_ok")
    after = condition_on(before, record_basis(WBAR), "ok")
    assert equal_up_to_global_phase(after, expected, tol=1e-10)


def test_condition_external_on_heard_ok():
    before = golden_state("external_t2_secret")
    expected = golden_state("external_t2_heard_ok")
    after = condition_on(before, record_basis(WBAR), "ok")
    assert equal_up_to_global_phase(after, expected, tol=1e-10)


def test_condition_external_twice_reaches_product_state():
    heard = golden_state("external_t2_heard_ok")
    premeasured = premeasure(heard, spin_lab_basis(), W)
    after = condition_on(premeasured, record_basis(W), "ok")
    expected = golden_state("external_t3_heard_ok_ok")
    assert equal_up_to_global_phase(after, expected, tol=1e-10)


def test_condition_on_own_outcome_is_projector_fixed_point():
    state = golden_state("coin_observer_t2_ok")
    again = condition_on(state, coin_lab_basis(), "ok")
    assert abs(np.vdot(again.amplitudes, state.amplitudes)) == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_conditioning_raises():
    state = golden_state("spin_friend_t1_down")
    with pytest.raises(InconsistentOutcomeError):
        condition_on(state, coin_lab_basis(), "ok")


def test_a_nan_state_fails_the_zero_probability_check():
    # A NaN probability is not above ZERO_PROBABILITY_ATOL: the outcome is
    # inconsistent, and no NaN is divided into a state on the way.
    state = golden_state("external_t1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InconsistentOutcomeError, match="nan"):
            condition_on(_with_nan(state, np.flatnonzero(state.amplitudes)[0]),
                         coin_lab_basis(), "ok")




# record_copy / premeasure ----------------------------------------------------

def test_record_copy_of_superposed_coin():
    layout = RegisterLayout((R, NBAR))
    state = product_state(
        layout, {"R": [np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0)], "Nbar": "ready"}
    )
    copied = record_copy(state, R, NBAR)
    terms = dict(copied.nonzero_terms())
    assert terms[("t", "t")] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)
    assert terms[("h", "h")] == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-15)


def test_record_copy_requires_ready_target():
    layout = RegisterLayout((R, NBAR))
    state = product_state(layout, {"R": "t", "Nbar": "h"})
    with pytest.raises(ValueError, match="ready"):
        record_copy(state, R, NBAR)


def _premeasure_unitary_matrix(basis, memory):
    """Explicit matrix oracle on (targets, memory):
    ``sum_o P_o (x) SWAP(ready, o) + P_res (x) 1``."""
    residual = np.eye(basis.target_dimension, dtype=complex)
    u = np.zeros((basis.target_dimension * memory.dimension,) * 2, dtype=complex)
    for outcome in basis.outcomes:
        proj = outcome.vectors.T @ outcome.vectors.conj()
        residual -= proj
        swap = np.eye(memory.dimension, dtype=complex)
        i, j = memory.level_index("ready"), memory.level_index(outcome.label)
        swap[[i, j]] = swap[[j, i]]
        u += np.kron(proj, swap)
    return u + np.kron(residual, np.eye(memory.dimension))


def _random_ket(rng, dim):
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return ket / np.linalg.norm(ket)


def test_record_copy_matches_explicit_unitary_and_preserves_norm():
    rng = np.random.default_rng(99)
    copy_layout = RegisterLayout((R, NBAR, S))
    # A random coin-lab state has Fbar partly ready, outside ok and fail, so
    # the premeasurement's residual term P_res (x) 1 carries weight.
    lab_layout = RegisterLayout((R, FBAR, S, WBAR))
    cases = (
        (level_basis(R), NBAR, lambda state: record_copy(state, R, NBAR),
         lambda: StateVector(copy_layout, np.kron(
             np.kron(_random_ket(rng, 2), NBAR.ket("ready")), _random_ket(rng, 2)))),
        (coin_lab_basis(), WBAR, lambda state: premeasure(state, coin_lab_basis(), WBAR),
         lambda: StateVector(lab_layout, np.kron(
             np.kron(_random_ket(rng, 6), _random_ket(rng, 2)), WBAR.ket("ready")))),
    )
    for basis, memory, write, draw in cases:
        u = _premeasure_unitary_matrix(basis, memory)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-14)
        for _ in range(20):
            state = draw()
            outside = 1.0 - sum(outcome_probability(state, basis, label)
                                for label in basis.labels())
            kets = sum(len(outcome.vectors) for outcome in basis.outcomes)
            assert (outside > 0.05) == (kets < basis.target_dimension)
            written = write(state)
            oracle = apply_unitary(state, basis.target_names + (memory.name,), u)
            np.testing.assert_allclose(written.amplitudes, oracle.amplitudes, atol=1e-14)
            assert abs(written.norm - 1.0) < 1e-12


def test_record_copy_commutes_with_source_measurement():
    state = golden_state("spin_friend_t0")  # S still superposed
    layout_with_n = RegisterLayout(state.layout.systems + (N,))
    amps = np.kron(state.amplitudes, N.ket("ready"))
    state = StateVector(layout_with_n, amps)

    copy_then_measure = {
        b.label: b for b in branch_all(record_copy(state, S, N), spin_basis())
    }
    for branch in branch_all(state, spin_basis()):
        measured_then_copied = record_copy(branch.post_state, S, N)
        twin = copy_then_measure[branch.label]
        assert twin.probability == pytest.approx(branch.probability, abs=1e-12)
        assert equal_up_to_global_phase(
            measured_then_copied, twin.post_state, tol=1e-10
        )


def test_premeasure_writes_lab_outcome_into_memory():
    before = golden_state("external_t1")
    expected = golden_state("external_t2_secret")
    after = premeasure(before, coin_lab_basis(), WBAR)
    assert equal_up_to_global_phase(after, expected, tol=1e-10)


def test_premeasure_rejects_written_memory():
    state = golden_state("external_t2_secret")
    with pytest.raises(ValueError, match="ready"):
        premeasure(state, coin_lab_basis(), WBAR)


def test_a_nan_memory_amplitude_fails_the_ready_check():
    layout = RegisterLayout((R, NBAR))
    state = product_state(layout, {"R": "t", "Nbar": "ready"})
    assert layout.basis_label(2) == ("t", "h")  # a memory level other than ready
    with pytest.raises(ValueError, match="ready"):
        premeasure(_with_nan(state, 2), level_basis(R), NBAR)


@pytest.mark.parametrize(
    "coin",
    (S, SystemId("R", ("t", "h", "x"))),
    ids=("target-missing", "target-with-other-levels"),
)
def test_premeasure_checks_its_targets_like_condition_on(coin):
    state = product_state(RegisterLayout((coin, NBAR)),
                          {coin.name: coin.levels[0], "Nbar": "ready"})
    with pytest.raises(LayoutError):
        condition_on(state, level_basis(R), "t")
    with pytest.raises(LayoutError):
        premeasure(state, level_basis(R), NBAR)


def test_premeasure_checks_its_memory_like_its_targets():
    state = product_state(RegisterLayout((R, NBAR)), {"R": "t", "Nbar": "ready"})
    for memory in (N, SystemId("Nbar", ("ready", "t", "h", "x")), R):
        with pytest.raises(LayoutError):
            premeasure(state, level_basis(R), memory)


def test_outcome_probability_matches_branch_all():
    state = golden_state("coin_observer_t1")
    p = outcome_probability(state, coin_lab_basis(), "ok")
    assert p == pytest.approx(1.0 / 6.0, abs=1e-12)


# Level bases read by index ----------------------------------------------------

def test_level_bases_are_told_apart_when_built():
    for system in (R, S, FBAR, W):
        assert level_basis(system).levels == tuple(range(system.dimension))
    assert record_basis(WBAR).levels == (1, 2)
    assert coin_lab_basis().levels is None and spin_lab_basis().levels is None
    plus, minus = (R.ket("t") + R.ket("h")) / SQ2, (R.ket("t") - R.ket("h")) / SQ2
    flipped = -R.ket("h")  # one level, but not its ket exactly
    for outcomes in ((SubspaceOutcome("+", plus), SubspaceOutcome("-", minus)),
                     (SubspaceOutcome("t", R.ket("t")), SubspaceOutcome("h", flipped)),
                     (SubspaceOutcome("both", np.eye(2)),)):
        assert MeasurementBasis(targets=(R,), outcomes=outcomes).levels is None


def _explicit_index(layout, targets):
    """The (targets, rest) flat index written out: the layout's positions
    with the targets' axes moved to the front."""
    axes = [layout.axis(system.name) for system in targets]
    perm = axes + [i for i in range(len(layout.systems)) if i not in axes]
    moved = np.arange(layout.total_dimension).reshape(layout.dims).transpose(perm)
    return moved.reshape(int(np.prod([layout.dims[i] for i in axes])), -1)


def test_each_row_index_is_held_once():
    # A system's index is a view of its layout's stack for its level count,
    # which the agents' occupancies gather by too.
    from frsim.perspectives import _standard_measurements

    layout = RegisterLayout((NBAR, R, FBAR, N, S, F, WBAR, W))
    for system in layout.systems:
        rows = transpose_plan(layout, (system,))
        systems, stack = _level_stack(layout, system.dimension)
        assert system in systems and rows.base is stack
        assert rows.flags.c_contiguous and not rows.flags.writeable
        assert np.array_equal(rows, _explicit_index(layout, (system,)))
    for targets in ((F, S), (WBAR, R, W), layout.systems[::-1]):
        rows = transpose_plan(layout, targets)
        assert rows.flags.c_contiguous and not rows.flags.writeable
        assert np.array_equal(rows, _explicit_index(layout, targets))
    _, gathers = _standard_measurements(layout)
    assert [id(rows) for _, rows in gathers] == [id(_level_stack(layout, count)[1])
                                                 for count in (2, 3)]
    with pytest.raises(LayoutError):
        transpose_plan(layout, (SystemId("R", ("t", "h", "x")),))


def _projection_oracle(state, basis):
    """The projection on every outcome's kets, as a lab basis is read: each
    probability, each normalized post-state's amplitudes (None at
    probability 0), and the error branch_all must raise (None if it must
    not)."""
    layout = state.layout
    axes = [layout.axis(system.name) for system in basis.targets]
    perm = tuple(axes + [i for i in range(len(layout.systems)) if i not in axes])
    moved = state.amplitudes.reshape(layout.dims).transpose(perm)  # the targets' axes first
    mat = moved.reshape(basis.target_dimension, -1)
    coefficients = [outcome.bras @ mat for outcome in basis.outcomes]
    projections = [o.vectors.T @ c for o, c in zip(basis.outcomes, coefficients)]
    probabilities = [_weight(c) for c in coefficients]
    residual = _weight(mat - sum(projections))
    restore = np.argsort(perm)  # the inverse permutation
    posts = [(projected / np.sqrt(p)).reshape(moved.shape).transpose(restore).reshape(-1)
             if p > 0.0 else None
             for p, projected in zip(probabilities, projections)]
    if not abs(sum(probabilities) + residual - 1.0) <= NORM_TOL:
        return probabilities, posts, NormalizationError
    return probabilities, posts, None if residual < RESIDUAL_TOL else ResidualError


def _nonzero_hex(amplitudes):
    return [(int(i), amplitudes[i].real.hex(), amplitudes[i].imag.hex())
            for i in np.flatnonzero(amplitudes)]


def _collapsed_states(monkeypatch):
    """The distinct states run_round collapses in 40 rounds of each of the
    24 variants: all 16 node states of their branch trees."""
    from variants import ALL_VARIANTS

    seen = {}

    def recording(state, basis, rng):
        seen.setdefault((state.layout, state.amplitudes.tobytes()), state)
        return sample(state, basis, rng)

    monkeypatch.setattr(protocol, "sample", recording)
    for variant in ALL_VARIANTS:
        for k in range(40):
            protocol.run_round(variant, protocol.round_rng(29, k), k)
    return list(seen.values())


def test_level_bases_read_by_index_match_the_projection_bit_for_bit(monkeypatch):
    collapsed = _collapsed_states(monkeypatch)
    assert len(collapsed) == 16
    states = collapsed + [ref.state for ref in load_reference_states()]
    read = raised = 0
    for state in states:
        bases = [level_basis(system) for system in state.layout.systems]
        bases += [record_basis(system) for system in state.layout.systems
                  if READY in system.levels]
        for basis in bases:
            probabilities, posts, error = _projection_oracle(state, basis)
            gathered = [outcome_probability(state, basis, label) for label in basis.labels()]
            assert [p.hex() for p in gathered] == [p.hex() for p in probabilities]
            for label, p, post in zip(basis.labels(), probabilities, posts):
                if p > ZERO_PROBABILITY_ATOL:
                    assert _nonzero_hex(condition_on(state, basis, label).amplitudes) \
                        == _nonzero_hex(post)
            try:
                branches = branch_all(state, basis)
            except ResidualError as exc:
                assert type(exc) is error, (basis.target_names, exc)
                raised += 1
                continue
            assert error is None
            kept = [(label, p, post) for label, p, post in zip(basis.labels(), probabilities, posts)
                    if post is not None]  # no branch at probability 0
            assert [(b.label, b.probability.hex()) for b in branches] \
                == [(label, p.hex()) for label, p, _ in kept]
            for branch, (_, _, post) in zip(branches, kept):
                assert _nonzero_hex(branch.post_state.amplitudes) == _nonzero_hex(post)
            read += 1
    assert (read, raised) == (388, 34)  # the ready memories of golden states raise


# Transpose plans on any layout ------------------------------------------------

def _to_front(layout, names):
    """The permutation matrix from layout order to (names, rest) order, each
    basis state's digits moved by hand."""
    dims = {system.name: system.dimension for system in layout.systems}
    order = list(names) + [system.name for system in layout.systems if system.name not in names]
    perm = np.zeros((layout.total_dimension, layout.total_dimension))
    for flat, digits in enumerate(itertools.product(*(range(d) for d in dims.values()))):
        by_name = dict(zip(dims, digits))
        perm[np.ravel_multi_index([by_name[n] for n in order], [dims[n] for n in order]), flat] = 1
    return perm


def _embed(layout, names, op):
    """``op`` on the named systems (row-major in that order) as a matrix on the
    whole layout: ``op (x) 1`` by np.kron, moved by :func:`_to_front`."""
    perm = _to_front(layout, names)
    return perm.T @ np.kron(op, np.eye(layout.total_dimension // len(op))) @ perm


@st.composite
def _layouts_with_targets(draw):
    """1-3 systems of 2 or 3 levels plus a memory with levels ready, o0, o1,
    in random order; targets are 1-2 of the non-memory systems in any order."""
    dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    systems = [SystemId(f"q{i}", tuple(f"x{k}" for k in range(d))) for i, d in enumerate(dims)]
    memory = SystemId("M", ("ready", "o0", "o1"))
    layout = tuple(draw(st.permutations(systems + [memory])))
    targets = tuple(draw(st.permutations(systems))[:draw(st.integers(1, min(2, len(dims))))])
    return layout, targets, memory


@settings(max_examples=40, deadline=None)
@given(case=_layouts_with_targets(), seed=st.integers(0, 2**32 - 1))
def test_plans_on_any_layout_match_explicit_matrices(case, seed):
    systems, targets, memory = case
    layout = RegisterLayout(systems)
    names = tuple(system.name for system in targets)
    rng = np.random.default_rng(seed)

    def random_matrix(d):
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    def random_state(amps):
        return StateVector(layout, amps / np.linalg.norm(amps))

    d_t = int(np.prod([system.dimension for system in targets]))
    unitary, _ = np.linalg.qr(random_matrix(d_t))
    # o0 spans one ket and o1 the next; the rest of the target space is residual.
    basis = MeasurementBasis(targets=targets, outcomes=(
        SubspaceOutcome("o0", unitary[:, 0]), SubspaceOutcome("o1", unitary[:, 1:2].T)))
    state = random_state(rng.normal(size=layout.total_dimension)
                         + 1j * rng.normal(size=layout.total_dimension))

    np.testing.assert_array_equal(state.amplitudes[transpose_plan(layout, targets)],
                                  (_to_front(layout, names) @ state.amplitudes).reshape(d_t, -1))

    applied = apply_unitary(state, names, unitary)
    np.testing.assert_allclose(applied.amplitudes,
                               _embed(layout, names, unitary) @ state.amplitudes, atol=1e-12)

    vectors = basis.outcome("o0").vectors
    projected = _embed(layout, names, vectors.T @ vectors.conj()) @ state.amplitudes
    np.testing.assert_allclose(condition_on(state, basis, "o0").amplitudes,
                               projected / np.linalg.norm(projected), atol=1e-12)

    ready = np.array([labels[layout.axis("M")] == "ready"
                      for labels in map(layout.basis_label, range(layout.total_dimension))])
    ready_state = random_state(np.where(ready, state.amplitudes, 0))
    written = premeasure(ready_state, basis, memory)
    u = _embed(layout, names + ("M",), _premeasure_unitary_matrix(basis, memory))
    np.testing.assert_allclose(written.amplitudes, u @ ready_state.amplitudes, atol=1e-12)

    twin = RegisterLayout(tuple(SystemId(s.name, s.levels) for s in systems))
    assert twin == layout and hash(twin) == hash(layout)
    assert transpose_plan(twin, targets) is transpose_plan(layout, targets)
    with pytest.raises(KeyError, match="layout has no system named 'absent'"):
        layout.axis("absent")


# Metamorphic checks of the physics on any layout -----------------------------

def _two_outcome_bases(targets, rng):
    """A level basis of the first target, its levels 0 and 1 read as o0 and
    o1, and a lab basis of all targets, o0 and o1 the first two columns of a
    random unitary: the memory M of :func:`_layouts_with_targets` has a level
    for each label, and the rest of each target space is residual."""
    first = targets[0]
    level = MeasurementBasis(targets=(first,), outcomes=(
        SubspaceOutcome("o0", first.ket(first.levels[0])),
        SubspaceOutcome("o1", first.ket(first.levels[1]))))
    d = int(np.prod([system.dimension for system in targets]))
    unitary, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    lab = MeasurementBasis(targets=targets, outcomes=(
        SubspaceOutcome("o0", unitary[:, 0]), SubspaceOutcome("o1", unitary[:, 1])))
    assert level.levels == (0, 1) and lab.levels is None
    return level, lab


def _random_state(layout, rng, where=True):
    amplitudes = rng.normal(size=layout.total_dimension) + 1j * rng.normal(
        size=layout.total_dimension)
    amplitudes = np.where(where, amplitudes, 0)
    return StateVector(layout, amplitudes / np.linalg.norm(amplitudes))


def _ready(layout):
    """Where the memory M holds its ready level."""
    return np.array([labels[layout.axis("M")] == READY
                     for labels in map(layout.basis_label, range(layout.total_dimension))])


@settings(max_examples=30, deadline=None)
@given(case=_layouts_with_targets(), seed=st.integers(0, 2**32 - 1))
def test_premeasure_is_an_isometry_on_ready_states(case, seed):
    systems, targets, memory = case
    layout = RegisterLayout(systems)
    rng = np.random.default_rng(seed)
    a, b = (_random_state(layout, rng, _ready(layout)) for _ in range(2))
    for basis in _two_outcome_bases(targets, rng):
        ua, ub = premeasure(a, basis, memory), premeasure(b, basis, memory)
        assert abs(np.vdot(ua.amplitudes, ub.amplitudes)
                   - np.vdot(a.amplitudes, b.amplitudes)) <= 1e-12
        assert abs(np.vdot(ua.amplitudes, ua.amplitudes) - 1.0) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(case=_layouts_with_targets(), seed=st.integers(0, 2**32 - 1),
       leak=st.sampled_from((0.0, 1e-11, 5e-10)))
def test_branches_and_their_residual_sum_to_one(case, seed, leak):
    # A state leaking ``leak`` outside the outcomes, where the basis leaves
    # room: each label's own read gives its branch's floats, and the
    # post-states are pairwise orthogonal.
    systems, targets, _ = case
    layout = RegisterLayout(systems)
    rng = np.random.default_rng(seed)
    for basis in _two_outcome_bases(targets, rng):
        inside = _embed(layout, basis.target_names,
                        sum(o.vectors.T @ o.bras for o in basis.outcomes))
        psi = _random_state(layout, rng).amplitudes
        kept, lost = inside @ psi, psi - inside @ psi
        residual = leak if np.linalg.norm(lost) > 0.1 else 0.0
        amplitudes = np.sqrt(1.0 - residual) * kept / np.linalg.norm(kept)
        if residual:
            amplitudes += np.sqrt(residual) * lost / np.linalg.norm(lost)
        state = StateVector(layout, amplitudes)
        branches = branch_all(state, basis)
        assert abs(sum(b.probability for b in branches) + residual - 1.0) <= 1e-12
        for i, branch in enumerate(branches):
            assert outcome_probability(state, basis, branch.label) == branch.probability
            conditioned = condition_on(state, basis, branch.label).amplitudes
            np.testing.assert_array_equal(conditioned, branch.post_state.amplitudes)
            for other in branches[i + 1:]:
                assert abs(np.vdot(branch.post_state.amplitudes,
                                   other.post_state.amplitudes)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(case=_layouts_with_targets(), seed=st.integers(0, 2**32 - 1))
def test_conditioning_commutes_with_premeasuring_on_a_level_basis(case, seed):
    systems, targets, memory = case
    layout = RegisterLayout(systems)
    rng = np.random.default_rng(seed)
    state = _random_state(layout, rng, _ready(layout))
    basis, _ = _two_outcome_bases(targets, rng)
    for label in basis.labels():
        first = premeasure(condition_on(state, basis, label), basis, memory)
        second = condition_on(premeasure(state, basis, memory), basis, label)
        np.testing.assert_allclose(first.amplitudes, second.amplitudes, rtol=0, atol=1e-12)
