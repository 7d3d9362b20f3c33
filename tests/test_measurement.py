import numpy as np
import pytest

from frsim.measurement import (
    BasisError,
    InconsistentOutcomeError,
    MeasurementBasis,
    ResidualError,
    SubspaceOutcome,
    branch_all,
    condition_on,
    outcome_probability,
    premeasure,
    record_copy,
    sample,
    validate_basis,
)
from frsim.reference import reference_by_tag
from frsim.systems import (
    FBAR,
    N,
    NBAR,
    R,
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
    RegisterLayout,
    StateVector,
    SystemId,
    apply_unitary,
    equal_up_to_global_phase,
    inner,
    product_state,
)

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
    assert basis.residual_dimension == 2
    assert basis.labels() == ("ok", "fail")


def test_validate_complete_coin_basis():
    assert validate_basis(coin_basis()) is None
    assert coin_basis().residual_dimension == 0


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
    state = reference_by_tag("coin_observer_t1").state
    branches = {b.label: b for b in branch_all(state, coin_lab_basis())}
    assert branches["ok"].probability == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert branches["fail"].probability == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_branch_probabilities_spin_down_branch():
    state = reference_by_tag("spin_friend_t1_down").state
    branches = {b.label: b.probability for b in branch_all(state, coin_lab_basis())}
    assert branches["fail"] == pytest.approx(1.0, abs=1e-12)
    assert branches["ok"] == pytest.approx(0.0, abs=1e-12)


def test_branch_on_eigenstate():
    state = product_state(RegisterLayout((S,)), {"S": "up"})
    branches = {b.label: b for b in branch_all(state, spin_basis())}
    assert branches["up"].probability == pytest.approx(1.0, abs=0)
    np.testing.assert_allclose(branches["up"].post_state.amplitudes, state.amplitudes)


def test_branch_probabilities_with_both_notebooks():
    import hand_oracle

    state = reference_by_tag("coin_observer_t1_both_notebooks").state
    branches = {b.label: b.probability for b in branch_all(state, coin_lab_basis())}
    terms = hand_oracle.notebook_round_terms(True, True)
    assert branches["ok"] == pytest.approx(hand_oracle.coin_lab_probability(terms, "ok"), abs=1e-12)
    assert branches["ok"] == pytest.approx(0.5, abs=1e-12)
    assert branches["fail"] == pytest.approx(0.5, abs=1e-12)


def test_branch_probabilities_sum_to_one_and_posts_are_orthogonal():
    for tag in ("coin_observer_t1", "external_t2_secret", "coin_observer_t1_both_notebooks"):
        state = reference_by_tag(tag).state
        basis = coin_lab_basis()
        branches = branch_all(state, basis)
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)
        real = [b for b in branches if b.probability > 0]
        for i, bi in enumerate(real):
            for bj in real[i + 1:]:
                assert abs(inner(bi.post_state, bj.post_state)) < 1e-10


def test_branch_repeatability():
    state = reference_by_tag("coin_observer_t1").state
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
    a, b = qubit("a"), qubit("b")
    layout = RegisterLayout((a, b))
    basis = two_qubit_lab_basis(a, b)
    ok = basis.outcome("ok").vectors[0]
    crossed = product_state(layout, {"a": "t", "b": "h"}).amplitudes  # outside ok and fail

    def leaking(residual):
        return StateVector(layout, np.sqrt(1.0 - residual) * ok + np.sqrt(residual) * crossed)

    with pytest.raises(ResidualError):
        branch_all(leaking(2e-9), basis)
    branches = {br.label: br.probability for br in branch_all(leaking(5e-10), basis)}
    assert branches["ok"] == pytest.approx(1.0 - 5e-10, abs=1e-15)
    assert branches["fail"] == pytest.approx(0.0, abs=1e-15)


# sample ----------------------------------------------------------------------

def test_sample_frequencies_match_branch_all():
    state = reference_by_tag("spin_friend_t0").state
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
    state = reference_by_tag("coin_observer_t1").state
    basis = coin_lab_basis()
    seq1 = [sample(state, basis, np.random.default_rng(k))[0] for k in range(40)]
    seq2 = [sample(state, basis, np.random.default_rng(k))[0] for k in range(40)]
    assert seq1 == seq2


# condition_on ----------------------------------------------------------------

def test_condition_spin_observer_on_heard_ok():
    before = reference_by_tag("spin_observer_t2_secret").state
    expected = reference_by_tag("spin_observer_t2_heard_ok").state
    after = condition_on(before, record_basis(WBAR), "ok")
    assert equal_up_to_global_phase(after, expected, tol=1e-10)


def test_condition_external_on_heard_ok():
    before = reference_by_tag("external_t2_secret").state
    expected = reference_by_tag("external_t2_heard_ok").state
    after = condition_on(before, record_basis(WBAR), "ok")
    assert equal_up_to_global_phase(after, expected, tol=1e-10)


def test_condition_external_twice_reaches_product_state():
    heard = reference_by_tag("external_t2_heard_ok").state
    premeasured = premeasure(heard, spin_lab_basis(), W)
    after = condition_on(premeasured, record_basis(W), "ok")
    expected = reference_by_tag("external_t3_heard_ok_ok").state
    assert equal_up_to_global_phase(after, expected, tol=1e-10)


def test_condition_on_own_outcome_is_projector_fixed_point():
    state = reference_by_tag("coin_observer_t2_ok").state
    again = condition_on(state, coin_lab_basis(), "ok")
    assert abs(inner(again, state)) == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_conditioning_raises():
    state = reference_by_tag("spin_friend_t1_down").state
    with pytest.raises(InconsistentOutcomeError):
        condition_on(state, coin_lab_basis(), "ok")


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
            assert (outside > 0.05) == (basis.residual_dimension > 0)
            written = write(state)
            oracle = apply_unitary(state, basis.target_names + (memory.name,), u)
            np.testing.assert_allclose(written.amplitudes, oracle.amplitudes, atol=1e-14)
            assert abs(written.norm - 1.0) < 1e-12


def test_record_copy_commutes_with_source_measurement():
    state = reference_by_tag("spin_friend_t0").state  # S still superposed
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
    before = reference_by_tag("external_t1").state
    expected = reference_by_tag("external_t2_secret").state
    after = premeasure(before, coin_lab_basis(), WBAR)
    assert equal_up_to_global_phase(after, expected, tol=1e-10)


def test_premeasure_rejects_written_memory():
    state = reference_by_tag("external_t2_secret").state
    with pytest.raises(ValueError, match="ready"):
        premeasure(state, coin_lab_basis(), WBAR)


def test_outcome_probability_matches_branch_all():
    state = reference_by_tag("coin_observer_t1").state
    p = outcome_probability(state, coin_lab_basis(), "ok")
    assert p == pytest.approx(1.0 / 6.0, abs=1e-12)
