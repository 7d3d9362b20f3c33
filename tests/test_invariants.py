"""The one check of every physical invariant, and each site that calls it.

``tensor.require`` decides whether a value passes its tolerance.  Its table
test puts a value at the limit, one ulp on either side, at NaN and at ±inf,
for each of the four comparisons the sites name.  Each of the twelve sites
then raises its documented class, with its message, just past its own
tolerance, and passes just inside it.  Each value lies between the site's
tolerance and the nearest other entry of the table, so a site that read
another entry would fail one of the two.
"""

from operator import ge, gt, le, lt

import numpy as np
import pytest

from frsim import measurement, reference
from frsim.measurement import (
    BasisError,
    InconsistentOutcomeError,
    MeasurementBasis,
    NormalizationError,
    ResidualError,
    SubspaceOutcome,
    branch_all,
    condition_on,
    premeasure,
    sample,
)
from frsim.protocol import JointDistribution
from frsim.systems import (NBAR, R, READY, WBAR, canonical_layout, coin_basis, level_basis,
                           record_basis)
from frsim.tensor import (
    RegisterLayout,
    StateVector,
    UnitarityError,
    apply_unitary,
    equal_up_to_global_phase,
    product_state,
    require,
)

LIMIT = 1e-9
BELOW, ABOVE = np.nextafter(LIMIT, 0.0), np.nextafter(LIMIT, 1.0)
INF, NAN = float("inf"), float("nan")
VALUES = (LIMIT, BELOW, ABOVE, NAN, INF, -INF)
PASSES = {  # which of VALUES pass, in their order
    le: (True, True, False, False, False, True),
    lt: (False, True, False, False, False, True),
    ge: (True, False, True, False, True, False),
    gt: (False, False, True, False, True, False),
}


class Broken(RuntimeError):
    pass


@pytest.mark.parametrize("compare", PASSES, ids=lambda compare: compare.__name__)
@pytest.mark.parametrize("index", range(len(VALUES)), ids=("at", "ulp-below", "ulp-above", "nan",
                                                            "inf", "-inf"))
def test_require_passes_only_the_good_side_of_its_limit(compare, index):
    value, calls = VALUES[index], []

    def message():
        calls.append(value)
        return f"value {value} failed"

    if PASSES[compare][index]:
        assert require(value, compare, LIMIT, Broken, message) is value
        assert calls == []  # a passing check formats nothing
    else:
        with pytest.raises(Broken) as raised:
            require(value, compare, LIMIT, Broken, message)
        assert type(raised.value) is Broken and str(raised.value) == f"value {value} failed"
        assert len(calls) == 1


# The twelve sites --------------------------------------------------------------

QUBIT = RegisterLayout((R,))
T = product_state(QUBIT, {"R": "t"})
KEY, OTHER = ("ok", "ok", None), ("fail", "fail", None)


def _coin(t, h):
    return StateVector(QUBIT, [t, h])


def _leaking(residual):
    """|ok> of a written memory with ``residual`` of its probability left on ready."""
    return StateVector(RegisterLayout((WBAR,)),
                       np.sqrt(residual) * WBAR.ket(READY) + np.sqrt(1 - residual) * WBAR.ket("ok"))


def _off_ready(weight):
    """|t, ready> with ``weight`` of its probability on the memory level h."""
    layout = RegisterLayout((R, NBAR))
    assert layout.basis_label(2) == ("t", "h")
    amplitudes = np.zeros(layout.total_dimension)
    amplitudes[[0, 2]] = np.sqrt(1 - weight), np.sqrt(weight)
    return premeasure(StateVector(layout, amplitudes), level_basis(R), NBAR)


def _reference_state(coefficient):
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(reference.COEFFICIENTS, "c", coefficient)
        return reference._build_state(canonical_layout(("R", "S")),
                                      [{"coeff": "c", "factors": {"R": "t", "S": "up"}}])


def _basis(t, h):
    return MeasurementBasis((R,), (SubspaceOutcome("t", t), SubspaceOutcome("h", h)))


# (site, past its tolerance, the error, its message, just inside the tolerance)
SITES = (
    ("factor-norm",
     lambda: product_state(QUBIT, {"R": [1 + 2e-9, 0]}), ValueError,
     "factor for system 'R' is not normalized",
     lambda: product_state(QUBIT, {"R": [1 + 5e-10, 0]})),
    ("phase-blind-norm",
     lambda: equal_up_to_global_phase(T, _coin(1 + 5e-10, 0)), ValueError,
     "second state is not normalized (norm 1.0000000005)",
     lambda: equal_up_to_global_phase(_coin(1 + 5e-11, 0), T)),
    ("unitarity",
     lambda: apply_unitary(T, ("R",), np.diag([1.0, 1.0 + 1e-11])), UnitarityError,
     "matrix is not unitary: |U^dagger U - 1| reaches 2.000e-11",
     lambda: apply_unitary(T, ("R",), np.diag([1.0, 1.0 + 4e-13]))),
    ("basis-norm",
     lambda: _basis([1 + 1e-11, 0], [0, 1]), BasisError, "outcome vector 0 is not normalized",
     lambda: _basis([1 + 4e-13, 0], [0, 1])),
    ("basis-orthogonality",
     lambda: _basis([1, 0], [1e-11, 1]), BasisError, "outcome vectors 0 and 1 are not orthogonal",
     lambda: _basis([1, 0], [5e-13, 1])),
    ("residual",
     lambda: branch_all(_leaking(2e-9), record_basis(WBAR)), ResidualError,
     "residual outcome on ('Wbar',) has probability 2.000e-09 under a forbid policy",
     lambda: branch_all(_leaking(5e-10), record_basis(WBAR))),
    ("total",
     lambda: branch_all(_coin(1, 2**-18), coin_basis()), NormalizationError,
     "outcome probabilities on ('R',) and their residual sum to 1.000000000014552, not 1",
     lambda: branch_all(_coin(1, 2**-21), coin_basis())),
    ("zero-probability",
     lambda: condition_on(_coin(np.sqrt(1 - 1e-14), 1e-7), coin_basis(), "h"),
     InconsistentOutcomeError,
     "outcome 'h' on ('R',) has probability 1.000e-14; conditioning on it is inconsistent",
     lambda: condition_on(_coin(np.sqrt(1 - 1e-11), np.sqrt(1e-11)), coin_basis(), "h")),
    ("ready",
     lambda: _off_ready(1e-11), ValueError,
     "memory 'Nbar' is not in its ready state (off-ready probability 1.000e-11)",
     lambda: _off_ready(5e-13)),
    ("distribution-entry",
     lambda: JointDistribution({KEY: -5e-10, OTHER: 1 + 5e-10}), ValueError,
     "probability -5e-10 for ('ok', 'ok', None) is negative or not a number",
     lambda: JointDistribution({KEY: -5e-11, OTHER: 1 + 5e-11})),
    ("distribution-total",
     lambda: JointDistribution({KEY: 1 + 5e-10}), ValueError,
     "probabilities sum to 1.0000000005, not 1",
     lambda: JointDistribution({KEY: 1 + 5e-11})),
    ("reference-norm",
     lambda: _reference_state(1 + 1e-11), ValueError,
     "reference state is not normalized (norm 1.00000000001)",
     lambda: _reference_state(1 + 5e-13)),
)
SITE_IDS = [site[0] for site in SITES]


@pytest.mark.parametrize("past, error, message", [site[1:4] for site in SITES], ids=SITE_IDS)
def test_each_site_raises_its_class_past_its_tolerance(past, error, message):
    with pytest.raises(error) as raised:
        past()
    assert type(raised.value) is error and str(raised.value) == message


@pytest.mark.parametrize("inside", [site[4] for site in SITES], ids=SITE_IDS)
def test_each_site_passes_inside_its_tolerance(inside):
    inside()


# A NaN or an infinity keeps the class it had, so the CLI's exit code -------------

@pytest.mark.parametrize("amplitudes, label, error, message", (
    ([1, NAN], "t", NormalizationError,
     "outcome probabilities on ('R',) and their residual sum to nan, not 1"),
    ([1, NAN], "h", InconsistentOutcomeError,
     "outcome 'h' on ('R',) has probability nan; conditioning on it is inconsistent"),
    ([INF, 0], "t", NormalizationError,
     "outcome probabilities on ('R',) and their residual sum to inf, not 1"),
    ([INF, 0], "h", InconsistentOutcomeError,
     "outcome 'h' on ('R',) has probability 0.000e+00; conditioning on it is inconsistent"),
), ids=("nan-elsewhere", "nan-on-the-outcome", "inf-on-the-outcome", "inf-elsewhere"))
def test_conditioning_on_a_state_that_is_not_finite(amplitudes, label, error, message):
    # A NaN or an infinity on the outcome asked for fails or passes the
    # zero-probability check as such a probability does; one elsewhere
    # reaches only the total, which fails the normalization check.
    with pytest.raises(error) as raised:
        condition_on(StateVector(canonical_layout(["R"]), amplitudes), coin_basis(), label)
    assert type(raised.value) is error and str(raised.value) == message


# The two boundaries -------------------------------------------------------------

def test_a_residual_at_exactly_its_tolerance_raises(monkeypatch):
    # Near 1e-9 a residual is the difference of two sums near 1, so a multiple
    # of 2**-53, and none equals RESIDUAL_TOL: the tolerance is set to this
    # state's own residual instead, as measurement reads it.
    state, basis = _leaking(2e-9), record_basis(WBAR)
    probabilities, total_of, _ = measurement._read(state, basis)
    residual = total_of() - sum(probabilities)
    monkeypatch.setattr(measurement, "RESIDUAL_TOL", residual)
    for measure in (branch_all, lambda s, b: sample(s, b, np.random.default_rng(0))):
        with pytest.raises(ResidualError):
            measure(state, basis)
    monkeypatch.setattr(measurement, "RESIDUAL_TOL", np.nextafter(residual, 1.0))
    assert [b.label for b in branch_all(state, basis)] == ["ok"]


def test_conditioning_at_exactly_the_zero_probability_tolerance_raises():
    state = _coin(np.sqrt(1 - 1e-12), 1e-6)
    probabilities, _, _ = measurement._read(state, coin_basis(), "h")
    assert probabilities == [measurement.ZERO_PROBABILITY_ATOL]
    with pytest.raises(InconsistentOutcomeError, match="probability 1.000e-12"):
        condition_on(state, coin_basis(), "h")
