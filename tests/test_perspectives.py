import itertools

import pytest

from frsim.analysis import enumerate_exact
from frsim.measurement import InconsistentOutcomeError, condition_on, outcome_probability
from frsim.perspectives import (
    AGENTS,
    GIVEN_LABELS,
    CertaintyVerdict,
    Given,
    PerspectiveLimit,
    agent_model_at,
    agent_state_at,
    apply_announcement,
    certainty_query,
    known_system_names,
    standard_predictions,
)
from frsim.protocol import ProtocolVariant
from frsim.reference import load_reference_states, reference_by_tag
from frsim.systems import N, NBAR, WBAR, coin_lab_basis, record_basis, spin_basis, spin_lab_basis
from frsim.tensor import equal_up_to_global_phase, inner

EXACT_ATOL = 1e-10

MODIFIED = ProtocolVariant(announce_wbar=False)
ORIGINAL = ProtocolVariant(announce_wbar=True)

ALL_NOTEBOOK_SETS = (
    frozenset(),
    frozenset({"Fbar"}),
    frozenset({"F"}),
    frozenset({"Fbar", "F"}),
)

REFERENCES = load_reference_states()


# The golden-state suite -------------------------------------------------------

@pytest.mark.parametrize("ref", REFERENCES, ids=lambda r: r.tag)
def test_reference_state_is_reproduced(ref):
    derived = agent_state_at(ref.agent, ref.time, ref.given, ref.variant)
    assert equal_up_to_global_phase(derived, ref.state, tol=1e-10)


def test_reference_suite_covers_all_agents_and_variants():
    agents = {ref.agent for ref in REFERENCES}
    assert agents == {"Fbar", "F", "Wbar", "W", "C"}
    assert any(ref.variant.notebooks for ref in REFERENCES)
    assert any(ref.variant.announce_wbar for ref in REFERENCES)
    assert len(REFERENCES) >= 20


# Perspective limits -----------------------------------------------------------

def _given_for(agent, time):
    return Given(
        r="t",
        s="up",
        wbar="ok" if time >= 2 else None,
        w="ok" if time >= 3 else None,
    )


@pytest.mark.parametrize("agent", AGENTS)
@pytest.mark.parametrize("time", (0, 1, 2, 3))
@pytest.mark.parametrize("announce", (False, True))
def test_perspective_limits_are_exactly_the_self_measurements(agent, time, announce):
    variant = ProtocolVariant(announce_wbar=announce)
    should_fail = (agent == "Fbar" and time >= 2) or (agent == "F" and time >= 3)
    given = _given_for(agent, time)
    if should_fail:
        with pytest.raises(PerspectiveLimit):
            agent_state_at(agent, time, given, variant)
    else:
        state = agent_state_at(agent, time, given, variant)
        assert abs(state.norm - 1.0) < 1e-12


def test_missing_own_outcome_is_an_error_not_a_limit():
    with pytest.raises(ValueError, match="required"):
        agent_state_at("Fbar", 0, Given(), MODIFIED)
    with pytest.raises(ValueError, match="required"):
        agent_state_at("F", 1, Given(), MODIFIED)
    with pytest.raises(ValueError, match="required"):
        agent_state_at("Wbar", 2, Given(), MODIFIED)
    with pytest.raises(ValueError, match="required"):
        agent_state_at("W", 3, Given(wbar="ok"), MODIFIED)
    with pytest.raises(ValueError, match="required"):
        agent_state_at("C", 2, Given(), ORIGINAL)  # announced outcome not given


def test_modified_protocol_needs_no_heard_outcomes():
    state = agent_state_at("C", 3, Given(), MODIFIED)
    expected = reference_by_tag("external_t3_secret").state
    assert equal_up_to_global_phase(state, expected, tol=1e-10)


def test_intrusion_after_ok_ends_the_round_in_the_agent_fold():
    for announce in (False, True):
        variant = ProtocolVariant(announce_wbar=announce, intrusion=True)
        at_t2 = agent_model_at("C", 2, Given(wbar="ok"), variant)
        at_t3 = agent_model_at("C", 3, Given(wbar="ok"), variant)
        assert at_t3.log == at_t2.log
        assert equal_up_to_global_phase(at_t3.state, at_t2.state, tol=1e-12)
        with pytest.raises(InconsistentOutcomeError):
            agent_model_at("C", 3, Given(wbar="ok", w="fail"), variant)


def test_intrusion_outcome_without_an_intrusion_is_inconsistent():
    intrusion = ProtocolVariant(intrusion=True)
    with pytest.raises(InconsistentOutcomeError, match="only after wbar=ok"):
        agent_model_at("Wbar", 2, Given(wbar="fail", intrusion="up"), intrusion)
    with pytest.raises(InconsistentOutcomeError, match="no step of this variant"):
        agent_model_at("Wbar", 2, Given(wbar="ok", intrusion="down"), ProtocolVariant())
    # Without wbar the intrusion reading contradicts nothing given.
    assert agent_model_at("C", 1, Given(intrusion="up"), intrusion).log == ()


def test_given_rejects_labels_its_steps_cannot_write():
    for field in GIVEN_LABELS:
        with pytest.raises(ValueError, match=f"{field} must be one of"):
            Given(**{field: "maybe"})


# Announcement updates ---------------------------------------------------------

def test_apply_announcement_conditions_the_model():
    model = agent_model_at("W", 2, Given(), MODIFIED)
    updated = apply_announcement(model, "Wbar", "ok")
    expected = reference_by_tag("spin_observer_t2_heard_ok").state
    assert equal_up_to_global_phase(updated.state, expected, tol=1e-10)
    assert updated.log[-1] == ("heard", "Wbar", "ok")


def test_apply_announcement_on_external_observer():
    model = agent_model_at("C", 2, Given(), MODIFIED)
    updated = apply_announcement(model, "Wbar", "ok")
    expected = reference_by_tag("external_t2_heard_ok").state
    assert equal_up_to_global_phase(updated.state, expected, tol=1e-10)


def test_announcing_a_certain_outcome_changes_nothing():
    model = agent_model_at("C", 2, Given(wbar="ok"), ORIGINAL)
    again = apply_announcement(model, "Wbar", "ok")
    assert abs(inner(again.state, model.state)) == pytest.approx(1.0, abs=1e-12)


def test_inconsistent_announcement_raises():
    model = agent_model_at("F", 2, Given(s="down"), MODIFIED)
    # Spin down means the coin lab is surely in the fail state.
    with pytest.raises(InconsistentOutcomeError):
        apply_announcement(model, "Wbar", "ok")


def test_announcer_memory_must_be_modeled():
    model = agent_model_at("W", 1, Given(), MODIFIED)
    with pytest.raises(ValueError, match="memory"):
        apply_announcement(model, "W", "ok")


# Certainty queries -------------------------------------------------------------

def test_spin_friend_is_certain_of_the_coin_notebook_entry():
    variant = ProtocolVariant(announce_wbar=False, notebooks=frozenset({"Fbar"}))
    model = agent_model_at("F", 1, Given(s="up"), variant)
    verdict = certainty_query(model, record_basis(NBAR), "t")
    assert verdict.classification == "certain-yes"
    assert verdict.probability == pytest.approx(1.0, abs=EXACT_ATOL)


def test_spin_friend_certainty_holds_with_both_notebooks():
    variant = ProtocolVariant(announce_wbar=False, notebooks=frozenset({"Fbar", "F"}))
    model = agent_model_at("F", 1, Given(s="up"), variant)
    assert certainty_query(model, record_basis(NBAR), "t").classification == "certain-yes"


def test_coin_observer_cannot_be_certain_of_spin_notebook():
    variant = ProtocolVariant(announce_wbar=False, notebooks=frozenset({"Fbar", "F"}))
    model = agent_model_at("Wbar", 2, Given(wbar="ok"), variant)
    verdict = certainty_query(model, record_basis(N), "up")
    assert verdict.classification == "uncertain"
    assert verdict.probability == pytest.approx(1.0 / 3.0, abs=EXACT_ATOL)


def test_coin_observer_is_certain_of_spin_without_records():
    model = agent_model_at("Wbar", 2, Given(wbar="ok"), MODIFIED)
    verdict = certainty_query(model, spin_basis(), "up")
    assert verdict.classification == "certain-yes"


def test_coin_observer_is_certain_with_only_spin_notebook():
    variant = ProtocolVariant(announce_wbar=False, notebooks=frozenset({"F"}))
    model = agent_model_at("Wbar", 2, Given(wbar="ok"), variant)
    verdict = certainty_query(model, record_basis(N), "up")
    assert verdict.classification == "certain-yes"
    assert verdict.probability == pytest.approx(1.0, abs=EXACT_ATOL)


def test_certainty_classification_thresholds():
    assert CertaintyVerdict.from_probability(1.0).classification == "certain-yes"
    assert CertaintyVerdict.from_probability(1.0 - 1e-12).classification == "certain-yes"
    assert CertaintyVerdict.from_probability(0.0).classification == "certain-no"
    assert CertaintyVerdict.from_probability(0.3).classification == "uncertain"


# The headline predictions -------------------------------------------------------

def test_spin_friend_expects_ok_with_probability_one_sixth():
    model = agent_model_at("F", 0, Given(), MODIFIED)
    p = outcome_probability(model.state, coin_lab_basis(), "ok")
    assert p == pytest.approx(1.0 / 6.0, abs=EXACT_ATOL)


def test_coin_observer_expectations():
    before = agent_model_at("Wbar", 1, Given(), MODIFIED)
    assert outcome_probability(before.state, coin_lab_basis(), "ok") == pytest.approx(
        1 / 6, abs=EXACT_ATOL
    )
    after = agent_model_at("Wbar", 2, Given(wbar="ok"), MODIFIED)
    assert outcome_probability(after.state, spin_lab_basis(), "ok") == pytest.approx(
        1 / 2, abs=EXACT_ATOL
    )


def test_spin_observer_expectations():
    model = agent_model_at("W", 1, Given(), MODIFIED)
    p_ok = outcome_probability(model.state, coin_lab_basis(), "ok")
    assert p_ok == pytest.approx(1 / 6, abs=EXACT_ATOL)
    # Joint: halve along his own lab after conditioning on the coin lab.
    conditioned = condition_on(model.state, coin_lab_basis(), "ok")
    p_joint = p_ok * outcome_probability(conditioned, spin_lab_basis(), "ok")
    assert p_joint == pytest.approx(1 / 12, abs=EXACT_ATOL)


def test_external_observer_matches_spin_observer():
    model = agent_model_at("C", 1, Given(), MODIFIED)
    assert outcome_probability(model.state, coin_lab_basis(), "ok") == pytest.approx(
        1 / 6, abs=EXACT_ATOL
    )


@pytest.mark.parametrize("agent", ("Wbar", "W", "C"))
def test_after_announcement_everyone_expects_ok_with_probability_half(agent):
    model = agent_model_at(agent, 2, Given(wbar="ok"), ORIGINAL)
    predictions = standard_predictions(model)
    assert predictions["spin_lab"]["ok"] == pytest.approx(0.5, abs=EXACT_ATOL)


def test_coin_friend_has_no_lab_prediction():
    model = agent_model_at("Fbar", 1, Given(r="t"), MODIFIED)
    predictions = standard_predictions(model)
    assert "coin_lab" not in predictions  # her own lab is not in her model
    assert predictions["spin_lab"]["fail"] == pytest.approx(1.0, abs=EXACT_ATOL)


# Perspective consistency against the exact oracle ------------------------------

def _variants_with_full_models(notebooks):
    """Each valid variant with these notebooks, with the agents whose models
    hold every physical record: the three observers, or under cheat only C."""
    for announce, cheat, intrusion in itertools.product((False, True), repeat=3):
        if cheat and "Fbar" not in notebooks:
            continue
        variant = ProtocolVariant(announce_wbar=announce, notebooks=notebooks, cheat=cheat,
                                  intrusion=intrusion)
        yield variant, ("C",) if cheat else ("Wbar", "W", "C")


@pytest.mark.parametrize("notebooks", ALL_NOTEBOOK_SETS)
def test_agents_match_exact_marginal_before_measurement(notebooks):
    for variant, agents in _variants_with_full_models(notebooks):
        exact = enumerate_exact(variant)
        for agent in agents:
            model = agent_model_at(agent, 1, Given(), variant)
            p = outcome_probability(model.state, coin_lab_basis(), "ok")
            assert p == pytest.approx(exact.marginal_wbar("ok"), abs=EXACT_ATOL)


@pytest.mark.parametrize("notebooks", ALL_NOTEBOOK_SETS)
@pytest.mark.parametrize("wbar", ("ok", "fail"))
def test_agents_match_exact_conditional_after_measurement(notebooks, wbar):
    for variant, agents in _variants_with_full_models(notebooks):
        exact = enumerate_exact(variant)
        for agent in agents:
            model = agent_model_at(agent, 2, Given(wbar=wbar), variant)
            if agent != "Wbar" and not variant.announce_wbar:
                model = apply_announcement(model, "Wbar", wbar)  # learn the secret outcome
            if variant.intrusion and wbar == "ok":
                # An ok ends the round with the intrusion's direct spin reading.
                p = outcome_probability(model.state, spin_basis(), "up")
                expected = exact.conditional_intrusion("up")
            else:
                p = outcome_probability(model.state, spin_lab_basis(), "ok")
                expected = exact.conditional_w("ok", wbar)
            assert p == pytest.approx(expected, abs=EXACT_ATOL), (variant, agent)


# Cheat mode ---------------------------------------------------------------------

def test_cheating_hides_the_notebook_from_other_models():
    cheat = ProtocolVariant(
        announce_wbar=False, notebooks=frozenset({"Fbar"}), cheat=True, intrusion=True
    )
    assert "Nbar" not in known_system_names("Wbar", cheat)
    assert "Nbar" not in known_system_names("F", cheat)
    assert "Nbar" in known_system_names("C", cheat)
    assert "Nbar" in known_system_names("Fbar", cheat)


def test_cheated_observer_predicts_up_but_truth_is_one_third():
    cheat = ProtocolVariant(
        announce_wbar=False, notebooks=frozenset({"Fbar"}), cheat=True, intrusion=True
    )
    model = agent_model_at("Wbar", 2, Given(wbar="ok"), cheat)
    # His model omits the secret notebook, so it equals the record-free state.
    expected = reference_by_tag("coin_observer_t2_ok").state
    assert equal_up_to_global_phase(model.state, expected, tol=1e-10)
    assert certainty_query(model, spin_basis(), "up").classification == "certain-yes"
    # The true dynamics include the record.
    exact = enumerate_exact(cheat)
    assert exact.conditional_intrusion("up") == pytest.approx(1 / 3, abs=EXACT_ATOL)


def test_external_observer_sees_the_record_in_cheat_mode():
    cheat = ProtocolVariant(
        announce_wbar=False, notebooks=frozenset({"Fbar"}), cheat=True, intrusion=True
    )
    model = agent_model_at("C", 2, Given(), cheat)
    assert "Nbar" in model.layout.names
    # Conditioned on the coin lab reporting ok, the spin is up only 1/3 of the time.
    conditioned = condition_on(model.state, record_basis(WBAR), "ok")
    p_up = outcome_probability(conditioned, spin_basis(), "up")
    assert p_up == pytest.approx(1 / 3, abs=EXACT_ATOL)


def test_own_outcome_enters_log_like_an_announcement():
    model = agent_model_at("Wbar", 2, Given(wbar="ok"), MODIFIED)
    assert ("own", "coin_lab", "ok") in model.log
    heard = agent_model_at("C", 2, Given(wbar="ok"), ORIGINAL)
    assert ("heard", "Wbar", "ok") in heard.log
