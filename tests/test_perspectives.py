import hashlib
import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from frsim import perspectives, protocol, reference
from frsim.analysis import enumerate_exact
from frsim.measurement import (
    READY,
    ZERO_PROBABILITY_ATOL,
    BasisError,
    InconsistentOutcomeError,
    _weight,
    condition_on,
    level_basis,
    outcome_probability,
    premeasure,
)
from frsim.perspectives import (
    AGENTS,
    AgentModel,
    GIVEN_LABELS,
    CertaintyVerdict,
    Given,
    PerspectiveLimit,
    agent_model_at,
    apply_announcement,
    certainty_query,
    known_system_names,
    standard_predictions,
)
from frsim.protocol import (
    ProtocolVariant,
    compiled_round,
    prefix_state,
    round_rng,
    run_round,
    schedule,
    state_after_preparation,
)
from frsim.reference import load_reference_states
from frsim.systems import (
    BY_NAME,
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
from frsim.tensor import StateVector, equal_up_to_global_phase
from golden_states import golden_state
from variants import ALL_NOTEBOOK_SETS, ALL_VARIANTS, variant_id

EXACT_ATOL = 1e-10

MODIFIED = ProtocolVariant(announce_wbar=False)
ORIGINAL = ProtocolVariant(announce_wbar=True)

REFERENCES = load_reference_states()


# The golden-state suite -------------------------------------------------------

@pytest.mark.parametrize("ref", REFERENCES, ids=lambda r: r.tag)
def test_reference_state_is_reproduced(ref):
    derived = agent_model_at(ref.agent, ref.time, ref.given, ref.variant).state
    assert equal_up_to_global_phase(derived, ref.state, tol=1e-10)


def test_reference_suite_covers_all_agents_and_variants():
    agents = {ref.agent for ref in REFERENCES}
    assert agents == {"Fbar", "F", "Wbar", "W", "C"}
    assert any(ref.variant.notebooks for ref in REFERENCES)
    assert any(ref.variant.announce_wbar for ref in REFERENCES)
    assert len(REFERENCES) >= 20


def test_a_reference_state_that_is_not_finite_is_rejected(monkeypatch):
    # A NaN norm once passed the loader's normalization check.
    monkeypatch.setitem(reference.COEFFICIENTS, "nan", float("nan"))
    term = {"coeff": "nan", "factors": {"R": "t", "S": "up"}}
    with pytest.raises(ValueError, match="not normalized"):
        reference._build_state(canonical_layout(("R", "S")), [term])


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
            agent_model_at(agent, time, given, variant)
    else:
        state = agent_model_at(agent, time, given, variant).state
        assert abs(state.norm - 1.0) < 1e-12


def test_missing_own_outcome_is_an_error_not_a_limit():
    with pytest.raises(ValueError, match="required"):
        agent_model_at("Fbar", 0, Given(), MODIFIED)
    with pytest.raises(ValueError, match="required"):
        agent_model_at("F", 1, Given(), MODIFIED)
    with pytest.raises(ValueError, match="required"):
        agent_model_at("Wbar", 2, Given(), MODIFIED)
    with pytest.raises(ValueError, match="required"):
        agent_model_at("W", 3, Given(wbar="ok"), MODIFIED)
    with pytest.raises(ValueError, match="required"):
        agent_model_at("C", 2, Given(), ORIGINAL)  # announced outcome not given


def test_modified_protocol_needs_no_heard_outcomes():
    state = agent_model_at("C", 3, Given(), MODIFIED).state
    expected = golden_state("external_t3_secret")
    assert equal_up_to_global_phase(state, expected, tol=1e-10)


def test_intrusion_after_ok_skips_w_in_the_agent_fold():
    for announce in (False, True):
        variant = ProtocolVariant(announce_wbar=announce, intrusion=True)
        at_t2 = agent_model_at("C", 2, Given(wbar="ok"), variant)
        at_t3 = agent_model_at("C", 3, Given(wbar="ok"), variant)
        assert at_t3.log == at_t2.log
        assert equal_up_to_global_phase(at_t3.state, at_t2.state, tol=1e-12)
        with pytest.raises(InconsistentOutcomeError, match="skipped once wbar=ok"):
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
    expected = golden_state("spin_observer_t2_heard_ok")
    assert equal_up_to_global_phase(updated.state, expected, tol=1e-10)
    assert updated.log[-1] == ("heard", "Wbar", "ok")


def test_apply_announcement_on_external_observer():
    model = agent_model_at("C", 2, Given(), MODIFIED)
    updated = apply_announcement(model, "Wbar", "ok")
    expected = golden_state("external_t2_heard_ok")
    assert equal_up_to_global_phase(updated.state, expected, tol=1e-10)


def test_announcing_a_certain_outcome_changes_nothing():
    model = agent_model_at("C", 2, Given(wbar="ok"), ORIGINAL)
    again = apply_announcement(model, "Wbar", "ok")
    assert abs(np.vdot(again.state.amplitudes, model.state.amplitudes)) == pytest.approx(
        1.0, abs=1e-12)


def test_inconsistent_announcement_raises():
    model = agent_model_at("F", 2, Given(s="down"), MODIFIED)
    # Spin down means the coin lab is surely in the fail state.
    with pytest.raises(InconsistentOutcomeError):
        apply_announcement(model, "Wbar", "ok")


def test_announcer_memory_must_be_modeled():
    model = agent_model_at("W", 1, Given(), MODIFIED)
    with pytest.raises(ValueError, match="memory"):
        apply_announcement(model, "W", "ok")


def test_an_unknown_announcer_is_rejected():
    model = agent_model_at("C", 2, Given(), MODIFIED)
    with pytest.raises(ValueError, match="unknown announcer 'Q'"):
        apply_announcement(model, "Q", "ok")


def test_a_layout_of_an_unknown_system_is_rejected():
    with pytest.raises(KeyError, match=r"unknown system names: \['Q'\]"):
        canonical_layout(("R", "Q"))


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
    for variant in ALL_VARIANTS:
        if variant.notebooks == notebooks:
            yield variant, ("C",) if variant.cheat else ("Wbar", "W", "C")


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
                # After an ok, the intrusion's direct spin reading replaces W's step.
                p = outcome_probability(model.state, spin_basis(), "up")
                expected = exact.conditional_intrusion("up")
            else:
                p = outcome_probability(model.state, spin_lab_basis(), "ok")
                expected = exact.conditional_w("ok", wbar)
            assert p == pytest.approx(expected, abs=EXACT_ATOL), (variant, agent)


# The standard prediction that reads each sampled outcome.
_PREDICTION_OF = {"wbar": "coin_lab", "w": "spin_lab", "intrusion": "S"}


def _heard_transcripts(variant):
    """Every (time, announced outcomes) C can stand at from t=1 on: nothing
    heard before t=2, wbar from t=2, and w from t=3 unless an ok led to the
    intrusion, which skips W's step."""
    yield 1, {}
    for wbar in GIVEN_LABELS["wbar"]:
        yield 2, {"wbar": wbar}
        if variant.intrusion and wbar == "ok":
            yield 3, {"wbar": wbar}
        else:
            for w in GIVEN_LABELS["w"]:
                yield 3, {"wbar": wbar, "w": w}


def _exact_conditional(exact, heard, field, label):
    """P(field = label | heard) from the exact joint over outcome keys."""
    entries = {key: p for key, p in exact.entries.items()
               if all(getattr(key, f) == value for f, value in heard.items())}
    given = sum(entries.values())
    joint = sum(p for key, p in entries.items() if getattr(key, field) == label)
    assert given > EXACT_ATOL, heard  # every announced transcript can happen
    return joint / given


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_external_observer_predicts_the_exact_conditionals(variant):
    # C hears every announcement; where the protocol keeps them secret it is
    # told them afterwards.  Each outcome the round is certain to produce
    # next, or has produced, is then predicted with the exact conditional
    # probability, the direct spin reading after an intrusion ok included.
    exact = enumerate_exact(variant)
    announcer = {step.outcome: step.memory.name for step in schedule(variant) if step.sampled}
    for time, heard in _heard_transcripts(variant):
        model = agent_model_at("C", time, Given(**heard), variant)
        if not variant.announce_wbar:
            for field, label in heard.items():
                model = apply_announcement(model, announcer[field], label)
        predictions = standard_predictions(model)
        ended_by_intrusion = variant.intrusion and heard.get("wbar") == "ok"
        reached = ["wbar", "intrusion" if ended_by_intrusion else "w"]
        if variant.intrusion and "wbar" not in heard:
            reached.remove("w")  # W measures only if no intrusion came first
        for field in reached:
            for label in GIVEN_LABELS[field]:
                expected = _exact_conditional(exact, heard, field, label)
                assert predictions[_PREDICTION_OF[field]][label] == pytest.approx(
                    expected, abs=EXACT_ATOL), (time, heard, field, label)


# Calibration at t=2: where an outside agent's prediction of the round's next
# sampled outcome, given Wbar's, differs from the outcome's true conditional
# probability.  (variant, agent, wbar) -> (predicted, true, reason).  Every row
# is a cheat variant whose agent models the coin lab without Fbar's notebook
# (Nbar).  With F's notebook too, the spin-lab predictions agree by
# coincidence; only the intrusion's reading tells the unaware agent apart.
_LAB_AFTER_OK = ("without Nbar, Wbar's ok projects the coin lab as if no record of r "
                 "existed: W's ok at 1/2, where the record leaves 1/6")
_LAB_AFTER_FAIL = ("without Nbar, Wbar's fail leaves W's ok at 1/10, where the record "
                   "leaves 1/6")
_UP_AFTER_OK = ("without Nbar, Wbar's ok certifies the spin up, the interaction-free "
                "detection's premise; the record of r leaves up at 1/3")
UNCALIBRATED_AT_T2 = {
    ("secret-Fbar-cheat", "Wbar", "ok"): (1 / 2, 1 / 6, _LAB_AFTER_OK),
    ("secret-Fbar-cheat", "Wbar", "fail"): (1 / 10, 1 / 6, _LAB_AFTER_FAIL),
    ("secret-Fbar-cheat-intrusion", "Wbar", "ok"): (1.0, 1 / 3, _UP_AFTER_OK),
    ("secret-Fbar-cheat-intrusion", "Wbar", "fail"): (1 / 10, 1 / 6, _LAB_AFTER_FAIL),
    ("announce-Fbar-cheat", "Wbar", "ok"): (1 / 2, 1 / 6, _LAB_AFTER_OK),
    ("announce-Fbar-cheat", "Wbar", "fail"): (1 / 10, 1 / 6, _LAB_AFTER_FAIL),
    ("announce-Fbar-cheat", "W", "ok"): (1 / 2, 1 / 6, _LAB_AFTER_OK),
    ("announce-Fbar-cheat", "W", "fail"): (1 / 10, 1 / 6, _LAB_AFTER_FAIL),
    ("announce-Fbar-cheat-intrusion", "Wbar", "ok"): (1.0, 1 / 3, _UP_AFTER_OK),
    ("announce-Fbar-cheat-intrusion", "Wbar", "fail"): (1 / 10, 1 / 6, _LAB_AFTER_FAIL),
    ("announce-Fbar-cheat-intrusion", "W", "ok"): (1.0, 1 / 3, _UP_AFTER_OK),
    ("announce-Fbar-cheat-intrusion", "W", "fail"): (1 / 10, 1 / 6, _LAB_AFTER_FAIL),
    ("secret-F+Fbar-cheat-intrusion", "Wbar", "ok"): (1.0, 1 / 3, _UP_AFTER_OK),
    ("announce-F+Fbar-cheat-intrusion", "Wbar", "ok"): (1.0, 1 / 3, _UP_AFTER_OK),
    ("announce-F+Fbar-cheat-intrusion", "W", "ok"): (1.0, 1 / 3, _UP_AFTER_OK),
}


def test_outside_agents_are_calibrated_at_t2_unless_their_model_misses_a_record():
    # Each outside agent who knows Wbar's outcome at t=2 (Wbar, and W and C
    # where it is announced) predicts the round's next sampled outcome: W's
    # spin-lab ok or, after an intrusion ok, the spin read up.  The friends are
    # out of scope: the superobservers' lab measurements do not read r or s,
    # so those have no true frequency to calibrate against.
    cases, uncalibrated = 0, {}
    for variant in ALL_VARIANTS:
        exact = enumerate_exact(variant)
        true_layout = set(known_system_names("C", variant))
        for agent in ("Wbar", "W", "C") if variant.announce_wbar else ("Wbar",):
            for wbar in GIVEN_LABELS["wbar"]:
                model = agent_model_at(agent, 2, Given(wbar=wbar), variant)
                predictions = standard_predictions(model)
                if variant.intrusion and wbar == "ok":
                    predicted, true = predictions["S"]["up"], exact.conditional_intrusion("up")
                else:
                    predicted = predictions["spin_lab"]["ok"]
                    true = exact.conditional_w("ok", wbar)
                cases += 1
                if abs(predicted - true) > EXACT_ATOL:
                    # A prediction disagrees only where the model lacks a system.
                    assert true_layout - {agent} - set(model.layout.names), (variant, agent)
                    uncalibrated[variant_id(variant), agent, wbar] = (predicted, true)
    assert cases == 96
    assert uncalibrated.keys() == UNCALIBRATED_AT_T2.keys()
    for case, (predicted, true) in uncalibrated.items():
        expected_predicted, expected_true, _reason = UNCALIBRATED_AT_T2[case]
        assert predicted == pytest.approx(expected_predicted, abs=EXACT_ATOL), case
        assert true == pytest.approx(expected_true, abs=EXACT_ATOL), case


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_agent_fold_reaches_the_steps_the_dynamics_reach(variant):
    # Each leaf of the compiled tree fills the outcomes of the sampled steps
    # the true dynamics reached.  Given those outcomes, C's fold at t=3 must
    # reach the same steps: it accepts every filled outcome, and rejects any
    # label for a sampled step the leaf leaves empty as a step not reached.
    sampled = {step.outcome for step in schedule(variant) if step.sampled}
    for key in compiled_round(variant).leaves:
        filled = {field: label for field, label in key._asdict().items() if label is not None}
        assert filled.keys() <= sampled, key
        agent_model_at("C", 3, Given(**filled), variant)
        for field in sampled - filled.keys():
            for label in GIVEN_LABELS[field]:
                with pytest.raises(InconsistentOutcomeError, match=f"no {field} outcome"):
                    agent_model_at("C", 3, Given(**filled, **{field: label}), variant)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_transcript_lists_what_the_announcing_protocol_hears(variant):
    # In the announcing protocol C's fold at t=3 hears exactly the
    # announcements a round's transcript lists, in order.  In the secret one
    # C hears nothing, while the transcript still lists W's t=3 announcement:
    # W still announces there, but no agent updates on hearsay.
    for key, announcements in compiled_round(variant).announcements.items():
        filled = {field: label for field, label in key._asdict().items() if label is not None}
        log = agent_model_at("C", 3, Given(**filled), variant).log
        heard = [(announcer, label) for kind, announcer, label in log if kind == "heard"]
        listed = [(announcer, label) for _, announcer, label in announcements]
        if variant.announce_wbar:
            assert listed == heard, key
        else:
            assert heard == [], key
            assert listed == ([] if key.w is None else [("W", key.w)]), key


REACH_DIGEST = json.loads((Path(__file__).parent / "data" / "reach_digest.json").read_text())


def _reach_lines():
    """One canonical line per input of the reach rule: C at t=3 and Wbar at
    t=2 under every combination of Given fields (each left out or set to one
    of its labels) in every variant, with the fold's log or its error; then
    the announcements of every leaf's transcript."""
    choices = [(None,) + labels for labels in GIVEN_LABELS.values()]
    for variant in ALL_VARIANTS:
        name = variant_id(variant)
        for agent, time in (("C", 3), ("Wbar", 2)):
            for labels in itertools.product(*choices):
                given = dict(zip(GIVEN_LABELS, labels))
                try:
                    result = agent_model_at(agent, time, Given(**given), variant).log
                except (PerspectiveLimit, InconsistentOutcomeError, ValueError) as exc:
                    result = (type(exc).__name__, str(exc))
                yield repr((name, agent, time, sorted(given.items()), result))
        for key, announcements in compiled_round(variant).announcements.items():
            yield repr((name, sorted(key._asdict().items()), announcements))


def test_reach_rule_keeps_every_verdict_and_announcement():
    # Which steps a transcript reaches decides each fold's log or error
    # message, and which announcements a round lists; one SHA-256 pins both
    # over every input.
    lines = list(_reach_lines())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (REACH_DIGEST["lines"], REACH_DIGEST["sha256"])


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
    expected = golden_state("coin_observer_t2_ok")
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


# The paper's inference chain ---------------------------------------------------

# Each link is one agent's certainty query in its own model:
# (agent, time, its own outcome, the queried basis and label).
CHAIN_LINKS = (
    ("Fbar", 1, Given(r="t"), spin_lab_basis(), "fail"),  # r=t => the spin lab reads fail
    ("F", 1, Given(s="up"), coin_basis(), "t"),  # s=up => the coin R = t
    ("Wbar", 2, Given(wbar="ok"), spin_basis(), "up"),  # wbar=ok => the spin S = up
)

# The three links' probabilities and P(wbar=ok, w=ok) without intrusion, by
# notebook set and cheat mode; the announcement changes none of them, and an
# intrusion sets P(ok, ok) to 0.
CHAIN_TABLE = {
    (frozenset(), False): (1, 1, 1, 1 / 12),
    (frozenset({"Fbar"}), False): (1, 1, 1 / 3, 1 / 12),
    (frozenset({"Fbar"}), True): (1, 1, 1, 1 / 12),
    (frozenset({"F"}), False): (1 / 2, 1, 1, 1 / 12),
    (frozenset({"Fbar", "F"}), False): (1 / 2, 1, 1 / 3, 1 / 4),
    (frozenset({"Fbar", "F"}), True): (1 / 2, 1, 1, 1 / 4),
}


def test_the_inference_chain_in_every_variant():
    certain = {}
    for variant in ALL_VARIANTS:
        *links, joint = CHAIN_TABLE[variant.notebooks, variant.cheat]
        for (agent, time, given, basis, label), expected in zip(CHAIN_LINKS, links):
            verdict = certainty_query(agent_model_at(agent, time, given, variant), basis, label)
            assert verdict.probability == pytest.approx(expected, abs=EXACT_ATOL), (
                agent, variant_id(variant))
            assert verdict.classification == ("certain-yes" if expected == 1 else "uncertain"), (
                agent, variant_id(variant), verdict)
            certain[agent, variant] = verdict.classification == "certain-yes"
        ok_ok = enumerate_exact(variant).joint_wbar_w("ok", "ok")
        assert ok_ok == pytest.approx(0 if variant.intrusion else joint, abs=EXACT_ATOL)

        # The argument's shape: a notebook that a link's agent models removes
        # that link's certainty, and every link holding still leaves (ok, ok)
        # possible.
        assert certain["Wbar", variant] == ("Nbar" not in known_system_names("Wbar", variant))
        assert certain["Fbar", variant] == ("F" not in variant.notebooks)
        assert certain["F", variant]
        if all(certain[agent, variant] for agent, *_ in CHAIN_LINKS) and not variant.intrusion:
            assert ok_ok > 0, variant_id(variant)

    # In an announcing cheat variant the unaware Wbar is certain of up, while
    # C, who heard ok and models the secret notebook, gives up 1/3: the rate
    # at which the intrusion twin reads up after ok.
    cheats = [variant for variant in ALL_VARIANTS if variant.announce_wbar and variant.cheat]
    for variant in cheats:
        assert certain["Wbar", variant]
        external = certainty_query(agent_model_at("C", 2, Given(wbar="ok"), variant),
                                   spin_basis(), "up")
        assert external.classification == "uncertain"
        assert external.probability == pytest.approx(1 / 3, abs=EXACT_ATOL)
        twin = replace(variant, intrusion=True)
        assert enumerate_exact(twin).conditional_intrusion("up") == pytest.approx(
            1 / 3, abs=EXACT_ATOL)
    assert len(certain) == 3 * 24 and len(cheats) == 4


# Every bit of every agent model ------------------------------------------------

AGENT_MODEL_DIGEST = json.loads(
    (Path(__file__).parent / "data" / "agent_model_digest.json").read_text())


def _known_fields(agent, time, variant):
    """The Given fields the agent holds at ``time``, each with the labels it
    can take: its own outcomes and, in the announcing protocol, the heard ones.
    The intrusion reading is the agent's to use, so it may also be left out."""
    fields = {}
    for step in schedule(variant):
        if step.outcome is None or step.time > time:
            continue
        own = step.memory.name == agent
        if own or step.heard:
            labels = GIVEN_LABELS[step.outcome]
            fields[step.outcome] = labels + (None,) if own and step.after is not None else labels
    return fields


def _sweep_inputs():
    """Every agent, t = 0..3 and Given the agent can hold, over all 24 variants."""
    for variant in ALL_VARIANTS:
        for agent, time in itertools.product(AGENTS, range(4)):
            fields = _known_fields(agent, time, variant)
            for labels in itertools.product(*fields.values()):
                yield agent, time, dict(zip(fields, labels)), variant


def _sweep_models():
    """(input, model) for each sweep input the fold accepts; the rest are skipped."""
    for agent, time, given, variant in _sweep_inputs():
        try:
            model = agent_model_at(agent, time, Given(**given), variant)
        except (PerspectiveLimit, InconsistentOutcomeError, ValueError):
            continue
        yield (agent, time, given, variant), model


def test_agent_models_keep_every_bit():
    # The amplitudes and the standard predictions go into one SHA-256 as
    # float.hex, next to the input they belong to.
    digest = hashlib.sha256()
    models = 0
    for (agent, time, given, variant), model in _sweep_models():
        models += 1
        name = (variant.announce_wbar, sorted(variant.notebooks), variant.cheat, variant.intrusion)
        digest.update(repr((name, agent, time, sorted(given.items()))).encode())
        for terms, amp in model.state.nonzero_terms():
            digest.update(repr((terms, amp.real.hex(), amp.imag.hex())).encode())
        for basis, dist in standard_predictions(model).items():
            digest.update(repr([(basis, label, p.hex()) for label, p in dist.items()]).encode())
    assert (models, digest.hexdigest()) == (
        AGENT_MODEL_DIGEST["models"], AGENT_MODEL_DIGEST["sha256"])


STANDARD_BASES = {"R": coin_basis(), "S": spin_basis(), "coin_lab": coin_lab_basis(),
                  "spin_lab": spin_lab_basis()}
STANDARD_BASES.update({name: level_basis(BY_NAME[name])
                       for name in ("Fbar", "F", "Nbar", "N", "Wbar", "W")})


def _differing_from_the_born_projection(model):
    """Each prediction that is not the very float projecting on its one outcome
    gives: level occupancies are read off |psi|**2 and lab outcomes projected."""
    differing = []
    predictions = standard_predictions(model)
    assert predictions.keys() == {
        name for name, basis in STANDARD_BASES.items()
        if all(target in model.layout for target in basis.target_names)}
    for name, dist in predictions.items():
        assert dist.keys() == set(STANDARD_BASES[name].labels())
        for label, p in dist.items():
            assert type(p) is float
            born = outcome_probability(model.state, STANDARD_BASES[name], label)
            if p != born:
                differing.append((name, label, p.hex(), born.hex()))
    return differing


def test_predictions_equal_the_born_projection_float_for_float():
    differing, models = [], 0
    for inputs, model in _sweep_models():
        models += 1
        differing += [(inputs, *entry) for entry in _differing_from_the_born_projection(model)]
    assert differing == []
    assert models == AGENT_MODEL_DIGEST["models"]


@pytest.mark.parametrize("ref", REFERENCES, ids=lambda r: r.tag)
def test_golden_model_predictions_equal_the_born_projection(ref):
    model = agent_model_at(ref.agent, ref.time, ref.given, ref.variant)
    assert _differing_from_the_born_projection(model) == []


# Layouts no agent of the protocol models: no R and S, or no superobservers.
@pytest.mark.parametrize("names", (("Nbar", "N", "W"), ("R", "Fbar", "S", "F"),
                                   ("Nbar", "Fbar", "N", "F", "Wbar", "W")),
                         ids="+".join)
def test_hand_built_model_predictions_equal_the_born_projection(names):
    # A random complex state, so that every term of every row sum counts.
    layout = canonical_layout(names)
    assert layout.names == names
    rng = np.random.default_rng(27)
    amplitudes = [1, 1j] @ rng.normal(size=(2, layout.total_dimension))
    state = StateVector(layout, amplitudes / np.linalg.norm(amplitudes))
    model = AgentModel(agent="C", layout=layout, state=state, log=())
    assert _differing_from_the_born_projection(model) == []


def test_level_predictions_match_a_plain_python_oracle():
    # Sums |amp|**2 by each system's level label straight off the nonzero
    # terms, so a wrong axis permutation cannot hide behind a shared plan.
    for inputs, model in _sweep_models():
        predictions = standard_predictions(model)
        terms = model.state.nonzero_terms()
        for axis, name in enumerate(model.layout.names):
            oracle = dict.fromkeys(BY_NAME[name].levels, 0.0)
            for labels, amp in terms:
                oracle[labels[axis]] += abs(amp) ** 2
            dist = predictions[name]
            assert dist.keys() == oracle.keys()
            for label, p in dist.items():
                assert abs(p - oracle[label]) <= 1e-12, (inputs, name, label, p, oracle[label])
            assert abs(sum(dist.values()) - 1.0) <= 1e-12, (inputs, name)


# Shared record-free prefixes ----------------------------------------------------

@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_external_observer_before_any_record_is_the_prepared_state(variant):
    # C applies every t=0,1 step, the secret notebook's copy included; each
    # side builds its prefix itself.
    prefix_state.cache_clear()
    model = agent_model_at("C", 1, Given(), variant)
    prefix_state.cache_clear()
    prepared = state_after_preparation(variant)
    assert model.layout.names == prepared.layout.names == variant.system_names()
    assert np.array_equal(model.state.amplitudes, prepared.amplitudes)


def test_shared_states_cannot_be_written():
    variant = ProtocolVariant(notebooks=frozenset({"Fbar", "F"}), cheat=True)
    layout = variant.layout()
    shared = (prefix_state(layout, ()), state_after_preparation(variant),
              agent_model_at("W", 1, Given(), variant).state)
    for state in shared:
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 0.0
    amplitudes = np.array(prefix_state(layout, ()).amplitudes)
    state = StateVector(layout, amplitudes)
    amplitudes[:] = 0.0
    assert np.array_equal(state.amplitudes, prefix_state(layout, ()).amplitudes)


def test_a_heard_first_fold_conditions_before_it_premeasures(monkeypatch):
    # An agent whose first own or heard read is a heard one starts from the
    # shared prefix through that read's premeasurement: with a warm cache its
    # fold conditions on the heard record before it premeasures anything.
    heard_first = [inputs for inputs, model in _sweep_models()
                   if model.log and model.log[0][0] == "heard"]
    events = []

    def recorded(event, call):
        def wrapper(*args):
            events.append(event)
            return call(*args)
        return wrapper

    monkeypatch.setattr(protocol, "premeasure", recorded("premeasure", protocol.premeasure))
    monkeypatch.setattr(perspectives, "condition_on",
                        recorded("condition", perspectives.condition_on))
    for agent, time, given, variant in heard_first:
        events.clear()
        agent_model_at(agent, time, Given(**given), variant)
        assert events[0] == "condition", (agent, time, given, variant_id(variant), events)
    assert len(heard_first) == 120


def _fold_result(agent, time, given, variant):
    """What ``agent_model_at`` gives: the model's bits, or the error's type and message."""
    try:
        model = agent_model_at(agent, time, Given(**given), variant)
    except (PerspectiveLimit, InconsistentOutcomeError, ValueError) as exc:
        return type(exc), str(exc)
    return model.layout.names, model.state.amplitudes.tobytes(), model.log


# One input for each way the fold fails; the sweep reaches only the first two.
_FAILING_INPUTS = (
    ("Fbar", 2, {"r": "t", "wbar": "ok"}, MODIFIED),  # a self-measurement
    ("F", 2, {"s": "down", "wbar": "ok"}, ORIGINAL),  # an announcement of zero probability
    ("W", 3, {"wbar": "ok"}, MODIFIED),  # the own outcome is missing
    ("C", 2, {}, ORIGINAL),  # the announced outcome is missing
)


# Reference rounds of every variant at fixed seeds: (variant, seed, round index).
_ROUND_INPUTS = tuple((variant, 13, k) for variant in ALL_VARIANTS for k in range(6))


def _round_result(variant, seed, k):
    return run_round(variant, round_rng(seed, k), k)


def test_agent_models_and_their_errors_do_not_depend_on_the_prefix_cache():
    # The reference rounds share the agents' prefixes too: they add no entry.
    inputs = list(_sweep_inputs()) + list(_FAILING_INPUTS)
    prefix_state.cache_clear()
    for variant in ALL_VARIANTS:
        state_after_preparation(variant)
    warm = [_fold_result(*args) for args in inputs]
    warm_rounds = [_round_result(*args) for args in _ROUND_INPUTS]
    info = prefix_state.cache_info()
    assert info.misses == info.currsize == 48 <= info.maxsize  # nothing was evicted
    # A premeasurement carries no read's flags, so a round's start does not
    # depend on whether Wbar's outcome is announced.
    for variant in ALL_VARIANTS:
        twin = replace(variant, announce_wbar=not variant.announce_wbar)
        assert prefix_state(*compiled_round(twin).start) is \
            prefix_state(*compiled_round(variant).start)
    assert [_fold_result(*args) for args in inputs] == warm
    assert [_round_result(*args) for args in _ROUND_INPUTS] == warm_rounds
    assert prefix_state.cache_info().misses == info.misses  # every prefix was a hit
    cold, cold_rounds = [], []
    for args in inputs:
        prefix_state.cache_clear()
        cold.append(_fold_result(*args))
    for args in _ROUND_INPUTS:
        prefix_state.cache_clear()
        cold_rounds.append(_round_result(*args))
    assert cold == warm
    assert cold_rounds == warm_rounds
    assert [result[0] for result in warm[-4:]] == [
        PerspectiveLimit, InconsistentOutcomeError, ValueError, ValueError]
    assert "own outcome" in warm[-2][1] and "announced" in warm[-1][1]


def test_a_cached_fold_plan_changes_no_error():
    # Every way agent_model_at fails, in the order it checks: the time, the
    # reach rule, a self-measurement, the agent's name (these four raise
    # before or inside the plan, which caches no error), then the fold's own
    # errors, which a repeat meets through the cached plan.
    intrusion = ProtocolVariant(intrusion=True)
    inputs = (
        ("W", 4, {}, ORIGINAL),
        ("F", 2, {"s": "up", "intrusion": "up"}, ORIGINAL),
        ("Wbar", 3, {"wbar": "ok", "w": "ok"}, intrusion),
        *_FAILING_INPUTS[:1],
        ("Nobody", 1, {}, ORIGINAL),
        *_FAILING_INPUTS[1:],
    )
    perspectives._fold_plan.cache_clear()
    first = [_fold_result(*args) for args in inputs]
    assert perspectives._fold_plan.cache_info().hits == 0
    assert [_fold_result(*args) for args in inputs] == first
    assert perspectives._fold_plan.cache_info().hits == 3  # the fold's own three
    assert [result[0] for result in first] == [
        ValueError, InconsistentOutcomeError, InconsistentOutcomeError, PerspectiveLimit,
        ValueError, InconsistentOutcomeError, ValueError, ValueError]
    assert "time must be" in first[0][1] and "unknown agent" in first[4][1]


# Every bit of every premeasurement ---------------------------------------------

def _full_cube_premeasure(state, basis, memory):
    """premeasure as it was written before it read only the memory's ready
    slice, verbatim but for its transpose plan, whose reshape and transpose
    are written out: the whole state as a (targets, memory, rest) cube, every
    memory level projected and swapped back."""
    layout = state.layout
    axes = [layout.axis(system.name) for system in basis.targets + (memory,)]
    perm = tuple(axes + [i for i in range(len(layout.systems)) if i not in axes])
    moved_dims = tuple(layout.dims[i] for i in perm)
    off_ready_levels, swaps = _record_swaps(memory, basis.labels())
    mat = state.amplitudes.reshape(layout.dims).transpose(perm).reshape(
        basis.target_dimension * memory.dimension, -1)
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
        projected = (outcome.vectors.T @ (outcome.bras @ targets)).reshape(cube.shape)
        residual -= projected
        result += projected[:, levels]
    result += residual

    return StateVector(state.layout, result.reshape(moved_dims).transpose(np.argsort(perm)))


def _record_swaps(memory, labels):
    """The full-cube oracle's helper, verbatim but for its cache."""
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


def _premeasure_result(write, state, basis, memory):
    """The nonzero amplitudes ``write`` gives, as float.hex, or its error's class."""
    try:
        amplitudes = write(state, basis, memory).amplitudes
    except (ValueError, KeyError) as exc:
        return type(exc)
    return [(int(i), amplitudes[i].real.hex(), amplitudes[i].imag.hex())
            for i in np.flatnonzero(amplitudes)]


def test_premeasure_by_index_matches_the_full_cube_bit_for_bit(monkeypatch):
    # Every premeasurement the 24 variants' prefixes, rounds and agent folds
    # make, recorded with a cold prefix cache; then each of the schedules'
    # (basis, memory) pairs on every golden state holding both.
    calls = {}

    def recording(state, basis, memory):
        calls.setdefault((state.layout, state.amplitudes.tobytes(), basis, memory),
                         (state, basis, memory))
        return premeasure(state, basis, memory)

    monkeypatch.setattr(protocol, "premeasure", recording)
    prefix_state.cache_clear()
    for variant in ALL_VARIANTS:
        for k in range(40):
            run_round(variant, round_rng(29, k), k)
    for args in _sweep_inputs():
        _fold_result(*args)
    monkeypatch.undo()
    layouts = {state.layout for state, _, _ in calls.values()}
    pairs = {(step.basis, step.memory) for variant in ALL_VARIANTS
             for step in schedule(variant) if step.basis is not None and step.after is None}
    inputs = list(calls.values())
    for ref in load_reference_states():
        inputs += [(ref.state, basis, memory) for basis, memory in pairs
                   if all(name in ref.state.layout for name in basis.target_names + (memory.name,))]
    fresh = prefix_state(ProtocolVariant().layout(), ())
    inputs.append((fresh, coin_lab_basis(), WBAR))  # every amplitude in the residual
    nan_memory = fresh.amplitudes.copy()
    nan_memory[np.flatnonzero(fresh.amplitudes)[0] + 1] = np.nan  # W's ok level
    inputs += [(StateVector(fresh.layout, nan_memory), spin_lab_basis(), W),
               (fresh, level_basis(BY_NAME["R"]), BY_NAME["F"])]  # F has no level t
    results = [(_premeasure_result(premeasure, *args),
                _premeasure_result(_full_cube_premeasure, *args)) for args in inputs]
    for (new, old), (state, basis, memory) in zip(results, inputs):
        assert new == old, (state.layout.names, basis.target_names, memory.name)
    errors = [new for new, _ in results if isinstance(new, type)]
    assert (len(layouts), len(calls), len(inputs)) == (20, 98, 183)
    # The NaN memory amplitude and the golden states whose memory is written
    # fail the ready check; F has no level for the coin's labels.
    assert (errors.count(ValueError), errors.count(BasisError), len(errors)) == (64, 1, 65)
