import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frsim.measurement import branch_all, condition_on
from frsim.protocol import (
    ProtocolConfig,
    ProtocolVariant,
    RoundSampler,
    _at,
    _fold,
    compiled_round,
    initial_state,
    round_rng,
    round_uniforms,
    run_round,
    run_until_halt,
    state_after_preparation,
    stream_uniforms,
)
from frsim.reference import reference_by_tag
from frsim.systems import coin_basis, coin_lab_basis, spin_basis
from frsim.tensor import equal_up_to_global_phase

NONE = ProtocolVariant(announce_wbar=False)
BOTH = ProtocolVariant(announce_wbar=False, notebooks=frozenset({"Fbar", "F"}))

ALL_NOTEBOOK_SETS = (
    frozenset(),
    frozenset({"Fbar"}),
    frozenset({"F"}),
    frozenset({"Fbar", "F"}),
)

ALL_VARIANTS = tuple(
    ProtocolVariant(announce_wbar=announce, notebooks=notebooks, cheat=cheat, intrusion=intrusion)
    for announce in (True, False)
    for notebooks in ALL_NOTEBOOK_SETS
    for cheat in (False, True)
    for intrusion in (False, True)
    if not cheat or "Fbar" in notebooks
)


def test_variant_validation():
    with pytest.raises(ValueError):
        ProtocolVariant(notebooks=frozenset({"Wbar"}))
    with pytest.raises(ValueError):
        ProtocolVariant(cheat=True)  # needs the coin friend's notebook
    ProtocolVariant(cheat=True, notebooks=frozenset({"Fbar"}))


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(variant=NONE, max_rounds=0)
    with pytest.raises(ValueError, match="seed"):
        ProtocolConfig(variant=NONE, seed=-1)


def test_initial_state_layouts():
    assert NONE.system_names() == ("R", "Fbar", "S", "F", "Wbar", "W")
    assert BOTH.system_names() == ("Nbar", "R", "Fbar", "N", "S", "F", "Wbar", "W")
    state = initial_state(NONE)
    terms = dict(state.nonzero_terms())
    assert terms[("t", "ready", "down", "ready", "ready", "ready")] == pytest.approx(
        np.sqrt(2.0 / 3.0)
    )
    assert terms[("h", "ready", "down", "ready", "ready", "ready")] == pytest.approx(
        np.sqrt(1.0 / 3.0)
    )
    assert abs(state.norm - 1.0) < 1e-12
    both = initial_state(BOTH)
    assert abs(both.norm - 1.0) < 1e-12
    for labels, _ in both.nonzero_terms():
        by_name = dict(zip(both.layout.names, labels))
        assert by_name["Nbar"] == "ready" and by_name["N"] == "ready"


def test_t0_head_branch_prepares_spin_down():
    state, _ = _fold(initial_state(NONE), _at(NONE, 0))
    head = condition_on(state, coin_basis(), "h")
    spin = {b.label: b.probability for b in branch_all(head, spin_basis())}
    assert spin["down"] == pytest.approx(1.0, abs=1e-12)


def test_t0_correlates_coin_friend_and_notebook():
    variant = ProtocolVariant(announce_wbar=False, notebooks=frozenset({"Fbar"}))
    state, _ = _fold(initial_state(variant), _at(variant, 0))
    for labels, _ in state.nonzero_terms():
        by_name = dict(zip(state.layout.names, labels))
        assert by_name["Nbar"] == by_name["R"] == by_name["Fbar"]


def test_state_after_preparation_matches_external_description():
    state = state_after_preparation(NONE)
    expected = reference_by_tag("external_t1").state
    assert equal_up_to_global_phase(state, expected, tol=1e-10)


def test_state_after_preparation_with_both_notebooks():
    state = state_after_preparation(BOTH)
    terms = dict(state.nonzero_terms())
    one_over_sqrt3 = 1.0 / np.sqrt(3.0)
    assert len(terms) == 3
    for labels, amp in terms.items():
        by_name = dict(zip(state.layout.names, labels))
        assert by_name["Nbar"] == by_name["R"] == by_name["Fbar"]
        assert by_name["N"] == by_name["S"] == by_name["F"]
        assert amp.real == pytest.approx(one_over_sqrt3, abs=1e-12)
    lab = {b.label: b.probability for b in branch_all(state, coin_lab_basis())}
    assert lab["ok"] == pytest.approx(0.5, abs=1e-12)


# Every nonzero amplitude of the 24 prepared states as float.hex: the
# records that premeasure writes at t=0..1 must keep each bit.
PREPARED_STATE_BITS = json.loads(
    (Path(__file__).parent / "data" / "prepared_state_bits.json").read_text())


@pytest.mark.parametrize(
    "row", PREPARED_STATE_BITS,
    ids=lambda row: "announce={announce_wbar}-notebooks={notebooks}-cheat={cheat}-"
                    "intrusion={intrusion}".format(**row),
)
def test_prepared_state_keeps_every_bit(row):
    state = state_after_preparation(ProtocolVariant(
        announce_wbar=row["announce_wbar"], notebooks=frozenset(row["notebooks"]),
        cheat=row["cheat"], intrusion=row["intrusion"]))
    assert [[list(labels), amp.real.hex(), amp.imag.hex()]
            for labels, amp in state.nonzero_terms()] == row["terms"]


def test_t2_collapse_and_memory_record():
    state = state_after_preparation(NONE)
    # Find a substream that yields each outcome, then check the post state.
    seen = {}
    for k in range(50):
        post, outcomes = _fold(state, _at(NONE, 2), round_rng(11, k))
        assert "intrusion" not in outcomes
        seen.setdefault(outcomes["wbar"], post)
    assert set(seen) == {"ok", "fail"}
    ok_terms = dict(seen["ok"].nonzero_terms())
    for labels, _ in ok_terms.items():
        by_name = dict(zip(state.layout.names, labels))
        assert by_name["Wbar"] == "ok"
        assert by_name["S"] == "up" and by_name["F"] == "up"


def test_t3_conditional_probabilities():
    state = state_after_preparation(NONE)
    post2, _ = _fold(state, _at(NONE, 2), _rng_for_outcome(state, "ok"))
    labels = []
    for k in range(400):
        _, outcomes = _fold(post2, _at(NONE, 3), round_rng(23, k))
        labels.append(outcomes["w"])
    frac_ok = labels.count("ok") / len(labels)
    assert abs(frac_ok - 0.5) < 4 * np.sqrt(0.25 / len(labels))


def _rng_for_outcome(state, wanted):
    for k in range(200):
        _, outcomes = _fold(state, _at(NONE, 2), round_rng(17, k))
        if outcomes["wbar"] == wanted:
            return round_rng(17, k)
    raise AssertionError(f"no substream produced {wanted}")


def test_intrusion_aborts_round():
    variant = ProtocolVariant(announce_wbar=False, intrusion=True)
    found = None
    for k in range(100):
        transcript = run_round(variant, round_rng(3, k), k)
        assert transcript.halted is False or transcript.intrusion_outcome is None
        if transcript.wbar_outcome == "ok":
            found = transcript
            break
    assert found is not None
    assert found.w_outcome is None
    assert found.intrusion_outcome == "up"  # no records: spin is surely up
    assert found.halted is False
    assert all(agent != "W" for _, agent, _ in found.announcements)


def test_announcements_follow_variant():
    announced = ProtocolVariant(announce_wbar=True)
    secret = ProtocolVariant(announce_wbar=False)
    t1 = run_round(announced, round_rng(5, 0), 0)
    t2 = run_round(secret, round_rng(5, 0), 0)
    assert (2, "Wbar", t1.wbar_outcome) in t1.announcements
    assert all(agent != "Wbar" for _, agent, _ in t2.announcements)
    assert (3, "W", t1.w_outcome) in t1.announcements
    assert (3, "W", t2.w_outcome) in t2.announcements


def test_halting_flag_consistency():
    sampler = RoundSampler(NONE)
    for k in range(300):
        transcript = sampler.draw(round_rng(29, k), k)
        assert transcript.halted == (
            transcript.wbar_outcome == "ok" and transcript.w_outcome == "ok"
        )


@pytest.mark.parametrize("notebooks", ALL_NOTEBOOK_SETS)
@pytest.mark.parametrize("intrusion", (False, True))
def test_sampler_matches_reference_path(notebooks, intrusion):
    variant = ProtocolVariant(announce_wbar=False, notebooks=notebooks, intrusion=intrusion)
    sampler = RoundSampler(variant)
    for k in range(40):
        reference = run_round(variant, round_rng(41, k), k)
        fast = sampler.draw(round_rng(41, k), k)
        assert reference == fast


def _uniforms_by_round(seed, stream, start, stop, depth):
    return np.array([round_rng(seed, *stream, k).random(depth) for k in range(start, stop)])


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(ALL_VARIANTS),
    seed=st.integers(0, 2**40 - 1),
    stream=st.lists(st.integers(0, 2**40 - 1), max_size=2).map(tuple),
    start=st.integers(0, 2**33 - 1),
    rounds=st.integers(1, 6),
)
def test_block_sampling_matches_the_per_round_path(variant, seed, stream, start, rounds):
    sampler = compiled_round(variant)
    stop = start + rounds
    uniforms = round_uniforms(seed, stream, start, stop, sampler.depth)
    np.testing.assert_array_equal(
        uniforms, _uniforms_by_round(seed, stream, start, stop, sampler.depth))
    counts = np.zeros(len(sampler.leaves), dtype=np.int64)
    for k in range(start, stop):
        transcript = sampler.draw(round_rng(seed, *stream, k), k)
        assert transcript == run_round(variant, round_rng(seed, *stream, k), k)
        counts[sampler.leaves.index(transcript.key())] += 1
    np.testing.assert_array_equal(sampler.leaf_counts(seed, stream, start, stop), counts)


def test_round_uniforms_across_the_two_word_boundary():
    # SeedSequence reads k as one 32-bit word below 2**32 and as two above.
    start, stop = 2**32 - 3, 2**32 + 3
    np.testing.assert_array_equal(
        round_uniforms(2**35 + 1, (9,), start, stop, 3),
        _uniforms_by_round(2**35 + 1, (9,), start, stop, 3))


def test_stream_uniforms_across_the_two_word_boundary():
    # A window of rounds, and the streams, each cross 2**32 and so the
    # change from one SeedSequence word to two.
    seed, start, stop = 2**35 + 1, 2**32 - 3, 2**32 + 3
    streams = np.array([0, 9, 2**32 - 1, 2**32, 2**40 + 3], dtype=np.uint64)
    expected = np.array([_uniforms_by_round(seed, (int(r),), start, stop, 3) for r in streams])
    np.testing.assert_array_equal(stream_uniforms(seed, streams, start, stop, 3), expected)
    np.testing.assert_array_equal(stream_uniforms(seed, streams[:2], 5, 5, 3).shape, (2, 0, 3))


def test_round_uniforms_rejects_what_seed_sequence_rejects():
    with pytest.raises(ValueError, match="non-negative"):
        round_uniforms(1, (-1,), 0, 4, 2)
    with pytest.raises(ValueError, match="start <= stop"):
        round_uniforms(1, (), 5, 4, 2)
    assert round_uniforms(1, (), 4, 4, 2).shape == (0, 2)


def test_run_until_halt_determinism_and_halting():
    config = ProtocolConfig(variant=ProtocolVariant(), seed=7, max_rounds=2000)
    a = run_until_halt(config)
    b = run_until_halt(config)
    assert a.transcripts == b.transcripts
    assert a.halted and a.halting_round == a.rounds_executed - 1
    assert a.transcripts[-1].halted
    c = run_until_halt(config, stream=(1,))
    assert c.transcripts != a.transcripts  # independent repetition


def test_run_until_halt_exhaustion_reported():
    variant = ProtocolVariant(announce_wbar=False, intrusion=True)  # can never halt
    config = ProtocolConfig(variant=variant, seed=1, max_rounds=5)
    report = run_until_halt(config)
    assert report.halted is False
    assert report.halting_round is None
    assert report.rounds_executed == 5
    assert sum(report.outcome_counts.values()) == 5


def test_round_rng_substreams():
    a = round_rng(123, 7).random(4)
    b = round_rng(123, 7).random(4)
    c = round_rng(123, 8).random(4)
    d = round_rng(124, 7).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_global_state_after_sampling_matches_external_description():
    # The protocol's global state, conditioned on the sampled transcript,
    # is exactly what the external observer describes after hearing it.
    state = state_after_preparation(ProtocolVariant())
    post, _ = _fold(state, _at(ProtocolVariant(), 2), _rng_for_outcome(state, "ok"))
    expected = reference_by_tag("external_t2_heard_ok").state
    assert equal_up_to_global_phase(post, expected, tol=1e-10)


def test_rounds_to_halt_is_roughly_geometric():
    config = ProtocolConfig(variant=ProtocolVariant(), seed=2024, max_rounds=1000)
    lengths = [run_until_halt(config, stream=(r,)).rounds_executed for r in range(300)]
    mean = np.mean(lengths)
    # Geometric with p = 1/12: mean 12, sd about 11.9; 300 samples.
    assert abs(mean - 12.0) < 4 * 11.96 / np.sqrt(300)
