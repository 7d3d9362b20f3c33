import json
import tracemalloc
from itertools import accumulate, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frsim import protocol
from frsim.analysis import HALT_WINDOW, ROUND_CHUNK
from frsim.measurement import branch_all, condition_on, pick_index
from frsim.protocol import (
    ProtocolConfig,
    ProtocolVariant,
    RoundSampler,
    _at,
    _fold,
    compiled_round,
    grid_uniforms,
    prefix_state,
    round_rng,
    run_round,
    run_until_halt,
    schedule,
    state_after_preparation,
)
from frsim.systems import coin_basis, coin_lab_basis, spin_basis
from frsim.tensor import equal_up_to_global_phase
from golden_states import golden_state
from variants import ALL_NOTEBOOK_SETS, ALL_VARIANTS, variant_id

NONE = ProtocolVariant(announce_wbar=False)
BOTH = ProtocolVariant(announce_wbar=False, notebooks=frozenset({"Fbar", "F"}))


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


@pytest.mark.parametrize("call", [
    lambda: round_rng(1.7, 3),
    lambda: round_rng(1, 3.0),
    lambda: grid_uniforms(1.5, ([0, 1],), 2),
    lambda: ProtocolConfig(variant=NONE, seed=1.5),
    lambda: ProtocolConfig(variant=NONE, max_rounds=2.5),
], ids=("round_rng-seed", "round_rng-key", "grid-seed", "config-seed", "config-max_rounds"))
def test_seeds_and_counts_are_integers(call):
    # Truncated, seed 1.5 would draw seed 1's stream.
    with pytest.raises(TypeError):
        call()


def test_initial_state_layouts():
    assert NONE.system_names() == ("R", "Fbar", "S", "F", "Wbar", "W")
    assert BOTH.system_names() == ("Nbar", "R", "Fbar", "N", "S", "F", "Wbar", "W")
    state = prefix_state(NONE.layout(), ())
    terms = dict(state.nonzero_terms())
    assert terms[("t", "ready", "down", "ready", "ready", "ready")] == pytest.approx(
        np.sqrt(2.0 / 3.0)
    )
    assert terms[("h", "ready", "down", "ready", "ready", "ready")] == pytest.approx(
        np.sqrt(1.0 / 3.0)
    )
    assert abs(state.norm - 1.0) < 1e-12
    both = prefix_state(BOTH.layout(), ())
    assert abs(both.norm - 1.0) < 1e-12
    for labels, _ in both.nonzero_terms():
        by_name = dict(zip(both.layout.names, labels))
        assert by_name["Nbar"] == "ready" and by_name["N"] == "ready"


def test_t0_head_branch_prepares_spin_down():
    state, _ = _fold(prefix_state(NONE.layout(), ()), _at(NONE, 0))
    head = condition_on(state, coin_basis(), "h")
    spin = {b.label: b.probability for b in branch_all(head, spin_basis())}
    assert spin["down"] == pytest.approx(1.0, abs=1e-12)


def test_t0_correlates_coin_friend_and_notebook():
    variant = ProtocolVariant(announce_wbar=False, notebooks=frozenset({"Fbar"}))
    state, _ = _fold(prefix_state(variant.layout(), ()), _at(variant, 0))
    for labels, _ in state.nonzero_terms():
        by_name = dict(zip(state.layout.names, labels))
        assert by_name["Nbar"] == by_name["R"] == by_name["Fbar"]


def test_state_after_preparation_matches_external_description():
    state = state_after_preparation(NONE)
    expected = golden_state("external_t1")
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
        assert transcript.halted is False or transcript.key().intrusion is None
        if transcript.key().wbar == "ok":
            found = transcript
            break
    assert found is not None
    assert found.key().w is None
    assert found.key().intrusion == "up"  # no records: spin is surely up
    assert found.halted is False
    assert all(agent != "W" for _, agent, _ in found.announcements)


def test_announcements_follow_variant():
    announced = ProtocolVariant(announce_wbar=True)
    secret = ProtocolVariant(announce_wbar=False)
    t1 = run_round(announced, round_rng(5, 0), 0)
    t2 = run_round(secret, round_rng(5, 0), 0)
    assert (2, "Wbar", t1.key().wbar) in t1.announcements
    assert all(agent != "Wbar" for _, agent, _ in t2.announcements)
    assert (3, "W", t1.key().w) in t1.announcements
    assert (3, "W", t2.key().w) in t2.announcements


def test_halting_flag_consistency():
    sampler = RoundSampler(NONE)
    for k in range(300):
        transcript = sampler.draw(round_rng(29, k), k)
        assert transcript.halted == (
            transcript.key().wbar == "ok" and transcript.key().w == "ok"
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


class _Scripted:
    """A stand-in generator whose ``random()`` returns the given uniforms in order."""

    def __init__(self, uniforms):
        self.random = iter(uniforms).__next__


def _sums(limits):
    """A table row's running sums: its limits without the +inf padding."""
    return [limit for limit in limits if limit != np.inf]


def _node_paths(sampler):
    """Each node row of the table, with the uniforms that lead to it from the
    root: the middle of the taken branch's interval at every ancestor."""
    stack = [(sampler._root, ())]
    while stack:
        row, path = stack.pop()
        yield row, path
        limits, following = sampler._rows[row]
        sums = _sums(limits)
        for low, high, child in zip((0.0, *sums), sums, following):
            if child >= len(sampler.leaves):
                stack.append((child, (*path, float(low + high) / 2)))


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_draw_walk_and_the_reference_agree_on_the_branch_edges(variant):
    # At every node, uniforms on each running sum, one ulp below it, and in
    # the roundoff slack above the last sum: draw, walk and run_round (whose
    # pick_index reads the unpruned probabilities) must end at the same leaf.
    sampler = compiled_round(variant)
    rows, reached = [], set()
    for index, path in _node_paths(sampler):
        sums = _sums(sampler._rows[index][0])
        edges = {0.0, np.nextafter(1.0, 0.0), sums[-1]}
        edges.update(sums)
        edges.update(np.nextafter(total, 0.0) for total in sums)
        assert max(edges) >= sums[-1]
        rows += [(*path, float(u)) + (0.5,) * (sampler.depth - len(path) - 1) for u in edges]
        reached.add(index)
    assert reached == set(range(len(sampler.leaves), len(sampler._rows)))
    walked = sampler.walk(np.array(rows))
    for k, (row, leaf) in enumerate(zip(rows, walked)):
        drawn = sampler.draw(_Scripted(row), k)
        assert drawn == run_round(variant, _Scripted(row), k), row
        assert sampler.leaves[leaf] == drawn.key(), row


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_table_rows_hold_the_running_sums_and_the_slack(variant, monkeypatch):
    # Each node row: the running sums of its step's nonzero branch_all
    # probabilities, padded with +inf to the widest node, then width + 1
    # next rows whose last, the slack's, is the row of pick_index's
    # fallback, and which the padding repeats.  Each leaf row, first and in
    # the order of leaves: only +inf, and itself as every next row.
    sampler = compiled_round(variant)
    width = sampler._limits.shape[1]
    np.testing.assert_array_equal(sampler._limits, [limits for limits, _ in sampler._rows])
    np.testing.assert_array_equal(sampler._following, [following for _, following in sampler._rows])
    assert sampler._following.shape == (len(sampler._rows), width + 1)
    for leaf in range(len(sampler.leaves)):
        assert sampler._rows[leaf] == ([np.inf] * width, [leaf] * (width + 1))
    sample, measured = protocol.sample, []

    def recording(state, basis, rng):
        measured.append((state, basis))
        return sample(state, basis, rng)

    monkeypatch.setattr(protocol, "sample", recording)
    nodes = list(_node_paths(sampler))
    for row, path in nodes:
        measured.clear()
        run_round(variant, _Scripted((*path, *(0.5,) * sampler.depth)), 0)
        probabilities = [b.probability for b in branch_all(*measured[len(path)])]
        nonzero = [p for p in probabilities if p > 0.0]
        limits, following = sampler._rows[row]
        sums = list(accumulate(nonzero))
        assert limits == sums + [np.inf] * (width - len(sums))
        fallback = pick_index(probabilities, np.inf)
        slack = following[len(sums)]
        assert slack == following[sum(p > 0.0 for p in probabilities[:fallback])]
        assert following[len(sums):] == [slack] * (width + 1 - len(sums))
    assert len(nodes) + len(sampler.leaves) == len(sampler._rows)


@pytest.mark.parametrize("axes", ((), (5,), (3, 4), (2, 3, 2), (2, 0, 3)),
                         ids=("0-axes", "1-axis", "2-axes", "3-axes", "3-axes-empty"))
def test_walk_keeps_the_grid_shape(axes):
    # One leaf per round, in the grid's shape, each the leaf draw ends at.
    sampler = compiled_round(BOTH)
    uniforms = np.random.default_rng(3).random((*axes, sampler.depth))
    walked = sampler.walk(uniforms)
    assert walked.shape == axes
    for index in np.ndindex(*axes):
        leaf = sampler.draw(_Scripted(uniforms[index].tolist())).key()
        assert sampler.leaves[walked[index]] == leaf
    assert sampler.walk(np.empty((0, sampler.depth))).shape == (0,)
    with pytest.raises(ValueError, match="reads 2 uniforms, got 1"):
        sampler.walk(uniforms[..., :1])


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_every_read_but_the_intrusion_follows_its_premeasurement(variant):
    # A measurement is two steps: the premeasurement, a unitary step with no
    # outcome that writes the basis into the memory, then the read of that
    # record, at the same time and under the same skip condition.  Only the
    # intrusion reads its basis with no premeasurement of its own.
    steps = schedule(variant)
    for before, step in zip((None,) + steps, steps):
        if step.outcome is None:
            assert not (step.sampled or step.announced or step.heard), step
            assert step.after is None and (step.unitary is None) == (step.memory is not None)
            continue
        assert step.unitary is None and before is not None, step.outcome
        premeasured = before.outcome is None and before.unitary is None and \
            before.basis is step.basis and before.memory == step.memory
        assert premeasured == (step.outcome != "intrusion"), step.outcome
        if premeasured:
            assert (before.time, before.unless) == (step.time, step.unless), step.outcome
    reads = [step.outcome for step in steps if step.outcome is not None]
    assert reads == ["r", "s", "wbar"] + ["intrusion"] * variant.intrusion + ["w"]


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_id)
def test_a_round_premeasures_only_w_after_its_shared_prefix(variant, monkeypatch):
    # The shared prefix runs through Wbar's premeasurement, before the first
    # record a round reads, so with a warm cache a round premeasures only W's
    # lab, and only when its key reaches W's steps.
    run_round(variant, round_rng(43, 0), 0)
    premeasure, memories = protocol.premeasure, []

    def counted(state, basis, memory):
        memories.append(memory.name)
        return premeasure(state, basis, memory)

    monkeypatch.setattr(protocol, "premeasure", counted)
    reached = set()
    for k in range(40):
        memories.clear()
        transcript = run_round(variant, round_rng(43, k), k)
        reaches_w = transcript.key().w is not None
        reached.add(reaches_w)
        assert memories == ["W"] * reaches_w, (k, transcript)
    assert reached == ({True, False} if variant.intrusion else {True})


def _uniforms_by_round(seed, axes, depth):
    """``round_rng(seed, *index).random(depth)`` for every index of the grid, in grid order."""
    return np.array([round_rng(seed, *index).random(depth) for index in product(*axes)])


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(ALL_VARIANTS),
    seed=st.integers(0, 2**40 - 1),
    streams=st.lists(st.lists(st.integers(0, 2**40 - 1), min_size=2, max_size=3).map(sorted),
                     max_size=2),
    start=st.integers(0, 2**33 - 1),
    rounds=st.integers(1, 6),
)
def test_block_sampling_matches_the_per_round_path(variant, seed, streams, start, rounds):
    # A grid of one to three axes: up to two stream axes, then the rounds.
    sampler = compiled_round(variant)
    axes = (*streams, range(start, start + rounds))
    uniforms = grid_uniforms(seed, axes, sampler.depth)
    assert uniforms.shape == tuple(map(len, axes)) + (sampler.depth,)
    np.testing.assert_array_equal(
        uniforms.reshape(-1, sampler.depth), _uniforms_by_round(seed, axes, sampler.depth))
    leaves = []
    for index in product(*axes):
        transcript = sampler.draw(round_rng(seed, *index), index[-1])
        assert transcript == run_round(variant, round_rng(seed, *index), index[-1])
        leaves.append(sampler.leaves.index(transcript.key()))
    np.testing.assert_array_equal(sampler.walk(uniforms), np.reshape(leaves, uniforms.shape[:-1]))


@pytest.mark.parametrize("streams", ((), ([0, 9, 2**32 - 1, 2**32, 2**40 + 3],)),
                         ids=("rounds", "streams-by-rounds"))
def test_grid_uniforms_across_the_two_word_boundary(streams):
    # SeedSequence reads an index as one 32-bit word below 2**32 and as two
    # from there on.  The rounds, and the streams, each cross that boundary.
    seed, axes = 2**35 + 1, (*streams, range(2**32 - 3, 2**32 + 3))
    uniforms = grid_uniforms(seed, axes, 3)
    assert uniforms.shape == tuple(map(len, axes)) + (3,)
    np.testing.assert_array_equal(uniforms.reshape(-1, 3), _uniforms_by_round(seed, axes, 3))


@pytest.mark.parametrize("seed", (2**64 + 2**32 + 5, 2**130 + 3), ids=("three-words", "five-words"))
def test_grid_uniforms_of_a_long_seed(seed):
    # SeedSequence mixes the entropy words past its pool of four in one at a
    # time: three seed words and a (run, round) grid reach that loop with
    # the grid's words, five seed words with a seed word as well.
    axes = ([0, 7, 2**32 + 1], range(5, 9))
    uniforms = grid_uniforms(seed, axes, 3)
    assert uniforms.shape == (3, 4, 3)
    np.testing.assert_array_equal(uniforms.reshape(-1, 3), _uniforms_by_round(seed, axes, 3))


def _peak_bytes(draw) -> int:
    """Peak traced memory (numpy buffers included) while ``draw()`` runs."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        draw()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_a_block_of_uniforms_stays_small_in_memory():
    # monte_carlo draws ROUND_CHUNK rounds per block, rounds_to_halt as many
    # (run, round) pairs: HALT_WINDOW rounds of many runs, up to one run's
    # window widened to ROUND_CHUNK rounds.  A block that passes the heap's
    # trim threshold makes the heap grow and shrink on every block, at a
    # page-fault cost that depends on what the process ran before; 0.5 MiB
    # mostly stays below.
    depth = compiled_round(ProtocolVariant()).depth
    block = np.arange(ROUND_CHUNK, 2 * ROUND_CHUNK, dtype=np.uint64)
    runs = np.arange(ROUND_CHUNK // HALT_WINDOW, dtype=np.uint64)
    window = np.arange(8, 8 + HALT_WINDOW, dtype=np.uint64)
    grid_uniforms(7, (block[:4],), depth)  # first-call set-up outside the measurement
    assert _peak_bytes(lambda: grid_uniforms(7, (block,), depth)) < 768 * 1024
    assert _peak_bytes(lambda: grid_uniforms(7, (runs, window), depth)) < 768 * 1024
    assert _peak_bytes(lambda: grid_uniforms(7, (runs[:1], block), depth)) < 768 * 1024


def test_grid_uniforms_rejects_indices_outside_two_words():
    # round_rng rejects a negative index; the grid reads each index as at
    # most two SeedSequence words, so it rejects 2**64 and above as well.
    for entry in (-1, 2**64):
        for axes in ((sorted((0, entry)),), ([entry], [0, 1])):
            with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
                grid_uniforms(1, axes, 2)
    with pytest.raises(ValueError, match="ascend"):
        grid_uniforms(1, ([0, 1], [2**32, 3]), 2)
    with pytest.raises(ValueError, match="non-negative"):
        grid_uniforms(-1, ([0],), 2)
    assert grid_uniforms(1, ([],), 2).shape == (0, 2)
    assert grid_uniforms(1, ([0, 9], range(5, 5)), 3).shape == (2, 0, 3)


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
    expected = golden_state("external_t2_heard_ok")
    assert equal_up_to_global_phase(post, expected, tol=1e-10)


def test_rounds_to_halt_is_roughly_geometric():
    config = ProtocolConfig(variant=ProtocolVariant(), seed=2024, max_rounds=1000)
    lengths = [run_until_halt(config, stream=(r,)).rounds_executed for r in range(300)]
    mean = np.mean(lengths)
    # Geometric with p = 1/12: mean 12, sd about 11.9; 300 samples.
    assert abs(mean - 12.0) < 4 * 11.96 / np.sqrt(300)
