import copy
import hashlib
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import comb, fsum, log, log1p
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracle
import frsim
from frsim import analysis, protocol
from frsim.analysis import (
    HALT_WINDOW,
    ROUND_CHUNK,
    FrequencyTable,
    JointDistribution,
    binomial_upper_bound,
    detect_records,
    enumerate_exact,
    monte_carlo,
    rounds_to_halt,
    z_scores,
)
from frsim.protocol import (
    OutcomeKey,
    ProtocolConfig,
    ProtocolVariant,
    compiled_round,
    grid_uniforms,
    round_rng,
    run_until_halt,
)
from variants import ALL_NOTEBOOK_SETS, ALL_VARIANTS, variant_id

EXACT_ATOL = 1e-10


def variant(notebooks=frozenset(), announce=False, intrusion=False, cheat=False):
    return ProtocolVariant(
        announce_wbar=announce, notebooks=frozenset(notebooks), cheat=cheat,
        intrusion=intrusion,
    )


# enumerate_exact against the exact oracle -------------------------------------

def _wbar_ok(exact: dict) -> Fraction:
    """P(wbar = ok) of an exact joint."""
    return sum(p for key, p in exact.items() if key[0] == "ok")


def _ulps(p: float, exact: Fraction) -> int:
    """How many floats lie from ``p`` to the float nearest ``exact``, both >= 0."""
    return abs(int(np.float64(p).view(np.int64)) - int(np.float64(exact).view(np.int64)))


# enumerate_exact's worst case over the 24 variants, measured on the code as
# it stood when the exact oracle came in; never raise it to let a change pass.
EXACT_ULPS = 8
# The worst case of the marginals and conditionals read off enumerate_exact
# over the 24 variants, measured on the code as it stood when these checks
# came in: marginal_wbar 8, conditional_w 3, conditional_intrusion 0.  Never
# raise it to let a change pass.
DERIVED_ULPS = 8


def test_exact_joint_no_notebooks_matches_the_exact_oracle():
    joint = enumerate_exact(variant())
    expected = exact_oracle.joint(frozenset(), False)
    assert set(expected) == {("fail", "fail", None), ("fail", "ok", None),
                             ("ok", "fail", None), ("ok", "ok", None)}
    assert set(joint.entries) == set(expected)
    for key, p in expected.items():
        assert joint.entries[key] == pytest.approx(p, abs=EXACT_ATOL)
    assert joint.entries[("fail", "fail", None)] == pytest.approx(0.75, abs=EXACT_ATOL)
    assert joint.entries[("ok", "ok", None)] == pytest.approx(1 / 12, abs=EXACT_ATOL)


def test_exact_marginal_and_conditional_no_notebooks():
    joint = enumerate_exact(variant())
    assert joint.marginal_wbar("ok") == pytest.approx(1 / 6, abs=EXACT_ATOL)
    assert joint.conditional_w("ok", "ok") == pytest.approx(1 / 2, abs=EXACT_ATOL)
    assert joint.conditional_w("ok", "fail") == pytest.approx(1 / 10, abs=EXACT_ATOL)


def test_exact_joint_both_notebooks_matches_the_exact_oracle():
    joint = enumerate_exact(variant({"Fbar", "F"}))
    exact = exact_oracle.joint(frozenset({"Fbar", "F"}), False)
    assert joint.marginal_wbar("ok") == pytest.approx(_wbar_ok(exact), abs=EXACT_ATOL)
    assert joint.marginal_wbar("ok") == pytest.approx(0.5, abs=EXACT_ATOL)
    assert joint.joint_wbar_w("ok", "ok") == pytest.approx(
        exact[("ok", "ok", None)], abs=EXACT_ATOL
    )
    assert joint.joint_wbar_w("ok", "ok") == pytest.approx(0.25, abs=EXACT_ATOL)


@pytest.mark.parametrize(
    "notebooks,expected_up",
    [
        (frozenset(), 1.0),
        (frozenset({"Fbar", "F"}), 1 / 3),
        (frozenset({"Fbar"}), 1 / 3),
        (frozenset({"F"}), 1.0),
    ],
)
def test_exact_intrusion_conditionals(notebooks, expected_up):
    joint = enumerate_exact(variant(notebooks, intrusion=True))
    assert joint.conditional_intrusion("up") == pytest.approx(expected_up, abs=EXACT_ATOL)
    exact = exact_oracle.joint(notebooks, True)
    assert joint.conditional_intrusion("up") == pytest.approx(
        exact[("ok", None, "up")] / _wbar_ok(exact), abs=EXACT_ATOL
    )


@pytest.mark.parametrize("v", ALL_VARIANTS, ids=variant_id)
def test_exact_joint_lies_within_a_few_ulp_of_the_exact_oracle(v):
    joint = enumerate_exact(v)
    exact = exact_oracle.joint(v.notebooks, v.intrusion)
    assert set(joint.entries) == set(exact)
    for key, p in exact.items():
        assert abs(joint.entries[key] - p) <= EXACT_ATOL, key
        assert _ulps(joint.entries[key], p) <= EXACT_ULPS, (key, joint.entries[key], p)


def _exact_sum(exact: dict, **labels) -> Fraction:
    """The exact probability of the keys whose fields hold ``labels``."""
    return sum((p for key, p in exact.items()
                if labels.items() <= OutcomeKey(*key)._asdict().items()), Fraction(0))


@pytest.mark.parametrize("v", ALL_VARIANTS, ids=variant_id)
def test_exact_marginals_and_conditionals_lie_within_a_few_ulp_of_the_exact_oracle(v):
    joint = enumerate_exact(v)
    exact = exact_oracle.joint(v.notebooks, v.intrusion)
    cases = []
    for wbar in ("ok", "fail"):
        marginal = _exact_sum(exact, wbar=wbar)
        cases.append((("marginal_wbar", wbar), joint.marginal_wbar(wbar), marginal))
        for w in ("ok", "fail"):
            cases.append((("conditional_w", w, wbar), joint.conditional_w(w, wbar),
                          _exact_sum(exact, wbar=wbar, w=w) / marginal))
    for spin in ("up", "down"):
        cases.append((("conditional_intrusion", spin), joint.conditional_intrusion(spin),
                      _exact_sum(exact, intrusion=spin) / _wbar_ok(exact)))
    for case, value, p in cases:
        assert abs(value - p) <= EXACT_ATOL, case
        assert _ulps(value, p) <= DERIVED_ULPS, (case, value, p)


@pytest.mark.parametrize("notebooks", ALL_NOTEBOOK_SETS)
@pytest.mark.parametrize("announce", (False, True))
@pytest.mark.parametrize("intrusion", (False, True))
def test_exact_probabilities_sum_to_one(notebooks, announce, intrusion):
    joint = enumerate_exact(variant(notebooks, announce=announce, intrusion=intrusion))
    assert sum(joint.entries.values()) == pytest.approx(1.0, abs=EXACT_ATOL)


@pytest.mark.parametrize("notebooks", ALL_NOTEBOOK_SETS)
@pytest.mark.parametrize("intrusion", (False, True))
def test_announcement_invariance_of_joint_distribution(notebooks, intrusion):
    secret = enumerate_exact(variant(notebooks, announce=False, intrusion=intrusion))
    announced = enumerate_exact(variant(notebooks, announce=True, intrusion=intrusion))
    assert secret.entries == announced.entries


# Every entry of the 24 valid variants as float.hex: a change to the
# exact-state arithmetic must keep each bit of the exact joint.
EXACT_JOINT_BITS = json.loads(
    (Path(__file__).parent / "data" / "exact_joint_bits.json").read_text())


@pytest.mark.parametrize(
    "row", EXACT_JOINT_BITS,
    ids=lambda row: "announce={announce_wbar}-notebooks={notebooks}-cheat={cheat}-"
                    "intrusion={intrusion}".format(**row),
)
def test_exact_joint_keeps_every_bit(row):
    joint = enumerate_exact(variant(row["notebooks"], announce=row["announce_wbar"],
                                    intrusion=row["intrusion"], cheat=row["cheat"]))
    assert [[list(key), joint.entries[key].hex()] for key in sorted(joint.entries, key=str)] \
        == row["joint"]


def test_joint_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution({("ok", "ok", None): 0.5})
    with pytest.raises(ValueError):
        JointDistribution({("ok", "ok", None): 1.5, ("ok", "fail", None): -0.5})


def test_an_exact_distribution_rejects_a_nan_probability():
    # A NaN passes no check: the entry's own check names its key.
    with pytest.raises(ValueError, match=r"probability nan for \('ok', 'ok', None\)"):
        JointDistribution({("ok", "ok", None): float("nan")})


# One shared distribution per variant -------------------------------------------

@pytest.mark.parametrize("v", ALL_VARIANTS, ids=variant_id)
def test_equal_variants_share_one_distribution_built_from_the_leaves(v):
    twin = ProtocolVariant(announce_wbar=v.announce_wbar, notebooks=set(v.notebooks),
                           cheat=v.cheat, intrusion=v.intrusion)
    joint = enumerate_exact(v)
    assert twin == v and twin is not v
    assert enumerate_exact(twin) is joint is enumerate_exact(v) is compiled_round(v).distribution
    # The tree expanded again, its leaves put in a fresh dict, gives an
    # equal distribution, bit for bit and in the order of the sampler's leaves.
    sampler, leaves = compiled_round(v), {}
    protocol._branch_tree(protocol.prefix_state(*sampler.start), sampler.steps, {}, 1.0, [],
                          leaves)
    fresh = JointDistribution(dict(leaves))
    assert fresh == joint and fresh is not joint
    assert [(key, p.hex()) for key, p in joint.entries.items()] \
        == [(key, p.hex()) for key, p in fresh.entries.items()]
    assert tuple(joint.entries) == sampler.leaves
    halting = [p for key, p in leaves.items() if key.halts]
    assert joint.halt_probability == fsum(halting) == (halting[0] if halting else 0.0)


def test_the_shared_distribution_is_read_only():
    joint = enumerate_exact(variant())
    before = dict(joint.entries)
    with pytest.raises(TypeError):
        joint.entries[("ok", "ok", None)] = 1.0
    with pytest.raises(TypeError):
        del joint.entries[("fail", "fail", None)]
    with pytest.raises(AttributeError):  # the dataclass is frozen
        joint.entries = {}
    mutable = dict(joint.entries)  # a copy the caller may change
    mutable[("ok", "ok", None)] = 1.0
    assert enumerate_exact(variant()).entries == before
    # A distribution built directly keeps its own checked copy of the dict given.
    given = dict(before)
    built = JointDistribution(given)
    given[("ok", "ok", None)] = 2.0
    assert built.entries == before and type(built.entries) is MappingProxyType


@pytest.mark.parametrize("v", ALL_VARIANTS, ids=variant_id)
def test_the_shared_distribution_survives_pickle_and_copy(v):
    joint = enumerate_exact(v)
    for again in (pickle.loads(pickle.dumps(joint)), copy.deepcopy(joint), copy.copy(joint)):
        assert again == joint and again is not joint
        assert type(again.entries) is MappingProxyType
        assert [p.hex() for p in again.entries.values()] \
            == [p.hex() for p in joint.entries.values()]
        assert again.halt_probability == joint.halt_probability


# monte_carlo ------------------------------------------------------------------

def test_monte_carlo_is_deterministic_per_seed():
    config = ProtocolConfig(variant=variant(), seed=99)
    a = monte_carlo(config, 500)
    b = monte_carlo(config, 500)
    assert a.counts == b.counts and a.total == b.total == 500
    c = monte_carlo(ProtocolConfig(variant=variant(), seed=100), 500)
    assert c.counts != a.counts


@pytest.mark.parametrize("rounds", (1, 4095, 4096, 4097, 10_001))
def test_monte_carlo_blocks_match_one_draw_per_round(rounds):
    # A single round; one short of, exactly, and one over a ROUND_CHUNK block; several blocks.
    variant = ProtocolVariant(notebooks=frozenset({"Fbar", "F"}), intrusion=True)
    seed = 2**32 + 5
    sampler = compiled_round(variant)
    expected: dict = {}
    for k in range(rounds):
        key = sampler.draw(round_rng(seed, k), k).key()
        expected[key] = expected.get(key, 0) + 1
    table = monte_carlo(ProtocolConfig(variant=variant, seed=seed), rounds)
    assert table.counts == expected and table.total == rounds


def test_monte_carlo_rejects_rounds_beyond_the_round_indices():
    # Round indices stop below 2**64; the check comes before any sampling,
    # so an oversized request fails at once instead of after 2**52 blocks.
    config = ProtocolConfig(variant=variant(), seed=0)
    for rounds in (0, 2**64 + 1, 2**70):
        with pytest.raises(ValueError, match="rounds"):
            monte_carlo(config, rounds)


# rounds_to_halt -----------------------------------------------------------------

@pytest.mark.parametrize("v", ALL_VARIANTS, ids=variant_id)
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64),
    repeats=st.integers(1, 300),
    max_rounds=st.integers(1, 40),
)
def test_rounds_to_halt_matches_run_until_halt(v, seed, repeats, max_rounds):
    _assert_rounds_to_halt_matches_run_until_halt(
        ProtocolConfig(variant=v, seed=seed, max_rounds=max_rounds), repeats)


# SHA-256 of rounds_to_halt's lengths (int64 bytes, one array after another)
# over the 24 variants x seeds 1, 7 and 41 x repeats 1 and 2000, in that
# order, recorded while the halting probability was still summed per call.
ROUNDS_TO_HALT_SHA256 = "0c82fe531842d5337ab0eada09e335d11856b1f370e4cf12cdc59bb067c6e921"


def test_rounds_to_halt_keeps_every_length():
    digest = hashlib.sha256()
    for v in ALL_VARIANTS:
        for seed in (1, 7, 41):
            for repeats in (1, 2000):
                lengths = rounds_to_halt(ProtocolConfig(v, seed=seed), repeats)
                assert lengths.dtype == np.int64 and lengths.shape == (repeats,)
                digest.update(lengths.tobytes())
    assert digest.hexdigest() == ROUNDS_TO_HALT_SHA256


def test_rounds_to_halt_across_kernel_calls():
    # More runs than one kernel call's grid holds: the first window takes three calls.
    repeats = 2 * ROUND_CHUNK // HALT_WINDOW + 1
    _assert_rounds_to_halt_matches_run_until_halt(ProtocolConfig(variant(), seed=11), repeats)


@pytest.mark.parametrize("repeats, seed", ((300, 12), (1006, 13)))
def test_rounds_to_halt_in_widening_windows(repeats, seed):
    # The windows widen as runs halt.  1006 runs take two kernel calls of 503
    # in the first window, 300 runs one; both widen to 16 rounds and more.
    _assert_rounds_to_halt_matches_run_until_halt(ProtocolConfig(variant(), seed=seed), repeats)


def test_rounds_to_halt_clips_a_widened_window_at_max_rounds():
    # One run widens each window to 64 rounds, and max_rounds cuts the
    # second one at 65: a single round.  This run halts only at round 66,
    # so it did not halt.
    unbounded = ProtocolConfig(variant(), seed=60, max_rounds=ROUND_CHUNK)
    assert run_until_halt(unbounded, stream=(0,)).rounds_executed == 66
    config = ProtocolConfig(variant(), seed=60, max_rounds=65)
    assert rounds_to_halt(config, 1)[0] == 0
    _assert_rounds_to_halt_matches_run_until_halt(config, 1)


@pytest.mark.parametrize("config, repeats, calls", (
    (ProtocolConfig(ProtocolVariant(), seed=7), 2000, 10),  # `frsim run --until-halt --repeats 2000 --seed 7`
    (ProtocolConfig(variant(), seed=9, max_rounds=30), 700, 4),
))
def test_rounds_to_halt_samples_each_pair_once(monkeypatch, config, repeats, calls):
    # Each window starts where the last one ended and stops at max_rounds.
    # It doubles from HALT_WINDOW rounds while the runs still going fill at
    # most ROUND_CHUNK pairs, weighed by the chance that one of them
    # outlasts the window, and its runs are split evenly over as few kernel
    # calls as hold them.  A run leaves the grid once it halts.
    grids = []

    def recording(seed, axes, depth):
        grids.append(tuple(np.array(axis) for axis in axes))
        return grid_uniforms(seed, axes, depth)

    monkeypatch.setattr(analysis, "grid_uniforms", recording)
    lengths = rounds_to_halt(config, repeats)
    assert len(grids) == calls
    stays = 1.0 - fsum(p for key, p in enumerate_exact(config.variant).entries.items() if key.halts)

    def outlasts(width):
        # The chance that one of the runs going outlasts ``width`` rounds.
        return 1.0 - (1.0 - stays**width) ** len(going)

    start = 0
    while grids:
        window = grids[0][1]
        same = [runs for runs, rounds in grids if np.array_equal(rounds, window)]
        del grids[:len(same)]
        going = np.flatnonzero((lengths == 0) | (lengths > start))
        np.testing.assert_array_equal(np.concatenate(same), going)
        np.testing.assert_array_equal(window, np.arange(start, start + len(window)))
        width = len(window)
        assert width == HALT_WINDOW or width * len(going) <= ROUND_CHUNK * outlasts(width // 2)
        assert (start + width == config.max_rounds
                or 2 * width * len(going) > ROUND_CHUNK * outlasts(width))
        assert len(same) == -(-len(going) // (ROUND_CHUNK // width))
        assert max(map(len, same)) - min(map(len, same)) <= 1
        start += width
    assert start <= config.max_rounds


def test_a_single_until_halt_run_samples_few_pairs(monkeypatch):
    # `frsim run --until-halt` without --repeats: one run, which halts after
    # 12 rounds on average, samples a window of 64 rounds a call, far fewer
    # than the ROUND_CHUNK pairs a call can hold.
    pairs = []

    def recording(seed, axes, depth):
        pairs.append(len(axes[0]) * len(axes[1]))
        return grid_uniforms(seed, axes, depth)

    monkeypatch.setattr(analysis, "grid_uniforms", recording)
    for seed in range(40):
        pairs.clear()
        config = ProtocolConfig(ProtocolVariant(), seed=seed)
        length = rounds_to_halt(config, 1)[0]
        assert length == run_until_halt(config, stream=(0,)).rounds_executed
        assert pairs == [64] * -(-length // 64), seed
        assert sum(pairs) <= ROUND_CHUNK // 16, seed


def _assert_rounds_to_halt_matches_run_until_halt(config, repeats):
    lengths = rounds_to_halt(config, repeats)
    assert lengths.shape == (repeats,)
    for r in range(repeats):
        report = run_until_halt(config, stream=(r,))
        assert lengths[r] == (report.rounds_executed if report.halted else 0), r


def test_rounds_to_halt_needs_a_run():
    with pytest.raises(ValueError, match="repeats"):
        rounds_to_halt(ProtocolConfig(variant=variant()), 0)


@pytest.mark.parametrize("call", [
    lambda: monte_carlo(ProtocolConfig(variant=variant()), 0.5),
    lambda: detect_records(ProtocolConfig(variant=variant(intrusion=True)), 0.5),
    lambda: detect_records(ProtocolConfig(variant=variant(intrusion=True)), 200,
                           min_ok_rounds=2.5),
    lambda: rounds_to_halt(ProtocolConfig(variant=variant()), 0.5),
], ids=("monte_carlo-rounds", "detect-rounds", "detect-min_ok_rounds", "halt-repeats"))
def test_counts_are_integers(call):
    # A float count raises TypeError on entry.  Compared as it stood, 0.5
    # failed as a count below 1, and 2.5 ran and was reported as min_ok_rounds.
    with pytest.raises(TypeError):
        call()


def test_rounds_to_halt_is_public():
    assert frsim.rounds_to_halt is rounds_to_halt and "rounds_to_halt" in frsim.__all__
    assert all(hasattr(frsim, name) for name in frsim.__all__)


def test_monte_carlo_degenerate_branch_has_frequency_one():
    # Only the spin friend keeps a notebook: an intrusion after ok always
    # finds the spin up, so that sub-branch is deterministic.
    config = ProtocolConfig(variant=variant({"F"}, intrusion=True), seed=5)
    table = monte_carlo(config, 2000)
    ok_rounds = {k: c for k, c in table.counts.items() if k[0] == "ok"}
    assert ok_rounds
    assert set(ok_rounds) == {("ok", None, "up")}


def test_monte_carlo_converges_to_exact():
    config = ProtocolConfig(variant=variant(), seed=7)
    n = 20000
    table = monte_carlo(config, n)
    joint = enumerate_exact(variant())
    for key, p in joint.entries.items():
        se = np.sqrt(p * (1 - p) / n)
        assert abs(table.frequency(key) - p) < 4 * se


def test_frequency_table_validation_and_errors():
    with pytest.raises(ValueError):
        FrequencyTable(counts={("ok", "ok", None): 3}, total=5)
    table = FrequencyTable(counts={("ok", "ok", None): 3, ("fail", "fail", None): 7}, total=10)
    assert table.frequency(("ok", "ok", None)) == pytest.approx(0.3)
    assert table.std_error(("ok", "ok", None)) == pytest.approx(np.sqrt(0.3 * 0.7 / 10))


def test_a_frequency_table_needs_at_least_one_round():
    # Else every frequency would divide by zero.
    for total in (0, -1, float("nan")):
        with pytest.raises(ValueError, match="at least one round"):
            FrequencyTable({}, total)
    assert FrequencyTable({("ok", "ok", None): 1}, 1).frequency(("ok", "ok", None)) == 1.0


def test_z_scores_of_matching_run_are_small():
    config = ProtocolConfig(variant=variant(), seed=11)
    table = monte_carlo(config, 20000)
    scores = z_scores(table, enumerate_exact(variant()))
    assert all(abs(z) < 4 for z in scores.values())


def test_z_scores_flag_mismatched_distribution():
    config = ProtocolConfig(variant=variant({"Fbar", "F"}), seed=11)
    table = monte_carlo(config, 20000)
    scores = z_scores(table, enumerate_exact(variant()))
    assert max(abs(z) for z in scores.values()) > 10


def test_a_key_counted_at_probability_zero_has_no_z_score():
    exact = JointDistribution({("ok", "ok", None): 0.5, ("fail", "ok", None): 0.5})
    counted = FrequencyTable({("ok", "ok", None): 3, ("fail", "fail", None): 1}, 4)
    with pytest.raises(ValueError, match=r"\('fail', 'fail', None\) has frequency 0.25 at "
                                         r"exact probability 0.0: its z-score is infinite"):
        z_scores(counted, exact)
    # An uncounted key of probability 0, or a certain one always seen, scores 0.
    certain = JointDistribution({("ok", "ok", None): 1.0, ("fail", "ok", None): 0.0})
    assert z_scores(FrequencyTable({("ok", "ok", None): 4}, 4), certain) == {
        ("fail", "ok", None): 0.0, ("ok", "ok", None): 0.0}


def test_an_exact_probability_in_its_slack_has_a_z_score():
    # JointDistribution takes entries up to PROBABILITY_ATOL outside [0, 1];
    # each scores as its clamped value, with no root of a negative spread.
    exact = JointDistribution({("ok", "ok", None): 1 + 5e-11, ("fail", "ok", None): -5e-11})
    assert z_scores(FrequencyTable({("ok", "ok", None): 3}, 3), exact) == {
        ("fail", "ok", None): 0.0, ("ok", "ok", None): 0.0}
    counted = FrequencyTable({("ok", "ok", None): 3, ("fail", "ok", None): 1}, 4)
    with pytest.raises(ValueError, match=r"\('fail', 'ok', None\) has frequency 0.25 at "
                                         r"exact probability 0.0: its z-score is infinite"):
        z_scores(counted, exact)


# detect_records ---------------------------------------------------------------

def test_detection_finds_secret_record():
    config = ProtocolConfig(
        variant=variant({"Fbar"}, intrusion=True, cheat=True), seed=3
    )
    report = detect_records(config, 10000)
    assert report.decision == "record-detected"
    assert abs(report.observed_up_fraction - 1 / 3) < 0.02
    assert report.threshold < 1.0
    assert report.ok_rounds > 4000  # P(ok) = 1/2 with the secret notebook


def test_detection_reports_no_record_without_cheating():
    config = ProtocolConfig(variant=variant(intrusion=True), seed=3)
    report = detect_records(config, 10000)
    assert report.decision == "no-record"
    assert report.observed_up_fraction == 1.0
    assert report.threshold == 1.0


def test_detection_inconclusive_with_few_rounds():
    config = ProtocolConfig(
        variant=variant({"Fbar"}, intrusion=True, cheat=True), seed=3
    )
    report = detect_records(config, 10)
    assert report.decision == "inconclusive"
    assert report.threshold is None


def test_detection_decides_by_the_counts_not_the_bound(monkeypatch):
    # The exact bound can round to 1.0 when some ok round read down, as
    # binomial_upper_bound(9_999_999, 10**7, 1 - 1e-9) does: the verdict
    # must not read it.
    monkeypatch.setattr(analysis, "binomial_upper_bound", lambda *args: 1.0)
    config = ProtocolConfig(variant=variant({"Fbar"}, intrusion=True, cheat=True), seed=3)
    report = detect_records(config, 100)
    assert report.up_count < report.ok_rounds and report.threshold == 1.0
    assert report.decision == "record-detected"


def test_detection_requires_intrusion_variant():
    config = ProtocolConfig(variant=variant(), seed=3)
    with pytest.raises(ValueError):
        detect_records(config, 100)


@pytest.mark.parametrize("confidence", (0.0, 1.0, 1.5, -0.2, float("nan")))
def test_detection_rejects_confidence_outside_the_unit_interval(confidence):
    config = ProtocolConfig(variant=variant({"Fbar"}, intrusion=True, cheat=True), seed=3)
    with pytest.raises(ValueError, match="confidence"):
        detect_records(config, 100, confidence=confidence)


def test_detection_rejects_min_ok_rounds_below_one():
    config = ProtocolConfig(variant=variant(intrusion=True), seed=3)
    with pytest.raises(ValueError, match="min_ok_rounds"):
        detect_records(config, 1, min_ok_rounds=0)


def test_single_down_observation_is_logically_decisive():
    # With 40 post-selected rounds and a single down, the bound drops below 1.
    assert binomial_upper_bound(39, 40) < 1.0
    assert binomial_upper_bound(40, 40) == 1.0
    assert binomial_upper_bound(0, 40) < 0.2


@pytest.mark.parametrize("successes, trials, confidence", [
    (3, 10, 1.5), (3, 10, 0.0), (3, 10, 1.0), (3, 10, float("nan")),
    (-1, 10, 0.99), (12, 10, 0.99), (0, 0, 0.99),
])
def test_upper_bound_rejects_arguments_outside_its_domain(successes, trials, confidence):
    with pytest.raises(ValueError):
        binomial_upper_bound(successes, trials, confidence)


@pytest.mark.parametrize("successes, trials", [(0.5, 1), (2, 3.5)],
                         ids=("float-successes", "float-trials"))
def test_upper_bound_takes_integer_counts(successes, trials):
    # Truncated, they would bound 0 of 1 and 2 of 3.
    with pytest.raises(TypeError):
        binomial_upper_bound(successes, trials)


BOUND_RTOL = 1e-12


def lower_tail_exceeds(successes, trials, p, level):
    """Whether P(X <= successes) > level for X ~ Binomial(trials, p), in exact arithmetic."""
    a, d = p.as_integer_ratio()
    b = d - a
    term = total = b ** trials  # C(n, k) a^k b^(n - k) for k = 0
    for k in range(1, successes + 1):
        term = term * (trials - k + 1) * a // (k * b)
        total += term
    return Fraction(total, d ** trials) > level


# (999, 9999, 0.999999): scipy's beta.ppf is 4.9e-12 off the exact root there.
@pytest.mark.parametrize("successes, trials, confidence", [
    (0, 1, 0.5), (3, 10, 0.999999), (39, 40, 0.99), (999, 9999, 0.999999),
])
def test_upper_bound_brackets_the_exact_root(successes, trials, confidence):
    bound = binomial_upper_bound(successes, trials, confidence)
    level = 1 - Fraction(confidence)
    assert lower_tail_exceeds(successes, trials, bound * (1 - BOUND_RTOL), level)
    assert not lower_tail_exceeds(successes, trials, bound * (1 + BOUND_RTOL), level)


def test_upper_bound_matches_scipy_beta_quantile():
    stats = pytest.importorskip("scipy.stats")
    for trials in (1, 2, 3, 7, 40, 333, 4951, 10000):
        for successes in sorted({0, 1, trials // 3, trials // 2, trials - 1} - {trials}):
            for confidence in (0.5, 0.9, 0.99, 0.999999):
                expected = stats.beta.ppf(confidence, successes + 1, trials - successes)
                bound = binomial_upper_bound(successes, trials, confidence)
                assert bound == pytest.approx(expected, rel=BOUND_RTOL, abs=0), (
                    successes, trials, confidence)


# The bound as plain bisection, verbatim from before its Newton bracket: the
# reference that binomial_upper_bound must equal bit for bit.

def bisection_upper_bound(successes: int, trials: int, confidence: float = 0.99) -> float:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie strictly between 0 and 1, got {confidence}")
    if successes == trials:
        return 1.0
    log_tail = bisection_log_tail(successes, trials)
    target = log1p(-confidence)
    lo, hi = 0.0, 1.0  # the tail falls from 1 at p = 0 to 0 at p = 1
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if log_tail(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def bisection_log_tail(x: int, n: int):
    m = min(x, n - x)
    i = np.arange(1.0, m + 1)
    log_choose = fsum(np.log((n - m + i) / i))  # log C(n, x)
    k = np.arange(float(x), 0.0, -1.0)
    # log C(n, x - j) - log C(n, x), for j = 0..x
    log_ratio = np.concatenate(([0.0], np.cumsum(np.log(k / (n - k + 1)))))
    j = np.arange(x + 1.0)

    def log_tail(p: float) -> float:
        log_p, log_q = log(p), log1p(-p)
        z = log_ratio + j * (log_q - log_p)  # log term(x - j) - log term(x)
        top = z.max()
        return log_choose + x * log_p + (n - x) * log_q + top + log(np.exp(z - top).sum())

    return log_tail


def bisection_evaluations(successes, trials, bound):
    """The tail evaluations plain bisection makes to end on ``bound``.

    Its path is fixed by where it ends: a mid goes to ``lo`` exactly when it
    lies below the final ``hi``.
    """
    if successes == trials:
        return 0
    lo, hi, evaluations = 0.0, 1.0, 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        evaluations += 1
        if mid < bound:
            lo = mid
        else:
            hi = mid
    return evaluations


def count_tail_evaluations(monkeypatch):
    """Count every call of the tail function binomial_upper_bound builds."""
    calls = [0]
    build = analysis._log_binomial_tail

    def counted_build(x, n):
        log_tail = build(x, n)

        def counted(p):
            calls[0] += 1
            return log_tail(p)

        return counted

    monkeypatch.setattr(analysis, "_log_binomial_tail", counted_build)
    return calls


SMALL_INPUTS = tuple(
    (successes, trials, confidence)
    for trials in range(1, 41)
    for successes in range(trials + 1)
    for confidence in (0.5, 0.9, 0.99, 0.999999)
)


def test_upper_bound_is_the_bisection_on_every_small_input(monkeypatch):
    """Every (x, n) with n <= 40: the bisection's bits, in at most 10 more
    tail evaluations (the Newton phase and its probes when they verify
    nothing)."""
    calls = count_tail_evaluations(monkeypatch)
    for successes, trials, confidence in SMALL_INPUTS:
        calls[0] = 0
        bound = binomial_upper_bound(successes, trials, confidence)
        assert bound == bisection_upper_bound(successes, trials, confidence), (
            successes, trials, confidence)
        assert (bound < 1.0) == (successes < trials), (successes, trials, confidence)
        assert calls[0] <= bisection_evaluations(successes, trials, bound) + 10, (
            successes, trials, confidence)


def _large_inputs(count):
    """A fixed sample of (x, n) with n from 1000 to 200 000, log-uniform,
    cycling through confidences from 1e-6 to 1 - 1e-9."""
    rng = random.Random(20_000)
    confidences = (1e-6, 0.5, 0.99, 1 - 1e-9)
    inputs = []
    for index in range(count):
        trials = int(10 ** rng.uniform(3, np.log10(200_000)))
        inputs.append((rng.randint(0, trials), trials, confidences[index % len(confidences)]))
    return inputs


@pytest.mark.parametrize("successes, trials, confidence", [
    pytest.param(1667, 4951, 0.99, id="cli-golden"),
    pytest.param(1012, 2952, 0.99, id="sampled-rounds"),
    pytest.param(0, 200_000, 1e-6, id="none-of-200000"),
    pytest.param(4999, 5000, 1 - 1e-9, id="all-but-one-of-5000"),
    *_large_inputs(8),
])
def test_upper_bound_is_the_bisection_on_large_inputs(successes, trials, confidence):
    bound = binomial_upper_bound(successes, trials, confidence)
    assert bound == bisection_upper_bound(successes, trials, confidence)
    assert (bound < 1.0) == (successes < trials)


def test_upper_bound_takes_few_tail_evaluations(monkeypatch):
    # The CLI golden's input, where plain bisection evaluates the tail 54 times.
    calls = count_tail_evaluations(monkeypatch)
    bound = binomial_upper_bound(1667, 4951, 0.99)
    assert bisection_evaluations(1667, 4951, bound) == 54
    assert calls[0] <= 24


@pytest.mark.parametrize("successes, trials", [(0, 1), (0, 10)])
def test_upper_bound_at_a_tiny_confidence_takes_few_tail_evaluations(monkeypatch, successes,
                                                                     trials):
    # The root lies near 1e-300, where a Newton step cancels to 0.  Halving
    # the bracket there took 883 and 892 tail evaluations, one per exponent;
    # bisecting it in bits takes 22 and 21, with the same bits.
    calls = count_tail_evaluations(monkeypatch)
    bound = binomial_upper_bound(successes, trials, 1e-300)
    assert calls[0] <= 30
    assert bound == bisection_upper_bound(successes, trials, 1e-300)


def test_upper_bound_runs_newton_without_a_step_cap(monkeypatch):
    # Newton runs until a point meets its margin or its bracket closes.  Capped
    # at 8 steps, it left this input to the replay: 50 tail evaluations.
    calls = count_tail_evaluations(monkeypatch)
    binomial_upper_bound(39, 40, 0.99)
    assert calls[0] <= 24


# Sampled detection counts against their exact rates.  Each check is a
# two-sided Clopper-Pearson test at DETECTION_ALPHA, built from analysis' own
# bound.  The family holds 20 such checks (the ok count of all 12 intrusion
# variants, the up count of the 8 with a record) plus 4 equalities that a
# correct sampler always passes (no record: every ok round reads up).  So a
# correct sampler fails on a fresh seed with probability at most
# 20 * 1e-6 = 2e-5 (Bonferroni).  DETECTION_SEED is fixed and never re-chosen.
DETECTION_ALPHA = 1e-6
DETECTION_SEED = 1


def clopper_pearson(successes, trials, alpha):
    """Two-sided Clopper-Pearson interval at level 1 - alpha."""
    upper = binomial_upper_bound(successes, trials, 1 - alpha / 2)
    lower = 1 - binomial_upper_bound(trials - successes, trials, 1 - alpha / 2)
    return lower, upper


@pytest.mark.parametrize("v", [v for v in ALL_VARIANTS if v.intrusion], ids=variant_id)
def test_detection_counts_agree_with_the_exact_rates(v):
    exact = enumerate_exact(v)
    report = detect_records(ProtocolConfig(variant=v, seed=DETECTION_SEED), 20_000)
    lower, upper = clopper_pearson(report.ok_rounds, report.rounds, DETECTION_ALPHA)
    assert lower <= exact.marginal_wbar("ok") <= upper
    up = exact.conditional_intrusion("up")
    assert up in (1.0, pytest.approx(1 / 3, abs=EXACT_ATOL))
    if up == 1.0:
        assert report.up_count == report.ok_rounds
    else:
        lower, upper = clopper_pearson(report.up_count, report.ok_rounds, DETECTION_ALPHA)
        assert lower <= up <= upper


def verdict_probabilities(q, r, n, min_ok_rounds):
    """Exact P(inconclusive), P(no-record) and P(record-detected) of a run of
    ``n`` rounds, each ok with probability ``q``, where an ok round reads up
    with probability ``r``.  The ok count M is Binomial(n, q); a run with
    M >= min_ok_rounds is "no-record" when all M ok rounds read up."""
    ok = [comb(n, m) * q**m * (1 - q) ** (n - m) for m in range(n + 1)]
    inconclusive = sum(ok[:min_ok_rounds])
    no_record = sum(ok[m] * r**m for m in range(min_ok_rounds, n + 1))
    return inconclusive, no_record, 1 - inconclusive - no_record


def test_verdict_probabilities_in_closed_form():
    assert verdict_probabilities(Fraction(1, 2), Fraction(1, 3), 4, 1) == (
        Fraction(1, 16), Fraction(175, 1296), Fraction(65, 81))
    for q in (Fraction(1, 6), Fraction(1, 2)):
        assert verdict_probabilities(q, Fraction(1), 4, 1)[2] == 0


# Sampled verdicts of 4-round runs over the fixed seeds VERDICT_SEEDS, never
# re-chosen, with and without the secret record.  Each verdict count of
# nonzero exact rate gets a two-sided Clopper-Pearson test at DETECTION_ALPHA:
# 5 tests, so a correct sampler fails the family with probability at most
# 5 * 1e-6 = 5e-6 (Bonferroni).  Without a record no run reads
# "record-detected", an equality that a correct sampler always passes.
VERDICT_SEEDS = range(1200)
VERDICTS = ("inconclusive", "no-record", "record-detected")


@pytest.mark.parametrize("record", (True, False), ids=("with-record", "without-record"))
def test_sampled_verdicts_agree_with_their_exact_rates(record):
    v = variant({"Fbar"}, intrusion=True, cheat=True) if record else variant(intrusion=True)
    q, r = (Fraction(1, 2), Fraction(1, 3)) if record else (Fraction(1, 6), Fraction(1))
    exact = enumerate_exact(v)
    assert exact.marginal_wbar("ok") == pytest.approx(q, abs=EXACT_ATOL)
    assert exact.conditional_intrusion("up") == pytest.approx(r, abs=EXACT_ATOL)
    counts = Counter(detect_records(ProtocolConfig(variant=v, seed=seed), 4,
                                    min_ok_rounds=1).decision for seed in VERDICT_SEEDS)
    for verdict, rate in zip(VERDICTS, verdict_probabilities(q, r, 4, 1)):
        if rate == 0:
            assert counts[verdict] == 0, counts
        else:
            lower, upper = clopper_pearson(counts[verdict], len(VERDICT_SEEDS), DETECTION_ALPHA)
            assert lower <= rate <= upper, (verdict, counts)
