from fractions import Fraction

import numpy as np
import pytest

import hand_oracle
from frsim.analysis import (
    FrequencyTable,
    JointDistribution,
    binomial_upper_bound,
    detect_records,
    enumerate_exact,
    monte_carlo,
    z_scores,
)
from frsim.protocol import ProtocolConfig, ProtocolVariant, compiled_round, round_rng

EXACT_ATOL = 1e-10

ALL_NOTEBOOK_SETS = (
    frozenset(),
    frozenset({"Fbar"}),
    frozenset({"F"}),
    frozenset({"Fbar", "F"}),
)


def variant(notebooks=frozenset(), announce=False, intrusion=False, cheat=False):
    return ProtocolVariant(
        announce_wbar=announce, notebooks=frozenset(notebooks), cheat=cheat,
        intrusion=intrusion,
    )


# enumerate_exact against the hand-expanded trees ------------------------------

def test_exact_joint_no_notebooks_matches_hand_expansion():
    joint = enumerate_exact(variant())
    terms = hand_oracle.plain_round_terms()
    expected = {
        ("fail", "fail", None): hand_oracle.joint_probability(terms, "fail", "fail"),
        ("fail", "ok", None): hand_oracle.joint_probability(terms, "fail", "ok"),
        ("ok", "fail", None): hand_oracle.joint_probability(terms, "ok", "fail"),
        ("ok", "ok", None): hand_oracle.joint_probability(terms, "ok", "ok"),
    }
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


def test_exact_joint_both_notebooks_matches_hand_expansion():
    joint = enumerate_exact(variant({"Fbar", "F"}))
    terms = hand_oracle.notebook_round_terms(True, True)
    assert joint.marginal_wbar("ok") == pytest.approx(
        hand_oracle.coin_lab_probability(terms, "ok"), abs=EXACT_ATOL
    )
    assert joint.marginal_wbar("ok") == pytest.approx(0.5, abs=EXACT_ATOL)
    assert joint.joint_wbar_w("ok", "ok") == pytest.approx(
        hand_oracle.joint_probability(terms, "ok", "ok"), abs=EXACT_ATOL
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
    coin_note = "Fbar" in notebooks
    spin_note = "F" in notebooks
    terms = (
        hand_oracle.plain_round_terms()
        if not notebooks
        else hand_oracle.notebook_round_terms(coin_note, spin_note)
    )
    assert joint.conditional_intrusion("up") == pytest.approx(
        hand_oracle.spin_up_probability_given_coin(terms, "ok"), abs=EXACT_ATOL
    )


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


def test_joint_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution({("ok", "ok", None): 0.5})
    with pytest.raises(ValueError):
        JointDistribution({("ok", "ok", None): 1.5, ("ok", "fail", None): -0.5})


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
    seed, stream = 2**32 + 5, (3,)
    sampler = compiled_round(variant)
    expected: dict = {}
    for k in range(rounds):
        key = sampler.draw(round_rng(seed, *stream, k), k).key()
        expected[key] = expected.get(key, 0) + 1
    table = monte_carlo(ProtocolConfig(variant=variant, seed=seed), rounds, stream)
    assert table.counts == expected and table.total == rounds


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
