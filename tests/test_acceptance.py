"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import contextlib
import time
from fractions import Fraction

import numpy as np

import exact_oracle
from frsim.analysis import enumerate_exact, monte_carlo
from frsim.cli import main as cli_main
from frsim.measurement import (
    branch_all,
    outcome_probability,
    premeasure,
    record_copy,
)
from frsim.perspectives import (
    AGENTS,
    Given,
    PerspectiveLimit,
    agent_model_at,
    certainty_query,
)
from frsim.protocol import (
    ProtocolConfig,
    ProtocolVariant,
    round_rng,
    run_round,
    run_until_halt,
    state_after_preparation,
)
from frsim.reference import load_reference_states
from frsim.systems import (
    BY_NAME,
    N,
    NBAR,
    R,
    W,
    WBAR,
    coin_lab_basis,
    level_basis,
    record_basis,
    spin_lab_basis,
)
from frsim.tensor import RegisterLayout, equal_up_to_global_phase, product_state
from variants import ALL_NOTEBOOK_SETS

EXACT_ATOL = 1e-10


def _wbar_ok(exact: dict) -> Fraction:
    """P(wbar = ok) of an exact joint."""
    return sum(p for key, p in exact.items() if key[0] == "ok")


DYNAMICS_VARIANTS = tuple(
    ProtocolVariant(announce_wbar=False, notebooks=notebooks, intrusion=intrusion)
    for notebooks in ALL_NOTEBOOK_SETS
    for intrusion in (False, True)
)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL: {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS: {description}")


def test_criterion_1_exact_joint_distribution():
    with criterion(1, "exact joint distribution without notebooks, under 1 s"):
        start = time.perf_counter()
        joint = enumerate_exact(ProtocolVariant(announce_wbar=False))
        elapsed = time.perf_counter() - start
        expected = {
            ("fail", "fail", None): 3 / 4,
            ("fail", "ok", None): 1 / 12,
            ("ok", "fail", None): 1 / 12,
            ("ok", "ok", None): 1 / 12,
        }
        assert set(joint.entries) == set(expected)
        for key, p in expected.items():
            assert abs(joint.entries[key] - p) < EXACT_ATOL
        assert elapsed < 1.0


def test_criterion_2_marginal_and_conditional():
    with criterion(2, "P(coin ok) = 1/6 and P(spin ok | coin ok) = 1/2"):
        joint = enumerate_exact(ProtocolVariant(announce_wbar=False))
        assert abs(joint.marginal_wbar("ok") - 1 / 6) < EXACT_ATOL
        assert abs(joint.conditional_w("ok", "ok") - 1 / 2) < EXACT_ATOL


def test_criterion_3_golden_state_suite():
    refs = load_reference_states()
    with criterion(3, f"all {len(refs)} reference descriptions reproduced, under 1 s"):
        start = time.perf_counter()
        for ref in refs:
            derived = agent_model_at(ref.agent, ref.time, ref.given, ref.variant).state
            assert equal_up_to_global_phase(derived, ref.state, tol=1e-10), ref.tag
        elapsed = time.perf_counter() - start
        assert len(refs) >= 20
        assert elapsed < 1.0


def test_criterion_4_record_effect_on_spin():
    with criterion(4, "P(spin up | coin ok) = 1, 1/3, 1/3, 1 across notebook subsets"):
        expected = []
        for notebooks in (frozenset(), frozenset({"Fbar", "F"}), frozenset({"Fbar"}),
                          frozenset({"F"})):
            exact = exact_oracle.joint(notebooks, True)
            expected.append(exact[("ok", None, "up")] / _wbar_ok(exact))
            joint = enumerate_exact(
                ProtocolVariant(announce_wbar=False, notebooks=notebooks, intrusion=True)
            )
            assert abs(joint.conditional_intrusion("up") - expected[-1]) < EXACT_ATOL
        assert expected == [1, Fraction(1, 3), Fraction(1, 3), 1]


def test_criterion_5_notebook_halting_against_the_exact_oracle():
    with criterion(5, "both notebooks: P(coin ok) = 1/2, P(both ok) = 1/4 vs exact oracle"):
        joint = enumerate_exact(
            ProtocolVariant(announce_wbar=False, notebooks=frozenset({"Fbar", "F"}))
        )
        exact = exact_oracle.joint(frozenset({"Fbar", "F"}), False)
        exact_marginal, exact_joint = _wbar_ok(exact), exact[("ok", "ok", None)]
        assert (exact_marginal, exact_joint) == (Fraction(1, 2), Fraction(1, 4))
        assert abs(joint.marginal_wbar("ok") - exact_marginal) < EXACT_ATOL
        assert abs(joint.joint_wbar_w("ok", "ok") - exact_joint) < EXACT_ATOL


def test_criterion_6_monte_carlo_convergence(capsys):
    with criterion(6, "120000-round frequencies within 0.005 of exact, all variants, "
                      "byte-identical reports, under 60 s"):
        start = time.perf_counter()
        n = 120_000
        for variant in DYNAMICS_VARIANTS:
            config = ProtocolConfig(variant=variant, seed=20260810)
            table = monte_carlo(config, n)
            exact = enumerate_exact(variant)
            for key in set(table.counts) | set(exact.entries):
                assert abs(table.frequency(key) - exact.probability(key)) < 0.005, (
                    variant, key
                )
        # Byte-identical document for a repeated seed, at full size.
        argv = ["run", "--rounds", str(n), "--seed", "77"]
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second and len(first) > 0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0


def test_criterion_7_rounds_to_halt():
    with criterion(7, "mean rounds-to-halt over 2000 repetitions within 12 +/- 0.8"):
        config = ProtocolConfig(variant=ProtocolVariant(), seed=314159, max_rounds=10000)
        lengths = []
        for repeat in range(2000):
            report = run_until_halt(config, stream=(repeat,))
            assert report.halted
            lengths.append(report.rounds_executed)
        mean = float(np.mean(lengths))
        assert 11.2 <= mean <= 12.8, mean


def test_criterion_8_certainty_queries():
    with criterion(8, "notebook certainty: coin entry certain-yes, spin entry 1/3"):
        coin_note = ProtocolVariant(announce_wbar=False, notebooks=frozenset({"Fbar"}))
        model = agent_model_at("F", 1, Given(s="up"), coin_note)
        verdict = certainty_query(model, record_basis(NBAR), "t")
        assert verdict.classification == "certain-yes"
        assert abs(verdict.probability - 1.0) < EXACT_ATOL

        both = ProtocolVariant(announce_wbar=False, notebooks=frozenset({"Fbar", "F"}))
        observer = agent_model_at("Wbar", 2, Given(wbar="ok"), both)
        verdict = certainty_query(observer, record_basis(N), "up")
        assert verdict.classification == "uncertain"
        assert abs(verdict.probability - 1 / 3) < EXACT_ATOL


def test_criterion_9_perspective_limits():
    with criterion(9, "self-measurement limits exactly at (coin friend, t>=2) and "
                      "(spin friend, t=3)"):
        limited = set()
        given = Given(r="t", s="up", wbar="ok", w="ok")
        for agent in AGENTS:
            for t in (0, 1, 2, 3):
                try:
                    state = agent_model_at(agent, t, given, ProtocolVariant()).state
                    assert abs(state.norm - 1.0) < 1e-12
                except PerspectiveLimit:
                    limited.add((agent, t))
        assert limited == {("Fbar", 2), ("Fbar", 3), ("F", 3)}


def _assert_zero_residual_everywhere(variant):
    """Every reachable sampled state leaves zero probability outside ok/fail."""
    prepared = premeasure(state_after_preparation(variant), coin_lab_basis(), WBAR)
    coin_branches = branch_all(prepared, record_basis(WBAR))
    assert abs(sum(b.probability for b in coin_branches) - 1.0) < 1e-12
    for branch in coin_branches:
        if branch.probability <= 0.0:
            continue
        if variant.intrusion and branch.label == "ok":
            continue
        lab = premeasure(branch.post_state, spin_lab_basis(), W)
        spin_branches = branch_all(lab, record_basis(W))
        assert abs(sum(b.probability for b in spin_branches) - 1.0) < 1e-12


def test_criterion_10_property_suites():
    with criterion(10, "completeness, repeatability, residual-free sampling, copy "
                       "unitarity, announcement invariance"):
        # Branch completeness and repeatability on every reference description
        # whose lab has already been written (a ready friend memory lies
        # outside the ok/fail span by construction).
        for ref in load_reference_states():
            for basis, memory in ((coin_lab_basis(), "Fbar"), (spin_lab_basis(), "F")):
                if not set(basis.target_names) <= set(ref.state.layout.names):
                    continue
                ready_weight = outcome_probability(
                    ref.state, level_basis(BY_NAME[memory]), "ready"
                )
                if ready_weight > 1e-12:
                    continue
                branches = branch_all(ref.state, basis)
                assert abs(sum(b.probability for b in branches) - 1.0) < 1e-10
                for branch in branches:
                    if branch.probability <= 0.0:
                        continue
                    again = {
                        b.label: b.probability
                        for b in branch_all(branch.post_state, basis)
                    }
                    assert abs(again[branch.label] - 1.0) < 1e-10

        # The residual branch never fires: exhaustively over every reachable
        # branch state, for the sampled paths of 10^5 rounds, and for a
        # reference-path sample that re-derives the branches each round.
        for variant in DYNAMICS_VARIANTS:
            _assert_zero_residual_everywhere(variant)
        config = ProtocolConfig(variant=ProtocolVariant(announce_wbar=False), seed=8)
        monte_carlo(config, 100_000)  # ResidualError would propagate
        for k in range(400):
            run_round(config.variant, round_rng(8, k), k)

        # Record copies are unitary on ready targets.
        layout = RegisterLayout((R, NBAR))
        rng = np.random.default_rng(12)
        for _ in range(50):
            coin = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = product_state(
                layout, {"R": coin / np.linalg.norm(coin), "Nbar": "ready"}
            )
            copied = record_copy(state, R, NBAR)
            assert abs(copied.norm - 1.0) < 1e-12

        # Announcements do not change the sampled dynamics.
        for notebooks in ALL_NOTEBOOK_SETS:
            for intrusion in (False, True):
                secret = enumerate_exact(
                    ProtocolVariant(announce_wbar=False, notebooks=notebooks,
                                    intrusion=intrusion)
                )
                announced = enumerate_exact(
                    ProtocolVariant(announce_wbar=True, notebooks=notebooks,
                                    intrusion=intrusion)
                )
                assert secret.entries == announced.entries
