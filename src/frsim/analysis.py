"""Exact branch enumeration, Monte Carlo statistics, and record detection.

:func:`enumerate_exact` reads the exact distribution off the round's
compiled branch tree, the same tree the sampler draws from, and is the
verification oracle for every sampled statistic.  :func:`monte_carlo`
produces empirical frequency tables from independent seeded rounds.
:func:`detect_records` runs the interaction-free detection experiment: it
post-selects rounds where the coin lab reported ``ok``, measures the spin
directly, and decides from the up-fraction whether a hidden record of the
coin outcome exists inside the coin lab.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, log, log1p, sqrt

import numpy as np

from .measurement import branch_all  # noqa: F401  (perfbench/test_benchmark.py traces it here)
from .protocol import (
    OutcomeKey,
    ProtocolConfig,
    ProtocolVariant,
    compiled_round,
    stream_uniforms,
)

PROBABILITY_ATOL = 1e-10

# Rounds sampled per block by monte_carlo, and (run, round) pairs per block
# by rounds_to_halt: the block's uniforms and tree walk take about 1 MiB,
# however many rounds or runs are asked for.
ROUND_CHUNK = 4096

# rounds_to_halt samples this many rounds of every run still going at once.
# A run halts within a window with probability 1 - (11/12)**8 = 0.50 or more;
# for 2000 runs a window of 16 rounds costs about a quarter more, one of 64
# three times as much.
HALT_WINDOW = 8


@dataclass(frozen=True)
class JointDistribution:
    """Exact probabilities over round outcome keys."""

    entries: dict[OutcomeKey, float]

    def __post_init__(self) -> None:
        for key, p in self.entries.items():
            if p < -PROBABILITY_ATOL:
                raise ValueError(f"negative probability {p} for {key}")
        total = sum(self.entries.values())
        if abs(total - 1.0) > PROBABILITY_ATOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def probability(self, key: OutcomeKey) -> float:
        return self.entries.get(key, 0.0)

    def marginal_wbar(self, label: str) -> float:
        return sum(p for key, p in self.entries.items() if key[0] == label)

    def joint_wbar_w(self, wbar: str, w: str) -> float:
        return sum(p for key, p in self.entries.items() if key[0] == wbar and key[1] == w)

    def conditional_w(self, w: str, given_wbar: str) -> float:
        return self.joint_wbar_w(given_wbar, w) / self.marginal_wbar(given_wbar)

    def conditional_intrusion(self, outcome: str) -> float:
        """Probability of the direct spin reading that follows a ``wbar`` ok."""
        joint = sum(p for key, p in self.entries.items() if key[0] == "ok" and key[2] == outcome)
        return joint / self.marginal_wbar("ok")


@dataclass(frozen=True)
class FrequencyTable:
    """Empirical counts over round outcome keys."""

    counts: dict[OutcomeKey, int]
    total: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to the round total")

    def frequency(self, key: OutcomeKey) -> float:
        return self.counts.get(key, 0) / self.total

    def std_error(self, key: OutcomeKey) -> float:
        p = self.frequency(key)
        return sqrt(p * (1.0 - p) / self.total)


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of the interaction-free record-detection experiment.

    ``threshold`` is the one-sided upper confidence bound on the probability
    of seeing the spin up given an ``ok`` coin-lab outcome.  Without any
    record that probability is exactly 1, so a bound strictly below 1 means a
    record must exist inside the coin lab.
    """

    rounds: int
    ok_rounds: int
    up_count: int
    observed_up_fraction: float | None
    predicted_up_fraction_no_record: float
    threshold: float | None
    confidence: float
    min_ok_rounds: int
    decision: str


def enumerate_exact(variant: ProtocolVariant) -> JointDistribution:
    """Exact joint distribution over the round's sampled measurements.

    Read off the leaves of the compiled branch tree (:func:`compiled_round`),
    each a product of exact Born probabilities.  No randomness is involved.
    """
    return JointDistribution(dict(compiled_round(variant).joint))


def monte_carlo(
    config: ProtocolConfig,
    rounds: int,
    stream: tuple[int, ...] = (),
) -> FrequencyTable:
    """Frequencies over ``rounds`` independent rounds (no halting).

    Round ``k`` uses the substream keyed by ``(seed, *stream, k)``, so the
    table is deterministic per seed and rounds can be partitioned across
    workers without changing the result.  Rounds are sampled in blocks of
    ``ROUND_CHUNK`` (:meth:`RoundSampler.leaf_counts`), with the same
    uniforms and the same outcomes as one ``draw`` per round.  Round indices
    stop below 2**64, so more rounds are rejected before any is sampled.
    """
    if not 1 <= rounds <= 2**64:
        raise ValueError(f"rounds must lie in [1, 2**64], got {rounds}")
    sampler = compiled_round(config.variant)
    leaf_counts = sum(
        sampler.leaf_counts(config.seed, stream, start, min(start + ROUND_CHUNK, rounds))
        for start in range(0, rounds, ROUND_CHUNK)
    )
    counts = {key: int(n) for key, n in zip(sampler.leaves, leaf_counts) if n}
    return FrequencyTable(counts=counts, total=rounds)


def rounds_to_halt(config: ProtocolConfig, repeats: int) -> np.ndarray:
    """Rounds each of ``repeats`` until-halt runs took to halt, 0 for a run
    that reached ``config.max_rounds`` without halting.

    Entry ``r`` is ``run_until_halt(config, stream=(r,)).rounds_executed``
    when that run halts: round ``k`` of run ``r`` uses the substream keyed by
    ``(seed, r, k)``.  Every run still going is sampled ``HALT_WINDOW`` rounds
    at a time (:func:`stream_uniforms`, :meth:`RoundSampler.walk`); a run's
    first halting leaf in the window ends it.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    sampler = compiled_round(config.variant)
    lengths = np.zeros(repeats, dtype=np.int64)
    if not sampler.halting.any():  # an intrusion round ends before W measures
        return lengths
    going = np.arange(repeats, dtype=np.uint64)
    rows = ROUND_CHUNK // HALT_WINDOW  # runs per kernel call
    for start in range(0, config.max_rounds, HALT_WINDOW):
        stop = min(start + HALT_WINDOW, config.max_rounds)
        still = []
        for first in range(0, len(going), rows):
            runs = going[first:first + rows]
            uniforms = stream_uniforms(config.seed, runs, start, stop, sampler.depth)
            halts = sampler.halting[sampler.walk(uniforms.reshape(-1, sampler.depth))]
            halts = halts.reshape(len(runs), stop - start)
            halted = halts.any(axis=1)
            lengths[runs[halted]] = start + 1 + halts[halted].argmax(axis=1)
            still.append(runs[~halted])
        going = np.concatenate(still)
        if not len(going):
            break
    return lengths


def z_scores(table: FrequencyTable, exact: JointDistribution) -> dict[OutcomeKey, float]:
    """Standardized deviations of empirical frequencies from exact values."""
    out: dict[OutcomeKey, float] = {}
    keys = set(table.counts) | set(exact.entries)
    for key in sorted(keys, key=str):
        p = exact.probability(key)
        se = sqrt(p * (1.0 - p) / table.total)
        diff = table.frequency(key) - p
        out[key] = diff / se if se > 0 else (0.0 if diff == 0 else float("inf"))
    return out


def binomial_upper_bound(successes: int, trials: int, confidence: float = 0.99) -> float:
    """One-sided Clopper-Pearson upper confidence bound for a proportion.

    The bound is the ``p`` at which at most ``successes`` in ``trials`` has
    probability ``1 - confidence`` (Clopper & Pearson, Biometrika 1934),
    i.e. the ``confidence`` quantile of Beta(successes + 1, trials - successes).
    It is found by bisection on the exact binomial lower tail, evaluated in
    log space, and is 1 when every trial succeeded.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie strictly between 0 and 1, got {confidence}")
    if successes == trials:
        return 1.0
    log_tail = _log_binomial_tail(successes, trials)
    target = log1p(-confidence)
    lo, hi = 0.0, 1.0  # the tail falls from 1 at p = 0 to 0 at p = 1
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if log_tail(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def _log_binomial_tail(x: int, n: int):
    """``p -> log P(X <= x)`` for ``X ~ Binomial(n, p)`` and ``0 < p < 1``.

    Every term is taken relative to the ``k = x`` term, whose log binomial
    coefficient is a sum of small logs added exactly (``fsum``), so no large
    lgamma values cancel.
    """
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


def detect_records(
    config: ProtocolConfig,
    rounds: int,
    confidence: float = 0.99,
    min_ok_rounds: int = 30,
) -> DetectionReport:
    """Run the detection experiment and decide whether a record exists.

    Requires the intrusion variant.  Among rounds whose coin-lab outcome was
    ``ok``, the spin is found up with probability 1 when no coin record
    exists and with probability 1/3 when one does, so any observed ``down``
    is decisive; the confidence bound quantifies it.
    """
    if not config.variant.intrusion:
        raise ValueError("record detection requires the intrusion variant")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie strictly between 0 and 1, got {confidence}")
    if min_ok_rounds < 1:
        raise ValueError(f"min_ok_rounds must be at least 1, got {min_ok_rounds}")
    table = monte_carlo(config, rounds)
    # Post-selected ok rounds, by the intrusion's direct spin reading.
    spins = {key[2]: n for key, n in table.counts.items() if key[0] == "ok" and key[2]}
    ok_rounds, up_count = sum(spins.values()), spins.get("up", 0)
    if ok_rounds < min_ok_rounds:
        fraction, bound, decision = None, None, "inconclusive"
    else:
        fraction = up_count / ok_rounds
        bound = binomial_upper_bound(up_count, ok_rounds, confidence)
        decision = "record-detected" if bound < 1.0 else "no-record"
    return DetectionReport(
        rounds=rounds,
        ok_rounds=ok_rounds,
        up_count=up_count,
        observed_up_fraction=fraction,
        predicted_up_fraction_no_record=1.0,
        threshold=bound,
        confidence=confidence,
        min_ok_rounds=min_ok_rounds,
        decision=decision,
    )
