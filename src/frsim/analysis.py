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
from math import exp, fsum, log, log1p, sqrt
from operator import index

import numpy as np

from .measurement import branch_all  # noqa: F401  (perfbench/test_benchmark.py traces it here)
from .protocol import (
    JointDistribution,
    OutcomeKey,
    ProtocolConfig,
    ProtocolVariant,
    compiled_round,
    grid_uniforms,
)

# Rounds sampled per block by monte_carlo, and (run, round) pairs per block
# by rounds_to_halt: the block's uniforms and tree walk take about 1 MiB,
# however many rounds or runs are asked for.
ROUND_CHUNK = 4096

# rounds_to_halt's first window of rounds.  A run halts within it with
# probability 1 - (11/12)**8 = 0.50 or more.  A kernel call of 16 pairs
# costs about 0.17 ms and one of 4096 about 0.43 ms (2 cores): its fixed
# cost is that of about ROUND_CHUNK / 2 pairs.  So a window doubles while
# the doubled window's pairs fit in ROUND_CHUNK times the chance that some
# run still going outlasts the window, the chance of the next call that
# doubling saves.  `frsim run --until-halt --repeats 2000 --seed 7` makes
# 10 calls, where fixed windows of 8 rounds made 16; a single such run
# samples 64 rounds a call, where a window filling ROUND_CHUNK sampled 4096.
HALT_WINDOW = 8

# binomial_upper_bound's rounding margin for one evaluation of the log tail:
# this many machine epsilons per unit of the sum of the absolute values of
# the terms the evaluation adds.  A bisection mid is skipped only past a
# point that clears the target by more than its margin.  Against a 160-bit
# sum, the evaluation's error within a relative 3e-10 of the root stayed
# under 0.83 of these units on 120 seeded inputs (n up to 40 000); at 600
# random points of 300 inputs it reached 5.04.
TAIL_MARGIN = 8 * np.finfo(float).eps  # a search rule, not an invariant: nothing raises on it


@dataclass(frozen=True)
class FrequencyTable:
    """Empirical counts over round outcome keys, of at least one round (else
    ValueError)."""

    counts: dict[OutcomeKey, int]
    total: int

    def __post_init__(self) -> None:
        if not self.total >= 1:
            raise ValueError(f"a frequency table needs at least one round, got {self.total}")
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

    ``decision`` reads the counts: ``"record-detected"`` when some of at least
    ``min_ok_rounds`` ok rounds read down, else ``"no-record"``, and
    ``"inconclusive"`` with fewer ok rounds.  ``threshold``, the one-sided
    upper confidence bound on P(up | ok), is reported only.
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
    """Exact joint distribution over the round's sampled measurements, read
    off the leaves of the compiled branch tree (:func:`compiled_round`), each
    a product of exact Born probabilities; no randomness is involved.  It is
    the variant's one distribution, checked once: every call returns it."""
    return compiled_round(variant).distribution


def monte_carlo(config: ProtocolConfig, rounds: int) -> FrequencyTable:
    """Frequencies over ``rounds`` independent rounds (no halting).

    Round ``k`` uses the substream keyed by ``(seed, k)``, so the table is
    deterministic per seed and rounds can be partitioned across workers
    without changing the result.  Rounds are sampled in blocks of
    ``ROUND_CHUNK``: a one-axis grid of round indices
    (:func:`grid_uniforms`, :meth:`RoundSampler.walk`), with the same
    uniforms and the same outcomes as one ``draw`` per round.  Round indices
    stop below 2**64, so more rounds are rejected before any is sampled.
    """
    if not 1 <= index(rounds) <= 2**64:
        raise ValueError(f"rounds must lie in [1, 2**64], got {rounds}")
    sampler = compiled_round(config.variant)
    leaf_counts = np.zeros(len(sampler.leaves), dtype=np.int64)
    for start in range(0, rounds, ROUND_CHUNK):
        block = np.arange(start, min(start + ROUND_CHUNK, rounds), dtype=np.uint64)
        leaves = sampler.walk(grid_uniforms(config.seed, (block,), sampler.depth))
        leaf_counts += np.bincount(leaves, minlength=len(sampler.leaves))
    counts = {key: int(n) for key, n in zip(sampler.leaves, leaf_counts) if n}
    return FrequencyTable(counts=counts, total=rounds)


def rounds_to_halt(config: ProtocolConfig, repeats: int) -> np.ndarray:
    """Rounds each of ``repeats`` until-halt runs took to halt, 0 for a run
    that reached ``config.max_rounds`` without halting.

    Entry ``r`` is ``run_until_halt(config, stream=(r,)).rounds_executed``
    when that run halts: round ``k`` of run ``r`` uses the substream keyed by
    ``(seed, r, k)``.  Every run still going is sampled a window of rounds
    at a time, as a two-axis grid of (run, round) keys (:func:`grid_uniforms`,
    :meth:`RoundSampler.walk`); a run's first halting leaf in the window ends
    it.  A window starts at ``HALT_WINDOW`` rounds and doubles while the
    runs still going fill at most ``ROUND_CHUNK`` pairs, weighed by the
    chance that one of them outlasts the window: a round halts with the
    compiled tree's exact probability of its halting leaves.  It stops at
    ``max_rounds``; its runs are split evenly over as few kernel calls as
    hold them.
    """
    if index(repeats) < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    sampler = compiled_round(config.variant)
    lengths = np.zeros(repeats, dtype=np.int64)
    if not sampler.halting.any():  # W's step is skipped after an intrusion ok
        return lengths
    stays = 1.0 - sampler.distribution.halt_probability  # per round
    going, start = np.arange(repeats, dtype=np.uint64), 0
    while len(going) and start < config.max_rounds:
        width = HALT_WINDOW
        while 2 * width * len(going) <= ROUND_CHUNK * (1.0 - (1.0 - stays**width) ** len(going)):
            width *= 2
        window = np.arange(start, min(start + width, config.max_rounds), dtype=np.uint64)
        rows = ROUND_CHUNK // len(window)  # runs per kernel call, at most
        still = []
        for runs in np.array_split(going, -(-len(going) // rows)):
            halts = sampler.halting[
                sampler.walk(grid_uniforms(config.seed, (runs, window), sampler.depth))]
            halted = halts.any(axis=1)
            lengths[runs[halted]] = start + 1 + halts[halted].argmax(axis=1)
            still.append(runs[~halted])
        going = np.concatenate(still)
        start += width
    return lengths


def z_scores(table: FrequencyTable, exact: JointDistribution) -> dict[OutcomeKey, float]:
    """Standardized deviations of empirical frequencies from exact values.

    A key whose exact probability has no spread (0 or 1) scores 0 when its
    frequency matches, and raises ValueError naming it when it does not: a
    key counted at exact probability 0 has no finite score.
    """
    out: dict[OutcomeKey, float] = {}
    keys = set(table.counts) | set(exact.entries)
    for key in sorted(keys, key=str):
        p = min(max(exact.probability(key), 0.0), 1.0)  # JointDistribution's slack clamped
        se = sqrt(p * (1.0 - p) / table.total)
        diff = table.frequency(key) - p
        if not (se > 0 or diff == 0):
            raise ValueError(f"{key} has frequency {table.frequency(key)!r} at exact "
                             f"probability {p!r}: its z-score is infinite")
        out[key] = diff / se if se > 0 else 0.0
    return out


def binomial_upper_bound(successes: int, trials: int, confidence: float = 0.99) -> float:
    """One-sided Clopper-Pearson upper confidence bound for a proportion.

    The bound is the ``p`` at which at most ``successes`` in ``trials`` has
    probability ``1 - confidence`` (Clopper & Pearson, Biometrika 1934), the
    ``confidence`` quantile of Beta(successes + 1, trials - successes) as
    far as the tail's log resolves it: with ``successes > 0`` its terms
    cancel, so the relative error grows as the confidence falls (against
    scipy at (5, 10): 1.3e-12 at 1e-4, 5e-9 at 1e-7, 4e-6 at 1e-10).  It is
    1 when every trial succeeded.  Otherwise it is the float that bisection
    on the exact binomial lower tail ``F(p)``, evaluated in log space, ends
    on.  A point is verified when ``log F`` there clears the target
    ``log(1 - confidence)`` by more than its margin, ``TAIL_MARGIN`` times
    the sum of the absolute values of the terms the evaluation adds: a
    stated bound on its rounding error, about ten times the largest error
    measured near a root.  One bracket ``(a, b)`` holds the highest point
    verified above the target and the lowest verified below it, from
    ``(0, 1)``, and both phases read it:

    1. Newton on ``log F - target`` from ``(successes + 1) / (trials + 2)``.
       Each evaluated point replaces an end, and a step that would leave
       the bracket bisects it instead, at the float halfway between its ends
       in bit pattern: near a tiny root ``p - gap / slope`` cancels to 0, and
       halving the bracket would take one step per exponent.  A point within
       its margin ends the phase, and probes at ``p -+ 4 * margin / |slope|``
       around it narrow the bracket.  Each step lands strictly inside the
       bracket, and the midpoint of two adjacent floats is one of them, so
       the phase ends.
    2. Replay: the bisection from [0, 1], where a mid at or below ``a`` goes
       to ``lo`` and a mid at or above ``b`` goes to ``hi`` without an
       evaluation.  Every other mid is evaluated as in plain bisection.

    The true tail falls strictly in ``p``.  So at a skipped mid, the plain
    bisection's evaluation falls on the same side of the target as the
    verified end, as long as the rounding error stays under the margin, and
    the result is the plain bisection's, bit for bit.  When nothing is
    verified, the replay is the plain bisection.  ``(1667, 4951)`` takes 22
    evaluations of the tail where plain bisection takes 54, and
    ``(0, 1, 1e-300)`` takes 22.
    """
    successes, trials = index(successes), index(trials)
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
    a, b = 0.0, 1.0  # verified: log F > target at a, < target at b
    p = (successes + 1) / (trials + 2)
    while a < p < b:
        value, slope, scale = log_tail(p)
        gap, margin = value - target, TAIL_MARGIN * scale
        if abs(gap) <= margin:
            if 4 * margin < -slope:  # the probes lie within 1 of p
                offset = 4 * margin / -slope
                for probe in (p - offset, p + offset):
                    if a < probe < b:
                        value, _, scale = log_tail(probe)
                        if abs(value - target) > TAIL_MARGIN * scale:
                            a, b = (probe, b) if value > target else (a, probe)
            break
        a, b = (p, b) if gap > 0 else (a, p)
        # A step as long as the bracket, or a zero slope, would leave it: bisect
        # at the float halfway in bits, which halves a span of exponents too.
        newton = p - gap / slope if abs(gap) < -slope * (b - a) else a
        p = newton if a < newton < b else float(
            (np.array([a, b]).view(np.int64).sum() // 2).view(np.float64))
    lo, hi = 0.0, 1.0  # the tail falls from 1 at p = 0 to 0 at p = 1
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid <= a or mid < b and log_tail(mid)[0] > target:
            lo = mid
        else:
            hi = mid
    return hi


def _log_binomial_tail(x: int, n: int):
    """``p -> (log F, d log F / dp, scale)`` for ``F = P(X <= x)``,
    ``X ~ Binomial(n, p)`` and ``0 < p < 1``.

    Every term is taken relative to the ``k = x`` term, whose log binomial
    coefficient is a sum of small logs added exactly (``fsum``), so no large
    lgamma values cancel.  With ``S = F / term(x)``, the slope is
    ``-(n - x) / ((1 - p) S)``.  ``scale`` is the sum of the absolute values
    of the five terms that ``log F`` adds, from which
    :func:`binomial_upper_bound` takes its rounding margin.
    """
    m = min(x, n - x)
    i = np.arange(1.0, m + 1)
    log_choose = fsum(np.log((n - m + i) / i))  # log C(n, x)
    k = np.arange(float(x), 0.0, -1.0)
    # log C(n, x - j) - log C(n, x), for j = 0..x
    log_ratio = np.concatenate(([0.0], np.cumsum(np.log(k / (n - k + 1)))))
    j = np.arange(x + 1.0)

    def log_tail(p: float) -> tuple[float, float, float]:
        log_p, log_q = log(p), log1p(-p)
        z = log_ratio + j * (log_q - log_p)  # log term(x - j) - log term(x)
        top = z.max()
        log_sum = log(np.exp(z - top).sum())  # log S = top + log_sum
        x_log_p, rest_log_q = x * log_p, (n - x) * log_q
        value = log_choose + x_log_p + rest_log_q + top + log_sum
        slope = -(n - x) / (1.0 - p) * exp(-(top + log_sum))
        # log_choose, top and log_sum are never negative
        return value, slope, log_choose + abs(x_log_p) + abs(rest_log_q) + top + log_sum

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
    is decisive: the decision reads the counts; the bound only quantifies it.
    """
    if not config.variant.intrusion:
        raise ValueError("record detection requires the intrusion variant")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie strictly between 0 and 1, got {confidence}")
    if index(min_ok_rounds) < 1:
        raise ValueError(f"min_ok_rounds must be at least 1, got {min_ok_rounds}")
    table = monte_carlo(config, rounds)
    # Post-selected ok rounds, by the intrusion's direct spin reading: only an
    # ok leads to the intrusion.
    spins = {key.intrusion: n for key, n in table.counts.items() if key.intrusion}
    ok_rounds, up_count = sum(spins.values()), spins.get("up", 0)
    if ok_rounds < min_ok_rounds:
        fraction, bound, decision = None, None, "inconclusive"
    else:
        fraction = up_count / ok_rounds
        bound = binomial_upper_bound(up_count, ok_rounds, confidence)
        decision = "record-detected" if up_count < ok_rounds else "no-record"
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
